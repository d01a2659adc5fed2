"""Rectangular mesh compilation and evaluation for nearest-neighbor MZI cells.

The cell convention used throughout is

    T(theta, phi) = [[exp(i phi) cos(theta), -sin(theta)],
                     [exp(i phi) sin(theta),  cos(theta)]]

acting on an adjacent mode pair (lo, hi = lo + 1): a phase shifter on the lo
input followed by a rotation. An N-mode unitary compiles into N(N-1)/2 such
cells arranged in columns, plus one output phase per mode.

Decomposition nulls the lower-left triangle anti-diagonal by anti-diagonal,
alternating plain cells applied from the left with inverse cells applied from
the right, then commutes the leftover inverses through the residual diagonal
so the result reads as (output phases) x (cell product).
"""

import json
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from ._fields import check_fields

_NULL_ATOL = 1e-10
_TWO_PI = 2.0 * np.pi


def _canonical_angle(x: float) -> float:
    """Reduce an angle to [0, 2 pi).

    Floating point ``%`` can return exactly ``2 pi`` for tiny negative
    inputs, which would violate the half open range, so that case is
    folded back to zero.
    """
    r = float(x) % _TWO_PI
    return 0.0 if r >= _TWO_PI else r


class DecompositionError(ValueError):
    """Raised when a matrix cannot be compiled into a mesh plan."""


@dataclass(frozen=True)
class MeshNoise:
    """Gaussian fabrication-error model for realized cells.

    sigma_theta and sigma_phi are phase offsets in radians; sigma_split is
    the deviation of each directional coupler's power ratio from 1/2. The
    seed fixes every draw, per cell, independent of evaluation order.
    """

    sigma_theta: float = 0.05
    sigma_phi: float = 0.05
    sigma_split: float = 0.005
    seed: int = 0

    def __post_init__(self):
        check_fields(self, nonneg=("sigma_theta", "sigma_phi", "sigma_split", "seed"))


@dataclass(frozen=True)
class MeshPlan:
    """Immutable mesh program: cell k couples modes (los[k], los[k] + 1) with phases
    thetas[k], phis[k]; cells apply in order, output phases last."""

    dim: int
    los: tuple
    thetas: tuple
    phis: tuple
    output_phases: tuple

    def __post_init__(self):
        if self.dim < 1:
            raise ValueError("dim must be >= 1")
        if len(self.output_phases) != self.dim:
            raise ValueError("output_phases length must equal dim")
        if not len(self.los) == len(self.thetas) == len(self.phis):
            raise ValueError("los, thetas and phis must have equal lengths")
        if not all(isinstance(lo, int) and 0 <= lo < self.dim - 1 for lo in self.los):
            raise ValueError("cell mode index exceeds dim (each lo is an int, 0 <= lo < dim - 1)")
        if not np.all(np.isfinite(self.thetas + self.phis + self.output_phases)):
            raise ValueError("phases must be finite")


def mzi_transfer(theta: float, phi: float) -> np.ndarray:
    """2x2 transfer matrix of one ideal cell."""
    c, s = np.cos(theta), np.sin(theta)
    ph = np.exp(1j * phi)
    return np.array([[ph * c, -s], [ph * s, c]], dtype=complex)


def embed_cell(lo: int, theta: float, phi: float, dim: int) -> np.ndarray:
    """Ideal cell on modes (lo, lo + 1) as a dim x dim unitary, identity elsewhere."""
    if not 0 <= lo < dim - 1:
        raise ValueError("cell mode index exceeds dim")
    u = np.eye(dim, dtype=complex)
    u[lo:lo + 2, lo:lo + 2] = mzi_transfer(theta, phi)
    return u


def imperfect_mzi(theta, phi, d_theta=0.0, d_phi=0.0, d_split1=0.0, d_split2=0.0) -> np.ndarray:
    """Realized cell: two imperfect couplers around an internal phase.

    Composition, input to output:
      phase exp(i (phi + d_phi)) on the lo port,
      coupler with power ratio 1/2 + d_split1,
      internal phase exp(i (2 theta_eff + pi)) on the lo arm,
      coupler with power ratio 1/2 + d_split2,
      fixed compensation phases diag(-exp(-i theta_eff), exp(-i theta_eff)),
    with theta_eff = theta + d_theta. At zero error this equals
    mzi_transfer(theta, phi) exactly. Always unitary; a ratio outside [0, 1] raises.
    """
    m = _cell_matrices(np.array([theta]), np.array([phi]),
                       np.array([[d_theta, d_phi, d_split1, d_split2]]))
    return np.array([[m[0][0], m[1][0]], [m[2][0], m[3][0]]], dtype=complex)


@lru_cache(maxsize=128)
def _coupler_products(splits: bytes):
    """Read-only (p, q, ps, qs) of cells given the float64 bytes of their (d_split1, d_split2);
    cached, as training freezes the offsets. A bad ratio raises on every call (none cached)."""
    ratios = 0.5 + np.frombuffer(splits).reshape(-1, 2)
    bad = np.flatnonzero(~((ratios >= 0.0) & (ratios <= 1.0)))
    if bad.size:
        raise ValueError(f"cell {bad[0] // 2}: coupler power ratio {ratios.flat[bad[0]]:.6g} "
                         f"is outside [0, 1]; lower noise.sigma_split")
    r1, r2 = ratios.T
    u1, v1 = np.sqrt(r1), np.sqrt(1.0 - r1)
    u2, v2 = np.sqrt(r2), np.sqrt(1.0 - r2)
    # Products of coupler amplitudes through the two internal paths.
    products = (u1 * u2, v1 * v2, u1 * v2, u2 * v1)
    for a in products:
        a.setflags(write=False)
    return products


def _cell_matrices(thetas, phis, offsets):
    """Vectorized 2x2 entries (m00, m01, m10, m11) for realized cells."""
    th = thetas + offsets[:, 0]
    ph = phis + offsets[:, 1]
    p, q, ps, qs = _coupler_products(np.ascontiguousarray(offsets[:, 2:], dtype=float).tobytes())
    eip = np.exp(1j * th)
    ein = np.conj(eip)
    eif = np.exp(1j * ph)
    m00 = (p * eip + q * ein) * eif
    m01 = 1j * (qs * eip - ps * ein)
    m10 = 1j * (qs * ein - ps * eip) * eif
    m11 = p * ein + q * eip
    return m00, m01, m10, m11


@lru_cache(maxsize=128)
def _cached_offsets(noise: MeshNoise, n_cells: int):
    scales = np.array([noise.sigma_theta, noise.sigma_phi, noise.sigma_split, noise.sigma_split])
    out = np.empty((n_cells, 4))
    for i in range(n_cells):
        rng = np.random.default_rng(np.random.SeedSequence(noise.seed, spawn_key=(i,)))
        out[i] = rng.normal(0.0, scales)
    out.setflags(write=False)
    return out


def noise_offsets(noise, n_cells: int) -> np.ndarray:
    """Per-cell draws (d_theta, d_phi, d_split1, d_split2), shape (n_cells, 4).

    Deterministic in (noise.seed, cell index); cell i's draws do not depend
    on how many other cells exist. Returns a read-only array.
    """
    if noise is None:
        out = np.zeros((n_cells, 4))
        out.setflags(write=False)
        return out
    return _cached_offsets(noise, n_cells)


@lru_cache(maxsize=128)
def _columns(dim: int, los: tuple):
    """Each cell's column, the first free on both its modes (so one column's cells act on
    disjoint pairs), a read-only identity stack (n_columns >= 1, dim, dim), and the flat
    positions in it of every cell's m00, then m01, m10, m11."""
    depth = [0] * dim
    cols = []
    for lo in los:
        col = max(depth[lo], depth[lo + 1])
        depth[lo] = depth[lo + 1] = col + 1
        cols.append(col)
    stack = np.tile(np.eye(dim, dtype=complex), (max(1, *depth), 1, 1))
    stack.setflags(write=False)
    diag = np.array(cols, dtype=np.intp) * dim * dim + np.array(los, dtype=np.intp) * (dim + 1)
    positions = np.concatenate([diag, diag + 1, diag + dim, diag + dim + 1])
    return tuple(cols), stack, positions


def forward_arrays(dim, los, thetas, phis, output_phases, offsets) -> np.ndarray:
    """Low-level mesh evaluation from parallel arrays (see mesh_forward): a product of
    block-diagonal column matrices (see _columns), first column rightmost, output phases last."""
    _, stack, positions = _columns(dim, tuple(los))
    mats = stack.copy()
    mats.reshape(-1)[positions] = np.concatenate(_cell_matrices(thetas, phis, offsets))
    u = mats[0]
    for column in mats[1:]:
        u = column @ u
    return u * np.exp(1j * np.asarray(output_phases))[:, None]


def mesh_forward(plan: MeshPlan, noise: MeshNoise | None = None) -> np.ndarray:
    """Evaluate the mesh to a dim x dim matrix, optionally with realized noise.

    Cells are applied in plan order, output phases last. The noiseless path
    is the noisy path with all offsets zero, so a zero-sigma noise model is
    bit-identical to passing no noise at all. The result is always unitary,
    noisy or not.
    """
    return forward_arrays(plan.dim, plan.los, plan.thetas, plan.phis, plan.output_phases,
                          noise_offsets(noise, len(plan.los)))


def _null_angles(num, den):
    """Angles zeroing a matrix entry: tan(theta) e^{i phi} = num / den."""
    theta = np.arctan2(abs(num), abs(den))
    if theta == 0.0:
        return 0.0, 0.0
    phi = _canonical_angle(np.angle(num) - np.angle(den))
    return float(theta), phi


def _apply_left(w, lo, theta, phi):
    """w <- T(theta, phi) w on rows (lo, lo+1)."""
    c, s = np.cos(theta), np.sin(theta)
    ph = np.exp(1j * phi)
    ra = w[lo].copy()
    rb = w[lo + 1]
    w[lo] = ph * c * ra - s * rb
    w[lo + 1] = ph * s * ra + c * rb


def _apply_right(w, lo, theta, phi):
    """w <- w T(theta, phi)^{-1} on columns (lo, lo+1)."""
    c, s = np.cos(theta), np.sin(theta)
    ph = np.exp(-1j * phi)
    ca = w[:, lo].copy()
    cb = w[:, lo + 1]
    w[:, lo] = ph * c * ca - s * cb
    w[:, lo + 1] = ph * s * ca + c * cb


def clements_decompose(unitary: np.ndarray) -> MeshPlan:
    """Compile a unitary into a rectangular nearest-neighbor mesh plan.

    Exactly N(N-1)/2 cells are emitted for an N x N input (cells whose
    target entry is already zero appear with theta = 0). Raises
    DecompositionError if the input is not unitary or if any nulling step
    fails to produce a zero; both checks use the absolute tolerance
    _NULL_ATOL (1e-10).
    """
    u = np.asarray(unitary, dtype=complex)
    if u.ndim != 2 or u.shape[0] != u.shape[1]:
        raise DecompositionError("input must be a square matrix")
    n = u.shape[0]
    if not np.max(np.abs(u.conj().T @ u - np.eye(n))) <= _NULL_ATOL:
        raise DecompositionError("input matrix is not unitary")

    w = u.copy()
    left_ops = []
    right_ops = []
    # Null anti-diagonal i - j = diag + 1 of the lower triangle, largest
    # offset first, alternating the side the cell acts from.
    for diag in range(n - 2, -1, -1):
        size = n - 1 - diag
        if diag % 2 == 0:
            for j in range(size):
                i = diag + j + 1
                lo = i - 1
                theta, phi = _null_angles(-w[i, j], w[i - 1, j])
                _apply_left(w, lo, theta, phi)
                if not abs(w[i, j]) <= _NULL_ATOL:
                    raise DecompositionError(f"failed to null entry ({i}, {j})")
                w[i, j] = 0.0
                left_ops.append((lo, theta, phi))
        else:
            for j in range(size - 1, -1, -1):
                i = diag + j + 1
                lo = j
                theta, phi = _null_angles(w[i, j], w[i, j + 1])
                _apply_right(w, lo, theta, phi)
                if not abs(w[i, j]) <= _NULL_ATOL:
                    raise DecompositionError(f"failed to null entry ({i}, {j})")
                w[i, j] = 0.0
                right_ops.append((lo, theta, phi))

    psi = list(np.angle(np.diag(w)))
    ordered = list(right_ops)
    # Commute each leftover inverse cell through the diagonal:
    # T^{-1}(theta, phi) D = D' T(theta, phi'), processed innermost first.
    for lo, theta, phi in reversed(left_ops):
        pa, pb = psi[lo], psi[lo + 1]
        if theta == 0.0:
            phi2 = 0.0
            psi[lo] = pa - phi
        else:
            phi2 = _canonical_angle(pa - pb + np.pi)
            psi[lo] = pb - phi + np.pi
        ordered.append((lo, theta, phi2))

    return MeshPlan(n, tuple(lo for lo, _, _ in ordered),
                    tuple(float(theta) for _, theta, _ in ordered),
                    tuple(_canonical_angle(phi) for _, _, phi in ordered),
                    tuple(_canonical_angle(p) for p in psi))


def plan_to_json(plan: MeshPlan) -> str:
    """Serialize a plan; numbers carry 17 significant digits. A cell's column is the
    first one free on both its modes, the layout clements_decompose emits."""

    def num(x):
        return format(float(x), ".17g")

    cols, _, _ = _columns(plan.dim, plan.los)
    cells = ['{"lo":%d,"hi":%d,"theta":%s,"phi":%s,"column":%d}'
             % (lo, lo + 1, num(theta), num(phi), col)
             for lo, theta, phi, col in zip(plan.los, plan.thetas, plan.phis, cols)]
    phases = ",".join(num(p) for p in plan.output_phases)
    return '{"dim":%d,"cells":[%s],"output_phases":[%s]}' % (plan.dim, ",".join(cells), phases)


def plan_from_json(text: str) -> MeshPlan:
    """Inverse of plan_to_json; the column entries are not read back."""
    doc = json.loads(text)
    cells = doc["cells"]
    if any(c["hi"] != c["lo"] + 1 for c in cells):
        raise ValueError("cells couple adjacent modes only (hi must equal lo + 1)")
    return MeshPlan(doc["dim"], *(tuple(c[key] for c in cells) for key in ("lo", "theta", "phi")),
                    tuple(doc["output_phases"]))
