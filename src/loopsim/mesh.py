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

A realized cell is, input to output: phase exp(i phi') on the lo port, coupler of
power ratio 1/2 + d_split1, phase exp(i (2 theta' + pi)) on the lo arm, coupler of
ratio 1/2 + d_split2, then diag(-exp(-i theta'), exp(-i theta')), with fabrication
offsets theta' = theta + d_theta, phi' = phi + d_phi. meshes is the one evaluation path,
for one mesh (mesh_forward) or a training stencil's stack: cell_entries computes the changed
cells' 2x2 entries in one call, each mesh's columns start from the current point's and take
only those entries, at most _COLUMN_BYTES of them built at once, forward_arrays chains one
mesh's columns, from the first or from another mesh's chain (Clements et al., Optica 3, 1460
(2016)), and the output phases apply last.
"""

import json
from dataclasses import dataclass

import numpy as np

from ._fields import _NULL_ATOL, check_fields, fits, frozen_cache

_TWO_PI = 2.0 * np.pi
_COLUMN_BYTES = 1 << 18  # bytes of column matrices meshes builds in one call, so they stay in cache


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
        if not (fits(self.dim, int) and self.dim >= 1):
            raise ValueError(f"dim must be an integer >= 1, got {self.dim!r}")
        if len(self.output_phases) != self.dim:
            raise ValueError("output_phases length must equal dim")
        if not len(self.los) == len(self.thetas) == len(self.phis):
            raise ValueError("los, thetas and phis must have equal lengths")
        for k, lo in enumerate(self.los):
            if not (fits(lo, int) and 0 <= lo < self.dim - 1):
                raise ValueError(f"cell {k}: lo {lo!r} exceeds dim or is not an int (0 <= lo < dim - 1)")
        for where, key, values in (("cell", "theta", self.thetas), ("cell", "phi", self.phis),
                                   ("mode", "output phase", self.output_phases)):
            for k, x in enumerate(values):
                if not fits(x, float):
                    raise ValueError(f"{where} {k}: {key} must be a finite number, got {x!r}")


@frozen_cache(maxsize=128)
def _cell_coefficients(splits: bytes) -> np.ndarray:
    """Read-only complex (a, b), shape (2, 4, n_cells), of cells given the float64 bytes of
    their (d_split1, d_split2); cached, as training freezes the offsets. A bad ratio raises
    on every call (none cached)."""
    ratios = 0.5 + np.frombuffer(splits).reshape(-1, 2)
    bad = np.flatnonzero(~((ratios >= 0.0) & (ratios <= 1.0)))
    if bad.size:
        raise ValueError(f"cell {bad[0] // 2}: coupler power ratio {ratios.flat[bad[0]]:.6g} "
                         f"is outside [0, 1]; lower noise.sigma_split")
    (u1, u2), (v1, v2) = np.sqrt(ratios.T), np.sqrt(1.0 - ratios.T)
    # Products of coupler amplitudes through the two internal paths.
    p, q, ps, qs = u1 * u2, v1 * v2, u1 * v2, u2 * v1
    return np.array([[p, 1j * qs, -1j * ps, q], [q, -1j * ps, 1j * qs, p]], dtype=complex)


def cell_entries(thetas, phis, offsets) -> np.ndarray:
    """Entries (m00, m01, m10, m11), shape (..., 4, n_cells), of realized cells from thetas
    and phis of shape (..., n_cells) and offsets rows (d_theta, d_phi, d_split1, d_split2):
    a exp(i theta') + b exp(-i theta'), rows m00 and m10 then times exp(i phi'), with
    theta' = theta + d_theta, phi' = phi + d_phi. At zero offsets this is T(theta, phi) up to
    rounding. Always unitary; a ratio outside [0, 1] raises."""
    a, b = _cell_coefficients(np.ascontiguousarray(offsets[:, 2:], dtype=float).tobytes())
    eip = np.exp(1j * (np.asarray(thetas) + offsets[:, 0]))[..., None, :]
    entries = a * eip + b * np.conj(eip)
    entries[..., ::2, :] *= np.exp(1j * (np.asarray(phis) + offsets[:, 1]))[..., None, :]
    return entries


@frozen_cache(maxsize=128)
def noise_offsets(noise: MeshNoise | None, n_cells: int) -> np.ndarray:
    """Per-cell draws (d_theta, d_phi, d_split1, d_split2), shape (n_cells, 4), all zeros
    when noise is None; read-only and cached, as training evaluates the mesh on the same draws.

    Deterministic in (noise.seed, cell index): cell i draws from
    PCG64(SeedSequence(noise.seed, spawn_key=(i,))), named so that a change of
    numpy's default generator cannot move them, and its draws do not depend on
    how many other cells exist.
    """
    out = np.zeros((n_cells, 4))
    if noise is not None:
        scales = np.array([noise.sigma_theta, noise.sigma_phi, noise.sigma_split, noise.sigma_split])
        for i in range(n_cells):
            bits = np.random.PCG64(np.random.SeedSequence(noise.seed, spawn_key=(i,)))
            out[i] = np.random.Generator(bits).normal(0.0, scales)
    return out


@frozen_cache(maxsize=128)
def _columns(dim: int, los: tuple):
    """Each cell's column (intp), the first free on both its modes (so one column's cells act on
    disjoint pairs), an identity stack (n_columns >= 1, dim, dim), and the flat positions in
    it of every cell's m00, m01, m10, m11, shape (4, n_cells); cached and read-only."""
    depth = [0] * dim
    cols = []
    for lo in los:
        col = max(depth[lo], depth[lo + 1])
        depth[lo] = depth[lo + 1] = col + 1
        cols.append(col)
    stack = np.tile(np.eye(dim, dtype=complex), (max(1, *depth), 1, 1))
    cols = np.array(cols, dtype=np.intp)
    diag = cols * dim * dim + np.array(los, dtype=np.intp) * (dim + 1)
    return cols, stack, np.stack([diag, diag + 1, diag + dim, diag + dim + 1])


def forward_arrays(dim, los, columns, resume=None) -> list:
    """One mesh's column chain from its (n_columns, dim, dim) block-diagonal column matrices
    (see _columns): the products of columns 0..k, first column rightmost; the last, times
    the output phases, is the mesh. resume=(s, chain) takes the first s products of the chain
    of a mesh with these columns before column s, and forms the rest with the plain chain's
    bits. Unchecked: meshes, the package's one caller, builds columns and resume."""
    start, chain = resume or (0, None)
    chain = chain[:start] if start else [columns[0]]
    last = chain[-1]
    for k in range(len(chain), len(columns)):  # indexing, as iterating an array's rows is slower
        last = columns[k].dot(last)
        chain.append(last)
    return chain


def meshes(plan: MeshPlan, noise: MeshNoise | None, points, at=None):
    """The (B, dim, dim) meshes of a (B >= 1, 2 * n_cells) stack of phase vectors (thetas, then
    phis) on plan's cells, under noise, output phases applied, and the last row's state
    (phases, column matrices, chain) to pass back as at. Each row copies at's columns, scatters
    in the entries of the cells whose phases differ from at's, and resumes at's chain at the
    first of their columns, bit for bit as from scratch; without at the base is the identity
    stack and every cell counts as changed (a cell-less mesh keeps its one identity column).
    Column matrices are built _COLUMN_BYTES (or one mesh's) at a time, so they stay in cache."""
    dim, n_cells = plan.dim, len(plan.los)
    if points.ndim != 2 or len(points) < 1 or points.shape[1] != 2 * n_cells:
        raise ValueError(f"points must have shape (B >= 1, 2 * n_cells = {2 * n_cells}), got {points.shape}")
    cols, stack, positions = _columns(dim, tuple(plan.los))
    x0, columns0, chain0 = at or (np.full(2 * n_cells, np.nan), stack, [stack[0]])
    changed = (points != x0).reshape(len(points), 2, n_cells).any(axis=1)
    rows, cells = np.nonzero(changed)  # sorted by row
    entries = cell_entries(points[rows, cells], points[rows, n_cells + cells],
                           noise_offsets(noise, n_cells)[cells])
    # each row resumes at its first changed cell's column, or keeps the whole chain of at
    starts = np.where(changed, cols, len(stack)).min(axis=-1, initial=len(stack)).tolist()
    chunk = max(1, _COLUMN_BYTES // stack.nbytes)  # rows whose columns are built at once
    targets = rows % chunk * stack.size + positions[:, cells]  # flat positions in their chunk
    edges = np.searchsorted(rows, np.arange(0, len(points) + chunk, chunk)).tolist()
    products = np.empty((len(points), dim, dim), complex)
    for b, s in enumerate(starts):
        if b % chunk == 0:
            i, j = edges[b // chunk], edges[b // chunk + 1]
            columns = np.empty((min(chunk, len(points) - b),) + stack.shape, complex)
            columns[...] = columns0
            columns.reshape(-1)[targets[:, i:j]] = entries[:, i:j]
        products[b] = (chain := forward_arrays(dim, plan.los, columns[b % chunk], (s, chain0)))[-1]
    products *= np.exp(1j * np.asarray(plan.output_phases, dtype=float))[:, None]
    return products, (points[-1], columns[-1], chain)


def mesh_forward(plan: MeshPlan, noise: MeshNoise | None = None) -> np.ndarray:
    """Evaluate the mesh to a dim x dim matrix, optionally with realized noise.

    Cells are applied in plan order, output phases last. The noiseless path
    is the noisy path with all offsets zero, so a zero-sigma noise model is
    bit-identical to passing no noise at all. The result is always unitary,
    noisy or not.
    """
    return meshes(plan, noise, np.array(plan.thetas + plan.phis, dtype=float)[None])[0][0]


def _null_angles(num, den):
    """Angles zeroing a matrix entry: tan(theta) e^{i phi} = num / den."""
    theta = np.arctan2(abs(num), abs(den))
    if theta == 0.0:
        return 0.0, 0.0
    phi = _canonical_angle(np.angle(num) - np.angle(den))
    return float(theta), phi


def _apply_left(w, lo, theta, phi):
    """w <- T(theta, phi) w on rows (lo, lo+1), in place (w may be a view)."""
    c, s = np.cos(theta), np.sin(theta)
    ph = np.exp(1j * phi)
    ra = w[lo].copy()
    rb = w[lo + 1]
    w[lo] = ph * c * ra - s * rb
    w[lo + 1] = ph * s * ra + c * rb


def clements_decompose(unitary: np.ndarray) -> MeshPlan:
    """Compile a unitary into a rectangular nearest-neighbor mesh plan.

    Exactly N(N-1)/2 cells are emitted for an N x N input (cells whose
    target entry is already zero appear with theta = 0). Raises
    DecompositionError if the input is not unitary or if any nulling step
    fails to produce a zero; both checks use the absolute tolerance
    _fields._NULL_ATOL. An entry that is not finite or has modulus above
    1 + _NULL_ATOL is rejected before U^dagger U is formed, which could overflow.
    """
    u = np.asarray(unitary, dtype=complex)
    if u.ndim != 2 or u.shape[0] != u.shape[1]:
        raise DecompositionError("input must be a square matrix")
    n = u.shape[0]
    if not ((np.abs(u) <= 1.0 + _NULL_ATOL).all()
            and np.max(np.abs(u.conj().T @ u - np.eye(n))) <= _NULL_ATOL):
        raise DecompositionError("input matrix is not unitary")

    w = u.copy()
    left_ops = []
    right_ops = []
    # Null anti-diagonal i - j = diag + 1 of the lower triangle, largest
    # offset first, alternating the side the cell acts from. A cell from the
    # left is T(theta, phi) on rows (i - 1, i); one from the right is
    # T(theta, phi)^{-1} on columns (j, j + 1), which is T(theta, -phi) on
    # the rows of the transposed view.
    for diag in range(n - 2, -1, -1):
        size = n - 1 - diag
        left = diag % 2 == 0
        for j in range(size) if left else range(size - 1, -1, -1):
            i = diag + j + 1
            if left:
                lo = i - 1
                theta, phi = _null_angles(-w[i, j], w[i - 1, j])
                _apply_left(w, lo, theta, phi)
            else:
                lo = j
                theta, phi = _null_angles(w[i, j], w[i, j + 1])
                _apply_left(w.T, lo, theta, -phi)
            if not abs(w[i, j]) <= _NULL_ATOL:
                raise DecompositionError(f"failed to null entry ({i}, {j})")
            w[i, j] = 0.0
            (left_ops if left else right_ops).append((lo, theta, phi))

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
    """Inverse of plan_to_json; the column entries are not read back. A malformed plan raises
    a ValueError naming the field, and the cell or mode it belongs to."""
    doc = json.loads(text)
    cells, phases = (doc.get(key) if isinstance(doc, dict) else None for key in ("cells", "output_phases"))
    if not (isinstance(cells, list) and isinstance(phases, list)):
        raise ValueError("a plan is a JSON object with dim, cells (a list) and output_phases (a list)")
    for k, c in enumerate(cells):
        if not isinstance(c, dict):
            raise ValueError(f"cell {k} must be a JSON object with lo, hi, theta and phi")
        if fits(c.get("lo"), int) and c.get("hi") != c["lo"] + 1:  # MeshPlan names any other lo
            raise ValueError(f"cell {k}: cells couple adjacent modes only (hi must equal lo + 1)")
    return MeshPlan(doc.get("dim"), *(tuple(c.get(key) for c in cells) for key in ("lo", "theta", "phi")),
                    tuple(phases))
