"""Spin-boson Hamiltonian in a unary photonic encoding, with exact stepped evolution.

The system is one spin-1/2 coupled to a single bosonic mode truncated at
``n_boson`` levels. Each basis state (spin, boson level) maps to one waveguide
channel, spin-up block first, boson level ascending within a block, so the
total channel count is ``2 * n_boson``.
"""

from dataclasses import dataclass

import numpy as np

from ._fields import (_EIG_RESIDUAL_ATOL, _EPS, _HERMITIAN_ATOL, _UNITARY_ATOL, check_fields,
                      fits, frozen_cache)


@dataclass(frozen=True)
class SpinBosonParams:
    """Model parameters.

    epsilon is the transverse spin field, omega_hbar the boson quantum,
    lam the spin-boson coupling, all in units of the longitudinal field
    h_field. dt is the duration of one evolution step.
    """

    epsilon: float
    omega_hbar: float
    lam: float
    h_field: float = 1.0
    n_boson: int = 3
    dt: float = 1.0

    def __post_init__(self):
        check_fields(self, positive=("n_boson", "dt"))

    @property
    def dim(self) -> int:
        return 2 * self.n_boson


@frozen_cache(maxsize=32)
def _operators(n_boson: int) -> tuple:
    """Read-only (1 x a'a, sz x 1, sx x 1, sx x (a' + a)) on the channel space, the
    Kronecker factors of build_hamiltonian's four terms; cached, as they depend on
    n_boson alone. a|m> = sqrt(m)|m-1> is the annihilator truncated at n_boson levels."""
    a = np.diag(np.sqrt(np.arange(1.0, n_boson)), 1).astype(complex)
    adag = a.conj().T
    eye_b = np.eye(n_boson)
    sz = np.array([[1.0, 0.0], [0.0, -1.0]])
    sx = np.array([[0.0, 1.0], [1.0, 0.0]])
    return (np.kron(np.eye(2), adag @ a), np.kron(sz, eye_b), np.kron(sx, eye_b),
            np.kron(sx, a + adag))


def build_hamiltonian(params: SpinBosonParams) -> np.ndarray:
    """Dense Hamiltonian on the 2*n_boson channel space.

    H = omega_hbar * a'a + (h_field * sz + epsilon * sx) / 2
        + lam * sx (a' + a)
    with sz = +1 on the excited block, summed term by term in that order.
    """
    number, z, x, coupling = _operators(params.n_boson)
    return (params.omega_hbar * number + 0.5 * params.h_field * z + 0.5 * params.epsilon * x
            + params.lam * coupling)


def step_unitary(hamiltonian: np.ndarray, dt: float) -> np.ndarray:
    """One-step propagator exp(-i H dt) via Hermitian eigendecomposition.

    Computed and checked once per (H, float(dt)) and cached, at most 4 kept;
    each call returns a fresh, writable copy.
    """
    h = np.asarray(hamiltonian, dtype=complex)
    if h.ndim != 2 or h.shape[0] != h.shape[1]:
        raise ValueError("hamiltonian must be a square matrix")
    return _propagator(h.tobytes(), h.shape[0], float(dt)).copy()


@frozen_cache(maxsize=4)
def _propagator(h_bytes: bytes, dim: int, dt: float) -> np.ndarray:
    """Read-only exp(-i H dt) of the C-order complex128 bytes of a dim x dim H, with its Hermitian,
    dt, phase range (||H||_2 dt finite), eigen-residual (at most max(_EIG_RESIDUAL_ATOL, 16 eps dim
    ||H||_2), as eigh's grows with ||H||_2 = max|w|) and unitarity checks, their bounds from the
    _fields table. A failed check raises on every call (none cached)."""
    h = np.frombuffer(h_bytes, dtype=complex).reshape(dim, dim)
    if not np.max(np.abs(h - h.conj().T)) <= _HERMITIAN_ATOL:
        raise ValueError("hamiltonian is not Hermitian")
    if not np.isfinite(dt):
        raise ValueError("dt must be finite")
    w, v = np.linalg.eigh(h)
    norm = float(np.max(np.abs(w)))
    if not np.isfinite(norm * dt):  # Python floats: an overflow is inf, not a warning
        raise ValueError(f"dt {dt} times the eigenvalue bound max|w| {norm:.3e} is not finite")
    residual = np.max(np.abs(h @ v - v * w))
    bound = max(_EIG_RESIDUAL_ATOL, 16 * _EPS * dim * norm)
    if not residual <= bound:
        raise RuntimeError(f"eigendecomposition residual {residual:.3e} too large")
    u = (v * np.exp(-1j * w * dt)) @ v.conj().T
    defect = np.max(np.abs(u.conj().T @ u - np.eye(dim)))
    if not defect <= _UNITARY_ATOL:
        raise RuntimeError(f"propagator unitarity defect {defect:.3e} too large")
    return u


def propagate(matrix: np.ndarray, first: np.ndarray, n_steps: int) -> np.ndarray:
    """Loop-pass outputs for passes 1..n_steps >= 1, stacked on a new leading axis.

    first is pass 1's output: one vector, or a matrix whose columns are inputs.
    Each further pass applies matrix, square or a stack of square matrices, once
    to the previous pass's output, as one trip round the loop does. A column of
    the all-inputs result can differ in the last bit from that input alone.
    """
    if np.ndim(matrix) < 2 or np.shape(matrix)[-1] != np.shape(matrix)[-2]:
        raise ValueError("matrix must be a square matrix or a stack of them")
    if not (fits(n_steps, int) and n_steps >= 1):
        raise ValueError(f"n_steps must be an integer >= 1, got {n_steps!r}")
    out = np.empty((n_steps,) + np.shape(first), dtype=complex)
    out[0] = first
    for n in range(1, n_steps):
        out[n] = matrix @ out[n - 1]
    return out


def evolve_exact(unitary: np.ndarray, initial_channel: int, n_steps: int) -> np.ndarray:
    """Channel probability distribution after each of n_steps applications
    of the step propagator unitary, starting from a single occupied channel.

    Returns an (n_steps, dim) array; row n-1 is the distribution after n steps.
    """
    if np.ndim(unitary) != 2:
        raise ValueError("unitary must be a square matrix")
    if not 0 <= initial_channel < unitary.shape[0]:
        raise ValueError("initial_channel out of range")
    return np.abs(propagate(unitary, unitary[:, initial_channel], n_steps)) ** 2
