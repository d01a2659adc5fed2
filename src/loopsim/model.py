"""Spin-boson Hamiltonian in a unary photonic encoding, with exact stepped evolution.

The system is one spin-1/2 coupled to a single bosonic mode truncated at
``n_boson`` levels. Each basis state (spin, boson level) maps to one waveguide
channel, spin-up block first, boson level ascending within a block, so the
total channel count is ``2 * n_boson``.
"""

from dataclasses import dataclass

import numpy as np

from ._fields import check_fields

_HERMITIAN_ATOL = 1e-12
_EIG_RESIDUAL_ATOL = 1e-9
_UNITARY_ATOL = 1e-10


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


def truncated_ladder(n_boson: int):
    """Annihilation and creation operators on the truncated boson space.

    Returns (a, a_dagger) as dense complex arrays of shape
    (n_boson, n_boson). The top level is annihilated by a_dagger's
    truncation, as usual for a finite ladder.
    """
    if int(n_boson) != n_boson or n_boson < 1:
        raise ValueError("n_boson must be an integer >= 1")
    a = np.zeros((n_boson, n_boson), dtype=complex)
    for m in range(n_boson - 1):
        a[m, m + 1] = np.sqrt(m + 1.0)
    return a, a.conj().T


def build_hamiltonian(params: SpinBosonParams) -> np.ndarray:
    """Dense Hamiltonian on the 2*n_boson channel space.

    H = omega_hbar * a'a + (h_field * sz + epsilon * sx) / 2
        + lam * sx (a' + a)
    with sz = +1 on the excited block.
    """
    a, adag = truncated_ladder(params.n_boson)
    number = adag @ a
    eye_b = np.eye(params.n_boson)
    sz = np.array([[1.0, 0.0], [0.0, -1.0]])
    sx = np.array([[0.0, 1.0], [1.0, 0.0]])
    h = (
        params.omega_hbar * np.kron(np.eye(2), number)
        + 0.5 * params.h_field * np.kron(sz, eye_b)
        + 0.5 * params.epsilon * np.kron(sx, eye_b)
        + params.lam * np.kron(sx, a + adag)
    )
    return h.astype(complex)


def step_unitary(hamiltonian: np.ndarray, dt: float) -> np.ndarray:
    """One-step propagator exp(-i H dt) via Hermitian eigendecomposition."""
    h = np.asarray(hamiltonian, dtype=complex)
    if h.ndim != 2 or h.shape[0] != h.shape[1]:
        raise ValueError("hamiltonian must be a square matrix")
    if not np.max(np.abs(h - h.conj().T)) <= _HERMITIAN_ATOL:
        raise ValueError("hamiltonian is not Hermitian")
    if not np.isfinite(dt):
        raise ValueError("dt must be finite")
    w, v = np.linalg.eigh(h)
    residual = np.max(np.abs(h @ v - v * w))
    if not residual <= _EIG_RESIDUAL_ATOL:
        raise RuntimeError(f"eigendecomposition residual {residual:.3e} too large")
    u = (v * np.exp(-1j * w * dt)) @ v.conj().T
    defect = np.max(np.abs(u.conj().T @ u - np.eye(h.shape[0])))
    if not defect <= _UNITARY_ATOL:
        raise RuntimeError(f"propagator unitarity defect {defect:.3e} too large")
    return u


def propagate(matrix: np.ndarray, x: np.ndarray, n_steps: int) -> np.ndarray:
    """matrix^n @ x for n = 1..n_steps, stacked on a new leading axis.

    x is one vector or a matrix whose columns are inputs. Each step applies
    matrix once to the previous step's result, as one pass of the loop does.
    Iterating a vector and taking a column of the all-inputs result differ
    in the last bit, so single-input callers pass a vector.
    """
    out = np.empty((n_steps,) + np.shape(x), dtype=complex)
    for n in range(n_steps):
        x = matrix @ x
        out[n] = x
    return out


def evolve_exact(unitary: np.ndarray, initial_channel: int, n_steps: int) -> np.ndarray:
    """Channel probability distribution after each of n_steps applications
    of the step propagator unitary, starting from a single occupied channel.

    Returns an (n_steps, dim) array; row n-1 is the distribution after n steps.
    """
    dim = unitary.shape[0]
    if not 0 <= initial_channel < dim:
        raise ValueError("initial_channel out of range")
    if n_steps < 1:
        raise ValueError("n_steps must be >= 1")
    psi = np.zeros(dim, dtype=complex)
    psi[initial_channel] = 1.0
    return np.abs(propagate(unitary, psi, n_steps)) ** 2
