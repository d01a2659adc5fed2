import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from loopsim.mesh import clements_decompose, mesh_forward
from loopsim.model import (
    SpinBosonParams,
    build_hamiltonian,
    evolve_exact,
    step_unitary,
    truncated_ladder,
)


def expm_taylor(m, order=30, squarings=None):
    """Independent scaling-and-squaring Taylor-series matrix exponential."""
    m = np.asarray(m, dtype=complex)
    if squarings is None:
        norm = np.linalg.norm(m, ord=np.inf)
        squarings = max(0, int(np.ceil(np.log2(max(norm, 1e-30)))) + 4)
    scaled = m / (2 ** squarings)
    out = np.eye(m.shape[0], dtype=complex)
    term = np.eye(m.shape[0], dtype=complex)
    for k in range(1, order + 1):
        term = term @ scaled / k
        out = out + term
    for _ in range(squarings):
        out = out @ out
    return out


def params_up_to(max_boson):
    return st.builds(
        SpinBosonParams,
        epsilon=st.floats(-2.0, 2.0),
        omega_hbar=st.floats(-2.0, 2.0),
        lam=st.floats(-2.0, 2.0),
        h_field=st.floats(-2.0, 2.0),
        n_boson=st.integers(1, max_boson),
        dt=st.floats(0.1, 2.0),
    )


finite_params = params_up_to(4)


class TestLadder:
    def test_matrix_elements(self):
        a, adag = truncated_ladder(3)
        # a|m> = sqrt(m)|m-1>; frozen sqrt(2) = 1.4142135623730951
        assert a[0, 1] == 1.0
        assert a[1, 2] == pytest.approx(1.4142135623730951, abs=1e-15)
        assert np.all(a[:, 0] == 0)
        # oracle: the number operator must be diag(0, 1, 2)
        number = adag @ a
        assert np.allclose(number, np.diag([0.0, 1.0, 2.0]), atol=1e-15)

    def test_truncation_kills_top_level(self):
        a, adag = truncated_ladder(3)
        top = np.zeros(3)
        top[2] = 1.0
        assert np.all(adag @ top == 0)

    def test_rejects_bad_size(self):
        with pytest.raises(ValueError):
            truncated_ladder(0)


class TestHamiltonian:
    def test_decoupled_diagonal(self):
        # epsilon = lam = 0, h = 1, omega_hbar = 1: spectrum is
        # boson number + spin / 2, block-diagonal and real.
        p = SpinBosonParams(epsilon=0.0, omega_hbar=1.0, lam=0.0)
        h = build_hamiltonian(p)
        expected = np.diag([0.5, 1.5, 2.5, -0.5, 0.5, 1.5])
        assert np.allclose(h, expected, atol=1e-15)

    def test_coupling_entries(self):
        # oracle: independent Kronecker assembly of the coupling term alone
        p = SpinBosonParams(epsilon=0.3, omega_hbar=0.7, lam=0.9)
        h = build_hamiltonian(p)
        a, adag = truncated_ladder(3)
        sx = np.array([[0.0, 1.0], [1.0, 0.0]])
        coupling = p.lam * np.kron(sx, a + adag)
        # spin-flip, boson-conserving part comes from epsilon alone
        assert h[0, 3] == pytest.approx(p.epsilon / 2.0)
        # spin-flip with one boson exchanged is pure coupling
        assert h[0, 4] == pytest.approx(coupling[0, 4])
        assert h[0, 4] == pytest.approx(p.lam)
        assert h[1, 5] == pytest.approx(p.lam * np.sqrt(2.0))

    @settings(max_examples=50, deadline=None)
    @given(finite_params)
    def test_hermitian(self, params):
        h = build_hamiltonian(params)
        assert h.shape == (params.dim, params.dim)
        assert np.max(np.abs(h - h.conj().T)) <= 1e-12

    def test_rejects_bad_params(self):
        with pytest.raises(ValueError):
            SpinBosonParams(1.0, 1.0, 1.0, n_boson=0)
        with pytest.raises(ValueError):
            SpinBosonParams(1.0, 1.0, 1.0, dt=0.0)
        with pytest.raises(ValueError):
            SpinBosonParams(np.inf, 1.0, 1.0)


class TestStepUnitary:
    def test_zero_time_is_identity(self):
        h = build_hamiltonian(SpinBosonParams(1.0, 1.0, 1.0))
        assert np.allclose(step_unitary(h, 0.0), np.eye(6), atol=1e-14)

    def test_against_taylor_exponential(self):
        # oracle: scaling-and-squaring Taylor series of -i H dt
        for eps, om, lam, dt in [(1.0, 1.0, 1.0, 1.0), (0.5, 1.2, 0.8, 1.0),
                                 (0.2, 0.4, 1.2, 0.7)]:
            h = build_hamiltonian(SpinBosonParams(eps, om, lam))
            u = step_unitary(h, dt)
            ref = expm_taylor(-1j * h * dt)
            assert np.max(np.abs(u - ref)) < 1e-10

    @settings(max_examples=30, deadline=None)
    @given(finite_params)
    def test_unitary(self, params):
        u = step_unitary(build_hamiltonian(params), params.dt)
        assert np.max(np.abs(u.conj().T @ u - np.eye(params.dim))) < 1e-10

    def test_reversibility(self):
        h = build_hamiltonian(SpinBosonParams(0.5, 1.2, 0.8))
        u = step_unitary(h, 1.0)
        back = step_unitary(h, -1.0)
        assert np.max(np.abs(u @ back - np.eye(6))) < 1e-12

    def test_composition(self):
        h = build_hamiltonian(SpinBosonParams(0.5, 1.2, 0.8))
        u1 = step_unitary(h, 1.0)
        u2 = step_unitary(h, 2.0)
        assert np.max(np.abs(u1 @ u1 - u2)) < 1e-12

    def test_rejects_non_hermitian(self):
        m = np.array([[0.0, 1.0], [0.0, 0.0]])
        with pytest.raises(ValueError):
            step_unitary(m, 1.0)
        with pytest.raises(ValueError):
            step_unitary(np.ones((2, 3)), 1.0)
        nan_on_diagonal = np.eye(3)
        nan_on_diagonal[1, 1] = np.nan
        with pytest.raises(ValueError, match="not Hermitian"):
            step_unitary(nan_on_diagonal, 1.0)

    @settings(max_examples=100, deadline=None)
    @given(params_up_to(16))
    def test_tolerances_hold_up_to_32_modes(self, params):
        # step_unitary raises if its own eigen-residual or unitarity check
        # fails; the decomposition must then round-trip within decompose's 1e-8
        u = step_unitary(build_hamiltonian(params), params.dt)
        plan = clements_decompose(u)
        assert np.max(np.abs(mesh_forward(plan) - u)) <= 1e-8


class TestEvolveExact:
    def test_matches_spectral_oracle(self):
        # oracle: diagonalize once, evolve with exp(-i E n dt) on eigenmodes
        p = SpinBosonParams(1.0, 1.0, 1.0)
        h = build_hamiltonian(p)
        w, v = np.linalg.eigh(h)
        psi0 = np.zeros(6, dtype=complex)
        psi0[0] = 1.0
        coeffs = v.conj().T @ psi0
        probs = evolve_exact(step_unitary(h, p.dt), 0, 5)
        for n in range(1, 6):
            psi_n = v @ (np.exp(-1j * w * n * p.dt) * coeffs)
            assert np.max(np.abs(probs[n - 1] - np.abs(psi_n) ** 2)) < 1e-12

    def test_single_step_is_propagator_column(self):
        p = SpinBosonParams(0.5, 1.2, 0.8)
        u = step_unitary(build_hamiltonian(p), p.dt)
        probs = evolve_exact(u, 2, 1)
        assert np.allclose(probs[0], np.abs(u[:, 2]) ** 2, atol=1e-14)

    @settings(max_examples=30, deadline=None)
    @given(finite_params, st.integers(1, 6))
    def test_normalized(self, params, n_steps):
        probs = evolve_exact(step_unitary(build_hamiltonian(params), params.dt), 0, n_steps)
        assert np.max(np.abs(probs.sum(axis=1) - 1.0)) < 1e-10

    @settings(max_examples=20, deadline=None)
    @given(finite_params)
    def test_energy_conserved(self, params):
        h = build_hamiltonian(params)
        u = step_unitary(h, params.dt)
        psi = np.zeros(params.dim, dtype=complex)
        psi[0] = 1.0
        e0 = np.real(psi.conj() @ h @ psi)
        for _ in range(5):
            psi = u @ psi
            assert abs(np.real(psi.conj() @ h @ psi) - e0) < 1e-9

    def test_rejects_bad_channel(self):
        p = SpinBosonParams(1.0, 1.0, 1.0)
        u = step_unitary(build_hamiltonian(p), p.dt)
        with pytest.raises(ValueError):
            evolve_exact(u, 6, 1)
        with pytest.raises(ValueError):
            evolve_exact(u, 0, 0)
