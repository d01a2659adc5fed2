import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from loopsim import model
from loopsim.mesh import clements_decompose, mesh_forward
from loopsim.model import (
    SpinBosonParams,
    build_hamiltonian,
    evolve_exact,
    propagate,
    step_unitary,
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


def ladder(n_boson):
    """Test-local truncated ladder (a, a'), a|m> = sqrt(m)|m-1>, filled entry by entry."""
    a = np.zeros((n_boson, n_boson), dtype=complex)
    for m in range(n_boson - 1):
        a[m, m + 1] = np.sqrt(m + 1.0)
    return a, a.conj().T


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
    """The model's boson operators: number = 1 x a'a and coupling = sx x (a' + a)."""

    def test_matrix_elements(self):
        number, _, _, coupling = model._operators(3)
        # a|m> = sqrt(m)|m-1>; frozen sqrt(2) = 1.4142135623730951; sx flips the spin block
        assert coupling[0, 4] == 1.0
        assert coupling[1, 5] == 1.4142135623730951
        # oracle: the number operator must be diag(0, 1, 2) in each spin block
        assert np.allclose(number, np.diag([0.0, 1.0, 2.0] * 2), atol=1e-15)
        sx = np.array([[0.0, 1.0], [1.0, 0.0]])
        for n_boson in range(1, 9):
            a, adag = ladder(n_boson)
            number, _, _, coupling = model._operators(n_boson)
            assert number.tobytes() == np.kron(np.eye(2), adag @ a).tobytes()
            assert coupling.tobytes() == np.kron(sx, a + adag).tobytes()

    def test_truncation_kills_top_level(self):
        # (a' + a)|2> = sqrt(2)|1>: a' takes the top level nowhere
        coupling = model._operators(3)[3]
        assert np.flatnonzero(coupling[:, 2]).tolist() == [4]
        assert coupling[4, 2] == 1.4142135623730951

    def test_rejects_bad_size(self):
        for bad in (0, -1, 2.5, True):
            with pytest.raises(ValueError, match="n_boson"):
                SpinBosonParams(1.0, 1.0, 1.0, n_boson=bad)


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
        a, adag = ladder(3)
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

    @settings(max_examples=300, deadline=None)
    @given(st.builds(SpinBosonParams, *([st.one_of(st.sampled_from([0.0, -0.0, 1.0, -1.0]),
                                                  st.floats(-1e6, 1e6))] * 4),
                     n_boson=st.integers(1, 8)))
    def test_equals_kron_assembly_bitwise(self, params):
        # oracle: the four terms as Kronecker products, summed left to right
        a, adag = ladder(params.n_boson)
        eye_b = np.eye(params.n_boson)
        sz = np.array([[1.0, 0.0], [0.0, -1.0]])
        sx = np.array([[0.0, 1.0], [1.0, 0.0]])
        expected = (params.omega_hbar * np.kron(np.eye(2), adag @ a)
                    + 0.5 * params.h_field * np.kron(sz, eye_b)
                    + 0.5 * params.epsilon * np.kron(sx, eye_b)
                    + params.lam * np.kron(sx, a + adag)).astype(complex)
        assert build_hamiltonian(params).tobytes() == expected.tobytes()

    def test_cached_operators_read_only(self):
        assert not any(op.flags.writeable for op in model._operators(3))
        params = SpinBosonParams(0.5, 1.2, 0.8)
        h = build_hamiltonian(params)
        h[0, 0] = 99.0
        assert build_hamiltonian(params)[0, 0] == 0.5

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


    @pytest.mark.parametrize("omega_hbar", [1e7, 1e9, 1e12])
    def test_large_norm_model_passes_its_checks(self, omega_hbar):
        # eigh's residual grows with ||H||_2, so an absolute 1e-9 bound rejected these models
        params = SpinBosonParams(1.0, omega_hbar, 1.0)
        h = build_hamiltonian(params)
        u = step_unitary(h, params.dt)
        assert np.max(np.abs(u.conj().T @ u - np.eye(params.dim))) < 1e-14
        assert np.max(np.abs(mesh_forward(clements_decompose(u)) - u)) <= 1e-8
        bad = h.copy()
        bad[0, 1] += 1e-6
        with pytest.raises(ValueError, match="not Hermitian"):
            step_unitary(bad, params.dt)

    @pytest.mark.parametrize("scale", [1.0, 1e9])
    def test_inaccurate_eigenvectors_still_raise(self, monkeypatch, scale):
        # a residual above both 1e-9 and 16 eps dim ||H||_2 fails, with the same message
        eigh = np.linalg.eigh

        def perturbed_eigh(h):
            w, v = eigh(h)
            return w, v + 1e-6

        monkeypatch.setattr(np.linalg, "eigh", perturbed_eigh)
        model._propagator.cache_clear()
        h = build_hamiltonian(SpinBosonParams(0.5, 1.2, 0.8)) * scale
        with pytest.raises(RuntimeError, match="eigendecomposition residual .* too large"):
            step_unitary(h, 1.0)

@st.composite
def hermitian_and_dt(draw):
    """A random Hermitian matrix of dim 1-16 and a step dt, int or float."""
    n = draw(st.integers(1, 16))
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    dt = draw(st.one_of(st.integers(-3, 3), st.floats(-3.0, 3.0)))
    return (a + a.conj().T) / 2, dt


class TestPropagatorCache:
    """step_unitary computes and checks exp(-i H dt) once per (H, dt)."""

    @settings(max_examples=200, deadline=None)
    @given(hermitian_and_dt())
    def test_warm_result_is_the_cold_result(self, case):
        h, dt = case
        model._propagator.cache_clear()
        cold = step_unitary(h, dt)
        warm = step_unitary(h, dt)
        assert model._propagator.cache_info().hits == 1
        assert warm.tobytes() == cold.tobytes()
        # an equal number of the other type shares the entry and the bytes
        other = float(dt) if isinstance(dt, int) else dt
        assert step_unitary(h, other).tobytes() == cold.tobytes()
        # so do numpy scalars and a 0-d array
        for array_dt in (np.float64(dt), np.asarray(dt)):
            assert step_unitary(h, array_dt).tobytes() == cold.tobytes()
        assert model._propagator.cache_info().misses == 1
        assert step_unitary(h.copy(order="F"), dt).tobytes() == cold.tobytes()

    @pytest.mark.parametrize("h, dt, message", [
        (np.array([[0.0, 1.0], [0.0, 0.0]]), 1.0, "not Hermitian"),
        (np.diag([1.0, np.nan]), 1.0, "not Hermitian"),
        (np.eye(2), np.inf, "dt must be finite"),
        (np.eye(2), np.nan, "dt must be finite"),
        # max|w| * dt overflows, or eigh returns an infinite eigenvalue
        (np.diag([1.0, -4.0]), 1e308, r"dt 1e\+308 times the eigenvalue bound max\|w\| 4.000e\+00"),
        (build_hamiltonian(SpinBosonParams(1e308, 1.0, 1e308)), 1.0,
         r"dt 1.0 times the eigenvalue bound max\|w\| inf"),
    ])
    def test_bad_input_raises_on_every_call(self, h, dt, message):
        model._propagator.cache_clear()
        for _ in range(2):
            with pytest.raises(ValueError, match=message):
                step_unitary(h, dt)
        assert model._propagator.cache_info().currsize == 0

    def test_returned_array_is_a_fresh_copy(self):
        h = build_hamiltonian(SpinBosonParams(0.5, 1.2, 0.8))
        first = step_unitary(h, 1.0)
        expected = first.copy()
        first[:] = np.nan
        second = step_unitary(h, 1.0)
        assert second.flags.writeable
        assert np.array_equal(second, expected)
        second[0, 0] = 0.0
        assert np.array_equal(step_unitary(h, 1.0), expected)

    def test_one_miss_per_model(self):
        # the counting benchmark's acquisition shape: the same default model every op
        params = SpinBosonParams(1.0, 1.0, 1.0)
        model._propagator.cache_clear()
        for _ in range(5):
            step_unitary(build_hamiltonian(params), params.dt)
        info = model._propagator.cache_info()
        assert (info.misses, info.hits) == (1, 4)


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
        assert np.array_equal(probs[0], np.abs(u[:, 2]) ** 2)
        # step 1 reads only the input column, so a NaN elsewhere cannot reach it
        u[0, 3] = np.nan
        assert np.array_equal(evolve_exact(u, 2, 1)[0], np.abs(u[:, 2]) ** 2)

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

    def test_propagate_checks_its_operands(self):
        # the loop kernel's one check, which run_loop, step_power_matrices and evolve_exact share;
        # a vector or a non-square matrix would otherwise broadcast into a wrong result
        for matrix in (np.ones(3), np.ones((3, 2)), np.ones((2, 3, 2)), np.ones((4, 3, 3))[..., :2]):
            with pytest.raises(ValueError, match="square matrix or a stack of them"):
                propagate(matrix, np.ones(3), 2)
        for n_steps in (0, -1):
            with pytest.raises(ValueError, match="n_steps must be an integer >= 1, got "):
                propagate(np.eye(3), np.ones(3), n_steps)
        assert propagate(np.ones((2, 3, 3)), np.ones((2, 3)), 1).shape == (1, 2, 3)
