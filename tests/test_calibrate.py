import csv
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from loopsim import calibrate, mesh
from loopsim.calibrate import (
    MethodComparison,
    ParamTable,
    TrainingConfig,
    compare_methods,
    error_metric,
    finite_diff_gradient,
    kl_loss,
    load_param_table,
    theory_step_matrices,
    train,
    win_stats,
)
from loopsim.cli import main
from loopsim.loopchip import conditional_probabilities, run_loop, step_power_matrices
from loopsim.mesh import MeshNoise, MeshPlan, clements_decompose, forward_arrays, mesh_forward
from loopsim.model import SpinBosonParams, build_hamiltonian, evolve_exact, step_unitary
from conftest import haar_unitary, lossless_chip


def chip_distributions(plan, noise, n_steps):
    """The noisy chip's (n_steps, dim, dim) step matrices, as train sees them."""
    return step_power_matrices(mesh_forward(plan, noise), n_steps)


def input_major(mats):
    """Input 0's step-1 row, its step-2 row, ..., then input 1's rows, and so on."""
    return np.concatenate([mats[:, k, :].ravel() for k in range(mats.shape[1])])


LN2 = 0.6931471805599453


def default_unitary():
    params = SpinBosonParams(1.0, 1.0, 1.0)
    return step_unitary(build_hamiltonian(params), params.dt)


class TestKlLoss:
    def test_equal_distributions_zero(self, rng):
        p = rng.random(12)
        p /= p.sum()
        assert kl_loss(p, p) == 0.0

    def test_frozen_two_point(self):
        # frozen: e = (1, 0), t = (1/2, 1/2) gives ln 2 exactly
        t = np.array([0.5, 0.5])
        e = np.array([1.0, 0.0])
        got = kl_loss(t, e)
        assert got == pytest.approx(LN2, abs=1e-10)

    def test_asymmetric(self):
        t = np.array([0.9, 0.1])
        e = np.array([0.5, 0.5])
        assert kl_loss(t, e) != kl_loss(e, t)

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            kl_loss(np.array([0.5, 0.5]), np.array([1.0]))
        with pytest.raises(ValueError):
            kl_loss(np.array([-0.1, 1.1]), np.array([0.5, 0.5]))
        with pytest.raises(ValueError):  # a NaN must not hide a negative entry
            kl_loss(np.array([0.5, 0.5]), np.array([np.nan, -0.1]))
        assert np.isnan(kl_loss(np.array([np.nan, 0.5]), np.array([0.5, 0.5])))

    def test_stack_of_estimates(self, rng):
        t = rng.random(12)
        t /= t.sum()
        e = rng.random((4, 12))
        e /= e.sum(axis=1, keepdims=True)
        losses = kl_loss(t, e)
        assert losses.shape == (4,)
        for row, loss in zip(e, losses):
            assert loss == kl_loss(t, row)
        e[2, 5] = np.nan  # a NaN spoils only its own row
        assert np.isnan(kl_loss(t, e)).tolist() == [False, False, True, False]
        e[3, 1] = -0.1  # in any row, behind a NaN or not
        with pytest.raises(ValueError, match="non-negative"):
            kl_loss(t, e)
        with pytest.raises(ValueError, match="last axis"):
            kl_loss(t, np.ones((4, 11)))

    @settings(max_examples=200, deadline=None)
    @given(hnp.arrays(float, 6, elements=st.floats(1e-6, 1.0)),
           hnp.arrays(float, 6, elements=st.floats(1e-6, 1.0)))
    def test_nonnegative_on_normalized_pairs(self, a, b):
        t = a / a.sum()
        e = b / b.sum()
        assert kl_loss(t, e) >= -1e-12


class TestLossPath:
    """The loss path's rewrites against the expressions they replaced, bit for bit."""

    @settings(max_examples=200, deadline=None)
    @given(hnp.arrays(float, hnp.array_shapes(min_dims=3, max_dims=4, max_side=7),
                      elements=st.floats(0.0, 1.0)))
    def test_input_major_equals_moveaxis(self, mats):
        steps_inside = np.ascontiguousarray(np.moveaxis(mats, 0, -2))
        expected = steps_inside.reshape(steps_inside.shape[:-3] + (-1,))
        got = calibrate._input_major(mats)
        assert got.shape == expected.shape and got.tobytes() == expected.tobytes()

    @settings(max_examples=200, deadline=None)
    @given(st.integers(1, 120), st.integers(0, 4), st.data())
    def test_kl_loss_equals_clamped_expression(self, n, rows, data):
        # entries below the 1e-12 clamp included, zero and subnormal ones too
        probs = st.one_of(st.floats(0.0, 1e-11), st.floats(0.0, 1.0))
        t = data.draw(hnp.arrays(float, n, elements=probs))
        e = data.draw(hnp.arrays(float, (rows, n) if rows else n, elements=probs))
        eps = 1e-12
        expected = np.sum(np.maximum(e, eps) * np.log(np.maximum(e, eps) / np.maximum(t, eps)), axis=-1)
        got = kl_loss(t, e)
        assert type(got) is (float if e.ndim == 1 else np.ndarray)
        assert np.asarray(got).tobytes() == expected.tobytes()


class TestTheoryMatrices:
    def test_matches_closed_evolution(self):
        # oracle: row k of step matrix n is the exact n-step distribution
        params = SpinBosonParams(0.5, 1.2, 0.8)
        u = step_unitary(build_hamiltonian(params), params.dt)
        mats = theory_step_matrices(u, 3)
        for k in range(6):
            exact = evolve_exact(u, k, 3)
            assert np.max(np.abs(mats[:, k, :] - exact)) < 1e-12

    @settings(max_examples=40, deadline=None)
    @given(st.builds(SpinBosonParams, epsilon=st.floats(-2.0, 2.0),
                     omega_hbar=st.floats(-2.0, 2.0), lam=st.floats(-2.0, 2.0),
                     n_boson=st.integers(1, 8)),
           st.integers(1, 5))
    def test_propagation_paths_agree_across_dims(self, params, n_steps):
        # four callers of the shared propagation kernel, one model, every input
        u = step_unitary(build_hamiltonian(params), params.dt)
        chip = lossless_chip(dim=params.dim)
        theory = theory_step_matrices(u, n_steps)
        powers = step_power_matrices(u, n_steps)
        for k in range(params.dim):
            exact = evolve_exact(u, k, n_steps)
            cond = conditional_probabilities(run_loop(chip, u, k, n_steps))
            for other in (theory[:, k, :], powers[:, k, :], cond):
                assert np.max(np.abs(other - exact)) < 1e-13

    def test_rows_normalized(self, rng):
        mats = theory_step_matrices(haar_unitary(6, rng), 4)
        assert np.max(np.abs(mats.sum(axis=2) - 1.0)) < 1e-12

    def test_flatten_order(self):
        # train sums its loss input-major, so the loss is bit-identical to this one
        u = default_unitary()
        plan = clements_decompose(u)
        noise = MeshNoise(seed=3)
        target = theory_step_matrices(u, 2)
        result = train(plan, noise, target, TrainingConfig(max_iters=1))
        expected = kl_loss(input_major(target), input_major(chip_distributions(plan, noise, 2)))
        assert result.trace[0] == expected


class TestForward:
    def test_identity_plan(self):
        plan = clements_decompose(np.eye(6))
        mats = chip_distributions(plan, None, 2)
        assert mats.shape == (2, 6, 6)
        assert np.max(np.abs(mats - np.eye(6))) < 1e-12

    def test_concatenation_oracle(self, rng):
        # oracle: stack the matrices from per-input run_loop calls
        u = haar_unitary(6, rng)
        plan = clements_decompose(u)
        noise = MeshNoise(seed=5)
        config = lossless_chip()
        mats = chip_distributions(plan, noise, 3)
        realized = mesh_forward(plan, noise)
        pieces = [conditional_probabilities(run_loop(config, realized, k, 3)) for k in range(6)]
        assert np.max(np.abs(mats - np.stack(pieces, axis=1))) < 1e-14


def per_point_gradient(fn, x, eps):
    """Oracle: central differences one coordinate at a time, one point per fn call."""
    g = np.empty_like(x)
    for i in range(x.size):
        xp = x.copy()
        xm = x.copy()
        xp[i] += eps
        xm[i] -= eps
        g[i] = (fn(xp[None])[0] - fn(xm[None])[0]) / (2.0 * eps)
    return g


class TestGradient:
    def test_against_richardson_oracle(self):
        # oracle: 5-point stencil, one order higher than the implementation
        fn = lambda xs: np.sin(xs[:, 0]) * np.exp(xs[:, 1]) + xs[:, 0] * xs[:, 1] ** 2
        x = np.array([0.7, -0.3])
        eps = 1e-4
        g = finite_diff_gradient(fn, x, eps)
        for i in range(2):
            def f1(h):
                xp = x.copy()
                xp[i] += h
                return fn(xp[None])[0]
            five = (f1(-2 * eps) - 8 * f1(-eps) + 8 * f1(eps) - f1(2 * eps)) / (12 * eps)
            assert g[i] == pytest.approx(five, rel=1e-6)

    def test_quadratic_exact(self):
        fn = lambda xs: np.sum(xs * xs, axis=1)
        x = np.array([1.0, -2.0, 3.0])
        g = finite_diff_gradient(fn, x, 1e-6)
        assert np.max(np.abs(g - 2.0 * x)) < 1e-8

    def test_rejects_values_not_one_per_row(self):
        # a scalar or a column would broadcast into a wrong gradient
        x = np.array([1.0, -2.0, 3.0])
        for fn, shape in ((lambda xs: float(np.sum(xs)), r"\(\)"),
                          (lambda xs: np.sum(xs, axis=1, keepdims=True), r"\(6, 1\)"),
                          (lambda xs: np.sum(xs[:3], axis=1), r"\(3,\)")):
            with pytest.raises(ValueError, match=r"shape \(6,\), not " + shape):
                finite_diff_gradient(fn, x, 1e-6)

    @pytest.mark.parametrize("n_boson", [1, 2, 3, 5, 8])
    def test_batched_train_gradient_matches_per_point_oracle(self, monkeypatch, n_boson):
        # train's own loss, caught on its way into the gradient, evaluated both ways; the
        # second gradient resumes from the point an Adam step reached
        params = SpinBosonParams(0.5, 1.2, 0.8, n_boson=n_boson)
        u = step_unitary(build_hamiltonian(params), params.dt)
        seen = []

        def recording_gradient(fn, x, eps):
            g = finite_diff_gradient(fn, x, eps)
            seen.append((g, per_point_gradient(fn, x, eps)))
            return g

        monkeypatch.setattr(calibrate, "finite_diff_gradient", recording_gradient)
        noise = MeshNoise(sigma_theta=0.05, sigma_phi=0.05, sigma_split=0.005, seed=4)
        train(clements_decompose(u), noise, theory_step_matrices(u, 3),
              TrainingConfig(max_iters=2, tol=1e-30))
        assert len(seen) == 2
        for batched, oracle in seen:
            assert batched.size == 2 * n_boson * (2 * n_boson - 1)
            assert np.array_equal(batched, oracle)

    def test_train_gradient_matches_per_point_mesh_forward(self, monkeypatch):
        # oracle: every stencil point's loss from its own plan through mesh_forward, at the
        # start and after an Adam step
        u = default_unitary()
        plan = clements_decompose(u)
        target = theory_step_matrices(u, 3)
        noise = MeshNoise(seed=4)
        seen = []

        def recording_gradient(fn, x, eps):
            g = finite_diff_gradient(fn, x, eps)
            seen.append((g, x.copy(), eps))
            return g

        monkeypatch.setattr(calibrate, "finite_diff_gradient", recording_gradient)
        train(plan, noise, target, TrainingConfig(max_iters=2, tol=1e-30))
        assert len(seen) == 2
        n = len(plan.los)

        def loss(points):
            (p,) = points
            point = replace(plan, thetas=tuple(p[:n].tolist()), phis=tuple(p[n:].tolist()))
            return [kl_loss(input_major(target), input_major(chip_distributions(point, noise, 3)))]

        for g, x, eps in seen:
            assert np.array_equal(g, per_point_gradient(loss, x, eps))


class TestTrain:
    def test_zero_noise_returns_immediately(self):
        plan = clements_decompose(default_unitary())
        target = theory_step_matrices(default_unitary(), 3)
        result = train(plan, None, target, TrainingConfig())
        assert result.converged
        assert result.trace.size == 1
        assert result.plan == plan

    def test_zero_learning_rate_is_identity(self):
        plan = clements_decompose(default_unitary())
        target = theory_step_matrices(default_unitary(), 3)
        noise = MeshNoise(seed=2)
        tc = TrainingConfig(learning_rate=0.0, max_iters=5)
        result = train(plan, noise, target, tc)
        assert result.plan == plan
        assert np.max(np.abs(result.trace - result.trace[0])) < 1e-15
        assert not result.converged

    def test_loss_never_worse_than_start(self):
        plan = clements_decompose(default_unitary())
        target = theory_step_matrices(default_unitary(), 3)
        noise = MeshNoise(seed=11)
        tc = TrainingConfig(learning_rate=0.05, max_iters=15)
        result = train(plan, noise, target, tc)
        realized = chip_distributions(result.plan, noise, 3)
        final = kl_loss(input_major(target), input_major(realized))
        assert final <= result.trace[0] + 1e-15
        assert final == pytest.approx(min(result.trace), abs=1e-12)

    def test_adam_reduces_loss_substantially(self):
        plan = clements_decompose(default_unitary())
        target = theory_step_matrices(default_unitary(), 3)
        noise = MeshNoise(seed=7)
        tc = TrainingConfig(learning_rate=0.02, max_iters=150)
        result = train(plan, noise, target, tc)
        assert result.trace[-1] < 0.05 * result.trace[0]

    def test_converged_flag_tracks_tolerance(self):
        plan = clements_decompose(default_unitary())
        target = theory_step_matrices(default_unitary(), 3)
        noise = MeshNoise(seed=7)
        loose = train(plan, noise, target, TrainingConfig(learning_rate=0.02,
                                                          max_iters=200, tol=1e-2))
        assert loose.converged
        assert loose.trace[-1] <= 1e-2
        tight = train(plan, noise, target, TrainingConfig(learning_rate=0.02,
                                                          max_iters=3, tol=1e-12))
        assert not tight.converged

    def test_stencil_point_resumes_at_its_cell_column(self, monkeypatch):
        # stencil row i moves phase i, of cell i mod n_cells, so its chain resumes at that
        # cell's column; an Adam step moves every phase, so the point it reaches resumes at 0,
        # as the start does
        plan = clements_decompose(default_unitary())
        starts = []

        def recording_forward(dim, los, columns, resume=None):
            starts.append(resume[0])
            return forward_arrays(dim, los, columns, resume)

        monkeypatch.setattr(mesh, "forward_arrays", recording_forward)
        mesh._cell_coefficients.cache_clear()
        train(plan, MeshNoise(seed=4), theory_step_matrices(default_unitary(), 3),
              TrainingConfig(max_iters=3, tol=1e-30))
        cols = list(mesh._columns(plan.dim, plan.los)[0])
        assert starts == [0] + (4 * cols + [0]) * 3
        # the stencil's changed cells are one more coefficient key, hit from the second gradient on
        info = mesh._cell_coefficients.cache_info()
        assert (info.misses, info.hits, info.currsize) == (2, 5, 2)

    def test_cell_less_plan_at_its_target_returns_immediately(self):
        # a plan of no cells is its output phases; its chain is one identity column
        plan = MeshPlan(2, (), (), (), (0.0, 0.0))
        result = train(plan, MeshNoise(seed=1), theory_step_matrices(np.eye(2), 3), TrainingConfig())
        assert result.converged and result.trace.tolist() == [0.0] and result.plan == plan

    def test_cell_less_plan_off_its_target_returns_its_start(self):
        # no phase to train: the start loss, unconverged, and the plan unchanged
        plan = MeshPlan(2, (), (), (), (0.0, 0.0))
        c, s = np.cos(0.3), np.sin(0.3)
        target = theory_step_matrices(np.array([[c, -s], [s, c]]), 3)
        result = train(plan, MeshNoise(seed=1), target, TrainingConfig(max_iters=2))
        start = kl_loss(input_major(target), input_major(chip_distributions(plan, None, 3)))
        assert result.trace.tolist() == [start] and start > 1e-6
        assert not result.converged and result.plan == plan

    def test_unmoved_point_resumes_at_the_column_count(self, monkeypatch):
        # at learning rate 0 no step moves a phase: each post-step point keeps the whole
        # chain of the point before it, and its loss is the start loss bit for bit
        plan = clements_decompose(default_unitary())
        n_columns = len(mesh._columns(plan.dim, plan.los)[1])
        starts = []

        def recording_forward(dim, los, columns, resume=None):
            starts.append(resume[0])
            return forward_arrays(dim, los, columns, resume)

        monkeypatch.setattr(mesh, "forward_arrays", recording_forward)
        result = train(plan, MeshNoise(seed=4), theory_step_matrices(default_unitary(), 3),
                       TrainingConfig(learning_rate=0.0, max_iters=3))
        point = 1 + 2 * 2 * len(plan.los)
        assert [starts[k * point] for k in range(4)] == [0] + [n_columns] * 3
        assert len(starts) == 1 + 3 * point
        assert result.trace.size == 4 and result.plan == plan
        assert [t.tobytes() for t in result.trace] == [result.trace[0].tobytes()] * 4

    def test_bad_target_length(self):
        plan = clements_decompose(default_unitary())
        # (108,) is a valid target flattened: train takes the step matrices
        for shape in [(35,), (108,), (3, 6, 5), (0, 6, 6), (3, 36)]:
            with pytest.raises(ValueError, match="target must have shape"):
                train(plan, None, np.ones(shape), TrainingConfig())

    def test_config_validation(self):
        with pytest.raises(ValueError):
            TrainingConfig(learning_rate=-0.1)
        with pytest.raises(ValueError):
            TrainingConfig(max_iters=0)
        TrainingConfig(learning_rate=0.0)  # explicitly allowed


class TestErrorMetric:
    def test_exact_match_is_zero(self, rng):
        t = theory_step_matrices(haar_unitary(6, rng), 2)
        assert error_metric(t, t.copy(), 1) == 0.0
        assert error_metric(t, t.copy(), 2) == 0.0

    def test_zero_estimate_is_one(self, rng):
        t = theory_step_matrices(haar_unitary(6, rng), 1)
        assert error_metric(t, np.zeros_like(t), 1) == pytest.approx(1.0, abs=1e-15)

    def test_doubled_estimate_is_one(self, rng):
        t = theory_step_matrices(haar_unitary(6, rng), 1)
        assert error_metric(t, 2.0 * t, 1) == pytest.approx(1.0, abs=1e-15)

    def test_scale_invariance(self, rng):
        t = theory_step_matrices(haar_unitary(6, rng), 1)
        e = theory_step_matrices(haar_unitary(6, rng), 1)
        a = error_metric(t, e, 1)
        b = error_metric(7.0 * t, 7.0 * e, 1)
        assert a == pytest.approx(b, rel=1e-12)

    def test_errors(self, rng):
        t = theory_step_matrices(haar_unitary(6, rng), 2)
        with pytest.raises(ValueError):
            error_metric(t, t[:1], 1)
        with pytest.raises(ValueError):
            error_metric(t, t, 0)
        with pytest.raises(ValueError):
            error_metric(t, t, 3)
        with pytest.raises(ValueError):
            error_metric(np.zeros((1, 2, 2)), np.zeros((1, 2, 2)), 1)


class TestParamTable:
    def test_bundled_table(self):
        table = load_param_table()
        assert len(table.rows) == 20
        # frozen: row 13 of the benchmark table
        assert table.rows[12] == (1.0, 0.2, 0.8)

    def test_rejects_wrong_shape(self, tmp_path):
        bad = tmp_path / "t.csv"
        bad.write_text("epsilon,omega_hbar,lambda\n1,1,1\n")
        with pytest.raises(ValueError, match="20 rows"):
            load_param_table(bad)
        bad.write_text("a,b,c\n" + "1,1,1\n" * 20)
        with pytest.raises(ValueError, match="columns"):
            load_param_table(bad)
        # each column once: a repeated name must not shadow a column's values
        bad.write_text("epsilon,epsilon,omega_hbar,lambda\n" + "9,1,1,1\n" * 20)
        with pytest.raises(ValueError, match="columns epsilon,omega_hbar,lambda"):
            load_param_table(bad)


class TestCompare:
    def test_zero_noise_all_ties_at_zero(self):
        table = ParamTable(load_param_table().rows[:2])
        noise = MeshNoise(0.0, 0.0, 0.0, seed=0)
        tc = TrainingConfig(max_iters=2)
        comparison = compare_methods(table, noise, tc, n_steps=2)
        assert comparison.params_id == (1, 2)
        assert comparison.decomposition.shape == comparison.trained.shape == (2, 2)
        assert comparison.decomposition.max() < 1e-8
        assert comparison.trained.max() < 1e-8
        assert comparison.non_converged == ()

    def test_training_wins_under_noise(self):
        table = ParamTable(load_param_table().rows[:2])
        noise = MeshNoise(seed=1)
        tc = TrainingConfig(learning_rate=0.02, max_iters=120)
        comparison = compare_methods(table, noise, tc, n_steps=3)
        wins, ties, losses = win_stats(comparison)
        assert wins + ties + losses == 2 * 3
        assert wins > losses

    def test_reproducible_bitwise(self):
        table = ParamTable(load_param_table().rows[:1])
        noise = MeshNoise(seed=6)
        tc = TrainingConfig(learning_rate=0.05, max_iters=5)
        a = compare_methods(table, noise, tc, n_steps=2, seeds=2)
        b = compare_methods(table, noise, tc, n_steps=2, seeds=2)
        assert np.array_equal(a.trained, b.trained)
        assert np.array_equal(a.decomposition, b.decomposition)

    def test_seed_realizations_differ(self):
        table = ParamTable(load_param_table().rows[:1])
        noise = MeshNoise(seed=6)
        tc = TrainingConfig(learning_rate=0.05, max_iters=2)
        comparison = compare_methods(table, noise, tc, n_steps=2, seeds=2)
        assert comparison.params_id == (1, 1)
        first, second = comparison.decomposition
        assert not np.any(first == second)

    def test_win_stats_counts_nan_as_loss(self):
        comparison = MethodComparison(
            params_id=(1, 2),
            decomposition=np.array([[0.2, 0.1], [0.3, 0.4]]),
            trained=np.array([[0.1, 0.1], [np.nan, 0.5]]),
            non_converged=(),
        )
        assert win_stats(comparison) == (1, 1, 2)

    def test_rows_keep_the_model_h_field_dt_and_n_boson(self, monkeypatch):
        seen = []
        real = calibrate.build_hamiltonian
        monkeypatch.setattr(calibrate, "build_hamiltonian",
                            lambda params: seen.append(params) or real(params))
        table = ParamTable(load_param_table().rows[:2])
        base = SpinBosonParams(9.0, 9.0, 9.0, h_field=2.0, n_boson=1, dt=0.5)
        compare_methods(table, MeshNoise(), TrainingConfig(max_iters=1), n_steps=2, model=base)
        assert seen == [SpinBosonParams(eps, omega, lam, h_field=2.0, n_boson=1, dt=0.5)
                        for eps, omega, lam in table.rows]

    def test_rejects_zero_seeds(self):
        with pytest.raises(ValueError):
            compare_methods(ParamTable(load_param_table().rows[:1]),
                            MeshNoise(), TrainingConfig(), seeds=0)


class TestCsv:
    """The training outputs as the CLI writes them."""

    def test_reports_csv(self, tmp_path):
        cfgfile = tmp_path / "cfg.json"
        cfgfile.write_text('{"noise": {"sigma_theta": 0.0, "sigma_phi": 0.0, "sigma_split": 0.0},'
                           ' "training": {"max_iters": 1}, "n_steps": 2}')
        assert main(["--config", str(cfgfile), "--out", str(tmp_path), "compare"]) == 0
        lines = (tmp_path / "errors.csv").read_text().strip().splitlines()
        assert lines[0] == "params_id,method,step,error"
        assert len(lines) == 1 + 2 * 20 * 2

    def test_trace_csv(self, tmp_path):
        cfgfile = tmp_path / "cfg.json"
        cfgfile.write_text('{"noise": {"seed": 5}, "training": {"max_iters": 2}}')
        assert main(["--config", str(cfgfile), "--out", str(tmp_path), "train"]) == 0
        with open(tmp_path / "trace.csv", newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["iter", "loss"]
        assert [r[0] for r in rows[1:]] == ["0", "1", "2"]
