import csv

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

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
from loopsim.loopchip import ChipConfig, conditional_probabilities, run_loop, step_power_matrices
from loopsim.mesh import MeshNoise, clements_decompose, mesh_forward
from loopsim.model import SpinBosonParams, build_hamiltonian, evolve_exact, step_unitary
from conftest import haar_unitary


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

    @settings(max_examples=200, deadline=None)
    @given(hnp.arrays(float, 6, elements=st.floats(1e-6, 1.0)),
           hnp.arrays(float, 6, elements=st.floats(1e-6, 1.0)))
    def test_nonnegative_on_normalized_pairs(self, a, b):
        t = a / a.sum()
        e = b / b.sum()
        assert kl_loss(t, e) >= -1e-12


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
        chip = ChipConfig(params.dim, lossless=True)
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
        config = ChipConfig(lossless=True)
        mats = chip_distributions(plan, noise, 3)
        realized = mesh_forward(plan, noise)
        pieces = [conditional_probabilities(run_loop(config, realized, k, 3)) for k in range(6)]
        assert np.max(np.abs(mats - np.stack(pieces, axis=1))) < 1e-14


class TestGradient:
    def test_against_richardson_oracle(self):
        # oracle: 5-point stencil, one order higher than the implementation
        fn = lambda x: float(np.sin(x[0]) * np.exp(x[1]) + x[0] * x[1] ** 2)
        x = np.array([0.7, -0.3])
        eps = 1e-4
        g = finite_diff_gradient(fn, x, eps)
        for i in range(2):
            def f1(h):
                xp = x.copy()
                xp[i] += h
                return fn(xp)
            five = (f1(-2 * eps) - 8 * f1(-eps) + 8 * f1(eps) - f1(2 * eps)) / (12 * eps)
            assert g[i] == pytest.approx(five, rel=1e-6)

    def test_quadratic_exact(self):
        fn = lambda x: float(x @ x)
        x = np.array([1.0, -2.0, 3.0])
        g = finite_diff_gradient(fn, x, 1e-6)
        assert np.max(np.abs(g - 2.0 * x)) < 1e-8


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
