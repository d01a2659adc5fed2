import numpy as np
import pytest

from loopsim import loopchip
from loopsim.loopchip import (
    ChipConfig,
    DegenerateStepError,
    conditional_probabilities,
    run_loop,
    step_power_matrices,
)
from loopsim.model import SpinBosonParams, build_hamiltonian, evolve_exact, step_unitary
from conftest import haar_unitary


def lossless_chip(**kw):
    return ChipConfig(lossless=True, **kw)


def power_matrix(config, mesh, step):
    """Oracle: the step's row-normalized power map, one run_loop per input row."""
    return np.array([conditional_probabilities(run_loop(config, mesh, k, step))[step - 1]
                     for k in range(config.dim)])


class TestLoopRecursion:
    def test_identity_mesh_frozen_powers(self):
        # frozen: 2/3 taps with unit mesh leak (2/3)^2 (1/9)^{n-1} per pass
        cfg = lossless_chip()
        powers = run_loop(cfg, np.eye(6), input_channel=0, n_steps=3).sum(axis=1)
        assert powers[0] == pytest.approx(4.0 / 9.0, abs=1e-12)
        assert powers[1] == pytest.approx(4.0 / 81.0, abs=1e-12)
        assert powers[2] == pytest.approx(4.0 / 729.0, abs=1e-12)

    def test_limiting_ratios_single_shot(self, rng):
        # nearly transparent couplers: first exit is almost U e_k
        u = haar_unitary(6, rng)
        cfg = lossless_chip(ratio_in=1.0 - 1e-9, ratio_out=1.0 - 1e-9)
        power = run_loop(cfg, u, input_channel=2, n_steps=1)
        assert np.max(np.abs(power[0] - np.abs(u[:, 2]) ** 2)) < 1e-8

    def test_total_extracted_power_bounded(self, rng):
        u = haar_unitary(6, rng)
        power = run_loop(ChipConfig(), u, input_channel=1, n_steps=30)
        assert float(power.sum()) <= 1.0 + 1e-12

    def test_attenuation_monotone(self, rng):
        u = haar_unitary(6, rng)
        powers = run_loop(ChipConfig(), u, input_channel=0, n_steps=8).sum(axis=1)
        assert np.all(np.diff(powers) < 0)

    def test_step_scaling_constant_ratio(self, rng):
        # each extra pass multiplies total detected power by the same factor
        u = haar_unitary(6, rng)
        cfg = ChipConfig()
        powers = run_loop(cfg, u, input_channel=0, n_steps=6).sum(axis=1)
        ratios = powers[1:] / powers[:-1]
        assert np.max(np.abs(ratios - ratios[0])) < 1e-12

    def test_cached_step_amplitudes_read_only(self):
        _, scales = loopchip._step_amplitudes(ChipConfig(), 3)
        assert scales.shape == (3,) and not scales.flags.writeable

    def test_validation(self):
        with pytest.raises(ValueError):
            ChipConfig(ratio_in=0.0)
        with pytest.raises(ValueError):
            ChipConfig(ratio_out=1.0)
        with pytest.raises(ValueError):
            ChipConfig(loop_length_cm=2.0)
        with pytest.raises(ValueError):
            run_loop(ChipConfig(), np.eye(5), 0, 3)
        with pytest.raises(ValueError):
            run_loop(ChipConfig(), np.eye(6), 6, 3)
        with pytest.raises(ValueError):
            run_loop(ChipConfig(), np.eye(6), 0, 0)
        for mesh in (np.ones((6, 5)), np.ones(6), np.ones((2, 6, 6))):
            with pytest.raises(ValueError, match="square"):
                step_power_matrices(mesh, 3)
        with pytest.raises(ValueError):
            step_power_matrices(np.eye(6), 0)


class TestConditional:
    def test_identity_mesh_point_mass(self):
        cond = conditional_probabilities(run_loop(ChipConfig(), np.eye(6), input_channel=4, n_steps=3))
        expected = np.zeros(6)
        expected[4] = 1.0
        for row in cond:
            assert np.max(np.abs(row - expected)) < 1e-12

    def test_loss_invariance(self, rng):
        # conditionals see only the unitary core, never the scalar budget
        u = haar_unitary(6, rng)
        base = conditional_probabilities(run_loop(lossless_chip(), u, 0, 4))
        for alpha in (0.0, 0.6, 3.0):
            for ri, ro in ((0.5, 0.5), (2.0 / 3.0, 1.0 / 3.0)):
                cfg = ChipConfig(ratio_in=ri, ratio_out=ro,
                                 alpha_db_per_cm=alpha)
                cond = conditional_probabilities(run_loop(cfg, u, 0, 4))
                assert np.max(np.abs(cond - base)) < 1e-12

    @pytest.mark.parametrize("eps,om,lam", [(1.0, 1.0, 1.0), (0.5, 1.2, 0.8)])
    def test_matches_closed_evolution(self, eps, om, lam):
        # oracle: the chip's conditional stream is exact matrix evolution
        params = SpinBosonParams(epsilon=eps, omega_hbar=om, lam=lam)
        u = step_unitary(build_hamiltonian(params), params.dt)
        cond = conditional_probabilities(run_loop(ChipConfig(), u, input_channel=0, n_steps=3))
        exact = evolve_exact(u, 0, 3)
        assert np.max(np.abs(cond - exact)) < 1e-9
        assert np.max(np.abs(cond.sum(axis=1) - 1.0)) < 1e-10

    def test_degenerate_step_raises(self):
        with pytest.raises(DegenerateStepError, match="step 1"):
            conditional_probabilities(np.zeros((2, 6)))
        # a NaN step must not hide a dead one
        nan_then_dead = np.array([[np.nan] * 6, [0.0] * 6])
        with pytest.raises(DegenerateStepError, match="step 2"):
            conditional_probabilities(nan_then_dead)
        # m lights every output on pass 1, but m @ m = 0
        nilpotent = np.array([[1.0, 1.0], [-1.0, -1.0]])
        with pytest.raises(DegenerateStepError, match="step 2"):
            conditional_probabilities(run_loop(ChipConfig(dim=2), nilpotent, 0, 3))
        with pytest.raises(DegenerateStepError, match="step 2"):
            step_power_matrices(nilpotent, 3)


class TestPowerMatrices:
    def test_dual_route_agreement(self, rng):
        # slow route: one lossy run_loop per input column; fast route: matrix
        # pass with no losses, which cancel in the row normalization
        u = haar_unitary(6, rng)
        fast = step_power_matrices(u, n_steps=3)
        for alpha in (0.0, 0.6, 3.0):
            for ri, ro in ((2.0 / 3.0, 2.0 / 3.0), (0.5, 0.5), (2.0 / 3.0, 1.0 / 3.0)):
                cfg = ChipConfig(ratio_in=ri, ratio_out=ro, alpha_db_per_cm=alpha)
                for step in range(1, 4):
                    slow = power_matrix(cfg, u, step)
                    assert np.max(np.abs(fast[step - 1] - slow)) < 1e-15

    def test_row_normalized_rows_sum_to_one(self, rng):
        u = haar_unitary(6, rng)
        mats = step_power_matrices(u, 3)
        assert np.max(np.abs(mats.sum(axis=2) - 1.0)) < 1e-12

    def test_first_step_row_normalized_is_unistochastic(self, rng):
        u = haar_unitary(6, rng)
        mats = step_power_matrices(u, 1)
        assert np.max(np.abs(mats[0] - np.abs(u.T) ** 2)) < 1e-12
