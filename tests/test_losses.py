from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from loopsim.cli import main
from loopsim.loopchip import ChipConfig, run_loop
from loopsim.losses import (
    PlatformSpec,
    load_platforms,
    mode_scaling_loss,
    optimal_splitters,
    platform_comparison,
)

GEOMETRY = ChipConfig()
RATIOS = (2.0 / 3.0, 1.0 / 3.0)


def db(r):
    """dB cost of keeping power fraction r on a path."""
    return -10.0 * np.log10(r)


def closed_form(platform, n, ratios=RATIOS, geometry=GEOMETRY):
    # independent reassembly of the budget from its published ingredients, in dB; a path
    # crosses one cell per column of the dim columns of a rectangular mesh
    r_loop, r_end = ratios
    columns = geometry.dim
    l_chip = platform.alpha_db_per_cm * geometry.chip_length_cm + platform.mzi_extra_db * columns
    l_loop = platform.alpha_db_per_cm * geometry.loop_length_cm
    return (2.0 * db(r_end) + (n - 1) * (2.0 * db(r_loop) + l_chip + l_loop)
            + l_chip + geometry.others_loss_db + platform.offchip_per_loop_db * n)


def budget(platform, max_loops, ratios=RATIOS, geometry=GEOMETRY):
    """One platform's row of the budget: its loss at steps 1..max_loops."""
    return platform_comparison([platform], geometry, ratios, max_loops)[0]


# No waveguide, cell or detection-path loss: only the splitter taps cost power.
FREE = PlatformSpec("ideal", 0.0)
FREE_GEOMETRY = ChipConfig(others_loss_db=0.0)


class TestRatioLoss:
    def test_half_is_three_db(self):
        # step 1 crosses the two end taps once each
        assert budget(FREE, 1, (0.5, 0.5), FREE_GEOMETRY)[0] == pytest.approx(
            2.0 * 3.0102999566398120, abs=1e-12)

    def test_db_linear_consistency(self):
        # oracle: converting a tap's cost back through the power map is the identity
        # the splitters are lossless, so each pair is (r, 1 - r) or (1 - r, r)
        for r in (0.1, 1.0 / 3.0, 0.5, 2.0 / 3.0, 0.99):
            end_tap = budget(FREE, 1, (1.0 - r, r), FREE_GEOMETRY)[0] / 2.0
            loop_tap = np.diff(budget(FREE, 2, (r, 1.0 - r), FREE_GEOMETRY))[0] / 2.0
            assert 10.0 ** (-end_tap / 10.0) == pytest.approx(r, abs=1e-12)
            assert 10.0 ** (-loop_tap / 10.0) == pytest.approx(r, abs=1e-12)

    def test_rejects_out_of_range(self):
        sin = PlatformSpec("s", 0.6)
        for bad in (0.0, -0.5, 1.0, 1.5, float("nan")):
            with pytest.raises(ValueError, match="r_loop"):
                budget(sin, 3, (bad, 0.5))
            with pytest.raises(ValueError, match="r_end"):
                budget(sin, 3, (0.5, bad))
            with pytest.raises(ValueError, match="r_end"):
                platform_comparison([], GEOMETRY, (0.5, bad), 3)

    def test_rejects_lossy_splitters(self):
        # the chip's splitters are lossless: what the loop keeps, the ends do not
        for ratios in ((0.5, 0.1), (0.5, 0.6)):
            with pytest.raises(ValueError, match=r"^r_loop 0\.5 and r_end 0\.[16] must sum to 1"):
                budget(PlatformSpec("s", 0.6), 3, ratios)


class TestTotalLoss:
    def test_first_step_frozen(self):
        # frozen: SiN-class figures, 5 cm chip, (2/3, 1/3) taps, n = 1
        sin = PlatformSpec("SiN on-chip", 0.6)
        assert budget(sin, 1)[0] == pytest.approx(17.542425094393249, abs=1e-9)

    @pytest.mark.parametrize("n", [1, 2, 3, 5])
    def test_matches_closed_form(self, n):
        platforms = load_platforms()
        budgets = platform_comparison(platforms, GEOMETRY, RATIOS, n)
        for platform, row in zip(platforms, budgets):
            assert row[n - 1] == pytest.approx(closed_form(platform, n), abs=1e-12)

    @settings(max_examples=300, deadline=None)
    @given(platforms=st.lists(st.builds(PlatformSpec, st.just("p"), st.floats(0.0, 10.0),
                                        st.floats(0.0, 2.0), st.floats(0.0, 20.0)),
                              max_size=5),
           geometry=st.builds(ChipConfig, dim=st.integers(1, 19),
                              chip_length_cm=st.floats(0.01, 20.0),
                              loop_length_cm=st.floats(4.0, 100.0),
                              others_loss_db=st.floats(0.0, 20.0)),
           r_end=st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
           max_loops=st.integers(1, 12))
    # a near-free end tap: step 1 costs 9.6e-16 dB, and sqrt(r_end) rounds to 1
    @example(platforms=[FREE], geometry=FREE_GEOMETRY, r_end=1.0 - 1e-16, max_loops=3)
    def test_stacks_closed_form(self, platforms, geometry, r_end, max_loops):
        # oracle: closed_form per (platform, n), stacked. The implementation takes the logs of
        # pass_amplitudes' factors instead, so the two agree to rounding, not bit for bit: each
        # factor's log is off by a few eps, 1e-13 dB over 12 steps, which is no relative bound
        # on a budget near 0 dB
        ratios = (1.0 - r_end, r_end)
        if ratios[0] == 1.0:  # 1 - r_end rounds to 1, which no loop ratio may be
            with pytest.raises(ValueError, match="^r_loop must lie strictly between 0 and 1"):
                platform_comparison(platforms, geometry, ratios, max_loops)
            return
        want = np.array([[closed_form(p, n, ratios, geometry) for n in range(1, max_loops + 1)]
                         for p in platforms]).reshape(len(platforms), max_loops)
        if not np.all(np.diff(want, axis=1) > 0):  # a loop tap within rounding of free
            with pytest.raises(ValueError, match="strictly increase"):
                platform_comparison(platforms, geometry, ratios, max_loops)
            return
        got = platform_comparison(platforms, geometry, ratios, max_loops)
        assert got.shape == (len(platforms), max_loops)
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-13)

    def test_step_difference_is_per_loop_cost(self):
        sin = PlatformSpec("SiN on-chip", 0.6)
        per_loop = 2.0 * db(RATIOS[0]) + 0.6 * (5.0 + 4.0)
        assert np.diff(budget(sin, 5)) == pytest.approx([per_loop] * 4, abs=1e-12)

    def test_zero_loss_platform_splitters_only(self):
        expected = [2.0 * db(RATIOS[1]) + 2.0 * (n - 1) * db(RATIOS[0]) for n in (1, 2, 3)]
        assert budget(FREE, 3, geometry=FREE_GEOMETRY) == pytest.approx(expected, abs=1e-12)

    @pytest.mark.parametrize("r", [0.5, 2.0 / 3.0, 0.8])
    def test_matches_loop_amplitudes(self, r):
        # oracle: run_loop's amplitude recursion models the same path loss
        sin = next(p for p in load_platforms() if p.name == "SiN on-chip")
        cfg = ChipConfig(ratio_in=r, ratio_out=r)
        detected_db = -10.0 * np.log10(run_loop(cfg, np.eye(6), 0, 6).sum(axis=1))
        assert np.max(np.abs(detected_db - budget(sin, 6, (1.0 - r, r), cfg))) < 1e-12

    def test_offchip_delay_penalty(self):
        onchip = PlatformSpec("SiN on-chip", 0.6)
        offchip = PlatformSpec("SiN off-chip", 0.6, offchip_per_loop_db=12.0)
        on, off = platform_comparison([onchip, offchip], GEOMETRY, RATIOS, 3)
        assert off[2] - on[2] == pytest.approx(36.0, abs=1e-12)
        assert off[2] - off[0] >= 24.0

    def test_validation(self):
        sin = PlatformSpec("s", 0.6)
        with pytest.raises(ValueError):
            budget(sin, 1, (0.0, 0.5))
        with pytest.raises(ValueError):
            budget(sin, 1, (0.5, 1.0))
        with pytest.raises(ValueError, match="max_loops"):
            budget(sin, 0)
        with pytest.raises(ValueError):
            PlatformSpec("", 0.6)
        with pytest.raises(ValueError):
            PlatformSpec("x", -0.1)
        assert platform_comparison([], GEOMETRY, RATIOS, 4).shape == (0, 4)


class TestOneLossModel:
    """platform_comparison is the simulator's loss plus each platform's per-pass excess."""

    @pytest.mark.parametrize("dim", range(2, 17))
    def test_rows_are_the_simulated_loss(self, dim):
        geometry = ChipConfig(dim=dim)
        for ratios in (RATIOS, optimal_splitters(8)):
            platforms = load_platforms()
            budgets = platform_comparison(platforms, geometry, ratios, 8)
            for p, row in zip(platforms, budgets):
                chip = replace(geometry, alpha_db_per_cm=p.alpha_db_per_cm,
                               ratio_in=ratios[1], ratio_out=ratios[1])
                detected = run_loop(chip, np.eye(dim), 0, 8).sum(axis=1)
                want = -10.0 * np.log10(detected) + np.arange(1, 9) * (
                    p.mzi_extra_db * dim + p.offchip_per_loop_db)
                np.testing.assert_allclose(row, want, rtol=0, atol=1e-12, err_msg=p.name)

    @pytest.mark.parametrize("dim", range(2, 17, 2))
    def test_one_excess_rule(self, dim):
        # the excess platform_comparison charges per pass is mode_scaling_loss's
        lnoi = next(p for p in load_platforms() if p.name == "LNOI")
        bare = replace(lnoi, mzi_extra_db=0.0)
        with_excess, without = platform_comparison([lnoi, bare], ChipConfig(dim=dim), RATIOS, 8)
        per_pass = mode_scaling_loss(dim, lnoi) - mode_scaling_loss(dim, bare)
        assert with_excess - without == pytest.approx(np.arange(1, 9) * per_pass, rel=1e-12)

    def test_many_loops_stay_finite(self, tmp_path):
        assert main(["--out", str(tmp_path), "losses", "--max-loops", "2000"]) == 0
        rows = np.loadtxt(tmp_path / "losses.csv", delimiter=",", skiprows=1,
                          usecols=2).reshape(4, 2000)
        assert np.isfinite(rows).all()
        assert (np.diff(rows, axis=1) > 0).all()


class TestOptimalSplitters:
    def numerical_optimum(self, n):
        # test-local oracle: dense grid refinement of (1-r) r^(n-1)
        grid = np.linspace(1e-6, 1.0 - 1e-6, 20001)
        obj = (1.0 - grid) * grid ** (n - 1)
        best = grid[np.argmax(obj)]
        for _ in range(6):
            lo, hi = best - 1e-2, best + 1e-2
            grid = np.linspace(max(lo, 1e-9), min(hi, 1.0 - 1e-9), 20001)
            obj = (1.0 - grid) * grid ** (n - 1)
            best = grid[np.argmax(obj)]
        return best

    @pytest.mark.parametrize("n", range(2, 11))
    def test_formula(self, n):
        r_loop, r_end = optimal_splitters(n)
        assert r_loop == pytest.approx((n - 1.0) / n, abs=1e-15)
        assert r_end == pytest.approx(1.0 / n, abs=1e-15)

    @pytest.mark.parametrize("n", [2, 3, 5, 10])
    def test_against_grid_oracle(self, n):
        r_loop, _ = optimal_splitters(n)
        assert abs(r_loop - self.numerical_optimum(n)) < 1e-6

    def test_frozen_values(self):
        assert optimal_splitters(3)[0] == pytest.approx(2.0 / 3.0, abs=1e-15)
        assert optimal_splitters(10)[0] == pytest.approx(0.9, abs=1e-15)
        assert optimal_splitters(np.int64(3)) == optimal_splitters(3)

    def test_perturbation_lowers_objective(self):
        for n in (2, 3, 7):
            r, _ = optimal_splitters(n)
            obj = lambda x: (1.0 - x) * x ** (n - 1)
            assert obj(r) > obj(r + 1e-3)
            assert obj(r) > obj(r - 1e-3)

    @pytest.mark.parametrize("n", [134, 200, 10_000])
    def test_formula_at_many_loops(self, n):
        r_loop, r_end = optimal_splitters(n)
        assert r_loop == (n - 1.0) / n
        assert r_end == pytest.approx(1.0 / n, rel=1e-9)

    def test_rejects_single_step(self):
        with pytest.raises(ValueError):
            optimal_splitters(1)

    @pytest.mark.parametrize("n", [2.5, 3.0, True, "3", None])
    def test_rejects_a_step_count_that_is_not_an_integer(self, n):
        with pytest.raises(ValueError, match=r"^n must be an integer >= 2"):
            optimal_splitters(n)


class TestPlatformTable:
    def test_bundled_table(self):
        platforms = load_platforms()
        names = [p.name for p in platforms]
        assert names == ["SiN on-chip", "SOI", "LNOI", "SiN off-chip"]
        by_name = {p.name: p for p in platforms}
        assert by_name["SiN on-chip"].alpha_db_per_cm == 0.6
        assert by_name["SOI"].alpha_db_per_cm == 3.0
        assert by_name["LNOI"].mzi_extra_db == 0.2
        assert by_name["SiN off-chip"].offchip_per_loop_db == 12.0

    def test_sin_onchip_strictly_best(self):
        platforms = load_platforms()
        budgets = platform_comparison(platforms, GEOMETRY, RATIOS, 3)
        assert budgets.shape == (len(platforms), 3)
        by_name = {p.name: row for p, row in zip(platforms, budgets)}
        best = by_name["SiN on-chip"]
        for name, budget in by_name.items():
            if name == "SiN on-chip":
                continue
            for n in range(3):
                assert best[n] < budget[n]

    def test_sin_frozen_budget(self):
        platforms = load_platforms()
        budgets = platform_comparison(platforms, GEOMETRY, RATIOS, 3)
        sin = budgets[[p.name for p in platforms].index("SiN on-chip")]
        assert sin[0] == pytest.approx(17.542425094393249, abs=1e-9)
        assert sin[1] == pytest.approx(26.464250275506874, abs=1e-9)
        assert sin[2] == pytest.approx(35.386075456620499, abs=1e-9)
        again = platform_comparison(platforms, GEOMETRY, RATIOS, np.int64(3))
        assert again.tobytes() == budgets.tobytes()

    def test_budget_validation(self):
        # 1e300 dB of detection-path loss: the tap factor is 0 and its loss infinite
        with pytest.raises(ValueError, match="^SiN on-chip's per-pass factor tap underflows to 0"):
            platform_comparison(load_platforms(), ChipConfig(others_loss_db=1e300), RATIOS, 3)
        with pytest.raises(ValueError):
            platform_comparison(load_platforms(), GEOMETRY, RATIOS, 0)

    @pytest.mark.parametrize("max_loops", [2.5, 3.0, True, "3", None])
    def test_rejects_a_loop_count_that_is_not_an_integer(self, max_loops):
        with pytest.raises(ValueError, match=r"^max_loops must be an integer >= 1"):
            platform_comparison(load_platforms(), GEOMETRY, RATIOS, max_loops)


class TestModeScaling:
    def test_frozen_six_modes(self):
        # frozen: 0.6 dB/cm, 0.5 cm cells, six modes -> 1.8 dB single pass
        sin = PlatformSpec("SiN on-chip", 0.6)
        assert mode_scaling_loss(6, sin) == pytest.approx(1.8, abs=1e-12)

    def test_doubling_modes_doubles_loss(self):
        sin = PlatformSpec("SiN on-chip", 0.6, mzi_extra_db=0.2)
        assert mode_scaling_loss(8, sin) == pytest.approx(
            2.0 * mode_scaling_loss(4, sin), abs=1e-12)

    def test_line_fit(self):
        sin = PlatformSpec("SiN on-chip", 0.6, mzi_extra_db=0.1)
        modes = np.array([2, 4, 6, 8])
        losses = np.array([mode_scaling_loss(int(m), sin) for m in modes])
        slope, intercept = np.polyfit(modes, losses, 1)
        fit = slope * modes + intercept
        ss_res = float(np.sum((losses - fit) ** 2))
        ss_tot = float(np.sum((losses - losses.mean()) ** 2))
        assert 1.0 - ss_res / ss_tot > 0.999999
        assert slope == pytest.approx(0.6 * 0.5 + 0.1, abs=1e-12)

    def test_rejects_odd_or_small(self):
        sin = PlatformSpec("SiN on-chip", 0.6)
        for bad in (0, 1, 3, 5):
            with pytest.raises(ValueError):
                mode_scaling_loss(bad, sin)
        for length in (0.0, float("nan"), float("inf")):
            with pytest.raises(ValueError, match="cell_length_cm"):
                mode_scaling_loss(4, sin, cell_length_cm=length)
        # finite, but the loss overflows
        with pytest.raises(ValueError, match="cell_length_cm"):
            mode_scaling_loss(8, sin, cell_length_cm=1e308)


class TestCsv:
    def test_header_and_rows(self, tmp_path):
        assert main(["--out", str(tmp_path), "losses", "--max-loops", "2"]) == 0
        lines = (tmp_path / "losses.csv").read_text().strip().splitlines()
        assert lines[0] == "platform,n,loss_db"
        assert len(lines) == 1 + 4 * 2
