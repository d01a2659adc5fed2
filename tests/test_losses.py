import numpy as np
import pytest

from loopsim.cli import main
from loopsim.loopchip import ChipConfig, run_loop
from loopsim.losses import (
    PlatformSpec,
    load_platforms,
    mode_scaling_loss,
    optimal_splitters,
    platform_comparison,
    ratio_loss_db,
    total_loss_db,
)

GEOMETRY = ChipConfig()
RATIOS = (2.0 / 3.0, 1.0 / 3.0)


def closed_form(platform, n, ratios=RATIOS, geometry=GEOMETRY):
    # independent reassembly of the budget from its published ingredients
    r_loop, r_end = ratios
    cells = geometry.dim * (geometry.dim - 1) // 2
    l_chip = platform.alpha_db_per_cm * geometry.chip_length_cm + platform.mzi_extra_db * cells
    l_loop = platform.alpha_db_per_cm * geometry.loop_length_cm
    db = lambda r: -10.0 * np.log10(r)
    return (2.0 * db(r_end) + (n - 1) * (2.0 * db(r_loop) + l_chip + l_loop)
            + l_chip + geometry.others_loss_db + platform.offchip_per_loop_db * n)


class TestRatioLoss:
    def test_half_is_three_db(self):
        assert ratio_loss_db(0.5) == pytest.approx(3.0102999566398120, abs=1e-12)

    def test_unity_is_free(self):
        assert ratio_loss_db(1.0) == 0.0

    def test_db_linear_consistency(self):
        # oracle: converting back through the power map is the identity
        for r in (0.1, 1.0 / 3.0, 0.5, 2.0 / 3.0, 0.99):
            db = ratio_loss_db(r)
            assert 10.0 ** (-db / 10.0) == pytest.approx(r, abs=1e-12)

    def test_rejects_out_of_range(self):
        for bad in (0.0, -0.5, 1.5):
            with pytest.raises(ValueError):
                ratio_loss_db(bad)


class TestTotalLoss:
    def test_first_step_frozen(self):
        # frozen: SiN-class figures, 5 cm chip, (2/3, 1/3) taps, n = 1
        sin = PlatformSpec("SiN on-chip", 0.6)
        assert total_loss_db(sin, GEOMETRY, RATIOS, 1) == pytest.approx(
            17.542425094393249, abs=1e-9)

    @pytest.mark.parametrize("n", [1, 2, 3, 5])
    def test_matches_closed_form(self, n):
        for platform in load_platforms():
            got = total_loss_db(platform, GEOMETRY, RATIOS, n)
            assert got == pytest.approx(closed_form(platform, n), abs=1e-12)

    def test_step_difference_is_per_loop_cost(self):
        sin = PlatformSpec("SiN on-chip", 0.6)
        per_loop = 2.0 * ratio_loss_db(RATIOS[0]) + 0.6 * (5.0 + 4.0)
        for n in (1, 2, 3, 4):
            d = (total_loss_db(sin, GEOMETRY, RATIOS, n + 1)
                 - total_loss_db(sin, GEOMETRY, RATIOS, n))
            assert d == pytest.approx(per_loop, abs=1e-12)

    def test_zero_loss_platform_splitters_only(self):
        free = PlatformSpec("ideal", 0.0)
        geometry = ChipConfig(others_loss_db=0.0)
        for n in (1, 2, 3):
            expected = 2.0 * ratio_loss_db(RATIOS[1]) + 2.0 * (n - 1) * ratio_loss_db(RATIOS[0])
            assert total_loss_db(free, geometry, RATIOS, n) == pytest.approx(
                expected, abs=1e-12)

    @pytest.mark.parametrize("r", [0.5, 2.0 / 3.0, 0.8])
    def test_matches_loop_amplitudes(self, r):
        # oracle: run_loop's amplitude recursion models the same path loss
        sin = next(p for p in load_platforms() if p.name == "SiN on-chip")
        cfg = ChipConfig(ratio_in=r, ratio_out=r)
        detected_db = -10.0 * np.log10(run_loop(cfg, np.eye(6), 0, 6).sum(axis=1))
        budget = [total_loss_db(sin, cfg, (1.0 - r, r), n) for n in range(1, 7)]
        assert np.max(np.abs(detected_db - budget)) < 1e-12

    def test_offchip_delay_penalty(self):
        onchip = PlatformSpec("SiN on-chip", 0.6)
        offchip = PlatformSpec("SiN off-chip", 0.6, offchip_per_loop_db=12.0)
        gap3 = (total_loss_db(offchip, GEOMETRY, RATIOS, 3)
                - total_loss_db(onchip, GEOMETRY, RATIOS, 3))
        assert gap3 == pytest.approx(36.0, abs=1e-12)
        d31 = (total_loss_db(offchip, GEOMETRY, RATIOS, 3)
               - total_loss_db(offchip, GEOMETRY, RATIOS, 1))
        assert d31 >= 24.0

    def test_validation(self):
        sin = PlatformSpec("s", 0.6)
        with pytest.raises(ValueError):
            total_loss_db(sin, GEOMETRY, (0.0, 0.5), 1)
        with pytest.raises(ValueError):
            total_loss_db(sin, GEOMETRY, (0.5, 1.0), 1)
        with pytest.raises(ValueError):
            total_loss_db(sin, GEOMETRY, RATIOS, 0)
        with pytest.raises(ValueError):
            PlatformSpec("", 0.6)
        with pytest.raises(ValueError):
            PlatformSpec("x", -0.1)


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

    def test_load_from_explicit_path(self, tmp_path):
        path = tmp_path / "p.json"
        path.write_text('[{"name": "x", "alpha_db_per_cm": 1.5}]')
        platforms = load_platforms(path)
        assert platforms == [PlatformSpec("x", 1.5)]

    def test_budget_validation(self):
        # every step's budget rounds to 1e300, so the budgets do not increase
        with pytest.raises(ValueError, match="strictly increase"):
            platform_comparison(load_platforms(), ChipConfig(others_loss_db=1e300), RATIOS, 3)
        with pytest.raises(ValueError):
            platform_comparison(load_platforms(), GEOMETRY, RATIOS, 0)


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
