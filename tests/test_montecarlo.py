import time
from dataclasses import replace
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import ndtr

from loopsim.cli import main
from loopsim.loopchip import ChipConfig, conditional_probabilities, run_loop
from loopsim.model import SpinBosonParams, build_hamiltonian, step_unitary
from loopsim.montecarlo import (
    ArrivalHistogram,
    CountingConfig,
    _histogram_edges,
    _normal_cdf,
    default_windows,
    estimate_probabilities,
    expected_histograms,
    sample_run,
)

DELAY = 400.0


def identity_power(n_steps=3):
    return run_loop(ChipConfig(lossless=True), np.eye(6), 0, n_steps)


def model_power(n_steps=3, channel=0, lossless=True, params=(1.0, 1.0, 1.0)):
    p = SpinBosonParams(*params)
    mesh = step_unitary(build_hamiltonian(p), p.dt)
    return run_loop(ChipConfig(lossless=lossless), mesh, channel, n_steps)


def per_photon_sample_run(power, cfg, loop_delay_ps):
    """Reference sampler: one Poisson count per (step, channel), then one
    arrival time per photon, binned. Cost grows with the photon count."""
    n_steps, dim = power.shape
    edges = _histogram_edges(n_steps, cfg, loop_delay_ps)
    expected_pairs = cfg.pair_rate_hz * cfg.duration_s
    expected_bg = cfg.background_rate_hz * cfg.duration_s
    out = []
    for channel in range(dim):
        rng = np.random.default_rng(np.random.SeedSequence(cfg.seed, spawn_key=(channel,)))
        times = []
        for n in range(n_steps):
            count = rng.poisson(expected_pairs * power[n, channel])
            if count:
                center = n * loop_delay_ps
                times.append(rng.normal(center, cfg.jitter_ps, size=count)
                             if cfg.jitter_ps > 0 else np.full(count, center))
        bg_count = rng.poisson(expected_bg)
        if bg_count:
            times.append(rng.uniform(edges[0], edges[-1], size=bg_count))
        all_times = np.concatenate(times) if times else np.empty(0)
        counts, _ = np.histogram(all_times, bins=edges)
        out.append(ArrivalHistogram(channel, edges.copy(), counts))
    return out


def per_channel_expected(power, cfg, loop_delay_ps):
    """Reference expectation: jitter mass for one (channel, step) at a time."""
    n_steps, dim = power.shape
    edges = _histogram_edges(n_steps, cfg, loop_delay_ps)
    expected_pairs = cfg.pair_rate_hz * cfg.duration_s
    bg_per_bin = (cfg.background_rate_hz * cfg.duration_s) * cfg.bin_ps / (edges[-1] - edges[0])
    out = []
    for channel in range(dim):
        counts = np.full(edges.size - 1, bg_per_bin)
        for n in range(n_steps):
            mean = expected_pairs * power[n, channel]
            center = n * loop_delay_ps
            if cfg.jitter_ps > 0:
                mass = np.diff(_normal_cdf((edges - center) / cfg.jitter_ps))
            else:
                mass = np.zeros(edges.size - 1)
                idx = np.searchsorted(edges, center, side="right") - 1
                if 0 <= idx < mass.size:
                    mass[idx] = 1.0
            counts = counts + mean * mass
        out.append(ArrivalHistogram(channel, edges.copy(), counts))
    return out


def assert_close_to_ndtr(x):
    got = _normal_cdf(x)
    want = ndtr(x)
    assert got.shape == np.shape(x)
    diff = np.abs(got - want)
    assert np.all(diff <= 2.3e-16)
    above = want > 1e-300
    assert np.all(diff[above] <= 1e-13 * want[above])


class TestNormalCdf:
    def test_matches_scipy_on_a_dense_grid(self):
        assert_close_to_ndtr(np.linspace(-40.0, 40.0, 200_001))

    def test_keeps_2d_shape(self):
        x = np.linspace(-40.0, 40.0, 219).reshape(3, 73)
        assert_close_to_ndtr(x)
        assert_close_to_ndtr(x.T)  # a non-contiguous view

    def test_limits(self):
        got = _normal_cdf(np.array([-np.inf, -40.0, 0.0, 40.0, np.inf]))
        assert np.array_equal(got, [0.0, 0.0, 0.5, 1.0, 1.0])

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.floats(-40.0, 40.0), min_size=1, max_size=40))
    def test_matches_scipy_at_random_points(self, values):
        assert_close_to_ndtr(np.array(values))


class TestSampling:
    def test_three_peak_power_ladder(self):
        # identity mesh dumps everything on channel 0 with 1/9 decay per step
        cfg = CountingConfig(pair_rate_hz=1e5, duration_s=10.0,
                             background_rate_hz=0.0, seed=1)
        power = identity_power(3)
        hists = sample_run(power, cfg, DELAY)
        windows = default_windows(3, cfg, DELAY)
        edges = hists[0].bin_edges_ps
        totals = []
        for lo, hi in windows:
            sel = (edges[:-1] >= lo) & (edges[1:] <= hi)
            totals.append(float(hists[0].counts[sel].sum()))
        # each step keeps 1/9 of the previous one, within Poisson scatter
        assert totals[0] / totals[1] == pytest.approx(9.0, rel=0.05)
        assert totals[1] / totals[2] == pytest.approx(9.0, rel=0.2)
        # channels 1..5 carry nothing but background (here zero)
        for h in hists[1:]:
            assert h.counts.sum() == 0

    def test_zero_pair_rate_background_only(self):
        cfg = CountingConfig(pair_rate_hz=0.0, duration_s=5.0,
                             background_rate_hz=5.0, seed=3)
        hists = sample_run(identity_power(2), cfg, DELAY)
        for h in hists:
            assert h.counts.sum() > 0
        windows = default_windows(2, cfg, DELAY)
        est = estimate_probabilities(hists, windows, cfg)
        assert all(est.low_statistics)

    def test_zero_jitter_single_bin_peaks(self):
        cfg = CountingConfig(pair_rate_hz=1e4, duration_s=1.0, jitter_ps=0.0,
                             background_rate_hz=0.0, seed=2)
        hists = sample_run(identity_power(2), cfg, DELAY)
        h = hists[0]
        occupied = np.nonzero(h.counts)[0]
        assert occupied.size == 2
        starts = h.bin_edges_ps[occupied]
        assert starts[0] <= 0.0 < starts[0] + cfg.bin_ps
        assert starts[1] <= DELAY < starts[1] + cfg.bin_ps

    def test_deterministic_per_seed(self):
        cfg = CountingConfig(seed=9)
        a = sample_run(identity_power(2), cfg, DELAY)
        b = sample_run(identity_power(2), cfg, DELAY)
        for ha, hb in zip(a, b):
            assert np.array_equal(ha.counts, hb.counts)
        c = sample_run(identity_power(2), CountingConfig(seed=10), DELAY)
        assert any(not np.array_equal(ha.counts, hc.counts) for ha, hc in zip(a, c))

    def test_channel_streams_independent(self):
        # channel c's counts do not depend on what other channels carry
        cfg = CountingConfig(pair_rate_hz=1e4, background_rate_hz=50.0, seed=4)
        rec_a = run_loop(ChipConfig(lossless=True), np.eye(6), 0, 2)
        rec_b = run_loop(ChipConfig(lossless=True), np.eye(6), 3, 2)
        ch5_a = sample_run(rec_a, cfg, DELAY)[5]
        ch5_b = sample_run(rec_b, cfg, DELAY)[5]
        assert np.array_equal(ch5_a.counts, ch5_b.counts)

    def test_edges_aligned_and_cover_peaks(self):
        cfg = CountingConfig()
        hists = sample_run(identity_power(3), cfg, DELAY)
        edges = hists[0].bin_edges_ps
        assert np.max(np.abs(np.diff(edges) - cfg.bin_ps)) < 1e-9
        assert edges[0] <= -6.0 * cfg.jitter_ps
        assert edges[-1] >= 2 * DELAY + 6.0 * cfg.jitter_ps

    def test_rejects_bad_inputs(self):
        cfg = CountingConfig()
        with pytest.raises(ValueError):
            sample_run(identity_power(2), cfg, 0.0)
        fat = np.ones_like(identity_power(2))
        with pytest.raises(ValueError, match="exceeds 1"):
            sample_run(fat, cfg, DELAY)
        with pytest.raises(ValueError):
            CountingConfig(bin_ps=0.0)
        with pytest.raises(ValueError):
            CountingConfig(duration_s=-1.0)

    def test_expected_counts_cap(self):
        # 1e18 expected pairs and background counts per run still sample
        cfg = CountingConfig(pair_rate_hz=1e17, duration_s=10.0, background_rate_hz=1e17)
        hists = sample_run(model_power(3), cfg, DELAY)
        assert sum(float(h.counts.sum()) for h in hists) > 1e18
        for key in ("pair_rate_hz", "background_rate_hz"):
            with pytest.raises(ValueError, match="pair_rate_hz and background_rate_hz"):
                CountingConfig(**{key: 1.1e17}, duration_s=10.0)


class TestSamplerOracles:
    def test_expected_histograms_match_per_channel_loop_exactly(self):
        powers = [identity_power(3), model_power(1), model_power(3, channel=4),
                   model_power(5, lossless=False, params=(0.5, 1.2, 0.8))]
        configs = [CountingConfig(),
                   CountingConfig(pair_rate_hz=1e5, jitter_ps=0.0, background_rate_hz=0.0),
                   CountingConfig(pair_rate_hz=3e3, jitter_ps=13.7, bin_ps=7.0,
                                  background_rate_hz=200.0)]
        for power in powers:
            for cfg in configs:
                got = expected_histograms(power, cfg, DELAY)
                want = per_channel_expected(power, cfg, DELAY)
                assert len(got) == len(want)
                for g, w in zip(got, want):
                    assert g.channel == w.channel
                    assert np.array_equal(g.bin_edges_ps, w.bin_edges_ps)
                    assert np.array_equal(g.counts, w.counts)

    @pytest.mark.parametrize("jitter_ps", [50.0, 0.0])
    def test_pooled_samplers_agree_with_expectation(self, jitter_ps):
        # Both samplers, pooled over many seeds, must match the expected
        # histogram bin by bin within Poisson error.
        power = model_power(3)
        n_seeds = 200
        base = CountingConfig(pair_rate_hz=2e3, duration_s=1.0, jitter_ps=jitter_ps,
                              background_rate_hz=200.0)
        expected = np.array([h.counts for h in expected_histograms(power, base, DELAY)])
        target = n_seeds * expected
        for sampler in (sample_run, per_photon_sample_run):
            pooled = np.zeros_like(expected)
            for seed in range(n_seeds):
                hists = sampler(power, replace(base, seed=seed), DELAY)
                pooled += np.array([h.counts for h in hists])
            assert np.all(np.abs(pooled - target) <= 5.0 * np.sqrt(target)), sampler.__name__
            chi2 = float(np.sum((pooled - target) ** 2 / target))
            dof = target.size
            assert abs(chi2 - dof) <= 5.0 * np.sqrt(2.0 * dof), sampler.__name__

    def test_cost_independent_of_photon_count(self):
        # 1e15 pairs: a per-photon sampler could not even allocate the times.
        power = model_power(3)
        cfg = CountingConfig(pair_rate_hz=1e14, duration_s=10.0, background_rate_hz=1e6)
        sample_run(power, cfg, DELAY)  # warm up imports and caches
        tracemalloc.start()
        try:
            start = time.perf_counter()
            hists = sample_run(power, cfg, DELAY)
            elapsed = time.perf_counter() - start
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert elapsed < 1.0
        assert peak < 1e6
        expected = expected_histograms(power, cfg, DELAY)
        for h, e in zip(hists, expected):
            assert np.all(np.abs(h.counts - e.counts) <= 6.0 * np.sqrt(e.counts) + 1.0)
        assert sum(float(h.counts.sum()) for h in hists) > 1e14


class TestEstimation:
    def test_recovers_conditionals_from_large_sample(self):
        # oracle: estimates must approach the known conditional distributions
        mesh = np.eye(6)
        power = run_loop(ChipConfig(lossless=True), mesh, 0, 2)
        cond = conditional_probabilities(power)
        cfg = CountingConfig(pair_rate_hz=1e6, duration_s=1.0,
                             background_rate_hz=0.0, seed=5)
        hists = sample_run(power, cfg, DELAY)
        est = estimate_probabilities(hists, default_windows(2, cfg, DELAY), cfg)
        assert np.max(np.abs(est.p_hat - cond)) < 0.01
        assert est.p_hat.shape == (2, 6)
        assert np.max(np.abs(est.p_hat.sum(axis=1) - 1.0)) < 1e-12

    def test_infinite_statistics_exact(self):
        # the analytic expectation path recovers conditionals to rounding
        params_mesh = np.eye(6)
        power = run_loop(ChipConfig(lossless=True), params_mesh, 2, 3)
        cond = conditional_probabilities(power)
        cfg = CountingConfig(pair_rate_hz=1e5, background_rate_hz=0.0)
        hists = expected_histograms(power, cfg, DELAY)
        est = estimate_probabilities(hists, default_windows(3, cfg, DELAY), cfg)
        assert np.max(np.abs(est.p_hat - cond)) < 1e-12

    def test_background_subtraction_unbiased(self):
        power = identity_power(2)
        cond = conditional_probabilities(power)
        cfg = CountingConfig(pair_rate_hz=1e5, duration_s=10.0,
                             background_rate_hz=200.0, seed=8)
        hists = expected_histograms(power, cfg, DELAY)
        est = estimate_probabilities(hists, default_windows(2, cfg, DELAY), cfg)
        # expected background is removed exactly in the expectation limit;
        # only the jitter tail clipped by the gate remains
        assert np.max(np.abs(est.p_hat - cond)) < 1e-4

    def test_stderr_shrinks_with_duration(self):
        params = SpinBosonParams(1.0, 1.0, 1.0)
        mesh = step_unitary(build_hamiltonian(params), params.dt)
        power = run_loop(ChipConfig(lossless=True), mesh, 0, 1)
        base = CountingConfig(pair_rate_hz=1e4, duration_s=1.0,
                              background_rate_hz=0.0, seed=11)
        longer = CountingConfig(pair_rate_hz=1e4, duration_s=100.0,
                                background_rate_hz=0.0, seed=11)
        e1 = estimate_probabilities(sample_run(power, base, DELAY),
                                    default_windows(1, base, DELAY), base)
        e2 = estimate_probabilities(sample_run(power, longer, DELAY),
                                    default_windows(1, longer, DELAY), longer)
        assert e2.stderr[0, 0] < e1.stderr[0, 0] / 5.0

    def test_zero_background_stderr_is_binomial_bit_for_bit(self):
        power = model_power(3)
        cfg = CountingConfig(pair_rate_hz=1e4, duration_s=10.0,
                             background_rate_hz=0.0, seed=13)
        hists = sample_run(power, cfg, DELAY)
        windows = default_windows(3, cfg, DELAY)
        est = estimate_probabilities(hists, windows, cfg)
        edges = hists[0].bin_edges_ps
        for n, (lo, hi) in enumerate(windows):
            sel = (edges[:-1] >= lo) & (edges[1:] <= hi)
            signal = np.array([float(h.counts[sel].sum()) for h in hists])
            total = signal.sum()
            p = signal / total
            binomial = np.sqrt(np.clip(p * (1.0 - p), 0.0, None) / total)
            assert np.array_equal(est.stderr[n], binomial)

    def test_stderr_covers_background_noise(self):
        # Lossy chip, default 10 Hz background: step 3 sits barely above the
        # background, where a binomial-only stderr undercovers.
        power = model_power(3, lossless=False)
        truth = conditional_probabilities(power)
        off = off_binomial = 0
        for seed in range(6):
            cfg = CountingConfig(seed=seed)
            windows = default_windows(3, cfg, DELAY)
            hists = sample_run(power, cfg, DELAY)
            est = estimate_probabilities(hists, windows, cfg)
            edges = hists[0].bin_edges_ps
            span = edges[-1] - edges[0]
            for n, (lo, hi) in enumerate(windows):
                sel = (edges[:-1] >= lo) & (edges[1:] <= hi)
                bg = cfg.background_rate_hz * cfg.duration_s * float(np.sum(np.diff(edges)[sel])) / span
                raw = np.array([float(h.counts[sel].sum()) for h in hists])
                total = np.maximum(raw - bg, 0.0).sum()
                p = est.p_hat[n]
                binomial = np.sqrt(p * (1.0 - p) / total)
                assert np.all(est.stderr[n] >= binomial)
                gap = np.abs(p - truth[n])
                off += int(np.sum(gap > 5.0 * est.stderr[n]))
                off_binomial += int(np.sum(gap > 5.0 * binomial))
        assert off_binomial > 0
        assert off == 0

    def test_low_statistics_flag_threshold(self):
        power = identity_power(1)
        sparse = CountingConfig(pair_rate_hz=5.0, duration_s=1.0,
                                background_rate_hz=0.0, seed=12)
        dense = CountingConfig(pair_rate_hz=1e5, duration_s=1.0,
                               background_rate_hz=0.0, seed=12)
        es = estimate_probabilities(sample_run(power, sparse, DELAY),
                                    default_windows(1, sparse, DELAY), sparse)
        ed = estimate_probabilities(sample_run(power, dense, DELAY),
                                    default_windows(1, dense, DELAY), dense)
        assert es.low_statistics == (True,)
        assert ed.low_statistics == (False,)

    def test_window_validation(self):
        cfg = CountingConfig()
        hists = sample_run(identity_power(2), cfg, DELAY)
        with pytest.raises(ValueError, match="overlap"):
            estimate_probabilities(hists, [(-100.0, 300.0), (250.0, 600.0)], cfg)
        with pytest.raises(ValueError, match="narrower"):
            estimate_probabilities(hists, [(-100.0, 100.0), (300.0, 500.0)], cfg)
        with pytest.raises(ValueError, match="positive width"):
            estimate_probabilities(hists, [(100.0, -100.0), (300.0, 500.0)], cfg)
        other = sample_run(identity_power(3), cfg, DELAY)
        with pytest.raises(ValueError, match="share"):
            estimate_probabilities([hists[0], other[1]],
                                   default_windows(2, cfg, DELAY), cfg)
        with pytest.raises(ValueError):
            estimate_probabilities([], default_windows(2, cfg, DELAY), cfg)

    def test_default_windows_shape(self):
        cfg = CountingConfig(jitter_ps=50.0, bin_ps=20.0)
        windows = default_windows(3, cfg, DELAY)
        assert len(windows) == 3
        for n, (lo, hi) in enumerate(windows):
            assert lo == pytest.approx(n * DELAY - 160.0)
            assert hi == pytest.approx(n * DELAY + 160.0)
        with pytest.raises(ValueError, match="jitter too large"):
            default_windows(2, CountingConfig(jitter_ps=80.0), DELAY)


class TestCsv:
    """The counting outputs as the CLI writes them."""

    def test_histogram_csv(self, tmp_path):
        assert main(["--out", str(tmp_path), "--seed", "1", "counts", "--n-steps", "1"]) == 0
        lines = (tmp_path / "histograms.csv").read_text().strip().splitlines()
        assert lines[0] == "channel,bin_start_ps,count"
        n_bins = _histogram_edges(1, CountingConfig(), DELAY).size - 1
        assert len(lines) == 1 + 6 * n_bins

    def test_estimates_csv(self, tmp_path):
        assert main(["--out", str(tmp_path), "--seed", "1", "counts", "--n-steps", "2"]) == 0
        lines = (tmp_path / "estimates.csv").read_text().strip().splitlines()
        assert lines[0] == "step,channel,p_hat,stderr"
        assert len(lines) == 1 + 2 * 6
