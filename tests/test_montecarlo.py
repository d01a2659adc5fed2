import re
import time
from dataclasses import replace
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy.special import ndtr

from loopsim.cli import main
from loopsim.loopchip import ChipConfig, conditional_probabilities, run_loop
from loopsim.model import SpinBosonParams, build_hamiltonian, step_unitary
from loopsim.montecarlo import (
    ArrivalHistogram,
    CountingConfig,
    _bin_means,
    _expected_counts,
    _gates,
    _geometry,
    _normal_cdf,
    default_windows,
    estimate_probabilities,
    expected_histograms,
    sample_run,
)
from conftest import haar_unitary, lossless_chip

DELAY = 400.0


def histogram_edges(n_steps, cfg, loop_delay_ps):
    """The read-only bin edges every run at these settings shares."""
    return _geometry(n_steps, cfg.jitter_ps, cfg.bin_ps, loop_delay_ps)[0]


def identity_power(n_steps=3):
    return run_loop(lossless_chip(), np.eye(6), 0, n_steps)


def model_power(n_steps=3, channel=0, lossless=True, params=(1.0, 1.0, 1.0)):
    p = SpinBosonParams(*params)
    mesh = step_unitary(build_hamiltonian(p), p.dt)
    return run_loop(lossless_chip() if lossless else ChipConfig(), mesh, channel, n_steps)


def per_photon_sample_run(power, cfg, loop_delay_ps):
    """Reference sampler: one Poisson count per (step, channel), then one
    arrival time per photon, binned. Cost grows with the photon count."""
    n_steps, dim = power.shape
    edges = histogram_edges(n_steps, cfg, loop_delay_ps)
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
        out.append(ArrivalHistogram(edges, counts))
    return out


def per_channel_expected(power, cfg, loop_delay_ps):
    """Reference expectation: jitter mass for one (channel, step) at a time."""
    n_steps, dim = power.shape
    edges = histogram_edges(n_steps, cfg, loop_delay_ps)
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
        out.append(ArrivalHistogram(edges, counts))
    return out


def per_gate_estimate(histograms, windows, cfg):
    """Reference recovery: one Python block per gate, a boolean bin mask each.

    A channel-major boolean-indexed copy is Fortran-ordered, so with two or
    more channels each gate's float counts add bin after bin; each gate width
    is a pairwise np.sum and each squared total a numpy scalar power. A
    channel whose raw - background is within the rounding slack of the gate's
    background has no signal, and a step whose squared total is 0 (all-zero
    or underflowed) reads 0. A step whose background-subtracted total is
    below 100 is flagged low statistics.
    Returns (p_hat, stderr, low_statistics).
    """
    edges = histograms[0].bin_edges_ps
    span = edges[-1] - edges[0]
    bg_total = cfg.background_rate_hz * cfg.duration_s
    counts = np.stack([h.counts for h in histograms])
    dim = len(histograms)
    p_hat = np.zeros((len(windows), dim))
    stderr = np.zeros((len(windows), dim))
    flags = []
    for n, (lo, hi) in enumerate(windows):
        sel = (edges[:-1] >= lo) & (edges[1:] <= hi)
        gate_width = float(np.sum(edges[1:][sel] - edges[:-1][sel]))
        bg_in_gate = bg_total * gate_width / span if span > 0 else 0.0
        slack = np.finfo(float).eps * (sel.sum() * bg_in_gate + 2.0 * bg_total)
        raw = counts[:, sel].sum(axis=1).astype(float)
        excess = raw - bg_in_gate
        signal = np.where(excess <= slack, 0.0, excess)
        total = signal.sum()
        flags.append(bool(total < 100))
        if total ** 2 <= 0:
            continue
        p = signal / total
        p_hat[n] = p
        stderr[n] = np.sqrt(np.clip(p * (1.0 - p), 0.0, None) / total
                            + bg_in_gate * ((1.0 - p) ** 2 + (dim - 1) * p ** 2) / total ** 2)
    return p_hat, stderr, tuple(flags)


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
        rec_a = run_loop(lossless_chip(), np.eye(6), 0, 2)
        rec_b = run_loop(lossless_chip(), np.eye(6), 3, 2)
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

    @pytest.mark.parametrize("histograms", [sample_run, expected_histograms])
    def test_run_shares_one_read_only_edge_array(self, histograms):
        hists = histograms(model_power(3), CountingConfig(), DELAY)
        edges = hists[0].bin_edges_ps
        assert len(hists) == 6 and all(h.bin_edges_ps is edges for h in hists)
        assert not edges.flags.writeable

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


class TestRecoveryOracle:
    """The array recovery against per_gate_estimate, bit for bit."""

    @settings(max_examples=300, deadline=None)
    @given(dim=st.integers(2, 16), n_steps=st.integers(1, 5),
           bin_ps=st.sampled_from([1.0, 7.3, 20.0, 33.3, 150.0]),
           jitter_ps=st.sampled_from([0.0, 13.7, 50.0]),
           pair_rate_hz=st.sampled_from([0.0, 1.0, 1e2, 1e4, 1e6]),
           background_rate_hz=st.one_of(st.sampled_from([0.0, 10.0, 1e6]), st.floats(0.0, 1e6)),
           duration_s=st.sampled_from([0.1, 1.0, 10.0]),
           sampled=st.booleans(), seed=st.integers(0, 2**32 - 1),
           widen=st.lists(st.floats(0.0, 30.0), min_size=10, max_size=10),
           gates=st.sampled_from(["widened", "reversed", "none", "narrow"]))
    # Each example tells apart one way of rounding from the reference's: a
    # gate summed pairwise, a gate width from a mask product, and a total
    # squared by multiplication or by numpy's array power.
    @example(dim=2, n_steps=3, bin_ps=1.0, jitter_ps=0.0, pair_rate_hz=0.0, background_rate_hz=10.0,
             duration_s=0.1, sampled=False, seed=0, widen=[0.0] * 4 + [9.0] + [0.0] * 5,
             gates="widened")
    @example(dim=4, n_steps=1, bin_ps=7.3, jitter_ps=50.0, pair_rate_hz=0.0, background_rate_hz=1e6,
             duration_s=0.1, sampled=True, seed=84, widen=[14.3, 0.0] + [0.0] * 8,
             gates="widened")
    @example(dim=15, n_steps=3, bin_ps=7.3, jitter_ps=0.0, pair_rate_hz=100.0, background_rate_hz=1e6,
             duration_s=10.0, sampled=True, seed=32, widen=[29.8, 8.7, 0.0, 0.0, 23.2] + [0.0] * 5,
             gates="widened")
    @example(dim=12, n_steps=3, bin_ps=33.3, jitter_ps=0.0, pair_rate_hz=1e4, background_rate_hz=1e6,
             duration_s=0.1, sampled=False, seed=8, widen=[0.0, 0.0, 29.3, 9.6, 0.0, 5.9] + [0.0] * 4,
             gates="widened")
    # Gates in reverse order, no gates, and zero-jitter gates narrower than one bin,
    # the first of them below the first edge.
    @example(dim=6, n_steps=3, bin_ps=20.0, jitter_ps=50.0, pair_rate_hz=1e4, background_rate_hz=10.0,
             duration_s=10.0, sampled=False, seed=1, widen=[0.0, 9.0] + [0.0] * 8, gates="reversed")
    @example(dim=3, n_steps=2, bin_ps=7.3, jitter_ps=13.7, pair_rate_hz=1e2, background_rate_hz=1e6,
             duration_s=1.0, sampled=True, seed=2, widen=[0.0] * 10, gates="none")
    @example(dim=4, n_steps=3, bin_ps=1.0, jitter_ps=0.0, pair_rate_hz=1e4, background_rate_hz=10.0,
             duration_s=1.0, sampled=True, seed=3, widen=[20.0] + [0.0] * 9, gates="narrow")
    def test_matches_per_gate_reference_bitwise(self, dim, n_steps, bin_ps, jitter_ps, pair_rate_hz,
                                                background_rate_hz, duration_s, sampled, seed, widen,
                                                gates):
        # a window narrower than one bin passes the 6 sigma check only at zero jitter
        assume(gates != "narrow" or jitter_ps == 0)
        # A lossy chip and zero pair rate put gates at their background to
        # the last bit, where the order of each gate's sum decides p_hat.
        power = run_loop(ChipConfig(dim=dim), haar_unitary(dim, np.random.default_rng(seed)),
                         0, n_steps)
        cfg = CountingConfig(pair_rate_hz=pair_rate_hz, duration_s=duration_s, jitter_ps=jitter_ps,
                             bin_ps=bin_ps, background_rate_hz=background_rate_hz, seed=seed)
        hists = (sample_run if sampled else expected_histograms)(power, cfg, DELAY)
        # Widening each gate by up to 30 ps keeps the gates apart and gives
        # them different bin counts.
        windows = [(lo - widen[2 * n], hi + widen[2 * n + 1])
                   for n, (lo, hi) in enumerate(default_windows(n_steps, cfg, DELAY))]
        windows = {"widened": windows, "reversed": windows[::-1], "none": [],
                   "narrow": [(lo, lo + bin_ps / 2) for lo, _ in windows]}[gates]
        got = estimate_probabilities(hists, windows, cfg)
        p_hat, stderr, flags = per_gate_estimate(hists, windows, cfg)
        assert got.p_hat.tobytes() == p_hat.tobytes()
        assert got.stderr.tobytes() == stderr.tobytes()
        assert got.low_statistics == flags


def run_outputs(power, cfg, loop_delay_ps):
    """Bytes of a counting run: each path's edges and counts, and its estimates."""
    windows = default_windows(power.shape[0], cfg, loop_delay_ps)
    out = []
    for hists in (sample_run(power, cfg, loop_delay_ps), expected_histograms(power, cfg, loop_delay_ps)):
        est = estimate_probabilities(hists, windows, cfg)
        out += [hists[0].bin_edges_ps.tobytes(), *(h.counts.tobytes() for h in hists),
                est.p_hat.tobytes(), est.stderr.tobytes(), est.low_statistics]
    return out


def clear_caches():
    _geometry.cache_clear()
    _expected_counts.cache_clear()
    _gates.cache_clear()


class TestGeometryCaches:
    """Runs at the same settings share one cached geometry, bit for bit."""

    @settings(max_examples=60, deadline=None)
    @given(dim=st.integers(1, 8), n_steps=st.integers(1, 4),
           bin_ps=st.sampled_from([1.0, 7.3, 20.0, 33.3]),
           jitter_ps=st.sampled_from([0.0, -0.0, 13.7, 50.0]),
           background_rate_hz=st.sampled_from([0.0, 10.0, 1e6]), seed=st.integers(0, 2**32 - 1))
    def test_cold_and_warm_caches_agree_bitwise(self, dim, n_steps, bin_ps, jitter_ps,
                                                background_rate_hz, seed):
        power = run_loop(ChipConfig(dim=dim), haar_unitary(dim, np.random.default_rng(seed)),
                         0, n_steps)

        def as_int(x):  # an integral float as an int, as a JSON config may give it
            return int(x) if x == int(x) else x

        floats = CountingConfig(pair_rate_hz=1e4, duration_s=10.0, jitter_ps=jitter_ps,
                                bin_ps=bin_ps, background_rate_hz=background_rate_hz, seed=seed)
        ints = CountingConfig(pair_rate_hz=10000, duration_s=10, jitter_ps=as_int(jitter_ps),
                              bin_ps=as_int(bin_ps), background_rate_hz=as_int(background_rate_hz),
                              seed=seed)
        # Equal pair_rate_hz and background_rate_hz products with duration_s: one entry
        halved = replace(floats, pair_rate_hz=2e4, duration_s=5.0,
                         background_rate_hz=2 * background_rate_hz)
        clear_caches()
        cold = run_outputs(power, floats, DELAY)
        assert run_outputs(power, floats, DELAY) == cold
        assert run_outputs(power, ints, int(DELAY)) == cold  # warm from the float run
        assert run_outputs(power, halved, DELAY) == cold  # warm from the same products
        assert _expected_counts.cache_info().misses == 1
        clear_caches()
        assert run_outputs(power, ints, int(DELAY)) == cold
        assert run_outputs(power, floats, DELAY) == cold  # warm from the int run
        clear_caches()
        assert run_outputs(power, halved, DELAY) == cold

    def test_acquisition_computes_each_geometry_once(self):
        # The calls of one benchmark-style acquisition: one miss per cache.
        power = model_power(3, lossless=False)
        cfg = CountingConfig(pair_rate_hz=1e5, duration_s=10.0)
        clear_caches()
        windows = default_windows(3, cfg, DELAY)
        hists = sample_run(power, cfg, DELAY)
        estimate_probabilities(hists, windows, cfg)
        estimate_probabilities(expected_histograms(power, cfg, DELAY), windows, cfg)
        for cache in (_geometry, _expected_counts, _gates):
            assert (cache.cache_info().misses, cache.cache_info().hits) == (1, 1)

    def test_expected_counts_are_fresh_copies(self):
        power, cfg = model_power(3), CountingConfig()
        first = expected_histograms(power, cfg, DELAY)
        before = [h.counts.copy() for h in first]
        for h in first:
            assert h.counts.flags.writeable
            h.counts[:] = -1.0
        again = expected_histograms(power, cfg, DELAY)
        assert all(a.counts.tobytes() == b.tobytes() for a, b in zip(again, before))

    def test_bad_input_raises_on_every_call(self):
        cfg = CountingConfig()
        hists = expected_histograms(identity_power(2), cfg, DELAY)
        edges = hists[0].bin_edges_ps
        backwards = [ArrivalHistogram(edges[::-1].copy(), h.counts[::-1]) for h in hists]
        windows = default_windows(2, cfg, DELAY)
        negative, nan = identity_power(2), identity_power(2)
        negative[1, 2], nan[0, 3] = -0.1, float("nan")
        calls = [
            (lambda: sample_run(negative, cfg, DELAY), "power entries must be nonnegative"),
            (lambda: expected_histograms(negative, cfg, DELAY), "power entries must be nonnegative"),
            (lambda: sample_run(nan, cfg, DELAY), "power entries must be nonnegative"),
            (lambda: expected_histograms(nan, cfg, DELAY), "power entries must be nonnegative"),
            (lambda: default_windows(2, CountingConfig(bin_ps=7e-4), DELAY), "histogram bins"),
            # a subnormal bin_ps gives an infinite bin count
            (lambda: default_windows(2, CountingConfig(bin_ps=5e-324), DELAY), "inf histogram bins"),
            (lambda: _geometry(3, 50.0, 1e-310, DELAY), "inf histogram bins"),
            (lambda: estimate_probabilities(hists, [(-100.0, 300.0), (250.0, 600.0)], cfg),
             "overlap"),
            (lambda: estimate_probabilities(hists, [(-100.0, 100.0), (300.0, 500.0)], cfg),
             "narrower"),
            (lambda: estimate_probabilities(backwards, windows, cfg), "strictly increase"),
        ]
        for call, match in calls:
            clear_caches()
            messages = []
            for _ in range(2):
                with pytest.raises(ValueError, match=match) as info:
                    call()
                messages.append(str(info.value))
            assert messages[0] == messages[1]

    @pytest.mark.parametrize("delay", [float("nan"), 1e308, 0.0, -400.0])
    def test_bad_delay_is_named_and_not_cached(self, delay):
        # 1e308 is finite, but the third step's 2 * 1e308 is not
        cfg, power = CountingConfig(), identity_power(3)
        message = f"^loop_delay_ps must be positive.* got {re.escape(str(delay))}$"
        clear_caches()
        for call in (default_windows, expected_histograms, sample_run):
            with pytest.raises(ValueError, match=message):
                call(3 if call is default_windows else power, cfg, delay)
        assert _geometry.cache_info().currsize == 0

    def test_cached_arrays_read_only(self):
        edges, mass = _geometry(3, 50.0, 20.0, DELAY)
        assert mass.shape == (3, edges.size - 1)
        windows = np.array(default_windows(3, CountingConfig(), DELAY))
        bg_in_gate, floor, ranges = _gates(edges.tobytes(), windows.tobytes(), 50.0, 100.0)
        cached = (edges, mass, bg_in_gate, floor,
                  *_bin_means(model_power(3), CountingConfig(), DELAY))
        assert not any(a.flags.writeable for a in cached)
        # the bin ranges are immutable too: a tuple of (start, stop) int pairs, 16 bins each
        assert type(ranges) is tuple
        assert all(type(r) is tuple and [type(i) for i in r] == [int, int] for r in ranges)
        assert [stop - start for start, stop in ranges] == [16, 16, 16]


class TestEstimation:
    def test_recovers_conditionals_from_large_sample(self):
        # oracle: estimates must approach the known conditional distributions
        mesh = np.eye(6)
        power = run_loop(lossless_chip(), mesh, 0, 2)
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
        power = run_loop(lossless_chip(), params_mesh, 2, 3)
        cond = conditional_probabilities(power)
        cfg = CountingConfig(pair_rate_hz=1e5, background_rate_hz=0.0)
        hists = expected_histograms(power, cfg, DELAY)
        est = estimate_probabilities(hists, default_windows(3, cfg, DELAY), cfg)
        assert np.max(np.abs(est.p_hat - cond)) < 1e-12

    @pytest.mark.parametrize("pair_rate_hz, background_rate_hz", [
        (0.0, 10.0),  # background only: raw - background is rounding residue
        (1e-170, 10.0),  # a signal far below the background's rounding
        (1e-170, 0.0),  # S^2 underflows to 0; stderr was NaN, with a warning
        (1e-170, 1e-185),  # S^2 underflows to 0; stderr was inf, with a warning
    ])
    @pytest.mark.parametrize("dim", [2, 6])
    def test_no_signal_reads_zero(self, dim, pair_rate_hz, background_rate_hz):
        power = run_loop(ChipConfig(dim=dim), haar_unitary(dim, np.random.default_rng(dim)), 0, 3)
        cfg = CountingConfig(pair_rate_hz=pair_rate_hz, background_rate_hz=background_rate_hz)
        est = estimate_probabilities(expected_histograms(power, cfg, DELAY),
                                     default_windows(3, cfg, DELAY), cfg)
        assert not est.p_hat.any()
        assert not est.stderr.any()

    def test_count_at_background_is_no_signal(self):
        # Step 3's gate holds 42 bins of 7.3 ps; its expected background is
        # 164 less 8.5e-14 of rounding, so a count of exactly 164 is no signal.
        cfg = CountingConfig(duration_s=1.0, bin_ps=7.3, background_rate_hz=1000.0)
        windows = default_windows(4, cfg, DELAY)
        edges = histogram_edges(4, cfg, DELAY)
        counts = np.zeros((2, edges.size - 1), dtype=np.int64)
        counts[:, edges.searchsorted(windows[2][0])] = (164, 161)
        est = estimate_probabilities([ArrivalHistogram(edges, c) for c in counts], windows, cfg)
        assert not est.p_hat.any()
        assert not est.stderr.any()

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
        power = run_loop(lossless_chip(), mesh, 0, 1)
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

    def test_low_statistics_counts_signal_not_background(self):
        # About 0.1 pairs over thousands of background counts per gate: each
        # step's p_hat sums to 1 on rounding alone, with a huge stderr.
        power = run_loop(ChipConfig(), haar_unitary(6, np.random.default_rng(0)), 0, 3)
        cfg = CountingConfig(pair_rate_hz=1.0, duration_s=0.1, background_rate_hz=1e6)
        est = estimate_probabilities(expected_histograms(power, cfg, DELAY),
                                     default_windows(3, cfg, DELAY), cfg)
        assert est.low_statistics == (True, True, True)

    def test_window_validation(self):
        cfg = CountingConfig()
        hists = sample_run(identity_power(2), cfg, DELAY)
        with pytest.raises(ValueError, match="overlap"):
            estimate_probabilities(hists, [(-100.0, 300.0), (250.0, 600.0)], cfg)
        with pytest.raises(ValueError, match="narrower"):
            estimate_probabilities(hists, [(-100.0, 100.0), (300.0, 500.0)], cfg)
        # exactly 6 sigma wide passes; 1e-12 ps narrower is more than the bounds' rounding
        estimate_probabilities(hists, [(-150.0, 150.0), (250.0, 550.0)], cfg)
        with pytest.raises(ValueError, match="narrower"):
            estimate_probabilities(hists, [(-150.0, 150.0), (250.0, 550.0 - 1e-12)], cfg)
        with pytest.raises(ValueError, match="positive width"):
            estimate_probabilities(hists, [(100.0, -100.0), (300.0, 500.0)], cfg)
        nan = float("nan")
        with pytest.raises(ValueError, match=r"window 0 bounds must be numbers, got \(nan, nan\)"):
            estimate_probabilities(hists, [(nan, nan), (240.0, 560.0)], cfg)
        with pytest.raises(ValueError, match="window 1 bounds must be numbers"):
            estimate_probabilities(hists, [(-160.0, 160.0), (240.0, nan)], cfg)
        # The order of the checks: overlap first, then window by window in
        # the given order, positive width before the 6 sigma width.
        with pytest.raises(ValueError, match="overlap"):
            estimate_probabilities(hists, [(-100.0, 300.0), (250.0, 240.0)], cfg)
        with pytest.raises(ValueError, match="narrower"):
            estimate_probabilities(hists, [(-100.0, 100.0), (500.0, 400.0)], cfg)
        with pytest.raises(ValueError, match="positive width"):
            estimate_probabilities(hists, [(-160.0, 160.0), (500.0, 400.0)], cfg)
        other = sample_run(identity_power(3), cfg, DELAY)
        with pytest.raises(ValueError, match="share"):
            estimate_probabilities([hists[0], other[1]],
                                   default_windows(2, cfg, DELAY), cfg)
        with pytest.raises(ValueError):
            estimate_probabilities([], default_windows(2, cfg, DELAY), cfg)

    def test_bin_edges_must_strictly_increase(self):
        # 2 steps, 2 channels: read through reversed edges, the gates would
        # mix up the two steps, so such edges are rejected.
        u = np.array([[np.sqrt(0.75), -0.5], [0.5, np.sqrt(0.75)]])
        power = run_loop(lossless_chip(dim=2), u, 0, 2)
        cfg = CountingConfig(background_rate_hz=0.0)
        hists = expected_histograms(power, cfg, DELAY)
        windows = default_windows(2, cfg, DELAY)
        edges = hists[0].bin_edges_ps
        est = estimate_probabilities(hists, windows, cfg)
        assert np.max(np.abs(est.p_hat - conditional_probabilities(power))) < 1e-4
        flat = edges.copy()
        flat[5] = flat[4]
        for bad, counts in ((edges[::-1].copy(), [h.counts[::-1] for h in hists]),
                            (flat, [h.counts for h in hists])):
            with pytest.raises(ValueError, match="bin_edges_ps must strictly increase"):
                estimate_probabilities([ArrivalHistogram(bad, c) for c in counts], windows, cfg)
        for counts in (hists[1].counts[:1], np.append(hists[1].counts, 0.0)):
            with pytest.raises(ValueError, match="one count per bin"):
                estimate_probabilities([hists[0], ArrivalHistogram(edges, counts)], windows, cfg)
        # an equal-valued copy of the shared edges is still the same run
        copied = [hists[0], ArrivalHistogram(edges.copy(), hists[1].counts)]
        again = estimate_probabilities(copied, windows, cfg)
        assert again.p_hat.tobytes() == est.p_hat.tobytes()
        assert again.stderr.tobytes() == est.stderr.tobytes()

    def test_bin_edges_increase_as_float64(self):
        # int64 edges that strictly increase, but 2**53 + 1 rounds to 2**53 as a float64
        edges = np.array([0, 100, 2**53, 2**53 + 1, 2**53 + 2], dtype=np.int64)
        assert (np.diff(edges) > 0).all()
        hists = [ArrivalHistogram(edges, np.array([50, 0, 0, 0])) for _ in range(2)]
        cfg = CountingConfig(jitter_ps=0.0, background_rate_hz=0.0)
        with pytest.raises(ValueError, match="bin_edges_ps must strictly increase"):
            estimate_probabilities(hists, [(0.0, 100.0)], cfg)

    def test_default_windows_shape(self):
        cfg = CountingConfig(jitter_ps=50.0, bin_ps=20.0)
        windows = default_windows(3, cfg, DELAY)
        assert len(windows) == 3
        for n, (lo, hi) in enumerate(windows):
            assert lo == pytest.approx(n * DELAY - 160.0)
            assert hi == pytest.approx(n * DELAY + 160.0)
        with pytest.raises(ValueError, match="jitter too large"):
            default_windows(2, CountingConfig(jitter_ps=80.0), DELAY)

    def test_default_windows_pass_the_width_check(self):
        # When 3 sigma is a whole number of bins, a default gate is exactly 6 sigma wide and
        # its bounds n * DELAY -/+ half round, so hi - lo can fall an ulp below 6 * jitter_ps.
        settings = [(j, j) for j in np.round(np.arange(5.0, 60.05, 0.1), 1).tolist()]
        settings += [(30.3, 10.1), (40.1, 20.05)]
        power = np.full((3, 2), 0.1)
        accepted = 0
        for jitter_ps, bin_ps in settings:
            cfg = CountingConfig(jitter_ps=jitter_ps, bin_ps=bin_ps)
            try:
                windows = default_windows(3, cfg, DELAY)
            except ValueError:
                continue
            accepted += 1
            estimate_probabilities(expected_histograms(power, cfg, DELAY), windows, cfg)
        assert accepted == 533


class TestCsv:
    """The counting outputs as the CLI writes them."""

    def test_histogram_csv(self, tmp_path):
        assert main(["--out", str(tmp_path), "--seed", "1", "counts", "--n-steps", "1"]) == 0
        lines = (tmp_path / "histograms.csv").read_text().strip().splitlines()
        assert lines[0] == "channel,bin_start_ps,count"
        n_bins = histogram_edges(1, CountingConfig(), DELAY).size - 1
        assert len(lines) == 1 + 6 * n_bins

    def test_estimates_csv(self, tmp_path):
        assert main(["--out", str(tmp_path), "--seed", "1", "counts", "--n-steps", "2"]) == 0
        lines = (tmp_path / "estimates.csv").read_text().strip().splitlines()
        assert lines[0] == "step,channel,p_hat,stderr"
        assert len(lines) == 1 + 2 * 6
