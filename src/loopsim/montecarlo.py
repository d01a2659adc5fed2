"""Photon-counting simulation: arrival-time histograms and probability recovery.

Each heralded pair is timed relative to its own pump pulse, so step n's
photons arrive near (n - 1) * loop_delay_ps, smeared by detector jitter, on
top of a uniform background. Every channel owns an independent random
substream, so adding or changing one channel never perturbs another's counts.
The jitter CDF is the standard normal's, 0.5 * erfc(-x / sqrt(2)), evaluated
with the C library's erfc through math.erfc.
"""

import math
from dataclasses import dataclass

import numpy as np

from ._fields import check_fields

# Histogram bins per channel. sample_run holds dim x bins floats at once, so
# the cap bounds its memory; a too-small bin_ps is rejected, not allocated.
_MAX_BINS = 10**6
# Expected pairs, and expected background counts, per run. A bin's Poisson
# mean is at most their sum, which stays below numpy's limit of about 9.2e18.
_MAX_COUNTS = 1e18
_NEG_SQRT_HALF = -math.sqrt(0.5)


@dataclass(frozen=True)
class CountingConfig:
    """Source, detector and histogram settings."""

    pair_rate_hz: float = 1e4
    duration_s: float = 10.0
    jitter_ps: float = 50.0
    bin_ps: float = 20.0
    background_rate_hz: float = 10.0
    seed: int = 0

    def __post_init__(self):
        check_fields(self, positive=("duration_s", "bin_ps"),
                     nonneg=("pair_rate_hz", "jitter_ps", "background_rate_hz", "seed"))
        if max(self.pair_rate_hz, self.background_rate_hz) * self.duration_s > _MAX_COUNTS:
            raise ValueError(f"pair_rate_hz and background_rate_hz times duration_s must not "
                             f"exceed {_MAX_COUNTS:g} counts per run")


@dataclass
class ArrivalHistogram:
    """Binned arrival times for one output channel.

    bin_edges_ps has one more entry than counts; bin i covers
    [bin_edges_ps[i], bin_edges_ps[i+1]). Counts are integers from sampling
    and floats from the analytic expectation path.
    """

    channel: int
    bin_edges_ps: np.ndarray
    counts: np.ndarray


@dataclass
class ProbabilityEstimates:
    """Recovered per-step distributions with their standard errors.

    low_statistics flags steps whose gated raw counts fall below 100.
    """

    p_hat: np.ndarray
    stderr: np.ndarray
    low_statistics: tuple


def _histogram_edges(n_steps: int, cfg: CountingConfig, loop_delay_ps: float) -> np.ndarray:
    """Bin edges spanning all peaks plus 6 sigma of jitter, aligned to bin_ps."""
    pad = 6.0 * cfg.jitter_ps + cfg.bin_ps
    lo = np.floor(-pad / cfg.bin_ps) * cfg.bin_ps
    hi = np.ceil(((n_steps - 1) * loop_delay_ps + pad) / cfg.bin_ps) * cfg.bin_ps
    n_bins = int(round((hi - lo) / cfg.bin_ps))
    if n_bins > _MAX_BINS:
        raise ValueError(f"bin_ps {cfg.bin_ps} gives {n_bins} histogram bins per channel, "
                         f"more than {_MAX_BINS}")
    return lo + cfg.bin_ps * np.arange(n_bins + 1)


def _normal_cdf(x: np.ndarray) -> np.ndarray:
    """Standard normal CDF of a float array, one math.erfc call per element;
    erfc keeps full relative precision in the left tail, where 1 - erf cancels."""
    flat = (x * _NEG_SQRT_HALF).ravel().tolist()
    return 0.5 * np.fromiter(map(math.erfc, flat), float, count=x.size).reshape(x.shape)


def _bin_means(power: np.ndarray, cfg: CountingConfig, loop_delay_ps: float):
    """Histogram edges and the expected signal-plus-background count per bin.

    Returns (edges, means) with means of shape (dim, bins). Each step's jitter
    mass is computed once and shared by all channels; jitter tails beyond the
    edges are not counted, and background is uniform over the span.
    """
    if loop_delay_ps <= 0:
        raise ValueError("loop_delay_ps must be positive")
    total = float(power.sum())
    if total > 1.0 + 1e-9:
        raise ValueError(f"total detection probability {total} exceeds 1")
    n_steps, dim = power.shape
    edges = _histogram_edges(n_steps, cfg, loop_delay_ps)
    centers = np.arange(n_steps) * loop_delay_ps
    if cfg.jitter_ps > 0:
        mass = np.diff(_normal_cdf((edges - centers[:, None]) / cfg.jitter_ps), axis=1)
    else:  # the edges pad every center by at least one bin
        mass = np.zeros((n_steps, edges.size - 1))
        mass[np.arange(n_steps), np.searchsorted(edges, centers, side="right") - 1] = 1.0
    expected_pairs = cfg.pair_rate_hz * cfg.duration_s
    bg_per_bin = (cfg.background_rate_hz * cfg.duration_s) * cfg.bin_ps / (edges[-1] - edges[0])
    means = np.full((dim, edges.size - 1), bg_per_bin)
    for n in range(n_steps):
        means = means + (expected_pairs * power[n])[:, None] * mass[n]
    return edges, means


def sample_run(power: np.ndarray, cfg: CountingConfig, loop_delay_ps: float) -> list:
    """Sample arrival-time histograms for one experimental run.

    power is run_loop's (n_steps, dim) detection probability per pair.
    Signal per (step, channel) is a Poisson process with mean
    pair_rate_hz * duration_s * power[step, channel], centered at the
    step's delay with Gaussian jitter; background is uniform over the
    histogram span.
    Binned, each bin is an independent Poisson count whose mean is the
    expected_histograms value, so each bin is drawn as one Poisson variate:
    cost is O(channels x bins) and does not depend on the photon count.
    Channel c draws from SeedSequence(cfg.seed, spawn_key=(c,)).
    """
    edges, means = _bin_means(power, cfg, loop_delay_ps)
    out = []
    for channel, mean in enumerate(means):
        rng = np.random.default_rng(np.random.SeedSequence(cfg.seed, spawn_key=(channel,)))
        out.append(ArrivalHistogram(channel, edges.copy(), rng.poisson(mean)))
    return out


def expected_histograms(power: np.ndarray, cfg: CountingConfig, loop_delay_ps: float) -> list:
    """Infinite-statistics limit of sample_run: expected counts per bin."""
    edges, means = _bin_means(power, cfg, loop_delay_ps)
    return [ArrivalHistogram(channel, edges.copy(), mean) for channel, mean in enumerate(means)]


def default_windows(n_steps: int, cfg: CountingConfig, loop_delay_ps: float) -> list:
    """Symmetric per-step gates, 6 sigma of jitter or 2 bins wide; raises if they overlap."""
    _histogram_edges(n_steps, cfg, loop_delay_ps)  # raises past _MAX_BINS: one geometry check
    half = max(3.0 * cfg.jitter_ps, cfg.bin_ps)
    half = np.ceil(half / cfg.bin_ps) * cfg.bin_ps
    if 2 * half >= loop_delay_ps:
        raise ValueError(f"jitter too large for non-overlapping gates at this delay: jitter_ps "
                         f"{cfg.jitter_ps} needs {2 * half} ps gates, loop_delay_ps is {loop_delay_ps}")
    return [((n * loop_delay_ps) - half, (n * loop_delay_ps) + half) for n in range(n_steps)]


def estimate_probabilities(histograms: list, windows: list, cfg: CountingConfig) -> ProbabilityEstimates:
    """Recover per-step channel distributions from gated histogram counts.

    Counts inside each step's gate are summed per channel, the expected
    uniform background inside the gate is subtracted (clipped at zero), and
    each step is renormalized. Standard errors add the Poisson variance of
    the subtracted background to the binomial term (delta method):
    sqrt(p (1 - p) / S + b ((1 - p)^2 + (D - 1) p^2) / S^2), with S the step's
    background-subtracted total, b the expected background per channel in
    the gate and D the channel count. With no background this is binomial.
    """
    if not histograms:
        raise ValueError("need at least one histogram")
    edges = histograms[0].bin_edges_ps
    for h in histograms:
        if not np.array_equal(h.bin_edges_ps, edges):
            raise ValueError("histograms must share bin edges")
    lows = [w[0] for w in windows]
    his = [w[1] for w in windows]
    order = np.argsort(lows)
    for a, b in zip(order[:-1], order[1:]):
        if his[a] > lows[b]:
            raise ValueError("windows must not overlap")
    width_needed = 6.0 * cfg.jitter_ps
    span = edges[-1] - edges[0]
    bg_total = cfg.background_rate_hz * cfg.duration_s
    n_steps = len(windows)
    dim = len(histograms)
    p_hat = np.zeros((n_steps, dim))
    stderr = np.zeros((n_steps, dim))
    flags = []
    for n, (lo, hi) in enumerate(windows):
        if hi <= lo:
            raise ValueError("window must have positive width")
        if hi - lo < width_needed:
            raise ValueError("window narrower than 6 sigma of jitter")
        sel = (edges[:-1] >= lo) & (edges[1:] <= hi)
        gate_width = float(np.sum(edges[1:][sel] - edges[:-1][sel]))
        bg_in_gate = bg_total * gate_width / span if span > 0 else 0.0
        raw = np.array([float(h.counts[sel].sum()) for h in histograms])
        signal = np.maximum(raw - bg_in_gate, 0.0)
        total = signal.sum()
        flags.append(bool(raw.sum() < 100))
        if total <= 0:
            continue
        p = signal / total
        p_hat[n] = p
        stderr[n] = np.sqrt(np.clip(p * (1.0 - p), 0.0, None) / total
                            + bg_in_gate * ((1.0 - p) ** 2 + (dim - 1) * p ** 2) / total ** 2)
    return ProbabilityEstimates(p_hat, stderr, tuple(flags))

