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

from ._fields import (_EPS, _GATE_SIGMAS, _GATE_WIDTH_EPS_FACTOR, _MAX_BINS, _MAX_COUNTS,
                      _MIN_SIGNAL_COUNTS, _PROBABILITY_ATOL, check_fields, frozen_cache)

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
    """Binned arrival times for one output channel; entry c of a run's list is channel c.

    bin_edges_ps, one read-only array shared by the run, has one more entry than
    counts; bin i covers [bin_edges_ps[i], bin_edges_ps[i+1]). Counts are integers
    from sampling and floats from the analytic expectation path.
    """

    bin_edges_ps: np.ndarray
    counts: np.ndarray


@dataclass
class ProbabilityEstimates:
    """Recovered per-step distributions with their standard errors.

    low_statistics flags steps whose background-subtracted gated total S falls
    below _fields._MIN_SIGNAL_COUNTS, so a step buried in background is flagged
    however many raw counts its gate holds.
    """

    p_hat: np.ndarray
    stderr: np.ndarray
    low_statistics: tuple


def _normal_cdf(x: np.ndarray) -> np.ndarray:
    """Standard normal CDF of a float array, one math.erfc call per element;
    erfc keeps full relative precision in the left tail, where 1 - erf cancels."""
    flat = (x * _NEG_SQRT_HALF).ravel().tolist()
    return 0.5 * np.fromiter(map(math.erfc, flat), float, count=x.size).reshape(x.shape)


@frozen_cache(maxsize=4)
def _geometry(n_steps: int, jitter_ps: float, bin_ps: float, loop_delay_ps: float):
    """Read-only (edges, mass) of one timing grid, computed in float: edges span
    all peaks plus _fields._GATE_SIGMAS of jitter, aligned to bin_ps, and mass[n, i] is step
    n's jitter CDF difference across bin i. Zero jitter takes the CDF's step
    limit, 0 at an edge, so a center on an edge lands in the bin starting there.
    Cached, as every run at the same settings has the same grid; equal numbers
    such as 50 and 50.0 share one entry, and at most 4 geometries' edges and mass
    stay alive. A loop_delay_ps that is not positive, or that puts the last step
    beyond the float range, raises naming it; too many bins, or infinitely many,
    raise naming bin_ps as given. Either raises on every call (none cached)."""
    if not (loop_delay_ps > 0 and math.isfinite((n_steps - 1) * loop_delay_ps)):
        raise ValueError(f"loop_delay_ps must be positive, with {n_steps - 1} * loop_delay_ps "
                         f"finite, got {loop_delay_ps}")
    given_bin_ps = bin_ps
    jitter_ps, bin_ps, loop_delay_ps = float(jitter_ps), float(bin_ps), float(loop_delay_ps)
    pad = _GATE_SIGMAS * jitter_ps + bin_ps
    lo = np.floor(-pad / bin_ps) * bin_ps
    hi = np.ceil(((n_steps - 1) * loop_delay_ps + pad) / bin_ps) * bin_ps
    n_bins = np.rint((hi - lo) / bin_ps)
    if not n_bins <= _MAX_BINS:
        raise ValueError(f"bin_ps {given_bin_ps} gives {n_bins:.0f} histogram bins per channel, "
                         f"more than {_MAX_BINS}")
    edges = lo + bin_ps * np.arange(int(n_bins) + 1)
    offsets = edges - np.arange(n_steps)[:, None] * loop_delay_ps
    cdf = _normal_cdf(offsets / jitter_ps) if jitter_ps > 0 else np.heaviside(offsets, 0.0)
    return edges, np.diff(cdf, axis=1)


def _bin_means(power: np.ndarray, cfg: CountingConfig, loop_delay_ps: float):
    """Histogram edges and the expected signal-plus-background count per bin,
    both read-only and computed once per setting (see _expected_counts)."""
    power = np.ascontiguousarray(power, dtype=float)
    return _expected_counts(power.tobytes(), power.shape, cfg.pair_rate_hz * cfg.duration_s,
                            cfg.background_rate_hz * cfg.duration_s, cfg.jitter_ps, cfg.bin_ps,
                            loop_delay_ps)


@frozen_cache(maxsize=1)
def _expected_counts(power_bytes: bytes, shape: tuple, expected_pairs: float, bg_total: float,
                     jitter_ps: float, bin_ps: float, loop_delay_ps: float):
    """Read-only (edges, means) with means of shape (dim, bins), from power's
    float64 bytes. Each step's jitter mass comes from the cached geometry and
    is shared by all channels; jitter tails beyond the edges are not counted,
    and background is uniform over the span. Cached, as a run's seed does not
    change its means: only the last setting's means stay alive, the array
    sample_run draws from. A bad setting raises on every call (none cached).
    """
    power = np.frombuffer(power_bytes).reshape(shape)
    total = float(power.sum())
    if total > 1.0 + _PROBABILITY_ATOL:
        raise ValueError(f"total detection probability {total} exceeds 1")
    if not (power >= 0).all():
        raise ValueError("power entries must be nonnegative numbers, not negative or NaN")
    n_steps, dim = shape
    edges, mass = _geometry(n_steps, jitter_ps, bin_ps, loop_delay_ps)
    bg_per_bin = bg_total * bin_ps / (edges[-1] - edges[0])
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
    Channel c draws from PCG64(SeedSequence(cfg.seed, spawn_key=(c,))).
    """
    edges, means = _bin_means(power, cfg, loop_delay_ps)
    out = []
    for channel, mean in enumerate(means):
        bits = np.random.PCG64(np.random.SeedSequence(cfg.seed, spawn_key=(channel,)))
        out.append(ArrivalHistogram(edges, np.random.Generator(bits).poisson(mean)))
    return out


def expected_histograms(power: np.ndarray, cfg: CountingConfig, loop_delay_ps: float) -> list:
    """Infinite-statistics limit of sample_run: expected counts per bin, writable."""
    edges, means = _bin_means(power, cfg, loop_delay_ps)
    return [ArrivalHistogram(edges, mean) for mean in means.copy()]


def default_windows(n_steps: int, cfg: CountingConfig, loop_delay_ps: float) -> list:
    """Symmetric per-step gates, _fields._GATE_SIGMAS of jitter or 2 bins wide; raises if they
    overlap."""
    # raises past _MAX_BINS; the run's sample_run or expected_histograms reuses the geometry
    _geometry(n_steps, cfg.jitter_ps, cfg.bin_ps, loop_delay_ps)
    half = max(_GATE_SIGMAS / 2 * cfg.jitter_ps, cfg.bin_ps)
    half = np.ceil(half / cfg.bin_ps) * cfg.bin_ps
    if 2 * half >= loop_delay_ps:
        raise ValueError(f"jitter too large for non-overlapping gates at this delay: jitter_ps "
                         f"{cfg.jitter_ps} needs {2 * half} ps gates, loop_delay_ps is {loop_delay_ps}")
    return [((n * loop_delay_ps) - half, (n * loop_delay_ps) + half) for n in range(n_steps)]


@frozen_cache(maxsize=4)
def _gates(edges_bytes: bytes, bounds_bytes: bytes, jitter_ps: float, bg_total: float):
    """Read-only (bg_in_gate, floor) and the ranges of windows over edges, both
    float64 bytes: ranges[n] is gate n's (start, stop) bin range, the bins with
    edges[i] >= lo and edges[i + 1] <= hi, empty when it holds none.
    bg_in_gate[n] is the gate's share of the run's bg_total background counts,
    and a channel at most floor[n] above it has no signal. Cached, as every run
    at the same settings has the same gates; at most 4 entries, with their key
    bytes, stay alive. Edges that do not strictly increase, and overlapping or
    narrow windows, raise on every call (none cached)."""
    edges = np.frombuffer(edges_bytes)
    bin_widths = edges[1:] - edges[:-1]
    if not (bin_widths > 0).all():
        raise ValueError("bin_edges_ps must strictly increase")
    bounds = np.frombuffer(bounds_bytes).reshape(-1, 2)
    lows, his = bounds.T
    by_low = bounds[lows.argsort()]
    if (by_low[:-1, 1] > by_low[1:, 0]).any():
        raise ValueError("windows must not overlap")
    width_needed = _GATE_SIGMAS * jitter_ps
    for lo, hi in bounds.tolist():
        if hi <= lo:
            raise ValueError("window must have positive width")
        # a default gate exactly _GATE_SIGMAS sigma wide can measure a few eps of its bounds less
        if hi - lo < width_needed - _GATE_WIDTH_EPS_FACTOR * _EPS * max(abs(lo), abs(hi)):
            raise ValueError(f"window narrower than {_GATE_SIGMAS:g} sigma of jitter")
    starts = edges.searchsorted(lows, side="left")
    stops = np.maximum(edges.searchsorted(his, side="right") - 1, starts)
    ranges = tuple(zip(starts.tolist(), stops.tolist()))
    # Each gate's width is its own pairwise sum; its rounding sets the background.
    gate_widths = np.array([bin_widths[start:stop].sum() for start, stop in ranges], dtype=float)
    span = edges[-1] - edges[0]
    bg_in_gate = (bg_total * gate_widths / span if span > 0 else np.zeros(len(bounds)))[:, None]
    # A channel within the rounding of its gate's background, eps per summed bin and eps
    # of the span per gate edge, has no signal.
    floor = _EPS * ((stops - starts)[:, None] * bg_in_gate + 2.0 * bg_total)
    return bg_in_gate, floor, ranges


def estimate_probabilities(histograms: list, windows: list, cfg: CountingConfig) -> ProbabilityEstimates:
    """Recover per-step channel distributions from gated histogram counts.

    Counts inside each step's gate are summed per channel, the expected
    uniform background inside the gate is subtracted (clipped at zero, and zero
    within its rounding), and each step is renormalized; a step with no signal,
    or whose S^2 underflows, reads 0. Standard errors add the Poisson variance of
    the subtracted background to the binomial term (delta method):
    sqrt(p (1 - p) / S + b ((1 - p)^2 + (D - 1) p^2) / S^2), with S the step's
    background-subtracted total, b the expected background per channel in
    the gate and D the channel count. With no background this is binomial.
    A step whose S is below _fields._MIN_SIGNAL_COUNTS is flagged low_statistics.
    Bin edges, read as float64, must strictly increase and window bounds must be
    numbers. The counts are copied once, bin-major, and each gate is one slice
    of that copy, so the work is in proportion to channels x gated bins; the
    gate geometry is computed once per (edges, windows, jitter_ps, background
    counts) and cached.
    """
    if not histograms:
        raise ValueError("need at least one histogram")
    given = histograms[0].bin_edges_ps
    edges = np.asarray(given, dtype=float)
    n_bins = edges.size - 1
    for h in histograms:
        if h.bin_edges_ps is not given and not np.array_equal(h.bin_edges_ps, given):
            raise ValueError("histograms must share bin edges")
        if h.counts.shape != (n_bins,):
            raise ValueError(f"each histogram needs one count per bin, {n_bins} here")
    bounds = np.asarray(windows, dtype=float).reshape(len(windows), 2)
    for n, (lo, hi) in enumerate(bounds.tolist()):
        if lo != lo or hi != hi:
            raise ValueError(f"window {n} bounds must be numbers, got {windows[n]}")
    bg_in_gate, floor, ranges = _gates(edges.tobytes(), bounds.tobytes(), cfg.jitter_ps,
                                       cfg.background_rate_hz * cfg.duration_s)
    dim = len(histograms)
    # C-ordered (bin, channel) counts: with two or more channels a gate's slice
    # adds its bins one after another, and one channel's adds them pairwise.
    counts = np.array([h.counts for h in histograms]).T.copy()
    # Floats, as the channels' total may pass int64's range.
    raw = np.empty((len(ranges), dim))
    for n, (start, stop) in enumerate(ranges):
        raw[n] = counts[start:stop].sum(axis=0)
    excess = raw - bg_in_gate
    signal = np.where(excess <= floor, 0.0, excess)  # NaN counts stay NaN
    total = signal.sum(axis=1, keepdims=True)
    low_statistics = tuple((total.ravel() < _MIN_SIGNAL_COUNTS).tolist())
    # Each total is squared by a scalar power (libm pow): an array ** 2
    # multiplies instead, which can round differently in the last bit.
    total_sq = np.array([t ** 2 for t in total.ravel().tolist()])[:, None]
    # No signal, or an S^2 that underflows to 0: an infinite total zeroes p_hat and stderr.
    empty = total_sq <= 0
    total[empty] = total_sq[empty] = np.inf
    p = signal / total
    stderr = np.sqrt((p * (1.0 - p)).clip(0.0, None) / total
                     + bg_in_gate * ((1.0 - p) ** 2 + (dim - 1) * p ** 2) / total_sq)
    return ProbabilityEstimates(p, stderr, low_statistics)
