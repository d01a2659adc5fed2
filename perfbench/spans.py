"""Spans around loopsim's public functions, aggregated per layer in memory.

The tracer replaces each listed function with a wrapper in every loopsim
module that holds it, not only in its home module: `calibrate` binds
`forward_arrays`, `step_power_matrices`, `noise_offsets`,
`clements_decompose`, `step_unitary` and `build_hamiltonian` by name at
import, so patching `loopsim.mesh` alone would miss every call made during
training. Nothing under `src/` is modified; `uninstall` puts the originals
back so untraced passes run the plain functions.

Spans nest (the program is single-threaded), so a span's self time is its
duration minus the durations of the spans opened directly inside it.
"""

import functools
import sys
import time
import tracemalloc
from collections import Counter, defaultdict

LAYERS = {
    "model": ("build_hamiltonian", "step_unitary", "evolve_exact"),
    "mesh": ("clements_decompose", "mesh_forward", "forward_arrays", "noise_offsets"),
    "loopchip": ("run_loop", "step_power_matrices", "conditional_probabilities"),
    "losses": ("optimal_splitters", "platform_comparison"),
    "calibrate": ("compare_methods", "train", "finite_diff_gradient", "kl_loss",
                  "theory_step_matrices"),
    "montecarlo": ("sample_run", "expected_histograms", "estimate_probabilities"),
    "cli": ("run",),
}

SPAN_NAMES = tuple(f"{mod}.{fn}" for mod, fns in LAYERS.items() for fn in fns)


class TraceError(RuntimeError):
    """The tracer could not cover a listed function."""


def _cells_evaluated(args, kwargs, result):
    los = args[1] if len(args) > 1 else kwargs["los"]
    return len(los)


def _photons_sampled(args, kwargs, result):
    return sum(int(h.counts.sum()) for h in result)


# Work units counted per call, for the per-unit costs below.
_WORK = {
    "mesh.forward_arrays": _cells_evaluated,
    "montecarlo.sample_run": _photons_sampled,
}
# Peak Python-visible allocation (numpy reports its buffers to tracemalloc),
# taken on the first call of each traced pass only: tracemalloc makes a call
# with many small allocations several times slower, which would distort the
# times of a workload that makes many short calls.
_ALLOC = ("montecarlo.sample_run",)


class Tracer:
    """Per-span call counts, total and self time, parent edges and work units."""

    def __init__(self):
        self.calls = Counter()
        self.total_s = defaultdict(float)
        self.self_s = defaultdict(float)
        self.edges = Counter()
        self.work = Counter()
        self.peak_alloc = defaultdict(int)
        self._stack = []
        self._alloc_armed = set()
        self._patches = None

    def _wrap(self, name, fn):
        stack = self._stack
        work = _WORK.get(name)
        armed = self._alloc_armed

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            alloc = name in armed
            if alloc:
                armed.discard(name)
            parent = stack[-1][0] if stack else None
            frame = [name, 0.0]
            stack.append(frame)
            if alloc:
                tracemalloc.start()
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = time.perf_counter() - start
                if alloc:
                    peak = tracemalloc.get_traced_memory()[1]
                    tracemalloc.stop()
                    self.peak_alloc[name] = max(self.peak_alloc[name], peak)
                stack.pop()
                if stack:
                    stack[-1][1] += duration
                self.calls[name] += 1
                self.total_s[name] += duration
                self.self_s[name] += duration - frame[1]
                self.edges[(parent, name)] += 1
            if work is not None:
                self.work[name] += work(args, kwargs, result)
            return result

        return traced

    def _plan_patches(self):
        modules = [m for n, m in sorted(sys.modules.items())
                   if m is not None and (n == "loopsim" or n.startswith("loopsim."))]
        patches = []
        for mod_name, fnames in LAYERS.items():
            home = sys.modules.get(f"loopsim.{mod_name}")
            if home is None:
                raise TraceError(f"loopsim.{mod_name} is not imported")
            for fname in fnames:
                original = getattr(home, fname, None)
                if not callable(original):
                    raise TraceError(f"loopsim.{mod_name} has no function {fname}")
                wrapped = self._wrap(f"{mod_name}.{fname}", original)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            patches.append((module, attr, original, wrapped))
        return patches

    def install(self):
        if self._patches is None:
            self._patches = self._plan_patches()
        self._alloc_armed.update(_ALLOC)
        for module, attr, _, wrapped in self._patches:
            setattr(module, attr, wrapped)

    def uninstall(self):
        for module, attr, original, _ in self._patches or ():
            setattr(module, attr, original)

    def patched_names(self):
        """'module.attr' of every binding the tracer replaces."""
        return sorted({f"{m.__name__}.{attr}" for m, attr, _, _ in self._patches or ()})

    def metrics(self, passes, time_scale):
        """Per-layer metrics, each a mean over `passes` traced passes.

        Times are multiplied by `time_scale`, the host-speed rescaling factor.
        """
        per = 1.0 / passes
        out = {}
        for name in SPAN_NAMES:
            out[f"{name}.calls"] = (self.calls[name] * per, "count")
            out[f"{name}.total_s"] = (self.total_s[name] * per * time_scale, "s")
            out[f"{name}.self_s"] = (self.self_s[name] * per * time_scale, "s")

        fdg = self.calls["calibrate.finite_diff_gradient"]
        # Loss evaluations inside train, less the one initial evaluation per
        # train call, per gradient (one gradient per iteration).
        in_train = (self.edges[("calibrate.finite_diff_gradient", "mesh.forward_arrays")]
                    + self.edges[("calibrate.train", "mesh.forward_arrays")]
                    - self.calls["calibrate.train"])
        out["calibrate.loss_evals_per_iter"] = (in_train / fdg if fdg else 0.0, "count")

        def per_unit_ns(name):
            units = self.work[name]
            return self.total_s[name] * time_scale / units * 1e9 if units else 0.0

        out["mesh.forward_arrays.ns_per_cell"] = (per_unit_ns("mesh.forward_arrays"), "ns")
        out["montecarlo.sample_run.ns_per_photon"] = (per_unit_ns("montecarlo.sample_run"), "ns")
        out["montecarlo.sample_run.peak_alloc_mb"] = (
            self.peak_alloc["montecarlo.sample_run"] / 1e6, "MB")
        return out
