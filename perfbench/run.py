"""loopsim benchmark: run one workload, check its outputs, print its metrics.

    python3 perfbench/run.py --workload train-table --seed 0 --seconds 30 --trace 0

Run from the root of a source checkout; loopsim is imported from `src/`.
With `--trace 0` the run reports the end-to-end metrics. With `--trace 1`
it alternates untraced and traced passes and reports the per-layer metrics
from the traced ones. Every metric is printed as a `metric` line; the last
line of stdout is one JSON object with `correct`, `attempted`, `failed` and
`metrics`. Times are rescaled to a fixed host speed (see hostspeed.py). See
perfbench/README.md for the workloads and metrics.
"""

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK_ROOT = ROOT / ".perfbench_work"
# The keys of workloads.WORKLOADS, which imports loopsim; listed here so that
# arguments are checked before anything is imported.
WORKLOADS = ("train-table", "count-long", "cli-sweep")
# Fresh processes whose set-up time is measured per run; setup_s is their median.
SETUP_REPEATS = 3
THREAD_VARIABLES = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


def _seed(text):
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError("seed must be >= 0")
    return value


def _seconds(text):
    value = float(text)
    if not value > 0:
        raise argparse.ArgumentTypeError("seconds must be positive")
    return value


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=_seed, default=0)
    parser.add_argument("--seconds", type=_seconds, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def set_up(args, workdir):
    """Import loopsim, generate the workload's inputs and run its warm-up op."""
    start = time.perf_counter()
    import loopsim.cli  # noqa: F401  (numpy, scipy and every loopsim module)

    import_s = time.perf_counter() - start
    if SRC not in Path(loopsim.cli.__file__).resolve().parents:
        raise RuntimeError(f"loopsim was imported from {loopsim.cli.__file__}, not {SRC}")
    import workloads

    workdir.mkdir(parents=True)
    workload = workloads.WORKLOADS[args.workload](args.seed, workdir)
    warm = workload.warm_up()
    warm.check(warm.run())
    workload.figures.clear()
    return workload, import_s


def probe(args, workdir):
    """Child process: set up, report, exit. The parent times it."""
    set_up(args, workdir)
    print("PROBE", flush=True)
    return 0


def time_setup(args):
    """Seconds from starting a fresh process to the end of its set-up."""
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--probe"]
    ready = None
    start = time.perf_counter()
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as proc:
        for line in proc.stdout:
            if ready is None and line.strip() == "PROBE":
                ready = time.perf_counter() - start
        code = proc.wait(timeout=120)
    if code != 0 or ready is None:
        raise RuntimeError(f"set-up process exited with code {code}")
    return ready


class Counts:
    def __init__(self):
        self.attempted = 0
        self.failed = 0


def run_pass(ops, counts, failure_type):
    """Run one pass; returns each op's latency. Checks run outside the timer."""
    latencies = []
    for op in ops:
        counts.attempted += 1
        start = time.perf_counter()
        try:
            result = op.run()
        except Exception:  # noqa: BLE001  -- a failing op is counted, the run goes on
            latencies.append(time.perf_counter() - start)
            counts.failed += 1
            print(f"op {op.label} raised:\n{traceback.format_exc()}", file=sys.stderr)
            continue
        latencies.append(time.perf_counter() - start)
        try:
            op.check(result)
        except failure_type as exc:
            counts.failed += 1
            print(f"op {op.label} failed its check: {exc}", file=sys.stderr)
    return latencies


def tail(values):
    """90th percentile, interpolated between order statistics.

    A fixed percentile, not the highest one with ten values beyond it: that
    one would change with the number of ops that fit in a run, which is the
    speed being measured, and does not exist on the ~10-op runs of
    train-table and count-long.
    """
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=10, method="inclusive")[-1]


def environment():
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {k: blas.get(k) for k in ("name", "version", "openblas configuration")}
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "blas": blas,
        "thread_variables": {k: os.environ[k] for k in THREAD_VARIABLES if k in os.environ},
    }


def measure(args, workdir):
    workload, import_s = set_up(args, workdir)
    import hostspeed
    import spans
    import workloads

    print("# env " + json.dumps(environment()), flush=True)
    setup_raw, setup_runs = [], []
    if not args.trace:
        # Set-up mixes imports, data loading and a warm-up op: every part.
        setup_speed = hostspeed.HostSpeed(tuple(hostspeed.PARTS))
        for _ in range(SETUP_REPEATS):
            setup_raw.append(time_setup(args))
            setup_runs.append(setup_raw[-1] * setup_speed.factor())

    speed = hostspeed.HostSpeed(workload.reference_parts)

    tracer = spans.Tracer() if args.trace else None
    counts = Counts()
    # Per pass: rescaled op latencies, whether traced, rescaling factor.
    passes = []
    pass_elapsed = []
    min_passes = 2 if tracer else 1
    deadline = time.perf_counter() + args.seconds
    while True:
        traced = tracer is not None and len(passes) % 2 == 1
        started = time.perf_counter()
        if traced:
            tracer.install()
        try:
            op_latencies = run_pass(workload.pass_ops(len(passes)), counts,
                                    workloads.CheckFailed)
        finally:
            if traced:
                tracer.uninstall()
        factor = speed.factor()
        passes.append(([x * factor for x in op_latencies], traced, factor))
        now = time.perf_counter()
        pass_elapsed.append(now - started)
        if len(passes) >= min_passes and now + statistics.median(pass_elapsed) > deadline:
            break

    latencies = [x for ops, _, _ in passes for x in ops]
    untraced_walls = [sum(ops) for ops, traced, _ in passes if not traced]
    traced_walls = [sum(ops) for ops, traced, _ in passes if traced]
    figures = workload.figures
    problems = []
    print(f"# {len(passes)} passes ({len(traced_walls)} traced), {len(latencies)} ops; "
          f"reference kernel {'+'.join(workload.reference_parts)}: median "
          f"{statistics.median(speed.samples):.4f} s over {len(speed.samples)} timings, "
          f"nominal {speed.nominal_s} s")
    if tracer is None:
        metrics = {
            "setup_s": (statistics.median(setup_runs), "s"),
            "wall_s": (statistics.median(untraced_walls), "s"),
            "op_p50_ms": (statistics.median(latencies) * 1e3, "ms"),
            "op_tail_ms": (tail(latencies) * 1e3, "ms"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6,
                            "MB"),
        }
        extra = {"failed_frac": (counts.failed / counts.attempted, "fraction")}
        if "trained_error_ratio" in figures:
            extra["trained_error_ratio"] = (statistics.median(figures["trained_error_ratio"]),
                                            "ratio")
        print(f"# before rescaling: setup runs {setup_raw} s, pass walls "
              f"{[sum(ops) / f for ops, _, f in passes]} s; pass factors "
              f"{[f for _, _, f in passes]}")
    else:
        traced_factor = statistics.median(f for _, traced, f in passes if traced)
        metrics = tracer.metrics(len(traced_walls), traced_factor)
        metrics["montecarlo.stderr_undercovered_cells"] = (
            sum(figures.get("undercovered", [])) / len(passes), "count")
        metrics["calibrate.trained_error_ratio"] = (
            statistics.median(figures["trained_error_ratio"])
            if "trained_error_ratio" in figures else 0.0, "ratio")
        # The first reference timing directly follows set-up.
        metrics["setup.import_s"] = (import_s * speed.nominal_s / speed.samples[0], "s")
        metrics["trace.overhead_frac"] = (
            statistics.median(traced_walls) / statistics.median(untraced_walls) - 1.0, "fraction")
        problems = workload.trace_problems(tracer, len(traced_walls), metrics)
        for problem in problems:
            print(f"trace self-check failed: {problem}", file=sys.stderr)
        extra = {}
        print(f"# patched {', '.join(tracer.patched_names())}")

    for key, values in sorted(figures.items()):
        print(f"# figure {key}: n={len(values)} sum={sum(values)!r} "
              f"min={min(values)!r} max={max(values)!r}")
    for name, (value, unit) in {**metrics, **extra}.items():
        print(f"metric {name} = {value!r} {unit}")
    correct = counts.failed == 0 and not problems
    print(json.dumps({
        "correct": correct,
        "attempted": counts.attempted,
        "failed": counts.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }), flush=True)
    return 0 if correct else 1


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "loopsim" / "__init__.py").is_file():
        print(f"error: no loopsim sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    workdir = WORK_ROOT / f"{args.workload}-{os.getpid()}"
    try:
        return probe(args, workdir) if args.probe else measure(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            WORK_ROOT.rmdir()
        except OSError:
            pass


if __name__ == "__main__":
    sys.exit(main())
