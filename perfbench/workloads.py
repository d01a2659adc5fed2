"""The benchmark's three workloads: inputs from a seed, ops, output checks.

An op is one call into a loopsim entry point. A pass is the workload's
fixed list of ops; the runner repeats passes for the measured time. Every
op's output is checked after the op's timer stops. Checks use bounds that
hold across seeds and across the planned sampler and gradient changes; none
compares bytes against recorded output.

Call loopsim through module attributes (`montecarlo.sample_run`, never a
name imported from it), so the tracer's wrappers see every call.
"""

import contextlib
import csv
import io
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from loopsim import calibrate, cli, loopchip, model, montecarlo

N_STEPS = 3


class CheckFailed(Exception):
    """An op's output failed its correctness check."""


@dataclass
class Op:
    label: str
    run: Callable[[], object]
    check: Callable[[object], None]


def check_pump_period(chip, counting, n_steps):
    """Reject a setting whose last step overlaps the next pump pulse.

    The config layer does not enforce this yet; the benchmark keeps every
    setting inside it so that adding the check cannot turn ops into failures.
    """
    need = (n_steps - 1) * chip.loop_delay_ps + 6.0 * counting.jitter_ps
    period = 1e6 / chip.rep_rate_mhz
    if need >= period:
        raise ValueError(f"steps span {need} ps, not below the pump period {period} ps")


def _cli(argv):
    """One in-process CLI call with its stdout discarded; returns the exit code."""
    with contextlib.redirect_stdout(io.StringIO()):
        return cli.run(argv)


def _expect_exit_zero(code):
    if code != 0:
        raise CheckFailed(f"exit code {code}")


def _take_csv(path):
    """Rows of a CSV output, deleting the file so a later op cannot reuse it."""
    with path.open(newline="") as fh:
        rows = list(csv.DictReader(fh))
    path.unlink()
    return rows


def _prob_matrix(rows, key="prob"):
    steps = max(int(r["step"]) for r in rows)
    dim = max(int(r["channel"]) for r in rows) + 1
    out = np.full((steps, dim), np.nan)
    for r in rows:
        out[int(r["step"]) - 1, int(r["channel"])] = float(r[key])
    return out


def _increasing(values):
    return all(np.isfinite(values)) and all(b > a for a, b in zip(values, values[1:]))


def undercovered(p_hat, stderr, truth, k=5.0):
    """Cells whose estimate is more than k reported standard errors off."""
    return int(np.sum(np.abs(p_hat - truth) > k * stderr))


class Workload:
    name = ""
    # Traced spans the workload must record; the traced run fails otherwise.
    expected_spans = ()
    # hostspeed.PARTS doing the same kind of work as the workload's hot path.
    reference_parts = ()

    def __init__(self, seed, workdir: Path):
        self.seed = seed
        # Quality figures gathered by the checks, one entry per checked op.
        self.figures = {}

    def _record(self, key, value):
        self.figures.setdefault(key, []).append(value)

    def warm_up(self) -> Op:
        raise NotImplementedError

    def pass_ops(self, index) -> list:
        raise NotImplementedError

    def trace_problems(self, tracer, passes, metrics):
        """Ways the traced passes failed to cover this workload's layers."""
        return [f"{name} recorded no calls" for name in self.expected_spans
                if tracer.calls[name] == 0]


class TrainTable(Workload):
    """`loopsim compare` over the bundled 20-row table at criterion 7's settings."""

    name = "train-table"
    # No row reaches tol in this many iterations, so a pass runs exactly
    # 20 * ITERATION_CAP gradients.
    ITERATION_CAP = 10
    ROWS = 20
    # Central differences over 2 x 15 cell phases, plus the step's own loss.
    LOSS_EVALS_PER_ITER = 61
    expected_spans = (
        "cli.run", "calibrate.compare_methods", "calibrate.train",
        "calibrate.finite_diff_gradient", "calibrate.kl_loss",
        "calibrate.theory_step_matrices", "mesh.clements_decompose", "mesh.mesh_forward",
        "mesh.forward_arrays", "mesh.noise_offsets", "loopchip.step_power_matrices",
        "model.build_hamiltonian", "model.step_unitary",
    )
    reference_parts = ("small_numpy",)

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        # The workload seed is the noise seed; seed 0 is criterion 7's noise.
        noise = {"sigma_theta": 0.05, "sigma_phi": 0.05, "sigma_split": 0.005, "seed": seed}
        self.out = workdir / "compare"
        self.configs = {}
        for label, cap in (("warm-up", 1), ("compare", self.ITERATION_CAP)):
            doc = {"noise": noise, "n_steps": N_STEPS,
                   "training": {"learning_rate": 0.02, "max_iters": cap, "tol": 1e-6}}
            path = workdir / f"{label}.json"
            path.write_text(json.dumps(doc))
            self.configs[label] = path

    def _op(self, label, check):
        argv = ["--config", str(self.configs[label]), "--out", str(self.out),
                "compare", "--seeds", "1"]
        return Op(label, lambda: _cli(argv), check)

    def _take_summary(self):
        path = self.out / "summary.json"
        summary = json.loads(path.read_text())
        path.unlink()
        (self.out / "errors.csv").unlink()
        return summary

    def _check_warm_up(self, code):
        _expect_exit_zero(code)
        self._take_summary()

    def _check(self, code):
        _expect_exit_zero(code)
        s = self._take_summary()
        if s["pairs"] != self.ROWS * N_STEPS:
            raise CheckFailed(f"{s['pairs']} pairs, expected {self.ROWS * N_STEPS}")
        ratio = s["median_error_trained"] / s["median_error_decomposition"]
        self._record("trained_error_ratio", ratio)
        self._record("win_rate", s["win_rate"])
        # Criterion 7's bounds.
        if s["win_rate"] is None or s["win_rate"] < 0.90:
            raise CheckFailed(f"win rate {s['win_rate']} below 0.90")
        if ratio > 0.5:
            raise CheckFailed(f"trained/decomposition median error {ratio:.4f} above 0.5")

    def warm_up(self):
        return self._op("warm-up", self._check_warm_up)

    def trace_problems(self, tracer, passes, metrics):
        problems = super().trace_problems(tracer, passes, metrics)
        gradients = tracer.calls["calibrate.finite_diff_gradient"] / passes
        if gradients != self.ROWS * self.ITERATION_CAP:
            problems.append(f"{gradients} gradients per pass, expected "
                            f"{self.ROWS * self.ITERATION_CAP}")
        evals = metrics["calibrate.loss_evals_per_iter"][0]
        if evals != self.LOSS_EVALS_PER_ITER:
            problems.append(f"{evals} loss evaluations per iteration, expected "
                            f"{self.LOSS_EVALS_PER_ITER}")
        return problems

    def pass_ops(self, index):
        return [self._op("compare", self._check)]


class CountLong(Workload):
    """One long photon-counting acquisition per op on the default lossy chip."""

    name = "count-long"
    COUNTING = dict(pair_rate_hz=1e5, duration_s=1e4, jitter_ps=50.0, bin_ps=20.0,
                    background_rate_hz=10.0)
    WARM_UP_DURATION_S = 10.0
    expected_spans = (
        "model.build_hamiltonian", "model.step_unitary", "loopchip.run_loop",
        "loopchip.conditional_probabilities", "montecarlo.sample_run",
        "montecarlo.expected_histograms", "montecarlo.estimate_probabilities",
    )
    reference_parts = ("random_draws",)

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        self.params = model.SpinBosonParams(1.0, 1.0, 1.0)
        self.chip = loopchip.ChipConfig()
        check_pump_period(self.chip, montecarlo.CountingConfig(**self.COUNTING), N_STEPS)

    def _counting(self, key, duration_s):
        child = np.random.SeedSequence(self.seed, spawn_key=key)
        return montecarlo.CountingConfig(**{**self.COUNTING, "duration_s": duration_s},
                                         seed=int(child.generate_state(1)[0]))

    def _acquire(self, cfg):
        u = model.step_unitary(model.build_hamiltonian(self.params), self.params.dt)
        record = loopchip.run_loop(self.chip, u, 0, N_STEPS)
        truth = loopchip.conditional_probabilities(record)
        delay = self.chip.loop_delay_ps
        hists = montecarlo.sample_run(record, cfg, delay)
        windows = montecarlo.default_windows(N_STEPS, cfg, delay)
        est = montecarlo.estimate_probabilities(hists, windows, cfg)
        reference = montecarlo.estimate_probabilities(
            montecarlo.expected_histograms(record, cfg, delay), windows, cfg)
        return cfg, truth, hists, windows, est, reference

    def _check(self, result):
        cfg, truth, hists, windows, est, reference = result
        gap = float(np.max(np.abs(reference.p_hat - truth)))
        self._record("expected_gap", gap)
        if gap > 1e-4:
            raise CheckFailed(f"expected-histogram estimate {gap:.3e} from the chip distribution")
        # The reported stderr is binomial only; this sigma adds the Poisson
        # variance of the background subtracted in each gate (delta method).
        edges = hists[0].bin_edges_ps
        span = edges[-1] - edges[0]
        dim = truth.shape[1]
        worst = 0.0
        for n, (lo, hi) in enumerate(windows):
            sel = (edges[:-1] >= lo) & (edges[1:] <= hi)
            bg = cfg.background_rate_hz * cfg.duration_s * float(np.sum(np.diff(edges)[sel])) / span
            raw = np.array([float(h.counts[sel].sum()) for h in hists])
            signal = np.maximum(raw - bg, 0.0).sum()
            if signal <= 0:
                raise CheckFailed(f"step {n + 1} has no signal above background")
            p = truth[n]
            var = p * (1 - p) / signal + bg * ((1 - p) ** 2 + (dim - 1) * p ** 2) / signal ** 2
            worst = max(worst, float(np.max(np.abs(est.p_hat[n] - p) / np.sqrt(var))))
        self._record("worst_sigma", worst)
        self._record("undercovered", undercovered(est.p_hat, est.stderr, truth))
        if worst > 5.0:
            raise CheckFailed(f"estimate {worst:.2f} sigma from the chip distribution")

    def warm_up(self):
        cfg = self._counting((1,), self.WARM_UP_DURATION_S)
        return Op("warm-up", lambda: self._acquire(cfg), lambda result: None)

    def pass_ops(self, index):
        cfg = self._counting((0, index), self.COUNTING["duration_s"])
        return [Op("acquire", lambda: self._acquire(cfg), self._check)]


class CliSweep(Workload):
    """One-shot CLI calls over n_boson 1..8 x the bundled 20-row table."""

    name = "cli-sweep"
    N_BOSON = range(1, 9)
    expected_spans = (
        "cli.run", "model.build_hamiltonian", "model.step_unitary", "model.evolve_exact",
        "mesh.clements_decompose", "mesh.mesh_forward", "mesh.forward_arrays",
        "mesh.noise_offsets", "loopchip.run_loop", "loopchip.conditional_probabilities",
        "losses.optimal_splitters", "losses.platform_comparison", "montecarlo.sample_run",
        "montecarlo.estimate_probabilities",
    )
    # Config parsing and CSV writing in the interpreter, small-matrix numpy.
    reference_parts = ("interpreter", "small_numpy")

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        rows = calibrate.load_param_table().rows
        points = [(n, row) for n in self.N_BOSON for row in rows]
        rng = np.random.default_rng(seed)
        counting_seeds = rng.integers(0, 2**31, size=len(points))
        order = rng.permutation(len(points))
        self.out = {cmd: workdir / cmd for cmd in ("simulate", "decompose", "counts",
                                                    "losses", "scaling")}
        self.ops = []
        seen = set()
        for i in order:
            n, (eps, omega, lam) = points[i]
            doc = {"model": {"epsilon": eps, "omega_hbar": omega, "lambda": lam, "n_boson": n},
                   "chip": {"dim": 2 * n}, "counting": {"seed": int(counting_seeds[i])},
                   "n_steps": N_STEPS}
            cfg = cli.config_from_dict(doc)
            check_pump_period(cfg.chip, cfg.counting, cfg.n_steps)
            path = workdir / f"point-{i}.json"
            path.write_text(json.dumps(doc))
            self.ops += [self._op(path, "simulate", [], self._check_simulate),
                         self._op(path, "decompose", [], self._check_decompose),
                         self._op(path, "counts", [], self._check_counts)]
            if n not in seen:
                seen.add(n)
                modes = [str(m) for m in range(2, 2 * n + 1, 2)]
                self.ops += [self._op(path, "losses", [], self._check_losses),
                             self._op(path, "scaling", ["--modes", *modes],
                                      lambda code, k=len(modes): self._check_scaling(code, k))]

    def _op(self, config, command, extra, check):
        argv = ["--config", str(config), "--out", str(self.out[command]), command, *extra]
        return Op(command, lambda: _cli(argv), check)

    def _check_simulate(self, code):
        _expect_exit_zero(code)
        out = self.out["simulate"]
        theory = _prob_matrix(_take_csv(out / "theory.csv"))
        chip = _prob_matrix(_take_csv(out / "chip.csv"))
        mc = _take_csv(out / "mc.csv")
        diff = float(np.max(np.abs(theory - chip)))
        if not diff <= 1e-9:
            raise CheckFailed(f"theory.csv vs chip.csv differ by {diff:.3e}")
        self._record("undercovered", undercovered(
            _prob_matrix(mc, "p_hat"), _prob_matrix(mc, "stderr"), chip))

    def _check_decompose(self, code):
        _expect_exit_zero(code)
        out = self.out["decompose"]
        report = json.loads((out / "decompose_report.json").read_text())
        (out / "decompose_report.json").unlink()
        (out / "plan.json").unlink()
        if not report["max_roundtrip_error"] <= 1e-8:
            raise CheckFailed(f"round-trip error {report['max_roundtrip_error']:.3e}")

    def _check_counts(self, code):
        _expect_exit_zero(code)
        out = self.out["counts"]
        (out / "histograms.csv").unlink()
        p_hat = _prob_matrix(_take_csv(out / "estimates.csv"), "p_hat")
        # An all-zero step means no signal survived background subtraction.
        all_zero = np.all(p_hat == 0.0, axis=1)
        for n, row in enumerate(p_hat, start=1):
            total = float(row.sum())
            if not (abs(total - 1.0) <= 1e-12 or all_zero[n - 1]):
                raise CheckFailed(f"step {n} p_hat sums to {total!r}")
        self._record("all_zero_steps", int(all_zero.sum()))

    def _check_losses(self, code):
        _expect_exit_zero(code)
        rows = _take_csv(self.out["losses"] / "losses.csv")
        by_platform = {}
        for r in rows:
            by_platform.setdefault(r["platform"], []).append(float(r["loss_db"]))
        for name, values in by_platform.items():
            if len(values) != 3 or not _increasing(values):
                raise CheckFailed(f"losses for {name} are not 3 increasing values: {values}")

    def _check_scaling(self, code, n_modes):
        _expect_exit_zero(code)
        values = [float(r["loss_db"]) for r in _take_csv(self.out["scaling"] / "scaling.csv")]
        if len(values) != n_modes or not _increasing(values):
            raise CheckFailed(f"scaling losses are not {n_modes} increasing values: {values}")

    def warm_up(self):
        # The first point's simulate/decompose/counts (and losses/scaling)
        # ops, so every CLI path is imported and exercised once.
        ops = self.ops[:5]

        def run():
            for op in ops:
                op.check(op.run())

        return Op("warm-up", run, lambda result: None)

    def pass_ops(self, index):
        return self.ops


WORKLOADS = {w.name: w for w in (TrainTable, CountLong, CliSweep)}
