"""Command-line interface.

Subcommands: simulate, decompose, losses, scaling, train, compare, counts.
A JSON config file overrides the built-in defaults (keys it leaves out keep
them) and flags override the file. Each cmd_* computes its outputs and
returns them as {file name: text}; run() checks the input and output paths
first, and every returned file's path before it writes any under the output
directory, so a failed run writes nothing. Exit codes: 0 success, 2 invalid
user input, 1 any other failure.
"""

import argparse
import csv
import functools
import io
import json
import sys
from dataclasses import asdict, dataclass, field, fields, replace
from pathlib import Path

import numpy as np

from . import calibrate, loopchip, losses, mesh, model, montecarlo
from ._fields import _GATE_SIGMAS, _MIN_SIGNAL_COUNTS, _ROUNDTRIP_ATOL, check_fields
from .model import SpinBosonParams


@dataclass
class RunConfig:
    """Everything one invocation needs, assembled from file plus flags."""

    model: SpinBosonParams = field(default_factory=lambda: SpinBosonParams(1.0, 1.0, 1.0))
    chip: loopchip.ChipConfig = field(default_factory=loopchip.ChipConfig)
    noise: mesh.MeshNoise = field(default_factory=mesh.MeshNoise)
    training: calibrate.TrainingConfig = field(default_factory=calibrate.TrainingConfig)
    counting: montecarlo.CountingConfig = field(default_factory=montecarlo.CountingConfig)
    platform: str = "SiN on-chip"
    n_steps: int = 3
    initial_channel: int = 0
    output_dir: str = "out"

    def __post_init__(self):
        check_fields(self, positive=("n_steps",))
        if not 0 <= self.initial_channel < self.model.dim:
            raise ValueError("initial_channel out of range for the model dimension")
        if self.model.dim != self.chip.dim:
            raise ValueError("model dimension and chip dimension disagree")


# Config sections, each with its JSON-name -> attribute-name renames.
_SECTIONS = {"model": {"lambda": "lam"}, "chip": {}, "noise": {}, "training": {}, "counting": {}}
_TOP_LEVEL = ("platform", "n_steps", "initial_channel", "output_dir")
_DEFAULTS = {f.name: f.default_factory() for f in fields(RunConfig) if f.name in _SECTIONS}
# (argparse dest, section or None, key): where each flag lands in the config document.
_FLAGS = (("seed", "noise", "seed"), ("seed", "counting", "seed"), ("out", None, "output_dir"),
          ("epsilon", "model", "epsilon"), ("omega_hbar", "model", "omega_hbar"),
          ("lam", "model", "lambda"), ("n_steps", None, "n_steps"),
          ("initial_channel", None, "initial_channel"))


def _json_object(value, what: str) -> dict:
    if not isinstance(value, dict):
        raise ValueError(f"{what} must be a JSON object")
    return value


def config_from_dict(doc: dict) -> RunConfig:
    """RunConfig from a config document; keys left out keep their defaults."""
    unknown = set(_json_object(doc, "config")) - set(_SECTIONS) - set(_TOP_LEVEL)
    if unknown:
        raise ValueError(f"unknown config keys: {sorted(unknown)}")
    kwargs = {key: doc[key] for key in _TOP_LEVEL if key in doc}
    for section, renames in _SECTIONS.items():
        if section in doc:
            default = _DEFAULTS[section]
            payload = {renames.get(k, k): v
                       for k, v in _json_object(doc[section], f"config section {section!r}").items()}
            unknown = set(payload) - {f.name for f in fields(default)}
            if unknown:
                raise ValueError(f"unknown keys in config section {section!r}: {sorted(unknown)}")
            try:
                kwargs[section] = replace(default, **payload)
            except ValueError as exc:
                raise ValueError(f"config section {section!r}: {exc}") from None
    return RunConfig(**kwargs)


def config_to_dict(cfg: RunConfig) -> dict:
    doc = {}
    for section, renames in _SECTIONS.items():
        payload = asdict(getattr(cfg, section))
        for wire, attr in renames.items():
            payload[wire] = payload.pop(attr)
        doc[section] = payload
    for key in _TOP_LEVEL:
        doc[key] = getattr(cfg, key)
    return doc


def _load_config(args) -> RunConfig:
    """The config file's document with the given flags laid into it."""
    doc = {}
    if args.config is not None:
        doc = _json_object(json.loads(Path(args.config).read_text()), "config file")
    for dest, section, key in _FLAGS:
        value = getattr(args, dest, None)
        if value is None:
            continue
        target = doc
        if section is not None:
            target = _json_object(doc.setdefault(section, {}), f"config section {section!r}")
        target[key] = str(value) if isinstance(value, Path) else value
    return config_from_dict(doc)


def _csv(header, rows) -> str:
    """CSV text of a header and rows of Python ints, floats and strings.

    csv writes a float v as repr(v), the shortest string that reads back
    bit for bit; numpy arrays enter through tolist() to keep it that way.
    """
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


def _step_rows(*arrays):
    """(step, channel, values...) rows of (n_steps, dim) arrays, step 1 first."""
    n_steps, dim = arrays[0].shape
    steps = [n for n in range(1, n_steps + 1) for _ in range(dim)]
    return zip(steps, list(range(dim)) * n_steps, *(a.ravel().tolist() for a in arrays))


def _unitary(cfg: RunConfig) -> np.ndarray:
    """The model's one-step propagator."""
    return model.step_unitary(model.build_hamiltonian(cfg.model), cfg.model.dt)


def _count(cfg: RunConfig, u: np.ndarray, command: str):
    """Check the pump period and gates, then count u: (loop powers, histograms, gates,
    estimates CSV). Prints the low-statistics steps, if any, under command's name."""
    span = (cfg.n_steps - 1) * cfg.chip.loop_delay_ps + _GATE_SIGMAS * cfg.counting.jitter_ps
    period = 1e6 / cfg.chip.rep_rate_mhz
    if span >= period:
        raise ValueError(f"last step plus {_GATE_SIGMAS:g} sigma of jitter ends at {span} ps, "
                         f"not before the next pump pulse at {period} ps; lower n_steps, "
                         f"chip.loop_delay_ps, counting.jitter_ps or chip.rep_rate_mhz")
    try:
        windows = montecarlo.default_windows(cfg.n_steps, cfg.counting, cfg.chip.loop_delay_ps)
    except ValueError as exc:
        raise ValueError(f"config section 'counting': {exc}") from None
    power = loopchip.run_loop(cfg.chip, u, cfg.initial_channel, cfg.n_steps)
    hists = montecarlo.sample_run(power, cfg.counting, cfg.chip.loop_delay_ps)
    est = montecarlo.estimate_probabilities(hists, windows, cfg.counting)
    low = [str(n) for n, flag in enumerate(est.low_statistics, 1) if flag]
    if low:
        print(f"{command}: low statistics at step(s) {', '.join(low)} "
              f"(fewer than {_MIN_SIGNAL_COUNTS} counts above background)")
    return power, hists, windows, _csv(["step", "channel", "p_hat", "stderr"],
                                       _step_rows(est.p_hat, est.stderr))


def _platforms(names) -> list:
    """Bundled platforms by name, in the given order; all of them when names is empty."""
    table = {p.name: p for p in losses.load_platforms()}
    missing = [n for n in names or () if n not in table]
    if missing:
        raise ValueError(f"unknown platform(s): {missing}; have {sorted(table)}")
    return [table[n] for n in names] if names else list(table.values())


def cmd_simulate(cfg: RunConfig, args) -> dict:
    u = _unitary(cfg)
    power, _, _, estimates = _count(cfg, u, "simulate")
    theory = model.evolve_exact(u, cfg.initial_channel, cfg.n_steps)
    try:
        chip = loopchip.conditional_probabilities(power)
    except loopchip.DegenerateStepError as exc:
        c = cfg.chip
        raise ValueError(f"config section 'chip': {exc} at alpha_db_per_cm {c.alpha_db_per_cm}, "
                         f"chip_length_cm {c.chip_length_cm}, loop_length_cm {c.loop_length_cm} "
                         f"and others_loss_db {c.others_loss_db}") from None
    return {"theory.csv": _csv(["step", "channel", "prob"], _step_rows(theory)),
            "chip.csv": _csv(["step", "channel", "prob"], _step_rows(chip)),
            "mc.csv": estimates}


def _read_unitary(path: Path) -> np.ndarray:
    doc = json.loads(path.read_text())
    if not isinstance(doc, dict) or "re" not in doc or "im" not in doc:
        raise ValueError("unitary file must be a JSON object with 're' and 'im' matrices")
    re, im = np.asarray(doc["re"], dtype=float), np.asarray(doc["im"], dtype=float)
    if re.ndim != 2 or re.shape != im.shape:
        raise ValueError(f"unitary file's 're' and 'im' must be matrices of one shape, "
                         f"got {re.shape} and {im.shape}")
    return re + 1j * im


def cmd_decompose(cfg: RunConfig, args) -> dict:
    u = _unitary(cfg) if args.unitary is None else _read_unitary(args.unitary)
    plan = mesh.clements_decompose(u)
    err = float(np.max(np.abs(mesh.mesh_forward(plan) - u)))
    report = {"dim": plan.dim, "cells": len(plan.los), "max_roundtrip_error": err}
    print(f"decompose: {plan.dim} modes, {len(plan.los)} cells, "
          f"round-trip error {err:.3e}")
    if not err <= _ROUNDTRIP_ATOL:
        raise RuntimeError(f"plan does not reproduce the unitary: error {err:.3e}")
    return {"plan.json": mesh.plan_to_json(plan),
            "decompose_report.json": json.dumps(report, indent=2)}


def cmd_losses(cfg: RunConfig, args) -> dict:
    chosen = _platforms(args.platforms)
    ratios = losses.optimal_splitters(args.max_loops) if args.max_loops >= 2 else (0.5, 0.5)
    budgets = losses.platform_comparison(chosen, cfg.chip, ratios, args.max_loops)
    for n in range(2, args.max_loops + 1):
        r_loop, r_end = losses.optimal_splitters(n)
        print(f"optimal splitters for n={n}: r_loop={r_loop:.6f}, r_end={r_end:.6f}")
    return {"losses.csv": _csv(["platform", "n", "loss_db"],
                               ((p.name, n, db) for p, row in zip(chosen, budgets.tolist())
                                for n, db in enumerate(row, 1)))}


def cmd_scaling(cfg: RunConfig, args) -> dict:
    platform, = _platforms([cfg.platform])
    return {"scaling.csv": _csv(["modes", "loss_db"],
                                ((m, losses.mode_scaling_loss(m, platform, args.cell_length))
                                 for m in args.modes))}


def cmd_train(cfg: RunConfig, args) -> dict:
    u = _unitary(cfg)
    target = calibrate.theory_step_matrices(u, cfg.n_steps)
    result = calibrate.train(mesh.clements_decompose(u), cfg.noise, target, cfg.training)
    status = "converged" if result.converged else "max_iters reached"
    print(f"train: initial loss {result.trace[0]:.6e}, final loss {result.trace[-1]:.6e}, "
          f"{len(result.trace) - 1} iterations ({status})")
    return {"trained_plan.json": mesh.plan_to_json(result.plan),
            "trace.csv": _csv(["iter", "loss"], enumerate(result.trace.tolist()))}


def cmd_compare(cfg: RunConfig, args) -> dict:
    table = calibrate.load_param_table(args.table)
    comparison = calibrate.compare_methods(table, cfg.noise, cfg.training,
                                           n_steps=cfg.n_steps, seeds=args.seeds,
                                           model=cfg.model)
    methods = {"decomposition": comparison.decomposition, "trained": comparison.trained}
    errors = _csv(["params_id", "method", "step", "error"],
                  ((row_id, method, step, err)
                   for method, per_row in methods.items()
                   for row_id, per_step in zip(comparison.params_id, per_row.tolist())
                   for step, err in enumerate(per_step, 1)))
    wins, ties, lost = calibrate.win_stats(comparison)
    total = wins + ties + lost
    summary = {
        "pairs": total,
        "wins": wins,
        "ties": ties,
        "losses": lost,
        "median_error_decomposition": float(np.median(comparison.decomposition)),
        "median_error_trained": float(np.median(comparison.trained)),
        "non_converged_rows": list(comparison.non_converged),
    }
    if total == ties:
        summary["win_rate"] = None
        print("compare: win rate undefined (all pairs tie)")
    else:
        summary["win_rate"] = (wins + ties) / total
        print(f"compare: trained wins or ties {wins + ties}/{total} "
              f"({100.0 * (wins + ties) / total:.1f}%)")
    if comparison.non_converged:
        print(f"compare: rows not converged: {sorted(set(comparison.non_converged))}")
    return {"errors.csv": errors, "summary.json": json.dumps(summary, indent=2)}


def cmd_counts(cfg: RunConfig, args) -> dict:
    _, hists, windows, estimates = _count(cfg, _unitary(cfg), "counts")
    histograms = _csv(["channel", "bin_start_ps", "count"],
                      ((channel, start, count) for channel, h in enumerate(hists)
                       for start, count in zip(h.bin_edges_ps[:-1].tolist(), h.counts.tolist())))
    # default_windows' gates are narrower than one delay, so the gap between two is > 0
    lo, hi = windows[0]
    margin = cfg.chip.loop_delay_ps - (hi - lo)
    print(f"counts: peak separation ok (margin {margin:.1f} ps)")
    return {"histograms.csv": histograms, "estimates.csv": estimates}


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="loopsim",
        description="Simulate and calibrate a recirculating-loop photonic processor.",
    )
    parser.add_argument("--config", type=Path, help="JSON config file")
    parser.add_argument("--seed", type=int, help="override noise and counting seeds")
    parser.add_argument("--out", type=Path, help="output directory")
    parser.add_argument("--dump-config", action="store_true",
                        help="print the effective config as JSON and exit")
    sub = parser.add_subparsers(dest="command", required=True)

    p_sim = sub.add_parser("simulate", help="exact evolution, chip distributions, counting run")
    p_sim.set_defaults(handler=cmd_simulate)
    p_sim.add_argument("--epsilon", type=float)
    p_sim.add_argument("--omega-hbar", dest="omega_hbar", type=float)
    p_sim.add_argument("--lam", type=float)
    p_sim.add_argument("--n-steps", dest="n_steps", type=int)
    p_sim.add_argument("--initial-channel", dest="initial_channel", type=int)

    p_dec = sub.add_parser("decompose", help="compile a unitary into a mesh plan")
    p_dec.set_defaults(handler=cmd_decompose)
    p_dec.add_argument("--unitary", type=Path,
                       help="JSON file with 're' and 'im' matrices; default: model propagator")

    p_loss = sub.add_parser("losses", help="loss budgets across platforms")
    p_loss.set_defaults(handler=cmd_losses)
    p_loss.add_argument("--platforms", nargs="*", default=None,
                        help="platform names (default: all bundled)")
    p_loss.add_argument("--max-loops", dest="max_loops", type=int, default=3)

    p_scale = sub.add_parser("scaling", help="single-pass loss vs mode count")
    p_scale.set_defaults(handler=cmd_scaling)
    p_scale.add_argument("--modes", type=int, nargs="+", default=[2, 4, 6, 8])
    p_scale.add_argument("--cell-length", dest="cell_length", type=float, default=0.5)

    p_train = sub.add_parser("train", help="train mesh phases against the model target")
    p_train.set_defaults(handler=cmd_train)
    p_train.add_argument("--n-steps", dest="n_steps", type=int)

    p_cmp = sub.add_parser("compare", help="decomposition vs trained over the benchmark table")
    p_cmp.set_defaults(handler=cmd_compare)
    p_cmp.add_argument("--table", type=Path, help="parameter table CSV (default: bundled)")
    p_cmp.add_argument("--seeds", type=int, default=1,
                       help="noise realizations per parameter row")

    p_counts = sub.add_parser("counts", help="sample a counting run and recover probabilities")
    p_counts.set_defaults(handler=cmd_counts)
    p_counts.add_argument("--n-steps", dest="n_steps", type=int)
    p_counts.add_argument("--initial-channel", dest="initial_channel", type=int)

    return parser


def run(argv=None) -> int:
    """Parse, check paths, run the command, check its files' paths, write them under output_dir."""
    args = build_parser().parse_args(argv)
    for flag in ("config", "unitary", "table"):
        path = getattr(args, flag, None)
        if path is not None and (path.is_dir() or not path.exists()):
            raise ValueError(f"--{flag} {str(path)!r} is not a file")
    cfg = _load_config(args)
    if args.dump_config:
        print(json.dumps(config_to_dict(cfg), indent=2))
        return 0
    out = Path(cfg.output_dir)
    nearest = next(p for p in (out, *out.parents) if p.exists())
    if not nearest.is_dir():
        raise ValueError(f"output_dir (--out) {str(out)!r}: {str(nearest)!r} is not a directory")
    files = args.handler(cfg, args)
    for path in map(out.joinpath, files):
        if path.exists() and not path.is_file():
            raise ValueError(f"output file {str(path)!r} exists and is not a file")
    out.mkdir(parents=True, exist_ok=True)
    for name, text in files.items():
        (out / name).write_text(text, newline="")
    print(f"{args.command}: wrote {', '.join(files)} to {out}")
    return 0


def main(argv=None) -> int:
    try:
        return run(argv)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # noqa: BLE001
        print(f"failure: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
