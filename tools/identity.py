"""Byte-identity check of loopsim's outputs between two source trees.

    python tools/identity.py BASE HEAD

BASE and HEAD are repository checkouts (each with a src/loopsim package).
One fixed corpus runs against each tree in its own interpreter, and every
output file and library array it writes is compared byte for byte; the
tool lists what differs, or is missing on one side, and exits 1 if
anything does. Printed lines are not compared. Each differing CSV, JSON or
.npy file that both sides wrote also gets how far it moved: the largest
absolute and relative difference over its numbers and how many values
differ. One line per group of differing files follows, with the file count
and the largest differences over the group; a group is a CLI call's command
(every readme call is `readme`) or a library array's function. The corpus:

- each `loopsim ...` line of this checkout's README, with training capped
  at 3 iterations;
- simulate, counts and decompose for n_boson 1-8, once with float-typed
  and once with int-typed settings;
- losses, scaling and train (10 iterations) for each float-typed n_boson
  1-8, and compare with a 3-iteration cap;
- seeded library calls: step_unitary (fresh and repeated), sample_run,
  expected_histograms, estimate_probabilities (also over several seeds at
  one setting, after a second setting, with only the background changed,
  and over reversed gates, no gates and, at zero jitter, gates narrower
  than one bin) and platform_comparison;
- noisy meshes: mesh_forward(clements_decompose(u), MeshNoise(seed=i)) for
  seeded Haar u of dim 1-16.

train's trace.csv (repr floats) and trained_plan.json (17 significant
digits) carry every gradient into the comparison: at 10 iterations a
last-bit change to each gradient moves them at every n_boson.

Bits can differ across BLAS builds, so compare two trees on one machine.
"""

import argparse
import contextlib
import csv
import filecmp
import io
import json
import os
import shlex
import subprocess
import sys
import tempfile
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"
TRAINING_CAP = {"training": {"max_iters": 3}}


def readme_commands() -> list:
    """The argument lists of the README's `loopsim ...` command lines."""
    block = README.read_text().split("## Command line", 1)[1].split("```sh", 1)[1]
    return [shlex.split(line)[1:] for line in block.split("```", 1)[0].splitlines()
            if line.startswith("loopsim ")]


def _sweep_configs() -> dict:
    """Two configs per n_boson 1-8: one with float-typed settings, one with int-typed."""
    configs = {}
    for n in range(1, 9):
        chip = {"dim": 2 * n}
        configs[f"n{n}-float"] = {
            "model": {"epsilon": 0.5, "omega_hbar": 1.2, "lambda": 0.8, "h_field": 1.0,
                      "n_boson": n, "dt": 0.5 + 0.125 * n},
            "chip": {**chip, "loop_delay_ps": 400.0},
            "counting": {"jitter_ps": 50.0, "bin_ps": 20.0, "pair_rate_hz": 1e4,
                         "duration_s": 10.0, "seed": n},
            "training": {"max_iters": 10},
        }
        configs[f"n{n}-int"] = {
            "model": {"epsilon": 1, "omega_hbar": 1, "lambda": 1, "h_field": 1,
                      "n_boson": n, "dt": 1},
            "chip": {**chip, "loop_delay_ps": 400},
            "counting": {"jitter_ps": 50, "bin_ps": 20, "pair_rate_hz": 10000,
                         "duration_s": 10, "seed": 100 + n},
        }
    return configs


def cli_corpus(config_dir: Path) -> list:
    """(label, argv without --out) of every CLI call; writes the configs they read."""
    config_dir.mkdir(parents=True, exist_ok=True)

    def config(name, doc):
        path = config_dir / f"{name}.json"
        path.write_text(json.dumps(doc))
        return str(path)

    unitary = config_dir / "my_unitary.json"
    unitary.write_text(json.dumps({"re": [[0.6, 0.8], [-0.8, 0.6]], "im": [[0, 0], [0, 0]]}))
    calls = []
    cap = config("cap", TRAINING_CAP)
    for i, argv in enumerate(readme_commands(), start=1):
        argv = [str(unitary) if a == "my_unitary.json" else a for a in argv]
        calls.append((f"readme-{i:02d}", ["--config", cap, *argv]))
    for name, doc in _sweep_configs().items():
        path = config(name, doc)
        calls += [(f"{name}-{cmd}", ["--config", path, cmd])
                  for cmd in ("simulate", "counts", "decompose")]
        if name.endswith("-float"):
            modes = [str(m) for m in range(2, doc["chip"]["dim"] + 1, 2)]
            calls += [(f"{name}-losses", ["--config", path, "losses", "--max-loops", "4"]),
                      (f"{name}-scaling", ["--config", path, "scaling", "--modes", *modes]),
                      (f"{name}-train", ["--config", path, "train"])]
    calls.append(("compare", ["--config", cap, "compare", "--seeds", "1"]))
    return calls


def _library_arrays() -> dict:
    """Named arrays from seeded library calls."""
    import numpy as np

    from loopsim import losses, loopchip, mesh, model, montecarlo

    arrays = {}
    rng = np.random.default_rng(2024)
    for i in range(40):
        n = int(rng.integers(1, 17))
        a = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        h = (a + a.conj().T) / 2
        dt = int(rng.integers(1, 4)) if i % 2 else float(rng.uniform(-2.0, 2.0))
        arrays[f"step_unitary-{i:02d}"] = model.step_unitary(h, dt)
        arrays[f"step_unitary-{i:02d}-again"] = model.step_unitary(h, float(dt))
    chip = loopchip.ChipConfig()

    def count(label, power, gates=list, **counting):
        cfg = montecarlo.CountingConfig(**counting)
        windows = gates(montecarlo.default_windows(3, cfg, chip.loop_delay_ps))
        for kind in ("sample_run", "expected_histograms"):
            hists = getattr(montecarlo, kind)(power, cfg, chip.loop_delay_ps)
            est = montecarlo.estimate_probabilities(hists, windows, cfg)
            arrays[f"{kind}-{label}-edges"] = hists[0].bin_edges_ps
            arrays[f"{kind}-{label}-counts"] = np.array([h.counts for h in hists])
            arrays[f"{kind}-{label}-p_hat"] = est.p_hat
            arrays[f"{kind}-{label}-stderr"] = est.stderr
            arrays[f"{kind}-{label}-low_statistics"] = np.array(est.low_statistics)

    powers = []
    for i, (jitter, bin_ps) in enumerate([(50.0, 20.0), (50, 20), (0.0, 25.0), (30.0, 7.5)]):
        params = model.SpinBosonParams(*rng.uniform(-2.0, 2.0, size=3))
        u = model.step_unitary(model.build_hamiltonian(params), params.dt)
        powers.append(loopchip.run_loop(chip, u, i % 6, 3))
        count(str(i), powers[-1], pair_rate_hz=1e5, duration_s=1.0, jitter_ps=jitter,
              bin_ps=bin_ps, seed=i)
    # Warm counting paths: one setting over several seeds, a second setting,
    # the first again, and a background change at fixed geometry.
    first = dict(pair_rate_hz=1e5, duration_s=1e4)
    for label, power, counting in [
        *((f"warm-seed{seed}", powers[0], {**first, "seed": seed}) for seed in range(3)),
        ("warm-other", powers[3], dict(pair_rate_hz=1e5, jitter_ps=30.0, bin_ps=7.5, seed=3)),
        ("warm-again", powers[0], {**first, "seed": 4}),
        ("warm-background", powers[0], {**first, "background_rate_hz": 1e3, "seed": 4}),
    ]:
        count(label, power, **counting)
    # Unusual gates: reversed, none, and at zero jitter windows narrower than one bin,
    # one of them below the first edge.
    for jitter, bin_ps in ((0.0, 25.0), (50.0, 20.0)):
        gate_sets = {"reversed": lambda w: w[::-1], "none": lambda w: []}
        if jitter == 0:
            gate_sets["narrow"] = lambda w: [(lo - 20.0, lo - 10.0) for lo, _ in w]
        for name, gates in gate_sets.items():
            count(f"gates-{name}-{jitter:g}", powers[0], gates, pair_rate_hz=1e5, jitter_ps=jitter,
                  bin_ps=bin_ps, seed=5)
    platforms = losses.load_platforms()
    for n in (1, 3, 8):
        ratios = losses.optimal_splitters(n) if n >= 2 else (0.5, 0.5)
        arrays[f"platform_comparison-{n}"] = losses.platform_comparison(platforms, chip,
                                                                        ratios, n)
    haar = np.random.default_rng(2025)
    for dim in range(1, 17):
        q, r = np.linalg.qr(haar.normal(size=(dim, dim)) + 1j * haar.normal(size=(dim, dim)))
        u = q * (np.diag(r) / np.abs(np.diag(r)))
        arrays[f"mesh_forward-noisy-{dim:02d}"] = mesh.mesh_forward(
            mesh.clements_decompose(u), mesh.MeshNoise(seed=dim))
    return arrays


def run_corpus(out: Path) -> dict:
    """Run the corpus with the loopsim on sys.path, writing under out; returns
    {label: exit code} of the CLI calls."""
    import numpy as np

    from loopsim import cli

    codes = {}
    for label, argv in cli_corpus(out / "configs"):
        log = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(log):
            codes[label] = cli.main(["--out", str(out / "files" / "cli" / label), *argv])
        if codes[label] != 0:
            print(f"{label}: exit {codes[label]}: {log.getvalue().strip()}", file=sys.stderr)
    lib = out / "files" / "lib"
    lib.mkdir(parents=True, exist_ok=True)
    for name, array in _library_arrays().items():
        np.save(lib / f"{name}.npy", array)
    (out / "files" / "exit_codes.json").write_text(json.dumps(codes, indent=1))
    return codes


def run_tree(tree: Path, out: Path) -> dict:
    """run_corpus in a fresh interpreter that imports loopsim from tree/src."""
    src = (tree / "src").resolve()
    code = ("import json, loopsim; from pathlib import Path; import identity\n"
            f"if not Path(loopsim.__file__).resolve().is_relative_to({str(src)!r}):\n"
            "    raise SystemExit(f'loopsim imported from {loopsim.__file__}')\n"
            f"print(json.dumps(identity.run_corpus(Path({str(out)!r}))))")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(src), str(Path(__file__).parent)])}
    done = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                          stdout=subprocess.PIPE, text=True)
    return json.loads(done.stdout.splitlines()[-1])


def listing(root: Path) -> set:
    """Relative paths of the files under root."""
    return {p.relative_to(root) for p in root.rglob("*") if p.is_file()}


def differences(a: Path, b: Path, files_a=None, files_b=None) -> list:
    """Relative paths of files that differ, or exist on one side only, under a and b, whose
    listings files_a and files_b are taken here unless given."""
    files_a = listing(a) if files_a is None else files_a
    files_b = listing(b) if files_b is None else files_b
    out = [f"{p} (only in base)" for p in sorted(files_a - files_b)]
    out += [f"{p} (only in head)" for p in sorted(files_b - files_a)]
    out += [str(p) for p in sorted(files_a & files_b)
            if not filecmp.cmp(a / p, b / p, shallow=False)]
    return out


def group(line: str) -> str:
    """The group of a differences() line's file: `cli <command>` for a CLI call's file, the
    label's last `-` part or `readme`; `lib <function>` for a library array, its name before
    the first `-`; the file's path for any other file."""
    path = line.split(" (only in ", 1)[0]
    parts = Path(path).parts
    if len(parts) > 2 and parts[0] == "cli":
        label = parts[1]
        return "cli " + ("readme" if label.startswith("readme-") else label.rpartition("-")[2])
    if len(parts) == 2 and parts[0] == "lib":
        return "lib " + parts[1].removesuffix(".npy").partition("-")[0]
    return path


def _values(path: Path):
    """A CSV, JSON or .npy file's values in file order, numbers as complex and the rest
    (JSON keys, CSV headers, an array's shape) as str; None for any other file."""
    import numpy as np

    def number(x):
        try:
            return str(x) if isinstance(x, bool) else complex(float(x))
        except (TypeError, ValueError):
            return str(x)

    def leaves(doc):
        if isinstance(doc, dict):
            for key, value in doc.items():
                yield key
                yield from leaves(value)
        elif isinstance(doc, list):
            for value in doc:
                yield from leaves(value)
        else:
            yield doc

    if path.suffix == ".npy":
        array = np.load(path)
        return [str(array.shape)] + [complex(x) for x in array.ravel()]
    if path.suffix == ".csv":
        return [number(c) for row in csv.reader(path.read_text().splitlines()) for c in row]
    if path.suffix == ".json":
        return [number(x) for x in leaves(json.loads(path.read_text()))]
    return None


def gaps(a: Path, b: Path):
    """How far file b moved from file a: (max abs, max rel, numbers that differ, numbers,
    other values that differ); a line saying so when their value counts differ, and None
    when the files are of a kind _values does not read."""
    import numpy as np

    va, vb = _values(a), _values(b)
    if va is None or vb is None:
        return None
    if len(va) != len(vb):
        return f"{len(va)} values against {len(vb)}"
    texts = sum(x != y for x, y in zip(va, vb) if isinstance(x, str) or isinstance(y, str))
    pairs = [(x, y) for x, y in zip(va, vb) if not (isinstance(x, str) or isinstance(y, str))]
    x, y = np.array(pairs, dtype=complex).reshape(-1, 2).T
    with np.errstate(all="ignore"):
        differ = ~((x == y) | (np.isnan(x) & np.isnan(y)))
        gap = np.abs(x - y)[differ]
        rel = gap / np.maximum(np.abs(x), np.abs(y))[differ]
    return (float(gap.max(initial=0.0)), float(rel.max(initial=0.0)), int(differ.sum()), len(x),
            texts)


def describe(found):
    """A gaps() result as one line, or None for None."""
    if not isinstance(found, tuple):
        return found
    gap, rel, differ, numbers, texts = found
    line = f"max abs {gap:.3g}, max rel {rel:.3g}, {differ} of {numbers} numbers differ"
    return line + (f", {texts} other values differ" if texts else "")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n", 1)[0])
    parser.add_argument("base", type=Path, help="checkout whose src/ is the reference")
    parser.add_argument("head", type=Path, help="checkout compared against it")
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        for side, tree in (("base", args.base), ("head", args.head)):
            codes = run_tree(tree, work / side)
            failed = sorted(label for label, code in codes.items() if code != 0)
            print(f"{side}: {len(codes)} CLI calls, {len(failed)} nonzero exits {failed}")
        base, head = work / "base" / "files", work / "head" / "files"
        base_files, head_files = listing(base), listing(head)
        diff = differences(base, head, base_files, head_files)
        both = base_files & head_files
        groups = {}  # group -> the gaps() result of each of its differing files
        for line in diff:
            found = gaps(base / line, head / line) if Path(line) in both else None
            print(f"differs: {line}" + (f": {describe(found)}" if found else ""))
            groups.setdefault(group(line), []).append(found)
        for name, found in sorted(groups.items()):
            measured = [f for f in found if isinstance(f, tuple)]
            sizes = (f", max abs {max(f[0] for f in measured):.3g}, "
                     f"max rel {max(f[1] for f in measured):.3g}") if measured else ""
            print(f"group {name}: {len(found)} file{'s' * (len(found) != 1)}{sizes}")
    print(f"{len(diff)} of {len(base_files | head_files)} files differ")
    return 1 if diff else 0


if __name__ == "__main__":
    sys.exit(main())
