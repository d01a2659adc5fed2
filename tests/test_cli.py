import csv
import json
import os
import shlex
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import loopsim
from loopsim.calibrate import TrainingConfig, theory_step_matrices, train
from loopsim.cli import (RunConfig, _write_csv, build_parser, config_from_dict, config_to_dict,
                         main)
from loopsim.mesh import MeshNoise, clements_decompose, plan_from_json
from loopsim.model import SpinBosonParams, build_hamiltonian, evolve_exact, step_unitary

README = Path(__file__).resolve().parents[1] / "README.md"


def read_probs(path):
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    n_steps = max(int(r["step"]) for r in rows)
    dim = max(int(r["channel"]) for r in rows) + 1
    out = np.zeros((n_steps, dim))
    for r in rows:
        out[int(r["step"]) - 1, int(r["channel"])] = float(r["prob"])
    return out


class TestSimulate:
    def test_writes_outputs_and_theory_matches_chip(self, tmp_path):
        rc = main(["--out", str(tmp_path), "--seed", "3", "simulate"])
        assert rc == 0
        theory = read_probs(tmp_path / "theory.csv")
        chip = read_probs(tmp_path / "chip.csv")
        assert theory.shape == (3, 6)
        assert np.max(np.abs(theory - chip)) < 1e-9
        assert (tmp_path / "mc.csv").exists()

    def test_second_parameter_regime(self, tmp_path):
        rc = main(["--out", str(tmp_path), "simulate", "--epsilon", "0.5",
                   "--omega-hbar", "1.2", "--lam", "0.8", "--n-steps", "4"])
        assert rc == 0
        theory = read_probs(tmp_path / "theory.csv")
        assert theory.shape == (4, 6)
        assert np.max(np.abs(theory.sum(axis=1) - 1.0)) < 1e-10

    def test_theory_csv_is_evolve_exact_bit_for_bit(self, tmp_path):
        assert main(["--out", str(tmp_path), "simulate", "--epsilon", "0.5",
                     "--omega-hbar", "1.2", "--lam", "0.8"]) == 0
        params = SpinBosonParams(0.5, 1.2, 0.8)
        exact = evolve_exact(step_unitary(build_hamiltonian(params), params.dt), 0, 3)
        assert np.array_equal(read_probs(tmp_path / "theory.csv"), exact)

    def test_bad_initial_channel_exits_two(self, tmp_path, capsys):
        rc = main(["--out", str(tmp_path), "simulate", "--initial-channel", "9"])
        assert rc == 2
        assert "error:" in capsys.readouterr().err


class TestDecompose:
    def test_default_model_propagator(self, tmp_path):
        rc = main(["--out", str(tmp_path), "decompose"])
        assert rc == 0
        plan = plan_from_json((tmp_path / "plan.json").read_text())
        assert plan.dim == 6
        assert len(plan.los) == 15
        report = json.loads((tmp_path / "decompose_report.json").read_text())
        assert report["max_roundtrip_error"] < 1e-9

    def test_explicit_unitary_file(self, tmp_path):
        u = np.eye(4)
        doc = {"re": u.tolist(), "im": (0.0 * u).tolist()}
        upath = tmp_path / "u.json"
        upath.write_text(json.dumps(doc))
        rc = main(["--out", str(tmp_path), "decompose", "--unitary", str(upath)])
        assert rc == 0
        plan = plan_from_json((tmp_path / "plan.json").read_text())
        assert plan.dim == 4

    def test_non_unitary_exits_two(self, tmp_path, capsys):
        doc = {"re": np.ones((3, 3)).tolist(), "im": np.zeros((3, 3)).tolist()}
        upath = tmp_path / "bad.json"
        upath.write_text(json.dumps(doc))
        rc = main(["--out", str(tmp_path), "decompose", "--unitary", str(upath)])
        assert rc == 2
        assert "not unitary" in capsys.readouterr().err


class TestLosses:
    def test_default_table(self, tmp_path, capsys):
        rc = main(["--out", str(tmp_path), "losses"])
        assert rc == 0
        captured = capsys.readouterr().out
        assert "optimal splitters for n=3: r_loop=0.666667" in captured
        with open(tmp_path / "losses.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert {r["platform"] for r in rows} == {
            "SiN on-chip", "SOI", "LNOI", "SiN off-chip"}
        assert len(rows) == 4 * 3

    def test_unknown_platform_exits_two(self, tmp_path, capsys):
        rc = main(["--out", str(tmp_path), "losses", "--platforms", "GaAs"])
        assert rc == 2
        assert "unknown platform" in capsys.readouterr().err

    def test_many_loops(self, tmp_path, capsys):
        assert main(["--out", str(tmp_path), "losses", "--max-loops", "200"]) == 0
        assert "optimal splitters for n=200: r_loop=0.995000" in capsys.readouterr().out


class TestScaling:
    def test_default_modes(self, tmp_path):
        rc = main(["--out", str(tmp_path), "scaling"])
        assert rc == 0
        with open(tmp_path / "scaling.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert [int(r["modes"]) for r in rows] == [2, 4, 6, 8]
        losses = [float(r["loss_db"]) for r in rows]
        assert losses == sorted(losses)

    def test_odd_mode_count_exits_two(self, tmp_path, capsys):
        rc = main(["--out", str(tmp_path), "scaling", "--modes", "3"])
        assert rc == 2
        assert "even" in capsys.readouterr().err

    def test_failed_row_leaves_no_file(self, tmp_path):
        assert main(["--out", str(tmp_path), "scaling", "--modes", "2", "4", "5"]) == 2
        assert not (tmp_path / "scaling.csv").exists()

    def test_runs_leave_the_parser_defaults_alone(self, tmp_path):
        for out in ("a", "b"):
            assert main(["--out", str(tmp_path / out), "scaling"]) == 0
        assert (tmp_path / "a" / "scaling.csv").read_bytes() == \
            (tmp_path / "b" / "scaling.csv").read_bytes()
        assert build_parser().parse_args(["scaling"]).modes == [2, 4, 6, 8]


class TestTrain:
    def test_trains_and_writes_plan(self, tmp_path):
        cfgfile = tmp_path / "cfg.json"
        cfgfile.write_text(json.dumps({
            "noise": {"seed": 5},
            "training": {"learning_rate": 0.05, "max_iters": 10},
        }))
        rc = main(["--config", str(cfgfile), "--out", str(tmp_path), "train"])
        assert rc == 0
        plan = plan_from_json((tmp_path / "trained_plan.json").read_text())
        assert len(plan.los) == 15
        with open(tmp_path / "trace.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert rows[0]["iter"] == "0"
        losses = [float(r["loss"]) for r in rows]
        assert losses[-1] <= losses[0]

    def test_trace_csv_is_loss_trace_bit_for_bit(self, tmp_path):
        cfgfile = tmp_path / "cfg.json"
        cfgfile.write_text(json.dumps({"training": {"max_iters": 10}}))
        assert main(["--config", str(cfgfile), "--out", str(tmp_path), "--seed", "5",
                     "train", "--n-steps", "2"]) == 0
        u = step_unitary(build_hamiltonian(SpinBosonParams(1.0, 1.0, 1.0)), 1.0)
        target = theory_step_matrices(u, 2)
        result = train(clements_decompose(u), MeshNoise(seed=5), target,
                       TrainingConfig(max_iters=10))
        with open(tmp_path / "trace.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert [int(r["iter"]) for r in rows] == list(range(result.trace.size))
        assert np.array_equal([float(r["loss"]) for r in rows], result.trace)


class TestCompare:
    def test_zero_noise_all_ties(self, tmp_path, capsys):
        cfgfile = tmp_path / "cfg.json"
        cfgfile.write_text(json.dumps({
            "noise": {"sigma_theta": 0.0, "sigma_phi": 0.0, "sigma_split": 0.0},
            "training": {"max_iters": 1},
            "n_steps": 2,
        }))
        rc = main(["--config", str(cfgfile), "--out", str(tmp_path), "compare"])
        assert rc == 0
        assert "win rate undefined" in capsys.readouterr().out
        summary = json.loads((tmp_path / "summary.json").read_text())
        assert summary["win_rate"] is None
        assert summary["pairs"] == summary["ties"] == 20 * 2

    def test_truncated_table_exits_two(self, tmp_path, capsys):
        table = tmp_path / "t.csv"
        table.write_text("epsilon,omega_hbar,lambda\n1,1,1\n")
        rc = main(["--out", str(tmp_path), "compare", "--table", str(table)])
        assert rc == 2
        assert "20 rows" in capsys.readouterr().err


class TestCounts:
    def test_writes_histograms_and_estimates(self, tmp_path, capsys):
        rc = main(["--out", str(tmp_path), "--seed", "7", "counts"])
        assert rc == 0
        assert "peak separation ok" in capsys.readouterr().out
        with open(tmp_path / "estimates.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 3 * 6
        assert (tmp_path / "histograms.csv").exists()

    def test_one_step_run_exits_zero(self, tmp_path, capsys):
        # the histogram spans a single peak; the margin still follows from the gates
        cfgfile = tmp_path / "cfg.json"
        cfgfile.write_text(json.dumps({"counting": {"jitter_ps": 10}}))
        out = tmp_path / "out"
        assert main(["--config", str(cfgfile), "--out", str(out), "counts", "--n-steps", "1"]) == 0
        assert "peak separation ok (margin 340.0 ps)" in capsys.readouterr().out
        assert (out / "estimates.csv").exists()

    def test_seed_determinism(self, tmp_path):
        out_a = tmp_path / "a"
        out_b = tmp_path / "b"
        assert main(["--out", str(out_a), "--seed", "42", "counts"]) == 0
        assert main(["--out", str(out_b), "--seed", "42", "counts"]) == 0
        assert (out_a / "histograms.csv").read_text() == (out_b / "histograms.csv").read_text()


class TestConfig:
    def test_dump_config_round_trips(self, tmp_path, capsys):
        rc = main(["--out", str(tmp_path), "--dump-config", "simulate"])
        assert rc == 0
        doc = json.loads(capsys.readouterr().out)
        again = config_to_dict(config_from_dict(doc))
        assert again == doc
        assert doc["model"]["lambda"] == 1.0

    def test_unknown_section_rejected(self):
        with pytest.raises(ValueError, match="unknown config keys"):
            config_from_dict({"detector": {}})

    def test_config_file_drives_model(self, tmp_path):
        cfgfile = tmp_path / "cfg.json"
        cfgfile.write_text(json.dumps({
            "model": {"epsilon": 0.5, "omega_hbar": 1.2, "lambda": 0.8},
            "n_steps": 2,
        }))
        out = tmp_path / "out"
        rc = main(["--config", str(cfgfile), "--out", str(out), "simulate"])
        assert rc == 0
        assert read_probs(out / "theory.csv").shape == (2, 6)

    @pytest.mark.parametrize("n_steps", ["4", "5"])
    def test_steps_before_next_pump_pulse_accepted(self, tmp_path, n_steps):
        # 400 ps delay, 50 ps jitter, 2000 ps pump period: step 5 ends at 1900 ps
        rc = main(["--out", str(tmp_path), "simulate", "--n-steps", n_steps])
        assert rc == 0

    def test_step_on_next_pump_pulse_exits_two(self, tmp_path, capsys):
        rc = main(["--out", str(tmp_path), "counts", "--n-steps", "6"])
        assert rc == 2
        err = capsys.readouterr().err
        assert "2300.0 ps" in err and "2000.0 ps" in err
        for key in ("n_steps", "chip.loop_delay_ps", "counting.jitter_ps", "chip.rep_rate_mhz"):
            assert key in err

    def test_pump_period_follows_rep_rate(self, tmp_path):
        with pytest.raises(ValueError, match="pump pulse"):
            config_from_dict({"chip": {"rep_rate_mhz": 1000.0}, "n_steps": 3})
        config_from_dict({"chip": {"rep_rate_mhz": 250.0}, "n_steps": 9})

    def test_partial_model_section_keeps_defaults(self, tmp_path, capsys):
        cfgfile = tmp_path / "cfg.json"
        cfgfile.write_text(json.dumps({"model": {"n_boson": 2}, "chip": {"dim": 4}}))
        assert main(["--config", str(cfgfile), "--out", str(tmp_path), "simulate"]) == 0
        assert read_probs(tmp_path / "theory.csv").shape == (3, 4)
        capsys.readouterr()
        assert main(["--config", str(cfgfile), "--dump-config", "simulate"]) == 0
        model = json.loads(capsys.readouterr().out)["model"]
        assert (model["epsilon"], model["omega_hbar"], model["lambda"]) == (1.0, 1.0, 1.0)
        assert model["n_boson"] == 2

    def test_unknown_section_key_exits_two(self, tmp_path, capsys):
        cfgfile = tmp_path / "cfg.json"
        cfgfile.write_text(json.dumps({"model": {"foo": 1}}))
        assert main(["--config", str(cfgfile), "--out", str(tmp_path), "simulate"]) == 2
        assert "foo" in capsys.readouterr().err

    @pytest.mark.parametrize("flags", [[], ["--epsilon", "0.5"]])
    def test_section_not_an_object_exits_two(self, tmp_path, capsys, flags):
        cfgfile = tmp_path / "cfg.json"
        cfgfile.write_text(json.dumps({"model": 5}))
        rc = main(["--config", str(cfgfile), "--out", str(tmp_path), "simulate", *flags])
        assert rc == 2
        assert "'model' must be a JSON object" in capsys.readouterr().err

    def test_flag_overrides_invalid_file_value(self, tmp_path):
        # n_steps 6 alone would overlap the next pump pulse
        cfgfile = tmp_path / "cfg.json"
        cfgfile.write_text(json.dumps({"n_steps": 6}))
        assert main(["--config", str(cfgfile), "--out", str(tmp_path),
                     "counts", "--n-steps", "3"]) == 0

    def test_readme_config_block_is_accepted(self):
        text = README.read_text()
        block = text.split("## Configuration", 1)[1].split("```json", 1)[1].split("```", 1)[0]
        doc = json.loads(block)
        assert config_to_dict(config_from_dict(doc)).keys() == doc.keys()

    def test_mismatched_dims_exit_two(self, tmp_path, capsys):
        cfgfile = tmp_path / "cfg.json"
        cfgfile.write_text(json.dumps({"model": {"epsilon": 1.0, "omega_hbar": 1.0,
                                                 "lambda": 1.0, "n_boson": 2}}))
        rc = main(["--config", str(cfgfile), "--out", str(tmp_path), "simulate"])
        assert rc == 2
        assert "dimension" in capsys.readouterr().err


class TestInvalidValues:
    """A wrongly typed, non-finite or out-of-range value exits 2 before any file is written."""

    @staticmethod
    def _run(tmp_path, doc, argv):
        cfgfile = tmp_path / "cfg.json"
        cfgfile.write_text(json.dumps(doc))
        out = tmp_path / "out"
        rc = main(["--config", str(cfgfile), "--out", str(out), *argv])
        return rc, out

    @pytest.mark.parametrize("doc, section, key", [
        ({"chip": {"lossless": "no"}}, "chip", "lossless"),
        ({"n_steps": "3"}, None, "n_steps"),
        ({"chip": {"dim": "6"}}, "chip", "dim"),
        ({"model": {"n_boson": 3.0}}, "model", "n_boson"),
        ({"training": {"max_iters": 2.5}}, "training", "max_iters"),
        ({"initial_channel": True}, None, "initial_channel"),
        ({"counting": {"seed": -1}}, "counting", "seed"),
        ({"counting": {"jitter_ps": 70}}, "counting", "jitter_ps"),
        ({"counting": {"pair_rate_hz": 1e30}}, "counting", "pair_rate_hz"),
        ({"counting": {"background_rate_hz": 1e18}}, "counting", "background_rate_hz"),
    ])
    def test_simulate(self, tmp_path, capsys, doc, section, key):
        rc, out = self._run(tmp_path, doc, ["simulate"])
        assert rc == 2
        assert not out.exists()
        err = capsys.readouterr().err
        assert key in err
        assert section is None or f"config section '{section}'" in err

    @pytest.mark.parametrize("doc, command, key", [
        ({"chip": {"others_loss_db": float("nan")}}, "losses", "others_loss_db"),
        ({"training": {"learning_rate": float("nan")}}, "train", "learning_rate"),
    ])
    def test_nan(self, tmp_path, capsys, doc, command, key):
        rc, out = self._run(tmp_path, doc, [command])
        assert rc == 2
        assert not out.exists()
        assert key in capsys.readouterr().err

    def test_out_of_range_coupler_draw(self, tmp_path, capsys):
        # at sigma_split 0.3, six of the 15 seed-0 cells draw a coupler ratio outside [0, 1]
        doc = {"noise": {"sigma_split": 0.3}, "training": {"max_iters": 2}}
        rc, out = self._run(tmp_path, doc, ["train"])
        assert rc == 2
        assert not (out / "trained_plan.json").exists()
        err = capsys.readouterr().err
        assert "cell" in err and "noise.sigma_split" in err

    def test_negative_seed_flag(self, tmp_path, capsys):
        out = tmp_path / "out"
        assert main(["--out", str(out), "--seed", "-1", "simulate"]) == 2
        assert not out.exists()
        assert "seed must be >= 0" in capsys.readouterr().err

    def test_too_many_bins(self):
        # about 2e6 bins per channel at 7e-4 ps
        with pytest.raises(ValueError, match="config section 'counting': bin_ps"):
            config_from_dict({"counting": {"bin_ps": 7e-4}})

    def test_every_field_rejects_a_wrong_type(self):
        # A field added later without the type check fails here.
        doc = config_to_dict(RunConfig())
        leaves = [(None, key, value) for key, value in doc.items() if not isinstance(value, dict)]
        leaves += [(section, key, value) for section, payload in doc.items()
                   if isinstance(payload, dict) for key, value in payload.items()]
        for section, key, default in leaves:
            if isinstance(default, bool):
                bad_values = ["x"]
            elif isinstance(default, int):
                bad_values = ["x", True, 2.5]
            elif isinstance(default, float):
                bad_values = ["x", True, float("nan")]
            else:
                bad_values = [5]
            for bad in bad_values:
                case = {key: bad} if section is None else {section: {key: bad}}
                with pytest.raises(ValueError) as info:
                    config_from_dict(case)
                message = str(info.value)
                assert ("lam" if key == "lambda" else key) in message, (case, message)
                assert section is None or f"config section '{section}'" in message


def test_write_csv_formats_cells(tmp_path):
    path = tmp_path / "t.csv"
    _write_csv(path, ["a", "b", "c"], [(1, 0.1 + 0.2, "x,y"), (2, 1e-300, "z")])
    assert path.read_bytes() == b'a,b,c\r\n1,0.30000000000000004,"x,y"\r\n2,1e-300,z\r\n'


def test_readme_command_lines_parse():
    text = README.read_text()
    block = text.split("## Command line", 1)[1].split("```sh", 1)[1].split("```", 1)[0]
    lines = [ln for ln in block.splitlines() if ln.startswith("loopsim ")]
    assert len(lines) >= 9
    for line in lines:
        build_parser().parse_args(shlex.split(line)[1:])


def test_cli_import_leaves_out_scipy_stats():
    # scipy.special is the only scipy subpackage loopsim uses
    src = str(Path(loopsim.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p])}
    code = ("import sys, loopsim.cli; print(sorted(n for n, m in sys.modules.items() "
            "if n.startswith('scipy.') and n.count('.') == 1 and hasattr(m, '__path__') "
            "and not n.startswith('scipy._')))")
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "['scipy.special']"
