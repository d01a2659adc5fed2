import csv
import json
import shlex
import warnings
from pathlib import Path

import numpy as np
import pytest

from loopsim import calibrate, loopchip, mesh, model, montecarlo
from loopsim.calibrate import TrainingConfig, theory_step_matrices, train
from loopsim.cli import RunConfig, _csv, build_parser, config_from_dict, config_to_dict, main
from loopsim.mesh import MeshNoise, clements_decompose, plan_from_json
from loopsim.model import SpinBosonParams, build_hamiltonian, evolve_exact, step_unitary
from conftest import run_python

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

    @pytest.mark.parametrize("command, counting, flagged", [
        ("simulate", {}, "3"),
        ("counts", {}, "3"),
        ("simulate", {"pair_rate_hz": 0.0}, "1, 2, 3"),
        ("counts", {"pair_rate_hz": 0.0}, "1, 2, 3"),
        ("simulate", {"pair_rate_hz": 1e6}, None),
        ("counts", {"pair_rate_hz": 1e6}, None),
    ])
    def test_low_statistics_line(self, tmp_path, capsys, command, counting, flagged):
        cfgfile = tmp_path / "cfg.json"
        cfgfile.write_text(json.dumps({"counting": counting}))
        out = tmp_path / "out"
        assert main(["--config", str(cfgfile), "--out", str(out), command]) == 0
        lines = capsys.readouterr().out.splitlines()
        low = [ln for ln in lines if "low statistics" in ln]
        if flagged is None:
            assert low == []
        else:
            assert low == [f"{command}: low statistics at step(s) {flagged} "
                           f"(fewer than 100 counts above background)"]
            assert lines.index(low[0]) == 0
        # the command's other lines are unchanged
        rest = [ln for ln in lines if ln not in low]
        assert len(rest) == (1 if command == "simulate" else 2)
        assert rest[-1].startswith(f"{command}: wrote ")

    def test_bad_initial_channel_exits_two(self, tmp_path, capsys):
        rc = main(["--out", str(tmp_path), "simulate", "--initial-channel", "9"])
        assert rc == 2
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("chip, step", [({"alpha_db_per_cm": 130}, 3),
                                            ({"others_loss_db": 3000}, 1)])
    def test_losses_that_leave_a_step_no_power_exit_two(self, tmp_path, capsys, chip, step):
        cfgfile = tmp_path / "cfg.json"
        cfgfile.write_text(json.dumps({"chip": chip}))
        out = tmp_path / "out"
        assert main(["--config", str(cfgfile), "--out", str(out), "simulate"]) == 2
        assert not out.exists()
        err = capsys.readouterr().err
        assert err.startswith(f"error: config section 'chip': step {step} has vanishing total "
                              f"output power at alpha_db_per_cm ")
        assert "others_loss_db" in err


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

    @pytest.mark.parametrize("entry", [1e308, float("inf"), float("nan")])
    def test_huge_or_non_finite_entry_exits_two_without_warnings(self, tmp_path, capsys, entry):
        # U^dagger U of a 1e308 entry overflows; the entry is rejected before it is formed
        upath = tmp_path / "u.json"
        upath.write_text(json.dumps({"re": [[entry, 0], [0, 1]], "im": [[0, 0], [0, 0]]}))
        out = tmp_path / "out"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            rc = main(["--out", str(out), "decompose", "--unitary", str(upath)])
        assert (rc, caught) == (2, [])
        assert not out.exists()
        assert capsys.readouterr().err == "error: input matrix is not unitary\n"

    @pytest.mark.parametrize("doc", [[1, 2], {"re": [[1]]}])
    def test_unitary_file_without_re_and_im_exits_two(self, tmp_path, capsys, doc):
        upath = tmp_path / "u.json"
        upath.write_text(json.dumps(doc))
        out = tmp_path / "out"
        assert main(["--out", str(out), "decompose", "--unitary", str(upath)]) == 2
        assert not out.exists()
        assert capsys.readouterr().err == (
            "error: unitary file must be a JSON object with 're' and 'im' matrices\n")

    @pytest.mark.parametrize("im", [[[0, 0]], 0, [[0, 0], [0, 0], [0, 0]]])
    def test_im_of_another_shape_exits_two(self, tmp_path, capsys, im):
        upath = tmp_path / "u.json"
        upath.write_text(json.dumps({"re": [[0, 1], [1, 0]], "im": im}))
        out = tmp_path / "out"
        rc = main(["--out", str(out), "decompose", "--unitary", str(upath)])
        assert rc == 2
        assert not out.exists()
        assert "'re' and 'im' must be matrices of one shape" in capsys.readouterr().err



class TestLargeNormModel:
    @pytest.mark.parametrize("omega_hbar", [1e7, 1e9])
    @pytest.mark.parametrize("command", ["decompose", "simulate", "train"])
    def test_exits_zero(self, tmp_path, capsys, omega_hbar, command):
        # a valid model whose eigen-residual exceeds 1e-9 only because ||H||_2 is large
        cfgfile = tmp_path / "cfg.json"
        cfgfile.write_text(json.dumps({"model": {"omega_hbar": omega_hbar},
                                       "training": {"max_iters": 2}}))
        assert main(["--config", str(cfgfile), "--out", str(tmp_path), command]) == 0
        assert "failure" not in capsys.readouterr().err

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

    @pytest.mark.parametrize("length", ["nan", "inf", "1e308"])
    def test_non_finite_cell_length_exits_two(self, tmp_path, capsys, length):
        out = tmp_path / "out"
        assert main(["--out", str(out), "scaling", "--cell-length", length]) == 2
        assert not out.exists()
        assert "cell_length_cm must be a positive finite number" in capsys.readouterr().err

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

    def test_model_h_field_and_dt_reach_every_row(self, tmp_path):
        # epsilon, omega_hbar and lambda come from the table; h_field, dt and n_boson from model
        small = {"model": {"n_boson": 1}, "chip": {"dim": 2}, "training": {"max_iters": 1},
                 "n_steps": 2}
        moved = {**small, "model": {"n_boson": 1, "dt": 0.5, "h_field": 2.0}}
        for name, doc in (("default", small), ("moved", moved)):
            cfgfile = tmp_path / f"{name}.json"
            cfgfile.write_text(json.dumps(doc))
            assert main(["--config", str(cfgfile), "--out", str(tmp_path / name), "compare"]) == 0
        errors = (tmp_path / "moved" / "errors.csv").read_bytes()
        assert errors != (tmp_path / "default" / "errors.csv").read_bytes()
        comparison = calibrate.compare_methods(
            calibrate.load_param_table(), MeshNoise(), TrainingConfig(max_iters=1), n_steps=2,
            model=SpinBosonParams(1.0, 1.0, 1.0, h_field=2.0, n_boson=1, dt=0.5))
        with open(tmp_path / "moved" / "errors.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        got = {(int(r["params_id"]), r["method"], int(r["step"])): float(r["error"]) for r in rows}
        for method in ("decomposition", "trained"):
            per_row = getattr(comparison, method)
            for row_id, per_step in zip(comparison.params_id, per_row.tolist()):
                for step, err in enumerate(per_step, 1):
                    assert got[(row_id, method, step)] == err

    def test_truncated_table_exits_two(self, tmp_path, capsys):
        table = tmp_path / "t.csv"
        table.write_text("epsilon,omega_hbar,lambda\n1,1,1\n")
        rc = main(["--out", str(tmp_path), "compare", "--table", str(table)])
        assert rc == 2
        assert "20 rows" in capsys.readouterr().err

    def test_repeated_column_exits_two(self, tmp_path, capsys):
        # a reader keyed on names would keep the last epsilon column and drop the 9s
        table = tmp_path / "t.csv"
        table.write_text("epsilon,epsilon,omega_hbar,lambda\n" + "9,1,1,1\n" * 20)
        out = tmp_path / "out"
        assert main(["--out", str(out), "compare", "--table", str(table)]) == 2
        assert not out.exists()
        assert "must have columns epsilon,omega_hbar,lambda" in capsys.readouterr().err

    @pytest.mark.parametrize("rows, bad_row", [
        (["1,1,1"] * 19 + ["1,1"], 20),  # a missing field
        (["1,1,1,5"] * 20, 1),  # an extra field
    ])
    def test_malformed_row_exits_two(self, tmp_path, capsys, rows, bad_row):
        table = tmp_path / "t.csv"
        table.write_text("\n".join(["epsilon,omega_hbar,lambda", *rows]) + "\n")
        out = tmp_path / "out"
        rc = main(["--out", str(out), "compare", "--table", str(table)])
        assert rc == 2
        assert not out.exists()
        assert f"row {bad_row} must have exactly 3 fields" in capsys.readouterr().err

    @pytest.mark.parametrize("last_row, column, cell", [("1,x,1", "omega_hbar", "'x'"),
                                                         ("1,1,", "lambda", "''")])
    def test_non_number_cell_names_row_and_column(self, tmp_path, capsys, last_row, column, cell):
        table = tmp_path / "t.csv"
        table.write_text("\n".join(["epsilon,omega_hbar,lambda", *["1,1,1"] * 19, last_row]) + "\n")
        out = tmp_path / "out"
        assert main(["--out", str(out), "compare", "--table", str(table)]) == 2
        assert not out.exists()
        assert (f"parameter table row 20, column {column}: {cell} is not a number"
                in capsys.readouterr().err)

    @pytest.mark.parametrize("last_row, column, cell", [("nan,1,1", "epsilon", "'nan'"),
                                                         ("1,inf,1", "omega_hbar", "'inf'"),
                                                         ("1,1,-inf", "lambda", "'-inf'")])
    def test_non_finite_cell_exits_two(self, tmp_path, capsys, last_row, column, cell):
        table = tmp_path / "t.csv"
        table.write_text("\n".join(["epsilon,omega_hbar,lambda", *["1,1,1"] * 19, last_row]) + "\n")
        out = tmp_path / "out"
        assert main(["--out", str(out), "compare", "--table", str(table)]) == 2
        assert not out.exists()
        assert (f"parameter table row 20, column {column}: {cell} is not a finite number"
                in capsys.readouterr().err)


class TestCounts:
    def test_writes_histograms_and_estimates(self, tmp_path, capsys):
        rc = main(["--out", str(tmp_path), "--seed", "7", "counts"])
        assert rc == 0
        # the default gates are 320 ps wide (+-3 sigma of 50 ps jitter, in 20 ps bins)
        # every 400 ps, which leaves 80 ps between two
        assert "peak separation ok (margin 80.0 ps)" in capsys.readouterr().out
        with open(tmp_path / "estimates.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 3 * 6
        assert (tmp_path / "histograms.csv").exists()

    def test_one_step_run_exits_zero(self, tmp_path, capsys):
        # the histogram spans a single peak; the margin still follows from the gates,
        # here +-30 ps of jitter rounded up to 40 ps in 20 ps bins
        cfgfile = tmp_path / "cfg.json"
        cfgfile.write_text(json.dumps({"counting": {"jitter_ps": 10}}))
        out = tmp_path / "out"
        assert main(["--config", str(cfgfile), "--out", str(out), "counts", "--n-steps", "1"]) == 0
        assert "peak separation ok (margin 320.0 ps)" in capsys.readouterr().out
        assert (out / "estimates.csv").exists()

    @pytest.mark.parametrize("command, estimates", [("counts", "estimates.csv"),
                                                    ("simulate", "mc.csv")])
    def test_gates_exactly_six_sigma_wide_exit_zero(self, tmp_path, command, estimates):
        # 3 sigma is three 33.3 ps bins, so each default gate is exactly 6 sigma wide
        cfgfile = tmp_path / "cfg.json"
        cfgfile.write_text(json.dumps({"counting": {"jitter_ps": 33.3, "bin_ps": 33.3}}))
        out = tmp_path / "out"
        assert main(["--config", str(cfgfile), "--out", str(out), command]) == 0
        assert (out / estimates).exists()

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

    def test_pump_period_follows_rep_rate(self, tmp_path, capsys):
        # 1000 MHz: step 3 plus jitter ends at 1100 ps, past the 1000 ps period;
        # 250 MHz: step 9 plus jitter ends at 3500 ps, before the 4000 ps period
        cfgfile = tmp_path / "cfg.json"
        cfgfile.write_text(json.dumps({"chip": {"rep_rate_mhz": 1000.0}, "n_steps": 3}))
        assert main(["--config", str(cfgfile), "--out", str(tmp_path / "a"), "counts"]) == 2
        assert "pump pulse" in capsys.readouterr().err
        cfgfile.write_text(json.dumps({"chip": {"rep_rate_mhz": 250.0}, "n_steps": 9}))
        assert main(["--config", str(cfgfile), "--out", str(tmp_path / "b"), "counts"]) == 0

    @pytest.mark.parametrize("doc, message", [
        ({"n_steps": 6}, "pump pulse"),
        ({"counting": {"jitter_ps": 70}}, "config section 'counting': jitter too large"),
        ({"counting": {"bin_ps": 7e-4}}, "config section 'counting': bin_ps"),
        ({"chip": {"rep_rate_mhz": 1000.0}}, "pump pulse"),
    ])
    def test_only_counting_commands_check_the_counting_geometry(self, tmp_path, capsys,
                                                                monkeypatch, doc, message):
        cfgfile = tmp_path / "cfg.json"
        small = {"model": {"n_boson": 1}, "chip": {"dim": 2}}
        for command in ("train", "compare", "decompose", "losses", "scaling"):
            case = {**doc, "training": {"max_iters": 1}}
            if command == "compare":
                case.update({key: {**doc.get(key, {}), **value} for key, value in small.items()})
            cfgfile.write_text(json.dumps(case))
            assert main(["--config", str(cfgfile), "--out", str(tmp_path / command),
                         command]) == 0, (command, capsys.readouterr().err)
        # the pump period and the gates are checked before the loop run or any evolution
        for module, name in ((loopchip, "run_loop"), (model, "evolve_exact")):
            def fail(*args, name=name, **kwargs):
                raise AssertionError(f"{name} ran")
            monkeypatch.setattr(module, name, fail)
        cfgfile.write_text(json.dumps(doc))
        for command in ("simulate", "counts"):
            out = tmp_path / command
            assert main(["--config", str(cfgfile), "--out", str(out), command]) == 2
            assert message in capsys.readouterr().err
            assert not out.exists()

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
        # chip.lossless is gone: zero the dB figures for a lossless chip
        for section, key in (("model", "foo"), ("chip", "lossless")):
            cfgfile = tmp_path / "cfg.json"
            cfgfile.write_text(json.dumps({section: {key: True}}))
            assert main(["--config", str(cfgfile), "--out", str(tmp_path), "simulate"]) == 2
            assert f"unknown keys in config section '{section}': ['{key}']" in capsys.readouterr().err

    def test_settable_value_count(self):
        # a new config knob is a deliberate edit here
        doc = config_to_dict(RunConfig())
        assert sum(len(v) if isinstance(v, dict) else 1 for v in doc.values()) == 32

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
        # 6 sigma is 312 ps, but the gates are rounded up to 2 * 160 ps = loop_delay_ps
        ({"counting": {"jitter_ps": 52}, "chip": {"loop_delay_ps": 320}}, "counting", "jitter_ps"),
        # a subnormal bin width gives an infinite bin count
        ({"counting": {"bin_ps": 5e-324}}, "counting", "bin_ps"),
        ({"counting": {"bin_ps": 1e-310}}, "counting", "bin_ps"),
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
        assert not out.exists()
        err = capsys.readouterr().err
        assert "cell" in err and "noise.sigma_split" in err

    def test_negative_seed_flag(self, tmp_path, capsys):
        out = tmp_path / "out"
        assert main(["--out", str(out), "--seed", "-1", "simulate"]) == 2
        assert not out.exists()
        assert "seed must be >= 0" in capsys.readouterr().err

    @pytest.mark.parametrize("doc", [{"model": {"dt": 1e308}},
                                     {"model": {"epsilon": 1e308, "lambda": 1e308}}])
    @pytest.mark.parametrize("command", ["simulate", "decompose", "train"])
    def test_propagator_out_of_range(self, tmp_path, capsys, doc, command):
        # the phases max|w| * dt overflow; no numpy warning is printed
        rc, out = self._run(tmp_path, doc, [command])
        assert rc == 2
        assert not out.exists()
        err = capsys.readouterr().err
        assert err.startswith("error: dt ") and "eigenvalue bound max|w|" in err
        assert "Warning" not in err

    def test_too_many_bins(self, tmp_path, capsys):
        # about 2e6 bins per channel at 7e-4 ps
        rc, out = self._run(tmp_path, {"counting": {"bin_ps": 7e-4}}, ["counts"])
        assert rc == 2
        assert not out.exists()
        assert "config section 'counting': bin_ps" in capsys.readouterr().err

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


def test_csv_formats_cells(tmp_path):
    text = _csv(["a", "b", "c"], [(1, 0.1 + 0.2, "x,y"), (2, 1e-300, "z")])
    assert text == 'a,b,c\r\n1,0.30000000000000004,"x,y"\r\n2,1e-300,z\r\n'
    # the file on disk keeps csv's \r\n line endings
    assert main(["--out", str(tmp_path), "scaling", "--modes", "2"]) == 0
    data = (tmp_path / "scaling.csv").read_bytes()
    assert data.startswith(b"modes,loss_db\r\n2,") and data.endswith(b"\r\n")
    assert data.count(b"\n") == data.count(b"\r\n") == 2


def test_readme_command_lines_parse():
    text = README.read_text()
    block = text.split("## Command line", 1)[1].split("```sh", 1)[1].split("```", 1)[0]
    lines = [ln for ln in block.splitlines() if ln.startswith("loopsim ")]
    assert len(lines) >= 9
    for line in lines:
        build_parser().parse_args(shlex.split(line)[1:])


def test_cli_import_loads_no_scipy():
    # loopsim needs only numpy at run time; scipy is a test oracle
    code = ("import sys, loopsim.cli; print(sorted(n for n in sys.modules "
            "if n == 'scipy' or n.startswith('scipy.')))")
    assert run_python("-c", code).stdout.strip() == "[]"


@pytest.mark.parametrize("module", ["loopsim", "loopsim.cli"])
def test_run_as_a_module_exits_with_mains_code(tmp_path, module):
    done = run_python("-m", module, "--dump-config", "simulate")
    assert (done.returncode, done.stderr) == (0, "")
    doc = json.loads(done.stdout)
    assert config_to_dict(config_from_dict(doc)) == doc
    missing = str(tmp_path / "nope.json")
    done = run_python("-m", module, "--config", missing, "simulate", check=False)
    assert (done.returncode, done.stderr) == (2, f"error: --config {missing!r} is not a file\n")


class TestPaths:
    """A bad input or output path exits 2 before any work, and nothing is written."""

    @pytest.fixture(autouse=True)
    def no_work(self, monkeypatch):
        for module, name in ((model, "build_hamiltonian"), (calibrate, "compare_methods")):
            def fail(*args, name=name, **kwargs):
                raise AssertionError(f"{name} ran")
            monkeypatch.setattr(module, name, fail)

    @pytest.mark.parametrize("flag, argv", [
        ("--config", ["--config", "{missing}", "simulate"]),
        ("--config", ["--config", "{dir}", "simulate"]),
        ("--table", ["compare", "--table", "{missing}"]),
        ("--unitary", ["decompose", "--unitary", "{missing}"]),
    ])
    def test_input_path_that_is_not_a_file(self, tmp_path, capsys, flag, argv):
        names = {"missing": str(tmp_path / "nope.json"), "dir": str(tmp_path)}
        out = tmp_path / "out"
        argv = [a.format(**names) for a in argv]
        assert main(["--out", str(out), *argv]) == 2
        assert not out.exists()
        err = capsys.readouterr().err
        assert flag in err and repr(argv[argv.index(flag) + 1]) in err

    @pytest.mark.parametrize("command", ["compare", "simulate"])
    @pytest.mark.parametrize("sub", ["", "sub"])
    def test_output_path_under_a_file(self, tmp_path, capsys, command, sub):
        blocker = tmp_path / "taken"
        blocker.write_text("keep")
        out = blocker / sub if sub else blocker
        assert main(["--out", str(out), command]) == 2
        assert blocker.read_text() == "keep"
        assert [p.name for p in tmp_path.iterdir()] == ["taken"]
        err = capsys.readouterr().err
        assert "output_dir (--out)" in err and repr(str(out)) in err

    def test_output_dir_key_from_config(self, tmp_path, capsys):
        blocker = tmp_path / "taken"
        blocker.write_text("keep")
        cfgfile = tmp_path / "cfg.json"
        cfgfile.write_text(json.dumps({"output_dir": str(blocker)}))
        assert main(["--config", str(cfgfile), "scaling"]) == 2
        assert "output_dir" in capsys.readouterr().err
        assert blocker.read_text() == "keep"


class TestOutputs:
    """cli.run writes a command's files once it succeeds, and names them in one line."""

    @pytest.mark.parametrize("command, doc", [
        ("simulate", {}),
        ("decompose", {}),
        ("losses", {}),
        ("scaling", {}),
        ("train", {"training": {"max_iters": 1}}),
        ("compare", {"model": {"n_boson": 1}, "chip": {"dim": 2}, "training": {"max_iters": 1}}),
        ("counts", {}),
    ])
    def test_last_line_names_the_files_written(self, tmp_path, capsys, command, doc):
        cfgfile = tmp_path / "cfg.json"
        cfgfile.write_text(json.dumps(doc))
        out = tmp_path / "out"
        assert main(["--config", str(cfgfile), "--out", str(out), command]) == 0
        last = capsys.readouterr().out.splitlines()[-1]
        prefix, suffix = f"{command}: wrote ", f" to {out}"
        assert last.startswith(prefix) and last.endswith(suffix)
        names = last[len(prefix):-len(suffix)].split(", ")
        assert sorted(names) == sorted(p.name for p in out.iterdir())

    def test_failed_counting_run_writes_nothing(self, tmp_path, monkeypatch):
        def fail(*args, **kwargs):
            raise ValueError("counting run failed")
        monkeypatch.setattr(montecarlo, "sample_run", fail)
        out = tmp_path / "out"
        assert main(["--out", str(out), "simulate"]) == 2
        assert not out.exists()

    def test_output_file_that_is_a_directory_writes_nothing(self, tmp_path, capsys):
        # simulate returns theory.csv before chip.csv, yet neither is written
        out = tmp_path / "out"
        (out / "chip.csv").mkdir(parents=True)
        assert main(["--out", str(out), "simulate"]) == 2
        assert [p.name for p in out.iterdir()] == ["chip.csv"]
        assert not any((out / "chip.csv").iterdir())
        assert f"output file {str(out / 'chip.csv')!r} exists and is not a file" in \
            capsys.readouterr().err

    def test_failed_round_trip_writes_nothing(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(mesh, "mesh_forward", lambda plan: np.zeros((plan.dim, plan.dim)))
        out = tmp_path / "out"
        assert main(["--out", str(out), "decompose"]) == 1
        assert "round-trip error" in capsys.readouterr().out
        assert not out.exists()
