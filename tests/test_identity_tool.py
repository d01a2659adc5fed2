import shutil
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "tools"))

import identity  # noqa: E402


def test_corpus_runs_and_every_command_exits_zero(tmp_path):
    # no hashes are pinned: bits can differ across BLAS builds
    codes = identity.run_tree(ROOT, tmp_path)
    readme = [label for label in codes if label.startswith("readme-")]
    assert len(readme) == len(identity.readme_commands()) >= 9
    assert {label for label in codes if label.startswith("n")} >= {
        f"n{n}-{kind}-{cmd}" for n in range(1, 9) for kind in ("float", "int")
        for cmd in ("simulate", "counts", "decompose")}
    assert "compare" in codes
    assert {label: code for label, code in codes.items() if code != 0} == {}
    files = tmp_path / "files"
    assert (files / "cli" / "compare" / "errors.csv").is_file()
    assert len(list((files / "lib").glob("*.npy"))) > 100
    assert identity.differences(files, files) == []


def test_corpus_runs_on_a_tree_without_the_names_the_roadmap_deletes(tmp_path):
    # the tool judges trees whose calibrate has no finite_diff_gradient, and whose
    # TrainingConfig has no learning_rate, so its corpus must run on them
    tree = tmp_path / "tree"
    shutil.copytree(ROOT / "src", tree / "src", ignore=shutil.ignore_patterns("__pycache__"))
    edits = {"finite_diff_gradient": "_central_difference",
             "    learning_rate: float = 0.01\n": "",
             ', nonneg=("learning_rate",)': "",
             "tc.learning_rate": "0.01"}
    for path in (tree / "src").rglob("*.py"):
        text = path.read_text()
        for old, new in edits.items():
            text = text.replace(old, new)
        assert "finite_diff_gradient" not in text and "learning_rate" not in text
        path.write_text(text)
    codes = identity.run_tree(tree, tmp_path / "out")
    assert "n1-float-train" in codes
    assert {label: code for label, code in codes.items() if code != 0} == {}


def test_differences_lists_changed_and_one_sided_files(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    for root in (a, b):
        (root / "sub").mkdir(parents=True)
        (root / "same.csv").write_text("1\n")
    (a / "sub" / "x.csv").write_text("1\n")
    (b / "sub" / "x.csv").write_text("2\n")
    (a / "gone.json").write_text("{}")
    (b / "new.json").write_text("{}")
    assert identity.differences(a, b) == [
        "gone.json (only in base)", "new.json (only in head)", str(Path("sub") / "x.csv")]


def test_numeric_summary_says_how_far_each_file_moved(tmp_path):
    import numpy as np

    a, b = tmp_path / "a", tmp_path / "b"
    for root in (a, b):
        root.mkdir()
    (a / "x.csv").write_text("step,p\n1,0.5\n2,0.25\n")
    (b / "x.csv").write_text("step,p\n1,0.5\n2,0.2500000001\n")
    (a / "plan.json").write_text('{"dim":2,"cells":[{"theta":1.0,"phi":2.0}],"name":"a"}')
    (b / "plan.json").write_text('{"dim":2,"cells":[{"theta":1.5,"phi":2.0}],"name":"b"}')
    np.save(a / "m.npy", np.array([[1.0, 2j], [0.0, np.nan]]))
    np.save(b / "m.npy", np.array([[1.0, 2j + 1e-16], [1e-300, np.nan]]))
    np.save(a / "short.npy", np.zeros(3))
    np.save(b / "short.npy", np.zeros((1, 3)))
    (a / "log.txt").write_text("a")
    (b / "log.txt").write_text("b")
    (a / "rows.csv").write_text("1\n")
    (b / "rows.csv").write_text("1\n2\n")
    summary = {p.name: identity.describe(identity.gaps(p, b / p.name)) for p in sorted(a.iterdir())}
    assert summary == {
        "log.txt": None,
        "m.npy": "max abs 1e-16, max rel 1, 2 of 4 numbers differ",
        "plan.json": "max abs 0.5, max rel 0.333, 1 of 3 numbers differ, 1 other values differ",
        "rows.csv": "1 values against 2",
        "short.npy": "max abs 0, max rel 0, 0 of 3 numbers differ, 1 other values differ",
        "x.csv": "max abs 1e-10, max rel 4e-10, 1 of 4 numbers differ",
    }


def test_numeric_diff_is_printed_and_still_exits_one(tmp_path, monkeypatch, capsys):
    def fake_run_tree(tree, out):
        (out / "files").mkdir(parents=True)
        (out / "files" / "x.csv").write_text(f"p\n{0.5 if tree.name == 'base' else 0.75}\n")
        (out / "files" / f"{tree.name}.txt").write_text("")
        return {"call": 0}

    monkeypatch.setattr(identity, "run_tree", fake_run_tree)
    assert identity.main([str(tmp_path / "base"), str(tmp_path / "head")]) == 1
    assert capsys.readouterr().out.splitlines()[2:] == [
        "differs: base.txt (only in base)", "differs: head.txt (only in head)",
        "differs: x.csv: max abs 0.25, max rel 0.333, 1 of 1 numbers differ",
        "group base.txt: 1 file", "group head.txt: 1 file",
        "group x.csv: 1 file, max abs 0.25, max rel 0.333", "3 of 3 files differ"]


def test_differing_files_are_grouped_by_command_and_by_library_function(tmp_path, monkeypatch,
                                                                        capsys):
    import numpy as np

    def fake_run_tree(tree, out):
        head = tree.name == "head"
        files = out / "files"
        for label, value in (("n1-float-simulate", 0.5), ("n2-int-simulate", 0.25),
                             ("readme-01", 1.0), ("readme-02", 2.0), ("n1-float-counts", 3.0)):
            (files / "cli" / label).mkdir(parents=True)
            moved = value * (1.5 if head and label != "n1-float-counts" else 1.0)
            (files / "cli" / label / "chip.csv").write_text(f"p\n{moved}\n")
        (files / "lib").mkdir()
        for name, value in (("step_unitary-00", 1.0), ("step_unitary-00-again", 4.0),
                            ("mesh_forward-noisy-01", 1.0)):
            moved = np.nextafter(value, 8.0) if head and name.startswith("step_unitary") else value
            np.save(files / "lib" / f"{name}.npy", np.array([moved]))
        if head:
            (files / "lib" / "sample_run-0-edges.npy").write_bytes(b"")
        return {"call": 0}

    monkeypatch.setattr(identity, "run_tree", fake_run_tree)
    assert identity.main([str(tmp_path / "base"), str(tmp_path / "head")]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert [ln for ln in lines if ln.startswith("group ")] == [
        "group cli readme: 2 files, max abs 1, max rel 0.333",
        "group cli simulate: 2 files, max abs 0.25, max rel 0.333",
        "group lib sample_run: 1 file",
        "group lib step_unitary: 2 files, max abs 8.88e-16, max rel 2.22e-16"]
    assert lines[-1] == "7 of 9 files differ"
    assert identity.group(str(Path("cli") / "compare" / "errors.csv")) == "cli compare"
    assert identity.group("exit_codes.json") == "exit_codes.json"
