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
