import subprocess
import sys
import textwrap
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"

TWO_TESTS = textwrap.dedent("""
    from hypothesis import given, settings
    from hypothesis import strategies as st


    @settings(max_examples=5, database=None)
    @given(st.integers(0, 10))
    def test_fails(x):
        assert x < 0


    def test_passes():
        pass
""")


def test_failing_hypothesis_test_does_not_stop_the_session(tmp_path):
    # Reporting a failing example must not turn a warning into an
    # INTERNALERROR (exit 3) that skips every later test.
    (tmp_path / "test_two.py").write_text(TWO_TESTS)
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-c", str(PYPROJECT), "--rootdir", str(tmp_path),
         "-p", "no:cacheprovider", "test_two.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 1, proc.stdout + proc.stderr
    assert "1 failed, 1 passed" in proc.stdout
