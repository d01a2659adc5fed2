"""The benchmark traces loopsim functions by name; each listed one must exist.

perfbench/spans.py raises TraceError when a function it lists is missing,
but only when the benchmark runs. Installing the tracer here catches a
rename or removal in the regular test run.
"""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_tracer_covers_every_listed_function(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT))
    import loopsim.cli  # noqa: F401  (loads every loopsim module)
    from perfbench.spans import Tracer

    original = sys.modules["loopsim.cli"].run
    tracer = Tracer()
    tracer.install()
    try:
        assert tracer.patched_names()
    finally:
        tracer.uninstall()
    assert sys.modules["loopsim.cli"].run is original
