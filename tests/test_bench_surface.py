"""The benchmark traces loopsim functions by name; each listed one must exist.

perfbench/spans.py raises TraceError when a function it lists is missing,
but only when the benchmark runs. Installing the tracer here catches a
rename or removal in the regular test run, and a change to the work one
training iteration does that the train-table self-check would reject.
"""

import sys
from pathlib import Path

import pytest

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


@pytest.mark.parametrize("n_boson", [2, 3])
def test_training_iteration_matches_train_table_self_check(monkeypatch, n_boson):
    # train-table's traced run requires 2P + 1 loss evaluations per Adam
    # iteration (P phases), read through the benchmark's own metric, and one
    # mesh.forward_arrays call per mesh; n_boson 3 is train-table's size.
    monkeypatch.syspath_prepend(str(ROOT))
    import loopsim.cli  # noqa: F401  (the tracer patches every loopsim module)
    from loopsim import calibrate, mesh, model
    from perfbench.spans import Tracer

    params = model.SpinBosonParams(1.0, 1.0, 1.0, n_boson=n_boson)
    u = model.step_unitary(model.build_hamiltonian(params), params.dt)
    plan = mesh.clements_decompose(u)
    target = calibrate.theory_step_matrices(u, 3)
    iters = 2
    tc = calibrate.TrainingConfig(max_iters=iters, tol=1e-30)
    tracer = Tracer()
    tracer.install()
    try:
        result = calibrate.train(plan, mesh.MeshNoise(), target, tc)
    finally:
        tracer.uninstall()
    assert len(result.trace) == iters + 1 and not result.converged
    phases = 2 * len(plan.los)
    assert phases == params.dim * (params.dim - 1)
    assert tracer.metrics(1, 1.0)["calibrate.loss_evals_per_iter"][0] == 2 * phases + 1
    assert tracer.calls["mesh.forward_arrays"] == 1 + iters * (2 * phases + 1)
    # ns_per_cell divides by the cells named in forward_arrays' second argument, not by columns
    assert tracer.work["mesh.forward_arrays"] == tracer.calls["mesh.forward_arrays"] * len(plan.los)
    # The stencil is one batch: the start, then the stencil and the step's loss per iteration.
    assert tracer.calls["loopchip.step_power_matrices"] == 1 + 2 * iters
    assert tracer.calls["calibrate.kl_loss"] == 1 + 2 * iters
