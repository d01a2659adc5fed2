import ast
import re
from pathlib import Path

import numpy as np
import pytest

import loopsim
from loopsim import _fields
from loopsim.calibrate import (ParamTable, TrainingConfig, compare_methods, load_param_table,
                               theory_step_matrices)
from loopsim.loopchip import ChipConfig, run_loop, step_power_matrices
from loopsim.losses import PlatformSpec, mode_scaling_loss
from loopsim.mesh import MeshNoise
from loopsim.model import SpinBosonParams, evolve_exact, propagate
from loopsim.montecarlo import CountingConfig


def test_numpy_scalars_accepted():
    p = SpinBosonParams(np.float64(1), 1, 1, n_boson=np.int64(2))
    assert p.dim == 4


@pytest.mark.parametrize("build, match", [
    (lambda: ChipConfig(dim=True), "dim must be an integer"),
    (lambda: ChipConfig(ratio_in=True), "ratio_in must be a finite number"),
    (lambda: ChipConfig(others_loss_db=10**400), "others_loss_db must be a finite number"),
    (lambda: MeshNoise(seed=1.5), "seed must be an integer"),
    (lambda: MeshNoise(seed=-1), "seed must be >= 0"),
    (lambda: CountingConfig(jitter_ps=np.float32("nan")), "jitter_ps must be a finite number"),
    (lambda: CountingConfig(bin_ps=0), "bin_ps must be positive"),
])
def test_constructors_reject(build, match):
    with pytest.raises(ValueError, match=match):
        build()


def _compare(**kw):
    return compare_methods(ParamTable(load_param_table().rows[:1]), MeshNoise(),
                           TrainingConfig(max_iters=1), **kw)


_SIN = PlatformSpec("SiN on-chip", 0.6)


@pytest.mark.parametrize("call, name", [
    pytest.param(lambda: propagate(np.eye(2), np.eye(2), 2.5), "n_steps", id="propagate-2.5"),
    pytest.param(lambda: propagate(np.eye(2), np.eye(2), True), "n_steps", id="propagate-True"),
    pytest.param(lambda: evolve_exact(np.eye(2), 0, 2.0), "n_steps", id="evolve_exact-2.0"),
    pytest.param(lambda: step_power_matrices(np.eye(2), 2.0), "n_steps",
                 id="step_power_matrices-2.0"),
    pytest.param(lambda: theory_step_matrices(np.eye(2), "3"), "n_steps",
                 id="theory_step_matrices-str"),
    pytest.param(lambda: run_loop(ChipConfig(dim=2), np.eye(2), 0, 2.0), "n_steps",
                 id="run_loop-2.0"),
    pytest.param(lambda: run_loop(ChipConfig(dim=2), np.eye(2), 0, None), "n_steps",
                 id="run_loop-None"),
    pytest.param(lambda: mode_scaling_loss(4.0, _SIN), "n_modes", id="mode_scaling_loss-4.0"),
    pytest.param(lambda: mode_scaling_loss("4", _SIN), "n_modes", id="mode_scaling_loss-str"),
    pytest.param(lambda: mode_scaling_loss(None, _SIN), "n_modes", id="mode_scaling_loss-None"),
    pytest.param(lambda: _compare(seeds=1.5), "seeds", id="compare_methods-seeds-1.5"),
    pytest.param(lambda: _compare(seeds=None), "seeds", id="compare_methods-seeds-None"),
    pytest.param(lambda: _compare(n_steps=2.0), "n_steps", id="compare_methods-n_steps-2.0"),
])
def test_count_arguments_reject_non_integers_by_name(call, name):
    with pytest.raises(ValueError, match=f"^{name} must be an integer( >= 1)?, got "):
        call()


def test_numpy_integer_counts_accepted():
    assert propagate(np.eye(2), np.ones(2), np.int64(3)).shape == (3, 2)
    assert run_loop(ChipConfig(dim=2), np.eye(2), 0, np.int32(2)).shape == (2, 2)
    assert mode_scaling_loss(np.int64(4), _SIN) == mode_scaling_loss(4, _SIN)


# Each bound of the _fields table and the literal it replaced where it was checked.
_BOUNDS = {"_NULL_ATOL": 1e-10, "_HERMITIAN_ATOL": 1e-12, "_EIG_RESIDUAL_ATOL": 1e-9,
           "_UNITARY_ATOL": 1e-10, "_CLAMP_EPS": 1e-12, "_ROUNDTRIP_ATOL": 1e-8,
           "_DEAD_STEP_POWER": 1e-300, "_PROBABILITY_ATOL": 1e-9, "_MIN_SIGNAL_COUNTS": 100,
           "_GATE_SIGMAS": 6.0, "_MAX_BINS": 10**6, "_MAX_COUNTS": 1e18,
           "_EPS": np.finfo(float).eps}
_CHECKING = ("cli", "loopchip", "mesh", "model", "calibrate", "montecarlo")


def _module_trees():
    return {path.stem: ast.parse(path.read_text())
            for path in sorted(Path(loopsim.__file__).parent.glob("*.py"))}


def _numbers(node):
    """Every number in node's subtree: each literal, and each expression of literals alone."""
    for sub in ast.walk(node):
        leaves = [n for n in ast.walk(sub) if isinstance(n, ast.expr)]
        if isinstance(sub, (ast.Constant, ast.BinOp, ast.UnaryOp)) and all(
                isinstance(n, (ast.Constant, ast.BinOp, ast.UnaryOp)) for n in leaves):
            value = eval(compile(ast.Expression(sub), "<bound>", "eval"))
            if isinstance(value, (int, float)) and not isinstance(value, bool):
                yield value


def test_bounds_table_keeps_each_replaced_literal():
    # same value and type: an int count prints as 100 in a message, a float as 100.0
    assert {name: (type(getattr(_fields, name)), getattr(_fields, name)) for name in _BOUNDS} \
        == {name: (type(value), value) for name, value in _BOUNDS.items()}


def test_no_module_but_fields_states_a_bound():
    bound_name = re.compile(r"(_ATOL|_EPS)$|^_MAX_")
    moved = {value for name, value in _BOUNDS.items() if name != "_GATE_SIGMAS"}
    found = []
    for module, tree in _module_trees().items():
        if module == "_fields":
            continue
        for node in tree.body:
            targets = (node.targets if isinstance(node, ast.Assign)
                       else [node.target] if isinstance(node, ast.AnnAssign) else [])
            # _GRAD_EPS is the training gradient's step size, not a bound
            found += [f"{module}.{t.id}" for t in targets if isinstance(t, ast.Name)
                      and bound_name.search(t.id) and f"{module}.{t.id}" != "calibrate._GRAD_EPS"]
        if module not in _CHECKING:
            continue
        for node in ast.walk(tree):
            if isinstance(node, ast.Compare):
                found += [f"{module}:{node.lineno}: {value!r} compared"
                          for value in _numbers(node) if value in moved]
            # the gate width in jitter sigmas, or half of it
            elif isinstance(node, ast.BinOp) and isinstance(node.op, ast.Mult):
                found += [f"{module}:{node.lineno}: {side.value!r} * jitter"
                          for side in (node.left, node.right)
                          if isinstance(side, ast.Constant) and side.value in (3, 6)]
            elif isinstance(node, ast.Attribute) and node.attr == "finfo":
                found.append(f"{module}:{node.lineno}: eps re-derived")
    assert found == []
