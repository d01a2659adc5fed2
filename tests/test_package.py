import ast
import importlib
import inspect
import pkgutil
from pathlib import Path

import loopsim
from loopsim import mesh
from loopsim._fields import frozen_cache
from conftest import run_python


def own_public_names(path: Path) -> list:
    """The public names a module's top-level def, class and assignment statements bind."""
    names = set()
    for node in ast.parse(path.read_text()).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.update(t.id for t in targets if isinstance(t, ast.Name))
    return sorted(n for n in names if not n.startswith("_"))


def test_public_surface():
    # Each public name is defined, and imported from, one module; adding or removing one
    # is a deliberate edit here. The package itself binds only __version__.
    surface = {path.stem: own_public_names(path)
               for path in sorted(Path(loopsim.__file__).parent.glob("*.py"))}
    assert surface == {
        "__init__": [],
        "__main__": [],
        "_fields": ["check_fields", "fits", "frozen_cache"],
        "calibrate": ["MethodComparison", "ParamTable", "TrainResult", "TrainingConfig",
                      "compare_methods", "error_metric", "finite_diff_gradient", "kl_loss",
                      "load_param_table", "theory_step_matrices", "train", "win_stats"],
        "cli": ["RunConfig", "build_parser", "cmd_compare", "cmd_counts", "cmd_decompose",
                "cmd_losses", "cmd_scaling", "cmd_simulate", "cmd_train", "config_from_dict",
                "config_to_dict", "main", "run"],
        "loopchip": ["ChipConfig", "DegenerateStepError", "conditional_probabilities",
                     "pass_amplitudes", "run_loop", "step_power_matrices"],
        "losses": ["PlatformSpec", "load_platforms", "mode_scaling_loss", "optimal_splitters",
                   "platform_comparison"],
        "mesh": ["DecompositionError", "MeshNoise", "MeshPlan", "cell_entries",
                 "clements_decompose", "forward_arrays", "mesh_forward", "meshes",
                 "noise_offsets", "plan_from_json", "plan_to_json"],
        "model": ["SpinBosonParams", "build_hamiltonian", "evolve_exact", "propagate",
                  "step_unitary"],
        "montecarlo": ["ArrivalHistogram", "CountingConfig", "ProbabilityEstimates",
                       "default_windows", "estimate_probabilities", "expected_histograms",
                       "sample_run"],
    }


def test_package_import_loads_no_module_and_no_numpy():
    code = ("import sys, loopsim; print(loopsim.__version__, sorted(n for n in sys.modules "
            "if n.startswith('loopsim.') or n.partition('.')[0] == 'numpy'), "
            "[n for n in vars(loopsim) if not n.startswith('_')])")
    assert run_python("-c", code).stdout == "0.1.0 [] []\n"


def test_argument_caches_are_bounded():
    # A functools cache keyed on its arguments holds every distinct call's
    # result; unbounded, memory would grow with the inputs seen, not with
    # problem size. A cache on a function without arguments holds one result.
    # Every cache that takes arguments is a frozen_cache, so its arrays are read-only.
    caches = {}
    for info in pkgutil.iter_modules(loopsim.__path__):
        if info.name == "__main__":
            continue
        module = importlib.import_module(f"loopsim.{info.name}")
        for name, obj in vars(module).items():
            if hasattr(obj, "cache_parameters") and obj.__module__ == module.__name__:
                caches[f"{info.name}.{name}"] = obj
    assert {"cli.build_parser", "mesh._columns", "model._propagator", "montecarlo._geometry",
            "montecarlo._expected_counts", "montecarlo._gates"} <= set(caches)
    unbounded = [name for name, f in caches.items()
                 if inspect.signature(f.__wrapped__).parameters
                 and f.cache_parameters()["maxsize"] is None]
    assert unbounded == []
    frozen = frozen_cache(1)(lambda: None).__wrapped__.__code__
    not_frozen = [name for name, f in caches.items()
                  if inspect.signature(f.__wrapped__).parameters
                  and getattr(f.__wrapped__, "__code__", None) is not frozen]
    assert not_frozen == []


def test_no_module_imports_another_modules_private_name():
    # Each module owns its underscore names; _fields is the one shared private module.
    # Caught: `from .mesh import _columns`, `from loopsim.mesh import _columns`, and
    # `mesh._columns` on a module bound by `from . import mesh` or `import loopsim.mesh as mesh`.
    package = {info.name for info in pkgutil.iter_modules(loopsim.__path__)}
    leaks = []
    for path in sorted(Path(loopsim.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text())
        bound = {}  # local name -> the loopsim module it is bound to
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and (node.level or node.module == "loopsim"
                                                     or (node.module or "").startswith("loopsim.")):
                source = (node.module or "").rpartition(".")[2]
                for alias in node.names:
                    if source in ("", "loopsim") and alias.name in package:
                        bound[alias.asname or alias.name] = alias.name
                    elif alias.name.startswith("_") and source != "_fields":
                        leaks.append(f"{path.name}: from {source} import {alias.name}")
            elif isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.name.startswith("loopsim.") and alias.asname:
                        bound[alias.asname] = alias.name.rpartition(".")[2]
        for node in ast.walk(tree):
            if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                    and bound.get(node.value.id, "_fields") != "_fields" and node.attr.startswith("_")):
                leaks.append(f"{path.name}: {node.value.id}.{node.attr}")
    assert leaks == []


def test_only_mesh_evaluates_a_mesh():
    # mesh.meshes is the one mesh evaluation path: no other module binds the entry and chain
    # stages, under any name, or reads them off the mesh module.
    stages = ("cell_entries", "forward_arrays")
    found = []
    for info in pkgutil.iter_modules(loopsim.__path__):
        if info.name in ("__main__", "mesh"):
            continue
        module = importlib.import_module(f"loopsim.{info.name}")
        found += [f"{info.name}.{name}" for name, value in vars(module).items()
                  if any(value is getattr(mesh, stage) for stage in stages)]
        tree = ast.parse(Path(module.__file__).read_text())
        found += [f"{info.name}: .{node.attr}" for node in ast.walk(tree)
                  if isinstance(node, ast.Attribute) and node.attr in stages]
    assert found == []
