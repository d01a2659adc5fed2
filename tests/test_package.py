import importlib
import inspect
import pkgutil
from types import ModuleType

import loopsim
from loopsim._fields import frozen_cache


def test_public_surface():
    # adding or removing a public name is a deliberate edit here
    names = sorted(n for n, v in vars(loopsim).items()
                   if not n.startswith("_") and not isinstance(v, ModuleType))
    assert names == [
        "ArrivalHistogram", "ChipConfig", "CountingConfig", "DecompositionError",
        "DegenerateStepError", "MeshNoise", "MeshPlan", "MethodComparison", "ParamTable",
        "PlatformSpec", "ProbabilityEstimates", "SpinBosonParams", "TrainResult",
        "TrainingConfig", "build_hamiltonian", "clements_decompose", "compare_methods",
        "conditional_probabilities", "default_windows", "error_metric", "estimate_probabilities",
        "evolve_exact", "expected_histograms", "finite_diff_gradient", "kl_loss",
        "load_param_table", "load_platforms", "mesh_forward", "mode_scaling_loss",
        "noise_offsets", "optimal_splitters", "plan_from_json", "plan_to_json",
        "platform_comparison", "propagate", "run_loop", "sample_run", "step_power_matrices",
        "step_unitary", "theory_step_matrices", "train", "win_stats",
    ]


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
