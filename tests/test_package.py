from types import ModuleType

import loopsim


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
