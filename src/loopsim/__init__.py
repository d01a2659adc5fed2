"""loopsim: simulator and calibration toolkit for a recirculating-loop
photonic processor that evolves a spin-boson system in unary encoding."""

from .calibrate import (
    MethodComparison,
    ParamTable,
    TrainResult,
    TrainingConfig,
    compare_methods,
    error_metric,
    finite_diff_gradient,
    kl_loss,
    load_param_table,
    theory_step_matrices,
    train,
    win_stats,
)
from .loopchip import (
    ChipConfig,
    DegenerateStepError,
    conditional_probabilities,
    run_loop,
    step_power_matrices,
)
from .losses import (
    LossBudget,
    PlatformSpec,
    load_platforms,
    mode_scaling_loss,
    optimal_splitters,
    platform_comparison,
    ratio_loss_db,
    total_loss_db,
)
from .mesh import (
    DecompositionError,
    MeshNoise,
    MeshPlan,
    clements_decompose,
    embed_cell,
    imperfect_mzi,
    mesh_forward,
    mzi_transfer,
    noise_offsets,
    plan_from_json,
    plan_to_json,
)
from .model import (
    SpinBosonParams,
    build_hamiltonian,
    evolve_exact,
    propagate,
    step_unitary,
    truncated_ladder,
)
from .montecarlo import (
    ArrivalHistogram,
    CountingConfig,
    ProbabilityEstimates,
    default_windows,
    estimate_probabilities,
    expected_histograms,
    sample_run,
)

__version__ = "0.1.0"
