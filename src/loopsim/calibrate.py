"""Phase training against theoretical targets, and the mitigation comparison.

A fabricated mesh realizes its plan imperfectly. Training keeps the noise
frozen (it models fixed fabrication error) and adjusts the commanded cell
phases so the chip's conditional output distributions, across every input
channel and loop step jointly, approach the ideal model's distributions
under a KL objective.
"""

import csv
from dataclasses import dataclass, replace
from importlib import resources
from pathlib import Path

import numpy as np

from ._fields import check_fields
from .loopchip import step_power_matrices
from .mesh import MeshNoise, MeshPlan, clements_decompose, forward_arrays, mesh_forward, noise_offsets
from .model import SpinBosonParams, build_hamiltonian, step_unitary


_GRAD_EPS = 1e-6  # central-difference step of the training gradient, in radians
_CLAMP_EPS = 1e-12  # floor on both kl_loss arguments, so the log stays finite


@dataclass(frozen=True)
class TrainingConfig:
    """Optimizer settings for phase training (Adam)."""

    learning_rate: float = 0.01
    max_iters: int = 2000
    tol: float = 1e-6

    def __post_init__(self):
        check_fields(self, positive=("max_iters", "tol"), nonneg=("learning_rate",))


@dataclass
class TrainResult:
    """Trained plan, loss trace (initial value first), convergence flag."""

    plan: MeshPlan
    trace: np.ndarray
    converged: bool


@dataclass
class MethodComparison:
    """Per-step errors of both methods, shape (pairs, n_steps); a pair is one noise
    realization of one table row, whose 1-based index params_id holds."""

    params_id: tuple
    decomposition: np.ndarray
    trained: np.ndarray
    non_converged: tuple


@dataclass(frozen=True)
class ParamTable:
    """Benchmark Hamiltonian parameter rows (epsilon, omega_hbar, lam)."""

    rows: tuple


def load_param_table(path=None) -> ParamTable:
    """Parameter table from CSV; the bundled 20-row benchmark when path is None."""
    if path is None:
        text = resources.files("loopsim.data").joinpath("hamiltonian_params.csv").read_text()
    else:
        text = Path(path).read_text()
    reader = csv.DictReader(text.splitlines())
    expected = {"epsilon", "omega_hbar", "lambda"}
    if reader.fieldnames is None or set(reader.fieldnames) != expected:
        raise ValueError("parameter table must have columns epsilon,omega_hbar,lambda")
    rows = tuple(
        (float(r["epsilon"]), float(r["omega_hbar"]), float(r["lambda"])) for r in reader
    )
    if len(rows) != 20:
        raise ValueError(f"parameter table must have exactly 20 rows, got {len(rows)}")
    return ParamTable(rows)


def kl_loss(t: np.ndarray, e: np.ndarray) -> float:
    """sum(e * ln(e / t)) with both arguments clamped below at 1e-12.

    t is the theoretical target, e the chip estimate; the estimate carries
    the weights. Not symmetric.
    """
    t = np.asarray(t, dtype=float)
    e = np.asarray(e, dtype=float)
    if t.shape != e.shape:
        raise ValueError("t and e must have the same shape")
    # fmin skips NaN, as np.any(x < 0) does; initial 0 lets empty arrays pass
    if np.fmin.reduce(t, axis=None, initial=0.0) < 0 or np.fmin.reduce(e, axis=None, initial=0.0) < 0:
        raise ValueError("probabilities must be non-negative")
    tc = np.maximum(t, _CLAMP_EPS)
    ec = np.maximum(e, _CLAMP_EPS)
    return float(np.sum(ec * np.log(ec / tc)))


def theory_step_matrices(unitary: np.ndarray, n_steps: int) -> np.ndarray:
    """Ideal conditional power matrices: entry [n, k, l] = |(U^(n+1))[l, k]|^2,
    each row normalized; the loop chip's map of the ideal unitary."""
    # A transposed layout would change the summation order in error_metric.
    return np.ascontiguousarray(step_power_matrices(unitary, n_steps))


def _input_major(mats: np.ndarray) -> np.ndarray:
    """Flatten (n_steps, dim, dim) matrices input-major, then step, then channel.
    The order fixes kl_loss's summation order, and with it the training losses."""
    return np.ascontiguousarray(np.transpose(mats, (1, 0, 2))).ravel()


def finite_diff_gradient(fn, x: np.ndarray, eps: float) -> np.ndarray:
    """Central-difference gradient of a scalar function."""
    g = np.empty_like(x)
    for i in range(x.size):
        xp = x.copy()
        xm = x.copy()
        xp[i] += eps
        xm[i] -= eps
        g[i] = (fn(xp) - fn(xm)) / (2.0 * eps)
    return g


def train(plan: MeshPlan, noise, target: np.ndarray, tc: TrainingConfig) -> TrainResult:
    """Adjust commanded cell phases to pull the noisy chip toward the target.

    The target holds the ideal (n_steps, dim, dim) step matrices (see
    theory_step_matrices); its first axis fixes the step count. The chip's
    losses and splitter ratios are left out: they scale every step
    uniformly, so row normalization cancels them. Noise offsets are frozen
    for the whole run. The best parameters seen are returned, so the final
    loss never exceeds the initial one; convergence means reaching tc.tol.
    An already-converged start returns immediately with a one-entry trace.
    """
    dim = plan.dim
    target = np.asarray(target, dtype=float)
    if target.ndim != 3 or len(target) < 1 or target.shape[1:] != (dim, dim):
        raise ValueError(f"target must have shape (n_steps >= 1, {dim}, {dim}), not {target.shape}")
    n_steps = target.shape[0]
    flat_target = _input_major(target)
    n_cells = len(plan.los)
    offsets = noise_offsets(noise, n_cells)

    def loss_of(x):
        mesh_mat = forward_arrays(dim, plan.los, x[:n_cells], x[n_cells:], plan.output_phases,
                                  offsets)
        mats = step_power_matrices(mesh_mat, n_steps)
        return kl_loss(flat_target, _input_major(mats))

    x = np.array(plan.thetas + plan.phis, dtype=float)
    loss = loss_of(x)
    trace = [loss]
    best_x, best_loss = x.copy(), loss
    if loss <= tc.tol:
        return TrainResult(plan, np.array(trace), True)

    m = np.zeros_like(x)
    v = np.zeros_like(x)
    beta1, beta2, adam_eps = 0.9, 0.999, 1e-8
    converged = False
    for it in range(1, tc.max_iters + 1):
        g = finite_diff_gradient(loss_of, x, _GRAD_EPS)
        m = beta1 * m + (1.0 - beta1) * g
        v = beta2 * v + (1.0 - beta2) * g * g
        m_hat = m / (1.0 - beta1 ** it)
        v_hat = v / (1.0 - beta2 ** it)
        x = x - tc.learning_rate * m_hat / (np.sqrt(v_hat) + adam_eps)
        loss = loss_of(x)
        trace.append(loss)
        if loss < best_loss:
            best_loss, best_x = loss, x.copy()
        if loss <= tc.tol:
            converged = True
            break
    trained = replace(plan, thetas=tuple(best_x[:n_cells].tolist()),
                      phis=tuple(best_x[n_cells:].tolist()))
    return TrainResult(trained, np.array(trace), converged)


def error_metric(t_mats: np.ndarray, e_mats: np.ndarray, n: int) -> float:
    """Relative RMS deviation of step n: sqrt(sum((t - e)^2) / sum(t^2))."""
    t_mats = np.asarray(t_mats, dtype=float)
    e_mats = np.asarray(e_mats, dtype=float)
    if t_mats.shape != e_mats.shape:
        raise ValueError("t and e must have the same shape")
    if not 1 <= n <= t_mats.shape[0]:
        raise ValueError("step index out of range")
    t = t_mats[n - 1]
    e = e_mats[n - 1]
    denom = np.sum(t * t)
    if denom == 0.0:
        raise ValueError("target power at this step is identically zero")
    return float(np.sqrt(np.sum((t - e) ** 2) / denom))


def compare_methods(table: ParamTable, noise: MeshNoise, tc: TrainingConfig,
                    n_steps: int = 3, seeds: int = 1, n_boson: int = 3) -> MethodComparison:
    """Decomposition-only vs trained errors over the benchmark table.

    For each parameter row the ideal step propagator is compiled to a plan;
    'decomposition' evaluates that plan under noise as-is, 'trained' first
    optimizes the phases against the ideal target. seeds counts independent
    noise realizations per row; realization k of row r uses a seed derived
    from (noise.seed, r, k), so results are reproducible. n_boson sets the
    model truncation and with it the chip's 2 * n_boson modes.
    """
    if seeds < 1:
        raise ValueError("seeds must be >= 1")
    ids, dec, tr, flagged = [], [], [], []
    for row_id, (eps, omega, lam) in enumerate(table.rows, start=1):
        params = SpinBosonParams(eps, omega, lam, n_boson=n_boson)
        u = step_unitary(build_hamiltonian(params), params.dt)
        plan = clements_decompose(u)
        t_mats = theory_step_matrices(u, n_steps)
        for k in range(seeds):
            child = np.random.SeedSequence(noise.seed, spawn_key=(row_id, k))
            noise_k = replace(noise, seed=int(child.generate_state(1)[0]))
            e_dec = step_power_matrices(mesh_forward(plan, noise_k), n_steps)
            result = train(plan, noise_k, t_mats, tc)
            e_tr = step_power_matrices(mesh_forward(result.plan, noise_k), n_steps)
            ids.append(row_id)
            dec.append([error_metric(t_mats, e_dec, n) for n in range(1, n_steps + 1)])
            tr.append([error_metric(t_mats, e_tr, n) for n in range(1, n_steps + 1)])
            if not result.converged:
                flagged.append(row_id)
    return MethodComparison(tuple(ids), np.array(dec), np.array(tr), tuple(flagged))


def win_stats(comparison: MethodComparison):
    """(wins, ties, losses) of trained vs decomposition over all (pair, step).

    A NaN on either side counts as a loss.
    """
    dec, tr = comparison.decomposition, comparison.trained
    wins = int(np.count_nonzero(tr < dec))
    ties = int(np.count_nonzero(tr == dec))
    return wins, ties, dec.size - wins - ties
