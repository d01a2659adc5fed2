"""End-to-end acceptance checks, one per release criterion.

Each test prints a single ACCEPTANCE line (visible with pytest -s or on
failure) and enforces its own runtime budget. Tolerances are deliberate
contract values, not implementation echoes.
"""

import time

import numpy as np
import pytest
from scipy.optimize import brentq

from loopsim.calibrate import (
    TrainingConfig,
    compare_methods,
    error_metric,
    kl_loss,
    load_param_table,
    theory_step_matrices,
    win_stats,
)
from loopsim.loopchip import ChipConfig, conditional_probabilities, run_loop
from loopsim.losses import (
    load_platforms,
    mode_scaling_loss,
    optimal_splitters,
    platform_comparison,
)
from loopsim.mesh import MeshNoise, clements_decompose, mesh_forward
from loopsim.model import SpinBosonParams, build_hamiltonian, evolve_exact, step_unitary
from loopsim.montecarlo import (
    CountingConfig,
    default_windows,
    estimate_probabilities,
    sample_run,
)
from conftest import haar_unitary


def _report(n, ok, desc):
    line = f"ACCEPTANCE {n} {'PASS' if ok else 'FAIL'}: {desc}"
    print(line)
    assert ok, line


def _default_mesh():
    params = SpinBosonParams(1.0, 1.0, 1.0)
    return step_unitary(build_hamiltonian(params), params.dt)


def test_1_mesh_roundtrip():
    start = time.perf_counter()
    rng = np.random.default_rng(2024)
    worst = 0.0
    sizes_ok = True
    for _ in range(100):
        u = haar_unitary(6, rng)
        plan = clements_decompose(u)
        sizes_ok = sizes_ok and len(plan.los) == 15
        worst = max(worst, float(np.linalg.norm(mesh_forward(plan) - u)))
    elapsed = time.perf_counter() - start
    _report(1, worst < 1e-9 and sizes_ok and elapsed < 5.0,
            f"100 Haar round-trips, worst Frobenius error {worst:.2e}, "
            f"15 cells each, {elapsed:.2f} s")


def test_2_splitter_optimum():
    start = time.perf_counter()

    def objective(r, n=3):
        return (1.0 - r) * r ** (n - 1)

    # independent numerical maximization: root of a central-difference
    # slope (direct bounded search stalls near 1e-8 on this flat peak)
    h = 1e-5
    numerical = brentq(lambda r: objective(r + h) - objective(r - h),
                       0.2, 0.999, xtol=1e-13)
    gap = abs(numerical - 2.0 / 3.0)
    formula_ok = all(optimal_splitters(n)[0] == pytest.approx((n - 1.0) / n, abs=1e-12)
                     for n in range(2, 11))
    elapsed = time.perf_counter() - start
    _report(2, gap < 1e-9 and formula_ok and elapsed < 1.0,
            f"n=3 numerical optimum off by {gap:.2e}, formula holds for n=2..10, "
            f"{elapsed:.2f} s")


def test_3_dynamics_consistency():
    start = time.perf_counter()
    worst_cell = 0.0
    worst_sum = 0.0
    for eps, om, lam in ((1.0, 1.0, 1.0), (0.5, 1.2, 0.8)):
        params = SpinBosonParams(eps, om, lam)
        u = step_unitary(build_hamiltonian(params), params.dt)
        record = run_loop(ChipConfig(), u, 0, 3)
        cond = conditional_probabilities(record)
        exact = evolve_exact(u, 0, 3)
        worst_cell = max(worst_cell, float(np.max(np.abs(cond - exact))))
        worst_sum = max(worst_sum, float(np.max(np.abs(cond.sum(axis=1) - 1.0))))
    elapsed = time.perf_counter() - start
    _report(3, worst_cell < 1e-9 and worst_sum < 1e-10 and elapsed < 1.0,
            f"both regimes: worst cell gap {worst_cell:.2e}, "
            f"worst sum gap {worst_sum:.2e}, {elapsed:.2f} s")


def test_4_uniform_loss_invariance():
    start = time.perf_counter()
    u = _default_mesh()
    base = None
    worst = 0.0
    for alpha in (0.0, 0.6, 3.0):
        for ri, ro in ((0.5, 0.5), (2.0 / 3.0, 1.0 / 3.0)):
            cfg = ChipConfig(ratio_in=ri, ratio_out=ro, alpha_db_per_cm=alpha)
            cond = conditional_probabilities(run_loop(cfg, u, 0, 3))
            if base is None:
                base = cond
            else:
                worst = max(worst, float(np.max(np.abs(cond - base))))
    elapsed = time.perf_counter() - start
    _report(4, worst <= 1e-12 and elapsed < 1.0,
            f"loss/ratio sweep shifts conditionals by at most {worst:.2e}, "
            f"{elapsed:.2f} s")


def test_5_platform_ordering():
    start = time.perf_counter()
    budgets = platform_comparison(load_platforms(), ChipConfig(),
                                  (2.0 / 3.0, 1.0 / 3.0), 3)
    by_name = {b.platform: b for b in budgets}
    sin = by_name.pop("SiN on-chip")
    strictly_lowest = all(
        sin.per_step_db[n] < other.per_step_db[n]
        for other in by_name.values()
        for n in range(3)
    )
    elapsed = time.perf_counter() - start
    _report(5, strictly_lowest and elapsed < 1.0,
            f"SiN on-chip strictly lowest L(n) for n=1..3 among "
            f"{1 + len(by_name)} platforms, {elapsed:.2f} s")


def test_6_counting_statistics():
    start = time.perf_counter()
    record = run_loop(ChipConfig(lossless=True), _default_mesh(), 0, 3)
    truth = conditional_probabilities(record)
    within = 0
    total = 0
    pooled = None
    edges = None
    for seed in range(300, 320):
        cfg = CountingConfig(pair_rate_hz=1e4, duration_s=10.0,
                             background_rate_hz=0.0, seed=seed)
        hists = sample_run(record, cfg, 400.0)
        windows = default_windows(3, cfg, 400.0)
        est = estimate_probabilities(hists, windows, cfg)
        if pooled is None:
            edges = hists[0].bin_edges_ps
            pooled = np.zeros(edges.size - 1)
        for h in hists:
            pooled += h.counts
        # binomial standard error from the true p and the gated signal count
        for n, (lo, hi) in enumerate(windows):
            sel = (edges[:-1] >= lo) & (edges[1:] <= hi)
            n_signal = sum(float(h.counts[sel].sum()) for h in hists)
            se = np.sqrt(truth[n] * (1.0 - truth[n]) / n_signal)
            gap = np.abs(est.p_hat[n] - truth[n])
            within += int(np.sum(gap <= 3.0 * np.maximum(se, 1e-15)))
            total += truth.shape[1]
    coverage = within / total
    centers = 0.5 * (edges[:-1] + edges[1:])
    centroids = []
    for n in range(3):
        lo, hi = n * 400.0 - 160.0, n * 400.0 + 160.0
        sel = (edges[:-1] >= lo) & (edges[1:] <= hi)
        centroids.append(float(np.sum(centers[sel] * pooled[sel]) / np.sum(pooled[sel])))
    seps = np.diff(centroids)
    seps_ok = bool(np.all(np.abs(seps - 400.0) <= 1.0))
    elapsed = time.perf_counter() - start
    _report(6, coverage >= 0.99 and seps_ok and elapsed < 30.0,
            f"{100.0 * coverage:.2f}% of cells within 3 SE over 20 seeds, "
            f"peak separations {seps[0]:.2f}/{seps[1]:.2f} ps, {elapsed:.1f} s")


def test_7_training_benefit():
    start = time.perf_counter()
    table = load_param_table()
    noise = MeshNoise(sigma_theta=0.05, sigma_phi=0.05, sigma_split=0.005, seed=0)
    tc = TrainingConfig(learning_rate=0.02, max_iters=300, tol=1e-6)
    comparison = compare_methods(table, noise, tc, n_steps=3, seeds=1)
    wins, ties, losses_ = win_stats(comparison)
    win_rate = (wins + ties) / (wins + ties + losses_)
    dec_all = comparison.decomposition.ravel()
    tr_all = comparison.trained.ravel()
    med_dec = float(np.median(dec_all))
    med_tr = float(np.median(tr_all))
    elapsed = time.perf_counter() - start
    _report(7, win_rate >= 0.90 and med_tr <= 0.5 * med_dec and elapsed < 600.0,
            f"trained wins or ties {wins + ties}/60 ({100.0 * win_rate:.0f}%), "
            f"median error {med_dec:.4f} -> {med_tr:.4f}, {elapsed:.0f} s")


def test_8_metric_sanity():
    start = time.perf_counter()
    rng = np.random.default_rng(8)
    metric_ok = True
    for _ in range(50):
        t = theory_step_matrices(haar_unitary(6, rng), 2)
        metric_ok = metric_ok and error_metric(t, t.copy(), 1) == 0.0
        metric_ok = metric_ok and abs(error_metric(t, np.zeros_like(t), 2) - 1.0) < 1e-12
        metric_ok = metric_ok and abs(error_metric(t, 2.0 * t, 1) - 1.0) < 1e-12
    kl_ok = True
    for _ in range(1000):
        a = rng.random(12)
        b = rng.random(12)
        t = a / a.sum()
        e = b / b.sum()
        kl_ok = kl_ok and kl_loss(t, t) == 0.0 and kl_loss(t, e) >= 0.0
    elapsed = time.perf_counter() - start
    _report(8, metric_ok and kl_ok and elapsed < 1.0,
            f"error_metric 0/1/1 suite and kl_loss >= 0 on 1000 pairs, "
            f"{elapsed:.2f} s")


def test_9_mode_scaling():
    start = time.perf_counter()
    platform = next(p for p in load_platforms() if p.name == "SiN on-chip")
    modes = np.array([2, 4, 6, 8], dtype=float)
    losses_db = np.array([mode_scaling_loss(int(m), platform) for m in modes])
    slope, intercept = np.polyfit(modes, losses_db, 1)
    fit = slope * modes + intercept
    ss_res = float(np.sum((losses_db - fit) ** 2))
    ss_tot = float(np.sum((losses_db - losses_db.mean()) ** 2))
    r2 = 1.0 - ss_res / ss_tot
    elapsed = time.perf_counter() - start
    _report(9, r2 > 0.999 and elapsed < 1.0,
            f"single-pass loss vs modes linear with R^2 = {r2:.6f}, {elapsed:.2f} s")
