"""Insertion-loss budgets for the loop processor across fabrication platforms.

All bookkeeping is in dB. A splitter that keeps power fraction r on a path
contributes -10 log10(r) dB to that path; n loop passes traverse the chip n
times and the delay line n - 1 times.
"""

import json
from dataclasses import dataclass
from importlib import resources

import numpy as np

from ._fields import check_fields, fits
from .loopchip import ChipConfig


@dataclass(frozen=True)
class PlatformSpec:
    """Loss figures of one integration platform.

    alpha_db_per_cm is waveguide propagation loss; mzi_extra_db is excess
    loss per mesh cell; offchip_per_loop_db is the penalty per mesh pass
    when the delay line lives off the chip (coupling in and out).
    """

    name: str
    alpha_db_per_cm: float
    mzi_extra_db: float = 0.0
    offchip_per_loop_db: float = 0.0

    def __post_init__(self):
        check_fields(self, nonneg=("alpha_db_per_cm", "mzi_extra_db", "offchip_per_loop_db"))
        if not self.name:
            raise ValueError("name must be non-empty")


def load_platforms() -> list[PlatformSpec]:
    """The bundled platform table."""
    rows = json.loads(resources.files("loopsim.data").joinpath("platforms.json").read_text())
    return [PlatformSpec(**row) for row in rows]


def optimal_splitters(n: int) -> tuple:
    """Splitter ratios maximizing the step-n output power.

    The step-n path keeps (1 - r) r^(n-1) per splitter, maximized at
    r = (n - 1)/n.
    """
    if not (fits(n, int) and n >= 2):
        raise ValueError(f"n must be an integer >= 2 (step 1 wants no recirculation), got {n!r}")
    r_loop = (n - 1.0) / n
    return r_loop, 1.0 - r_loop


def platform_comparison(platforms, geometry: ChipConfig, ratios: tuple,
                        max_loops: int) -> np.ndarray:
    """Loss budget in dB, shape (len(platforms), max_loops): row i is platforms[i]'s
    insertion loss of the step-n output path for n = 1..max_loops. ratios =
    (r_loop, r_end) are the power fractions each splitter keeps on the loop and
    routes in or out at the ends: the step-n path crosses the end taps once and
    the loop taps n - 1 times. Raises unless every row strictly increases."""
    r_loop, r_end = ratios
    if not (fits(max_loops, int) and max_loops >= 1):
        raise ValueError(f"max_loops must be an integer >= 1, got {max_loops!r}")
    for name, r in (("r_loop", r_loop), ("r_end", r_end)):
        if not 0.0 < r < 1.0:
            raise ValueError(f"{name} must lie strictly between 0 and 1")
    # One (P, 1) column per platform figure, broadcast against n along the rows.
    alpha, mzi, offchip = np.array(
        [(p.alpha_db_per_cm, p.mzi_extra_db, p.offchip_per_loop_db) for p in platforms],
        dtype=float).reshape(-1, 3).T[:, :, None]
    cells = geometry.dim * (geometry.dim - 1) // 2
    l_chip = alpha * geometry.chip_length_cm + mzi * cells
    l_loop = alpha * geometry.loop_length_cm
    db_loop, db_end = -10.0 * np.log10(r_loop), -10.0 * np.log10(r_end)
    n = np.arange(1, max_loops + 1)
    budgets = (2.0 * db_end + (n - 1) * (2.0 * db_loop + l_chip + l_loop) + l_chip
               + geometry.others_loss_db + offchip * n)
    if not np.all(np.diff(budgets, axis=1) > 0):
        raise ValueError("loss budgets must strictly increase with the step count")
    return budgets


def mode_scaling_loss(n_modes: int, platform: PlatformSpec,
                      cell_length_cm: float = 0.5) -> float:
    """Single-pass mesh loss as the mode count grows.

    A rectangular mesh is n_modes columns deep, so the traversal length is
    n_modes * cell_length_cm and the per-cell excess is charged n_modes
    times. Mode counts are even (one spin pair per boson level) and >= 2.
    """
    if not fits(n_modes, int):
        raise ValueError(f"n_modes must be an integer, got {n_modes!r}")
    if n_modes < 2 or n_modes % 2 != 0:
        raise ValueError("n_modes must be even and >= 2")
    if not 0 < cell_length_cm < np.inf:  # also rejects NaN
        raise ValueError(f"cell_length_cm must be a positive finite number, not {cell_length_cm}")
    loss = platform.alpha_db_per_cm * n_modes * cell_length_cm + platform.mzi_extra_db * n_modes
    if not np.isfinite(loss):
        raise ValueError(f"cell_length_cm must be a positive finite number giving a finite loss, "
                         f"not {cell_length_cm} ({loss} dB)")
    return loss
