"""Insertion-loss budgets for the loop processor across fabrication platforms.

Budgets are in dB. The splitter, propagation and detection-path losses are the
simulator's, loopchip.pass_amplitudes; a platform adds only its mesh excess, charged
per column a path crosses, and its off-chip penalty per pass.
"""

import json
import math
from dataclasses import dataclass, replace
from importlib import resources

import numpy as np

from ._fields import check_fields, fits
from .loopchip import ChipConfig, pass_amplitudes


@dataclass(frozen=True)
class PlatformSpec:
    """Loss figures of one integration platform.

    alpha_db_per_cm is waveguide propagation loss; mzi_extra_db is excess
    loss per mesh cell, crossed once per column; offchip_per_loop_db is the
    penalty per mesh pass when the delay line lives off the chip (coupling in and out).
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
    """Splitter ratios (r_loop, r_end) maximizing the step-n output power: the step-n path
    keeps (1 - r) r^(n-1) per splitter, maximized at r_loop = (n - 1)/n."""
    if not (fits(n, int) and n >= 2):
        raise ValueError(f"n must be an integer >= 2 (step 1 wants no recirculation), got {n!r}")
    r_loop = (n - 1.0) / n
    return r_loop, 1.0 - r_loop


def platform_comparison(platforms, geometry: ChipConfig, ratios: tuple,
                        max_loops: int) -> np.ndarray:
    """Loss budget in dB, shape (len(platforms), max_loops): row i is platforms[i]'s
    insertion loss of the step-n output path for n = 1..max_loops. ratios = (r_loop, r_end),
    summing to 1, split each lossless splitter's power between the loop and the ends. A row
    is pass_amplitudes' loss for geometry with the platform's alpha_db_per_cm and r_end at
    both splitters, plus n times (mzi_extra_db * dim columns + offchip_per_loop_db). Raises
    unless every row strictly increases, or if a per-pass factor underflows to 0."""
    r_loop, r_end = ratios
    if not (fits(max_loops, int) and max_loops >= 1):
        raise ValueError(f"max_loops must be an integer >= 1, got {max_loops!r}")
    for name, r in (("r_loop", r_loop), ("r_end", r_end)):
        if not 0.0 < r < 1.0:
            raise ValueError(f"{name} must lie strictly between 0 and 1")
    if r_loop + r_end != 1.0:
        raise ValueError(f"r_loop {r_loop!r} and r_end {r_end!r} must sum to 1 (lossless splitters)")
    logs = []
    for p in platforms:
        chip = replace(geometry, alpha_db_per_cm=p.alpha_db_per_cm, ratio_in=r_end, ratio_out=r_end)
        for name, f in zip(("first", "further", "tap"), pass_amplitudes(chip)):
            if f == 0.0:
                raise ValueError(f"{p.name}'s per-pass factor {name} underflows to 0: infinite loss")
            logs.append(math.log10(f))
    # One (P, 1) column per factor and for the excess, broadcast against n along the rows.
    first, further, tap = np.reshape(logs, (-1, 3)).T[:, :, None]
    excess = np.array([p.mzi_extra_db * geometry.dim + p.offchip_per_loop_db for p in platforms])
    n = np.arange(1, max_loops + 1)
    budgets = -20.0 * (tap + first + (n - 1) * further) + n * excess[:, None]
    if not np.all(np.diff(budgets, axis=1) > 0):
        raise ValueError("loss budgets must strictly increase with the step count")
    return budgets


def mode_scaling_loss(n_modes: int, platform: PlatformSpec,
                      cell_length_cm: float = 0.5) -> float:
    """Single-pass mesh loss as the mode count grows. A rectangular mesh is n_modes columns
    deep, so the traversal length is n_modes * cell_length_cm and the per-cell excess is
    charged n_modes times, as platform_comparison charges it. Mode counts are even (one
    spin pair per boson level) and >= 2."""
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
