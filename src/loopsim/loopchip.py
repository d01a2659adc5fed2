"""Recirculating-loop processor: one mesh traversed repeatedly via a delay loop.

Light enters through an input splitter, crosses the mesh, and at the output
splitter part of it leaves toward the detectors while the rest re-enters the
mesh through the delay loop. Amplitude conventions: a power ratio r scales an
amplitude by sqrt(r); a propagation loss of d dB scales it by 10^(-d/20).
Losses are tracked as scalar prefactors on a unitary core propagation, so
uniform per-step loss cancels exactly in conditional distributions.
"""

import math
from dataclasses import dataclass

import numpy as np

from ._fields import _DEAD_STEP_POWER, check_fields, fits
from .model import propagate


class DegenerateStepError(ValueError):
    """A step's total output power is numerically zero; cannot normalize. A ValueError, as
    the input (the chip's losses, or a mesh that sends no power) is at fault."""


@dataclass(frozen=True)
class ChipConfig:
    """Geometry, splitter ratios and loss figures of the loop processor.

    ratio_in is the input splitter's power fraction sent into the mesh on
    the first pass; ratio_out is the output splitter's power fraction sent
    to the detectors each pass. alpha_db_per_cm and the lengths set the
    propagation losses; others_loss_db lumps the remaining fixed losses on
    the detection path. A lossless chip sets alpha_db_per_cm and
    others_loss_db to 0 and keeps the splitters.
    """

    dim: int = 6
    ratio_in: float = 2.0 / 3.0
    ratio_out: float = 2.0 / 3.0
    alpha_db_per_cm: float = 0.6
    chip_length_cm: float = 5.0
    loop_length_cm: float = 4.0
    others_loss_db: float = 5.0
    loop_delay_ps: float = 400.0
    rep_rate_mhz: float = 500.0

    def __post_init__(self):
        check_fields(self, positive=("dim", "chip_length_cm", "loop_delay_ps", "rep_rate_mhz"),
                     nonneg=("alpha_db_per_cm", "others_loss_db"))
        for name in ("ratio_in", "ratio_out"):
            r = getattr(self, name)
            if not 0.0 < r < 1.0:
                raise ValueError(f"{name} must lie strictly between 0 and 1")
        if self.loop_length_cm < 4.0:
            raise ValueError("loop_length_cm must be >= 4 (minimum feasible loop)")


def pass_amplitudes(config: ChipConfig) -> tuple:
    """The one loss model: the chip's field factors (first, further, tap) per pass.

    Step n's detected amplitude is tap * first * further^(n-1): the field enters with
    first = sqrt(ratio_in) times the chip loss, each further pass multiplies it by
    further = sqrt((1-ratio_in)(1-ratio_out)) times loop and chip losses, and the output
    splitter taps tap = sqrt(ratio_out) of it toward the detectors, times the
    detection-path loss."""
    amp_chip, amp_loop, amp_others = (10.0 ** (-db / 20.0) for db in (
        config.alpha_db_per_cm * config.chip_length_cm,
        config.alpha_db_per_cm * config.loop_length_cm, config.others_loss_db))
    first = math.sqrt(config.ratio_in) * amp_chip
    further = math.sqrt((1.0 - config.ratio_in) * (1.0 - config.ratio_out)) * amp_loop * amp_chip
    return first, further, math.sqrt(config.ratio_out) * amp_others


def conditional_probabilities(power: np.ndarray) -> np.ndarray:
    """Per-step output distributions of run_loop's power, renormalized over channels.

    power may also stack several inputs, as step_power_matrices does: axis 0
    counts loop steps and the last axis is normalized. Uniform per-step loss
    cancels here, so for a unitary mesh these match the lossless unitary
    evolution. Raises DegenerateStepError if a step carries no power at all.
    """
    totals = power.sum(axis=-1, keepdims=True)
    # fmin skips NaN, so a NaN step cannot hide a dead one
    if np.fmin.reduce(totals, axis=None, initial=np.inf) < _DEAD_STEP_POWER:
        dead = (totals < _DEAD_STEP_POWER).reshape(len(totals), -1).any(axis=1)
        raise DegenerateStepError(f"step {int(np.argmax(dead)) + 1} has vanishing total output power")
    return power / totals


def run_loop(config: ChipConfig, mesh: np.ndarray, input_channel: int, n_steps: int) -> np.ndarray:
    """Detected power of a single-channel input over n_steps loop passes, shape
    (n_steps, dim): row n-1 is |tap first further^(n-1) mesh^n e_k|^2, each output's power
    after pass n, with pass_amplitudes' factors."""
    m = np.asarray(mesh, dtype=complex)
    if m.shape != (config.dim, config.dim):
        raise ValueError("mesh must be a dim x dim matrix")
    if not 0 <= input_channel < config.dim:
        raise ValueError("input_channel out of range")
    if not fits(n_steps, int):
        raise ValueError(f"n_steps must be an integer, got {n_steps!r}")
    first, further, tap = pass_amplitudes(config)
    scales = np.cumprod([first] + [further] * (n_steps - 1))
    return np.abs(tap * (scales[:, None] * propagate(m, m[:, input_channel], n_steps))) ** 2


def step_power_matrices(mesh: np.ndarray, n_steps: int) -> np.ndarray:
    """Row-normalized power matrices for steps 1..n_steps, shape (n_steps, dim, dim).

    Row k of matrix n is input k's step-n conditional distribution, as
    conditional_probabilities(run_loop(config, mesh, k, n_steps)) gives it,
    but all inputs propagate together as the columns of one matrix. Losses
    and splitter ratios scale each step uniformly and cancel in the row
    normalization, so no config enters. A (..., dim, dim) stack of meshes
    gives (n_steps, ..., dim, dim), each mesh's matrices bit for bit.
    """
    m = np.asarray(mesh, dtype=complex)
    return conditional_probabilities(np.abs(propagate(m, m, n_steps).swapaxes(-1, -2)) ** 2)
