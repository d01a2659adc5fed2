"""Recirculating-loop processor: one mesh traversed repeatedly via a delay loop.

Light enters through an input splitter, crosses the mesh, and at the output
splitter part of it leaves toward the detectors while the rest re-enters the
mesh through the delay loop. Amplitude conventions: a power ratio r scales an
amplitude by sqrt(r); a propagation loss of d dB scales it by 10^(-d/20).
Losses are tracked as scalar prefactors on a unitary core propagation, so
uniform per-step loss cancels exactly in conditional distributions.
"""

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from ._fields import check_fields
from .model import propagate


class DegenerateStepError(RuntimeError):
    """A step's total output power is numerically zero; cannot normalize."""


@dataclass(frozen=True)
class ChipConfig:
    """Geometry, splitter ratios and loss figures of the loop processor.

    ratio_in is the input splitter's power fraction sent into the mesh on
    the first pass; ratio_out is the output splitter's power fraction sent
    to the detectors each pass. alpha_db_per_cm and the lengths set the
    propagation losses; others_loss_db lumps the remaining fixed losses on
    the detection path. lossless=True zeroes every dB figure but keeps the
    splitters.
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
    lossless: bool = False

    def __post_init__(self):
        check_fields(self, positive=("dim", "chip_length_cm", "loop_delay_ps", "rep_rate_mhz"),
                     nonneg=("alpha_db_per_cm", "others_loss_db"))
        for name in ("ratio_in", "ratio_out"):
            r = getattr(self, name)
            if not 0.0 < r < 1.0:
                raise ValueError(f"{name} must lie strictly between 0 and 1")
        if self.loop_length_cm < 4.0:
            raise ValueError("loop_length_cm must be >= 4 (minimum feasible loop)")


def _db_to_amplitude(db: float) -> float:
    return 10.0 ** (-db / 20.0)


@lru_cache(maxsize=128)
def _step_amplitudes(config: ChipConfig, n_steps: int):
    """Detection-arm amplitude, and the in-loop amplitude of steps 1..n_steps
    as a read-only array; cached, since run_loop asks for them on every call.

    The field enters with sqrt(ratio_in) times the chip loss; each further
    pass multiplies it by sqrt((1-ratio_in)(1-ratio_out)) times loop and
    chip losses. The output splitter taps sqrt(ratio_out) of it toward the
    detectors, times the detection-path loss.
    """
    if config.lossless:
        amp_chip = amp_loop = amp_others = 1.0
    else:
        amp_chip = _db_to_amplitude(config.alpha_db_per_cm * config.chip_length_cm)
        amp_loop = _db_to_amplitude(config.alpha_db_per_cm * config.loop_length_cm)
        amp_others = _db_to_amplitude(config.others_loss_db)
    in_scalar = np.sqrt(config.ratio_in) * amp_chip
    loop_scalar = (
        np.sqrt((1.0 - config.ratio_in) * (1.0 - config.ratio_out)) * amp_loop * amp_chip
    )
    out_scalar = np.sqrt(config.ratio_out) * amp_others
    scales = np.cumprod([in_scalar] + [loop_scalar] * (n_steps - 1))
    scales.setflags(write=False)
    return out_scalar, scales


def _check_mesh(mesh: np.ndarray, n_steps: int) -> np.ndarray:
    m = np.asarray(mesh, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError("mesh must be a square matrix")
    if n_steps < 1:
        raise ValueError("n_steps must be >= 1")
    return m


def _normalize_steps(power: np.ndarray) -> np.ndarray:
    """power over its sum along the last axis; axis 0 counts loop steps."""
    totals = power.sum(axis=-1, keepdims=True)
    # fmin skips NaN, so a NaN step cannot hide a dead one
    if np.fmin.reduce(totals, axis=None, initial=np.inf) < 1e-300:
        dead = (totals < 1e-300).reshape(len(totals), -1).any(axis=1)
        raise DegenerateStepError(f"step {int(np.argmax(dead)) + 1} has vanishing total output power")
    return power / totals


def run_loop(config: ChipConfig, mesh: np.ndarray, input_channel: int, n_steps: int) -> np.ndarray:
    """Detected power of a single-channel input over n_steps loop passes,
    shape (n_steps, dim); row n-1 holds each output's power after pass n.

    Step n applies the mesh for the n-th time; the output splitter taps
    sqrt(ratio_out) of the circulating field toward the detectors (times the
    detection-path loss), while sqrt((1-ratio_out)(1-ratio_in)) of it, times
    loop and chip propagation losses, re-enters the mesh.
    """
    m = _check_mesh(mesh, n_steps)
    if m.shape[0] != config.dim:
        raise ValueError("mesh must be a dim x dim matrix")
    if not 0 <= input_channel < config.dim:
        raise ValueError("input_channel out of range")
    out_scalar, scales = _step_amplitudes(config, n_steps)
    x = np.zeros(config.dim, dtype=complex)
    x[input_channel] = 1.0
    return np.abs(out_scalar * (scales[:, None] * propagate(m, x, n_steps))) ** 2


def conditional_probabilities(power: np.ndarray) -> np.ndarray:
    """Per-step output distributions of run_loop's power, renormalized over channels.

    Uniform per-step loss cancels here, so for a unitary mesh these match
    the lossless unitary evolution. Raises DegenerateStepError if a step
    carries no power at all.
    """
    return _normalize_steps(power)


def step_power_matrices(mesh: np.ndarray, n_steps: int) -> np.ndarray:
    """Row-normalized power matrices for steps 1..n_steps, shape (n_steps, dim, dim).

    Row k of matrix n is input k's step-n conditional distribution, as
    conditional_probabilities(run_loop(config, mesh, k, n_steps)) gives it,
    but all inputs propagate together as the columns of one matrix. Losses
    and splitter ratios scale each step uniformly and cancel in the row
    normalization, so no config enters.
    """
    m = _check_mesh(mesh, n_steps)
    cores = np.empty((n_steps,) + m.shape, dtype=complex)
    cores[0] = m
    for n in range(1, n_steps):
        cores[n] = m @ cores[n - 1]
    return _normalize_steps(np.abs(cores.transpose(0, 2, 1)) ** 2)
