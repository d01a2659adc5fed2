"""The config dataclasses' one field check, fits; the one cache decorator, frozen_cache; and
the bounds table, every numerical bound and threshold a loopsim check compares against."""

import functools
import math
import sys
from dataclasses import fields

import numpy as np

# The bounds table. Each check reads its bound here by name. The line above an entry says what
# it bounds and why it has this value, then what it scales with today ("fixed": the same
# number at every dim, norm and setting).
# float64 machine epsilon, the unit of the rounding allowances that scale; fixed.
_EPS = np.finfo(float).eps
# step_unitary: max |H - H^dagger| of a Hermitian H, a few eps of order-1 entries; fixed.
_HERMITIAN_ATOL = 1e-12
# step_unitary: eigh's residual max |H v - v w| may reach max(this, 16 eps dim ||H||_2), as
# eigh's error grows with ||H||_2; fixed below the floor, above it scales with dim ||H||_2.
_EIG_RESIDUAL_ATOL = 1e-9
# step_unitary: max |U^dagger U - 1| of the propagator, well above eigh's rounding; fixed.
_UNITARY_ATOL = 1e-10
# clements_decompose: an input's |U_ij| - 1 and max |U^dagger U - 1|, and each nulled entry,
# so a propagator that passed _UNITARY_ATOL compiles; fixed.
_NULL_ATOL = 1e-10
# decompose: max |mesh_forward(plan) - U| of a compiled plan, 100 times _NULL_ATOL as every
# one of the N(N-1)/2 cells adds rounding; fixed.
_ROUNDTRIP_ATOL = 1e-8
# conditional_probabilities: a step whose total output power is below this is dead, 1e8
# times float64's smallest normal (2.2e-308), so only a chip that loses everything is; fixed.
_DEAD_STEP_POWER = 1e-300
# kl_loss: floor on both arguments, so the log stays finite; fixed.
_CLAMP_EPS = 1e-12
# sample_run and expected_histograms: slack above 1 of a run's total detection probability,
# as summed powers round; fixed.
_PROBABILITY_ATOL = 1e-9
# estimate_probabilities: a step's background-subtracted gated total below this is
# low_statistics, its Poisson error 1/sqrt(S) above 10%; fixed.
_MIN_SIGNAL_COUNTS = 100
# Counting: jitter sigmas in a gate's full width (default_windows' and the narrowest
# accepted), in the grid's margin past the first and last peak, and in the last step's tail
# before the next pump pulse; a normal's mass beyond 3 sigma is 0.27%. Scales with jitter_ps.
_GATE_SIGMAS = 6.0
# Histogram bins per channel: sample_run holds dim x bins floats at once, so the cap bounds
# its memory, and a too-small bin_ps is rejected, not allocated; fixed.
_MAX_BINS = 10**6
# Expected pairs, and expected background counts, per run: a bin's Poisson mean is at most
# their sum, which stays below numpy's limit of about 9.2e18; fixed.
_MAX_COUNTS = 1e18

# Annotation -> (accepted types, message).
_KINDS = {int: ((int, np.integer), "an integer"),
          float: ((int, float, np.integer, np.floating), "a finite number"),
          str: ((str,), "a string")}


def fits(value, kind) -> bool:
    """Whether value is a kind (int, float or str): never a bool, and a float one finite."""
    types = _KINDS[kind][0]
    ok = isinstance(value, types) and not isinstance(value, bool)
    if ok and float in types:  # rejects NaN, infinities and ints too large for a float
        ok = abs(value) < (sys.float_info.max if isinstance(value, int) else math.inf)
    return ok


def check_fields(obj, positive=(), nonneg=()) -> None:
    """Raise ValueError unless each field of dataclass obj fits its annotation (see fits;
    others are not checked), each name in positive is > 0 and each name in nonneg is >= 0."""
    for f in fields(obj):
        value = getattr(obj, f.name)
        if f.type in _KINDS and not fits(value, f.type):
            raise ValueError(f"{f.name} must be {_KINDS[f.type][1]}, got {value!r}")
    for name in positive:
        if not getattr(obj, name) > 0:
            raise ValueError(f"{name} must be positive")
    for name in nonneg:
        if not getattr(obj, name) >= 0:
            raise ValueError(f"{name} must be >= 0")


def frozen_cache(maxsize: int):
    """functools.lru_cache(maxsize) around a function whose returned ndarrays, alone or in
    a tuple, are made read-only on a miss. A hit is the bare lru_cache lookup, a call that
    raises caches nothing, and entries live only as long as the process."""
    def decorate(fn):
        def frozen(*args):
            result = fn(*args)
            for a in result if isinstance(result, tuple) else (result,):
                if isinstance(a, np.ndarray):
                    a.setflags(write=False)
            return result
        return functools.lru_cache(maxsize)(functools.wraps(fn)(frozen))
    return decorate
