"""The config dataclasses' one field check, fits, and the one cache decorator, frozen_cache."""

import functools
import math
import sys
from dataclasses import fields

import numpy as np

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
