"""The config dataclasses' one field check, and the one cache decorator, frozen_cache."""

import functools
import math
import sys
from dataclasses import fields

import numpy as np

# Annotation -> (accepted types, message).
_KINDS = {int: ((int, np.integer), "an integer"),
          float: ((int, float, np.integer, np.floating), "a finite number"),
          str: ((str,), "a string")}


def check_fields(obj, positive=(), nonneg=()) -> None:
    """Raise ValueError unless each field of dataclass obj fits its annotation
    (no int, float or str field takes a bool, float fields take finite values),
    each name in positive is > 0 and each name in nonneg is >= 0."""
    for f in fields(obj):
        types, what = _KINDS.get(f.type, ((object,), None))
        value = getattr(obj, f.name)
        ok = isinstance(value, types) and not isinstance(value, bool)
        if ok and float in types:  # rejects NaN, infinities and ints too large for a float
            ok = abs(value) < (sys.float_info.max if isinstance(value, int) else math.inf)
        if what and not ok:
            raise ValueError(f"{f.name} must be {what}, got {value!r}")
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
