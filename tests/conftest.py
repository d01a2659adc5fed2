import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import loopsim
from loopsim.loopchip import ChipConfig


def haar_unitary(n, rng):
    """Haar-random unitary via QR with phase-normalized diagonal."""
    z = (rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))) / np.sqrt(2.0)
    q, r = np.linalg.qr(z)
    d = np.diag(r)
    return q * (d / np.abs(d)).conj()


def lossless_chip(**kw):
    """A chip with every dB loss figure at zero; the splitters stay."""
    return ChipConfig(alpha_db_per_cm=0.0, others_loss_db=0.0, **kw)


def run_python(*args, check=True):
    """Run a fresh interpreter, with loopsim imported from the tree under test."""
    src = str(Path(loopsim.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p])}
    return subprocess.run([sys.executable, *args], env=env, check=check,
                          capture_output=True, text=True)


@pytest.fixture
def rng():
    return np.random.default_rng(12345)
