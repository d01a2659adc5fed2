import numpy as np
import pytest

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


@pytest.fixture
def rng():
    return np.random.default_rng(12345)
