import numpy as np
import pytest

from loopsim.loopchip import ChipConfig
from loopsim.mesh import MeshNoise
from loopsim.model import SpinBosonParams
from loopsim.montecarlo import CountingConfig


def test_numpy_scalars_accepted():
    p = SpinBosonParams(np.float64(1), 1, 1, n_boson=np.int64(2))
    assert p.dim == 4


@pytest.mark.parametrize("build, match", [
    (lambda: ChipConfig(dim=True), "dim must be an integer"),
    (lambda: ChipConfig(ratio_in=True), "ratio_in must be a finite number"),
    (lambda: ChipConfig(others_loss_db=10**400), "others_loss_db must be a finite number"),
    (lambda: MeshNoise(seed=1.5), "seed must be an integer"),
    (lambda: MeshNoise(seed=-1), "seed must be >= 0"),
    (lambda: CountingConfig(jitter_ps=np.float32("nan")), "jitter_ps must be a finite number"),
    (lambda: CountingConfig(bin_ps=0), "bin_ps must be positive"),
])
def test_constructors_reject(build, match):
    with pytest.raises(ValueError, match=match):
        build()
