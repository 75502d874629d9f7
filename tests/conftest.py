import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).parent))

from advreject.model import FeatureMap, RejectionModel


def random_linear_model(rng, d, scale=1.0, bias=True):
    return RejectionModel(
        theta=scale * rng.standard_normal(d),
        gamma=scale * rng.standard_normal(d),
        bias_theta=float(scale * rng.standard_normal()) if bias else 0.0,
        bias_gamma=float(scale * rng.standard_normal()) if bias else 0.0,
        feature_map=FeatureMap("identity"),
    )


def traced_peak(fn, *args, **kwargs):
    """(peak bytes that tracemalloc saw allocated while fn(*args, **kwargs)
    ran, its result)."""
    tracemalloc.start()
    try:
        result = fn(*args, **kwargs)
        return tracemalloc.get_traced_memory()[1], result
    finally:
        tracemalloc.stop()


@pytest.fixture
def rng():
    return np.random.default_rng(1234)
