"""The §6 suites' shared substrate: an overlapping network of 256 ids."""

import numpy as np
import pytest

from repro.faults import OverlappingDHNetwork


@pytest.fixture(scope="module")
def net():
    return OverlappingDHNetwork(256, np.random.default_rng(5))
