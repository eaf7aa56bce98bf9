"""Random streams: the Rademacher draw."""

import numpy as np
import pytest

from icmax.rand import rademacher, seeded_rng

from oracles import rademacher_reference


@pytest.mark.parametrize("shape", [(0, 3), (1, 1), (1000, 256), (2000, 51), (7, 5)])
def test_rademacher_has_the_bits_of_the_float_formula(shape):
    rng, ref_rng = seeded_rng(11, 3), seeded_rng(11, 3)
    z = rademacher(rng, shape)
    ref = rademacher_reference(ref_rng, shape)
    assert z.dtype == np.float64 and z.shape == shape
    assert z.tobytes() == ref.tobytes()
    # the same stream is consumed: both generators go on alike
    assert np.array_equal(rng.integers(0, 2**62, size=9), ref_rng.integers(0, 2**62, size=9))
