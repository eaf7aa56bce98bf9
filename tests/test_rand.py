"""Random streams: the Rademacher draw."""

import numpy as np
import pytest

from icmax.rand import rademacher, seeded_rng

from oracles import rademacher_reference


def _assert_draws_alike(rng, ref_rng, shape):
    z = rademacher(rng, shape)
    ref = rademacher_reference(ref_rng, shape)
    assert z.dtype == np.float64 and z.shape == ref.shape
    assert z.tobytes() == ref.tobytes(), shape
    # the same stream is consumed: both generators go on alike
    assert rng.integers(0, 2**62) == ref_rng.integers(0, 2**62)


# even and odd counts, a zero size, and the block widths the greedy and the
# sketch draw (256, 214, 190, 50 and 17 columns)
@pytest.mark.parametrize(
    "shape",
    [(0, 3), (1, 1), (2, 1), (7, 5), (1000, 256), (5000, 256), (1000, 214), (999, 190), (2000, 50),
     (2000, 51), (999, 17), (1000, 17), 6, 9],
)
def test_rademacher_has_the_bits_of_the_float_formula(shape):
    _assert_draws_alike(seeded_rng(11, 3), seeded_rng(11, 3), shape)


def test_rademacher_reads_raw_words_where_it_can():
    # an even count from a PCG64 with no half word pending is read off raw
    # 64-bit words, which leave the generator's buffered 32-bit half as it
    # was; a 32-bit draw, as integers(0, 2) makes, overwrites it
    for shape, raw in (((64, 256), True), ((3, 3), False)):
        rng = seeded_rng(4)
        before = rng.bit_generator.state["uinteger"]
        rademacher(rng, shape)
        assert (rng.bit_generator.state["uinteger"] == before) == raw, shape


def test_rademacher_keeps_the_stream_over_mixed_odd_and_even_draws():
    # an odd count leaves half a word pending, and the next draw, odd or
    # even, starts with it
    rng, ref_rng = seeded_rng(5, 1), seeded_rng(5, 1)
    for shape in [(3, 5), (4, 4), (1, 1), (100, 256), (7, 17), (999, 17), (40, 190), (2, 2), (1000, 50)]:
        _assert_draws_alike(rng, ref_rng, shape)


def test_rademacher_after_a_pending_half_word():
    rng, ref_rng = seeded_rng(6), seeded_rng(6)
    for r in (rng, ref_rng):
        r.integers(0, 2, size=5)
    assert rng.bit_generator.state["has_uint32"]
    for shape in [(100, 256), (10, 17), (10, 50)]:
        _assert_draws_alike(rng, ref_rng, shape)


def test_rademacher_on_another_generator():
    for shape in [(100, 256), (7, 5), (0, 4)]:
        _assert_draws_alike(
            np.random.Generator(np.random.MT19937(1)), np.random.Generator(np.random.MT19937(1)), shape
        )
