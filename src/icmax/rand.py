"""Deterministic random streams.

Every piece of randomness in the package flows from an explicit 64-bit seed
through a keyed split, so independent consumers (trace samples, sketches,
per-round draws) never share or reorder a stream.
"""

from __future__ import annotations

import sys

import numpy as np


def seeded_rng(seed: int, *key: int) -> np.random.Generator:
    """Generator for the stream identified by (seed, key).

    Distinct keys give statistically independent streams; the same
    (seed, key) always reproduces the same draws regardless of what other
    streams were consumed in between.
    """
    return np.random.default_rng(np.random.SeedSequence(int(seed), spawn_key=tuple(key)))


def child_seed(seed: int, *key: int) -> int:
    """Derive a 63-bit child seed, for APIs that take a seed rather than a rng."""
    return int(seeded_rng(seed, *key).integers(0, 2**63 - 1))


# -1.0 as an int64 bit pattern; flipping its sign bit gives +1.0
_MINUS_ONE_BITS = np.float64(-1.0).view(np.int64)
_SIGN_BIT = np.int64(-(2**63))
# Entries per chunk of a raw-word draw: a chunk's words take 256 KB, where a
# whole 5000 x 256 block's would add 5 MB to the draw's peak
_CHUNK = 1 << 16


def rademacher(rng: np.random.Generator, shape) -> np.ndarray:
    """Array of independent +-1 entries, exactly those of
    rng.integers(0, 2, size=shape) with 0 as -1.0 and 1 as +1.0, leaving rng
    in the same effective state.

    integers(0, 2) keeps the top bit of a 32-bit draw (Lemire 2019), and
    PCG64 serves 32-bit draws as the low, then the high half of a 64-bit
    word (O'Neill 2014). So where rng is a PCG64 with no half word pending
    and the count is even, the entries are read off count / 2 raw words,
    _CHUNK entries at a time: each word's bits 31 and 63, in that order,
    become the sign bits of -1.0's pattern. Elsewhere (another generator, a
    pending half, an odd count, a big-endian host) the entries are the
    integer draw's, written as bit patterns into its storage.
    """
    bitgen = rng.bit_generator
    if (
        int(np.prod(shape)) % 2
        or type(bitgen) is not np.random.PCG64
        or sys.byteorder != "little"  # the int32 view below puts each low half first
        or bitgen.state["has_uint32"]
    ):
        x = rng.integers(0, 2, size=shape)
        x <<= 63
        x ^= _MINUS_ONE_BITS
        return x.view(np.float64)
    out = np.empty(shape, dtype=np.int64)
    flat = out.reshape(-1)
    for start in range(0, flat.size, _CHUNK):
        part = flat[start : start + _CHUNK]
        part[...] = bitgen.random_raw(part.size // 2).view(np.int32)  # sign-extends
        part &= _SIGN_BIT
        part ^= _MINUS_ONE_BITS
    return out.view(np.float64)
