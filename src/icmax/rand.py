"""Deterministic random streams.

Every piece of randomness in the package flows from an explicit 64-bit seed
through a keyed split, so independent consumers (trace samples, sketches,
per-round draws) never share or reorder a stream.
"""

from __future__ import annotations

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


def rademacher(rng: np.random.Generator, shape) -> np.ndarray:
    """Array of independent +-1 entries: a draw of 0 gives -1.0 and 1
    gives +1.0, written as bit patterns into the integer draw's storage."""
    x = rng.integers(0, 2, size=shape)
    x <<= 63
    x ^= _MINUS_ONE_BITS
    return x.view(np.float64)
