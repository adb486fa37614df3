"""Reproducible random streams.

All sampling in the package goes through counter-based Philox streams, so a
run is a pure function of its seed.
"""

from __future__ import annotations

import numpy as np

_MASK64 = (1 << 64) - 1


def substream(seed: int, *path: int) -> np.random.Generator:
    """Return the generator for a (seed, path) pair.

    ``path`` may hold up to three non-negative indices (e.g. grid point and
    trial number). Distinct paths are not independent: the path fills the
    Philox counter words, and word 0 is the one the generator increments, so
    uniforms 5..8 of ``substream(s, i)`` are uniforms 1..4 of
    ``substream(s, i + 1)`` (ROADMAP item 1).
    """
    if len(path) > 3:
        raise ValueError("substream path supports at most 3 indices")
    counter = [0, 0, 0, 0]
    for slot, idx in enumerate(path):
        if idx < 0:
            raise ValueError("substream indices must be non-negative")
        counter[slot] = int(idx) & _MASK64
    bitgen = np.random.Philox(key=int(seed) & ((1 << 128) - 1), counter=counter)
    return np.random.Generator(bitgen)
