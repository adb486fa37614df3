"""Reproducible random streams and the one Born-draw rule.

All sampling in the package goes through counter-based Philox streams, so a
run is a pure function of its seed. The stream id goes in the key and the
position in the counter (Salmon et al., SC'11): ``substream(seed, *path)``
keys Philox from ``SeedSequence(seed, spawn_key=path)``, so distinct paths,
a path and its prefixes included, are unrelated streams rather than shifted
windows of one counter sequence. A run lays its draws out as one block, one
row per trial and one fixed column per draw.

Every Born draw is ``np.searchsorted(inverse_cdf(probs), u, side="right")``
for a uniform ``u`` in [0, 1). Outcomes below ``MIN_OUTCOME_PROBABILITY``
have zero width, so no uniform selects one; the same floor is where the
second Bell stage and ``project_number`` refuse to renormalise a branch.
``stacked_search`` is that draw over a stack of CDFs, each uniform on its
own row: it counts the row's entries ``<= u``, which is the same index.
``indexed_search`` is the same draw on one CDF through an exact guide table
(Chen and Asau, 1974): a power-of-two number of equal buckets over [0, 1)
settles every uniform whose bucket holds at most one entry with one
comparison, and ``np.searchsorted`` takes the rest.
"""

from __future__ import annotations

import numpy as np

#: outcomes below this probability are never drawn and never renormalised
MIN_OUTCOME_PROBABILITY = 1e-14


def substream(seed: int, *path: int) -> np.random.Generator:
    """Return the generator for a (seed, path) pair.

    ``path`` holds non-negative indices (e.g. a grid point). The seed is
    taken modulo 2**128, so a negative seed is a valid seed.
    """
    if any(idx < 0 for idx in path):
        raise ValueError("substream indices must be non-negative")
    key = np.random.SeedSequence(int(seed) & (2**128 - 1), spawn_key=path)
    return np.random.Generator(np.random.Philox(key))


def inverse_cdf(probs) -> np.ndarray:
    """CDF of ``probs`` for the draw ``np.searchsorted(cdf, u, side="right")``,
    along the last axis, so a stack of distributions gives a stack of CDFs.

    Entries below ``MIN_OUTCOME_PROBABILITY`` count as 0, and the cumulative
    sum is divided by its own last entry, so it ends at exactly 1 and every
    ``u`` in [0, 1) selects an outcome of at least the floor's probability.
    """
    probs = np.asarray(probs, dtype=float)
    cumulative = np.cumsum(np.where(probs < MIN_OUTCOME_PROBABILITY, 0.0, probs), axis=-1)
    return cumulative / cumulative[..., -1:]


def stacked_search(cdfs: np.ndarray, rows: np.ndarray, u: np.ndarray) -> np.ndarray:
    """``np.searchsorted(cdfs[rows[i]], u[i], side="right")`` for every i, over
    a stack of CDFs (keys x support), in one pass and without a sort: each row
    padded with +inf to a power of two above the support, a branchless binary
    search of fixed depth counts its entries ``<= u``, never the padding."""
    keys, support = cdfs.shape
    padded = np.full((keys, 1 << support.bit_length()), np.inf)
    padded[:, :support] = cdfs
    width, flat = padded.shape[1], padded.ravel()
    start = rows * width - 1  # one before the row's first entry
    at, step = start.copy(), width >> 1
    while step:
        at += step * (flat.take(at + step) <= u)
        step >>= 1
    return at - start


def indexed_search(cdf: np.ndarray, u: np.ndarray) -> np.ndarray:
    """``np.searchsorted(cdf, u, side="right")`` for uniforms ``u`` in [0, 1)
    on one CDF, through a guide table of M buckets, M a power of two of at
    least twice the support, so ``floor(u M)`` and the bucket edges b / M are
    exact. ``edges[b]`` counts the entries ``<= b / M`` (those with
    ``ceil(cdf M) <= b``), so bucket b holds the answer in ``[edges[b],
    edges[b + 1]]``: one comparison settles a bucket of at most one entry,
    and one ``np.searchsorted`` the few uniforms of the others."""
    buckets = 1 << (2 * len(cdf) - 1).bit_length()
    edges = np.cumsum(np.bincount(np.ceil(cdf * buckets).astype(np.intp), minlength=buckets + 1))
    b = (u * buckets).astype(np.intp)
    lo = edges[b]
    held = edges[b + 1] - lo
    k = lo + ((held > 0) & (cdf.take(lo, mode="clip") <= u))
    many = np.flatnonzero(held > 1)
    if len(many):
        k[many] = np.searchsorted(cdf, u[many], side="right")
    return k
