"""The random layer: one keyed stream per path and one inverse-CDF rule."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from triwell import rng

PROPERTY = settings(derandomize=True, max_examples=60, deadline=None, database=None)

PATHS = [(), (0,), (1,), (0, 1), (1, 0)]


def test_same_seed_and_path_give_the_same_stream():
    for path in PATHS:
        first = rng.substream(7, *path).random(1000)
        assert np.array_equal(first, rng.substream(7, *path).random(1000))


def test_distinct_paths_share_no_value():
    # a path, its prefixes and its permutations are keyed apart; a shared
    # counter would repeat a run of values at some offset
    draws = {path: rng.substream(7, *path).random(100_000) for path in PATHS}
    for one, two in itertools.combinations(PATHS, 2):
        assert np.intersect1d(draws[one], draws[two]).size == 0, (one, two)


def test_negative_path_index_is_rejected():
    with pytest.raises(ValueError):
        rng.substream(7, 0, -1)


def test_negative_seed_is_a_valid_seed():
    # the seed is taken modulo 2**128, as `--seed -1` relies on
    assert np.array_equal(rng.substream(-1).random(8), rng.substream(2**128 - 1).random(8))


@pytest.mark.parametrize("where", [0, 2, 4])  # first, middle, last
def test_sub_floor_outcome_is_never_drawn(where):
    probs = np.insert([0.25, 0.5, 0.125, 0.125], where, 0.1 * rng.MIN_OUTCOME_PROBABILITY)
    cdf = rng.inverse_cdf(probs)
    assert cdf[-1] == 1.0
    assert cdf[where] == (cdf[where - 1] if where else 0.0)
    # both ends of [0, 1) and every step of the CDF below 1
    u = np.concatenate(([0.0, 1 - 2**-53], cdf[cdf < 1]))
    drawn = np.searchsorted(cdf, u, side="right")
    assert where not in drawn.tolist()
    assert set(drawn.tolist()) == set(range(len(probs))) - {where}


def test_outcome_at_the_floor_keeps_its_width():
    cdf = rng.inverse_cdf([rng.MIN_OUTCOME_PROBABILITY, 1.0])
    assert 0 < cdf[0] < cdf[1] == 1.0
    assert np.searchsorted(cdf, 0.0, side="right") == 0


def test_stacked_cdfs_are_the_row_cdfs_bit_for_bit():
    probs = rng.substream(3).random((40, 200)) ** 8  # many entries below the floor
    probs /= probs.sum(axis=1, keepdims=True)
    stacked = rng.inverse_cdf(probs)
    assert (probs < rng.MIN_OUTCOME_PROBABILITY).any()
    for row, cdf in zip(probs, stacked):
        assert np.array_equal(cdf, rng.inverse_cdf(row))


@PROPERTY
@given(support=st.sampled_from([1, 2, 3, 311, 312, 512, 513]), keys=st.sampled_from([1, 2, 43]),
       zero_share=st.sampled_from([0.0, 0.5, 0.97]), seed=st.integers(0, 2**32 - 1))
def test_stacked_search_is_searchsorted_on_each_row(support, keys, zero_share, seed):
    gen = np.random.default_rng(seed)
    probs = gen.random((keys, support))
    probs[gen.random((keys, support)) < zero_share] = 0.0  # repeated CDF values
    probs[gen.random((keys, support)) < 0.1] = rng.MIN_OUTCOME_PROBABILITY / 2  # floored
    probs[np.arange(keys), gen.integers(support, size=keys)] = 1.0  # every row has mass
    cdfs = rng.inverse_cdf(probs)
    # every step of every row, the float just below each, both ends of [0, 1)
    steps = np.unique(cdfs)
    u = np.concatenate((steps, np.nextafter(steps, 0.0), [0.0, 1 - 2**-53], gen.random(64)))
    rows = np.repeat(np.arange(keys), len(u))
    order = gen.permutation(len(rows))  # the rows of the stack interleaved
    got = rng.stacked_search(cdfs, rows[order], np.tile(u, keys)[order])
    want = np.concatenate([np.searchsorted(cdf, u, side="right") for cdf in cdfs])[order]
    assert np.array_equal(got, want)
    # the padding is never counted: u = 1 counts the row, u < 1 draws an outcome
    assert got.max() == support
    assert (got[np.tile(u, keys)[order] < 1.0] < support).all()


@PROPERTY
@given(support=st.sampled_from([1, 2, 3, 27, 41, 311, 312, 513]),
       zero_share=st.sampled_from([0.0, 0.5, 0.97]), crowded=st.booleans(),
       seed=st.integers(0, 2**32 - 1))
def test_indexed_search_is_searchsorted(support, zero_share, crowded, seed):
    gen = np.random.default_rng(seed)
    probs = gen.random(support)
    probs[gen.random(support) < zero_share] = 0.0  # repeated CDF values
    probs[gen.random(support) < 0.1] = rng.MIN_OUTCOME_PROBABILITY / 2  # floored
    if crowded:  # the upper half in a sliver above one entry: one bucket holds many
        probs[support // 2:] *= 1e-9
    probs[gen.integers(support // 2 + 1)] = 1.0  # mass, in the lower half
    cdf = rng.inverse_cdf(probs)
    buckets = 1 << (2 * support - 1).bit_length()
    held = np.bincount(np.ceil(cdf * buckets).astype(int))
    if crowded and support > 3:
        assert held.max() > support // 3
    # 0, every entry below 1 and the float just below each, the top selector
    u = np.concatenate(([0.0], cdf[cdf < 1.0], np.nextafter(cdf, 0.0), [1 - 2**-53],
                        gen.random(256)))
    got = rng.indexed_search(cdf, u)
    want = np.searchsorted(cdf, u, side="right")
    assert got.dtype == want.dtype
    assert np.array_equal(got, want)
