"""Property tests: the exact parity structure against the simulated collision.

``parity_collision`` evolves the joint auxiliary (x) central state through the
two-species collision. For random central states and every auxiliary kind,
its count marginal must be the auxiliary's own distribution, and its
conditional central state for each count m must be the input times the sign
(-1)^((m+1) n) -- what ``parity_count_distribution`` and the
``oracles.parity_operation`` reference use.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from triwell import (
    AuxiliaryPrep,
    CrossSpeciesParams,
    FockCutoff,
    KerrParams,
    StateVector,
    number_distribution,
    parity_count_distribution,
    project_number,
    substream,
)
from triwell.corrections import parity_collision

from oracles import parity_flip, parity_operation

CUTOFF = FockCutoff(16)
LAM = CrossSpeciesParams(0.5)
KP = KerrParams(1.5, 1.0)
TOL = 1e-12

central_states = st.lists(
    st.complex_numbers(max_magnitude=1.0, allow_nan=False, allow_infinity=False),
    min_size=CUTOFF.dim, max_size=CUTOFF.dim,
).map(np.array).filter(lambda v: np.linalg.norm(v) > 1e-3).map(
    lambda v: StateVector(1, CUTOFF, v / np.linalg.norm(v)))

# parameters small enough for AUX_MAX_LEAKAGE at n_max 16
auxiliaries = st.one_of(
    st.integers(0, CUTOFF.n_max).map(lambda n: AuxiliaryPrep("number", n)),
    st.floats(0.0, 2.0).map(lambda mean: AuxiliaryPrep("coherent", mean)),
    st.floats(0.0, 0.3).map(lambda r: AuxiliaryPrep("squeezed_vacuum", r)),
)

PROPERTY = settings(derandomize=True, max_examples=30, deadline=None, database=None)


def assert_same_up_to_phase(state, expected):
    overlap = np.vdot(expected.amplitudes, state.amplitudes)
    phase = overlap / abs(overlap)
    assert np.abs(state.amplitudes - phase * expected.amplitudes).max() <= TOL


@PROPERTY
@given(central=central_states, aux=auxiliaries)
def test_count_distribution_matches_the_collision(central, aux):
    joint = parity_collision(central, aux.prepare(CUTOFF), LAM, KP)
    oracle = number_distribution(joint, 0)
    exact = parity_count_distribution(central, aux, LAM, KP, CUTOFF)
    assert np.abs(exact - oracle).max() <= TOL


@PROPERTY
@given(central=central_states, aux=auxiliaries)
def test_conditional_is_the_exact_sign(central, aux):
    joint = parity_collision(central, aux.prepare(CUTOFF), LAM, KP)
    for m in np.flatnonzero(number_distribution(joint, 0) > 1e-12):
        _, conditional = project_number(joint, 0, int(m))
        assert_same_up_to_phase(conditional, parity_flip(central) if m % 2 == 0 else central)


@PROPERTY
@given(central=central_states, aux=auxiliaries, seed=st.integers(0, 2**32 - 1))
def test_parity_operation_matches_the_collision(central, aux, seed):
    m, conditional, success = parity_operation(central, aux, LAM, KP, CUTOFF,
                                               substream(seed).random())
    assert success == (m % 2 == 0)
    joint = parity_collision(central, aux.prepare(CUTOFF), LAM, KP)
    _, oracle = project_number(joint, 0, m)
    assert_same_up_to_phase(conditional, oracle)
