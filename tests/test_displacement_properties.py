"""Property tests: the spectral displacement against the dense matrix exponential.

``_displacement_matrix`` and ``displacement_linearization_error`` evaluate
exponentials of the truncated quadrature X = a + a^dag in its eigenbasis.
``scipy.linalg.expm`` of the same truncated generator is the oracle. A
second group checks that projective number measurements of prepared states
exhaust the probability: preparations renormalise their truncation leakage,
so the outcome probabilities of every mode sum to one.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import expm

from triwell import (
    CoherentSpec,
    CutoffTooSmall,
    FockCutoff,
    SqueezedVacuumSpec,
    SuperpositionSpec,
    ZeroProbabilityBranch,
    displace,
    norm,
    prepare_cat_superposition,
    prepare_coherent,
    prepare_number,
    prepare_squeezed_vacuum,
    project_number,
    tensor,
)
from triwell.fock import _displacement_matrix

from oracles import displacement_linearization_error

TOL = 1e-12

dims = st.integers(2, 61)
magnitudes = st.floats(0.0, 3.0)
deltas = st.one_of(
    st.builds(lambda r, phi: complex(r * np.exp(1j * phi)), magnitudes, st.floats(-np.pi, np.pi)),
    st.builds(complex, st.floats(-3.0, 3.0)),
    st.builds(lambda y: complex(0.0, y), st.floats(-3.0, 3.0)),
)

PROPERTY = settings(derandomize=True, max_examples=40, deadline=None, database=None)


def lowering(dim):
    return np.diag(np.sqrt(np.arange(1, dim)), 1)


@PROPERTY
@given(delta=deltas, dim=dims)
def test_matches_the_matrix_exponential(delta, dim):
    a = lowering(dim)
    oracle = expm(delta * a.T - np.conj(delta) * a)
    assert np.abs(_displacement_matrix(delta, dim) - oracle).max() <= TOL


@PROPERTY
@given(delta=deltas, dim=dims)
def test_unitary_and_inverted_by_the_opposite_offset(delta, dim):
    forward = _displacement_matrix(delta, dim)
    eye = np.eye(dim)
    assert np.abs(forward @ forward.conj().T - eye).max() <= TOL
    assert np.abs(forward @ _displacement_matrix(-delta, dim) - eye).max() <= TOL


@PROPERTY
@given(delta=st.floats(-1.0, 1.0), dim=dims)
def test_linearization_error_matches_the_matrix_exponential(delta, dim):
    a = lowering(dim)
    x_op = a + a.T
    oracle = np.linalg.norm(expm(1j * delta * x_op) - (np.eye(dim) + 1j * delta * x_op), 2)
    assert abs(displacement_linearization_error(delta, FockCutoff(dim - 1)) - oracle) <= TOL


CUTOFF = FockCutoff(20)
# parameters whose truncation leakage at n_max 20 is nonzero but below the 1e-10 bound
single_modes = st.one_of(
    st.builds(lambda a: prepare_coherent(CoherentSpec(a), CUTOFF),
              st.complex_numbers(max_magnitude=1.8, allow_nan=False, allow_infinity=False)),
    st.builds(lambda g, b: prepare_cat_superposition(SuperpositionSpec(1.0, b, g), CUTOFF),
              st.floats(0.5, 1.8), st.complex_numbers(min_magnitude=0.1, max_magnitude=1.0)),
    st.builds(lambda r, phi: prepare_squeezed_vacuum(SqueezedVacuumSpec(r, phi), CUTOFF),
              st.floats(0.0, 0.5), st.floats(-np.pi, np.pi)),
    st.integers(0, CUTOFF.n_max).map(lambda n: prepare_number(n, CUTOFF)),
)


@PROPERTY
@given(parts=st.lists(single_modes, min_size=2, max_size=3),
       delta=st.complex_numbers(max_magnitude=0.5, allow_nan=False, allow_infinity=False))
def test_projection_probabilities_sum_to_one(parts, delta):
    state = parts[0]
    for part in parts[1:]:
        state = tensor(state, part)
    try:
        state = displace(state, 0, delta)
    except CutoffTooSmall:  # no headroom for this offset; the undisplaced state still counts
        pass
    assert abs(norm(state) - 1.0) <= TOL
    for mode in range(state.modes):
        total = 0.0
        for outcome in range(CUTOFF.dim):
            try:
                prob, conditional = project_number(state, mode, outcome)
            except ZeroProbabilityBranch:  # below 1e-14, within TOL over 21 outcomes
                continue
            assert abs(norm(conditional) - 1.0) <= TOL
            total += prob
        assert abs(total - 1.0) <= TOL
