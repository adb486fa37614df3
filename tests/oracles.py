"""Reference implementations the tests compare the package against."""

import numpy as np

from triwell import (AuxiliaryPrep, CrossSpeciesParams, FockCutoff, KerrParams, ShapeMismatch,
                     StateVector)
from triwell.corrections import parity_count_distribution, parity_flip
from triwell.rng import inverse_cdf


def pad_cutoff(state: StateVector, cutoff: FockCutoff) -> StateVector:
    """Embed the state into a larger cutoff (exact, zero padding)."""
    if cutoff.n_max < state.cutoff.n_max:
        raise ShapeMismatch("pad_cutoff cannot shrink the basis")
    if cutoff.n_max == state.cutoff.n_max:
        return state
    view = state.tensor_view()
    widths = [(0, cutoff.dim - state.dim)] * state.modes
    padded = np.pad(view, widths)
    return StateVector(state.modes, cutoff, padded.ravel(), state.leakage)


def parity_operation(central: StateVector, aux: AuxiliaryPrep,
                     lam: CrossSpeciesParams, kp: KerrParams, cutoff: FockCutoff,
                     u: float):
    """Collide, count the auxiliary (a Born draw on the uniform ``u``), and
    condition the central mode.

    Returns ``(m, conditional, success)`` with ``success`` iff m is even; on
    success the conditional state is the parity-flipped input. On failure the
    run is to be repeated on a fresh pre-collision copy (the odd-m conditional,
    which is the input itself, is returned for inspection but discarded by the
    protocol). The conditional lives on the basis of the count distribution.
    """
    marginal = parity_count_distribution(central, aux, lam, kp, cutoff)
    m = int(np.searchsorted(inverse_cdf(marginal), u, side="right"))
    conditional = pad_cutoff(central, FockCutoff(len(marginal) - 1))
    if m % 2 == 0:
        conditional = parity_flip(conditional)
    return m, conditional, m % 2 == 0
