"""Reference implementations the tests compare the package against."""

import math

import numpy as np

from triwell import (AuxiliaryPrep, CrossSpeciesParams, FockCutoff, KerrParams, ShapeMismatch,
                     StateVector, evolve_cross_kerr, evolve_self_kerr, generate_channel,
                     prepare_cat_superposition, tensor)
from triwell.corrections import parity_count_distribution
from triwell.fock import apply_mode_phases
from triwell.rng import inverse_cdf


def protocol_state_by_evolution(config) -> StateVector:
    """The three-mode protocol state built in full: target (x) channel, then
    the self-collisions of modes 0 and 1 and their cross-collision for a
    quarter period, each on the d^3 amplitudes."""
    target = prepare_cat_superposition(config.target, config.cutoff)
    chan = generate_channel(config.alpha, config.beta, config.kerr, config.cutoff)
    state = tensor(target, chan)
    t = math.pi / (2 * config.kerr.kappa)
    state = evolve_self_kerr(state, 0, config.kerr, t)
    state = evolve_self_kerr(state, 1, config.kerr, t)
    return evolve_cross_kerr(state, (0, 1), config.kerr.kappa, t)


def parity_flip(central: StateVector) -> StateVector:
    """|n> -> (-1)^n |n>, the collision's action for an even count: |b> -> |-b>."""
    return apply_mode_phases(central, 0, (-1.0) ** np.arange(central.dim))


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
