"""Entangled two-mode channel generated by a controlled cross collision.

Starting from a coherent product |alpha>|beta>, self-collisions on both
wells plus the cross-collision 2 kappa n2 n3 for a quarter collision period
t = pi/(2 kappa) produce a two-branch entangled state. When the well
frequency satisfies e0 = (j+1) kappa for an integer j the result is

    (1/2) [ (1-i) |(-i)^j alpha, (-i)^j beta>  +  (1+i) |-(-i)^j alpha, -(-i)^j beta> ]

a family of nearly orthonormal channels indexed by j (periodic mod 4). The
branch overlap makes the family Gram matrix deviate from the identity by
terms of order exp(-|alpha|^2).

At the quarter period the cross phase exp(-i pi n2 n3) is exactly the sign
(-1)^(n2 n3), in truncated space too. With a and b the self-collided
amplitudes of the two wells, row n2 of the channel is therefore

    a[n2] (even(b) + (-1)^n2 odd(b)),

a sum of two products. ``channel_factors`` returns it in that form: the
normalised even and odd parts of b are an exact orthonormal basis of the
second well, and ``generate_channel`` is their expansion.
"""

from __future__ import annotations

import numpy as np

from .dynamics import KerrParams, kerr_phases
from .errors import FrequencyConditionViolated, ShapeMismatch
from .fock import CoherentSpec, FockCutoff, StateVector, joint_leakage, prepare_coherent

FREQUENCY_RTOL = 1e-9


def channel_family_index(params: KerrParams) -> int:
    """Integer j >= 0 with e0 = (j+1) kappa, or FrequencyConditionViolated."""
    if params.kappa <= 0:
        raise FrequencyConditionViolated("channel generation needs kappa > 0")
    ratio = params.e0_over_hbar / params.kappa
    j = round(ratio) - 1
    scale = max(abs(params.e0_over_hbar), params.kappa)
    if j < 0 or abs(params.e0_over_hbar - (j + 1) * params.kappa) > FREQUENCY_RTOL * scale:
        raise FrequencyConditionViolated(
            f"e0/kappa = {ratio:.6g} is not an integer j+1 with j >= 0"
        )
    return j


def channel_factors(alpha: CoherentSpec, beta: CoherentSpec, params: KerrParams,
                    cutoff: FockCutoff) -> tuple:
    """(coefficients d x r, basis d x r, leakage) of the channel: psi[n2, n3]
    = sum_k coefficients[n2, k] basis[n3, k], the basis the normalised even
    and odd parts of the second well's self-collided amplitudes. A zero part
    is dropped, so beta = 0 gives r = 1."""
    channel_family_index(params)
    first, second = prepare_coherent(alpha, cutoff), prepare_coherent(beta, cutoff)
    phases = kerr_phases(cutoff.dim, params, np.pi / (2 * params.kappa))
    a, b = first.amplitudes * phases, second.amplitudes * phases
    n = np.arange(cutoff.dim)
    parts = [np.where(n % 2 == k, b, 0) for k in (0, 1)]
    weights = [np.linalg.norm(part) for part in parts]
    kept = [k for k in (0, 1) if weights[k] > 0]
    basis = np.stack([parts[k] / weights[k] for k in kept], axis=1)
    coefficients = np.stack([a * (-1.0) ** (k * n) * weights[k] for k in kept], axis=1)
    return coefficients, basis, joint_leakage(first.leakage, second.leakage)


def generate_channel(alpha: CoherentSpec, beta: CoherentSpec, params: KerrParams,
                     cutoff: FockCutoff) -> StateVector:
    """Collide |alpha>(x)|beta> for t = pi/(2 kappa); returns the channel state,
    the expansion of ``channel_factors``."""
    coefficients, basis, leakage = channel_factors(alpha, beta, params, cutoff)
    return StateVector(2, cutoff, (coefficients @ basis.T).ravel(), leakage)


def channel_entanglement(state: StateVector) -> float:
    """Entanglement entropy (base 2) of the first mode of a two-mode pure state."""
    if state.modes != 2:
        raise ShapeMismatch("entanglement entropy is defined here for two-mode states")
    singular = np.linalg.svd(state.tensor_view(), compute_uv=False)
    weights = singular**2
    weights = weights[weights > 1e-16]
    weights = weights / weights.sum()
    return float(-(weights * np.log2(weights)).sum())


def channel_family_overlaps(alpha: CoherentSpec, beta: CoherentSpec,
                            params: KerrParams, cutoff: FockCutoff) -> np.ndarray:
    """Gram matrix of the four family members j = 0..3 (kappa taken from params)."""
    members = []
    for j in range(4):
        kp = KerrParams((j + 1) * params.kappa, params.kappa)
        members.append(generate_channel(alpha, beta, kp, cutoff))
    gram = np.empty((4, 4), dtype=np.complex128)
    for row in range(4):
        for col in range(4):
            gram[row, col] = np.vdot(members[row].amplitudes, members[col].amplitudes)
    return gram
