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
amplitudes of the two wells, split into parity parts a_j and b_k, the
channel is therefore

    sum_{j,k} (-1)^(jk) a_j (x) b_k,

at most four products. ``channel_factors`` returns it in that form: the
normalised parity parts of each well are an exact orthonormal basis of it
(``parity_basis``), the channel is the core C[j, k] = |a_j| |b_k| (-1)^(jk)
over the two bases, and ``generate_channel`` is its expansion. The
self-collision phases stay inside the bases, so every family member j
factors this way.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .dynamics import KerrParams, kerr_phases
from .errors import FrequencyConditionViolated, ShapeMismatch
from .fock import CoherentSpec, FockCutoff, StateVector, joint_leakage, prepare_coherent

FREQUENCY_RTOL = 1e-9


def channel_family_index(params: KerrParams) -> int:
    """Integer j >= 0 with e0 = (j+1) kappa, or FrequencyConditionViolated."""
    if params.kappa <= 0:
        raise FrequencyConditionViolated("channel generation needs kappa > 0")
    if not np.isfinite(np.pi / (2 * params.kappa)):
        raise FrequencyConditionViolated(
            f"kappa = {params.kappa:.3g} has no finite quarter period pi / (2 kappa)")
    ratio = params.e0_over_hbar / params.kappa
    j = round(ratio) - 1
    scale = max(abs(params.e0_over_hbar), params.kappa)
    if j < 0 or abs(params.e0_over_hbar - (j + 1) * params.kappa) > FREQUENCY_RTOL * scale:
        raise FrequencyConditionViolated(
            f"e0/kappa = {ratio:.6g} is not an integer j+1 with j >= 0"
        )
    return j


class ParityBasis(NamedTuple):
    """The nonzero even and odd parts of one mode's amplitudes: column k of
    ``basis`` (d x r) is the part of parity ``parities[k]`` over its norm
    ``norms[k]``, so the columns are orthonormal."""

    parities: np.ndarray
    norms: np.ndarray
    basis: np.ndarray


def parity_basis(amplitudes: np.ndarray) -> ParityBasis:
    """``amplitudes`` split by parity, a zero part dropped (r = 1 or 2)."""
    n = np.arange(len(amplitudes))
    parts = [np.where(n % 2 == p, amplitudes, 0) for p in (0, 1)]
    norms = np.array([np.linalg.norm(part) for part in parts])
    parities = np.flatnonzero(norms)
    return ParityBasis(parities, norms[parities],
                       np.stack([parts[p] / norms[p] for p in parities], axis=1))


def channel_factors(alpha: CoherentSpec, beta: CoherentSpec, params: KerrParams,
                    cutoff: FockCutoff) -> tuple:
    """(core, (first, second), leakage) of the channel: psi[n2, n3] =
    sum_jk core[j, k] first.basis[n2, j] second.basis[n3, k], over the
    ``parity_basis`` of each well's self-collided amplitudes. beta = 0 gives
    a core of one column."""
    channel_family_index(params)
    first, second = prepare_coherent(alpha, cutoff), prepare_coherent(beta, cutoff)
    phases = kerr_phases(cutoff.dim, params, np.pi / (2 * params.kappa))
    a, b = (parity_basis(well.amplitudes * phases) for well in (first, second))
    core = np.outer(a.norms, b.norms) * (-1.0) ** np.outer(a.parities, b.parities)
    return core, (a, b), joint_leakage(first.leakage, second.leakage)


def generate_channel(alpha: CoherentSpec, beta: CoherentSpec, params: KerrParams,
                     cutoff: FockCutoff) -> StateVector:
    """Collide |alpha>(x)|beta> for t = pi/(2 kappa); returns the channel state,
    the expansion of ``channel_factors``."""
    core, (first, second), leakage = channel_factors(alpha, beta, params, cutoff)
    return StateVector(2, cutoff, (first.basis @ core @ second.basis.T).ravel(), leakage)


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
