"""Receiver-side conditional operations: parity flip and virtual displacement.

Parity
------
A second atomic species (the auxiliary) collides with the central mode for a
full period t = 2 pi / kappa. For distinguishable species the cross term is
lam * n_a * n_c (no identical-particle factor two), and with lam = kappa/2
and e0 - kappa = kappa/2 the collision maps

    A|b> + B|-b>   -->   A|(-1)^(m+1) b> + B|(-1)^m b>

conditioned on counting m atoms in the auxiliary afterwards: even m flips
the coherent labels (the wanted correction), odd m returns the input and
the run is repeated with a freshly prepared auxiliary. At that time every
self- and cross-collision phase is a sign, so given m the collision acts on
the central mode exactly as |n> -> (-1)^((m+1) n) |n> (up to a global
phase). Because the collision is diagonal in the auxiliary number basis,
the count distribution P(m) is exactly the auxiliary's initial number
distribution, whatever the central state: number state n gives success
probability 0 or 1, a coherent state of mean nb gives (1 + exp(-2 nb))/2,
and squeezed vacuum (even-only support) gives exactly 1.
``parity_count_distribution`` gives that count law, and ``run_protocol``
applies the sign as a column of its receiver's probe matrix;
``parity_collision`` simulates the joint two-species evolution and is kept as
their oracle.

Virtual displacement
--------------------
A small real displacement delta = (l + 1/2) pi / Im(b) applied to a
superposition of |b> and |-b> multiplies the branches by the opposite
phases exp(-/+ i delta Im b) = -/+ i (-1)^l, turning A|b> - B|-b> into
A|b+delta> + B|-b+delta| up to a global phase. Note that projecting the
displaced branches back onto the undisplaced ones reintroduces exactly
those phases, so the fidelity with the undisplaced target A|b> + B|-b> is
(|A|^2 - |B|^2)^2 exp(-delta^2) -- the operation relabels the branch pair
rather than restoring it; see the package README for the exact budget.

``p_d``, the success probability of the displacement hardware, is an
exogenous experimental number, not computed here.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .dynamics import CrossSpeciesParams, KerrParams, evolve_cross_kerr, evolve_self_kerr
from .errors import FrequencyConditionViolated, RangeError, ZeroImaginaryPart
from .fock import (
    CoherentSpec,
    FockCutoff,
    ShapeMismatch,
    SqueezedVacuumSpec,
    StateVector,
    displace,
    number_distribution,
    prepare_coherent,
    prepare_number,
    prepare_squeezed_vacuum,
    tensor,
)
from .rng import inverse_cdf

AUX_KINDS = ("number", "coherent", "squeezed_vacuum")
AUX_MAX_LEAKAGE = 1e-8
PARITY_RTOL = 1e-9
DISPLACEMENT_RATIO_WARN = 0.2


@dataclass(frozen=True)
class AuxiliaryPrep:
    """Auxiliary-species preparation: number n, coherent mean, or squeezing r."""

    kind: str
    parameter: float

    def __post_init__(self):
        if self.kind not in AUX_KINDS:
            raise ValueError(f"auxiliary kind must be one of {AUX_KINDS}")
        if self.parameter < 0:
            raise ValueError("auxiliary parameter must be >= 0")

    def prepare(self, cutoff: FockCutoff) -> StateVector:
        if self.kind == "number":
            return prepare_number(int(round(self.parameter)), cutoff)
        if self.kind == "coherent":
            return prepare_coherent(CoherentSpec(math.sqrt(self.parameter)), cutoff,
                                    max_leakage=AUX_MAX_LEAKAGE)
        return prepare_squeezed_vacuum(SqueezedVacuumSpec(self.parameter), cutoff,
                                       max_leakage=AUX_MAX_LEAKAGE)


@dataclass(frozen=True)
class EfficiencyPoint:
    """Success probabilities of one protocol setting; p_total mixes them 4-ways."""

    p_even: float
    p_d: float
    p_total: float


def total_efficiency(p_even: float, p_d: float) -> EfficiencyPoint:
    """P = (1 + P_even + P_D + P_even P_D)/4 over the four equiprobable branches."""
    for name, value in (("p_even", p_even), ("p_d", p_d)):
        if not 0.0 <= value <= 1.0:
            raise RangeError(f"{name} = {value} outside [0, 1]")
    return EfficiencyPoint(p_even, p_d, (1 + p_even + p_d + p_even * p_d) / 4)


def check_parity_conditions(lam: CrossSpeciesParams, kp: KerrParams) -> None:
    kappa = kp.kappa
    if kappa <= 0:
        raise FrequencyConditionViolated("parity collision needs kappa > 0")
    if abs(lam.lam - kappa / 2) > PARITY_RTOL * kappa:
        raise FrequencyConditionViolated(
            f"lambda = {lam.lam:.6g} must equal kappa/2 = {kappa / 2:.6g}"
        )
    if abs(kp.e0_over_hbar - 1.5 * kappa) > PARITY_RTOL * kappa:
        raise FrequencyConditionViolated(
            f"e0 - kappa = {kp.e0_over_hbar - kappa:.6g} must equal kappa/2 = {kappa / 2:.6g}"
        )


def parity_collision(central: StateVector, aux_state: StateVector,
                     lam: CrossSpeciesParams, kp: KerrParams) -> StateVector:
    """Joint aux (x) central state after the two-species collision, t = 2 pi/kappa."""
    check_parity_conditions(lam, kp)
    if central.modes != 1 or aux_state.modes != 1:
        raise ShapeMismatch("parity collision couples two single-mode states")
    joint = tensor(aux_state, central)
    t = 2 * math.pi / kp.kappa
    joint = evolve_self_kerr(joint, 0, kp, t)
    joint = evolve_self_kerr(joint, 1, kp, t)
    # distinguishable species: phase lam*m*n*t, i.e. half the identical-particle rate
    return evolve_cross_kerr(joint, (0, 1), lam.lam / 2, t)


def _work_cutoff(central: StateVector, cutoff: FockCutoff) -> FockCutoff:
    return cutoff if cutoff.n_max >= central.cutoff.n_max else central.cutoff


def parity_count_distribution(central: StateVector, aux: AuxiliaryPrep,
                              lam: CrossSpeciesParams, kp: KerrParams,
                              cutoff: FockCutoff) -> np.ndarray:
    """Exact post-collision auxiliary count distribution P(m).

    This is the auxiliary's own number distribution, on the larger of
    ``cutoff`` and the central state's cutoff; the central state sets only
    that basis.
    """
    check_parity_conditions(lam, kp)
    if central.modes != 1:
        raise ShapeMismatch("the parity collision acts on a single-mode central state")
    return number_distribution(aux.prepare(_work_cutoff(central, cutoff)), 0)


def p_even_analytic(aux: AuxiliaryPrep) -> float:
    """Closed-form even-count probability of the auxiliary preparation."""
    if aux.kind == "number":
        return 1.0 if int(round(aux.parameter)) % 2 == 0 else 0.0
    if aux.kind == "coherent":
        return (1 + math.exp(-2 * aux.parameter)) / 2
    return 1.0  # squeezed vacuum populates even occupations only


@dataclass(frozen=True)
class ParityMonteCarlo:
    """Sampled even-count frequency with its binomial standard error."""

    p_even: float
    stderr: float
    trials: int


def p_even_monte_carlo(aux: AuxiliaryPrep, central: StateVector,
                       lam: CrossSpeciesParams, kp: KerrParams, cutoff: FockCutoff,
                       trials: int, rng: np.random.Generator) -> ParityMonteCarlo:
    """Estimate P_even by Born sampling the post-collision auxiliary counts."""
    if trials < 1:
        raise RangeError("trials must be >= 1")
    cdf = inverse_cdf(parity_count_distribution(central, aux, lam, kp, cutoff))
    draws = np.searchsorted(cdf, rng.random(trials), side="right")
    hits = float(np.mean(draws % 2 == 0))
    return ParityMonteCarlo(hits, math.sqrt(max(hits * (1 - hits), 1e-12) / trials),
                            trials)


# ---------------------------------------------------------------------------
# virtual displacement


def displacement_offset(beta: complex, l: int) -> float:
    """delta = (l + 1/2) pi / Im(beta); requires a non-real reference amplitude."""
    if beta.imag == 0:
        raise ZeroImaginaryPart(
            "virtual displacement undefined for real beta (offset would diverge)"
        )
    return (l + 0.5) * math.pi / beta.imag


def virtual_displacement(central: StateVector, beta: complex, l: int = 0) -> StateVector:
    """Apply the exact displacement D(delta) with delta = (l + 1/2) pi / Im(beta).

    Warns when |delta| exceeds 0.2 |beta| (the small-offset regime the
    correction is designed for).
    """
    if central.modes != 1:
        raise ShapeMismatch("virtual displacement acts on a single-mode state")
    delta = displacement_offset(complex(beta), l)
    warn_large_offset(delta, beta)
    return displace(central, 0, delta)


def warn_large_offset(delta: float, beta: complex) -> None:
    """Warn (at the caller's caller) when |delta| exceeds 0.2 |beta|, outside
    the small-offset regime the correction is designed for."""
    if abs(delta) > DISPLACEMENT_RATIO_WARN * abs(beta):
        warnings.warn(
            f"|delta|/|beta| = {abs(delta) / abs(beta):.3g} exceeds "
            f"{DISPLACEMENT_RATIO_WARN}: branch overlap penalty exp(-delta^2) "
            f"= {math.exp(-delta**2):.3g} is significant",
            stacklevel=3,
        )
