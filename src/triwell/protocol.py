"""End-to-end teleportation runs: state building, Bell stage, corrections.

Pipeline per run: generate the two-mode channel on modes 2-3, prepare the
target superposition A|gamma> + B|-gamma> on mode 1, collide modes 1-2
(self-collisions plus identical-particle cross-collision for a quarter
period). The result is the four-branch tripartite state

    (1/2) [ -i |g, a> (A|b> - B|-b>)  +  |g, -a> (A|-b> + B|b>)
            + i |-g, a> (A|-b> - B|b>)  +  |-g, -a> (A|b> + B|-b>) ]

so reading the phase of the target mode and of mode 2 (two bits) pins which
of four states mode 3 holds. The two transmitted bits are encoded so that
the branch index directly enumerates the receiver's correction table:

    branch 0 -> nothing     branch 1 -> displacement
    branch 2 -> parity      branch 3 -> displacement then parity

with bit_target = raw_target XOR raw_mode2 and bit_mode2 = NOT raw_mode2,
where a raw bit is 0 when the mode is detected along its + branch. The
receiver sees only the two bits -- never any other function of the
pre-measurement state -- and scores against A|b> + B|-b> built from the
channel amplitude b (the teleported amplitude is the channel's, not the
target's gamma).

Randomness: trial i consumes only the counter-based stream (seed, i), so
records are reproducible and independent of execution order.

Scoring: the receiver's correction depends only on the two bits and the
auxiliary count, and the parity collision acts on mode 3 as an exact sign.
So a run builds the reference state and the count CDF once, keys the second
Bell stage by the first stage's outcome index, and scores each (stage
outcomes, applied operations) combination once, on first use.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field, replace
from functools import cached_property

import numpy as np

from .channel import channel_family_index, generate_channel
from .corrections import (
    AuxiliaryPrep,
    displacement_offset,
    parity_count_distribution,
    parity_flip,
    sample_counts,
    virtual_displacement,
)
from .dynamics import (
    CrossSpeciesParams,
    JosephsonParams,
    KerrParams,
    evolve_cross_kerr,
    evolve_self_kerr,
)
from .errors import FrequencyConditionViolated, RangeError, ZeroImaginaryPart
from .fock import (
    FockCutoff,
    CoherentSpec,
    StateVector,
    SuperpositionSpec,
    fidelity,
    prepare_cat_superposition,
    tensor,
)
from .homodyne import (
    HomodyneBackendConfig,
    HomodynePhaseDiscriminator,
    IdealPhaseDiscriminator,
    PhaseSample,
)
from .rng import substream

BACKENDS = ("ideal", "homodyne")

#: receiver correction table; assignment fixed by checking each branch state
#: against its correcting operation, then frozen
CORRECTIONS_FOR_BRANCH = {
    0: (),
    1: ("displacement",),
    2: ("parity",),
    3: ("displacement", "parity"),
}


@dataclass(frozen=True)
class ProtocolConfig:
    """Complete description of a teleportation run (seed included)."""

    target: SuperpositionSpec
    alpha: CoherentSpec
    beta: CoherentSpec
    kerr: KerrParams
    josephson: JosephsonParams
    cross_species: CrossSpeciesParams
    cutoff: FockCutoff
    measurement_backend: str = "ideal"
    p_d: float = 1.0
    trials: int = 1
    seed: int = 0
    aux: AuxiliaryPrep = field(default_factory=lambda: AuxiliaryPrep("number", 0.0))
    reference_magnitude: float | None = None

    def __post_init__(self):
        if self.measurement_backend not in BACKENDS:
            raise ValueError(f"measurement_backend must be one of {BACKENDS}")
        if self.trials < 1:
            raise ValueError("trials must be >= 1")
        if not 0.0 <= self.p_d <= 1.0:
            raise RangeError(f"p_d = {self.p_d} outside [0, 1]")

    def parity_kerr(self) -> KerrParams:
        """Well frequency retuned to e0 = 3 kappa / 2 for the parity stage."""
        return KerrParams(1.5 * self.kerr.kappa, self.kerr.kappa)


@dataclass(frozen=True)
class MeasurementOutcome:
    """Two classical bits plus the raw per-stage records."""

    bit_target: int
    bit_mode2: int
    branch: int
    raw: tuple  # (stage-1 PhaseSample, stage-2 PhaseSample)
    aux_m: int | None = None


def _bits(first: PhaseSample, second: PhaseSample) -> tuple:
    """(bit_target, bit_mode2, branch) from the raw stage bits."""
    bit_target = first.bit ^ second.bit
    bit_mode2 = 1 - second.bit
    return bit_target, bit_mode2, 2 * bit_target + bit_mode2


@dataclass(frozen=True)
class TrialRecord:
    outcome: MeasurementOutcome
    corrected: bool
    fidelity: float
    corrections_applied: tuple
    p_d_success: bool | None = None


@dataclass(frozen=True)
class ProtocolResult:
    records: list
    summary: dict


def build_protocol_state(config: ProtocolConfig) -> StateVector:
    """Three-mode protocol state: target (mode 0), channel (modes 1, 2)."""
    if channel_family_index(config.kerr) != 0:
        raise FrequencyConditionViolated(
            "protocol state generation requires e0 = kappa (family index 0)"
        )
    target = prepare_cat_superposition(config.target, config.cutoff)
    chan = generate_channel(config.alpha, config.beta, config.kerr, config.cutoff)
    state = tensor(target, chan)
    t = math.pi / (2 * config.kerr.kappa)
    state = evolve_self_kerr(state, 0, config.kerr, t)
    state = evolve_self_kerr(state, 1, config.kerr, t)
    return evolve_cross_kerr(state, (0, 1), config.kerr.kappa, t)


def reference_state(config: ProtocolConfig) -> StateVector:
    """The state teleportation should deliver: A|b> + B|-b> with the channel's b."""
    return prepare_cat_superposition(
        SuperpositionSpec(config.target.a, config.target.b, config.beta.amplitude),
        config.cutoff,
    )


class BellMeasurement:
    """Sequential two-mode phase discrimination on a three-mode protocol state.

    Each stage consumes two uniforms (selector and tie-breaker) regardless of
    backend, keeping matched-seed runs aligned between backends.
    """

    def __init__(self, state: StateVector, config: ProtocolConfig):
        if state.modes != 3:
            raise ValueError("Bell measurement expects the three-mode protocol state")
        gamma = config.target.gamma
        alpha = config.alpha.amplitude
        if config.measurement_backend == "ideal":
            self.stages = (
                IdealPhaseDiscriminator(gamma, config.cutoff),
                IdealPhaseDiscriminator(alpha, config.cutoff),
            )
        else:
            self.stages = tuple(
                HomodynePhaseDiscriminator(
                    cmath.phase(amp),
                    config.cutoff,
                    HomodyneBackendConfig(
                        reference_magnitude=config.reference_magnitude or abs(amp),
                        omega=config.josephson.omega,
                        kappa=config.kerr.kappa,
                        e0_over_hbar=config.kerr.e0_over_hbar,
                    ),
                )
                for amp in (gamma, alpha)
            )
        self._first = self.stages[0].prepare(state, 0)
        self._second = {}  # prepared second stage per stage-1 outcome index

    def draw(self, rng: np.random.Generator) -> tuple:
        """Draw both stages; returns the (stage-1, stage-2) PhaseSamples."""
        draws = rng.random(4)
        first = self._first.draw(draws[0], draws[1])
        second = self._second.get(first.outcome)
        if second is None:
            second = self.stages[1].prepare(self._first.posterior(first.outcome), 0)
            self._second[first.outcome] = second
        return first, second.draw(draws[2], draws[3])

    def posterior(self, first: PhaseSample, second: PhaseSample) -> StateVector:
        """Conditional mode-3 state after the stage samples ``first``, ``second``."""
        return self._second[first.outcome].posterior(second.outcome)

    def sample(self, rng: np.random.Generator):
        """Measure both modes; returns (outcome, conditional mode-3 state)."""
        first, second = self.draw(rng)
        outcome = MeasurementOutcome(*_bits(first, second), (first, second))
        return outcome, self.posterior(first, second)


class _Receiver:
    """Receiver of one configuration: reference, count CDF and score table."""

    def __init__(self, config: ProtocolConfig):
        self.config = config
        self.reference = reference_state(config)
        try:
            displacement_offset(complex(config.beta.amplitude), 0)
            self.can_displace = True
        except ZeroImaginaryPart:
            self.can_displace = False  # real channel amplitude: correction unavailable
        self.scores = {}

    @cached_property
    def count_cdf(self) -> np.ndarray:
        """Auxiliary count CDF, built (and its conditions checked) on first use."""
        return np.cumsum(parity_count_distribution(
            self.reference, self.config.aux, self.config.cross_species,
            self.config.parity_kerr(), self.config.cutoff,
        ))

    def draw(self, branch: int, rng: np.random.Generator) -> tuple:
        """Draw the branch's corrections from ``rng``: (p_d_success, aux_m)."""
        needed = CORRECTIONS_FOR_BRANCH[branch]
        p_d_success = aux_m = None
        if "displacement" in needed:
            p_d_success = bool(rng.random() < self.config.p_d) and self.can_displace
        if "parity" in needed:
            aux_m = int(sample_counts(self.count_cdf, rng.random()))
        return p_d_success, aux_m

    def score(self, mode3: StateVector, p_d_success, aux_m) -> float:
        """Fidelity of mode 3 after the drawn corrections."""
        if p_d_success:
            mode3 = virtual_displacement(mode3, self.config.beta.amplitude, l=0)
        if aux_m is not None and aux_m % 2 == 0:
            mode3 = parity_flip(mode3)
        return fidelity(mode3, self.reference)

    def correct(self, first: PhaseSample, second: PhaseSample, mode3,
                rng: np.random.Generator) -> TrialRecord:
        """Draw the corrections for the stage samples and score the result.

        ``mode3(first, second)`` gives the conditional mode-3 state; it is
        called only for a combination not scored before.
        """
        bits = _bits(first, second)
        p_d_success, aux_m = self.draw(bits[2], rng)
        key = (first.outcome, second.outcome, bool(p_d_success),
               aux_m is not None and aux_m % 2 == 0)
        score = self.scores.get(key)
        if score is None:
            score = self.scores[key] = self.score(mode3(first, second), p_d_success, aux_m)
        return _record(MeasurementOutcome(*bits, (first, second), aux_m),
                       score, p_d_success)


def _record(outcome: MeasurementOutcome, score: float, p_d_success) -> TrialRecord:
    """Trial record; a trial is corrected when every drawn correction succeeded."""
    parity = outcome.aux_m is not None
    applied = ("displacement",) * bool(p_d_success) + ("parity",) * parity
    corrected = p_d_success is not False and (not parity or outcome.aux_m % 2 == 0)
    return TrialRecord(outcome, corrected, score, applied, p_d_success)


def correct_and_score(mode3: StateVector, outcome: MeasurementOutcome,
                      config: ProtocolConfig, rng: np.random.Generator) -> TrialRecord:
    """Apply the branch's corrections to mode 3 and score the result.

    Displacement success is an exogenous Bernoulli(p_d) draw (hardware
    mastering); parity success is the sampled auxiliary count being even.
    The fidelity of whatever state results is recorded for every trial,
    corrected or not, against the normalized A|b> + B|-b> reference, modulo
    global phase.
    """
    if outcome.branch not in CORRECTIONS_FOR_BRANCH:
        raise ValueError(f"branch {outcome.branch} outside 0..3")
    receiver = _Receiver(config)
    p_d_success, aux_m = receiver.draw(outcome.branch, rng)
    if aux_m is not None:
        outcome = replace(outcome, aux_m=aux_m)
    return _record(outcome, receiver.score(mode3, p_d_success, aux_m), p_d_success)


def run_protocol(config: ProtocolConfig) -> ProtocolResult:
    """Run ``config.trials`` seeded trials; deterministic given the seed.

    Summary: branch histogram, success rate (all required corrections
    succeeded), and the mean fidelity over the corrected trials.
    """
    state = build_protocol_state(config)
    bell = BellMeasurement(state, config)
    receiver = _Receiver(config)
    records = []
    for trial in range(config.trials):
        rng = substream(config.seed, trial)
        first, second = bell.draw(rng)
        records.append(receiver.correct(first, second, bell.posterior, rng))
    histogram = [0, 0, 0, 0]
    for rec in records:
        histogram[rec.outcome.branch] += 1
    corrected = [rec.fidelity for rec in records if rec.corrected]
    summary = {
        "trials": config.trials,
        "branch_histogram": histogram,
        "success_rate": len(corrected) / config.trials,
        "mean_fidelity": float(np.mean(corrected)) if corrected else None,
    }
    return ProtocolResult(records, summary)
