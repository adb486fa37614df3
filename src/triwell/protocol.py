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

Randomness: a run reads one block, ``substream(seed).random((trials, 6))``,
and trial i reads row i only, one fixed column per draw whatever its branch:
columns 0-1 are the first Bell stage (selector, tie-breaker), 2-3 the second,
4 the displacement success and 5 the auxiliary count. Outcome and count
draws are ``rng.inverse_cdf`` draws, so none selects an outcome below
``MIN_OUTCOME_PROBABILITY``. The seed and the trial count enter a run only
there, so calls that differ only in them share one set-up (``_set_up_of``).

Bell stages: at the quarter period with e0 = kappa every self-collision
phase is 1 on even n and -i on odd n, and every cross phase is the sign
(-1)^(n_i n_j). So each mode stays in the span of its even and odd parts,
and the state above is a core T (r1 x r2 x r3, each r at most 2) over one
exact orthonormal parity basis per mode (``protocol_factors``): Z1 the
normalised parity parts of the self-collided target, Z2 the channel's
basis of mode 2 (``channel.channel_factors``) times mode 2's second
self-collision phase, which is diagonal, and Z3 the channel's basis of mode
3. The channel's core carries the 2-3 sign and the 1-2 cross-collision is
the sign (-1)^(p1 p2) of the parities on T, so no d-wide array is formed;
``build_protocol_state`` is the expansion. A vacuum amplitude has no odd
part, which gives r = 1. Stage k reads its mode through ``R_k = rows_k @
Z_k``, its discriminator's readout over Z_k: for the homodyne that is ``U
(Z_k (x) |ref>)``, built without the d columns and kept on the outcomes a
draw can reach, in CDF order. Stages that share a discriminator (gamma ==
alpha) get both readouts from one ``readouts((Z_1, Z_2))`` call, one
pair-propagator product. Stage 1 is prepared on T read as r1 x (r2 r3), and
stage 2 after each first-stage row k on its r2 x r3 block ``R_1[k] T /
sqrt(p1[k])``. A measurement holds only T, R_1, R_2 and the stage-1 law,
and a draw keeps nothing and sorts nothing: a ``bincount`` of the stage-1
rows it drew marks the stage-2 laws to prepare (one keys x support array of
CDFs), its ``cumsum`` gives each trial its place in that stack, and
``rng.stacked_search`` draws every trial on its place's row in one pass,
the same index as one ``searchsorted`` per law. Mode 3's coefficients over
Z3 after the rows (k1, k2) are read straight off the core, ``(R_1[k1] (x)
R_2[k2]) T / sqrt(p1[k1])``. ``BellMeasurement`` reads any other three-mode
state through the same code as its Tucker factors (``tucker_factors``), a
core over one orthonormal basis per mode at the state's numerical rank.

Rows inside, ids at the edges: a run reads the stages by readout row from
the draw to the scoring. Outcome ids, the discriminators' own (``m_c * dim +
m_b`` on the homodyne), appear only in the result's ``stage1`` and
``stage2`` columns and at the entry points that take or give ids (``draw``,
``coefficients``, ``conditionals``, ``sample``), which find a row from its
id with ``Readout.index``.

Scoring: the receiver's correction depends only on the two bits and the
auxiliary count, and the parity collision acts on mode 3 as an exact sign.
So a run draws every trial at once and scores each distinct drawn pair of
stage rows once, without building states: the fidelity after a correction
G is |<G^dag ref|post>|^2, and ``post = c Z^T`` for the pair's r3
coefficients c over the receiver basis Z = Z3, read off the core. The pair
table is a presence mask over (stack place x stage-2 row), whose
``cumsum`` numbers the pairs and gives each trial its pair, with no sort.
The receiver's probe matrix is projected once, ``Z^T probes`` (r3 rows),
one product ``c @ (Z^T probes)`` gives every correction's overlap for every
pair, the norms |c|^2, equal to |post|^2 since Z is orthonormal, normalise
it, and each trial reads its (pair, probe column) cell; no row is expanded
to d amplitudes.
Trials stay typed columns from the draw to the summary, with ``NOT_DRAWN``
where a branch needs no such correction, and a result holds only its
columns: ``ProtocolResult.records`` is a view over them that builds each
``TrialRecord`` as it is read, None at ``NOT_DRAWN``, and keeps none.
"""

from __future__ import annotations

import cmath
import math
from collections.abc import Sequence
from dataclasses import dataclass, field, replace
from functools import cached_property, lru_cache
from typing import NamedTuple

import numpy as np

from .channel import channel_factors, channel_family_index, parity_basis
from .corrections import (
    AuxiliaryPrep,
    displacement_offset,
    parity_count_distribution,
    warn_large_offset,
)
from .dynamics import CrossSpeciesParams, JosephsonParams, KerrParams, kerr_phases
from .errors import FrequencyConditionViolated, RangeError, ZeroImaginaryPart, ZeroProbabilityBranch
from .fock import (
    FockCutoff,
    CoherentSpec,
    StateVector,
    SuperpositionSpec,
    _displacement_matrix,
    check_displaced_top_shell,
    joint_leakage,
    prepare_cat_superposition,
)
from .homodyne import HomodynePhaseDiscriminator, IdealPhaseDiscriminator, _pair_overlap_guard
from .rng import MIN_OUTCOME_PROBABILITY, indexed_search, inverse_cdf, stacked_search, substream

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
        if self.reference_magnitude is not None and not self.reference_magnitude > 0:
            raise ValueError(f"reference_magnitude must be > 0, got {self.reference_magnitude}")

    def parity_kerr(self) -> KerrParams:
        """Well frequency retuned to e0 = 3 kappa / 2 for the parity stage."""
        return KerrParams(1.5 * self.kerr.kappa, self.kerr.kappa)


@dataclass(frozen=True)
class MeasurementOutcome:
    """Two classical bits plus the raw outcome index of each Bell stage."""

    bit_target: int
    bit_mode2: int
    branch: int
    raw: tuple  # (stage-1, stage-2) outcome indices
    aux_m: int | None = None


@dataclass(frozen=True)
class TrialRecord:
    outcome: MeasurementOutcome
    corrected: bool
    fidelity: float
    corrections_applied: tuple
    p_d_success: bool | None = None


#: entry of ``p_d_success`` and ``aux_m`` where the branch needs no such correction
NOT_DRAWN = -1


@dataclass(frozen=True, eq=False)
class ProtocolResult:
    """A run's trials as typed columns, one entry per trial: ``stage1``,
    ``stage2`` (raw outcome indices), ``branch``, ``p_d_success`` (int8) and
    ``aux_m`` (``NOT_DRAWN`` where the branch needs no such correction),
    ``corrected`` and ``fidelity``."""

    columns: dict

    def __eq__(self, other):
        return (isinstance(other, ProtocolResult) and self.columns.keys() == other.columns.keys()
                and all(np.array_equal(col, other.columns[name])
                        for name, col in self.columns.items()))

    @cached_property
    def summary(self) -> dict:
        """Branch histogram, success rate (all required corrections
        succeeded), and the mean fidelity over the corrected trials."""
        branch = self.columns["branch"]
        fidelities = self.columns["fidelity"][self.columns["corrected"]]
        return {
            "trials": len(branch),
            "branch_histogram": np.bincount(branch, minlength=4).tolist(),
            "success_rate": len(fidelities) / len(branch),
            "mean_fidelity": float(np.mean(fidelities)) if len(fidelities) else None,
        }

    @property
    def records(self) -> _TrialRecords:
        """One ``TrialRecord`` per trial: a read-only sequence over ``columns``
        that builds each record as it is read; the result stores none."""
        return _TrialRecords(self.columns)


_RECORD_COLUMNS = ("stage1", "stage2", "branch", "aux_m", "corrected", "fidelity", "p_d_success")
#: Python type of the entries of the columns that may read ``NOT_DRAWN``
_DRAWN_TYPES = {"aux_m": int, "p_d_success": bool}


def trial_values(columns: dict, name: str) -> list:
    """Column ``name`` of a run as its records hold it: plain Python values,
    with None where ``aux_m`` or ``p_d_success`` reads ``NOT_DRAWN``."""
    values, kind = columns[name].tolist(), _DRAWN_TYPES.get(name)
    return values if kind is None else [None if v == NOT_DRAWN else kind(v) for v in values]


def _trial_record(o1, o2, b, m, ok, score, p_d) -> TrialRecord:
    """One trial's record from its values in ``_RECORD_COLUMNS``."""
    return TrialRecord(MeasurementOutcome(b >> 1, b & 1, b, (o1, o2), m), ok, score,
                       ("displacement",) * bool(p_d) + ("parity",) * (m is not None), p_d)


class _TrialRecords(Sequence):
    """``TrialRecord``s over a run's columns, built from ``trial_values`` when
    read and held only by the reader."""

    __slots__ = ("_columns",)

    def __init__(self, columns: dict):
        self._columns = columns

    def __len__(self) -> int:
        return len(self._columns["branch"])

    def __getitem__(self, index: int) -> TrialRecord:
        row = {name: column[[index]] for name, column in self._columns.items()}
        return next(iter(_TrialRecords(row)))

    def __iter__(self):
        return map(_trial_record, *(trial_values(self._columns, name) for name in _RECORD_COLUMNS))

    def __eq__(self, other):
        if not isinstance(other, Sequence):
            return NotImplemented
        return len(self) == len(other) and all(a == b for a, b in zip(self, other))


class ReceiverFactors(NamedTuple):
    """A three-mode state as a core over one orthonormal basis per mode:
    psi[n1, n2, n3] = sum_ijk core[i, j, k] Z1[n1, i] Z2[n2, j] Z3[n3, k]
    for ``bases`` (Z1, Z2, Z3)."""

    core: np.ndarray
    bases: tuple
    leakage: float


#: fraction of a state's squared norm at or below which ``tucker_factors``
#: drops an eigenvalue of a mode's Gram matrix
TUCKER_TOLERANCE = 1e-13


def tucker_factors(state: StateVector) -> ReceiverFactors:
    """A three-mode state as its truncated higher-order SVD (De Lathauwer,
    De Moor and Vandewalle, 2000): each mode's basis holds the eigenvectors
    of its unfolding's Gram matrix above ``TUCKER_TOLERANCE`` of the squared
    norm (a full-rank mode keeps r = d), the core is the state over the
    conjugate bases, and |state - expansion|^2 / |state|^2 joins the leakage."""
    if state.modes != 3:
        raise ValueError("Bell measurement expects the three-mode protocol state")
    core = tensor = state.tensor_view()
    mass = np.linalg.norm(tensor) ** 2
    bases = []
    for mode in range(3):
        unfolding = np.moveaxis(tensor, mode, 0).reshape(state.dim, -1)
        values, vectors = np.linalg.eigh(unfolding @ unfolding.conj().T)
        bases.append(vectors[:, values > TUCKER_TOLERANCE * mass])
        core = np.tensordot(core, bases[-1].conj(), axes=(0, 0))  # mode i goes last
    expansion = np.einsum("ijk,ai,bj,ck->abc", core, *bases, optimize=True)
    dropped = np.linalg.norm(tensor - expansion) ** 2 / mass
    return ReceiverFactors(core, tuple(bases), joint_leakage(state.leakage, dropped))


def protocol_factors(config: ProtocolConfig) -> ReceiverFactors:
    """The protocol state, target (mode 1) and channel (modes 2, 3), as a
    core of at most 2 x 2 x 2 over the modes' parity bases: the self-collided
    target's parity parts, the channel's bases with mode 2's second
    self-collision phase, and the 1-2 cross-collision sign on the core."""
    if channel_family_index(config.kerr) != 0:
        raise FrequencyConditionViolated(
            "protocol state generation requires e0 = kappa (family index 0)"
        )
    target = prepare_cat_superposition(config.target, config.cutoff)
    core, (second, third), leakage = channel_factors(config.alpha, config.beta, config.kerr,
                                                     config.cutoff)
    self_kerr = kerr_phases(config.cutoff.dim, config.kerr, math.pi / (2 * config.kerr.kappa))
    first = parity_basis(target.amplitudes * self_kerr)
    sign = (-1.0) ** np.outer(first.parities, second.parities)
    return ReceiverFactors((first.norms[:, None] * sign)[:, :, None] * core,
                           (first.basis, second.basis * self_kerr[:, None], third.basis),
                           joint_leakage(target.leakage, leakage))


def build_protocol_state(config: ProtocolConfig) -> StateVector:
    """Three-mode protocol state, the expansion of ``protocol_factors``."""
    core, (z1, z2, z3), leakage = protocol_factors(config)
    amplitudes = np.einsum("ijk,ai,bj,ck->abc", core, z1, z2, z3)
    return StateVector(3, config.cutoff, amplitudes.ravel(), leakage)


def reference_state(config: ProtocolConfig) -> StateVector:
    """The state teleportation should deliver: A|b> + B|-b> with the channel's b."""
    return prepare_cat_superposition(
        SuperpositionSpec(config.target.a, config.target.b, config.beta.amplitude),
        config.cutoff,
    )


class BellMeasurement:
    """Sequential two-mode phase discrimination on a three-mode protocol state.

    Each stage consumes two uniforms (selector and tie-breaker) regardless of
    backend, keeping matched-seed runs aligned between backends. Stages with
    the same amplitude share one discriminator. ``state`` is the protocol
    state's ``ReceiverFactors`` or a three-mode state, read as its
    ``tucker_factors``. A measurement holds only the core T, each stage's
    readout over its mode's basis, R_k = rows_k Z_k on the outcomes a draw
    can reach, and the stage-1 law, and keeps nothing from a draw: mode 3's
    coefficients after the rows (k1, k2) are (R_1[k1] (x) R_2[k2]) T /
    sqrt(p1[k1]), over ``receiver_basis``, its orthonormal columns. When the
    two stages share a discriminator, one ``readouts`` call reads both
    bases. Inside, the stages are read by readout row: a draw stacks the
    stage-2 CDFs of the stage-1 rows it drew, without a sort, and draws every
    trial on its place's row of the stack in one ``rng.stacked_search``.
    ``draw``, ``coefficients``, ``conditionals`` and ``sample`` give and take
    outcome ids. Both backends refuse (``AmbiguousSupport``) a stage
    amplitude a with |<a|-a>| > 0.5.
    """

    def __init__(self, state: StateVector | ReceiverFactors, config: ProtocolConfig):
        if isinstance(state, StateVector):
            state = tucker_factors(state)
        gamma = config.target.gamma
        alpha = config.alpha.amplitude
        ref = config.reference_magnitude

        def discriminator(amp):
            if config.measurement_backend == "ideal":
                made = IdealPhaseDiscriminator(amp, config.cutoff)
            else:
                # + 0j makes a signed zero positive: equal amplitudes read one axis
                made = HomodynePhaseDiscriminator(cmath.phase(amp + 0j), config.cutoff,
                                                  abs(amp) if ref is None else ref,
                                                  config.josephson, config.kerr)
            _pair_overlap_guard(abs(amp))  # both backends refuse the same stages
            return made

        built = {amp: discriminator(amp) for amp in dict.fromkeys((gamma, alpha))}
        self.stages = (built[gamma], built[alpha])
        self.receiver_basis = state.bases[2]
        self.leakage = state.leakage
        self._core = state.core
        first, second = self.stages
        if first is second:  # one discriminator reads both bases in one call
            self._readouts = first.readouts(state.bases[:2])
        else:
            self._readouts = [first.readout(state.bases[0]), second.readout(state.bases[1])]
        block = state.core.reshape(len(state.core), -1)  # one r1 x (r2 r3) block
        self._first = self.stages[0].prepare_block(self._readouts[0], block)

    def _first_probs(self, rows) -> np.ndarray:
        """Stage-1 probabilities of the readout rows ``rows``; raises
        ``ZeroProbabilityBranch`` for a row below the floor."""
        prob = self._first.probs[rows]
        if np.any(prob < MIN_OUTCOME_PROBABILITY):
            raise ZeroProbabilityBranch(
                f"stage-1 outcomes {self._readouts[0].outcomes[rows]} reach probability "
                f"{np.min(prob):.3e}")
        return prob

    def _second_laws(self, rows) -> tuple:
        """``block_laws`` of the second stage after each stage-1 readout row
        of ``rows``, on its r2 x r3 block R_1[row] T / sqrt(p1[row]); raises
        ``ZeroProbabilityBranch`` for a row below the floor."""
        prob = self._first_probs(rows)
        block = self._core.reshape(len(self._core), -1)
        blocks = self._readouts[0].rows[rows] @ block / np.sqrt(prob)[:, None]
        return self.stages[1].block_laws(
            self._readouts[1], blocks.reshape(len(prob), self._core.shape[1], -1))

    def _draw_rows(self, u: np.ndarray) -> tuple:
        """(stage-1 row, stage-2 row, branch) arrays for the rows of ``u``, and
        the stack of stage-2 laws: the drawn stage-1 rows ``keys`` and each
        trial's ``place`` in them. Selector and tie of stage 1, then of stage
        2, every trial drawn on its place's row of the stacked CDFs."""
        # contiguous copies of the selectors, which the searches read in several passes
        first, bit1 = self._first.draw(u[:, 0].copy(), u[:, 1])
        drawn = np.bincount(first) > 0
        keys = np.flatnonzero(drawn)
        _, cdfs = self._second_laws(keys)
        place = (np.cumsum(drawn) - 1)[first]
        second = stacked_search(cdfs, place, u[:, 2].copy())
        bit2 = self._readouts[1].bits(second, u[:, 3])
        return first, second, 2 * (bit1 ^ bit2) + 1 - bit2, keys, place

    def _outcomes(self, first: np.ndarray, second: np.ndarray) -> tuple:
        """The outcome ids of stage-1 rows ``first`` and stage-2 rows ``second``."""
        return self._readouts[0].outcomes[first], self._readouts[1].outcomes[second]

    def draw(self, u: np.ndarray) -> tuple:
        """(stage-1 outcome, stage-2 outcome, branch) arrays for the rows of
        ``u``: selector and tie of stage 1, then of stage 2, every row drawn
        on its stage-1 outcome's row of the stacked stage-2 CDFs."""
        first, second, branch, _, _ = self._draw_rows(u)
        return *self._outcomes(first, second), branch

    def _coefficients(self, first: np.ndarray, second: np.ndarray) -> np.ndarray:
        """Unnormalised mode-3 coefficients over ``receiver_basis`` after each
        (stage-1 row ``first``, stage-2 row ``second``) pair, one row per pair."""
        r1 = self._readouts[0].rows[first] / np.sqrt(self._first_probs(first))[:, None]
        pair = r1[:, :, None] * self._readouts[1].rows[second][:, None, :]
        return pair.reshape(len(first), -1) @ self._core.reshape(-1, self._core.shape[2])

    def _pairs(self, keys: np.ndarray, place: np.ndarray, second: np.ndarray) -> tuple:
        """Each trial's pair, its index into the distinct drawn (stack place,
        stage-2 row) pairs, and the mode-3 coefficients of every pair: a
        presence mask over places x stage-2 rows, whose cumsum numbers them."""
        width = len(self._readouts[1].rows)
        cell = place * width + second
        present = np.zeros(len(keys) * width, dtype=bool)
        present[cell] = True
        pairs = np.flatnonzero(present)
        return np.cumsum(present)[cell] - 1, self._coefficients(keys[pairs // width], pairs % width)

    def coefficients(self, first: np.ndarray, second: np.ndarray) -> np.ndarray:
        """Unnormalised mode-3 coefficients over ``receiver_basis`` after each
        drawn (``first``, ``second``) outcome pair, one row per pair; raises
        ``ZeroProbabilityBranch`` for an outcome no draw reaches."""
        return self._coefficients(self._readouts[0].index(first),
                                  self._readouts[1].index(second))

    def conditionals(self, first: np.ndarray, second: np.ndarray) -> np.ndarray:
        """Unnormalised mode-3 amplitudes after each drawn (``first``,
        ``second``) outcome pair, one row per pair."""
        return self.coefficients(first, second) @ self.receiver_basis.T

    def sample(self, rng: np.random.Generator):
        """Measure both modes; returns (outcome, conditional mode-3 state)."""
        first, second, branch = self.draw(rng.random((1, 4)))
        mode3 = self.conditionals(first, second)[0]
        (first,), (second,), (branch,) = first.tolist(), second.tolist(), branch.tolist()
        outcome = MeasurementOutcome(branch >> 1, branch & 1, branch, (first, second))
        return outcome, StateVector(1, self.stages[1].cutoff, mode3 / np.linalg.norm(mode3),
                                    self.leakage)


class _Receiver:
    """Receiver of one configuration: reference probes and count CDF.

    A correction is one of four probe columns, ``2 * displaced + flipped``.
    With P the parity sign and D the displacement, the overlap of the
    corrected mode 3 with the reference is <ref| P^f D^s |post> =
    <D^-s P^f ref|post>, so column j of ``probes`` holds conj(D^-s P^f ref)
    and one product ``post @ probes`` scores every correction; for post =
    c Z^T that is ``c @ (Z^T probes)``. With a displacement, a last column
    D[n_max, :] reads D|post> on the top shell.
    """

    def __init__(self, config: ProtocolConfig):
        self.config = config
        self.reference = reference_state(config)
        ref = self.reference.amplitudes
        probes = np.conj([ref, (-1.0) ** np.arange(len(ref)) * ref]).T
        try:
            self.delta = displacement_offset(complex(config.beta.amplitude), 0)
        except ZeroImaginaryPart:
            self.delta = None  # real channel amplitude: correction unavailable
        else:
            shift = _displacement_matrix(complex(self.delta), len(ref))
            probes = np.hstack([probes, shift.T @ probes, shift[-1:].T])
        self.probes = probes

    @cached_property
    def count_cdf(self) -> np.ndarray:
        """Auxiliary count CDF, built (and its conditions checked) on first
        use; read-only, since a run's receiver is shared by its later calls."""
        cdf = inverse_cdf(parity_count_distribution(
            self.reference, self.config.aux, self.config.cross_species,
            self.config.parity_kerr(), self.config.cutoff,
        ))
        cdf.setflags(write=False)
        return cdf

    def draw(self, first, second, branch, u) -> tuple:
        """Draw each row's corrections from its two uniforms ``u``.

        Displacement success is a Bernoulli(p_d) draw on the first uniform
        (hardware mastering); parity success is the auxiliary count, a Born
        draw on the second uniform, being even. Both uniforms belong to every
        row, and each draw counts only where the branch needs its correction.
        A row is corrected when every drawn correction succeeded. Returns the
        run's columns but ``fidelity``, and each row's probe column.
        """
        # branch bits: 1 needs the displacement, 2 the parity (CORRECTIONS_FOR_BRANCH)
        displacing, parity = (branch & 1).astype(bool), (branch >> 1).astype(bool)
        success = (u[:, 0] < self.config.p_d) & (self.delta is not None)
        aux_m = np.full(len(branch), NOT_DRAWN)
        if parity.any():  # the count CDF (and its conditions) only when needed
            aux_m = np.where(parity, indexed_search(self.count_cdf, u[:, 1].copy()), NOT_DRAWN)
        flipped = parity & ((aux_m & 1) == 0)
        columns = {
            "stage1": first, "stage2": second, "branch": branch,
            "p_d_success": np.where(displacing, success, NOT_DRAWN).astype(np.int8),
            "aux_m": aux_m,
            "corrected": (success | ~displacing) & (flipped | ~parity),
        }
        return columns, 2 * (displacing & success) + flipped

    def fidelities(self, coefficients: np.ndarray, basis: np.ndarray, pair: np.ndarray,
                   column: np.ndarray) -> np.ndarray:
        """Fidelity with the reference, modulo global phase, of each trial i:
        row ``pair[i]`` of ``coefficients`` after the corrections of its probe
        ``column[i]``. A row holds unnormalised mode-3 coefficients over
        ``basis``, orthonormal columns (d x r; the identity for amplitudes),
        so c @ (basis^T probes) gives every probe's overlap and |c|^2 the
        norm, once per row. Raises ``CutoffTooSmall`` when a displaced
        trial's row leaves more than ``DEFAULT_MAX_LEAKAGE`` on the n_max
        shell."""
        norms = np.einsum("ij,ij->i", coefficients, coefficients.conj()).real
        mass = np.abs(coefficients @ (basis.T @ self.probes)) ** 2 / norms[:, None]
        displaced = column >= 2
        if displaced.any():
            warn_large_offset(self.delta, self.config.beta.amplitude)
            check_displaced_top_shell(float(mass[:, -1][pair[displaced]].max()))
        return mass.ravel().take(pair * mass.shape[1] + column)


def correct_and_score(mode3: StateVector, outcome: MeasurementOutcome,
                      config: ProtocolConfig, rng: np.random.Generator) -> TrialRecord:
    """One trial of a run's receiver: the branch's corrections drawn and
    applied to ``mode3`` and scored, keeping ``outcome``'s stage outcomes."""
    if outcome.branch not in CORRECTIONS_FOR_BRANCH:
        raise ValueError(f"branch {outcome.branch} outside 0..3")
    receiver = _Receiver(config)
    first, second = (np.array([index]) for index in outcome.raw)
    columns, column = receiver.draw(first, second, np.array([outcome.branch]),
                                    rng.random((1, 2)))
    columns["fidelity"] = receiver.fidelities(mode3.amplitudes[None], np.eye(mode3.dim),
                                              np.zeros(1, np.intp), column)
    return ProtocolResult(columns).records[0]


def _read_only(*parts) -> None:
    """Set every array held by ``parts``, their items and their attributes
    read-only."""
    for part in parts:
        if isinstance(part, np.ndarray):
            part.setflags(write=False)
        elif isinstance(part, (tuple, list)):
            _read_only(*part)
        elif hasattr(part, "__dict__"):
            _read_only(*vars(part).values())


@lru_cache(maxsize=4)
def _set_up_of(config: ProtocolConfig) -> tuple:
    """The ``BellMeasurement`` and ``_Receiver`` of ``config``, built once
    and shared by every run that differs from it only in ``seed`` and
    ``trials``. Its arrays are read-only, and a set-up that raises is not
    kept."""
    bell, receiver = BellMeasurement(protocol_factors(config), config), _Receiver(config)
    _read_only(bell, receiver)
    return bell, receiver


def run_protocol(config: ProtocolConfig) -> ProtocolResult:
    """Run ``config.trials`` seeded trials; deterministic given the seed.

    The seed and the trial count enter a run only through its block of
    uniforms, so the set-up (factors, Bell stages and receiver) is built
    once and reused by every call that differs only in them. The reuse is
    keyed on the rest of the config, compared with ``==``; it keeps the last
    four set-ups, holds them read-only, and keeps no set-up that raised."""
    bell, receiver = _set_up_of(replace(config, seed=0, trials=1))
    u = substream(config.seed).random((config.trials, 6))  # trial i: row i
    first, second, branch, keys, place = bell._draw_rows(u[:, :4])
    columns, column = receiver.draw(*bell._outcomes(first, second), branch, u[:, 4:])
    pair, coeff = bell._pairs(keys, place, second)  # each distinct pair scored once
    columns["fidelity"] = receiver.fidelities(coeff, bell.receiver_basis, pair, column)
    return ProtocolResult(columns)
