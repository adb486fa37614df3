"""Atom-counting homodyne detection through tunnelling to a reference well.

Coupling a signal mode c to a reference mode b prepared in a coherent state
|beta| e^{i theta} turns the tunnelling term (omega/2)(c^dag b + b^dag c)
into an atomic beam splitter: after a quarter tunnelling period t =
pi/(2 omega) the half population difference <n_c - n_b>/2 equals
|beta| <X_{theta - pi/2}> of the signal (plus corrections of first order in
epsilon = kappa/omega), with the quadrature convention

    X_phi = (c e^{-i phi} + c^dag e^{i phi}) / 2.

Pseudo-spin notation: S_x = (n_c - n_b)/2N, S_y = i(c^dag b - c b^dag)/2N,
S_z = (c^dag b + c b^dag)/2N with N = <n_c + n_b>. The normalized S_x and
the raw half difference are both reported, since the beam-splitter relation
above is literally true for the raw quantity.

``perturbative_sx`` evaluates the first-order-in-epsilon closed form

    S_x(t) = [S_x(0) + eps t (2N z0 y0 - i x0)] cos(omega t)
           - [S_y(0) - eps t (2N z0 x0 + i y0)] sin(omega t)

verbatim, including its non-Hermitian pieces; the imaginary part is
reported rather than silently dropped, and validity requires eps*N <= 0.1.

Phase discrimination (|a> vs |-a> along a known axis) comes in two
backends. Each outcome ``o`` of a backend has

- a row, which maps the measured mode to the unnormalised conditional state
  of the other modes after ``o``;
- ``values[o]``, its quadrature value: bit 1 when negative, 0 when positive,
  and a tie at zero;
- its place in ``order``, the inverse-CDF order of the outcomes, "minus-like"
  results first, so runs with matched seeds stay aligned across backends.

``ideal`` has the rows conj(w0), conj(w1) of the minimum-error orthonormal
pair in span{|a>, |-a>}, values (+1, -1) and order (1, 0). ``homodyne``
couples the mode to a reference well for a quarter tunnelling period and
counts atoms in both wells (exact joint Born sampling, no Gaussian
approximation): outcome ``m_c * dim + m_b`` has the value (m_c - m_b) /
(2 |r|), ordered by value and ties by count, and its row is that row of the
pair propagator ``U (|n> (x) |r>)``.

Readouts are read through ``readouts(bases)``: for each orthonormal basis Z
of the measured mode, the rows ``R = rows Z``, stored in CDF order with each
row's outcome id and value (``Readout``); ``readout(Z)`` is
``readouts([Z])[0]``. The homodyne builds ``R = U (Z (x) |r>)`` directly,
never the d columns, for every basis from one pair-propagator product over
their columns side by side, and keeps only the outcomes a draw can reach: a
normalised signal gives no outcome o more than ``|R[o]|^2``, so rows below
half of ``MIN_OUTCOME_PROBABILITY`` are dropped, each basis over its own
columns (their outcomes would have zero CDF width anyway). ``prepare(state,
mode)`` reads a state's full view over the identity basis; ``block_laws``
reads a stack of coefficient blocks through one readout at once, as the
protocol's Bell stages do on the parity bases of their core. A prepared
readout is the outcome law alone: ``probs[k] = |R[k] . c|^2`` for each kept
row (equal on the state, since Z is orthonormal), already in CDF order, and
their ``rng.inverse_cdf``, in which outcomes below the floor have zero
width. The law is linear in the measured mode's reduced density matrix rho,
``Re sum_ij rho[i, j] R[k, i] conj(R[k, j])``, so every block's law is one
real product of its rho with the rows' r^2 products, clipped at 0. A
prepared readout gives the exact bit probabilities and array draws
``draw(u_select, u_tie) -> (row, bit)``: ``rng.indexed_search`` finds the
rows, and ``Readout.bits`` gives their bits, reading the tie-breaker only on
a zero value; ``Readout.outcomes`` holds the rows' outcome ids. The state
left after an outcome is the row product ``R[k] . c``, which the caller
forms from its own arrays.
"""

from __future__ import annotations

import cmath
import math
import warnings
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .dynamics import (
    JosephsonParams,
    KerrParams,
    josephson_collision_columns,
    josephson_evolutions,
)
from .errors import (
    AmbiguousSupport,
    ShapeMismatch,
    ValidityDomainExceeded,
)
from .fock import (
    CoherentSpec,
    FockCutoff,
    StateVector,
    mean_occupation,
    expect_exchange,
    prepare_coherent,
    tensor,
)
from .rng import MIN_OUTCOME_PROBABILITY, indexed_search, inverse_cdf

EPSILON_N_LIMIT = 0.1
EPSILON_N_WARN = 0.02
MAX_SUPPORT_LEFTOVER = 0.01


@dataclass(frozen=True)
class SchwingerRecord:
    """Pseudo-spin expectations of the coupled signal+reference pair at time t."""

    t: float
    sx: complex
    sy: complex
    sz: complex
    normalization: float
    raw_half_diff: float


@dataclass(frozen=True)
class PerturbativeInit:
    """Zeroth-order initial values x0, y0, z0 and epsilon = kappa/omega."""

    x0: complex
    y0: complex
    z0: complex
    epsilon: float

    def __post_init__(self):
        if self.epsilon < 0:
            raise ValueError("epsilon must be >= 0")


def _pair_schwinger(joint: StateVector, t: float) -> SchwingerRecord:
    n_c = mean_occupation(joint, 0)
    n_b = mean_occupation(joint, 1)
    exchange = expect_exchange(joint, 0, 1)
    total = n_c + n_b
    if not total > 0:
        raise ValidityDomainExceeded("pseudo-spin undefined for an empty pair: <n_c + n_b> = 0")
    return SchwingerRecord(
        t=t,
        sx=complex((n_c - n_b) / (2 * total)),
        sy=complex(1j * (exchange - np.conj(exchange)) / (2 * total)),
        sz=complex((exchange + np.conj(exchange)) / (2 * total)),
        normalization=total,
        raw_half_diff=(n_c - n_b) / 2,
    )


def initial_schwinger(signal: StateVector, beta: CoherentSpec) -> PerturbativeInit:
    """x0, y0, z0 of signal (x) |beta> -- inputs for the perturbative formula."""
    joint = tensor(signal, prepare_coherent(beta, signal.cutoff))
    rec = _pair_schwinger(joint, 0.0)
    return PerturbativeInit(rec.sx, rec.sy, rec.sz, 0.0)


def simulate_sx(signal: StateVector, beta: CoherentSpec, jp: JosephsonParams,
                kp: KerrParams, t_grid) -> list:
    """Full quantum evolution of signal (x) |beta>; records S_x/S_y/S_z per time.

    Exact at any epsilon*N (unitary block evolution); the perturbative
    validity domain does not apply here. The whole grid is evolved by one
    ``josephson_evolutions`` call, from one pair eigensystem that lives for
    this call alone, and each evolved state only until it is recorded.
    """
    if signal.modes != 1:
        raise ShapeMismatch("simulate_sx expects a single-mode signal")
    joint = tensor(signal, prepare_coherent(beta, signal.cutoff))
    return josephson_evolutions(joint, (0, 1), jp, kp, t_grid, _pair_schwinger)


def perturbative_sx(init: PerturbativeInit, total_number: float, omega: float,
                    t: float) -> complex:
    """First-order closed form for S_x(t), evaluated verbatim.

    Equal initial well populations are ``init`` with x0 = 0. Refuses when
    epsilon * N > 0.1 and warns above 0.02, where the first-order solution
    starts to degrade.
    """
    eps = init.epsilon
    eps_n = eps * total_number
    if eps_n > EPSILON_N_LIMIT:
        raise ValidityDomainExceeded(
            f"epsilon*N = {eps_n:.3g} > {EPSILON_N_LIMIT}: perturbative solution invalid "
            "(self-trapping regime)"
        )
    if eps_n > EPSILON_N_WARN:
        warnings.warn(
            f"epsilon*N = {eps_n:.3g} above warning band {EPSILON_N_WARN}",
            stacklevel=2,
        )
    x0, y0, z0 = init.x0, init.y0, init.z0
    n2 = 2 * total_number
    cos_t, sin_t = math.cos(omega * t), math.sin(omega * t)
    return complex(
        (x0 + eps * t * (n2 * z0 * y0 - 1j * x0)) * cos_t
        - (y0 - eps * t * (n2 * z0 * x0 + 1j * y0)) * sin_t
    )


# ---------------------------------------------------------------------------
# phase discrimination


def _pair_overlap_guard(magnitude: float) -> None:
    if magnitude <= 0 or math.exp(-2 * magnitude**2) > 0.5:
        raise AmbiguousSupport(
            f"|<a|-a>| = exp(-2*{magnitude:.3g}^2) > 0.5: branches not distinguishable"
        )


def helstrom_vectors(amplitude: complex, cutoff: FockCutoff):
    """Minimum-error orthonormal projector pair (w0, w1) for {|a>, |-a>}.

    w0 detects the branch aligned with ``amplitude``; for equal priors the
    success probability is (1 + sqrt(1 - s^2))/2 with s = <a|-a>.
    """
    _pair_overlap_guard(abs(amplitude))
    plus = prepare_coherent(CoherentSpec(amplitude), cutoff).amplitudes
    minus = np.where(np.arange(cutoff.dim) % 2, -plus, plus)  # |-a>, the parity flip of |a>
    overlap = float(np.vdot(plus, minus).real)  # real: sum |c_n|^2 (-1)^n
    e_sym = (plus + minus) / math.sqrt(2 * (1 + overlap))
    e_anti = (plus - minus) / math.sqrt(2 * (1 - overlap))
    w0 = (e_sym + e_anti) / math.sqrt(2)
    w1 = (e_sym - e_anti) / math.sqrt(2)
    return w0, w1


class Readout(NamedTuple):
    """A discriminator's rows over an orthonormal basis of the measured mode,
    kept on the outcomes a draw can reach and stored in CDF order: row k
    reads outcome ``outcomes[k]``, whose quadrature value is ``values[k]``."""

    rows: np.ndarray
    outcomes: np.ndarray
    values: np.ndarray

    def bits(self, k: np.ndarray, u_tie: np.ndarray) -> np.ndarray:
        """The bits of the drawn rows ``k``: 1 for a negative value, 0 for a
        positive one, and for a zero value 1 iff ``u_tie`` < 0.5."""
        value = self.values[k]
        return ((value < 0) | ((value == 0) & (u_tie < 0.5))).astype(np.int64)


def _block_probabilities(rows, blocks: np.ndarray) -> np.ndarray:
    """``probs[k, o] = |rows[o] @ blocks[k]|^2``, summed over the row, for a
    stack of (r x w) coefficient blocks. That is linear in each block's
    reduced density matrix rho: ``Re sum_ij rho[i, j] rows[o, i]
    conj(rows[o, j])``. So each row's r^2 products are built once, and every
    law is one real (keys x 2 r^2) @ (2 r^2 x rows) product, clipped at 0.
    Its rounding is absolute, from the 2 r^2 products, so a small probability
    on a wide basis (r near d) loses relative accuracy: 1e-11 at 1.2e-6 (r = d, n_max 32)."""
    rho = np.matmul(blocks, blocks.conj().transpose(0, 2, 1), dtype=complex)
    products = rows.conj()[:, :, None] * rows[:, None, :]
    # Re(x conj(y)) summed as the dot product of the interleaved parts
    probs = rho.reshape(len(rho), -1).view(float) @ products.reshape(len(rows), -1).view(float).T
    return np.maximum(probs, 0.0)


@dataclass(eq=False)
class _PreparedReadout:
    """Outcome law of one discrimination, ready to draw from: the
    probabilities ``probs`` of the rows of ``readout``, in its CDF order,
    and their CDF."""

    readout: Readout
    probs: np.ndarray
    cdf: np.ndarray

    @property
    def bit_probabilities(self):
        """Exact (P(bit=0), P(bit=1)) with ties split evenly."""
        probs, values = self.probs / self.probs.sum(), self.readout.values
        p_plus = probs[values > 0].sum() + probs[values == 0].sum() / 2
        return float(p_plus), float(1 - p_plus)

    def draw(self, u_select: np.ndarray, u_tie: np.ndarray) -> tuple:
        """(row, bit) arrays for the uniform pairs: the drawn rows of
        ``readout`` (``rng.indexed_search``) and their bits (``Readout.bits``)."""
        k = indexed_search(self.cdf, u_select)
        return k, self.readout.bits(k, u_tie)


class _PreparedIdeal(_PreparedReadout):
    """Outcome distribution of one ideal discrimination."""

    def draw(self, u_select: np.ndarray, u_tie: np.ndarray) -> tuple:
        """The generic draw for two tie-free rows as one comparison: row 0,
        outcome 1 and bit 1, below ``cdf[0]``."""
        bit = (u_select < self.cdf[0]).astype(np.int64)
        return 1 - bit, bit


class _PreparedHomodyne(_PreparedReadout):
    """Outcome distribution of one atom-counting readout."""


class _Discriminator:
    """Entry points of both backends; a backend sets ``cutoff``, ``values``,
    ``order``, its ``prepared`` class and ``readouts(bases)``."""

    def readout(self, basis: np.ndarray) -> Readout:
        """The readout over one basis, ``readouts([basis])[0]``."""
        return self.readouts([basis])[0]

    def prepare(self, state: StateVector, mode: int):
        """Readout of ``mode`` of ``state``, on its full view."""
        view = np.moveaxis(state.tensor_view(), mode, 0).reshape(state.dim, -1)
        return self.prepare_block(self.readout(np.eye(state.dim)), view)

    def prepare_block(self, readout: Readout, block: np.ndarray):
        """Readout of one (r x w) coefficient block through ``readout``."""
        (probs,), (cdf,) = self.block_laws(readout, block[None])
        return self.prepared(readout, probs, cdf)

    def block_laws(self, readout: Readout, blocks: np.ndarray) -> tuple:
        """Outcome probabilities and CDFs (keys x support) of a stack of (r x w)
        coefficient blocks read through ``readout``, the rows over an
        orthonormal basis of the measured mode, from one product."""
        probs = _block_probabilities(readout.rows, blocks)
        leftover = 1.0 - probs.sum(axis=1).min()
        if leftover > MAX_SUPPORT_LEFTOVER:
            raise AmbiguousSupport(
                f"probability {leftover:.3g} of the signal lies outside "
                "the span of the readout rows"
            )
        return probs, inverse_cdf(probs)


class IdealPhaseDiscriminator(_Discriminator):
    """Two-outcome minimum-error projection onto span{|a>, |-a>}."""

    prepared = _PreparedIdeal

    def __init__(self, amplitude: complex, cutoff: FockCutoff):
        self.cutoff = cutoff
        self.w0, self.w1 = helstrom_vectors(amplitude, cutoff)
        self.rows = np.conj([self.w0, self.w1])
        self.values = np.array([1.0, -1.0])
        self.order = np.array([1, 0])

    def readouts(self, bases) -> list:
        """Both rows over each basis of ``bases``, in CDF order."""
        rows, values = self.rows[self.order], self.values[self.order]
        return [Readout(rows @ basis, self.order, values) for basis in bases]


class HomodynePhaseDiscriminator(_Discriminator):
    """Atom-counting quadrature threshold along a given axis.

    The measured mode is coupled to a reference well |r| e^{i(axis+pi/2)}
    for a quarter tunnelling period and atoms are counted in both wells.
    The sample value (m_c - m_b)/(2 |r|) estimates <X_axis>; its sign is the
    phase bit. Sampling is exact Born sampling of the joint counts.
    """

    prepared = _PreparedHomodyne

    def __init__(self, axis_phase: float, cutoff: FockCutoff, reference_magnitude: float,
                 josephson: JosephsonParams, kerr: KerrParams):
        if josephson.omega <= 0:
            raise ValidityDomainExceeded("atom-counting readout needs omega > 0")
        if not math.isfinite(math.pi / (2 * josephson.omega)):
            raise ValidityDomainExceeded(f"omega = {josephson.omega:.3g} has no finite quarter "
                                         "period pi / (2 omega)")
        if not reference_magnitude > 0:
            raise AmbiguousSupport(f"reference magnitude {reference_magnitude:.3g}: needs |r| > 0")
        self.cutoff = cutoff
        self.josephson, self.kerr = josephson, kerr
        reference = reference_magnitude * cmath.exp(1j * (axis_phase + math.pi / 2))
        self.reference_amplitudes = prepare_coherent(CoherentSpec(reference), cutoff).amplitudes
        d, m, k = cutoff.dim, np.arange(cutoff.dim), np.arange(1 - cutoff.dim, cutoff.dim)[:, None]
        self.values = (m[:, None] - m).ravel() / (2 * reference_magnitude)  # id m_c d + m_b
        # ascending value, ties by id: diagonal k = m_c - m_b holds ids m_c (d + 1) - k
        self.order = (m * (d + 1) - k)[(m >= k) & (m < d + k)]

    @property
    def rows(self) -> np.ndarray:
        """Every count outcome's row over the Fock basis, the readout's
        definition (dim^2 x dim), built on each access; a run reads
        ``readout(basis)`` instead."""
        return self.rows_over(np.eye(self.cutoff.dim))

    def rows_over(self, basis: np.ndarray) -> np.ndarray:
        """Row ``m_c * dim + m_b`` over ``basis`` of every count outcome: the
        pair propagator for a quarter tunnelling period on ``basis (x)
        |reference>``."""
        return josephson_collision_columns(
            self.cutoff, self.josephson, self.kerr, math.pi / (2 * self.josephson.omega),
            self.reference_amplitudes, basis)

    def readouts(self, bases) -> list:
        """The rows over each basis of ``bases`` of the outcomes a draw can
        reach, in CDF order, from one pair-propagator product over the bases
        side by side. A normalised signal gives outcome o at most
        ``|rows[o]|^2``, so each basis drops its rows below half the
        probability floor over its own columns."""
        floor = MIN_OUTCOME_PROBABILITY / 2
        rows = self.rows_over(np.hstack(bases))
        readouts = []
        for part in np.split(rows, np.cumsum([len(basis.T) for basis in bases[:-1]]), axis=1):
            weight = np.einsum("oi,oi->o", part.view(float), part.view(float))
            ids = self.order[weight[self.order] >= floor]
            readouts.append(Readout(part[ids], ids, self.values[ids]))
        return readouts
