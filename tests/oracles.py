"""Reference implementations the tests compare the package against."""

import cmath
import math
from dataclasses import dataclass

import numpy as np

from triwell import (AuxiliaryPrep, CoherentSpec, CrossSpeciesParams, FockCutoff,
                     JosephsonParams, KerrParams, ShapeMismatch, StateVector,
                     ValidityDomainExceeded, evolve_cross_kerr, evolve_self_kerr,
                     prepare_cat_superposition, prepare_coherent, simulate_sx, substream,
                     tensor)
from triwell.corrections import parity_count_distribution
from triwell.fock import apply_mode_phases, mean_occupation, quadrature_eigensystem
from triwell.homodyne import EPSILON_N_LIMIT
from triwell.protocol import (BellMeasurement, ProtocolResult, ReceiverFactors, _Receiver,
                              protocol_factors)
from triwell.rng import inverse_cdf


def channel_by_evolution(alpha: CoherentSpec, beta: CoherentSpec, params: KerrParams,
                         cutoff: FockCutoff) -> StateVector:
    """The channel built in full: |alpha> (x) |beta>, then the self-collisions
    of both wells and their cross-collision for a quarter period, each on the
    d^2 amplitudes."""
    state = tensor(prepare_coherent(alpha, cutoff), prepare_coherent(beta, cutoff))
    t = math.pi / (2 * params.kappa)
    state = evolve_self_kerr(state, 0, params, t)
    state = evolve_self_kerr(state, 1, params, t)
    return evolve_cross_kerr(state, (0, 1), params.kappa, t)


def protocol_state_by_evolution(config) -> StateVector:
    """The three-mode protocol state built in full: target (x) channel, the
    channel itself evolved in full, then the self-collisions of modes 0 and 1
    and their cross-collision for a quarter period, each on the d^3
    amplitudes."""
    target = prepare_cat_superposition(config.target, config.cutoff)
    chan = channel_by_evolution(config.alpha, config.beta, config.kerr, config.cutoff)
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


def collision_columns_by_propagation(cutoff: FockCutoff, jp: JosephsonParams, kp: KerrParams,
                                     t: float, reference: np.ndarray) -> np.ndarray:
    """Columns U(t) (|n> (x) |reference>) of the pair propagator, each input
    written out in full, (dim^2, dim) and mostly zero, and propagated sector
    by sector: the tridiagonal block of the pair Hamiltonian on the states
    |n, N - n> of each total number N, built and diagonalised here."""
    d = cutoff.dim
    cols = np.zeros((d * d, d), dtype=np.complex128)
    for n in range(d):
        cols[n * d:(n + 1) * d, n] = reference
    e0, kappa = kp.e0_over_hbar, kp.kappa
    for total in range(2 * d - 1):
        ns = np.arange(max(0, total - (d - 1)), min(total, d - 1) + 1)
        diag = e0 * total + kappa * (ns * (ns - 1.0) + (total - ns) * (total - ns - 1.0))
        hop = jp.omega / 2 * np.sqrt((ns[:-1] + 1.0) * (total - ns[:-1]))
        vals, vecs = np.linalg.eigh(np.diag(diag) + np.diag(hop, 1) + np.diag(hop, -1))
        idx = ns * d + (total - ns)
        cols[idx] = (vecs * np.exp(-1j * vals * t)) @ (vecs.T @ cols[idx])
    return cols


def coherent_amplitudes_by_loop(alpha: complex, dim: int) -> np.ndarray:
    """``fock.coherent_amplitudes`` as one numpy complex scalar per Fock level:
    c_n = c_{n-1} alpha / sqrt(n) written into a complex array, NaN past
    float range, times exp(-|a|^2/2)."""
    weight = math.exp(-abs(alpha) ** 2 / 2)
    c = np.zeros(dim, dtype=np.complex128)
    c[0] = 1.0
    with np.errstate(over="ignore", invalid="ignore"):
        for n in range(1, dim):
            c[n] = c[n - 1] * alpha / math.sqrt(n)
    return c * weight


def block_probabilities_by_density_matrix(rows: np.ndarray, blocks: np.ndarray) -> np.ndarray:
    """``probs[k, o] = Re(rows[o] rho_k rows[o]^H)``, clipped at 0, with
    rho_k = blocks[k] blocks[k]^H the reduced density matrix of each (r x w)
    block: the law of ``homodyne._block_probabilities``, row by row."""
    rho = blocks @ blocks.conj().transpose(0, 2, 1)
    return np.maximum(np.einsum("oi,kij,oj->ko", rows, rho, rows.conj()).real, 0.0)


def identity_reading(state: StateVector) -> ReceiverFactors:
    """A three-mode state over the identity basis of every mode (r = d): the
    unfactored reading ``BellMeasurement`` is compared against."""
    return ReceiverFactors(state.tensor_view(), (np.eye(state.dim),) * 3, state.leakage)


def run_scored_in_full(config) -> ProtocolResult:
    """``run_protocol`` with every trial scored on its d-wide conditional
    mode-3 amplitudes ``post``: |post @ probes|^2 over the rows' own norms,
    trial by trial."""
    bell = BellMeasurement(protocol_factors(config), config)
    u = substream(config.seed).random((config.trials, 6))
    receiver = _Receiver(config)
    columns, column = receiver.draw(*bell.draw(u[:, :4]), u[:, 4:])
    post = bell.conditionals(columns["stage1"], columns["stage2"])
    overlaps = np.abs(np.sum(post * receiver.probes.T[column], axis=1)) ** 2
    columns["fidelity"] = overlaps / np.sum(np.abs(post) ** 2, axis=1)
    return ProtocolResult(columns)


def displacement_linearization_error(delta: float, cutoff: FockCutoff) -> float:
    """Spectral-norm gap between exp(i delta X) and 1 + i delta X, X = a + a^dag.

    Quantifies the small-offset linearization sometimes quoted for the
    displacement hardware; the protocol always applies the exact operator.
    X here is twice the X_0 quadrature of the (a e^{-i phi} + a^dag e^{i phi})/2
    convention used elsewhere.
    """
    d = cutoff.dim
    lower = np.diag(np.sqrt(np.arange(1, d)), -1)
    x_op = lower + lower.T
    x, w = quadrature_eigensystem(d)
    gap = (w * np.exp(1j * delta * x)) @ w.T - (np.eye(d) + 1j * delta * x_op)
    return float(np.linalg.norm(gap, 2))


@dataclass(frozen=True)
class QuadratureEstimate:
    """Quadrature readout: value estimates <X_{reference_phase - pi/2}>."""

    value: float
    reference_phase: float
    reference_magnitude: float


def estimate_quadrature(signal: StateVector, beta: CoherentSpec, jp: JosephsonParams,
                        kp: KerrParams) -> QuadratureEstimate:
    """Readout at t = pi/(2 omega): (half population difference) / |beta|.

    Estimates <X_{theta - pi/2}> of the signal, theta = arg(beta); refuses
    above the perturbative domain epsilon * N = 0.1.
    """
    if jp.omega <= 0:
        raise ValidityDomainExceeded("quadrature readout needs omega > 0")
    eps = kp.kappa / jp.omega
    total = mean_occupation(signal, 0) + abs(beta.amplitude) ** 2
    if eps * total > EPSILON_N_LIMIT:
        raise ValidityDomainExceeded(
            f"epsilon*N = {eps * total:.3g} > {EPSILON_N_LIMIT}: quadrature readout invalid"
        )
    record = simulate_sx(signal, beta, jp, kp, [math.pi / (2 * jp.omega)])[0]
    magnitude = abs(beta.amplitude)
    return QuadratureEstimate(
        value=record.raw_half_diff / magnitude,
        reference_phase=cmath.phase(beta.amplitude),
        reference_magnitude=magnitude,
    )


def homodyne_bit_error(a: float, r: float) -> float:
    """P(bit 1) of the atom-counting readout of |a>, real a > 0 on axis 0,
    against reference magnitude r at kappa = 0, free of any cutoff.

    At kappa = 0 a quarter tunnelling period is a 50:50 beam splitter, so
    the counts are independent: m_c ~ Poisson((a + r)^2 / 2) and m_b ~
    Poisson((r - a)^2 / 2). The bit is 1 when m_c < m_b, and a tie splits
    evenly: P = sum_k P(m_b = k) [P(m_c < k) + P(m_c = k) / 2]. The sum stops
    at the first K >= E[m_b] whose Chernoff bound P(m_b > K) <= e^{-mu}
    (e mu / (K + 1))^(K + 1) is below 1e-20, which bounds the dropped terms;
    every kept term is a finite sum.
    """
    mu_c, mu_b = (a + r) ** 2 / 2, (r - a) ** 2 / 2
    last = math.ceil(mu_b)
    while mu_b > 0 and math.exp(-mu_b) * (math.e * mu_b / (last + 1)) ** (last + 1) > 1e-20:
        last += 1

    def pmf(mu):
        p = [math.exp(-mu)]
        for j in range(1, last + 1):
            p.append(p[-1] * mu / j)
        return p

    p_c, p_b = pmf(mu_c), pmf(mu_b)
    return sum(p_b[k] * (sum(p_c[:k]) + p_c[k] / 2) for k in range(last + 1))
