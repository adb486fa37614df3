import cmath
import dataclasses
import gc
import math
import warnings
import weakref

import numpy as np
import pytest

import triwell.dynamics
import triwell.protocol
from triwell import (
    AmbiguousSupport,
    AuxiliaryPrep,
    CoherentSpec,
    CrossSpeciesParams,
    FockCutoff,
    JosephsonParams,
    KerrParams,
    PerturbativeInit,
    ProtocolConfig,
    SuperpositionSpec,
    ValidityDomainExceeded,
    evolve_josephson,
    initial_schwinger,
    perturbative_sx,
    prepare_cat_superposition,
    prepare_coherent,
    prepare_number,
    run_protocol,
    simulate_sx,
    substream,
    tensor,
)
from triwell.fock import coherent_amplitudes, quadrature_expectation
from triwell.protocol import BellMeasurement, protocol_factors
from triwell.rng import MIN_OUTCOME_PROBABILITY, inverse_cdf
from triwell.homodyne import (
    HomodynePhaseDiscriminator,
    IdealPhaseDiscriminator,
    _PreparedReadout,
    _block_probabilities,
    _pair_schwinger,
    helstrom_vectors,
)
from triwell.channel import parity_basis

from oracles import (beam_splitter_rows, block_probabilities_by_density_matrix,
                     estimate_quadrature, homodyne_bit_error, poisson_tail)


def probability(prepared, outcome: int) -> float:
    """Probability of the raw outcome id ``outcome`` in a prepared readout."""
    (row,) = np.flatnonzero(prepared.readout.outcomes == outcome)
    return prepared.probs[row]


class TestSimulateSx:
    def test_symmetric_inputs_stay_balanced(self):
        cutoff = FockCutoff(20)
        signal = prepare_coherent(CoherentSpec(1.0), cutoff)
        records = simulate_sx(signal, CoherentSpec(1.0), JosephsonParams(1.0),
                              KerrParams(0.0, 0.0), np.linspace(0, 3, 7))
        for rec in records:
            assert abs(rec.sx) < 1e-10

    def test_initial_value_is_definition(self):
        cutoff = FockCutoff(26)
        signal = prepare_coherent(CoherentSpec(1.0), cutoff)
        rec = simulate_sx(signal, CoherentSpec(2.0j), JosephsonParams(1.0),
                          KerrParams(0.0, 0.0), [0.0])[0]
        assert rec.sx.real == pytest.approx((1 - 4) / (2 * 5), abs=1e-10)
        assert rec.raw_half_diff == pytest.approx(-1.5, abs=1e-10)

    def test_beam_splitter_quadrature_relation(self):
        # kappa = 0, |1> signal, reference 2i: half difference at omega t = pi/2 is 2
        cutoff = FockCutoff(24)
        signal = prepare_coherent(CoherentSpec(1.0), cutoff)
        omega = 1.0
        rec = simulate_sx(signal, CoherentSpec(2.0j), JosephsonParams(omega),
                          KerrParams(0.0, 0.0), [math.pi / (2 * omega)])[0]
        assert rec.raw_half_diff == pytest.approx(2.0, abs=1e-6)

    def test_sx_is_real(self):
        cutoff = FockCutoff(20)
        signal = prepare_coherent(CoherentSpec(0.8j), cutoff)
        records = simulate_sx(signal, CoherentSpec(1.0), JosephsonParams(1.0),
                              KerrParams(0.3, 0.02), [0.4, 1.1])
        for rec in records:
            assert abs(rec.sx.imag) < 1e-10
            assert abs(rec.sy.imag) < 1e-10

    def test_unitary_even_when_self_trapped(self):
        # epsilon*N > 1 breaks the perturbative formula, not the simulation
        cutoff = FockCutoff(22)
        signal = prepare_coherent(CoherentSpec(1.5), cutoff)
        records = simulate_sx(signal, CoherentSpec(1.5), JosephsonParams(0.1),
                              KerrParams(0.0, 1.0), [2.0])
        assert records[0].normalization == pytest.approx(4.5, abs=1e-8)


class TestPerturbative:
    def test_unperturbed_rotation(self):
        init = PerturbativeInit(0.25, -0.1, 0.3, 0.0)
        omega, t = 1.3, 0.7
        value = perturbative_sx(init, 4.0, omega, t)
        expected = 0.25 * math.cos(omega * t) + 0.1 * math.sin(omega * t)
        assert value == pytest.approx(expected, abs=1e-12)

    def test_quarter_period_equal_populations(self):
        init = PerturbativeInit(0.4, -0.2, 0.1, 0.0)
        omega = 2.0
        value = perturbative_sx(dataclasses.replace(init, x0=0.0), 4.0, omega,
                                math.pi / (2 * omega))
        assert value == pytest.approx(0.2, abs=1e-12)

    def test_validity_domain(self):
        init = PerturbativeInit(0.0, 0.1, 0.0, 0.05)
        with pytest.raises(ValidityDomainExceeded):
            perturbative_sx(init, 4.0, 1.0, 0.5)

    def test_warning_band(self):
        init = PerturbativeInit(0.0, 0.1, 0.0, 0.01)
        with pytest.warns(UserWarning):
            perturbative_sx(init, 4.0, 1.0, 0.5)

    def test_exact_at_zero_kappa(self):
        # full simulation and the formula agree to 1e-8 when kappa = 0
        cutoff = FockCutoff(22)
        signal = prepare_coherent(CoherentSpec(math.sqrt(2)), cutoff)
        beta = CoherentSpec(math.sqrt(2) * 1j)
        omega = 1.0
        t_grid = np.linspace(0, math.pi, 13)
        records = simulate_sx(signal, beta, JosephsonParams(omega),
                              KerrParams(0.0, 0.0), t_grid)
        init = initial_schwinger(signal, beta)
        for rec in records:
            pert = perturbative_sx(init, rec.normalization, omega, rec.t)
            assert abs(rec.sx - pert) < 1e-8

    def test_first_order_scaling(self):
        # deviation from the first-order formula shrinks ~linearly in epsilon
        cutoff = FockCutoff(24)
        omega = 1.0
        signal = prepare_coherent(CoherentSpec(math.sqrt(2)), cutoff)
        beta = CoherentSpec(math.sqrt(2) * cmath.exp(1j * math.pi / 4))
        t_grid = np.linspace(0, math.pi, 21)
        base = initial_schwinger(signal, beta)
        deviations = []
        for eps in (0.02, 0.01, 0.005):
            records = simulate_sx(signal, beta, JosephsonParams(omega),
                                  KerrParams(0.0, eps * omega), t_grid)
            init = PerturbativeInit(base.x0, base.y0, base.z0, eps)
            dev = max(
                abs(rec.sx - perturbative_sx(init, rec.normalization, omega, rec.t))
                for rec in records
            )
            deviations.append(dev)
        for larger, smaller in zip(deviations, deviations[1:]):
            assert 1.8 <= larger / smaller <= 2.4


class TestQuadratureEstimate:
    def test_vacuum(self):
        cutoff = FockCutoff(40)
        est = estimate_quadrature(prepare_number(0, cutoff), CoherentSpec(2.0j),
                                  JosephsonParams(1.0), KerrParams(0.0, 0.0))
        assert est.value == pytest.approx(0.0, abs=1e-6)

    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_sign_resolves_the_branch(self, sign):
        cutoff = FockCutoff(40)
        signal = prepare_coherent(CoherentSpec(sign * 1.0), cutoff)
        est = estimate_quadrature(signal, CoherentSpec(2.0j), JosephsonParams(1.0),
                                  KerrParams(0.0, 0.0))
        assert est.value == pytest.approx(sign * 1.0, abs=1e-6)
        assert est.reference_phase == pytest.approx(math.pi / 2)

    def test_validity_domain_guard(self):
        # epsilon * N above 0.1 refuses before any evolution happens
        cutoff = FockCutoff(40)
        signal = prepare_coherent(CoherentSpec(1.0), cutoff)
        with pytest.raises(ValidityDomainExceeded):
            estimate_quadrature(signal, CoherentSpec(2.0j), JosephsonParams(1.0),
                                KerrParams(0.0, 0.1))

    def test_estimates_rotated_quadrature(self):
        # reference at angle theta reads X_{theta - pi/2} of the signal
        cutoff = FockCutoff(40)
        amp = 0.9 * cmath.exp(0.6j)
        signal = prepare_coherent(CoherentSpec(amp), cutoff)
        theta = 1.1
        est = estimate_quadrature(signal, CoherentSpec(2.0 * cmath.exp(1j * theta)),
                                  JosephsonParams(1.0), KerrParams(0.0, 0.0))
        assert est.value == pytest.approx(
            quadrature_expectation(signal, 0, theta - math.pi / 2), abs=1e-6
        )


class TestPhaseBit:
    def test_helstrom_success_probability(self):
        cutoff = FockCutoff(28)
        disc = IdealPhaseDiscriminator(2.0, cutoff)
        plus = prepare_coherent(CoherentSpec(2.0), cutoff)
        # raw projections: the Helstrom pair must span the signal to 1e-10
        p0 = abs(np.vdot(disc.w0, plus.amplitudes)) ** 2
        p1 = abs(np.vdot(disc.w1, plus.amplitudes)) ** 2
        overlap = math.exp(-8.0)
        bound = 1 - 0.5 * (1 - math.sqrt(1 - overlap**2))
        assert p0 >= bound - 1e-12
        assert p0 + p1 == pytest.approx(1.0, abs=1e-10)
        assert disc.prepare(plus, 0).bit_probabilities == pytest.approx((p0, p1), abs=1e-10)

    def test_ideal_bit_on_pure_branches(self):
        cutoff = FockCutoff(28)
        disc = IdealPhaseDiscriminator(2.0, cutoff)
        draws = substream(5).random((64, 2))
        for sign, want in ((1.0, 0), (-1.0, 1)):
            signal = prepare_coherent(CoherentSpec(sign * 2.0), cutoff)
            _, bits = disc.prepare(signal, 0).draw(draws[:, 0], draws[:, 1])
            assert (bits == want).all()

    def test_helstrom_vectors_orthonormal(self):
        w0, w1 = helstrom_vectors(1.5, FockCutoff(24))
        assert np.vdot(w0, w0).real == pytest.approx(1.0, abs=1e-10)
        assert abs(np.vdot(w0, w1)) < 1e-10

    def test_homodyne_bit_error_bound(self):
        # |-2> should read bit 1 with probability >= 0.997 (exact computation)
        cutoff = FockCutoff(52)
        disc = HomodynePhaseDiscriminator(0.0, cutoff, 4.0, JosephsonParams(1.0),
                                          KerrParams(0.0, 0.0))
        minus = prepare_coherent(CoherentSpec(-2.0), cutoff)
        prepared = disc.prepare(minus, 0)
        p_plus, p_minus = prepared.bit_probabilities
        assert p_minus >= 0.997
        draws = substream(7).random((200, 2))
        _, bits = prepared.draw(draws[:, 0], draws[:, 1])
        assert np.mean(bits) >= 0.98

    @pytest.mark.parametrize("magnitude, n_max", [(2.0, 40), (4.0, 60), (6.0, 80)])
    def test_homodyne_bit_error_at_zero_kappa_is_the_poisson_law(self, magnitude, n_max):
        # at kappa = 0 the readout is a beam splitter, so the error of |2> is the
        # cutoff-free Poisson law; it moves by at most what the two tables drop
        # plus one rounding unit per count outcome
        a, cutoff = 2.0, FockCutoff(n_max)
        signal = prepare_coherent(CoherentSpec(a), cutoff)
        reference = prepare_coherent(CoherentSpec(magnitude * 1j), cutoff)
        bound = signal.leakage + reference.leakage + cutoff.dim**2 * np.finfo(float).eps
        disc = HomodynePhaseDiscriminator(0.0, cutoff, magnitude, JosephsonParams(1000.0),
                                          KerrParams(0.0, 0.0))
        error = disc.prepare(signal, 0).bit_probabilities[1]
        assert abs(error - homodyne_bit_error(a, magnitude)) <= bound
        if magnitude == a:  # m_b = 0 always: the bit is 1 only on a tie at m_c = 0
            assert homodyne_bit_error(a, a) == pytest.approx(math.exp(-2 * a**2) / 2,
                                                             rel=1e-15, abs=0)
            assert abs(error - math.exp(-2 * a**2) / 2) <= bound

    def test_homodyne_sign_fidelity_with_collisions(self):
        # |g| = 1.5, eps*N <= 0.02: sampled sign matches the branch >= 99%
        cutoff = FockCutoff(46)
        magnitude = 1.5
        jp, kp = JosephsonParams(1000.0), KerrParams(1.0, 1.0)
        assert (kp.kappa / jp.omega) * (magnitude**2 + 9.0) <= 0.02
        disc = HomodynePhaseDiscriminator(0.0, cutoff, 3.0, jp, kp)
        rng = substream(13)
        for sign, want in ((1.0, 0), (-1.0, 1)):
            signal = prepare_coherent(CoherentSpec(sign * magnitude), cutoff)
            prepared = disc.prepare(signal, 0)
            draws = rng.random((10**4, 2))
            _, bits = prepared.draw(draws[:, 0], draws[:, 1])
            assert np.mean(bits == want) >= 0.99

    def test_ideal_array_draw_matches_elementwise(self):
        cutoff = FockCutoff(28)
        cat = prepare_cat_superposition(SuperpositionSpec(0.6, 0.8, 2.0), cutoff)
        prepared = IdealPhaseDiscriminator(2.0, cutoff).prepare(cat, 0)
        draws = substream(21).random((2000, 2))
        outcome, bit = prepared.draw(draws[:, 0], draws[:, 1])
        single = [prepared.draw(draws[i:i + 1, 0], draws[i:i + 1, 1]) for i in range(2000)]
        assert outcome.tolist() == [o[0] for o, _ in single]
        assert bit.tolist() == [b[0] for _, b in single]
        assert set(bit.tolist()) == {0, 1}

    def test_ideal_draw_is_the_generic_draw(self):
        # the one-comparison ideal draw equals the inverse-CDF draw, also on
        # a selector exactly at the CDF step and at both ends of [0, 1)
        cutoff = FockCutoff(28)
        cat = prepare_cat_superposition(SuperpositionSpec(0.6, 0.8, 2.0), cutoff)
        prepared = IdealPhaseDiscriminator(2.0, cutoff).prepare(cat, 0)
        draws = substream(29).random((2000, 2))
        draws[:3, 0] = prepared.cdf[0], 0.0, 1 - 2**-53
        fast = prepared.draw(draws[:, 0], draws[:, 1])
        generic = _PreparedReadout.draw(prepared, draws[:, 0], draws[:, 1])
        for got, want in zip(fast, generic):
            assert got.dtype == want.dtype
            assert got.tolist() == want.tolist()
        assert fast[1][:3].tolist() == [0, 1, 0]

    def test_homodyne_order_is_value_then_counts(self):
        cutoff = FockCutoff(20)
        disc = HomodynePhaseDiscriminator(0.3, cutoff, 1.0, JosephsonParams(1.0),
                                          KerrParams(0.0, 0.0))
        m_c, m_b = np.divmod(np.arange(cutoff.dim**2), cutoff.dim)
        assert disc.order.tolist() == np.lexsort((m_b, m_c, disc.values)).tolist()

    def test_homodyne_rows_are_an_isometry(self):
        # so the support-leftover check of a prepared readout never fires here
        cutoff = FockCutoff(26)
        disc = HomodynePhaseDiscriminator(0.7, cutoff, 2.0, JosephsonParams(1000.0),
                                          KerrParams(1.0, 1.0))
        gram = disc.rows.conj().T @ disc.rows
        assert np.abs(gram - np.eye(cutoff.dim)).max() < 1e-12

    def test_homodyne_array_draw_matches_elementwise(self):
        # half the selectors land inside the CDF steps of zero-value (tie)
        # outcomes, so each element must read its own tie-breaker
        cutoff = FockCutoff(26)
        disc = HomodynePhaseDiscriminator(0.0, cutoff, 2.0, JosephsonParams(1.0),
                                          KerrParams(0.0, 0.0))
        prepared = disc.prepare(prepare_coherent(CoherentSpec(1.0), cutoff), 0)
        lower = np.concatenate(([0.0], prepared.cdf[:-1]))
        ties = np.flatnonzero((disc.values[disc.order] == 0) & (prepared.cdf > lower))
        rng = substream(23)
        draws = rng.random((2000, 2))
        steps = rng.choice(ties, 1000)
        draws[:1000, 0] = (lower[steps] + prepared.cdf[steps]) / 2
        row, bit = prepared.draw(draws[:, 0], draws[:, 1])
        single = [prepared.draw(draws[i:i + 1, 0], draws[i:i + 1, 1]) for i in range(2000)]
        assert row.tolist() == [k[0] for k, _ in single]
        assert bit.tolist() == [b[0] for _, b in single]
        tied = prepared.readout.values[row] == 0
        assert tied[:1000].all()
        assert set(bit[tied].tolist()) == {0, 1}
        assert (bit[tied] == (draws[tied, 1] < 0.5)).all()

    @staticmethod
    def tail_readout():
        # this readout's summed probabilities end ~6.7e-16 below 1, and its
        # last outcomes in CDF order have probability ~1e-26 or 0
        cutoff = FockCutoff(26)
        disc = HomodynePhaseDiscriminator(0.0, cutoff, 1.0, JosephsonParams(1000.0),
                                          KerrParams(1.0, 1.0))
        signal = tensor(prepare_coherent(CoherentSpec(0.5), cutoff), prepare_number(0, cutoff))
        return disc, signal, disc.prepare(signal, 0)

    def test_top_selector_draws_a_possible_outcome(self):
        disc, _, prepared = self.tail_readout()
        assert prepared.cdf[-1] == 1.0
        (k,), _ = prepared.draw(np.array([1 - 2**-53]), np.array([0.5]))
        assert prepared.cdf[k] - prepared.cdf[k - 1] > 0

    def test_top_selector_draws_an_outcome_with_a_posterior(self):
        # outcomes below the probability floor have zero width in the CDF, so
        # every draw leaves a state of at least the floor's squared norm
        disc, signal, prepared = self.tail_readout()
        (row,), _ = prepared.draw(np.array([1 - 2**-53]), np.array([0.5]))
        outcome = prepared.readout.outcomes[row]
        assert probability(prepared, outcome) >= MIN_OUTCOME_PROBABILITY
        after = disc.rows[outcome] @ signal.amplitudes.reshape(signal.dim, -1)
        assert np.vdot(after, after).real == pytest.approx(probability(prepared, outcome),
                                                           rel=1e-9)

    def test_posterior_is_count_state(self):
        # counting the signal leaves an untouched count-state mode as it was
        cutoff = FockCutoff(52)
        signal = prepare_coherent(CoherentSpec(1.5), cutoff)
        disc = HomodynePhaseDiscriminator(0.0, cutoff, 4.0, JosephsonParams(1.0),
                                          KerrParams(0.0, 0.0))
        joint = tensor(signal, prepare_number(3, cutoff))
        prepared = disc.prepare(joint, 0)
        (row,), (bit,) = prepared.draw(*substream(3, 1).random((2, 1)))
        outcome = prepared.readout.outcomes[row]
        assert bit == 0
        posterior = disc.rows[outcome] @ joint.amplitudes.reshape(cutoff.dim, -1)
        posterior /= math.sqrt(probability(prepared, outcome))
        assert np.flatnonzero(posterior).tolist() == [3]
        assert abs(posterior[3]) == pytest.approx(1.0, abs=1e-10)

    def test_null_outcome_is_never_drawn(self):
        # all 26 atoms of vacuum (x) |2i> counted in the signal well: ~3e-21,
        # below the floor, so it is off the support or its CDF step is empty,
        # and no selector reaches it
        cutoff = FockCutoff(26)
        disc = HomodynePhaseDiscriminator(0.0, cutoff, 2.0, JosephsonParams(1.0),
                                          KerrParams(0.0, 0.0))
        signal = tensor(prepare_number(0, cutoff), prepare_number(3, cutoff))
        prepared = disc.prepare(signal, 0)
        null = cutoff.n_max * cutoff.dim
        after = disc.rows[null] @ signal.amplitudes.reshape(cutoff.dim, -1)
        assert 0 < np.vdot(after, after).real < MIN_OUTCOME_PROBABILITY
        rows = np.flatnonzero(prepared.readout.outcomes == null)
        assert (np.diff(prepared.cdf, prepend=0.0)[rows] == 0).all()

    def test_ambiguous_support(self):
        with pytest.raises(AmbiguousSupport):
            IdealPhaseDiscriminator(0.0, FockCutoff(12))

    @pytest.mark.parametrize("magnitude", [0.0, -1.0, math.nan])
    def test_reference_magnitude_must_be_positive(self, magnitude):
        # the sample value (m_c - m_b) / (2 |r|) needs |r| > 0
        with pytest.raises(AmbiguousSupport, match="reference magnitude"):
            HomodynePhaseDiscriminator(0.0, FockCutoff(12), magnitude, JosephsonParams(1000.0),
                                       KerrParams(1.0, 1.0))

    def test_support_leftover_guard(self):
        # a number state far from the +-2 pair is rejected by the ideal backend
        cutoff = FockCutoff(28)
        stray = prepare_number(9, cutoff)
        with pytest.raises(AmbiguousSupport):
            IdealPhaseDiscriminator(2.0, cutoff).prepare(stray, 0)

    def test_posterior_norm(self):
        cutoff = FockCutoff(30)
        cat = prepare_cat_superposition(SuperpositionSpec(1.0, 1.0, 2.0), cutoff)
        other = prepare_coherent(CoherentSpec(1.0j), cutoff)
        disc = IdealPhaseDiscriminator(2.0, cutoff)
        joint = tensor(cat, other)
        prepared = disc.prepare(joint, 0)
        for outcome in (0, 1):
            posterior = disc.rows[outcome] @ joint.amplitudes.reshape(cutoff.dim, -1)
            posterior /= math.sqrt(probability(prepared, outcome))
            assert np.linalg.norm(posterior) == pytest.approx(1.0, abs=1e-10)
            assert abs(np.vdot(other.amplitudes, posterior)) == pytest.approx(1.0, abs=1e-10)


class TestBeamSplitterLimit:
    """At kappa = 0 the readout is a linear beam splitter, so its rows over
    the parity basis of |2> have a closed form (``oracles.beam_splitter_rows``)
    with no propagator and no cutoff but the coherent tables' own."""

    @pytest.mark.parametrize("e0", [0.0, 1.0])
    @pytest.mark.parametrize("n_max", [26, 40, 60])
    def test_parity_basis_rows_are_the_closed_form(self, n_max, e0):
        a, r, omega, cutoff = 2.0, 2.0, 1000.0, FockCutoff(n_max)
        d = cutoff.dim
        disc = HomodynePhaseDiscriminator(0.0, cutoff, r, JosephsonParams(omega),
                                          KerrParams(e0, 0.0))
        parity = parity_basis(prepare_coherent(CoherentSpec(a), cutoff).amplitudes)
        readout = disc.readouts([parity.basis])[0]
        # the prepared tables are the raw tables cut at d levels over their norms
        scale = np.linalg.norm(coherent_amplitudes(a, d)) * np.linalg.norm(
            coherent_amplitudes(1j * r, d))
        plus, minus = (beam_splitter_rows(s * a, 1j * r, e0, omega, d) for s in (1, -1))
        closed = np.stack([(plus + (-1) ** p * minus) / (2 * norm * scale)
                           for p, norm in zip(parity.parities, parity.norms)], axis=1)
        # Bound, fixed before measuring. The truncated propagator is exact on
        # the sectors of total count N <= n_max and the closed form holds the
        # same there; the product table |+-a>|r> holds P(N > n_max) =
        # Poisson(|a|^2 + |r|^2) tail T outside them, so each side misses at
        # most sqrt(T) in 2-norm (an amplitude goes with the root of a
        # leakage). Each parity column divides the two inputs' 2 (2 sqrt(T))
        # by 2 |part| x scale, plus d^2 float epsilons per entry.
        tail = math.sqrt(poisson_tail(a**2 + r**2, n_max))
        bound = 2 * tail / (parity.norms * scale) + d**2 * np.finfo(float).eps
        assert (np.abs(readout.rows - closed[readout.outcomes]).max(axis=0) <= bound).all()
        # the kept ids are the closed form's at or above half the floor, but
        # for ids whose closed-form row norm lies within the bound of it
        root_floor = math.sqrt(MIN_OUTCOME_PROBABILITY / 2)
        norm = np.linalg.norm(closed, axis=1)
        near = np.abs(norm - root_floor) <= bound.sum()
        kept = np.zeros(d * d, dtype=bool)
        kept[readout.outcomes] = True
        assert np.array_equal(kept[~near], (norm >= root_floor)[~near])
        assert kept[~near].any()  # at n_max 26 the bound (~4e-4) covers every dropped id
        assert np.array_equal(readout.outcomes, disc.order[kept[disc.order]])  # in CDF order

    @pytest.mark.parametrize("kappa", [0.0, 1.0])
    def test_bit_error_is_at_least_the_helstrom_bound(self, kappa):
        # no measurement tells |2> from |-2> (|<2|-2>|^2 = e^{-16}) with an
        # error below (1 - sqrt(1 - e^{-16})) / 2
        cutoff = FockCutoff(40)
        disc = HomodynePhaseDiscriminator(0.0, cutoff, 2.0, JosephsonParams(1000.0),
                                          KerrParams(kappa, kappa))
        helstrom = (1 - math.sqrt(1 - math.exp(-16))) / 2
        plus, minus = (disc.prepare(prepare_coherent(CoherentSpec(a), cutoff), 0).bit_probabilities
                       for a in (2.0, -2.0))
        assert plus[1] >= helstrom
        assert (plus[1] + minus[0]) / 2 >= helstrom


def teleport_config(n_max: int, **overrides) -> ProtocolConfig:
    """The benchmark's homodyne teleport run: target 0.6|2> + 0.8|-2>,
    channel alpha = 2, beta = 2i, e0 = kappa = 1, omega = 1000."""
    base = dict(target=SuperpositionSpec(0.6, 0.8, 2.0), alpha=CoherentSpec(2.0),
                beta=CoherentSpec(2j), kerr=KerrParams(1.0, 1.0),
                josephson=JosephsonParams(1000.0), cross_species=CrossSpeciesParams(0.5),
                cutoff=FockCutoff(n_max), measurement_backend="homodyne", p_d=0.7,
                aux=AuxiliaryPrep("coherent", 2.0))
    return ProtocolConfig(**{**base, **overrides})


SUPPORT_CONFIGS = {
    "bench-26": teleport_config(26),
    "bench-40": teleport_config(40),
    "gamma-1.5": teleport_config(40, target=SuperpositionSpec(0.6, 0.8, 1.5)),
    "reference-3": teleport_config(40, reference_magnitude=3.0),
}


def stage_laws(config: ProtocolConfig):
    """(discriminator, basis, coefficient block, prepared readout) for every
    law a run can read: stage 1 on the core, and stage 2 after each stage-1
    outcome of at least the floor."""
    factors = protocol_factors(config)
    bell = BellMeasurement(factors, config)
    first, core = bell._first, factors.core.reshape(len(factors.core), -1)
    laws = [(bell.stages[0], factors.bases[0], core, first)]
    drawable = first.probs >= MIN_OUTCOME_PROBABILITY
    blocks = bell.readouts[0].rows[drawable] @ core / np.sqrt(first.probs[drawable])[:, None]
    probs, cdfs = bell._second_laws(np.flatnonzero(drawable))
    for block, law, cdf in zip(blocks, probs, cdfs):
        laws.append((bell.stages[1], factors.bases[1], block.reshape(factors.core.shape[1], -1),
                     bell.stages[1].prepared(bell.readouts[1], law, cdf)))
    return laws


class TestDrawableSupport:
    """A homodyne readout keeps the outcomes a draw can reach: U is unitary
    per total-number sector, so a normalised signal gives outcome o at most
    |rows[o]|^2, and every outcome it drops stays below half the floor."""

    @pytest.mark.parametrize("name", SUPPORT_CONFIGS)
    def test_dropped_outcomes_are_below_half_the_floor(self, name):
        laws = stage_laws(SUPPORT_CONFIGS[name])
        assert len(laws) > 10
        rows = {disc: disc.rows for disc in {law[0] for law in laws}}
        for disc, basis, block, prepared in laws:
            probs = (np.abs(rows[disc] @ (basis @ block)) ** 2).sum(axis=1)
            dropped = np.ones(len(probs), dtype=bool)
            dropped[prepared.readout.outcomes] = False
            assert dropped.any()
            assert probs[dropped].max() < MIN_OUTCOME_PROBABILITY / 2
            # the kept rows carry the same probabilities as the full form
            np.testing.assert_allclose(prepared.probs, probs[prepared.readout.outcomes],
                                       rtol=0, atol=1e-15)

    @pytest.mark.parametrize("name", SUPPORT_CONFIGS)
    def test_random_states_in_the_span_stay_on_the_support(self, name):
        config = SUPPORT_CONFIGS[name]
        factors = protocol_factors(config)
        bell = BellMeasurement(factors, config)
        rng = substream(61)
        for disc, basis, readout in zip(bell.stages, factors.bases, bell.readouts):
            rows = disc.rows
            dropped = np.setdiff1d(np.arange(len(rows)), readout.outcomes)
            for _ in range(20):
                shape = (basis.shape[1], 3)
                coeff = rng.normal(size=shape) + 1j * rng.normal(size=shape)
                coeff /= np.linalg.norm(coeff)  # a normalised state in the span
                probs = (np.abs(rows @ (basis @ coeff)) ** 2).sum(axis=1)
                assert probs[dropped].max() < MIN_OUTCOME_PROBABILITY / 2

    def test_bench_support_size(self):
        # n_max 40: 312 of 1681 count outcomes are kept for stage 2
        config = SUPPORT_CONFIGS["bench-40"]
        bell = BellMeasurement(protocol_factors(config), config)
        assert len(bell.readouts[1].outcomes) == 312
        assert len(bell.stages[1].values) == 1681

    @pytest.mark.parametrize("name", SUPPORT_CONFIGS)
    def test_draws_equal_the_full_outcome_law(self, name):
        # the support's law against the d^2-outcome law of the full form:
        # its kept probabilities plus every dropped one, in the full CDF
        # order, drawn by searchsorted; selectors on every CDF step, 0 and
        # the largest double below 1 included
        rng = substream(67)
        laws = stage_laws(SUPPORT_CONFIGS[name])
        rows = {disc: disc.rows for disc in {law[0] for law in laws}}
        for disc, basis, block, prepared in laws:
            full = (np.abs(rows[disc] @ (basis @ block)) ** 2).sum(axis=1)
            full[prepared.readout.outcomes] = prepared.probs
            cdf = inverse_cdf(full[disc.order])
            steps = np.unique(cdf[cdf < 1.0])
            u_select = np.concatenate([steps, rng.random(2000), [0.0, 1 - 2**-53]])
            u_tie = rng.random(len(u_select))
            want = disc.order[np.searchsorted(cdf, u_select, side="right")]
            value = disc.values[want]
            want_bit = np.where(value == 0, u_tie < 0.5, value < 0).astype(np.int64)
            row, bit = prepared.draw(u_select, u_tie)
            assert prepared.readout.outcomes[row].tolist() == want.tolist()
            assert bit.tolist() == want_bit.tolist()


class TestSharedReadouts:
    """``readouts(bases)`` runs one pair-propagator product over the bases side
    by side and filters each basis over its own columns, so it reads, basis
    by basis, what the readout of that basis alone reads."""

    @staticmethod
    def assert_per_basis(disc, bases):
        for shared, basis in zip(disc.readouts(bases), bases):
            alone = disc.readout(basis)
            assert np.array_equal(shared.outcomes, alone.outcomes)
            assert np.array_equal(shared.values, alone.values)
            np.testing.assert_allclose(shared.rows, alone.rows, rtol=0, atol=1e-15)

    @pytest.mark.parametrize("n_max", [26, 40, 60])
    def test_protocol_parity_bases(self, n_max):
        config = teleport_config(n_max)
        factors = protocol_factors(config)
        bell = BellMeasurement(factors, config)
        assert bell.stages[0] is bell.stages[1]  # gamma == alpha: one discriminator
        self.assert_per_basis(bell.stages[0], factors.bases[:2])

    def test_a_sector_above_the_floor_for_one_basis_only(self):
        cutoff = FockCutoff(40)
        disc = HomodynePhaseDiscriminator(0.0, cutoff, 2.0, JosephsonParams(1000.0),
                                          KerrParams(1.0, 1.0))
        bases = [parity_basis(prepare_cat_superposition(SuperpositionSpec(0.6, 0.8, gamma),
                                                        cutoff).amplitudes).basis
                 for gamma in (0.5, 3.0)]
        # B_N of each basis: some sector clears the floor for |3> but not |0.5>
        floor = MIN_OUTCOME_PROBABILITY / 2
        small, large = (np.convolve((np.abs(basis) ** 2).sum(axis=1),
                                    np.abs(disc.reference_amplitudes) ** 2) for basis in bases)
        assert np.any((small < floor) & (large >= floor))
        self.assert_per_basis(disc, bases)

    def test_any_memory_layout_reads_as_its_c_copy(self):
        # the pair propagator views its inputs as float pairs, so a basis in
        # Fortran order (as from an SVD's ``vh.conj().T``) or a strided view
        # reads, bit for bit, as its C-ordered copy
        cutoff, rng = FockCutoff(12), substream(109)
        d = cutoff.dim
        disc = HomodynePhaseDiscriminator(0.3, cutoff, 1.0, JosephsonParams(1000.0),
                                          KerrParams(1.0, 1.0))
        v, _ = np.linalg.qr(rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)))
        z = np.ascontiguousarray(v[:, :3])
        block = rng.normal(size=(3, 4)) + 1j * rng.normal(size=(3, 4))
        block /= np.linalg.norm(block)
        for basis in (np.asfortranarray(z), z[:, ::-1][:, ::-1], z[:, ::-1], v[:, :6:2]):
            copy = np.ascontiguousarray(basis)
            for got, want in zip(disc.readouts([basis, copy]), disc.readouts([copy, copy])):
                assert np.array_equal(got.rows, want.rows)
                assert np.array_equal(got.outcomes, want.outcomes)
            got, want = disc.readout(basis), disc.readout(copy)
            assert np.array_equal(got.rows, want.rows)
            assert np.array_equal(disc.prepare_block(got, block).cdf,
                                  disc.prepare_block(want, block).cdf)


def recorded_eigensystems(monkeypatch) -> list:
    """Wrap the pair eigensystem builder; the list gets a weakref to every
    array of each eigensystem it returns, one list entry per build."""
    build, built = triwell.dynamics._josephson_sectors, []

    def recorded(*args):
        sectors = build(*args)
        built.append([weakref.ref(array) for array in sectors])
        return sectors

    monkeypatch.setattr(triwell.dynamics, "_josephson_sectors", recorded)
    return built


class TestEigensystemPerCall:
    """A pair eigensystem lives for the call that builds it: no array of
    one outlives its call, and a time grid is evolved from one."""

    def test_no_eigensystem_outlives_its_call(self, monkeypatch):
        built = recorded_eigensystems(monkeypatch)
        config = teleport_config(26, trials=200)
        triwell.protocol._set_up_of.cache_clear()  # a cold call builds the readouts
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # the displacement-ratio warning
            run_protocol(config)
        for omega in (500.0, 2000.0, 4000.0):
            triwell.protocol._set_up_of(
                dataclasses.replace(config, josephson=JosephsonParams(omega), trials=1))
        gc.collect()
        assert len(built) == 4  # one per set-up: gamma == alpha shares a discriminator
        assert all(ref() is None for refs in built for ref in refs)

    @pytest.mark.parametrize("kappa, e0", [(0.0, 0.0), (0.05, 0.3)],
                             ids=["cli-defaults", "kappa"])
    def test_grid_is_the_per_time_evolution(self, kappa, e0, monkeypatch):
        # the homodyne subcommand's defaults: |1> signal, reference 2i,
        # omega 1, 41 times over [0, pi / omega], n_max 24
        cutoff, beta, jp, kp = FockCutoff(24), CoherentSpec(2.0j), JosephsonParams(1.0), \
            KerrParams(e0, kappa)
        signal = prepare_cat_superposition(SuperpositionSpec(1.0, 0.0, 1.0 + 0j), cutoff)
        t_grid = np.linspace(0.0, math.pi / jp.omega, 41)
        joint = tensor(signal, prepare_coherent(beta, cutoff))
        want = [_pair_schwinger(evolve_josephson(joint, (0, 1), jp, kp, float(t)), float(t))
                for t in t_grid]
        built = recorded_eigensystems(monkeypatch)
        records = simulate_sx(signal, beta, jp, kp, t_grid)
        gc.collect()
        assert len(built) == 1 and all(ref() is None for ref in built[0])
        # repr is exact for floats and tells -0.0 from 0.0
        assert [repr(dataclasses.astuple(rec)) for rec in records] == \
            [repr(dataclasses.astuple(rec)) for rec in want]


class TestBlockProbabilities:
    """The stage laws as one real product of each block's reduced density
    matrix with the rows' r^2 products, against the density-matrix form."""

    def test_bench_second_stage_stack(self):
        laws = stage_laws(SUPPORT_CONFIGS["bench-40"])[1:]
        assert len(laws) > 10
        readout = laws[0][3].readout
        blocks = np.stack([block for _, _, block, _ in laws])
        np.testing.assert_allclose(_block_probabilities(readout.rows, blocks),
                                   block_probabilities_by_density_matrix(readout.rows, blocks),
                                   rtol=0, atol=1e-15)

    @pytest.mark.parametrize("rank", [1, 2, 3])
    def test_random_stacks(self, rank):
        gen = substream(71, rank)
        shape = (300, rank)
        rows, _ = np.linalg.qr(gen.normal(size=shape) + 1j * gen.normal(size=shape))
        blocks = gen.normal(size=(40, rank, 4)) + 1j * gen.normal(size=(40, rank, 4))
        blocks /= np.linalg.norm(blocks, axis=(1, 2), keepdims=True)  # normalised states
        for stack in (blocks, blocks.real.copy()):  # a real core gives real blocks
            np.testing.assert_allclose(_block_probabilities(rows, stack),
                                       block_probabilities_by_density_matrix(rows, stack),
                                       rtol=0, atol=1e-15)

    def test_full_rank_state_to_an_absolute_bound(self):
        # a full-rank d = 10 state over the identity basis (r = d): each law
        # is a sum of 2 r^2 = 200 real terms whose magnitudes add up to at most
        # trace(rho) |R[o]|^2 <= 1 (|rho_ij| <= sqrt(rho_ii rho_jj), Cauchy-
        # Schwarz), so it rounds by at most 200 x 1.1e-16 = 2.2e-14, absolute,
        # however small the probability; the bound is 2.5e-14 on every row
        cutoff = FockCutoff(9)
        d = cutoff.dim
        disc = HomodynePhaseDiscriminator(0.0, cutoff, 0.5, JosephsonParams(1000.0),
                                          KerrParams(1.0, 1.0))
        readout = disc.readout(np.eye(d))
        for seed in (101, 103, 107):
            gen = substream(seed)
            state = gen.normal(size=(d, d * d)) + 1j * gen.normal(size=(d, d * d))
            block = state / np.linalg.norm(state)
            direct = np.sum(np.abs(readout.rows @ block) ** 2, axis=1)
            probs = _block_probabilities(readout.rows, block[None])[0]
            assert np.abs(probs - direct).max() <= 2.5e-14
