import math

import numpy as np
import pytest

from triwell import (
    CoherentSpec,
    DimensionTooLarge,
    FockCutoff,
    HamiltonianTerm,
    JosephsonParams,
    KerrParams,
    ShapeMismatch,
    evolve_cross_kerr,
    evolve_josephson,
    evolve_self_kerr,
    fidelity,
    norm,
    oracle_evolve,
    prepare_coherent,
    prepare_number,
    tensor,
)
from triwell.channel import parity_basis
from triwell.dynamics import josephson_collision_columns
from triwell.fock import StateVector, mean_occupation

from oracles import collision_columns_by_propagation


def random_state(rng, modes, cutoff):
    amps = rng.normal(size=cutoff.dim**modes) + 1j * rng.normal(size=cutoff.dim**modes)
    return StateVector(modes, cutoff, amps / np.linalg.norm(amps))


def kerr_terms(mode, params):
    return [
        HamiltonianTerm("number", (mode,), params.e0_over_hbar),
        HamiltonianTerm("kerr", (mode,), params.kappa),
    ]


class TestSelfKerr:
    def test_zero_time_identity(self):
        state = prepare_coherent(CoherentSpec(1.0), FockCutoff(18))
        out = evolve_self_kerr(state, 0, KerrParams(1.0, 1.0), 0.0)
        assert np.array_equal(out.amplitudes, state.amplitudes)

    def test_full_period_identity(self):
        # e0 = kappa, t = 2 pi / kappa: phase exp(-i 2 pi n^2) = 1 for every n
        kappa = 0.7
        state = prepare_coherent(CoherentSpec(1.3), FockCutoff(22))
        out = evolve_self_kerr(state, 0, KerrParams(kappa, kappa), 2 * math.pi / kappa)
        assert np.abs(out.amplitudes - state.amplitudes).max() < 1e-10

    def test_quarter_period_cat(self):
        # e0 = kappa, t = pi/(2 kappa): (1-i)/2 |a> + (1+i)/2 |-a>
        cutoff = FockCutoff(28)
        kappa = 1.0
        state = prepare_coherent(CoherentSpec(2.0), cutoff)
        out = evolve_self_kerr(state, 0, KerrParams(kappa, kappa), math.pi / (2 * kappa))
        plus = prepare_coherent(CoherentSpec(2.0), cutoff).amplitudes
        minus = prepare_coherent(CoherentSpec(-2.0), cutoff).amplitudes
        cat = 0.5 * ((1 - 1j) * plus + (1 + 1j) * minus)
        target = StateVector(1, cutoff, cat / np.linalg.norm(cat))
        assert fidelity(out, target) >= 1 - 1e-8

    def test_norm_preserved(self):
        rng = np.random.default_rng(0)
        state = random_state(rng, 1, FockCutoff(15))
        out = evolve_self_kerr(state, 0, KerrParams(0.4, 1.1), 2.3)
        assert norm(out) == pytest.approx(1.0, abs=1e-10)


class TestCrossKerr:
    def test_zero_time_identity(self):
        state = tensor(prepare_number(1, FockCutoff(6)), prepare_number(2, FockCutoff(6)))
        out = evolve_cross_kerr(state, (0, 1), 1.0, 0.0)
        assert np.array_equal(out.amplitudes, state.amplitudes)

    def test_quarter_period_sign_pattern(self):
        # g = kappa, t = pi/(2 kappa): phase (-1)^{mn} on |m, n>
        cutoff = FockCutoff(9)
        rng = np.random.default_rng(1)
        state = random_state(rng, 2, cutoff)
        kappa = 2.0
        out = evolve_cross_kerr(state, (0, 1), kappa, math.pi / (2 * kappa))
        m = np.arange(cutoff.dim)
        signs = (-1.0) ** np.outer(m, m)
        expected = state.tensor_view() * signs
        assert np.abs(out.tensor_view() - expected).max() < 1e-12

    def test_vacuum_factor_unchanged(self):
        cutoff = FockCutoff(18)
        state = tensor(prepare_number(0, cutoff), prepare_coherent(CoherentSpec(1.0), cutoff))
        out = evolve_cross_kerr(state, (0, 1), 1.7, 0.9)
        assert np.abs(out.amplitudes - state.amplitudes).max() < 1e-12

    def test_commutes_with_self_kerr(self):
        rng = np.random.default_rng(2)
        state = random_state(rng, 2, FockCutoff(8))
        kp = KerrParams(0.3, 0.9)
        a = evolve_cross_kerr(evolve_self_kerr(state, 0, kp, 0.5), (0, 1), 0.7, 0.5)
        b = evolve_self_kerr(evolve_cross_kerr(state, (0, 1), 0.7, 0.5), 0, kp, 0.5)
        assert np.abs(a.amplitudes - b.amplitudes).max() < 1e-12


class TestJosephson:
    def test_zero_time_identity(self):
        state = tensor(prepare_number(1, FockCutoff(8)), prepare_number(0, FockCutoff(8)))
        out = evolve_josephson(state, (0, 1), JosephsonParams(1.0), KerrParams(0, 0), 0.0)
        assert np.abs(out.amplitudes - state.amplitudes).max() < 1e-12

    def test_half_period_population_swap(self):
        # kappa = 0, omega t = pi: populations exchange
        cutoff = FockCutoff(20)
        state = tensor(prepare_coherent(CoherentSpec(1.2), cutoff),
                       prepare_coherent(CoherentSpec(0.4j), cutoff))
        n0, n1 = mean_occupation(state, 0), mean_occupation(state, 1)
        out = evolve_josephson(state, (0, 1), JosephsonParams(2.0), KerrParams(0.7, 0.0),
                               math.pi / 2.0)
        assert mean_occupation(out, 0) == pytest.approx(n1, abs=1e-8)
        assert mean_occupation(out, 1) == pytest.approx(n0, abs=1e-8)

    def test_decoupled_limit_is_self_kerr(self):
        cutoff = FockCutoff(12)
        rng = np.random.default_rng(3)
        state = random_state(rng, 2, cutoff)
        kp = KerrParams(0.8, 0.6)
        out = evolve_josephson(state, (0, 1), JosephsonParams(0.0), kp, 1.7)
        ref = evolve_self_kerr(evolve_self_kerr(state, 0, kp, 1.7), 1, kp, 1.7)
        assert np.abs(out.amplitudes - ref.amplitudes).max() < 1e-10

    def test_total_number_conserved(self):
        cutoff = FockCutoff(14)
        state = tensor(prepare_coherent(CoherentSpec(1.0), cutoff),
                       prepare_coherent(CoherentSpec(0.8), cutoff))
        total0 = mean_occupation(state, 0) + mean_occupation(state, 1)
        out = evolve_josephson(state, (0, 1), JosephsonParams(1.3), KerrParams(0.2, 0.5),
                               2.4)
        total1 = mean_occupation(out, 0) + mean_occupation(out, 1)
        assert total1 == pytest.approx(total0, abs=1e-10)
        assert norm(out) == pytest.approx(1.0, abs=1e-10)

    @pytest.mark.parametrize("n_max", [8, 15])
    def test_collision_columns_are_evolved_count_states(self, n_max):
        # column n is the pair propagator applied to |n> (x) |reference>
        cutoff = FockCutoff(n_max)
        reference = prepare_coherent(CoherentSpec(0.3 + 0.2j), cutoff)
        jp, kp, t = JosephsonParams(1.3), KerrParams(0.4, 0.25), 0.9
        cols = josephson_collision_columns(cutoff, jp, kp, t, reference.amplitudes,
                                           np.eye(cutoff.dim))
        assert cols.shape == (cutoff.dim**2, cutoff.dim)
        for n in range(cutoff.dim):
            pair = tensor(prepare_number(n, cutoff), reference)
            want = evolve_josephson(pair, (0, 1), jp, kp, t).amplitudes
            assert np.abs(cols[:, n] - want).max() < 1e-12

    @pytest.mark.parametrize("n_max", [10, 26, 40])
    @pytest.mark.parametrize("kappa", [0.0, 1.0])
    @pytest.mark.parametrize("axis", [0.0, 0.7])
    def test_collision_columns_equal_the_propagated_inputs(self, n_max, kappa, axis):
        # the readout's reference, on its axis (axis 0) and off it
        magnitude = 0.7 if n_max == 10 else 2.0
        cutoff = FockCutoff(n_max)
        reference = prepare_coherent(CoherentSpec(magnitude * np.exp(1j * (axis + math.pi / 2))),
                                     cutoff).amplitudes
        jp, kp, t = JosephsonParams(1000.0), KerrParams(1.0, kappa), math.pi / 2000.0
        cols = josephson_collision_columns(cutoff, jp, kp, t, reference, np.eye(cutoff.dim))
        want = collision_columns_by_propagation(cutoff, jp, kp, t, reference)
        assert np.abs(cols - want).max() <= 1e-15


    @pytest.mark.parametrize("n_max", [26, 32, 40])
    def test_rows_over_a_basis_are_the_columns_times_the_basis(self, n_max):
        # on every outcome, for parity, random and identity bases
        cutoff = FockCutoff(n_max)
        reference = prepare_coherent(CoherentSpec(2.0j), cutoff).amplitudes
        jp, kp, t = JosephsonParams(1000.0), KerrParams(1.0, 1.0), math.pi / 2000.0
        full = josephson_collision_columns(cutoff, jp, kp, t, reference, np.eye(cutoff.dim))
        rng = np.random.default_rng(n_max)
        bases = [parity_basis(prepare_coherent(CoherentSpec(amp), cutoff).amplitudes).basis
                 for amp in (2.0, 1.5j, 0.0)]
        for r in (1, 2, 3):
            random = rng.normal(size=(cutoff.dim, r)) + 1j * rng.normal(size=(cutoff.dim, r))
            bases.append(np.linalg.qr(random)[0])
        bases.append(np.eye(cutoff.dim))
        for basis in bases:
            rows = josephson_collision_columns(cutoff, jp, kp, t, reference, basis)
            assert rows.shape == (cutoff.dim**2, basis.shape[1])
            assert np.abs(rows - full @ basis).max() <= 1e-15


class TestOracle:
    def test_zero_hamiltonian_identity(self):
        state = prepare_coherent(CoherentSpec(1.0), FockCutoff(18))
        out = oracle_evolve(state, [], 3.0)
        assert np.abs(out.amplitudes - state.amplitudes).max() < 1e-12

    def test_self_kerr_agrees(self):
        rng = np.random.default_rng(4)
        cutoff = FockCutoff(16)
        kp = KerrParams(0.9, 1.4)
        for trial in range(4):
            state = random_state(rng, 1, cutoff)
            t = rng.uniform(0, 3)
            fast = evolve_self_kerr(state, 0, kp, t)
            slow = oracle_evolve(state, kerr_terms(0, kp), t)
            assert np.abs(fast.amplitudes - slow.amplitudes).max() < 1e-9

    def test_cross_kerr_agrees(self):
        rng = np.random.default_rng(5)
        cutoff = FockCutoff(9)
        for trial in range(4):
            state = random_state(rng, 2, cutoff)
            g, t = rng.uniform(0.2, 2), rng.uniform(0, 3)
            fast = evolve_cross_kerr(state, (0, 1), g, t)
            slow = oracle_evolve(state, [HamiltonianTerm("cross_kerr", (0, 1), 2 * g)], t)
            assert np.abs(fast.amplitudes - slow.amplitudes).max() < 1e-9

    def test_josephson_agrees(self):
        rng = np.random.default_rng(6)
        cutoff = FockCutoff(10)
        jp, kp = JosephsonParams(1.1), KerrParams(0.5, 0.3)
        terms = (kerr_terms(0, kp) + kerr_terms(1, kp)
                 + [HamiltonianTerm("exchange", (0, 1), jp.omega / 2)])
        for trial in range(4):
            state = random_state(rng, 2, cutoff)
            t = rng.uniform(0, 3)
            fast = evolve_josephson(state, (0, 1), jp, kp, t)
            slow = oracle_evolve(state, terms, t)
            assert np.abs(fast.amplitudes - slow.amplitudes).max() < 1e-9

    @pytest.mark.parametrize("modes", [(2, 0), (1, 2)])
    def test_josephson_agrees_on_three_modes(self, modes):
        # the pair is gathered out of several columns, in either mode order
        rng = np.random.default_rng(sum(modes))
        cutoff = FockCutoff(6)
        jp, kp = JosephsonParams(0.8), KerrParams(0.3, 0.6)
        terms = (kerr_terms(modes[0], kp) + kerr_terms(modes[1], kp)
                 + [HamiltonianTerm("exchange", modes, jp.omega / 2)])
        for trial in range(3):
            state = random_state(rng, 3, cutoff)
            t = rng.uniform(0, 3)
            fast = evolve_josephson(state, modes, jp, kp, t)
            slow = oracle_evolve(state, terms, t)
            assert np.abs(fast.amplitudes - slow.amplitudes).max() < 1e-9

    @pytest.mark.parametrize("n_max", [8, 10])
    @pytest.mark.parametrize("kappa", [0.0, 1.0])
    def test_propagated_collision_columns_agree(self, n_max, kappa):
        # the test-side reference for the readout rows, against the ground truth
        cutoff = FockCutoff(n_max)
        reference = prepare_coherent(CoherentSpec(0.4j), cutoff)
        jp, kp, t = JosephsonParams(1.3), KerrParams(0.4, kappa), 0.9
        terms = (kerr_terms(0, kp) + kerr_terms(1, kp)
                 + [HamiltonianTerm("exchange", (0, 1), jp.omega / 2)])
        cols = collision_columns_by_propagation(cutoff, jp, kp, t, reference.amplitudes)
        for n in range(cutoff.dim):
            want = oracle_evolve(tensor(prepare_number(n, cutoff), reference), terms, t)
            assert np.abs(cols[:, n] - want.amplitudes).max() < 1e-9

    def test_dimension_cap(self):
        # 4,097 amplitudes, one above the cap; refused before any Hamiltonian
        state = prepare_number(0, FockCutoff(4096))
        with pytest.raises(DimensionTooLarge):
            oracle_evolve(state, [HamiltonianTerm("number", (0,), 1.0)], 1.0)


class TestParameterValidation:
    def test_negative_kappa_rejected(self):
        with pytest.raises(ValueError):
            KerrParams(1.0, -0.1)

    def test_zero_kappa_allowed(self):
        KerrParams(0.0, 0.0)  # pure-tunnelling readouts need this

    def test_negative_omega_rejected(self):
        with pytest.raises(ValueError):
            JosephsonParams(-1.0)

    @pytest.mark.parametrize("modes", [(1, 1), (1, -1), (0, 2)])
    def test_pair_modes_distinct_and_in_range(self, modes):
        state = random_state(np.random.default_rng(7), 2, FockCutoff(4))
        with pytest.raises(ShapeMismatch):
            evolve_josephson(state, modes, JosephsonParams(1.0), KerrParams(0.5, 0.5), 1.0)
        with pytest.raises(ShapeMismatch):
            evolve_cross_kerr(state, modes, 0.5, 1.0)

    def test_cross_species_positive(self):
        import triwell

        with pytest.raises(ValueError):
            triwell.CrossSpeciesParams(0.0)


class TestTermParsing:
    def test_distinct_modes_required(self):
        with pytest.raises(ValueError):
            HamiltonianTerm("cross_kerr", (1, 1), 1.0)
