import math

import numpy as np
import pytest

from triwell import (
    AuxiliaryPrep,
    CoherentSpec,
    CrossSpeciesParams,
    FockCutoff,
    FrequencyConditionViolated,
    KerrParams,
    RangeError,
    SuperpositionSpec,
    ZeroImaginaryPart,
    fidelity,
    inner_product,
    p_even_analytic,
    p_even_monte_carlo,
    parity_count_distribution,
    prepare_cat_superposition,
    prepare_coherent,
    substream,
    total_efficiency,
    virtual_displacement,
)
from triwell.corrections import displacement_offset
from triwell.fock import StateVector, coherent_amplitudes

from oracles import displacement_linearization_error, parity_operation

KAPPA = 1.0
LAM = CrossSpeciesParams(KAPPA / 2)
KP = KerrParams(1.5 * KAPPA, KAPPA)


def cat(a, b, beta, cutoff):
    return prepare_cat_superposition(SuperpositionSpec(a, b, beta), cutoff)


class TestParity:
    def test_vacuum_auxiliary_always_corrects(self):
        cutoff = FockCutoff(30)
        central = cat(0.6, 0.8, 2.0j, cutoff)
        flipped = cat(0.6, 0.8, -2.0j, cutoff)
        for trial in range(5):
            m, conditional, success = parity_operation(
                central, AuxiliaryPrep("number", 0), LAM, KP, cutoff,
                substream(21, trial).random())
            assert m == 0 and success
            assert fidelity(conditional, flipped) >= 1 - 1e-6

    def test_odd_count_returns_the_input(self):
        cutoff = FockCutoff(30)
        central = cat(1.0, 1.0, 2.0j, cutoff)
        m, conditional, success = parity_operation(
            central, AuxiliaryPrep("number", 3), LAM, KP, cutoff, substream(4).random())
        assert m == 3 and not success
        assert fidelity(conditional, central) >= 1 - 1e-10

    def test_count_distribution_is_the_auxiliary_distribution(self):
        cutoff = FockCutoff(30)
        central = cat(1.0, 1.0, 2.0j, cutoff)
        aux = AuxiliaryPrep("coherent", 2.0)
        marginal = parity_count_distribution(central, aux, LAM, KP, cutoff)
        for m in range(8):
            poisson = math.exp(-2.0) * 2.0**m / math.factorial(m)
            assert marginal[m] == pytest.approx(poisson, abs=1e-10)

    def test_distribution_invariant_under_central_state(self):
        cutoff = FockCutoff(30)
        aux = AuxiliaryPrep("coherent", 1.5)
        one = parity_count_distribution(cat(1.0, 1.0, 2.0j, cutoff), aux, LAM, KP, cutoff)
        two = parity_count_distribution(
            prepare_coherent(CoherentSpec(0.5), cutoff), aux, LAM, KP, cutoff)
        assert np.abs(one - two).sum() / 2 < 1e-9  # total variation

    def test_frequency_conditions_enforced(self):
        cutoff = FockCutoff(20)
        central = cat(1.0, 1.0, 1.5j, cutoff)
        with pytest.raises(FrequencyConditionViolated):
            parity_count_distribution(central, AuxiliaryPrep("number", 0),
                                      CrossSpeciesParams(0.7), KP, cutoff)
        with pytest.raises(FrequencyConditionViolated):
            parity_count_distribution(central, AuxiliaryPrep("number", 0), LAM,
                                      KerrParams(1.0, KAPPA), cutoff)

    def test_monte_carlo_matches_closed_form(self):
        cutoff = FockCutoff(34)
        central = cat(1.0, 1.0, 2.0j, cutoff)
        trials = 100_000
        mc = p_even_monte_carlo(AuxiliaryPrep("coherent", 2.0), central, LAM, KP,
                                cutoff, trials, substream(8))
        expected = (1 + math.exp(-4.0)) / 2
        sigma = math.sqrt(expected * (1 - expected) / trials)
        assert abs(mc.p_even - expected) <= 3 * sigma
        assert mc.trials == trials

    def test_squeezed_auxiliary_always_even(self):
        cutoff = FockCutoff(60)
        central = cat(1.0, 1.0, 2.0j, cutoff)
        mc = p_even_monte_carlo(AuxiliaryPrep("squeezed_vacuum", 1.0), central, LAM,
                                KP, cutoff, 20_000, substream(9))
        assert mc.p_even == 1.0


class TestEvenCountCurves:
    def test_number_states_are_deterministic(self):
        assert p_even_analytic(AuxiliaryPrep("number", 2)) == 1.0
        assert p_even_analytic(AuxiliaryPrep("number", 3)) == 0.0

    def test_coherent_closed_form(self):
        assert p_even_analytic(AuxiliaryPrep("coherent", 5.0)) == pytest.approx(
            (1 + math.exp(-10.0)) / 2, abs=1e-12)

    def test_coherent_vacuum_limit(self):
        values = [p_even_analytic(AuxiliaryPrep("coherent", p)) for p in (0.0, 0.05, 0.5)]
        assert values[0] == 1.0
        assert values[0] > values[1] > values[2] > 0.5

    def test_squeezed_always_unity(self):
        assert all(p_even_analytic(AuxiliaryPrep("squeezed_vacuum", r)) == 1.0
                   for r in (0, 1, 2))

    def test_bad_kind_rejected(self):
        with pytest.raises(ValueError):
            AuxiliaryPrep("thermal", 1.0)


class TestVirtualDisplacement:
    def test_real_reference_rejected(self):
        cutoff = FockCutoff(26)
        state = cat(1.0, 1.0, 2.0, cutoff)
        with pytest.raises(ZeroImaginaryPart):
            virtual_displacement(state, 2.0, 0)

    def test_offset_formula(self):
        assert displacement_offset(3.0j, 0) == pytest.approx(math.pi / 6, abs=1e-12)
        assert displacement_offset(2.0j, 1) == pytest.approx(3 * math.pi / 4, abs=1e-12)

    def test_matches_exact_displacement_algebra(self):
        # oracle: A e^{-i d Im b} |b+d> - B e^{+i d Im b} |-b+d>, built directly
        cutoff = FockCutoff(40)
        a_w, b_w, beta = 0.6, 0.8, 3.0j
        state = cat(a_w, -b_w, beta, cutoff)  # the A|b> - B|-b> form
        delta = displacement_offset(beta, 0)
        out = virtual_displacement(state, beta, 0)
        d = cutoff.dim
        expected = (
            a_w * np.exp(-1j * delta * beta.imag) * coherent_amplitudes(beta + delta, d)
            - b_w * np.exp(1j * delta * beta.imag) * coherent_amplitudes(-beta + delta, d)
        )
        expected = StateVector(1, cutoff, expected / np.linalg.norm(expected))
        assert fidelity(out, expected) >= 1 - 1e-8

    def test_branch_phase_cancellation_budget(self):
        # exact fidelity with the sign-flipped target is (|A|^2-|B|^2)^2 e^{-d^2}:
        # the displacement phases that flip the sign reappear in the branch
        # overlaps, so balanced superpositions land orthogonal to the target.
        cutoff = FockCutoff(40)
        beta = 3.0j
        delta = displacement_offset(beta, 0)
        for a_w, b_w in ((1.0, 1.0), (0.8, 0.6), (1.0, 0.0)):
            scale = math.sqrt(a_w**2 + b_w**2)
            a_n, b_n = a_w / scale, b_w / scale
            state = cat(a_n, -b_n, beta, cutoff)
            out = virtual_displacement(state, beta, 0)
            target = cat(a_n, b_n, beta, cutoff)
            predicted = (a_n**2 - b_n**2) ** 2 * math.exp(-delta**2)
            assert fidelity(out, target) == pytest.approx(predicted, abs=2e-3)

    def test_single_branch_overlap(self):
        cutoff = FockCutoff(40)
        beta = 3.0j
        state = cat(1.0, 0.0, beta, cutoff)
        out = virtual_displacement(state, beta, 0)
        delta = displacement_offset(beta, 0)
        overlap = abs(inner_product(state, out))
        assert overlap == pytest.approx(math.exp(-delta**2 / 2), abs=1e-8)

    def test_opposite_offsets_compose_to_identity(self):
        # l and -1-l displace by +d and -d: exact return to the input
        cutoff = FockCutoff(40)
        beta = 3.0j
        state = cat(0.6, 0.8, beta, cutoff)
        once = virtual_displacement(state, beta, 0)
        back = virtual_displacement(once, beta, -1)
        assert fidelity(back, state) >= 0.96
        assert fidelity(back, state) == pytest.approx(1.0, abs=1e-10)

    def test_large_offset_warns(self):
        # |delta|/|beta| = pi/12.5 > 0.2 for beta = 2.5i
        cutoff = FockCutoff(40)
        state = cat(1.0, 1.0, 2.5j, cutoff)
        with pytest.warns(UserWarning, match="exceeds"):
            virtual_displacement(state, 2.5j, 0)

    def test_linearization_gap_shrinks(self):
        cutoff = FockCutoff(24)
        gaps = [displacement_linearization_error(d, cutoff) for d in (0.2, 0.1, 0.05)]
        assert gaps[0] > gaps[1] > gaps[2]
        # second-order remainder: || e^{idX} - 1 - idX || <= d^2 ||X||^2 / 2
        d = cutoff.dim
        x_norm = 2 * math.sqrt(d - 1)  # spectral norm bound of a + a^dag
        assert gaps[2] <= 0.05**2 * x_norm**2 / 2


class TestTotalEfficiency:
    def test_reference_points(self):
        assert total_efficiency(1.0, 1.0).p_total == pytest.approx(1.0)
        assert total_efficiency(0.5, 1.0).p_total == pytest.approx(0.75)
        assert total_efficiency(0.0, 0.0).p_total == pytest.approx(0.25)

    def test_identity_in_the_fields(self):
        point = total_efficiency(0.3, 0.6)
        assert point.p_total == pytest.approx(
            (1 + point.p_even + point.p_d + point.p_even * point.p_d) / 4)

    def test_range_errors(self):
        with pytest.raises(RangeError):
            total_efficiency(1.2, 0.5)
        with pytest.raises(RangeError):
            total_efficiency(0.5, -0.1)
