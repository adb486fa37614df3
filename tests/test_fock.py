import math

import numpy as np
import pytest

from triwell import (
    CoherentSpec,
    CutoffTooSmall,
    DegenerateSuperposition,
    FockCutoff,
    ShapeMismatch,
    SqueezedVacuumSpec,
    StateVector,
    SuperpositionSpec,
    ZeroProbabilityBranch,
    displace,
    fidelity,
    inner_product,
    norm,
    number_distribution,
    prepare_cat_superposition,
    prepare_coherent,
    prepare_number,
    prepare_squeezed_vacuum,
    project_number,
    state_from_dict,
    state_to_dict,
    tensor,
)
from triwell.fock import coherent_amplitudes, mean_occupation

from oracles import coherent_amplitudes_by_loop, pad_cutoff


def poisson_pmf(mean, n):
    return math.exp(-mean) * mean**n / math.factorial(n)


class TestCoherent:
    def test_vacuum_is_exact(self):
        state = prepare_coherent(CoherentSpec(0.0), FockCutoff(8))
        assert state.amplitudes[0] == 1.0
        assert np.all(state.amplitudes[1:] == 0)
        assert norm(state) == 1.0

    def test_mean_occupation_matches_poisson_sum(self):
        # oracle: truncated Poisson first moment, computed independently
        cutoff = FockCutoff(16)
        expected = sum(n * poisson_pmf(1.0, n) for n in range(17))
        expected /= sum(poisson_pmf(1.0, n) for n in range(17))
        state = prepare_coherent(CoherentSpec(1.0), cutoff)
        assert mean_occupation(state, 0) == pytest.approx(expected, abs=1e-12)
        assert mean_occupation(state, 0) == pytest.approx(1.0, abs=1e-8)

    def test_cutoff_too_small(self):
        with pytest.raises(CutoffTooSmall):
            prepare_coherent(CoherentSpec(2.0), FockCutoff(8))

    @pytest.mark.parametrize("amplitude", [1e30, 1e100j, 1e200, -1e200j])
    def test_amplitude_past_float_range_is_cutoff_too_small(self, amplitude):
        # |a|^2 overflows from 1.3e154; below that the amplitudes overflow
        # to NaN, which the leakage check refuses too
        with pytest.raises(CutoffTooSmall):
            prepare_coherent(CoherentSpec(amplitude), FockCutoff(26))
        with pytest.raises(CutoffTooSmall):
            prepare_cat_superposition(SuperpositionSpec(1.0, 1.0, amplitude), FockCutoff(26))

    def test_amplitudes_are_the_scalar_loop_bit_for_bit(self):
        # signed zeros (real, imaginary and signed-zero amplitudes), underflow
        # and the overflow to NaN from |a| ~ 1e150 included
        amplitudes = [0, -0.0, 1, -1, 2.0, -2.0, 2j, -2j, 1.5j, complex(-0.0, 2),
                      complex(2, -0.0), complex(-0.0, -0.0), 0.3 + 0.4j, -1.7 + 2.2j, 1e-3,
                      1e-200, -3.3e-160j, 5.5 - 1j, 20.0, 1e150, -1e150j, -1e100 + 1e100j]
        for amplitude in amplitudes:
            for dim in (1, 2, 27, 41, 61):
                with np.errstate(invalid="ignore"):  # inf * 0 past float range
                    got = coherent_amplitudes(amplitude, dim)
                    want = coherent_amplitudes_by_loop(amplitude, dim)
                assert got.tobytes() == want.tobytes(), (amplitude, dim)
        with pytest.raises(CutoffTooSmall):
            coherent_amplitudes(1e200, 41)

    def test_leakage_recorded(self):
        state = prepare_coherent(CoherentSpec(2.0), FockCutoff(16), max_leakage=1e-5)
        tail = 1 - sum(poisson_pmf(4.0, n) for n in range(17))
        assert state.leakage == pytest.approx(tail, rel=1e-9)

    def test_cutoff_rule_helper(self):
        cutoff = FockCutoff.for_amplitude(2.0)
        assert cutoff.n_max >= 26
        prepare_coherent(CoherentSpec(2.0), cutoff)  # no leakage error


class TestSqueezedVacuum:
    def test_zero_squeezing_is_vacuum(self):
        state = prepare_squeezed_vacuum(SqueezedVacuumSpec(0.0), FockCutoff(10))
        assert state.amplitudes[0] == 1.0
        assert np.all(state.amplitudes[1:] == 0)

    def test_odd_levels_exactly_empty(self):
        state = prepare_squeezed_vacuum(SqueezedVacuumSpec(1.0), FockCutoff(40),
                                        max_leakage=1e-5)
        assert np.all(state.amplitudes[1::2] == 0)

    def test_ground_occupation(self):
        state = prepare_squeezed_vacuum(SqueezedVacuumSpec(1.0), FockCutoff(40),
                                        max_leakage=1e-5)
        p0 = abs(state.amplitudes[0]) ** 2
        assert p0 == pytest.approx(1 / math.cosh(1.0), abs=1e-5)

    def test_number_distribution_closed_form(self):
        r = 0.8
        state = prepare_squeezed_vacuum(SqueezedVacuumSpec(r), FockCutoff(50),
                                        max_leakage=1e-8)
        probs = np.abs(state.amplitudes) ** 2
        for k in range(6):
            expected = (
                math.factorial(2 * k) / (2**k * math.factorial(k)) ** 2
                * math.tanh(r) ** (2 * k) / math.cosh(r)
            )
            assert probs[2 * k] == pytest.approx(expected, rel=1e-10)

    def test_mean_occupation_analytic(self):
        state = prepare_squeezed_vacuum(SqueezedVacuumSpec(1.0), FockCutoff(60),
                                        max_leakage=1e-7)
        assert mean_occupation(state, 0) == pytest.approx(math.sinh(1.0) ** 2, abs=1e-6)


class TestCatSuperposition:
    def test_single_branch_equals_coherent(self):
        cutoff = FockCutoff(26)
        cat = prepare_cat_superposition(SuperpositionSpec(1.0, 0.0, 2.0), cutoff)
        coh = prepare_coherent(CoherentSpec(2.0), cutoff)
        assert fidelity(cat, coh) == pytest.approx(1.0, abs=1e-12)

    def test_norm_constant(self):
        cutoff = FockCutoff(26)
        cat = prepare_cat_superposition(SuperpositionSpec(1.0, 1.0, 2.0), cutoff)
        coh = prepare_coherent(CoherentSpec(2.0), cutoff)
        # <coh|cat> = (1 + e^{-8}) / sqrt(2 + 2 e^{-8})
        expected = (1 + math.exp(-8)) / math.sqrt(2 + 2 * math.exp(-8))
        assert inner_product(coh, cat).real == pytest.approx(expected, abs=1e-9)

    def test_degenerate_superposition(self):
        with pytest.raises(DegenerateSuperposition):
            prepare_cat_superposition(SuperpositionSpec(1.0, -1.0, 0.0), FockCutoff(8))

    @pytest.mark.parametrize("scale", [1e200, 1e-7, 1e-300, 3.0])
    def test_weights_act_as_a_ray(self, scale):
        # a common factor of A and B, past float range when squared too,
        # gives the state of the unscaled weights
        cutoff = FockCutoff(26)
        for a, b in ((1.0, 1.0), (0.6, 0.8j), (-2.0, 0.5)):
            cat = prepare_cat_superposition(SuperpositionSpec(a, b, 2.0), cutoff)
            scaled = prepare_cat_superposition(SuperpositionSpec(scale * a, scale * b, 2.0),
                                               cutoff)
            np.testing.assert_allclose(scaled.amplitudes, cat.amplitudes, rtol=0, atol=1e-15)
            assert scaled.leakage == pytest.approx(cat.leakage, rel=0, abs=1e-15)
        ones = prepare_cat_superposition(SuperpositionSpec(1.0, 1.0, 2.0), cutoff)
        equal = prepare_cat_superposition(SuperpositionSpec(scale, scale, 2.0), cutoff)
        assert np.array_equal(equal.amplitudes, ones.amplitudes)

    @pytest.mark.parametrize("a, b, gamma", [(1e200, -1e200, 0.0), (1e-7, -1e-7, 0.0),
                                             (0.0, 0.0, 2.0)])
    def test_cancelling_weights_stay_degenerate_at_any_scale(self, a, b, gamma):
        with pytest.raises(DegenerateSuperposition):
            prepare_cat_superposition(SuperpositionSpec(a, b, gamma), FockCutoff(8))


class TestInnerProduct:
    def test_opposite_coherent_overlap(self):
        cutoff = FockCutoff(30)
        a = prepare_coherent(CoherentSpec(2.0), cutoff)
        b = prepare_coherent(CoherentSpec(-2.0), cutoff)
        assert abs(inner_product(a, b)) == pytest.approx(math.exp(-8.0), abs=1e-8)

    def test_vacuum_overlap(self):
        cutoff = FockCutoff(18)
        vac = prepare_number(0, cutoff)
        one = prepare_coherent(CoherentSpec(1.0), cutoff)
        assert inner_product(vac, one).real == pytest.approx(math.exp(-0.5), abs=1e-8)

    def test_self_overlap_is_one(self):
        state = prepare_coherent(CoherentSpec(1.5 + 0.5j), FockCutoff(26))
        assert inner_product(state, state).real == pytest.approx(1.0, abs=1e-12)

    def test_shape_mismatch(self):
        a = prepare_number(0, FockCutoff(4))
        b = prepare_number(0, FockCutoff(5))
        with pytest.raises(ShapeMismatch):
            inner_product(a, b)

    def test_coherent_overlap_law(self):
        # <a|b> = exp(-(|a|^2+|b|^2)/2 + conj(a) b) for amplitudes within the rule
        rng = np.random.default_rng(11)
        cutoff = FockCutoff(32)
        for _ in range(20):
            a, b = (complex(*rng.uniform(-1.5, 1.5, 2)) for _ in range(2))
            sa = prepare_coherent(CoherentSpec(a), cutoff)
            sb = prepare_coherent(CoherentSpec(b), cutoff)
            law = np.exp(-(abs(a) ** 2 + abs(b) ** 2) / 2 + np.conj(a) * b)
            assert inner_product(sa, sb) == pytest.approx(law, abs=1e-8)


class TestTensorAndProjection:
    def test_vacuum_projection_leaves_rest_alone(self):
        cutoff = FockCutoff(12)
        other = prepare_coherent(CoherentSpec(1.0), cutoff)
        joint = tensor(prepare_number(0, cutoff), other)
        prob, conditional = project_number(joint, 0, 0)
        assert prob == pytest.approx(1.0, abs=1e-12)
        assert fidelity(conditional, other) == pytest.approx(1.0, abs=1e-12)

    def test_poisson_mass(self):
        cutoff = FockCutoff(18)
        joint = tensor(prepare_coherent(CoherentSpec(1.0), cutoff),
                       prepare_number(0, cutoff))
        prob, _ = project_number(joint, 0, 1)
        assert prob == pytest.approx(math.exp(-1.0), abs=1e-8)

    def test_completeness(self):
        cutoff = FockCutoff(20)
        joint = tensor(prepare_coherent(CoherentSpec(1.2), cutoff),
                       prepare_coherent(CoherentSpec(0.7j), cutoff))
        total = number_distribution(joint, 0).sum()
        assert total == pytest.approx(1.0, abs=1e-10)

    def test_zero_probability_branch(self):
        cutoff = FockCutoff(10)
        joint = tensor(prepare_number(3, cutoff), prepare_number(0, cutoff))
        with pytest.raises(ZeroProbabilityBranch):
            project_number(joint, 0, 7)

    def test_lexicographic_layout(self):
        cutoff = FockCutoff(3)
        joint = tensor(prepare_number(2, cutoff), prepare_number(1, cutoff))
        index = 2 * cutoff.dim + 1  # mode 0 is the most significant digit
        assert joint.amplitudes[index] == 1.0


class TestDisplacement:
    def test_zero_is_identity(self):
        state = prepare_coherent(CoherentSpec(1.0), FockCutoff(20))
        assert displace(state, 0, 0.0) is state

    def test_displaced_vacuum_is_coherent(self):
        cutoff = FockCutoff(20)
        out = displace(prepare_number(0, cutoff), 0, 1.0)
        target = prepare_coherent(CoherentSpec(1.0), cutoff)
        assert fidelity(out, target) >= 1 - 1e-8

    def test_inverse_property(self):
        cutoff = FockCutoff(24)
        state = prepare_coherent(CoherentSpec(1.0 + 0.5j), cutoff)
        back = displace(displace(state, 0, 0.6 - 0.2j), 0, -0.6 + 0.2j)
        assert np.abs(back.amplitudes - state.amplitudes).max() < 1e-8

    def test_composition_phase_convention(self):
        # D(d)|b> = exp(i Im(d conj(b))) |b + d>, phase included
        cutoff = FockCutoff(30)
        b, d = 1.2 + 0.8j, 0.4 - 0.3j
        out = displace(prepare_coherent(CoherentSpec(b), cutoff), 0, d)
        target = prepare_coherent(CoherentSpec(b + d), cutoff)
        phase = np.exp(1j * (d * np.conj(b)).imag)
        overlap = inner_product(target, out)
        assert overlap == pytest.approx(phase, abs=1e-7)

    def test_headroom_check(self):
        state = prepare_number(0, FockCutoff(6))
        with pytest.raises(CutoffTooSmall):
            displace(state, 0, 2.5)

    def test_norm_preserved(self):
        state = prepare_coherent(CoherentSpec(1.0), FockCutoff(24))
        assert norm(displace(state, 0, 0.7j)) == pytest.approx(1.0, abs=1e-10)


class TestSerialization:
    def test_round_trip(self):
        state = prepare_cat_superposition(SuperpositionSpec(0.6, 0.8j, 1.3), FockCutoff(22))
        again = state_from_dict(state_to_dict(state))
        assert again.modes == state.modes
        assert again.cutoff == state.cutoff
        assert np.allclose(again.amplitudes, state.amplitudes, atol=0)

    def test_multimode_round_trip(self):
        cutoff = FockCutoff(6)
        state = tensor(prepare_number(2, cutoff), prepare_number(4, cutoff))
        again = state_from_dict(state_to_dict(state))
        assert again.modes == 2
        assert np.array_equal(again.amplitudes, state.amplitudes)

    def test_layout_keys(self):
        payload = state_to_dict(prepare_number(1, FockCutoff(2)))
        assert set(payload) == {"modes", "n_max", "amplitudes"}
        assert payload["amplitudes"][1] == [1.0, 0.0]


class TestStateVector:
    def test_amplitudes_read_only(self):
        state = prepare_number(0, FockCutoff(4))
        with pytest.raises(ValueError):
            state.amplitudes[0] = 0.0

    def test_bad_shape_rejected(self):
        with pytest.raises(ShapeMismatch):
            StateVector(2, FockCutoff(3), np.zeros(5, dtype=complex))

    def test_pad_cutoff_exact(self):
        small = prepare_coherent(CoherentSpec(1.0), FockCutoff(20))
        big = pad_cutoff(small, FockCutoff(30))
        ref = prepare_coherent(CoherentSpec(1.0), FockCutoff(30))
        assert fidelity(big, ref) == pytest.approx(1.0, abs=1e-10)

    def test_fidelity_is_global_phase_invariant(self):
        cutoff = FockCutoff(24)
        a = prepare_coherent(CoherentSpec(1.2), cutoff)
        b = prepare_cat_superposition(SuperpositionSpec(1.0, 0.4, 1.2), cutoff)
        rotated = StateVector(1, cutoff, b.amplitudes * np.exp(0.7j))
        assert abs(fidelity(a, rotated) - fidelity(a, b)) < 1e-12

    def test_coherent_amplitudes_formula(self):
        c = coherent_amplitudes(1.5j, 12)
        expected = math.exp(-1.125) * (1.5j) ** 3 / math.sqrt(math.factorial(3))
        assert c[3] == pytest.approx(expected, abs=1e-12)
