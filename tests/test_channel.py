import math

import numpy as np
import pytest

from triwell import (
    CoherentSpec,
    FockCutoff,
    FrequencyConditionViolated,
    HamiltonianTerm,
    KerrParams,
    SuperpositionSpec,
    channel_entanglement,
    channel_family_index,
    channel_family_overlaps,
    fidelity,
    generate_channel,
    norm,
    oracle_evolve,
    prepare_cat_superposition,
    prepare_coherent,
    tensor,
)
from triwell.channel import channel_factors
from triwell.dynamics import evolve_cross_kerr, evolve_self_kerr
from triwell.fock import StateVector, coherent_amplitudes

from oracles import channel_by_evolution

BETA_PHASES = {"complex": 0.6 + 0.8j, "real": 1.0, "zero": 0.0}


def family_member(j, alpha, beta, cutoff):
    """Independent construction of the j-th channel from coherent coefficients."""
    branch = (-1j) ** j
    d = cutoff.dim
    plus = np.kron(coherent_amplitudes(branch * alpha, d),
                   coherent_amplitudes(branch * beta, d))
    minus = np.kron(coherent_amplitudes(-branch * alpha, d),
                    coherent_amplitudes(-branch * beta, d))
    amps = 0.5 * ((1 - 1j) * plus + (1 + 1j) * minus)
    return StateVector(2, cutoff, amps / np.linalg.norm(amps))


class TestGeneration:
    def test_family_index(self):
        assert channel_family_index(KerrParams(2.0, 1.0)) == 1
        with pytest.raises(FrequencyConditionViolated):
            channel_family_index(KerrParams(1.5, 1.0))
        with pytest.raises(FrequencyConditionViolated):
            channel_family_index(KerrParams(1.0, 0.0))

    @pytest.mark.parametrize("j", [0, 1, 2, 3])
    def test_matches_family_form(self, j):
        cutoff = FockCutoff(28)
        kp = KerrParams((j + 1) * 1.0, 1.0)
        state = generate_channel(CoherentSpec(2.0), CoherentSpec(2.0), kp, cutoff)
        assert fidelity(state, family_member(j, 2.0, 2.0, cutoff)) >= 1 - 1e-8
        assert norm(state) == pytest.approx(1.0, abs=1e-10)

    def test_vacuum_inputs_trivial(self):
        cutoff = FockCutoff(8)
        state = generate_channel(CoherentSpec(0.0), CoherentSpec(0.0),
                                 KerrParams(1.0, 1.0), cutoff)
        vac = tensor(prepare_coherent(CoherentSpec(0.0), cutoff),
                     prepare_coherent(CoherentSpec(0.0), cutoff))
        assert fidelity(state, vac) == pytest.approx(1.0, abs=1e-12)

    def test_oracle_equivalence(self):
        # the staged diagonal pipeline equals dense evolution of the same H
        cutoff = FockCutoff(12)
        kp = KerrParams(1.0, 1.0)
        t = math.pi / (2 * kp.kappa)
        state = generate_channel(CoherentSpec(0.9), CoherentSpec(0.7), kp, cutoff)
        initial = tensor(prepare_coherent(CoherentSpec(0.9), cutoff),
                         prepare_coherent(CoherentSpec(0.7), cutoff))
        terms = [
            HamiltonianTerm("number", (0,), kp.e0_over_hbar),
            HamiltonianTerm("number", (1,), kp.e0_over_hbar),
            HamiltonianTerm("kerr", (0,), kp.kappa),
            HamiltonianTerm("kerr", (1,), kp.kappa),
            HamiltonianTerm("cross_kerr", (0, 1), 2 * kp.kappa),
        ]
        ref = oracle_evolve(initial, terms, t)
        assert np.abs(state.amplitudes - ref.amplitudes).max() < 1e-9

    @pytest.mark.parametrize("beta", BETA_PHASES)
    @pytest.mark.parametrize("n_max, amplitude", [(12, 1.0), (26, 2.0), (40, 2.0)])
    @pytest.mark.parametrize("j", [0, 1, 2, 3])
    def test_closed_form_matches_the_evolved_channel(self, j, n_max, amplitude, beta):
        # the quarter-period cross phase is the sign (-1)^(n2 n3), exactly
        cutoff, kp = FockCutoff(n_max), KerrParams((j + 1) * 1.0, 1.0)
        alpha, beta = CoherentSpec(amplitude), CoherentSpec(amplitude * BETA_PHASES[beta])
        state = generate_channel(alpha, beta, kp, cutoff)
        oracle = channel_by_evolution(alpha, beta, kp, cutoff)
        np.testing.assert_allclose(state.amplitudes, oracle.amplitudes, rtol=0, atol=1e-14)
        assert state.leakage == oracle.leakage

    @pytest.mark.parametrize("beta", BETA_PHASES)
    def test_basis_is_orthonormal_and_spans_both_branches(self, beta):
        cutoff, amplitude = FockCutoff(26), 2.0 * BETA_PHASES[beta]
        core, wells, _ = channel_factors(CoherentSpec(2.0), CoherentSpec(amplitude),
                                         KerrParams(1.0, 1.0), cutoff)
        assert core.shape == (2, 1 if amplitude == 0 else 2)
        for well, well_amplitude, rank in zip(wells, (2.0, amplitude), core.shape):
            basis = well.basis
            assert basis.shape == (cutoff.dim, rank)
            np.testing.assert_allclose(basis.conj().T @ basis, np.eye(rank), rtol=0, atol=1e-14)
            for sign in (1, -1):
                branch = prepare_coherent(CoherentSpec(sign * well_amplitude), cutoff).amplitudes
                outside = branch - basis @ (basis.conj().T @ branch)
                assert np.linalg.norm(outside) < 1e-14

    def test_linearity_in_the_input(self):
        # a superposition input evolves to the superposition of the outputs
        cutoff = FockCutoff(24)
        kp = KerrParams(1.0, 1.0)
        t = math.pi / (2 * kp.kappa)
        a_w, b_w, g = 0.6, 0.8j, 1.2

        def collide(two_mode):
            out = evolve_self_kerr(two_mode, 0, kp, t)
            out = evolve_self_kerr(out, 1, kp, t)
            return evolve_cross_kerr(out, (0, 1), kp.kappa, t)

        cat = prepare_cat_superposition(SuperpositionSpec(a_w, b_w, g), cutoff)
        ref_mode = prepare_coherent(CoherentSpec(0.8), cutoff)
        combined = collide(tensor(cat, ref_mode))
        parts = [collide(tensor(prepare_coherent(CoherentSpec(sign * g), cutoff),
                                ref_mode)).amplitudes
                 for sign in (1, -1)]
        weights = np.array([a_w, b_w])
        weights = weights / math.sqrt(
            abs(a_w) ** 2 + abs(b_w) ** 2
            + 2 * (np.conj(a_w) * b_w).real * math.exp(-2 * abs(g) ** 2)
        )
        stacked = weights[0] * parts[0] + weights[1] * parts[1]
        assert np.abs(combined.amplitudes - stacked).max() < 1e-7


class TestEntanglement:
    def test_product_state_zero(self):
        cutoff = FockCutoff(18)
        product = tensor(prepare_coherent(CoherentSpec(1.0), cutoff),
                         prepare_coherent(CoherentSpec(0.5), cutoff))
        assert channel_entanglement(product) < 1e-10

    def test_channel_close_to_one_bit(self):
        state = generate_channel(CoherentSpec(2.0), CoherentSpec(2.0),
                                 KerrParams(1.0, 1.0), FockCutoff(28))
        entropy = channel_entanglement(state)
        assert 0.99 <= entropy <= 1.0

    def test_vacuum_channel_zero(self):
        state = generate_channel(CoherentSpec(0.0), CoherentSpec(0.0),
                                 KerrParams(1.0, 1.0), FockCutoff(8))
        assert channel_entanglement(state) < 1e-10


class TestFamilyOverlaps:
    def test_unit_diagonal(self):
        gram = channel_family_overlaps(CoherentSpec(2.0), CoherentSpec(2.0),
                                       KerrParams(1.0, 1.0), FockCutoff(28))
        assert np.allclose(np.diag(gram), 1.0, atol=1e-8)

    @pytest.mark.parametrize("magnitude", [1.0, 2.0, 3.0])
    def test_off_diagonal_bound(self, magnitude):
        cutoff = FockCutoff.for_amplitude(magnitude)
        gram = channel_family_overlaps(CoherentSpec(magnitude), CoherentSpec(magnitude),
                                       KerrParams(1.0, 1.0), cutoff)
        off = np.abs(gram - np.diag(np.diag(gram)))
        assert off.max() <= math.exp(-magnitude**2) + 1e-8

    def test_off_diagonals_shrink_with_amplitude(self):
        maxima = []
        for magnitude in (1.0, 2.0, 3.0):
            cutoff = FockCutoff.for_amplitude(magnitude)
            gram = channel_family_overlaps(CoherentSpec(magnitude),
                                           CoherentSpec(magnitude),
                                           KerrParams(1.0, 1.0), cutoff)
            maxima.append(np.abs(gram - np.diag(np.diag(gram))).max())
        assert maxima[0] > maxima[1] > maxima[2]

    def test_vacuum_family_degenerates(self):
        gram = channel_family_overlaps(CoherentSpec(0.0), CoherentSpec(0.0),
                                       KerrParams(1.0, 1.0), FockCutoff(8))
        assert np.allclose(np.abs(gram), 1.0, atol=1e-10)
