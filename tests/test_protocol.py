import cmath
import dataclasses
import math
import pickle
import sys
import warnings
import weakref
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from scipy.stats import chisquare

from triwell import (
    AmbiguousSupport,
    AuxiliaryPrep,
    CoherentSpec,
    CrossSpeciesParams,
    CutoffTooSmall,
    FockCutoff,
    FrequencyConditionViolated,
    HamiltonianTerm,
    JosephsonParams,
    KerrParams,
    MeasurementOutcome,
    ProtocolConfig,
    SuperpositionSpec,
    TrialRecord,
    ZeroProbabilityBranch,
    build_protocol_state,
    correct_and_score,
    fidelity,
    oracle_evolve,
    prepare_cat_superposition,
    reference_state,
    run_protocol,
    substream,
    tensor,
    virtual_displacement,
)
import triwell.channel
import triwell.dynamics
import triwell.fock
import triwell.homodyne
import triwell.protocol
from triwell.cli import main
from triwell.fock import StateVector, coherent_amplitudes, joint_leakage
from triwell.homodyne import helstrom_vectors
from triwell.protocol import (
    CORRECTIONS_FOR_BRANCH,
    NOT_DRAWN,
    TUCKER_TOLERANCE,
    BellMeasurement,
    _Receiver,
    protocol_factors,
    tucker_factors,
)
from triwell.rng import MIN_OUTCOME_PROBABILITY, inverse_cdf

from oracles import (identity_reading, parity_flip, parity_operation, protocol_state_by_evolution,
                     run_scored_in_full)


def four_branch_state(a_w, b_w, gamma, alpha, beta, cutoff):
    """Direct construction of the post-collision tripartite state."""
    d = cutoff.dim

    def coh(x):
        return coherent_amplitudes(x, d)

    def kron3(x, y, z):
        return np.kron(np.kron(x, y), z)

    amps = 0.5 * (
        -1j * kron3(coh(gamma), coh(alpha), a_w * coh(beta) - b_w * coh(-beta))
        + kron3(coh(gamma), coh(-alpha), a_w * coh(-beta) + b_w * coh(beta))
        + 1j * kron3(coh(-gamma), coh(alpha), a_w * coh(-beta) - b_w * coh(beta))
        + kron3(coh(-gamma), coh(-alpha), a_w * coh(beta) + b_w * coh(-beta))
    )
    return StateVector(3, cutoff, amps / np.linalg.norm(amps))


def branch_state(branch, a_w, b_w, beta, cutoff):
    """Mode-3 conditional for each branch, up to normalization."""
    d = cutoff.dim
    forms = {
        0: a_w * coherent_amplitudes(beta, d) + b_w * coherent_amplitudes(-beta, d),
        1: a_w * coherent_amplitudes(beta, d) - b_w * coherent_amplitudes(-beta, d),
        2: a_w * coherent_amplitudes(-beta, d) + b_w * coherent_amplitudes(beta, d),
        3: a_w * coherent_amplitudes(-beta, d) - b_w * coherent_amplitudes(beta, d),
    }
    amps = forms[branch]
    return StateVector(1, cutoff, amps / np.linalg.norm(amps))


def after_outcome(rows: np.ndarray, state: StateVector, outcome: int) -> StateVector:
    """Normalised state of the other modes after ``outcome`` of the readout
    ``rows`` on the first mode of ``state``: the row product, in full."""
    after = rows[outcome] @ state.amplitudes.reshape(state.dim, -1)
    return StateVector(state.modes - 1, state.cutoff, after / np.linalg.norm(after), state.leakage)


def probs_by_outcome(prepared, disc) -> np.ndarray:
    """A prepared readout's probabilities indexed by raw outcome id, 0 off
    its support, over every outcome of ``disc``."""
    probs = np.zeros(len(disc.values))
    probs[prepared.readout.outcomes] = prepared.probs
    return probs


def drawn_outcomes(prepared, u_select: np.ndarray, u_tie: np.ndarray) -> tuple:
    """A prepared readout's draw as (outcome id, bit) arrays."""
    rows, bits = prepared.draw(u_select, u_tie)
    return prepared.readout.outcomes[rows], bits


def outcome_ids(bell: BellMeasurement, drawn) -> tuple:
    """(stage-1 id, stage-2 id, branch) arrays of a ``BellDraw``: its readout
    rows read as the discriminators' outcome ids."""
    return (bell.readouts[0].outcomes[drawn.first], bell.readouts[1].outcomes[drawn.second],
            drawn.branch)


def conditionals(bell: BellMeasurement, first: np.ndarray, second: np.ndarray) -> np.ndarray:
    """Unnormalised mode-3 amplitudes after each (stage-1 row ``first``,
    stage-2 row ``second``) pair, one row per pair."""
    return bell.coefficients(first, second) @ bell.receiver_basis.T


def mode3_states(bell: BellMeasurement, first: np.ndarray, second: np.ndarray) -> list:
    """Normalised mode-3 state after each (``first``, ``second``) row pair."""
    return [StateVector(1, bell.stages[1].cutoff, row / np.linalg.norm(row))
            for row in conditionals(bell, first, second)]


def assert_python_types(rec):
    """Every field of a trial record holds a plain Python value, never a numpy scalar."""
    assert type(rec.corrected) is bool
    assert type(rec.fidelity) is float
    assert type(rec.p_d_success) in (bool, type(None))
    assert type(rec.outcome.aux_m) in (int, type(None))
    assert type(rec.corrections_applied) is tuple
    assert type(rec.outcome.raw) is tuple and len(rec.outcome.raw) == 2
    assert all(type(value) is int for value in
               (*rec.outcome.raw, rec.outcome.bit_target, rec.outcome.bit_mode2,
                rec.outcome.branch))


def make_config(**overrides):
    base = dict(
        target=SuperpositionSpec(1.0, 1.0, 2.0),
        alpha=CoherentSpec(2.0),
        beta=CoherentSpec(2.0j),
        kerr=KerrParams(1.0, 1.0),
        josephson=JosephsonParams(1000.0),
        cross_species=CrossSpeciesParams(0.5),
        cutoff=FockCutoff(26),
        trials=1,
        seed=0,
    )
    base.update(overrides)
    return ProtocolConfig(**base)


class TestProtocolState:
    def test_single_branch_target(self):
        config = make_config(target=SuperpositionSpec(1.0, 0.0, 2.0),
                             beta=CoherentSpec(2.0))
        state = build_protocol_state(config)
        direct = four_branch_state(1.0, 0.0, 2.0, 2.0, 2.0, config.cutoff)
        assert fidelity(state, direct) >= 1 - 1e-7

    def test_generic_superposition(self):
        config = make_config(target=SuperpositionSpec(0.6, 0.8j, 2.0))
        state = build_protocol_state(config)
        direct = four_branch_state(0.6, 0.8j, 2.0, 2.0, 2.0j, config.cutoff)
        assert fidelity(state, direct) >= 1 - 1e-7

    def test_frequency_condition(self):
        with pytest.raises(FrequencyConditionViolated):
            build_protocol_state(make_config(kerr=KerrParams(2.0, 1.0)))

    def test_oracle_equivalence_small(self):
        # staged pipeline vs dense evolution at reduced amplitudes
        cutoff = FockCutoff(9)
        kp = KerrParams(1.0, 1.0)
        config = make_config(target=SuperpositionSpec(0.7, 0.7, 0.5),
                             alpha=CoherentSpec(0.5), beta=CoherentSpec(0.5j),
                             cutoff=cutoff)
        state = build_protocol_state(config)
        t = math.pi / (2 * kp.kappa)
        target = prepare_cat_superposition(config.target, cutoff)
        chan0 = tensor(prepare_cat_superposition(SuperpositionSpec(1, 0, 0.5), cutoff),
                       prepare_cat_superposition(SuperpositionSpec(1, 0, 0.5j), cutoff))

        def stage_terms(i, j):
            return [
                HamiltonianTerm("number", (i,), kp.e0_over_hbar),
                HamiltonianTerm("number", (j,), kp.e0_over_hbar),
                HamiltonianTerm("kerr", (i,), kp.kappa),
                HamiltonianTerm("kerr", (j,), kp.kappa),
                HamiltonianTerm("cross_kerr", (i, j), 2 * kp.kappa),
            ]

        ref = tensor(target, oracle_evolve(chan0, stage_terms(0, 1), t))
        ref = oracle_evolve(ref, stage_terms(0, 1), t)
        assert np.abs(state.amplitudes - ref.amplitudes).max() < 1e-9


class TestBellMeasurement:
    def test_branch_encoding_invariant(self):
        config = make_config(trials=32)
        state = build_protocol_state(config)
        bell = BellMeasurement(state, config)
        for trial in range(32):
            outcome, _ = bell.sample(substream(1, trial))
            assert outcome.branch == 2 * outcome.bit_target + outcome.bit_mode2

    def test_equiprobable_branches(self):
        config = make_config()
        state = build_protocol_state(config)
        bell = BellMeasurement(state, config)
        branch = bell.draw(substream(2).random((10_000, 4))).branch
        assert chisquare(np.bincount(branch, minlength=4)).pvalue > 0.001

    @pytest.mark.parametrize("backend, cutoff, weights, trials", [
        pytest.param("ideal", 26, (1.0, 1.0), 300, id="ideal-26"),
        pytest.param("homodyne", 32, (1.0, 1.0), 300, id="homodyne-32"),
        # the perfbench homodyne config, whose draws reach the whole stage-2 stack
        pytest.param("homodyne", 40, (0.6, 0.8), 2000, id="homodyne-40-bench")])
    def test_draw_matches_one_row_draws(self, backend, cutoff, weights, trials):
        config = make_config(target=SuperpositionSpec(*weights, 2.0), cutoff=FockCutoff(cutoff),
                             measurement_backend=backend)
        state = build_protocol_state(config)
        u = substream(31).random((trials, 4))
        drawn = BellMeasurement(state, config).draw(u)
        bell = BellMeasurement(state, config)
        rows = [bell.draw(u[i:i + 1]) for i in range(trials)]
        assert [a.tolist() for a in drawn[:3]] == [[row[k][0] for row in rows] for k in range(3)]
        # each row, read as outcome ids, against the two stages prepared directly
        first, seconds, first_rows = bell.stages[0].prepare(state, 0), {}, bell.stages[0].rows
        # stage 2's prepare over the identity basis, its readout built once
        second_readout = bell.stages[1].readout(np.eye(state.dim))
        for i, (o1, o2, branch) in enumerate(zip(*(a.tolist() for a in outcome_ids(bell, drawn)))):
            (ref1,), (bit1,) = drawn_outcomes(first, u[i:i + 1, 0], u[i:i + 1, 1])
            if o1 not in seconds:
                after = after_outcome(first_rows, state, o1)
                seconds[o1] = bell.stages[1].prepare_block(
                    second_readout, after.amplitudes.reshape(state.dim, -1))
            (ref2,), (bit2,) = drawn_outcomes(seconds[o1], u[i:i + 1, 2], u[i:i + 1, 3])
            assert (o1, o2, branch) == (ref1, ref2, 2 * (bit1 ^ bit2) + 1 - bit2)
        if trials == 2000:  # a 10^4-trial run's stack has 43-44 rows
            assert len(seconds) >= 35

    @pytest.mark.parametrize("backend, cutoff", [("ideal", 26), ("homodyne", 40)])
    def test_draws_leave_no_state(self, backend, cutoff):
        # a draw prepares its own second stage and keeps nothing: two draws on
        # one measurement are the same draws on fresh ones, and its attributes
        # are the same objects with the same contents afterwards
        config = make_config(cutoff=FockCutoff(cutoff), measurement_backend=backend)
        factors = protocol_factors(config)
        bell = BellMeasurement(factors, config)

        def snapshot():
            return {name: id(value) for name, value in vars(bell).items()}, pickle.dumps(vars(bell))

        before = snapshot()
        blocks = substream(59).random((2, 2000, 4))
        drawn = [bell.draw(u) for u in blocks]
        assert snapshot() == before
        for got, u in zip(drawn, blocks):
            want = BellMeasurement(factors, config).draw(u)
            assert all(np.array_equal(a, b) for a, b in zip(got, want))

    @pytest.mark.parametrize("branch", [0, 1, 2, 3])
    def test_conditionals_match_the_branch_forms(self, branch):
        config = make_config(target=SuperpositionSpec(0.6, 0.8, 2.0))
        state = build_protocol_state(config)
        bell = BellMeasurement(state, config)
        seen = False
        for trial in range(200):
            outcome, mode3 = bell.sample(substream(3, trial))
            if outcome.branch != branch:
                continue
            seen = True
            ref = branch_state(branch, 0.6, 0.8, 2.0j, config.cutoff)
            assert fidelity(mode3, ref) >= 0.99
            break
        assert seen

    def test_homodyne_agrees_with_ideal_on_matched_seeds(self):
        kwargs = dict(
            target=SuperpositionSpec(1.0, 1.0, 2.5),
            alpha=CoherentSpec(2.5), beta=CoherentSpec(2.5j),
            kerr=KerrParams(1.0, 1.0), josephson=JosephsonParams(20000.0),
            cutoff=FockCutoff(32), trials=400, seed=17,
        )
        ideal = run_protocol(make_config(measurement_backend="ideal", **kwargs))
        homo = run_protocol(make_config(measurement_backend="homodyne", **kwargs))
        matches = np.mean([
            a.outcome.branch == b.outcome.branch
            for a, b in zip(ideal.records, homo.records)
        ])
        assert matches >= 0.98

    def test_homodyne_mode3_posterior_matches_branch_form(self):
        config = make_config(
            target=SuperpositionSpec(0.6, 0.8, 2.5), alpha=CoherentSpec(2.5),
            beta=CoherentSpec(2.5j), josephson=JosephsonParams(20000.0),
            cutoff=FockCutoff(32), measurement_backend="homodyne",
        )
        state = build_protocol_state(config)
        bell = BellMeasurement(state, config)
        checked = set()
        for trial in range(300):
            outcome, mode3 = bell.sample(substream(29, trial))
            if outcome.branch in checked:
                continue
            ref = branch_state(outcome.branch, 0.6, 0.8, 2.5j, config.cutoff)
            assert fidelity(mode3, ref) >= 0.99
            checked.add(outcome.branch)
            if len(checked) == 4:
                break
        assert len(checked) == 4

    def test_vacuum_target_builds_as_product(self):
        # gamma = 0 target: mode 1 stays vacuum and factors out of the state
        config = make_config(target=SuperpositionSpec(1.0, 0.0, 0.0))
        state = build_protocol_state(config)
        dist = np.abs(state.tensor_view()) ** 2
        mode0_marginal = dist.sum(axis=(1, 2))
        assert mode0_marginal[0] == pytest.approx(1.0, abs=1e-12)

    def test_sample_entry_point(self):
        config = make_config()
        state = build_protocol_state(config)
        outcome, mode3 = BellMeasurement(state, config).sample(substream(5))
        assert mode3.modes == 1
        assert outcome.branch in (0, 1, 2, 3)


class TestPreparedProbabilities:
    @pytest.mark.parametrize("backend", ["ideal", "homodyne"])
    def test_both_stages_match_direct_row_sums(self, backend):
        config = make_config(target=SuperpositionSpec(0.6, 0.8, 1.0), alpha=CoherentSpec(1.0),
                             beta=CoherentSpec(1.0j), cutoff=FockCutoff(12),
                             measurement_backend=backend)
        state = build_protocol_state(config)
        bell = BellMeasurement(state, config)
        first = bell._first
        likeliest = int(first.readout.outcomes[np.argmax(first.probs)])
        posterior = after_outcome(bell.stages[0].rows, state, likeliest)
        second = bell.stages[1].prepare(posterior, 0)
        sub_floor = 0
        for prepared, measured, disc in ((first, state, bell.stages[0]),
                                         (second, posterior, bell.stages[1])):
            view = measured.amplitudes.reshape(config.cutoff.dim, -1)
            direct = (np.abs(disc.rows @ view) ** 2).sum(axis=1)  # by raw outcome id
            kept = prepared.readout.outcomes
            np.testing.assert_allclose(prepared.probs, direct[kept], rtol=0, atol=1e-15)
            # outcomes below the floor are off the support or keep zero width
            width = np.diff(prepared.cdf, prepend=0.0)
            below = direct < MIN_OUTCOME_PROBABILITY / 2
            assert (width[below[kept]] == 0).all()
            assert below[np.setdiff1d(np.arange(len(direct)), kept)].all()
            sub_floor += below.sum()
        assert (sub_floor > 0) == (backend == "homodyne")


def weight_outside(state: StateVector, *bases: np.ndarray) -> float:
    """Squared norm of ``state`` outside the span of the orthonormal
    ``bases`` of its last modes, one basis per mode (mode 3 alone for one)."""
    inside = state.tensor_view()
    for axis, basis in enumerate(bases, start=state.modes - len(bases)):
        projector = basis @ basis.conj().T
        inside = np.moveaxis(np.tensordot(projector, inside, axes=(1, axis)), 0, axis)
    return float(np.linalg.norm(state.tensor_view() - inside) ** 2)


class TestReceiverFactoring:
    """Both Bell stages work on mode 3's coefficients over an orthonormal
    basis of mode 3, never on the full mode-3 view."""

    @pytest.mark.parametrize("backend", ["ideal", "homodyne"])
    @pytest.mark.parametrize("n_max, amplitude", [(12, 1.0), (26, 2.0), (40, 2.0)])
    def test_protocol_state_has_receiver_rank_two(self, backend, n_max, amplitude):
        # mode 3 lies in span{|b>, |-b>}: every collision is a quarter-period
        # phase, a combination of 1 and the parity, also in truncated space
        config = make_config(target=SuperpositionSpec(0.6, 0.8, amplitude),
                             alpha=CoherentSpec(amplitude), beta=CoherentSpec(1j * amplitude),
                             cutoff=FockCutoff(n_max), measurement_backend=backend)
        basis = BellMeasurement(protocol_factors(config), config).receiver_basis
        assert basis.shape == (config.cutoff.dim, 2)
        np.testing.assert_allclose(basis.conj().T @ basis, np.eye(2), rtol=0, atol=1e-14)
        assert weight_outside(protocol_state_by_evolution(config), basis) < 1e-25

    @pytest.mark.parametrize("backend", ["ideal", "homodyne"])
    def test_any_state_matches_the_unfactored_stages(self, backend):
        # a random state: the homodyne readout spans every Fock state, so all
        # three modes are random; the ideal one reads span{|a>, |-a>} alone,
        # so modes 1 and 2 stay in that pair
        amplitude, cutoff = 0.6, FockCutoff(9)
        config = make_config(target=SuperpositionSpec(0.6, 0.8, amplitude),
                             alpha=CoherentSpec(amplitude), beta=CoherentSpec(1j * amplitude),
                             cutoff=cutoff, measurement_backend=backend)
        d, rng = cutoff.dim, substream(41)
        amps = rng.normal(size=(d, d, d)) + 1j * rng.normal(size=(d, d, d))
        if backend == "ideal":
            pair = np.array(helstrom_vectors(amplitude, cutoff))
            amps = np.einsum("ia,jb,ijc->abc", pair, pair, amps[:2, :2])
        state = StateVector(3, cutoff, (amps / np.linalg.norm(amps)).ravel())
        bell = BellMeasurement(state, config)
        # mode 3 holds the 2 x 2 pair blocks' 4 random columns, or all d
        rank = 4 if backend == "ideal" else d
        assert bell.receiver_basis.shape == (d, rank)
        np.testing.assert_allclose(bell.receiver_basis.conj().T @ bell.receiver_basis,
                                   np.eye(rank), rtol=0, atol=1e-14)
        u = substream(43).random((2000, 4))
        drawn = bell.draw(u)
        first, second, branch = outcome_ids(bell, drawn)
        post = conditionals(bell, drawn.first, drawn.second)
        reference = BellMeasurement(identity_reading(state), config)
        along = reference.draw(u)
        assert all(np.array_equal(a, b)
                   for a, b in zip((first, second, branch), outcome_ids(reference, along)))
        np.testing.assert_allclose(post, conditionals(reference, along.first, along.second),
                                   rtol=0, atol=1e-13)
        direct, seconds = bell.stages[0].prepare(state, 0), {}
        ref1, bit1 = drawn_outcomes(direct, u[:, 0], u[:, 1])
        assert first.tolist() == ref1.tolist()
        view = state.amplitudes.reshape(d, d * d)
        first_rows, second_rows = bell.stages[0].rows, bell.stages[1].rows  # built on each read
        second_readout = bell.stages[1].readout(np.eye(d))  # stage 2's prepare, built once
        for i, (o1, o2) in enumerate(zip(first.tolist(), second.tolist())):
            if o1 not in seconds:
                after = after_outcome(first_rows, state, o1)
                seconds[o1] = bell.stages[1].prepare_block(second_readout,
                                                           after.amplitudes.reshape(d, -1))
            (ref2,), (bit2,) = drawn_outcomes(seconds[o1], u[i:i + 1, 2], u[i:i + 1, 3])
            assert (o2, branch[i]) == (ref2, 2 * (bit1[i] ^ bit2) + 1 - bit2)
            after_first = (first_rows[o1] @ view).reshape(d, d)
            expected = second_rows[o2] @ after_first / np.linalg.norm(after_first)
            np.testing.assert_allclose(post[i], expected, rtol=0, atol=1e-13)
        assert len(seconds) > 1

    @pytest.mark.parametrize("backend", ["ideal", "homodyne"])
    def test_second_stage_posterior_is_the_unfactored_one(self, backend):
        config = make_config(cutoff=FockCutoff(26), measurement_backend=backend)
        state = build_protocol_state(config)
        bell = BellMeasurement(state, config)
        drawn = bell.draw(substream(47).random((500, 4)))
        first, second = np.unique(np.stack(drawn[:2]), axis=1)
        ids = (readout.outcomes[rows] for readout, rows in zip(bell.readouts, (first, second)))
        first_rows, second_rows = bell.stages[0].rows, bell.stages[1].rows  # built on each read
        for o1, o2, mode3 in zip(*ids, mode3_states(bell, first, second)):
            after = after_outcome(first_rows, state, o1)
            direct = after_outcome(second_rows, after, o2)
            np.testing.assert_allclose(mode3.amplitudes, direct.amplitudes, rtol=0, atol=1e-13)

    def test_stacked_second_stage_cdfs_are_the_per_key_ones(self):
        # every stage-2 CDF comes from one floor and cumulative sum over the
        # stacked probabilities, bit for bit the one-distribution rule
        config = make_config(cutoff=FockCutoff(32), measurement_backend="homodyne")
        bell = BellMeasurement(build_protocol_state(config), config)
        first = bell.draw(substream(53).random((2000, 4))).first
        probs, cdfs = bell._second_laws(np.unique(first))
        assert len(cdfs) > 10
        # and each is the CDF of the full-outcome law, read at the support's
        # outcomes: the rows are stored in CDF order
        order = bell.stages[1].order
        rank = np.argsort(order)
        for law, cdf in zip(probs, cdfs):
            prepared = bell.stages[1].prepared(bell.readouts[1], law, cdf)
            assert np.array_equal(prepared.cdf, inverse_cdf(prepared.probs))
            full_cdf = inverse_cdf(probs_by_outcome(prepared, bell.stages[1])[order])
            assert np.array_equal(prepared.cdf, full_cdf[rank[prepared.readout.outcomes]])

    def test_second_stage_refuses_a_sub_floor_first_outcome(self):
        config = make_config(cutoff=FockCutoff(26), measurement_backend="homodyne")
        bell = BellMeasurement(build_protocol_state(config), config)
        null_row = int(np.argmin(bell._first.probs))
        assert bell._first.probs[null_row] < MIN_OUTCOME_PROBABILITY
        with pytest.raises(ZeroProbabilityBranch):
            bell._second_laws([null_row])
        with pytest.raises(ZeroProbabilityBranch):
            bell.coefficients([null_row], [0])


class TestTuckerFactors:
    """``BellMeasurement`` reads a three-mode state as its truncated
    higher-order SVD, a core over one orthonormal basis per mode at the
    state's numerical rank; the identity-basis reading is the reference."""

    @staticmethod
    def assert_factors(factors, state: StateVector, shape: tuple):
        assert factors.core.shape == shape
        for basis, rank in zip(factors.bases, shape):
            assert basis.shape == (state.dim, rank)
            np.testing.assert_allclose(basis.conj().T @ basis, np.eye(rank), rtol=0, atol=1e-14)
        expanded = np.einsum("ijk,ai,bj,ck->abc", factors.core, *factors.bases)
        np.testing.assert_allclose(expanded, state.tensor_view(), rtol=0, atol=1e-14)

    @pytest.mark.parametrize("backend", ["ideal", "homodyne"])
    @pytest.mark.parametrize("weights", [(0.6, 0.8), (1.0, 1.0)], ids=["unequal", "equal"])
    @pytest.mark.parametrize("n_max, amplitude", [(12, 1.0), (26, 2.0), (40, 2.0)])
    def test_protocol_state_factors_at_its_rank(self, n_max, amplitude, weights, backend):
        # an equal-weight target is an even cat, so mode 1 has rank 1
        config = make_config(target=SuperpositionSpec(*weights, amplitude),
                             alpha=CoherentSpec(amplitude), beta=CoherentSpec(1j * amplitude),
                             cutoff=FockCutoff(n_max), measurement_backend=backend)
        state = build_protocol_state(config)
        factors = tucker_factors(state)
        self.assert_factors(factors, state, (1 if weights == (1.0, 1.0) else 2, 2, 2))
        assert state.leakage <= factors.leakage < joint_leakage(state.leakage, 1e-14)
        bell = BellMeasurement(state, config)
        assert np.array_equal(bell._core, factors.core)
        assert np.array_equal(bell.receiver_basis, factors.bases[2])
        assert bell.leakage == factors.leakage

    def test_full_rank_state_keeps_every_mode(self):
        cutoff, rng = FockCutoff(9), substream(71)
        d = cutoff.dim
        amps = rng.normal(size=(d, d, d)) + 1j * rng.normal(size=(d, d, d))
        state = StateVector(3, cutoff, (amps / np.linalg.norm(amps)).ravel(), 1e-3)
        factors = tucker_factors(state)
        self.assert_factors(factors, state, (d, d, d))
        assert factors.leakage == pytest.approx(1e-3, rel=0, abs=1e-15)

    def test_refuses_other_mode_counts(self):
        config = make_config(cutoff=FockCutoff(9))
        d = config.cutoff.dim
        two_modes = StateVector(2, config.cutoff, np.eye(d).ravel() / math.sqrt(d))
        with pytest.raises(ValueError, match="three-mode"):
            BellMeasurement(two_modes, config)

    @pytest.mark.parametrize("mass, shape", [(0.5 * TUCKER_TOLERANCE, (2, 2, 2)),
                                             (10 * TUCKER_TOLERANCE, (3, 3, 3))])
    def test_mass_below_the_tolerance_goes_to_leakage(self, mass, shape):
        # a rank-2 state plus a third product component, orthogonal in every
        # mode, of squared norm ``mass``: each Gram matrix gets the eigenvalue
        # ``mass``, which is dropped below the tolerance and kept above it
        cutoff, rng = FockCutoff(9), substream(73)
        d = cutoff.dim
        q = [np.linalg.qr(rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)))[0]
             for _ in range(3)]

        def product(k):
            return np.einsum("a,b,c->abc", q[0][:, k], q[1][:, k], q[2][:, k])

        amps = math.sqrt(1 - mass) * (0.6 * product(0) + 0.8 * product(1))
        state = StateVector(3, cutoff, (amps + math.sqrt(mass) * product(2)).ravel(), 0.25)
        factors = tucker_factors(state)
        assert factors.core.shape == shape
        dropped = mass if shape == (2, 2, 2) else 0.0
        assert factors.leakage == pytest.approx(joint_leakage(0.25, dropped), rel=0, abs=2e-15)
        expanded = np.einsum("ijk,ai,bj,ck->abc", factors.core, *factors.bases)
        assert np.linalg.norm(expanded - state.tensor_view()) ** 2 == pytest.approx(
            dropped, rel=0, abs=2e-15)

    @pytest.mark.parametrize("mass", [1e-14, 3e-14, 0.5 * TUCKER_TOLERANCE])
    def test_dropped_mass_is_recovered_to_the_leakage_rounding(self, mass):
        # the planted third component of squared norm ``mass`` is dropped, and
        # the leakage 1 - (1 - 0)(1 - dropped) carries it to within half an ulp
        # below 1, 5.6e-17: 0.55 % of 1e-14, so the bound is 1 % relative.
        # Taken as 1 - |core|^2 / |state|^2, the mass read up to ~9 % off.
        cutoff, rng = FockCutoff(9), substream(97)
        d = cutoff.dim
        q = [np.linalg.qr(rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)))[0]
             for _ in range(3)]
        parts = [np.einsum("a,b,c->abc", q[0][:, k], q[1][:, k], q[2][:, k]) for k in range(3)]
        amps = math.sqrt(1 - mass) * (0.6 * parts[0] + 0.8 * parts[1]) + math.sqrt(mass) * parts[2]
        factors = tucker_factors(StateVector(3, cutoff, amps.ravel()))
        assert factors.core.shape == (2, 2, 2)
        assert factors.leakage == pytest.approx(mass, rel=1e-2, abs=0)

    @pytest.mark.parametrize("backend", ["ideal", "homodyne"])
    def test_draws_and_conditionals_equal_the_identity_reading(self, backend):
        config = make_config(target=SuperpositionSpec(0.6, 0.8, 1.0), alpha=CoherentSpec(1.0),
                             beta=CoherentSpec(1j), cutoff=FockCutoff(12),
                             measurement_backend=backend)
        state = build_protocol_state(config)
        bell = BellMeasurement(state, config)
        reference = BellMeasurement(identity_reading(state), config)
        for seed in (79, 83, 89):
            u = substream(seed).random((10_000, 4))
            drawn, along = bell.draw(u), reference.draw(u)
            assert all(np.array_equal(a, b)
                       for a, b in zip(outcome_ids(bell, drawn), outcome_ids(reference, along)))
            np.testing.assert_allclose(conditionals(bell, *drawn[:2]),
                                       conditionals(reference, *along[:2]), rtol=0, atol=1e-13)

    @pytest.mark.parametrize("backend, n_max, weights", [
        pytest.param("ideal", 26, (0.6, 0.8), id="ideal-26"),
        pytest.param("homodyne", 40, (0.6, 0.8), id="homodyne-40"),
        pytest.param("homodyne", 40, (1.0, 1.0), id="homodyne-40-equal")])
    def test_draws_equal_the_identity_reading_at_large_cutoffs(self, backend, n_max, weights):
        # at n_max 26-40 the identity reading's homodyne stage-1 law sums
        # d^2 row products, and its conditionals stray up to ~1e-12 from the
        # exact parity core's; the factored ones stay within 1e-13 of it
        config = make_config(target=SuperpositionSpec(*weights, 2.0), cutoff=FockCutoff(n_max),
                             measurement_backend=backend)
        state = build_protocol_state(config)
        bell = BellMeasurement(state, config)
        reference = BellMeasurement(identity_reading(state), config)
        exact = BellMeasurement(protocol_factors(config), config)
        for seed in (97, 101):
            u = substream(seed).random((10_000, 4))
            drawn, along, exactly = bell.draw(u), reference.draw(u), exact.draw(u)
            ids = outcome_ids(bell, drawn)
            for other, other_drawn in ((reference, along), (exact, exactly)):
                assert all(np.array_equal(a, b)
                           for a, b in zip(ids, outcome_ids(other, other_drawn)))
            np.testing.assert_allclose(conditionals(bell, *drawn[:2]),
                                       conditionals(exact, *exactly[:2]), rtol=0, atol=1e-13)


FACTOR_CASES = {
    "unbalanced": lambda amp: dict(target=SuperpositionSpec(0.6, 0.8j, amp),
                                   beta=CoherentSpec(1j * amp)),
    "vacuum-target": lambda amp: dict(target=SuperpositionSpec(1.0, 0.0, 0.0),
                                      beta=CoherentSpec(1j * amp)),
    "real-beta": lambda amp: dict(target=SuperpositionSpec(0.6, 0.8, amp),
                                  beta=CoherentSpec(amp)),
    "vacuum-beta": lambda amp: dict(target=SuperpositionSpec(0.6, 0.8, amp),
                                    beta=CoherentSpec(0.0)),
}


class TestProtocolFactors:
    """A run factors mode 3 out at the channel and never forms the d^3
    state; the full evolution in ``oracles`` is the ground truth."""

    @pytest.mark.parametrize("backend", ["ideal", "homodyne"])
    @pytest.mark.parametrize("case", FACTOR_CASES)
    @pytest.mark.parametrize("n_max, amplitude", [(12, 1.0), (26, 2.0), (40, 2.0)])
    def test_factors_expand_to_the_evolved_state(self, n_max, amplitude, case, backend):
        config = make_config(alpha=CoherentSpec(amplitude), cutoff=FockCutoff(n_max),
                             measurement_backend=backend, **FACTOR_CASES[case](amplitude))
        oracle = protocol_state_by_evolution(config)
        expanded = build_protocol_state(config)
        np.testing.assert_allclose(expanded.amplitudes, oracle.amplitudes, rtol=0, atol=1e-14)
        assert expanded.leakage == oracle.leakage
        # each mode's basis is orthonormal, and together they hold the full
        # state; a vacuum amplitude has no odd part, so its mode has rank 1
        d = config.cutoff.dim
        factors = protocol_factors(config)
        assert factors.core.shape == (1 if case == "vacuum-target" else 2, 2,
                                      1 if case == "vacuum-beta" else 2)
        for basis, rank in zip(factors.bases, factors.core.shape):
            assert basis.shape == (d, rank)
            np.testing.assert_allclose(basis.conj().T @ basis, np.eye(rank), rtol=0, atol=1e-14)
        assert weight_outside(oracle, *factors.bases) < 1e-25
        assert factors.leakage == oracle.leakage
        if case != "vacuum-target":  # the readout needs a target amplitude
            bell, full = BellMeasurement(factors, config), BellMeasurement(oracle, config)
            np.testing.assert_allclose(probs_by_outcome(bell._first, bell.stages[0]),
                                       probs_by_outcome(full._first, full.stages[0]),
                                       rtol=0, atol=1e-14)
            # the full state's factors drop the mass their expansion misses
            tucker = tucker_factors(oracle)
            expanded = np.einsum("ijk,ai,bj,ck->abc", tucker.core, *tucker.bases, optimize=True)
            dropped = (np.linalg.norm(oracle.tensor_view() - expanded) ** 2
                       / np.linalg.norm(oracle.amplitudes) ** 2)
            assert np.array_equal(full._core, tucker.core)
            assert full.leakage == joint_leakage(oracle.leakage, dropped)
            assert dropped < 1e-14

    def test_run_reads_the_homodyne_rows_over_each_basis_alone(self, monkeypatch):
        # the pair propagator is built over each mode's basis (r <= 2
        # columns), never as the d^2 x d matrix of every count outcome
        config = make_config(target=SuperpositionSpec(0.6, 0.8, 1.5), cutoff=FockCutoff(40),
                             measurement_backend="homodyne", trials=300)
        expected = run_protocol(config)
        widths = []
        columns = triwell.homodyne.josephson_collision_columns

        def recorded(*args):
            widths.append(args[5].shape[1])
            return columns(*args)

        def refuse(disc):
            raise AssertionError("the run built every count outcome's row")

        monkeypatch.setattr(triwell.homodyne, "josephson_collision_columns", recorded)
        monkeypatch.setattr(triwell.homodyne.HomodynePhaseDiscriminator, "rows", property(refuse))
        triwell.protocol._set_up_of.cache_clear()  # a cold call builds the readouts
        assert run_protocol(config) == expected
        assert widths == [2, 2]  # one call per stage: gamma and alpha differ

    @pytest.mark.parametrize("backend, cutoff", [("ideal", 26), ("homodyne", 40)])
    def test_run_builds_no_three_mode_state(self, backend, cutoff, monkeypatch):
        config = make_config(target=SuperpositionSpec(0.6, 0.8, 2.0), cutoff=FockCutoff(cutoff),
                             measurement_backend=backend, p_d=0.7, trials=300,
                             aux=AuxiliaryPrep("coherent", 2.0))
        expected = run_protocol(config)

        def refuse(*args, **kwargs):
            raise AssertionError("the run built the d^3 protocol state")

        post_init = StateVector.__post_init__

        def checked(state):
            if state.modes >= 3:
                refuse()
            post_init(state)

        monkeypatch.setattr(triwell.protocol, "build_protocol_state", refuse)
        monkeypatch.setattr(StateVector, "__post_init__", checked)
        with pytest.raises(AssertionError):
            triwell.protocol.build_protocol_state(config)
        triwell.protocol._set_up_of.cache_clear()  # a cold call builds the set-up
        assert run_protocol(config) == expected


class TestRunSetUp:
    """A run builds the set-up once per config, from the public
    preparations: the target's coherent table (gamma, -gamma being its
    parity flip), the channel's (alpha, beta), the stage discriminator's,
    the receiver's reference (beta) and the auxiliary's count law, and a
    quarter-period self-collision phase table each for the channel and the
    target. A change that builds more fails here on a count, not on a
    timing. A later call that differs only in seed and trials builds none of
    it."""

    @staticmethod
    def config(backend, n_max):
        return make_config(target=SuperpositionSpec(0.6, 0.8, 2.0), cutoff=FockCutoff(n_max),
                           measurement_backend=backend, p_d=0.7, trials=2000,
                           aux=AuxiliaryPrep("coherent", 2.0))

    @staticmethod
    def counted(monkeypatch) -> tuple:
        """Lists that record each coherent table's amplitudes, each phase
        table's arguments and each pair-propagator product's basis width."""
        tables, phases, products = [], [], []
        amplitudes, kerr = triwell.fock.coherent_amplitudes, triwell.dynamics.kerr_phases
        columns = triwell.homodyne.josephson_collision_columns

        def counted_amplitudes(alpha, dim):
            tables.append(alpha)
            return amplitudes(alpha, dim)

        def counted_phases(*args):
            phases.append(args)
            return kerr(*args)

        def counted_columns(*args):
            products.append(args[5].shape[1])
            return columns(*args)

        monkeypatch.setattr(triwell.fock, "coherent_amplitudes", counted_amplitudes)
        for module in (triwell.dynamics, triwell.channel, triwell.protocol):
            monkeypatch.setattr(module, "kerr_phases", counted_phases)
        monkeypatch.setattr(triwell.homodyne, "josephson_collision_columns", counted_columns)
        return tables, phases, products

    @pytest.mark.parametrize("backend, n_max", [("ideal", 26), ("homodyne", 40)])
    def test_each_table_is_built_once(self, backend, n_max, monkeypatch):
        config = self.config(backend, n_max)
        expected = run_protocol(config)
        tables, phases, products = self.counted(monkeypatch)
        triwell.protocol._set_up_of.cache_clear()  # a cold call builds the set-up
        assert run_protocol(config) == expected
        # the target's gamma = 2, the channel's alpha = 2 and beta = 2i, the
        # stage discriminator's table, the reference's beta, then the
        # auxiliary's, sqrt(2), when a parity branch first draws its count
        stage = 2.0 if backend == "ideal" else 2.0 * cmath.exp(1j * math.pi / 2)
        assert tables == [2.0, 2.0, 2j, stage, 2j, math.sqrt(2.0)]
        assert len(phases) == 2
        # gamma == alpha: one product reads both stage bases
        assert products == ([] if backend == "ideal" else [4])

    @pytest.mark.parametrize("backend, n_max", [("ideal", 26), ("homodyne", 40)])
    def test_a_call_with_another_seed_builds_nothing(self, backend, n_max, monkeypatch):
        config = self.config(backend, n_max)
        run_protocol(config)
        tables, phases, products = self.counted(monkeypatch)
        warm = run_protocol(dataclasses.replace(config, seed=1, trials=500))
        assert (tables, phases, products) == ([], [], [])
        triwell.protocol._set_up_of.cache_clear()
        assert run_protocol(dataclasses.replace(config, seed=1, trials=500)) == warm
        assert len(phases) == 2 and len(products) == (backend == "homodyne")


def column_bytes(result) -> dict:
    """Each column of a run as its dtype and raw bytes."""
    return {name: (column.dtype.str, column.tobytes()) for name, column in result.columns.items()}


def held_arrays(*parts) -> list:
    """Every array held by ``parts``, their items and their attributes."""
    found = []
    for part in parts:
        if isinstance(part, np.ndarray):
            found.append(part)
        elif isinstance(part, (tuple, list)):
            found += held_arrays(*part)
        elif hasattr(part, "__dict__"):
            found += held_arrays(*vars(part).values())
    return found


class TestSetUpReuse:
    """``run_protocol`` reuses the set-up of a config across calls that
    differ only in seed and trials; reuse never changes an output byte."""

    config = staticmethod(TestRunSetUp.config)

    @staticmethod
    def cold(config):
        triwell.protocol._set_up_of.cache_clear()
        return column_bytes(run_protocol(config))

    def test_warm_and_evicted_calls_equal_cold_calls(self):
        configs = [self.config("ideal", 26), self.config("homodyne", 40)]
        cold = {(i, seed): self.cold(dataclasses.replace(config, seed=seed))
                for i, config in enumerate(configs) for seed in range(5)}
        # four other keys, each a different p_d, fill the memo and evict both
        fillers = [dataclasses.replace(configs[0], p_d=p_d) for p_d in (0.1, 0.2, 0.3, 0.4)]
        triwell.protocol._set_up_of.cache_clear()
        for seed in range(5):
            for i, config in enumerate(configs):  # interleaved
                assert column_bytes(run_protocol(dataclasses.replace(config, seed=seed))) \
                    == cold[i, seed], (i, seed)
            if seed % 2:
                for filler in fillers:
                    triwell.protocol._set_up_of(dataclasses.replace(filler, trials=1))
        # seeds 1 and 3 hit; seeds 0, 2 and 4 and every filler build
        info = triwell.protocol._set_up_of.cache_info()
        assert (info.hits, info.misses, info.maxsize) == (4, 14, 4)

    @pytest.mark.parametrize("backend, n_max", [("ideal", 26), ("homodyne", 40)])
    def test_equal_configs_give_equal_bytes(self, backend, n_max):
        # the memo keys on ==, so every config equal to another must run to
        # its bytes: int, float and complex amplitudes, signed zeros, int rates
        config = self.config(backend, n_max)
        variants = [
            dict(target=SuperpositionSpec(0.6, 0.8, 2), alpha=CoherentSpec(2),
                 beta=CoherentSpec(complex(0, 2))),
            dict(target=SuperpositionSpec(0.6, 0.8, 2 + 0j), alpha=CoherentSpec(complex(2, -0.0)),
                 beta=CoherentSpec(complex(-0.0, 2))),
            dict(kerr=KerrParams(1, 1), josephson=JosephsonParams(1000),
                 aux=AuxiliaryPrep("coherent", 2)),
        ]
        for seed in range(3):
            base = dataclasses.replace(config, seed=seed)
            want = self.cold(base)
            for overrides in variants:
                variant = dataclasses.replace(base, **overrides)
                assert variant == base and hash(variant) == hash(base)
                assert self.cold(variant) == want, (seed, overrides)

    def test_signed_zeros_share_one_set_up(self):
        # equal and equal-hashing configs whose amplitudes differ in the sign
        # of a zero imaginary part: the homodyne axis reads both as +pi
        plus, minus = (make_config(target=SuperpositionSpec(0.6, 0.8, complex(-2.0, zero)),
                                   alpha=CoherentSpec(complex(-2.0, zero)), cutoff=FockCutoff(40),
                                   measurement_backend="homodyne", p_d=0.7, trials=2000,
                                   aux=AuxiliaryPrep("coherent", 2.0))
                       for zero in (0.0, -0.0))
        assert plus == minus and hash(plus) == hash(minus)
        cold = self.cold(plus)
        assert self.cold(minus) == cold
        triwell.protocol._set_up_of.cache_clear()
        for config in (minus, plus, minus, plus):
            assert column_bytes(run_protocol(config)) == cold
        info = triwell.protocol._set_up_of.cache_info()
        assert (info.hits, info.misses) == (3, 1)

    @pytest.mark.parametrize("backend, n_max", [("ideal", 26), ("homodyne", 40)])
    def test_set_up_is_read_only_and_shares_no_memory_with_results(self, backend, n_max):
        config = self.config(backend, n_max)
        results = [run_protocol(dataclasses.replace(config, seed=seed)) for seed in (0, 1)]
        bell, receiver = triwell.protocol._set_up_of(dataclasses.replace(config, trials=1))
        assert "count_cdf" in vars(receiver)  # drawn by the parity branches
        arrays = held_arrays(bell, receiver)
        assert len(arrays) > 10 and not any(array.flags.writeable for array in arrays)
        with pytest.raises(ValueError, match="read-only"):
            bell._core[0, 0, 0] = 0
        for result in results:
            for name, column in result.columns.items():
                assert column.flags.writeable, name
                assert not any(np.shares_memory(column, array) for array in arrays), name

    @pytest.mark.parametrize("overrides, error", [
        (dict(kerr=KerrParams(2.0, 1.0)), FrequencyConditionViolated),  # e0 != kappa
        (dict(cutoff=FockCutoff(12)), CutoffTooSmall),  # the target's tail
        (dict(aux=AuxiliaryPrep("coherent", 200.0), trials=50), CutoffTooSmall),  # count law
    ])
    def test_a_set_up_that_raises_raises_on_every_call(self, overrides, error):
        config = make_config(**overrides)
        triwell.protocol._set_up_of.cache_clear()
        for seed in range(3):
            with pytest.raises(error):
                run_protocol(dataclasses.replace(config, seed=seed))

    @pytest.mark.parametrize("backend, n_max", [("ideal", 26), ("homodyne", 40)])
    def test_threads_give_the_serial_bytes(self, backend, n_max):
        configs = [dataclasses.replace(self.config(backend, n_max), seed=seed) for seed in range(4)]
        serial = [self.cold(config) for config in configs]
        triwell.protocol._set_up_of.cache_clear()  # both threads start cold
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # switch threads as often as the interpreter allows
        try:
            with ThreadPoolExecutor(max_workers=2) as pool:
                parallel = list(pool.map(lambda config: column_bytes(run_protocol(config)),
                                         configs, timeout=120))
        finally:
            sys.setswitchinterval(interval)
        assert parallel == serial


class TestScoringAtReceiverRank:
    """A run scores each distinct row from its r coefficients over the
    receiver basis, never from the d-wide conditional amplitudes."""

    @pytest.mark.parametrize("backend, cutoff", [("ideal", 26), ("homodyne", 32)])
    @pytest.mark.parametrize("seed", [3, 29, 71])
    def test_run_matches_scoring_in_full(self, backend, cutoff, seed):
        config = make_config(target=SuperpositionSpec(0.6, 0.8, 2.0), cutoff=FockCutoff(cutoff),
                             measurement_backend=backend, p_d=0.7, trials=2000, seed=seed,
                             aux=AuxiliaryPrep("coherent", 2.0))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # the displacement-ratio warning
            columns = run_protocol(config).columns
        full = run_scored_in_full(config).columns
        for name in ("stage1", "stage2", "branch", "p_d_success", "aux_m", "corrected"):
            assert columns[name].tolist() == full[name].tolist(), name
        assert np.abs(columns["fidelity"] - full["fidelity"]).max() <= 1e-13
        # displaced rows, alone and with the parity sign, were scored
        displaced = columns["p_d_success"] == True  # noqa: E712 (None elsewhere)
        assert set(columns["branch"][displaced].tolist()) == {1, 3}

    @pytest.mark.parametrize("backend, cutoff, gamma", [("ideal", 26, 2.0), ("homodyne", 40, 2.0),
                                                        ("homodyne", 40, 1.5)])
    @pytest.mark.parametrize("seed", [3, 1001, 71])
    def test_pair_table_is_per_trial_scoring(self, backend, cutoff, gamma, seed):
        # each distinct pair of stage rows is scored once for every probe
        # column; each trial reads the fidelity of its own coefficients and
        # probe column. gamma 1.5 gives two discriminators.
        config = make_config(target=SuperpositionSpec(0.6, 0.8, gamma),
                             cutoff=FockCutoff(cutoff), measurement_backend=backend, p_d=0.7,
                             trials=2000, seed=seed, aux=AuxiliaryPrep("coherent", 2.0))
        bell = BellMeasurement(protocol_factors(config), config)
        assert (bell.stages[0] is bell.stages[1]) == (gamma == 2.0)
        receiver = _Receiver(config, bell.receiver_basis)
        u = substream(seed).random((config.trials, 6))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # the displacement-ratio warning
            drawn = bell.draw(u[:, :4])
            _, column = receiver.draw(drawn.branch, u[:, 4:])
            coefficients = bell.coefficients(drawn.first, drawn.second)
            want = receiver.fidelities(coefficients, np.arange(config.trials), column)
            got = run_protocol(config).columns
        assert len(set(zip(got["stage1"].tolist(), got["stage2"].tolist()))) < config.trials
        assert (column >= 2).any()
        np.testing.assert_allclose(got["fidelity"], want, rtol=0, atol=1e-13)

    @pytest.mark.parametrize("backend, cutoff", [("ideal", 26), ("homodyne", 40)])
    def test_run_reads_the_core_alone(self, backend, cutoff, monkeypatch):
        # every Bell prepare works on a block of the 2 x 2 x 2 core, and no
        # row is expanded to d amplitudes
        config = make_config(target=SuperpositionSpec(0.6, 0.8, 2.0), cutoff=FockCutoff(cutoff),
                             measurement_backend=backend, p_d=0.7, trials=300,
                             aux=AuxiliaryPrep("coherent", 2.0))
        expected = run_protocol(config)

        def refuse(*args, **kwargs):
            raise AssertionError("the run expanded coefficients to d amplitudes")

        shapes, block_probabilities = [], triwell.homodyne._block_probabilities

        def recorded(rows, blocks):
            shapes.append(blocks.shape[1:])
            return block_probabilities(rows, blocks)

        monkeypatch.setattr(triwell.homodyne, "_block_probabilities", recorded)
        monkeypatch.setattr(BellMeasurement, "sample", refuse)
        triwell.protocol._set_up_of.cache_clear()  # a cold call prepares the first stage
        assert run_protocol(config) == expected
        assert len(shapes) == 2  # the first stage, then every second stage at once
        assert all(rows <= 2 and width <= 4 for rows, width in shapes)

    def test_branch_bits_pick_the_corrections(self):
        config = make_config(p_d=0.5, aux=AuxiliaryPrep("coherent", 2.0))
        branch = np.tile(np.arange(4), 50)
        columns, _ = _Receiver(config, np.eye(config.cutoff.dim)).draw(
            branch, substream(5).random((len(branch), 2)))
        for b, ops in CORRECTIONS_FOR_BRANCH.items():
            rows = branch == b
            assert all((v == NOT_DRAWN) != ("displacement" in ops)
                       for v in columns["p_d_success"][rows])
            assert all((m == NOT_DRAWN) != ("parity" in ops) for m in columns["aux_m"][rows])


class TestCorrectAndScore:
    def seen_branches(self, config, seeds=400):
        state = build_protocol_state(config)
        bell = BellMeasurement(state, config)
        out = {}
        for trial in range(seeds):
            rng = substream(config.seed, trial)
            outcome, mode3 = bell.sample(rng)
            if outcome.branch not in out:
                out[outcome.branch] = correct_and_score(mode3, outcome, config, rng)
            if len(out) == 4:
                break
        return out

    def test_branch_zero_needs_nothing(self):
        config = make_config()
        records = self.seen_branches(config)
        rec = records[0]
        assert rec.corrections_applied == ()
        assert rec.corrected and rec.fidelity >= 0.99

    def test_parity_branch_corrects(self):
        config = make_config()  # vacuum auxiliary: always even
        rec = self.seen_branches(config)[2]
        assert rec.corrections_applied == ("parity",)
        assert rec.corrected and rec.fidelity >= 0.98
        assert rec.outcome.aux_m == 0

    def test_correction_table_frozen(self):
        assert CORRECTIONS_FOR_BRANCH == {
            0: (), 1: ("displacement",), 2: ("parity",),
            3: ("displacement", "parity"),
        }
        config = make_config()
        records = self.seen_branches(config)
        for branch, rec in records.items():
            assert rec.corrections_applied == CORRECTIONS_FOR_BRANCH[branch]

    @pytest.mark.parametrize("backend, cutoff", [("ideal", 26), ("homodyne", 32)])
    def test_keeps_the_callers_outcome_and_sets_aux_m(self, backend, cutoff):
        config = make_config(
            target=SuperpositionSpec(0.6, 0.8, 2.0), cutoff=FockCutoff(cutoff),
            measurement_backend=backend, p_d=0.7, aux=AuxiliaryPrep("coherent", 2.0),
        )
        bell = BellMeasurement(build_protocol_state(config), config)
        for trial in range(40):
            rng = substream(3, trial)
            outcome, mode3 = bell.sample(rng)
            rec = correct_and_score(mode3, outcome, config, rng)
            assert rec.outcome == dataclasses.replace(outcome, aux_m=rec.outcome.aux_m)
            assert (rec.outcome.aux_m is None) == (outcome.branch < 2)
            assert_python_types(rec)

    def test_keeps_raw_outcomes_it_did_not_draw(self):
        config = make_config(aux=AuxiliaryPrep("number", 0))
        mode3 = reference_state(config)
        outcome = MeasurementOutcome(1, 0, 2, (5, 7))
        rec = correct_and_score(mode3, outcome, config, substream(4))
        assert rec.outcome == MeasurementOutcome(1, 0, 2, (5, 7), aux_m=0)
        assert rec.corrections_applied == ("parity",) and rec.corrected

    @pytest.mark.parametrize("branch", [0, 1, 2, 3])
    def test_scores_the_direct_corrections(self, branch):
        # a coherent state off both axes tells D from D^dag, which the
        # protocol's own conditional states cannot; unequal weights make the
        # reference parity-asymmetric
        config = make_config(target=SuperpositionSpec(0.6, 0.8, 2.0), p_d=1.0,
                             aux=AuxiliaryPrep("number", 0))
        mode3 = prepare_cat_superposition(SuperpositionSpec(1.0, 0.0, 0.5 + 1.5j), config.cutoff)
        outcome = MeasurementOutcome(branch >> 1, branch & 1, branch, (0, 0))
        rec = correct_and_score(mode3, outcome, config, substream(4))
        direct = mode3
        if branch in (1, 3):
            direct = virtual_displacement(direct, config.beta.amplitude)
        if branch in (2, 3):
            direct = parity_flip(direct)
        reference = reference_state(config)
        assert rec.corrected
        assert rec.fidelity == pytest.approx(fidelity(direct, reference), abs=1e-12)
        if branch:  # the correction changes the score
            assert abs(rec.fidelity - fidelity(mode3, reference)) > 1e-3

    def test_p_d_zero_never_corrects_displacement_branches(self):
        config = make_config(p_d=0.0, trials=300)
        result = run_protocol(config)
        for rec in result.records:
            if rec.outcome.branch in (1, 3):
                assert not rec.corrected
                assert "displacement" not in rec.corrections_applied
            elif rec.outcome.branch in (0, 2):
                assert rec.corrected

    def test_real_beta_fails_displacement_branches(self):
        config = make_config(beta=CoherentSpec(2.0), trials=200)
        result = run_protocol(config)
        branches = {rec.outcome.branch for rec in result.records}
        assert {1, 3} & branches
        for rec in result.records:
            if rec.outcome.branch in (1, 3):
                assert not rec.corrected and rec.p_d_success is False
        # still scored: each trial's posterior, flipped on an even count (the
        # vacuum auxiliary always counts 0)
        bell = BellMeasurement(build_protocol_state(config), config)
        reference = reference_state(config)
        draws = substream(config.seed).random((config.trials, 6))
        drawn = bell.draw(draws[:, :4])
        for rec, state in zip(result.records, mode3_states(bell, *drawn[:2])):
            if rec.outcome.branch in (2, 3):
                state = parity_flip(state)
            assert rec.fidelity == pytest.approx(fidelity(state, reference), abs=1e-12)


class TestRunProtocol:
    @pytest.mark.parametrize("amplitude", ["target", "alpha"])
    def test_zero_amplitude_homodyne_run_is_refused(self, amplitude):
        # the stage's reference magnitude defaults to |0| = 0, where no count
        # gives a sample value; refused before any division by it
        zero = {"target": dict(target=SuperpositionSpec(1.0, 1.0, 0.0)),
                "alpha": dict(alpha=CoherentSpec(0.0))}[amplitude]
        config = make_config(measurement_backend="homodyne", trials=50, **zero)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(AmbiguousSupport, match="reference magnitude 0"):
                run_protocol(config)

    @pytest.mark.parametrize("backend", ["ideal", "homodyne"])
    @pytest.mark.parametrize("stage", [
        dict(target=SuperpositionSpec(1.0, 1.0, 0.0), reference_magnitude=2.0),
        dict(target=SuperpositionSpec(1.0, 1.0, 0.5)),
        dict(alpha=CoherentSpec(0.5)),
    ], ids=["gamma-0-reference-2", "gamma-0.5", "alpha-0.5"])
    def test_indistinguishable_stage_is_refused_on_both_backends(self, backend, stage):
        # |<a|-a>| = exp(-2|a|^2) > 0.5 below |a| = sqrt(ln 2 / 2): the counts
        # of a homodyne stage are refused where the ideal projectors are
        config = make_config(measurement_backend=backend, trials=50, **stage)
        with pytest.raises(AmbiguousSupport, match="branches not distinguishable"):
            run_protocol(config)

    @pytest.mark.parametrize("backend, cutoff", [("ideal", 26), ("homodyne", 32)])
    def test_records_match_direct_corrections(self, backend, cutoff):
        # every trial rescored by applying the corrections to its own posterior
        config = make_config(
            target=SuperpositionSpec(0.6, 0.8, 2.0), cutoff=FockCutoff(cutoff),
            measurement_backend=backend, p_d=0.7, trials=300, seed=19,
            aux=AuxiliaryPrep("coherent", 2.0),
        )
        result = run_protocol(config)
        bell = BellMeasurement(build_protocol_state(config), config)
        reference = reference_state(config)
        seen = set()
        # trial i reads row i: Bell stages, displacement success, auxiliary count
        draws = substream(config.seed).random((config.trials, 6))
        for rec, u in zip(result.records, draws):
            drawn = bell.draw(u[None, :4])
            (state,) = mode3_states(bell, *drawn[:2])
            (first,), (second,), (branch,) = (a.tolist() for a in outcome_ids(bell, drawn))
            p_d_success = aux_m = None
            corrected = True
            if branch in (1, 3):
                p_d_success = bool(u[4] < config.p_d)
                corrected = p_d_success
                if p_d_success:
                    state = virtual_displacement(state, config.beta.amplitude)
            if branch in (2, 3):
                aux_m, state, even = parity_operation(
                    state, config.aux, config.cross_species, config.parity_kerr(),
                    config.cutoff, u[5])
                corrected = corrected and even
            assert rec.outcome.branch == branch
            assert rec.outcome.raw == (first, second)
            assert rec.outcome.aux_m == aux_m
            assert rec.p_d_success == p_d_success
            assert rec.corrected == corrected
            assert rec.fidelity == pytest.approx(fidelity(state, reference), abs=1e-12)
            assert_python_types(rec)
            seen.add((branch, p_d_success, None if aux_m is None else aux_m % 2))
        # every branch, and both outcomes of each correction, occurred
        assert {key[0] for key in seen} == {0, 1, 2, 3}
        assert {key[1] for key in seen} == {None, True, False}
        assert {key[2] for key in seen} == {None, 0, 1}

    def test_displacement_warning_once_per_run(self):
        # |delta|/|beta| = 0.39 at beta = 2i; several distinct displaced rows
        config = make_config(p_d=1.0, trials=300)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            columns = run_protocol(config).columns
        displaced = columns["p_d_success"] == 1  # displaced, and the displacement succeeded
        pairs = set(zip(columns["stage1"][displaced].tolist(),
                        columns["stage2"][displaced].tolist()))
        assert len(pairs) > 1
        assert sum("exceeds" in str(w.message) for w in caught) == 1

    def test_top_shell_check_raises_without_headroom(self):
        # n_max 22 holds every prepared state (leakage <= 1e-10), but the
        # displaced mode-3 state leaves more than 1e-10 on the n_max shell
        config = make_config(cutoff=FockCutoff(22), p_d=1.0, trials=200)
        with pytest.raises(CutoffTooSmall, match="n_max shell"):
            run_protocol(config)

    def test_seed_determinism(self):
        config = make_config(trials=64, p_d=0.6, aux=AuxiliaryPrep("coherent", 2.0))
        first = run_protocol(config)
        second = run_protocol(config)
        assert first.records == second.records
        assert first.summary == second.summary

    def test_equal_configs_give_equal_results(self):
        config = make_config(trials=64, p_d=0.6, aux=AuxiliaryPrep("coherent", 2.0))
        assert run_protocol(config) == run_protocol(config)
        assert run_protocol(config) != run_protocol(dataclasses.replace(config, seed=1))

    def test_run_and_cli_build_no_trial_objects(self, monkeypatch, tmp_path):
        def forbidden(*args, **kwargs):
            raise AssertionError("per-trial object built")

        monkeypatch.setattr(triwell.protocol, "TrialRecord", forbidden)
        monkeypatch.setattr(triwell.protocol, "MeasurementOutcome", forbidden)
        config = make_config(trials=200, p_d=0.7, aux=AuxiliaryPrep("coherent", 2.0))
        result = run_protocol(config)
        assert result.summary["trials"] == 200
        assert [name for name, column in result.columns.items() if column.dtype == object] == []
        assert main(["teleport", "--trials", "200", "--p-d", "0.7", "--aux-kind", "coherent",
                     "--aux-parameter", "2", "--out", str(tmp_path / "tp")]) == 0

    def test_corrections_are_independent_of_the_next_trial(self):
        # the next trial's stage-1 outcome, given this trial's displacement
        # draw, against its pooled rate; a draw shared between neighbouring
        # trials would couple them
        config = make_config(
            target=SuperpositionSpec(0.6, 0.8, 2.0), p_d=0.7, trials=20_000, seed=11,
            aux=AuxiliaryPrep("coherent", 2.0),
        )
        columns = run_protocol(config).columns
        following = columns["stage1"][1:] == 1
        displaced = columns["p_d_success"][:-1]
        pooled = following.mean()
        for outcome in (True, False):
            given = following[displaced == outcome]
            stderr = math.sqrt(pooled * (1 - pooled) / len(given))
            assert abs(given.mean() - pooled) <= 5 * stderr, outcome

    def test_success_rate_tracks_total_efficiency(self):
        trials = 4000
        config = make_config(trials=trials, p_d=0.5,
                             aux=AuxiliaryPrep("coherent", 2.0), seed=23)
        result = run_protocol(config)
        p_even = (1 + math.exp(-4.0)) / 2
        expected = (1 + p_even + 0.5 + 0.5 * p_even) / 4
        sigma = math.sqrt(expected * (1 - expected) / trials)
        assert abs(result.summary["success_rate"] - expected) <= 3 * sigma

    def test_reference_is_the_channel_amplitude(self):
        config = make_config(target=SuperpositionSpec(0.6, 0.8, 2.0))
        ref = reference_state(config)
        direct = prepare_cat_superposition(SuperpositionSpec(0.6, 0.8, 2.0j),
                                           config.cutoff)
        assert fidelity(ref, direct) == pytest.approx(1.0, abs=1e-12)

    def test_summary_shape(self):
        result = run_protocol(make_config(trials=16))
        assert set(result.summary) == {"trials", "branch_histogram", "success_rate",
                                       "mean_fidelity"}
        assert sum(result.summary["branch_histogram"]) == 16

    def test_config_validation(self):
        with pytest.raises(ValueError):
            make_config(trials=0)
        with pytest.raises(ValueError):
            make_config(measurement_backend="tomography")
        with pytest.raises(ValueError):
            make_config(p_d=1.5)


def records_field_by_field(columns: dict) -> list:
    """Every trial's record built from its column entries, one field at a
    time, the correction list read off ``CORRECTIONS_FOR_BRANCH``."""
    records = []
    for i in range(len(columns["branch"])):
        branch = int(columns["branch"][i])
        aux_m, p_d_success = int(columns["aux_m"][i]), int(columns["p_d_success"][i])
        aux_m = None if aux_m == NOT_DRAWN else aux_m
        p_d_success = None if p_d_success == NOT_DRAWN else bool(p_d_success)
        applied = tuple(name for name in CORRECTIONS_FOR_BRANCH[branch]
                        if name == "parity" or p_d_success)
        outcome = MeasurementOutcome(branch >> 1, branch & 1, branch,
                                     (int(columns["stage1"][i]), int(columns["stage2"][i])),
                                     aux_m)
        records.append(TrialRecord(outcome, bool(columns["corrected"][i]),
                                   float(columns["fidelity"][i]), applied, p_d_success))
    return records


class TestRecordView:
    CASES = [("ideal", 26), ("homodyne", 40)]

    @staticmethod
    def config(backend, cutoff, seed=5, trials=300):
        return make_config(target=SuperpositionSpec(0.6, 0.8, 2.0), cutoff=FockCutoff(cutoff),
                           measurement_backend=backend, p_d=0.7, trials=trials, seed=seed,
                           aux=AuxiliaryPrep("coherent", 2.0))

    @pytest.mark.parametrize("seed", [3, 8, 21])
    @pytest.mark.parametrize("backend, cutoff", CASES)
    def test_records_are_the_columns_field_by_field(self, backend, cutoff, seed):
        result = run_protocol(self.config(backend, cutoff, seed))
        records = list(result.records)
        assert records == records_field_by_field(result.columns)
        assert {rec.corrections_applied for rec in records} == {
            (), ("displacement",), ("parity",), ("displacement", "parity")}
        for index, rec in enumerate(records):
            assert_python_types(rec)
            assert result.records[index] == rec

    @pytest.mark.parametrize("backend, cutoff", CASES)
    def test_records_read_none_exactly_at_the_sentinel(self, backend, cutoff):
        result = run_protocol(self.config(backend, cutoff))
        columns = result.columns
        assert columns["p_d_success"].dtype == np.int8
        assert columns["aux_m"].dtype == np.int64
        for rec, p_d, aux_m in zip(result.records,
                                   columns["p_d_success"].tolist(), columns["aux_m"].tolist()):
            assert (rec.p_d_success is None) == (p_d == NOT_DRAWN)
            assert (rec.outcome.aux_m is None) == (aux_m == NOT_DRAWN)
            if p_d != NOT_DRAWN:
                assert type(rec.p_d_success) is bool and rec.p_d_success == (p_d == 1)
            if aux_m != NOT_DRAWN:
                assert type(rec.outcome.aux_m) is int and rec.outcome.aux_m == aux_m >= 0
        assert {NOT_DRAWN, 0, 1} == set(columns["p_d_success"].tolist())
        assert NOT_DRAWN in columns["aux_m"] and (columns["aux_m"] >= 0).any()

    @pytest.mark.parametrize("backend, cutoff", CASES)
    def test_length_and_indexing(self, backend, cutoff):
        trials = 40
        records = run_protocol(self.config(backend, cutoff, trials=trials)).records
        assert len(records) == trials
        assert records[-1] == records[trials - 1] == list(records)[-1]
        assert records[-trials] == records[0]
        for index in (trials, -trials - 1):
            with pytest.raises(IndexError):
                records[index]

    @pytest.mark.parametrize("backend, cutoff", CASES)
    def test_iteration_repeats_and_equal_runs_compare_equal(self, backend, cutoff):
        config = self.config(backend, cutoff)
        result = run_protocol(config)
        assert list(result.records) == list(result.records)
        assert result.records == list(result.records)
        assert result.records == run_protocol(config).records
        assert result.records != run_protocol(dataclasses.replace(config, seed=6)).records
        assert result.records != list(result.records)[:-1]

    @pytest.mark.parametrize("backend, cutoff", CASES)
    def test_result_keeps_no_record(self, backend, cutoff):
        result = run_protocol(self.config(backend, cutoff))
        refs = [weakref.ref(rec) for rec in result.records]
        assert "records" not in vars(result)
        assert set(vars(result)) <= {"columns", "summary"}
        rec = result.records[0]
        ref = weakref.ref(rec)
        del rec
        assert ref() is None
        assert all(ref() is None for ref in refs)
