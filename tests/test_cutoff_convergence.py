"""Key outputs stop moving once the truncation holds the states.

Between ``n_max`` 26 and 40 each quantity may change by no more than ten
times the leakage its preparation recorded at the smaller cutoff (floored at
1e-12 for round-off).
"""

import numpy as np
import pytest

from triwell import (
    AuxiliaryPrep,
    CoherentSpec,
    CrossSpeciesParams,
    FockCutoff,
    KerrParams,
    SuperpositionSpec,
    channel_entanglement,
    generate_channel,
    parity_count_distribution,
    prepare_cat_superposition,
)
from triwell.homodyne import IdealPhaseDiscriminator

CUTOFFS = (26, 32, 40)


def bound(leakage: float) -> float:
    return max(10 * leakage, 1e-12)


def cat(cutoff: FockCutoff):
    return prepare_cat_superposition(SuperpositionSpec(0.6, 0.8, 2.0), cutoff)


def parity_counts(cutoff: FockCutoff):
    aux = AuxiliaryPrep("coherent", 2.0)
    dist = parity_count_distribution(cat(cutoff), aux, CrossSpeciesParams(0.5),
                                     KerrParams(1.5, 1.0), cutoff)
    padded = np.zeros(max(CUTOFFS) + 1)
    padded[:len(dist)] = dist
    return padded, aux.prepare(cutoff).leakage


def ideal_bit_probabilities(cutoff: FockCutoff):
    signal = cat(cutoff)
    prepared = IdealPhaseDiscriminator(2.0, cutoff).prepare(signal, 0)
    return np.array(prepared.bit_probabilities), signal.leakage


def entanglement(cutoff: FockCutoff):
    state = generate_channel(CoherentSpec(2.0), CoherentSpec(2.0j), KerrParams(1.0, 1.0),
                             cutoff)
    return np.array([channel_entanglement(state)]), state.leakage


@pytest.mark.parametrize("quantity", [parity_counts, ideal_bit_probabilities, entanglement])
def test_converged_by_n_max_26(quantity):
    results = [quantity(FockCutoff(n)) for n in CUTOFFS]
    for (value, leakage), (finer, _) in zip(results, results[1:]):
        assert np.abs(finer - value).max() < bound(leakage)
