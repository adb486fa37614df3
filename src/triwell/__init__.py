"""triwell: a three-well condensate teleportation laboratory in truncated Fock space.

Entanglement generation by controlled cross-collisions, atom-counting
homodyne phase readout, receiver-side parity and displacement corrections,
protocol efficiency statistics, and the spin-dependent optical lattice that
drives the collision schedule. All rates are angular frequencies in units
with hbar = 1; amplitudes are dimensionless mode amplitudes.
"""

__version__ = "0.1.0"

from .channel import (
    channel_entanglement,
    channel_family_index,
    channel_family_overlaps,
    generate_channel,
)
from .corrections import (
    AuxiliaryPrep,
    EfficiencyPoint,
    ParityMonteCarlo,
    p_even_analytic,
    p_even_monte_carlo,
    parity_count_distribution,
    total_efficiency,
    virtual_displacement,
)
from .dynamics import (
    CrossSpeciesParams,
    HamiltonianTerm,
    JosephsonParams,
    KerrParams,
    evolve_cross_kerr,
    evolve_josephson,
    evolve_self_kerr,
    oracle_evolve,
)
from .errors import (
    AmbiguousSupport,
    ConfigError,
    CutoffTooSmall,
    DegenerateSuperposition,
    DimensionTooLarge,
    FrequencyConditionViolated,
    NonMonotoneTime,
    NumericError,
    PreconditionError,
    RangeError,
    ShapeMismatch,
    TriwellError,
    ValidityDomainExceeded,
    ZeroImaginaryPart,
    ZeroProbabilityBranch,
)
from .fock import (
    CoherentSpec,
    FockCutoff,
    SqueezedVacuumSpec,
    StateVector,
    SuperpositionSpec,
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
from .homodyne import (
    PerturbativeInit,
    SchwingerRecord,
    initial_schwinger,
    perturbative_sx,
    simulate_sx,
)
from .lattice import (
    DensityMap,
    LatticeParams,
    ScheduleReport,
    density_map,
    potential_matrix,
    schedule_check,
)
from .protocol import (
    CORRECTIONS_FOR_BRANCH,
    MeasurementOutcome,
    ProtocolConfig,
    ProtocolResult,
    TrialRecord,
    build_protocol_state,
    correct_and_score,
    reference_state,
    run_protocol,
)
from .rng import substream
