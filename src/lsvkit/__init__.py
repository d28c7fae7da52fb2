"""lsvkit: experiments and invariants around the smallest singular value
of random square matrices with i.i.d. centered unit-variance entries.

Submodules:
    ensembles   counter-based seeded sampling of entry distributions
    linalg      dense operations with explicit failure contracts
    witness     witness vectors, projected dual systems, audits
    structure   lattice distance, LCD search, small-ball estimation
    harness     seeded Monte Carlo tail experiments and fits
    cli         command-line frontend with manifests and replay
"""

__version__ = "0.1.0"

from .ensembles import (  # noqa: F401
    ENSEMBLES,
    GAUSSIAN,
    RADEMACHER,
    STUDENT_T5,
    UNIFORM,
    Ensemble,
    SeedSpec,
    get_ensemble,
    sample_array,
    sample_matrices,
    sample_matrix,
    sample_vector,
    stream_keys,
)
from .errors import (  # noqa: F401
    DegenerateGeometry,
    DimensionMismatch,
    EnumerationTooLarge,
    InsufficientData,
    InvalidDimension,
    InvalidQuery,
    LsvError,
    NonSquare,
    NumericallyDependent,
    SingularMatrix,
)
from .harness import (  # noqa: F401
    TailEstimate,
    TailSweepConfig,
    check_markov_sum_bound,
    distance_tail_experiment,
    fit_tail_model,
    map_trials,
    median_scaling_report,
    run_tail_sweep,
    scaled_sn_samples,
    write_tail_csv,
)
from .linalg import (  # noqa: F401
    BiorthogonalSystem,
    OrthonormalBasis,
    dist_to_subspace,
    dual_basis,
    inverse,
    leave_one_out_distances,
    lu_solve,
    orthonormalize,
    project_onto,
    smallest_singular_value,
    smallest_singular_values,
)
from .structure import (  # noqa: F401
    LcdQuery,
    LcdResult,
    SmallBallEstimate,
    dist_to_lattice,
    lcd_subspace_sampled,
    lcd_vector,
    small_ball_estimate,
)
from .witness import (  # noqa: F401
    IndependenceProbe,
    WitnessReport,
    audit,
    compute_ab,
    construct_witness_vector,
    dual_projections,
    independence_probe,
)
