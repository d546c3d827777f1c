"""SLOCC classification of multi-qubit pure states via coefficient-matrix ranks.

Exact arithmetic over Q(i, sqrt2) keeps every rank decision tolerance
free; a numeric SVD path covers floating inputs.  See the README for the
CLI and file formats.
"""

from .coeffmatrix import (
    Bipartition,
    CoefficientMatrix,
    RankSignature,
    coefficient_matrix,
    det_coeff,
    enumerate_bipartitions,
    rank,
    rank_signature,
    rank_signatures,
    reduced_density,
    singular_values,
    split_rank,
)
from .families import (
    ClassificationError,
    FamilyError,
    FamilyRegistry,
    FamilyTemplate,
    KAPPA_PERMUTATIONS,
    PI_PERMUTATIONS,
    RankTriple,
    SubfamilyRule,
    classify_subfamily,
    default_registry,
    full_permutation_scan,
    instantiate,
    match_template,
    permutation_analysis,
    rank_triple,
    sample_predicate,
)
from .invariants import (
    InvariantReport,
    closed_form_dxy,
    dxy,
    dxy_covariance_factor,
    f1,
    f2,
    invariant_report,
)
from .scalars import ExactScalar, Rational, ScalarFormatError
from .separability import (
    DegenerateFamilyLabel,
    SeparabilityPartition,
    degenerate_family,
    is_biseparable_across,
    recursive_rank,
    separability_partition,
)
from .slocc import (
    LocalOperator,
    LocalOperatorSet,
    SIGMA_X,
    SIGMA_Y,
    SIGMA_Z,
    apply_local,
    random_invertible_local,
    transform_coefficient_matrix,
)
from .states import (
    PureState,
    QubitPermutation,
    StateFormatError,
    parse_state,
    permute_qubits,
    product_state,
    render_state,
    scale,
    state,
    tensor,
)

__version__ = "0.1.0"
