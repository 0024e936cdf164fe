"""Separating multiplier toolkit.

Classify Fourier multipliers on finite-group von Neumann algebras and Schur
multipliers on matrix algebras: witness searches over disjoint pairs,
algebraic certificates (scalar multiples of characters, rank-one unimodular
factorizations), sampled isometry checks, and canonical (w, B, J) triples.
"""

__version__ = "0.1.0"

from .linalg import (
    DEFAULT_TOL,
    DimMismatch,
    InvalidExponent,
    LinalgError,
    NoConvergence,
    NotHermitian,
    NotPositive,
    hermitian_eig,
    polar_decompose,
    psd_pseudo_inverse,
    random_unitary,
    schatten_norm,
    singular_values,
    support_projection,
    svd,
)
from .groups import (
    Character,
    FiniteGroup,
    GroupError,
    InvalidGroupTable,
    UnknownFamily,
    builtin_group,
    commutator_subgroup,
    direct_product,
    enumerate_characters,
    fit_scalar_character,
    group_from_json,
    group_to_json,
    trivial_character,
)
from .vna import (
    DegenerateSpectrum,
    ExhaustedRetries,
    VnaError,
    derive_seed,
    disjointness_defect,
    is_disjoint,
    random_disjoint_pair,
    regular_representation,
    symbol_from_json,
    symbol_to_json,
)
from .schur import (
    RankOneCertificate,
    herz_schur_symbol,
    rank_one_unimodular_factor,
    recover_character,
)
from .classify import (
    INCONCLUSIVE,
    NOT_SEPARATING,
    SEPARATING,
    ClassifyError,
    InvalidTrials,
    LinearMap,
    NotSeparating,
    Verdict,
    Witness,
    YeadonTriple,
    classify_fourier,
    classify_schur,
    deterministic_probes,
    fourier_multiplier_map,
    isometry_test,
    positive_definite_test,
    random_disjoint_pair_matrix,
    schur_multiplier_map,
    separating_test,
    transpose_map,
    verdict_to_json,
    yeadon_extract,
)
from .verify import (
    CellResult,
    EmptySuite,
    SuiteConfig,
    SuiteError,
    default_config,
    format_report,
    load_group,
    report_passed,
    run_suite,
)
