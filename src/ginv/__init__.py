"""Generalized inverses with prescribed idempotents, and their perturbation
theory, over complex matrices.

The core object is the inverse b of a square matrix a whose column space and
null space are prescribed by a pair of idempotents (p, q): b satisfies
b a b = b with col(b) = col(p) and null(b) = col(q). The package computes
these inverses, decides existence, classifies how strict a candidate is,
and verifies a family of perturbation statements about them: update
formulas, stability characterizations, and quantitative error bounds. A
seeded harness runs those checks over random ensembles, and a CLI exposes
the whole thing on JSON files.
"""

from .errors import (
    BadWitness,
    DimMismatch,
    ExactSingular,
    GenerationFailed,
    GinvError,
    IllConditioned,
    InputError,
    MismatchedAmbient,
    NoGroupInverse,
    NotComplementary,
    NotExists,
    PerturbationTooLarge,
    RepresentationMismatch,
    SideConditionViolated,
)
from .exact import ExactMatrix, ExactScalar, parse_rational
from .gen_inverse import (
    ExistenceReport,
    GInvResult,
    Witness,
    build_witness,
    classify_strict,
    compute_l,
    compute_outer_pql,
    compute_outer_pql_exact,
    exists_dual_check,
    exists_l,
    exists_outer_pql,
    group_inverse,
    inner_inverse,
    one_five_inverse,
    representation_15,
    representation_group_12,
)
from .harness import (
    CHECKS,
    CampaignReport,
    EnsembleConfig,
    TheoremStats,
    gen_scenario,
    run_campaign,
    run_check,
)
from .idempotents import (
    Idempotent,
    idempotent_from_matrix,
    oblique,
    perturb_idempotent,
    projector,
    random_idempotent,
)
from .linalg import (
    DEFAULT_TOL,
    Tolerances,
    as_matrix,
    identity,
    null_basis,
    orth_basis,
    rank,
    spectral_norm,
    try_inverse,
)
from .perturbation import (
    BoundReport,
    EquivalenceReport,
    ImplicationItem,
    ImplicationReport,
    Scenario,
    bound_thm34,
    bound_thm36,
    bound_thm38,
    bound_thm39,
    cor_12_variants,
    cor_lemas1,
    equivalence_cor28,
    equivalence_thm24,
    equivalence_thm27,
    equivalence_thm212,
    equivalence_thm_tm27,
    gap_sufficient_lemma210,
    is_stable,
    kappa,
    lemma26_f,
    update_formula,
)
from .randomstream import RandomStream
from .subspaces import (
    GapResult,
    Subspace,
    canonical_basis,
    direct_sum_is_all,
    full_subspace,
    gap,
    intersection_trivial,
    kernel_of,
    map_subspace,
    orthocomplement,
    range_of,
    subspace_from_columns,
    subspaces_equal,
    zero_subspace,
)

__version__ = "0.1.0"
