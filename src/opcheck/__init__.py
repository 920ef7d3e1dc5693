"""Numerical checks for operator inequalities around positive linear maps,
matrix geometric means, and polar/Cartesian decompositions.

The package splits into a dense-matrix kernel (:mod:`opcheck.linalg`),
decompositions (:mod:`opcheck.decompose`), means and majorization
(:mod:`opcheck.means`), positive-map descriptions (:mod:`opcheck.posmap`),
certificate-producing checks (:mod:`opcheck.checks`), random ensembles
(:mod:`opcheck.ensembles`), and campaign orchestration plus a CLI
(:mod:`opcheck.campaign`, :mod:`opcheck.cli`).
"""

__version__ = "0.1.0"

from .linalg import (
    EigenSystem,
    LoewnerDecision,
    Tolerance,
    eigh,
    eigvalsh,
    generalized_inverse,
    loewner_leq,
    operator_norm,
    spectral_radius,
    spectral_radius_psd_product,
    sqrtm_psd,
)
from .decompose import (
    CartesianParts,
    PolarParts,
    cartesian,
    comodulus,
    modulus,
    polar,
)
from .means import (
    MajorizationReport,
    geometric_mean,
    geometric_mean_ex,
    weak_log_majorizes,
)
from .posmap import (
    COMPLETELY_POSITIVE,
    POSITIVE,
    TWO_POSITIVE,
    Congruence,
    IdentityMap,
    KrausSum,
    MapCompose,
    MapSum,
    PartialTrace2x2,
    PosMap,
    SchurMultiplier,
    TransposeMap,
    apply,
    map_from_json,
    map_to_json,
    sample_positivity_falsifier,
)
from .checks import (
    Certificate,
    FunPair,
    check_arithmetic_domination,
    check_cartesian_suite,
    check_eigenvalue_gaps,
    check_geometric_domination,
    check_log_majorization,
    check_reverse_product,
    check_russo_dye,
    check_schur_remarks,
    check_two_positive_split,
    domination_holds,
    find_counterexamples_remarks,
    reproduce_counterexample_2_8,
    reproduce_sharpness_cor2_5,
)
from .ensembles import ENSEMBLES
from .campaign import CampaignSpec, Instance, run_campaign, run_instance

__all__ = [name for name in dir() if not name.startswith("_")]
