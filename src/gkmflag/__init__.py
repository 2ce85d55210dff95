"""Exact torus-equivariant Schubert calculus in the GKM localization model."""

from .roots import (
    ParabolicSubset,
    RootDatum,
    WeylElement,
    act_on_weight,
    bruhat_leq,
    build_root_system,
    coset_decompose,
    parabolic_trichotomy,
    weyl_elements,
)
from .scalars import (
    CohScalar,
    KScalar,
    ScalarFraction,
    divides_exactly,
    weyl_act_scalar,
)
from .model import (
    H,
    K,
    FlagSpace,
    LocalizedClass,
    SchubertExpansion,
    ambient_class,
    euler_class,
    expand_schubert,
    fixed_point_class,
    flag_space,
    gkm_check,
    integrate,
    lambda_minus1_cotangent,
    line_bundle_class,
    pair,
    pullback_parabolic,
    pushforward_parabolic,
    rebuild_from_expansion,
    schubert_class,
)
from .operators import (
    VerificationReport,
    apply_word,
    bgg_left,
    bgg_right,
    demazure_left,
    demazure_right,
    dl_left,
    dl_left_homogenized,
    dl_right,
    dl_right_inverse,
    verify_relations,
    verify_schubert_actions,
    weyl_left,
    weyl_right,
)
from .classes import (
    CellClassFamily,
    cell_family,
    csm_cell,
    homogenize_csm,
    mc_cell,
    sm_cell,
    smc_cell,
    verify_class_theorems,
)
from .quantum import (
    FormalQElem,
    QuantumClass,
    StructureTable,
    formal_leibniz_eval,
    generator_facts,
    load_table,
    q_multiply,
    quantum_degrees,
    quantum_delta,
    quantum_demazure_dual,
    verify_quantum_examples,
    weyl_left_q,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
