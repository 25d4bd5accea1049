"""Exact combinatorics of parabolic double cosets, Schubert cells over
finite fields, Satake-side determinant identities, p-adic coset
invariants, and ordinary parts of Koszul cohomology."""

from .weyl import (
    Family,
    GroupKind,
    SubsetJ,
    WeylElement,
    all_subsets_j,
    canonical_rep,
    double_cosets,
    longest_element,
    parabolic_mark,
    sigma,
    subset_j,
    tau,
    type_a,
    type_c,
    w_j,
)
from .roots import (
    Root,
    cell_dim_formula,
    n0j_corank,
    n0j_rank,
    parabolic_data,
    schubert_cell_dim,
    unipotent_intersection_dim,
)
from .flagfq import (
    cell_census,
    closure_order_check,
    cover_lemma_check,
    enumerate_flag,
    finding_j_check,
    flag_size,
    group_order,
    plucker,
)
from .satake import (
    CharPoly,
    LaurentPoly,
    SatakeCase,
    SymmetryTag,
    char_poly_g,
    char_poly_m,
    dual_char_poly,
    satake_real,
    satake_unitary,
    t_g_real,
    t_g_unitary,
    t_m,
    verify_determinant_factorization,
)
from .padic import (
    BlockMatrix,
    Level,
    LevelFlavor,
    anticanonical_radius,
    block_matrix,
    factor_P_Gamma1,
    gamma,
    h_invariant,
    in_P_Gamma1,
    in_level,
    valuation,
)
from .ordcoh import (
    GradedCohomology,
    Lambda,
    cores_kunneth,
    cores_rank1,
    hecke_gamma,
    koszul_cohomology,
    koszul_differentials,
    ordinary_limit,
    ordinary_part_of_hecke_gamma,
    ordinary_projector,
)

__version__ = "0.1.0"
