"""Exact quantum Chevalley calculus on minuscule flag manifolds.

The package builds root systems for all simple types with exact
integer coroot pairings, enumerates minuscule Weyl orbits as graded coset
representatives, constructs the canonical-basis operator
A(q) = sum_j E-(j) + q E_psi over integer polynomials in q, computes
quantum multiplication by the Schubert divisor class through three
independent routes, checks the type-A wedge (Satake) similarity and the
D-family half-wedge dimension identities, and realizes the exact
dictionary between Toda asymptotic data, alcove points and holomorphic
exponents, whose distinguished point corresponds to A(q).
"""

from .rootsys import (
    CartanData,
    LieType,
    RootSystem,
    RootVec,
    Weight,
    build,
    diagram_involution,
    minuscule_weights,
    pair,
    reflect,
)
from .weylorbit import (
    Orbit,
    OrbitElement,
    apply_word,
    crystal_edges,
    length,
    orbit,
    poincare_dual,
)
from .minrep import (
    Poly,
    PolyMatrix,
    cartan_action,
    char_poly,
    lowering_matrix,
    psi_raising_matrix,
    quantum_operator,
    raising_matrix,
    verify_rep_relations,
)
from .qchev import (
    QProductTerm,
    SchubertClass,
    chevalley_closed,
    chevalley_fw_oracle,
    first_mismatch,
    frobenius_check,
    fw_oracle_matrix,
    fw_oracle_pass,
    grading_check,
    n_alpha,
    quantum_product_matrix,
    trichotomy_check,
    verify_main_theorem,
)
from .satake import (
    SignDiagonal,
    SignSimilarityError,
    half_wedge_dims,
    satake_similarity,
    sign_similarity,
    wedge_matrix,
)
from .ttstar import (
    AlcovePoint,
    AsymptoticData,
    DpwExponents,
    alcove_to_asymptotic,
    asymptotic_to_alcove,
    distinguished_solution,
    dpw_exponents,
    dubrovin_form,
    in_asymptotic_set,
    sigma_fixed,
)

__version__ = "0.1.0"
