"""Exact-arithmetic toolkit for Jacobi-Jordan and pre-Jacobi-Jordan algebras.

Finite-dimensional algebras are given by structure-constant tensors over the
rationals or a prime field.  The package checks the defining identities,
builds sub-adjacent algebras, representations, bimodules, matched pairs and
symmetric double constructions, and classifies low-dimensional instances by
solving their defining equations over finite fields.
"""

from .algebra import (
    Algebra,
    CheckReport,
    IDENTITY_KINDS,
    Witness,
    ad,
    algebra_from_tuple,
    antiassociator,
    apply_basis_change,
    check_identity,
    direct_sum,
    left_mult,
    op_anticommutator,
    opposite,
    passes_identity,
    product,
    right_mult,
    structure_equal,
    sub_adjacent,
    tuple_from_algebra,
)
from .catalog import case_conformance
from .classify import (
    Orbit,
    OrbitCensus,
    classify,
    enumerate_solutions,
    find_isomorphism,
)
from .doubles import (
    BilinearForm,
    DoubleConstruction,
    assemble_jj_double,
    assemble_prejj_double,
    build_jj_double,
    build_prejj_double,
    canonical_form,
    check_invariance,
    conformance_diff,
    dual_structure_maps,
    jj_matched_pair_from_duals,
)
from .errors import (
    FieldError,
    MixedFieldError,
    MockLieError,
    PreconditionError,
    ShapeError,
)
from .fields import QQ, PrimeField, RationalField, prime_field
from .linalg import LinearMap
from .matched import (
    JJMatchedPair,
    PreJJMatchedPair,
    check_jj_matched_pair,
    check_prejj_matched_pair,
    jj_bicross_product,
    prejj_bicross_product,
    subadjacent_matched_pair,
)
from .reps import (
    JJRep,
    PreJJBimodule,
    check_jj_rep,
    check_prejj_bimodule,
    check_prejj_bimodule_displayed,
    dual_bimodule,
    dual_rep,
    jj_semidirect,
    prejj_semidirect,
    sum_rep,
)

__version__ = "0.1.0"
