"""Exact decision procedures for restriction- and twist-equivalence of
modules over small finite-dimensional algebras over prime fields."""

from .algebra import (
    DEFAULT_BUDGET,
    Algebra,
    Automorphism,
    NcPoly,
    Subalgebra,
    algebra_validate,
    compose,
    enumerate_automorphisms,
    enumerate_proper_subalgebras,
    evaluate_poly,
    identity_automorphism,
    inverse,
    make_dihedral_algebra,
    make_free_univariate,
    make_rsz_algebra,
    make_semidihedral_algebra,
)
from .equiv import (
    EquivVerdict,
    Partition,
    TOrbitResult,
    r_decomposable,
    r_distinct,
    r_isomorphic,
    restriction_function,
    rt_isomorphic,
    t_isomorphic,
    t_orbit,
    verify_twisted_witness,
)
from .errors import (
    AlgebraMismatch,
    BudgetExceeded,
    DimensionMismatch,
    InvalidModulus,
    ModEquivError,
    ModulusMismatch,
    NotInvertible,
    NotSquare,
    ParameterOutOfDomain,
    RelationViolated,
    SchemaError,
    TableInconsistent,
    UndecidedError,
    UnknownFixture,
    UnsupportedAlgebraKind,
)
from .families import (
    FIXTURE_NAMES,
    INFINITY,
    b_blowup,
    band_module,
    c2,
    c3,
    fixture,
    jordan,
    jordan_block,
    k_module,
)
from .linalg import Mat, rand_invertible, rand_mat
from .modrep import (
    HomBasis,
    IndecResult,
    IsoResult,
    Module,
    Verdict,
    conjugate,
    decompose,
    direct_sum,
    hom_space,
    is_indecomposable,
    is_isomorphic,
    module_validate,
    restrict,
    socle_dim,
    trivial_module,
    twist,
)

__version__ = "0.1.0"
