"""grasym: exact computations with group-graded algebras and their symmetry.

Constructs finite-dimensional graded algebras over exact fields (rationals,
prime fields, finite extensions), computes structural invariants, and decides
graded symmetry / Frobeniusness with verifiable certificates.
"""

from .algebras import (
    CrossedProductSpec,
    Element,
    GradedAlgebra,
    crossed_product,
    cyclic_algebra,
    cyclic_algebra_spec,
    direct_product,
    field_as_algebra,
    frobenius_matrix,
    good_matrix_algebra,
    group_algebra,
    homogeneous_component,
    matrix_algebra,
    normalize_section,
    quaternion_algebra,
    scalar_extension,
    subspace_algebra,
    sweedler_algebra,
    tensor_product,
    trivial_extension,
    ungrade,
    validate_algebra,
)
from .fields import (
    Field,
    Scalar,
    canonical_extension_field,
    embed_scalar,
    extend_field,
    frobenius,
    make_field,
    rationals,
)
from .groups import (
    GroupTable,
    cyclic_group,
    cyclic_product_group,
    dihedral_group,
    group_from_table,
    klein_group,
    symmetric_group_3,
    trivial_group,
)
from .invariants import (
    DivisionVerdict,
    center,
    centralizer,
    commutator_subspace,
    component_has_invertible,
    graded_commutator_space,
    is_graded_division,
    support,
)
from .linalg import Matrix, Subspace
from .multipoly import GramPencil, MultiPoly, nonvanishing_point, pencil_det, structured_det
from .replicate import (
    HuntParams,
    HuntReport,
    default_hunt_params,
    hunt_counterexample,
    replicate_center_symmetry,
    replicate_commutator_dim,
    replicate_scalar_extension,
    run_replication_suite,
)
from .symmetry import (
    LinearFunctional,
    SymmetryVerdict,
    average_functional,
    decide_by_enumeration,
    decide_form_existence,
    graded_division_criterion,
    graded_trace_space,
    graded_trace_witness,
    gram_matrix,
    gram_pencil,
    lift_functional,
    matrix_trace_functional,
    verify_certificate,
)

__version__ = "0.1.0"
