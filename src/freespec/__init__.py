"""freespec: verification toolkit for free spectrahedra and matrix convex sets.

Membership in free spectrahedra with boundary detection, extreme-point
certification (Euclidean / Arveson / free) via homogeneous linear systems,
greedy Arveson dilation, full-span polar duality through Choi block
matrices, the matrix-ball family over the Euclidean ball, coordinate
projections with exact special cases, and level-1 hulls.
"""

from .ballsets import (containment_chain_experiment, matrix_ball_arveson, matrix_ball_membership,
                       qd_membership, selfdual_ball_membership, wmax_ball_membership,
                       wmin_ball_element)
from .drops import (DropDescriptor, level1_hull_membership, project_membership_special,
                    segment_generator, witness_search)
from .duality import FullSpanBasis, choi_matrix, choi_membership, dual_pencil, polar_refute
from .errors import (ConstructionError, DimensionError, FreespecError,
                     NumericalError, ParameterError, PreconditionError,
                     TupleFormatError, UnsupportedCaseError)
from .extremality import (DilationResult, ExtremeCertificate, Verdict, Witness,
                          arveson_dilate, classify, column_dilation_system,
                          hermitian_direction_system)
from .linalg import DEFAULT_TOL, HermitianTuple, KernelBasis, ToleranceProfile, hermitian_eigen
from .pencil import (MembershipVerdict, Pencil, level1_bounded_heuristic,
                     linear_part, membership, pencil_value)
from .spin import (anticommutation_residual, pauli_conj_tuple, pauli_tuple, spin_membership,
                   spin_tuple)
from .tupleio import read_tuple, write_tuple

__version__ = "0.1.0"

__all__ = [
    "ConstructionError", "DEFAULT_TOL", "DilationResult", "DimensionError", "DropDescriptor",
    "ExtremeCertificate", "FreespecError", "FullSpanBasis", "HermitianTuple", "KernelBasis",
    "MembershipVerdict", "NumericalError", "ParameterError", "Pencil", "PreconditionError",
    "ToleranceProfile", "TupleFormatError", "UnsupportedCaseError", "Verdict", "Witness",
    "anticommutation_residual", "arveson_dilate", "choi_matrix", "choi_membership", "classify",
    "column_dilation_system", "containment_chain_experiment", "dual_pencil",
    "hermitian_direction_system", "hermitian_eigen", "level1_bounded_heuristic",
    "level1_hull_membership", "linear_part", "matrix_ball_arveson", "matrix_ball_membership",
    "membership", "pauli_conj_tuple", "pauli_tuple",
    "pencil_value", "polar_refute", "project_membership_special", "qd_membership",
    "read_tuple", "segment_generator", "selfdual_ball_membership", "spin_membership",
    "spin_tuple", "wmax_ball_membership", "wmin_ball_element", "witness_search", "write_tuple",
]
