"""freespec: verification toolkit for free spectrahedra and matrix convex sets.

Membership in free spectrahedra with boundary detection, extreme-point
certification (Euclidean / Arveson / free) via homogeneous linear systems,
greedy Arveson dilation, full-span polar duality through Choi block
matrices, the matrix-ball family over the Euclidean ball, coordinate
projections with exact special cases, and level-1 hulls.

``import freespec`` loads no submodule: an exported name or a submodule is
imported on first access (PEP 562), so a process pays only for what it uses.
"""

import importlib

__version__ = "0.1.0"

# Each exported name, under its home module.
_EXPORTS = {
    "ballsets": "containment_chain_experiment matrix_ball_arveson matrix_ball_membership "
                "qd_membership selfdual_ball_membership wmax_ball_membership wmin_ball_element",
    "drops": "level1_hull_membership project_membership_special witness_search",
    "duality": "FullSpanBasis choi_matrix choi_membership dual_pencil polar_membership",
    "errors": "ConstructionError DimensionError FreespecError NumericalError ParameterError "
              "PreconditionError TupleFormatError UnsupportedCaseError",
    "extremality": "DilationResult ExtremeCertificate Verdict Witness arveson_dilate classify "
                   "column_dilation_system hermitian_direction_system",
    "fixtures": "segment_generator",
    "linalg": "DEFAULT_TOL HermitianTuple ToleranceProfile hermitian_eigen",
    "pencil": "MembershipVerdict Pencil level1_bounded_heuristic linear_part membership "
              "pencil_value",
    "spin": "anticommutation_residual pauli_conj_tuple pauli_tuple spin_tuple",
    "tupleio": "read_tuple write_tuple",
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names.split()}
_SUBMODULES = {*_EXPORTS, "acceptance", "cli", "sphere"}
__all__ = sorted(_HOME)


def __getattr__(name):
    """An exported name or a submodule, imported on first access and then
    kept in the package namespace."""
    if name in _HOME:
        value = getattr(importlib.import_module(f"{__name__}.{_HOME[name]}"), name)
    elif name in _SUBMODULES:
        value = importlib.import_module(f"{__name__}.{name}")
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
