"""Dilogarithm potentials for hyperbolic Dehn fillings.

The package evaluates a holomorphic potential function built from
dilogarithm and log-product terms, finds its critical points (the
complete hyperbolic structure and its Dehn-filling deformations by
Newton continuation), and extracts geometric invariants: volume,
Chern-Simons modulo 1/2, and the core geodesic length and torsion.
A five-crossing knot complement is built in; other potentials load
from a JSON spec file.
"""

from .dilog import (
    ContinuedLog,
    bloch_wigner_d,
    li2,
    principal_log,
    rogers_r,
)
from .errors import (
    DomainError,
    KnotpotError,
    NoConvergenceError,
    NoGeometricRootError,
    PathObstructionError,
    SingularJacobianError,
    SingularPointError,
    SpecFormatError,
    StepTooLargeError,
    ValidationError,
    ZeroDenominatorError,
)
from .invariants import (
    InvariantReport,
    eval_v_alpha,
    im_v_alpha_parts,
    report_for,
    rogers_combo,
    volume_from_shapes,
)
from .potential import (
    BUILTINS,
    DilogTerm,
    LongitudeExpr,
    LongitudeSpec,
    Monomial,
    ParamPoint,
    PotentialSpec,
    QuadLogTerm,
    Shapes,
    builtin_five_two,
    dump_spec,
    eta_log,
    eval_eta,
    eval_v,
    load_spec,
    log_gradient,
    log_hessian,
    make_point,
    reduced_residual,
    shapes_from_point,
    signed_d_sum,
)
from .solver import (
    CriticalPoint,
    DeformationSample,
    FillingSolution,
    Slope,
    normalize_slope,
    solve_complete,
    solve_filling,
    trace_deformation,
)

__version__ = "0.1.0"

__all__ = [
    "BUILTINS",
    "ContinuedLog",
    "CriticalPoint",
    "DeformationSample",
    "DilogTerm",
    "DomainError",
    "FillingSolution",
    "InvariantReport",
    "KnotpotError",
    "LongitudeExpr",
    "LongitudeSpec",
    "Monomial",
    "NoConvergenceError",
    "NoGeometricRootError",
    "ParamPoint",
    "PathObstructionError",
    "PotentialSpec",
    "QuadLogTerm",
    "Shapes",
    "SingularJacobianError",
    "SingularPointError",
    "Slope",
    "SpecFormatError",
    "StepTooLargeError",
    "ValidationError",
    "ZeroDenominatorError",
    "bloch_wigner_d",
    "builtin_five_two",
    "dump_spec",
    "eta_log",
    "eval_eta",
    "eval_v",
    "eval_v_alpha",
    "im_v_alpha_parts",
    "li2",
    "load_spec",
    "log_gradient",
    "log_hessian",
    "make_point",
    "normalize_slope",
    "principal_log",
    "reduced_residual",
    "report_for",
    "rogers_combo",
    "rogers_r",
    "shapes_from_point",
    "signed_d_sum",
    "solve_complete",
    "solve_filling",
    "trace_deformation",
    "volume_from_shapes",
    "__version__",
]
