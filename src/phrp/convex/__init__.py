"""Log-domain slack-minimization programs, their solver and the convex-concave procedure."""

from .ccp import ccp, linearised_program
from .program import (
    Affine,
    ConstraintRecord,
    DomainViolationError,
    ExpTerm,
    LogConvexProgram,
    LogResidual,
    ProgramStructureError,
    affine,
    eval_constraint,
    gradient,
)
from .solver import SolveResult, solve

__all__ = [
    "Affine",
    "ConstraintRecord",
    "DomainViolationError",
    "ExpTerm",
    "LogConvexProgram",
    "LogResidual",
    "ProgramStructureError",
    "SolveResult",
    "affine",
    "ccp",
    "eval_constraint",
    "gradient",
    "linearised_program",
    "solve",
]
