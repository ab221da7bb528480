"""Log-domain slack-minimization programs, their solver and the convex-concave procedure."""

from .ccp import ccp, linearised_program
from .program import LogConvexProgram, ProgramStructureError
from .solver import SolveResult, solve

__all__ = [
    "LogConvexProgram",
    "ProgramStructureError",
    "SolveResult",
    "ccp",
    "linearised_program",
    "solve",
]
