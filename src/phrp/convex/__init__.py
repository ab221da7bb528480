"""Log-domain slack-minimization programs, their solver and the convex-concave procedure.

Also the LP solver the deciders use, ``linprog``, which imports scipy on first use.
"""

from .ccp import ccp, linearised_program
from .program import LogConvexProgram, ProgramStructureError
from .solver import SolveResult, solve


def linprog(*args, **kwargs):
    """``scipy.optimize.linprog``, imported on first use: importing
    ``scipy.optimize`` adds about 0.4 s and 50 MB to ``import phrp``."""
    from scipy.optimize import linprog as scipy_linprog

    return scipy_linprog(*args, **kwargs)


__all__ = [
    "LogConvexProgram",
    "ProgramStructureError",
    "SolveResult",
    "ccp",
    "linearised_program",
    "linprog",
    "solve",
]
