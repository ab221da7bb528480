"""The convex-concave procedure (Lipp & Boyd, 2016) behind both witness searches.

Each round replaces the concave side of every constraint by its tangent at
the current point and minimizes one common slack ``u`` over the resulting
convex repair program; its solution is the next point.
"""

from __future__ import annotations

import math

import numpy as np

from .. import convex  # ``convex.solve`` is looked up per call, where tracers wrap it
from .program import LogConvexProgram


def linearised_program(name, start, violation, coef, const, terms=((), (), ())):
    """The repair program whose row j reads

        coef[j] @ (x, u) + const[j] + log(sum_k w_k exp(x[v_k])) <= 0,

    the log summing, in order, the exp-terms of row j, and absent when it has
    none.  ``terms`` holds three flat arrays (row, w, v), ordered by row.
    The log variables start at ``start`` clipped to [-29, 29], and ``u``
    just above ``violation``, the largest violation there.
    """
    u_start = max(violation, 0.0) * 1.05 + 1e-6
    prog = LogConvexProgram(name=name)
    for i, s in enumerate(np.clip(start, -29.0, 29.0).tolist()):
        prog.add_log_variable(f"x[{i}]", start=s)
    prog.add_slack_variable("u", cap=max(10.0 * u_start, 1.0), start=u_start)
    prog.add_constraint("row", coef, const, lse=terms)
    return prog


def ccp(starts, accept, linearise, *, rounds: int, max_iter: int, step_tol: float):
    """The first value ``accept`` returns, trying the starts in order; or None.

    Each round returns ``accept(state)`` unless it is None.  Else
    ``linearise(state)``, only ever called right after ``accept`` rejected
    that state, gives the repair program and ``unpack``; the program is
    solved at ``eps_feas=1e-9`` within ``max_iter`` Newton steps, and
    ``unpack(point)`` gives the next state and the step to it, whatever the
    repair solve's status.  A start ends after ``rounds`` rounds, a step
    below ``step_tol``, or 3 rounds in a row that did not lower the slack
    objective; ``accept`` is then tried once more on its last state.
    """
    for state in starts:
        prev_obj = math.inf
        stagnant = 0
        for _ in range(rounds):
            found = accept(state)
            if found is not None:
                return found
            program, unpack = linearise(state)
            res = convex.solve(program, eps_feas=1e-9, max_iter=max_iter)
            state, step = unpack(res.point)
            stalled = prev_obj - res.objective < 1e-10 * max(1.0, abs(prev_obj))
            stagnant = stagnant + 1 if stalled else 0
            prev_obj = res.objective
            if step < step_tol or stagnant >= 3:
                break
        found = accept(state)
        if found is not None:
            return found
    return None
