"""Numpy implementations of the hot kernels.

Semantics are pinned so the compiled backend can mirror them exactly:
``bf_rounds`` uses Jacobi (whole-round) relaxation with first-index tie
breaking, which makes distances and parents independent of summation order.
"""

from __future__ import annotations

import numpy as np

BACKEND_NAME = "pure"


def bf_rounds(weights, dist, parent, max_rounds):
    """Run Jacobi relaxation rounds on a dense difference-constraint graph.

    Edge tau -> t has weight ``weights[tau, t]``; the diagonal may be 0 or
    +inf, since neither can win a strict improvement.  Each round relaxes
    every node against the previous round's distances, so the result is
    scan-order independent.  Ties keep the lowest tau.

    Args:
        weights: (T, T) float64 with 0 or +inf on the diagonal.
        dist: (T,) float64 starting potentials (virtual source = 0).
        parent: (T,) int64 predecessor array (-1 where never improved).
        max_rounds: maximum number of full rounds to run.

    Returns:
        (dist, parent, rounds_run, converged): new arrays; ``converged`` is
        True when the last executed round produced no improvement.
    """
    dist = np.array(dist, dtype=np.float64, copy=True)
    parent = np.array(parent, dtype=np.int64, copy=True)
    rounds_run = 0
    converged = True if max_rounds == 0 else False
    for _ in range(max_rounds):
        through = dist[:, None] + weights
        cand = through.min(axis=0)
        arg = through.argmin(axis=0)
        improved = cand < dist
        rounds_run += 1
        if not improved.any():
            converged = True
            break
        dist = np.where(improved, cand, dist)
        parent = np.where(improved, arg, parent)
    return dist, parent, rounds_run, converged


def segment_logsumexp(z, rowptr):
    """Log-sum-exp over contiguous segments of ``z``.

    Every segment must be nonempty.  Uses max-shifting for stability.
    """
    z = np.asarray(z, dtype=np.float64)
    starts = rowptr[:-1]
    mx = np.maximum.reduceat(z, starts)
    shifted = np.exp(z - np.repeat(mx, np.diff(rowptr)))
    sums = np.add.reduceat(shifted, starts)
    return mx + np.log(sums)


def segment_sum(values, rows, nrows):
    """Sum ``values`` into ``nrows`` buckets indexed by ``rows``."""
    return np.bincount(rows, weights=values, minlength=nrows).astype(np.float64)
