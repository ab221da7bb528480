"""The numpy kernels: relaxation rounds and segment reductions.

``bf_rounds`` uses Jacobi (whole-round) relaxation with first-index tie
breaking, which makes distances and parents independent of summation order.
"""

from __future__ import annotations

import numpy as np

# target rows relaxed at once: a (BLOCK_ROWS, T) scratch array stays small
# while each block still amortises numpy's per-call overhead
BLOCK_ROWS = 128


def bf_rounds(weights, dist, parent, max_rounds):
    """Run Jacobi relaxation rounds on a dense difference-constraint graph.

    Edge tau -> t has weight ``weights[tau, t]``; the diagonal may be 0 or
    +inf, since neither can win a strict improvement.  Each round relaxes
    every node against the previous round's distances, so the result is
    scan-order independent.  Ties keep the lowest tau.

    The rounds read the incoming-edge layout ``into = weights.T``, whose row
    t holds the weights of the edges entering t.  That view is used as it is
    when it is C-contiguous, which it is for the F-ordered ``weights`` of
    :func:`phrp.harp.build_cross_graph`; any other layout is copied into it
    once per call.  A round visits ``BLOCK_ROWS`` target rows at a time and
    takes each row's minimum over tau with ``argmin(axis=1)``, which keeps
    the first (lowest) tau on ties.  Blocks cover disjoint targets, so no
    merge across blocks is needed.  The round only adds and compares, so it
    gives the same bits as relaxing the whole matrix at once.

    Args:
        weights: (T, T) float64 with 0 or +inf on the diagonal, and no NaN
            or -inf anywhere.
        dist: (T,) float64 starting potentials (virtual source = 0).
        parent: (T,) int64 predecessor array (-1 where never improved).
        max_rounds: maximum number of full rounds to run.

    Returns:
        (dist, parent, rounds_run, converged): new arrays; ``converged`` is
        True when the last executed round produced no improvement.
    """
    into = np.asarray(weights, dtype=np.float64).T
    if not into.flags.c_contiguous:
        into = np.ascontiguousarray(into)
    dist = np.array(dist, dtype=np.float64, copy=True)
    parent = np.array(parent, dtype=np.int64, copy=True)
    T = dist.size
    through = np.empty((min(BLOCK_ROWS, T), T))
    rows = np.arange(through.shape[0])
    best = np.empty(T)
    arg = np.empty(T, dtype=np.int64)
    rounds_run = 0
    converged = max_rounds == 0
    for _ in range(max_rounds):
        for lo in range(0, T, BLOCK_ROWS):
            targets = into[lo : lo + BLOCK_ROWS]
            block = through[: targets.shape[0]]
            np.add(targets, dist[None, :], out=block)
            block_arg = arg[lo : lo + BLOCK_ROWS]
            block.argmin(axis=1, out=block_arg)
            best[lo : lo + BLOCK_ROWS] = block[rows[: block.shape[0]], block_arg]
        improved = best < dist
        rounds_run += 1
        if not improved.any():
            converged = True
            break
        np.copyto(dist, best, where=improved)
        np.copyto(parent, arg, where=improved)
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
