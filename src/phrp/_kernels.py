"""The numpy kernels: relaxation rounds and segment reductions.

``bf_rounds`` uses Jacobi (whole-round) relaxation with first-index tie
breaking, which makes distances and parents independent of summation order.
"""

from __future__ import annotations

import numpy as np

# rows of ``weights`` relaxed at once: a (BLOCK_ROWS, T) scratch array stays
# small while each block still amortises numpy's per-call overhead
BLOCK_ROWS = 128


def bf_rounds(weights, dist, parent, max_rounds):
    """Run Jacobi relaxation rounds on a dense difference-constraint graph.

    Edge tau -> t has weight ``weights[tau, t]``; the diagonal may be 0 or
    +inf, since neither can win a strict improvement.  Each round relaxes
    every node against the previous round's distances, so the result is
    scan-order independent.  Ties keep the lowest tau.

    A round visits ``BLOCK_ROWS`` rows of ``weights`` at a time and merges
    each block's column minima into a running best with a strict ``<``, so
    the lowest tau also wins ties across blocks.  The round only adds and
    compares, so it gives the same bits as relaxing the whole matrix at once.

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
    weights = np.asarray(weights, dtype=np.float64)
    dist = np.array(dist, dtype=np.float64, copy=True)
    parent = np.array(parent, dtype=np.int64, copy=True)
    T = dist.size
    columns = np.arange(T)
    through = np.empty((min(BLOCK_ROWS, T), T))
    best = np.empty(T)
    arg = np.empty(T, dtype=np.int64)
    rounds_run = 0
    converged = max_rounds == 0
    for _ in range(max_rounds):
        best.fill(np.inf)
        for lo in range(0, T, BLOCK_ROWS):
            rows = weights[lo : lo + BLOCK_ROWS]
            block = through[: rows.shape[0]]
            np.add(dist[lo : lo + BLOCK_ROWS, None], rows, out=block)
            block_arg = block.argmin(axis=0)
            block_min = block[block_arg, columns]
            better = block_min < best
            np.copyto(best, block_min, where=better)
            np.copyto(arg, block_arg + lo, where=better)
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
