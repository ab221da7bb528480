"""The numpy kernels: relaxation rounds and segment reductions.

``bf_rounds`` uses Jacobi (whole-round) relaxation with first-index tie
breaking, which makes distances and parents independent of summation order,
and relaxes only the edges out of the nodes whose labels last dropped.
"""

from __future__ import annotations

import numpy as np

# target rows relaxed at once: a (BLOCK_ROWS, T) scratch array stays small
# while each block still amortises numpy's per-call overhead
BLOCK_ROWS = 128
_ROWS = np.arange(BLOCK_ROWS)


def bf_rounds(weights, dist, parent, max_rounds, frontier=None):
    """Run Jacobi relaxation rounds on a dense difference-constraint graph.

    Edge tau -> t has weight ``weights[tau, t]``; the diagonal may be 0 or
    +inf, since neither can win a strict improvement.  Each round relaxes
    every node against the previous round's distances, so the result is
    scan-order independent.  Ties keep the lowest tau.

    A round relaxes only the edges out of its frontier: the nodes whose
    labels dropped in the round before.  If tau's label did not change, the
    last round already left ``dist[tau] + weights[tau, t] >= dist[t]``, so
    no edge out of tau can win a strict improvement, and the lowest tau that
    attains a winning minimum is a frontier node.  Labels, parents and ties
    are therefore those of relaxing every edge.  The first round's frontier
    is ``frontier``, or every node when it is None; each later round's is
    the set its predecessor improved.  An empty frontier relaxes nothing,
    so its round reports convergence.

    The rounds read the incoming-edge layout ``into = weights.T``, whose row
    t holds the weights of the edges entering t.  That view is used as it is
    when it is C-contiguous, which it is for the F-ordered ``weights`` of
    :func:`phrp.harp.build_cross_graph`; any other layout is copied into it
    once per call.  A round visits ``BLOCK_ROWS`` target rows at a time and
    takes each row's minimum over tau with ``argmin(axis=1)``, which keeps
    the first (lowest) tau on ties.  A graph of at most ``BLOCK_ROWS`` nodes,
    or a round whose frontier holds more than half the nodes, reads whole
    rows; a smaller frontier gathers only its own columns, in increasing
    order, into the same scratch block.  The round only adds and compares,
    so it gives the same bits as relaxing the whole matrix at once.

    Args:
        weights: (T, T) float64 with 0 or +inf on the diagonal, and no NaN
            or -inf anywhere.
        dist: (T,) float64 starting potentials (virtual source = 0).
        parent: (T,) int64 predecessor array (-1 where never improved).
        max_rounds: maximum number of full rounds to run.
        frontier: None, or a (T,) bool mask of the nodes whose labels
            dropped in the last round; ``dist`` must then satisfy every
            edge out of the other nodes.  The mask is overwritten with the
            nodes that the last round run improved, so it can be passed
            straight to the next call.

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
    improved = np.ones(T, dtype=bool) if frontier is None else frontier
    changed = np.count_nonzero(improved)
    # one scratch buffer per call, viewed as a (rows, T) or (rows, |frontier|) block
    scratch = np.empty(min(BLOCK_ROWS, T) * T)
    best = np.empty(T)
    arg = np.empty(T, dtype=np.int64)
    rounds_run = 0
    converged = max_rounds == 0
    for _ in range(max_rounds):
        rounds_run += 1
        if not changed:
            converged = True
            break
        if T <= BLOCK_ROWS or 2 * changed > T:
            sources, offsets = None, dist
        else:
            sources = np.flatnonzero(improved)
            offsets = dist[sources]
        width = offsets.size
        for lo in range(0, T, BLOCK_ROWS):
            targets = into[lo : lo + BLOCK_ROWS]
            block = scratch[: targets.shape[0] * width].reshape(-1, width)
            if sources is None:
                np.add(targets, offsets, out=block)
            else:
                # sources are in range; "wrap" writes into block unbuffered, unlike "raise"
                np.take(targets, sources, axis=1, out=block, mode="wrap")
                block += offsets
            block_arg = arg[lo : lo + BLOCK_ROWS]
            block.argmin(axis=1, out=block_arg)
            best[lo : lo + BLOCK_ROWS] = block[_ROWS[: block.shape[0]], block_arg]
        if sources is not None:
            arg[:] = sources[arg]  # block positions back to node indices
        np.less(best, dist, out=improved)
        changed = np.count_nonzero(improved)
        if not changed:
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
