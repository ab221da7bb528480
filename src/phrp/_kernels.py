"""The numpy kernels: relaxation rounds and segment reductions.

``bf_rounds`` uses Jacobi (whole-round) relaxation with first-index tie
breaking, and relaxes only the edges out of the nodes whose labels last
dropped.  It runs on a dense weight matrix, or on a factored
cross-expenditure graph whose T x T weights it never builds: there each
round ranks a block of targets' candidates with one matrix product and
takes the winners' labels in logs.  A round there that relaxes every node
can also check the labels it starts from as a PH certificate, from the same
products; :func:`folds_normally` and :func:`certifies` hold that check's
rules, which :func:`phrp.harp.verify_certificate` applies too.
"""

from __future__ import annotations

import numpy as np

# target rows relaxed at once: a (BLOCK_ROWS, T) scratch array stays small
# while each block still amortises numpy's per-call overhead
BLOCK_ROWS = 128
_ROWS = np.arange(BLOCK_ROWS)
_TINY = np.finfo(np.float64).tiny
# a self-loop weighs 0, so it never improves a label: it loses to every real
# edge, and wins only in a row with no other candidate
_SELF = np.finfo(np.float64).max


class FloatRangeError(ArithmeticError):
    """A factored round's products left the positive floats, so its ranking
    of candidates cannot be trusted."""


def folds_normally(folded):
    """True if every folded price ``lam_tau p^tau`` is a normal float: a
    subnormal one has lost digits that q^t can magnify."""
    return _TINY <= folded.min()


def certifies(own, cheapest, tol):
    """True if every own product ``lam_t p^t . q^t`` is finite and at most
    ``1 + tol`` times its row's cheapest product ``lam_tau p^tau . q^t``:
    the PH certificate inequalities of a block of rows t."""
    return own.max() < np.inf and bool((own <= cheapest * (1.0 + tol)).all())


def bf_rounds(weights, dist, parent, max_rounds, frontier=None, tol=None):
    """Run Jacobi relaxation rounds on a difference-constraint graph.

    ``weights`` is either a dense (T, T) matrix, where edge tau -> t weighs
    ``weights[tau, t]``, or a factored graph such as
    :class:`phrp.harp.CrossGraph`: any object with ``prices`` and
    ``quantities`` (T, n) and ``log_own`` (T,), where edge tau -> t weighs
    ``log(p^tau . q^t) - log_own[t]``.  Each round relaxes every node
    against the previous round's distances, so the result is scan-order
    independent.  Ties keep the lowest tau.

    A round relaxes only the edges out of its frontier: the nodes whose
    labels dropped in the round before.  If tau's label did not change, the
    last round already left ``dist[tau] + w[tau, t] >= dist[t]``, so no edge
    out of tau can win a strict improvement, and the lowest tau that attains
    a winning minimum is a frontier node.  The first round's frontier is
    ``frontier``, or every node when it is None; each later round's is the
    set its predecessor improved.  An empty frontier relaxes nothing, so its
    round reports convergence.

    *Dense weights.*  The diagonal may be 0 or +inf, since neither can win a
    strict improvement.  The rounds read the incoming-edge layout ``into =
    weights.T``, whose row t holds the weights of the edges entering t; it
    is used in place when C-contiguous (F-ordered ``weights``) and copied
    once per call otherwise.  A round visits ``BLOCK_ROWS`` target rows at a
    time and takes each row's minimum over tau with ``argmin(axis=1)``.  A
    graph of at most ``BLOCK_ROWS`` nodes, or a round whose frontier holds
    more than half the nodes, reads whole rows; a smaller frontier gathers
    only its own columns, in increasing order, into the same scratch block.
    The round only adds and compares, so it gives the same bits as relaxing
    the whole matrix at once.

    *Factored graph.*  A round gathers its frontier's rows ``S =
    exp(dist[F] - c) P[F]``, with c the frontier's smallest label, and ranks
    target t's candidates by the products ``(Q S^T)[t]``, one matrix product
    per block of ``BLOCK_ROWS`` targets; the virtual-source round (every
    label 0, every node in the frontier) multiplies P itself.  Self-loops
    are masked.  The product only picks the parent a: its label is
    ``dist[a] + (log(p^a . q^t) - log_own[t])``, with the dot product taken
    by ``np.einsum("ti,ti->t", ...)``, so the labels stay in logs.  With the
    ``log_own`` of :class:`phrp.harp.CrossGraph`, which uses that formula
    too, a cycle through duplicated periods weighs exactly 0.  Near-ties
    may pick another parent than exact log arithmetic would, so labels
    agree with the dense rounds to rounding, not bit for bit.

    The virtual-source round's products are the raw cross expenditures:
    each must be below +inf, each row's smallest off-diagonal one positive,
    and every ``log_own`` finite.  In every other round each winning product
    must be at least the smallest normal float, since one that underflowed
    would win with 0.  Every factor is at least 1, so this fails only where
    a subnormal cross expenditure wins; a factor past float64 is +inf and
    loses.  A failed check raises :class:`FloatRangeError`.

    *Certificate check.*  Given ``tol``, a round on a factored graph with
    every node in its frontier also checks the labels it starts from:
    before a block's diagonal is masked, it reads each row's own product
    ``exp(dist[t] - c) p^t . q^t``, and after the argmin it requires that
    product to be finite and no larger than ``1 + tol`` times the row's
    winning product (:func:`certifies`).  Those are the products ``lam_tau
    p^tau . q^t`` of :func:`phrp.harp.verify_certificate` with ``lam =
    softmax(dist)``, up to the common factor of the softmax; since every own
    product is finite, so is every factor, and the labels span less than
    float64's exponent range.  No factor may be subnormal
    (:func:`folds_normally`), and the check stops at the first block that
    fails; the round itself is unchanged.  A winning product below the
    normal floats still raises, as above.  Dense rounds check nothing.

    Args:
        weights: a (T, T) float64 array with 0 or +inf on the diagonal and
            no NaN or -inf anywhere, or a factored graph (see above).
        dist: (T,) float64 starting potentials (virtual source = 0).
        parent: (T,) int64 predecessor array (-1 where never improved).
        max_rounds: maximum number of full rounds to run.
        frontier: None, or a (T,) bool mask of the nodes whose labels
            dropped in the last round; ``dist`` must then satisfy every
            edge out of the other nodes.  The mask is overwritten with the
            nodes that the last round run improved, so it can be passed
            straight to the next call.
        tol: None, or the relative tolerance of each edge in the
            certificate check (see above).

    Returns:
        (dist, parent, rounds_run, converged, certified): new arrays;
        ``converged`` is True when the last executed round produced no
        improvement, and ``certified`` when the last round run passed the
        certificate check on the labels it started from, which are the
        ``dist`` passed in when ``max_rounds`` is 1.

    Raises:
        FloatRangeError: a factored round's products left the floats.
    """
    dist = np.array(dist, dtype=np.float64, copy=True)
    parent = np.array(parent, dtype=np.int64, copy=True)
    T = dist.size
    if isinstance(weights, np.ndarray):
        relax, graph = _relax_dense, np.asarray(weights, dtype=np.float64).T
        if not graph.flags.c_contiguous:
            graph = np.ascontiguousarray(graph)
    else:
        relax, graph = _relax_factored, weights
    # one scratch buffer per call, viewed as a (rows, T) or (rows, |frontier|) block
    scratch = np.empty(min(BLOCK_ROWS, T) * T)
    improved = np.ones(T, dtype=bool) if frontier is None else frontier
    changed = np.count_nonzero(improved)
    best = np.empty(T)
    arg = np.empty(T, dtype=np.int64)
    rounds_run = 0
    converged = max_rounds == 0
    certified = False
    for _ in range(max_rounds):
        rounds_run += 1
        if not changed:
            converged = True
            break
        certified = relax(graph, scratch, dist, improved, changed, best, arg, tol)
        np.less(best, dist, out=improved)
        changed = np.count_nonzero(improved)
        if not changed:
            converged = True
            break
        np.copyto(dist, best, where=improved)
        np.copyto(parent, arg, where=improved)
    return dist, parent, rounds_run, converged, certified


def _relax_dense(into, scratch, dist, improved, changed, best, arg, tol):
    """One round over the incoming-edge rows ``into``: each node's best label
    and parent.  It checks no certificate, so it returns False."""
    T = dist.size
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
    return False


def _relax_factored(graph, scratch, dist, improved, changed, best, arg, tol):
    """One round on a factored graph: each node's best label and parent, and
    whether the certificate check at ``tol`` (None: no check) passed."""
    P, Q, log_own = graph.prices, graph.quantities, graph.log_own
    T = dist.size
    full = changed == T
    raw = full and not dist.any()
    # factors past float64 are +inf and lose; a NaN fails every check
    with np.errstate(all="ignore"):
        if full:
            sources = None
            # at zero labels every factor is exp(0) = 1: the raw cross expenditures
            S = P if raw else np.exp(dist - dist.min())[:, None] * P
        else:
            sources = np.flatnonzero(improved)
            offsets = dist[sources]
            S = np.exp(offsets - offsets.min())[:, None] * P[sources]
        check = tol is not None and full and folds_normally(S)
        width = S.shape[0]
        for lo in range(0, T, BLOCK_ROWS):
            rows = min(BLOCK_ROWS, T - lo)
            block = scratch[: rows * width].reshape(rows, width)
            np.matmul(Q[lo : lo + rows], S.T, out=block)
            if raw and not block.max() < np.inf:
                raise FloatRangeError("cross expenditures overflow or underflow")
            if sources is None:
                diagonal = block.reshape(-1)[lo :: T + 1]
                if check:
                    own = diagonal.copy()  # exp(dist[t] - c) p^t . q^t
                diagonal[:] = _SELF
            else:
                first, last = np.searchsorted(sources, (lo, lo + rows))
                block[sources[first:last] - lo, np.arange(first, last)] = _SELF
            block_arg = arg[lo : lo + rows]
            block.argmin(axis=1, out=block_arg)
            winners = best[lo : lo + rows]
            winners[:] = block[_ROWS[:rows], block_arg]  # the winning products
            if check:  # a masked diagonal wins only where every other product is +inf
                check = certifies(own, winners, tol)
        # each winner is its row's smallest off-diagonal product, and log_own
        # covers the masked diagonal
        if raw:
            if not (best.min() > 0.0 and np.isfinite(log_own).all()):
                raise FloatRangeError("cross expenditures overflow or underflow")
        elif not best.min() >= _TINY:
            raise FloatRangeError("scaled cross expenditures underflow")
        if sources is not None:
            arg[:] = sources[arg]  # block positions back to node indices
        np.einsum("ti,ti->t", P.take(arg, axis=0), Q, out=best)
        np.log(best, out=best)
    best -= log_own
    best += dist.take(arg)
    return bool(check)


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
