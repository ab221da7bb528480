"""Independent checks of phrp's verdicts, certificates and witnesses.

Everything here is recomputed from the raw prices and quantities with numpy,
in logs, so a check neither calls ``phrp.verify_*`` nor overflows or
underflows on data rescaled by 1e±200.  The tolerances are relative and have
the meaning phrp documents: ``a <= b * (1 + tol)``.
"""

from __future__ import annotations

import itertools

import numpy as np

_BLOCK = 256  # columns per block, so that a check at T=3000 holds no T x T array


def log_cross(prices, quantities) -> np.ndarray:
    """``L[a, b] = log(p^a . q^b)`` for every row a of prices and b of quantities.

    Each row is divided by its largest entry before the dot product and the
    logs of the scale factors are added back, so the result is finite for any
    strictly positive finite data whose rows span less than ~1e300.
    """
    p = np.asarray(prices, dtype=np.float64)
    q = np.asarray(quantities, dtype=np.float64)
    sp = p.max(axis=1)
    sq = q.max(axis=1)
    dots = (p / sp[:, None]) @ (q / sq[:, None]).T
    if not (np.all(dots > 0.0) and np.all(np.isfinite(dots))):
        raise ValueError("rows span too wide a range for a log-domain dot product")
    return np.log(dots) + np.log(sp)[:, None] + np.log(sq)[None, :]


def _positive_vector(values, size: int) -> np.ndarray | None:
    v = np.asarray(values, dtype=np.float64)
    if v.shape != (size,) or not np.all(np.isfinite(v)) or np.any(v <= 0.0):
        return None
    return v


def afriat_ok(prices, quantities, lambdas, tol: float = 1e-9) -> bool:
    """Every inequality ``lam_t p^t.q^t <= lam_tau p^tau.q^t (1 + tol)`` holds."""
    p = np.asarray(prices, dtype=np.float64)
    q = np.asarray(quantities, dtype=np.float64)
    T = p.shape[0]
    lam = _positive_vector(lambdas, T)
    if lam is None or q.shape != p.shape:
        return False
    log_lam = np.log(lam)
    slack = np.log1p(tol)
    for start in range(0, T, _BLOCK):
        stop = min(start + _BLOCK, T)
        L = log_cross(p, q[start:stop])  # L[tau, t - start]
        own = log_lam[start:stop] + L[np.arange(start, stop), np.arange(stop - start)]
        cheapest = (log_lam[:, None] + L).min(axis=0)
        if np.any(own > cheapest + slack):
            return False
    return True


def cycle_log_ratio(prices, quantities, periods) -> float | None:
    """Log of the cycle's ratio product, or None when ``periods`` is no closed cycle.

    ``periods`` is ``(t_1, ..., t_m, t_1)`` with distinct t_i; the ratio is the
    product of ``(p^{t_i} . q^{t_{i+1}}) / (p^{t_{i+1}} . q^{t_{i+1}})``.
    """
    seq = [int(t) for t in periods]
    T = np.asarray(prices).shape[0]
    if len(seq) < 3 or seq[0] != seq[-1]:
        return None
    nodes = seq[:-1]
    if len(set(nodes)) != len(nodes) or not all(0 <= t < T for t in nodes):
        return None
    L = log_cross(np.asarray(prices)[nodes], np.asarray(quantities)[nodes])
    m = len(nodes)
    nxt = [(j + 1) % m for j in range(m)]
    return float(sum(L[j, k] - L[k, k] for j, k in zip(range(m), nxt)))


def cycle_ok(prices, quantities, periods, tol: float = 1e-9) -> bool:
    """``periods`` is a closed cycle of distinct periods with ratio below ``1 - tol``."""
    log_ratio = cycle_log_ratio(prices, quantities, periods)
    return log_ratio is not None and log_ratio < np.log1p(-tol)


def min_two_cycle_log_ratio(prices, quantities) -> float:
    """Smallest log ratio over all two-period cycles, an O(T^2 n) infeasibility proof."""
    L = log_cross(prices, quantities)
    d = np.diag(L)
    W = L - d[None, :]  # W[a, b]: log weight of the edge a -> b
    both = W + W.T
    np.fill_diagonal(both, np.inf)
    return float(both.min())


def min_cycle_log_ratio(prices, quantities) -> tuple[float, tuple[int, ...]]:
    """Smallest log ratio over every simple cycle, by enumeration (small T only)."""
    L = log_cross(prices, quantities)
    W = L - np.diag(L)[None, :]
    T = W.shape[0]
    best, best_cycle = np.inf, ()
    for size in range(2, T + 1):
        for subset in itertools.combinations(range(T), size):
            for rest in itertools.permutations(subset[1:]):
                cyc = (subset[0],) + rest
                w = sum(W[cyc[j], cyc[(j + 1) % size]] for j in range(size))
                if w < best:
                    best, best_cycle = float(w), cyc + (cyc[0],)
    return best, best_cycle


def separability_ok(prices, quantities, q_block, y_block, lambdas, mus, tol=1e-8) -> bool:
    """Inequalities (a) and (b) of complete PH-separability at (lam, mu).

    (a)  lam_t x^t.y^t <= lam_tau x^tau.y^t
    (b)  mu_t lam_tau E^t <= mu_tau (lam_tau p^tau.q^t + lam_t x^t.y^t)

    with x, y the y-block prices and quantities, p, q the q-block ones and
    E^t = p^t.q^t + x^t.y^t.
    """
    p = np.asarray(prices, dtype=np.float64)
    q = np.asarray(quantities, dtype=np.float64)
    T = p.shape[0]
    lam = _positive_vector(lambdas, T)
    mu = _positive_vector(mus, T)
    if lam is None or mu is None:
        return False
    qb, yb = list(q_block), list(y_block)
    if not afriat_ok(p[:, yb], q[:, yb], lam, tol):
        return False
    Lxy = log_cross(p[:, yb], q[:, yb])
    Lpq = log_cross(p[:, qb], q[:, qb])
    own_y = np.log(lam) + np.diag(Lxy)  # log lam_t x^t.y^t
    log_e = np.logaddexp(np.diag(Lpq), np.diag(Lxy))
    log_lam, log_mu = np.log(lam), np.log(mu)
    lhs = log_mu[None, :] + log_lam[:, None] + log_e[None, :]  # [tau, t]
    rhs = log_mu[:, None] + np.logaddexp(log_lam[:, None] + Lpq, own_y[None, :])
    return bool(np.all(lhs <= rhs + np.log1p(tol)))


def allocation_ok(
    prices,
    totals,
    sub_quantities,
    sub_lambdas,
    residuals,
    consumers: int,
    tol_accept: float = 1e-6,
    tol: float = 1e-9,
) -> bool:
    """A split among exactly ``consumers`` consumers balances and each is PH-rationalizable.

    The split plus the residuals must match the observed totals within
    ``tol`` (relative), every residual must lie in ``[0, tol_accept * Q]``, and
    each consumer's Afriat inequalities must hold at its own multipliers.
    """
    Q = np.asarray(totals, dtype=np.float64)
    sub = np.asarray(sub_quantities, dtype=np.float64)
    lams = np.asarray(sub_lambdas, dtype=np.float64)
    res = np.asarray(residuals, dtype=np.float64)
    if sub.ndim != 3 or sub.shape[0] != consumers:
        return False
    if sub.shape[1:] != Q.shape or res.shape != Q.shape:
        return False
    if lams.shape != sub.shape[:2] or np.any(sub <= 0.0):
        return False
    if np.any(res < 0.0) or np.any(res > tol_accept * Q):
        return False
    if np.max(np.abs(sub.sum(axis=0) + res - Q) / Q) > tol:
        return False
    return all(
        afriat_ok(prices, sub[a], lams[a] / lams[a].sum(), tol) for a in range(sub.shape[0])
    )
