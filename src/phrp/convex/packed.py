"""Dense packed form of a program for fast repeated evaluation.

The solver evaluates every constraint, gradient and Hessian many times per
run; this module concatenates the program's row blocks into contiguous
arrays once, so that each evaluation is a handful of vectorized operations.
Every exponential term is ``w * exp(x[v])`` of a single variable, so a term's
gradient is one unit entry and its Hessian one diagonal entry.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.typing import NDArray

from .. import _kernels
from .program import LogConvexProgram


@dataclass
class EvalCache:
    """Intermediate quantities of one evaluation, reused by grad/hessian."""

    x: NDArray[np.float64]
    values: NDArray[np.float64]
    lse_u: NDArray[np.float64] | None = None  # softmax weight of each lse term
    res_exp: NDArray[np.float64] | None = None  # D_j exp(b_j) per res term
    res_s: NDArray[np.float64] | None = None  # residual per res row
    in_domain: bool = True


class _Terms:
    """Weighted exponentials ``w_k exp(x[var_k])``; term k sits in row ``row[k]``
    of its row list (``lse_rows`` or ``res_rows``)."""

    def __init__(self, row, weight, var):
        self.row = row
        self.var = var
        # math.log per weight: np.log can differ from it in the last bit
        self.logw = np.array([math.log(w) for w in weight.tolist()], dtype=np.float64)
        self.size = row.size

    def arg_values(self, x: NDArray[np.float64]) -> NDArray[np.float64]:
        return self.logw + x[self.var]

    def scatter_gradient(
        self, out: NDArray[np.float64], rows: NDArray[np.int64], scale: NDArray[np.float64]
    ) -> None:
        """out[rows[k], var[k]] += scale[k] for every term k."""
        np.add.at(out, (rows, self.var), scale)

    def diag_outer(self, out: NDArray[np.float64], scale: NDArray[np.float64]) -> None:
        """out[var[k], var[k]] += scale[k] for every term k."""
        if self.size:
            out[np.diag_indices_from(out)] += _kernels.segment_sum(scale, self.var, out.shape[0])


def _stack(parts, dtypes) -> list[NDArray]:
    """Concatenate equal-length tuples of arrays field by field."""
    fields = list(zip(*parts)) or [()] * len(dtypes)
    return [np.concatenate([np.zeros(0, dtype), *f]) for dtype, f in zip(dtypes, fields)]


_INT, _FLOAT = np.int64, np.float64


class PackedProgram:
    """Contiguous-array view of a LogConvexProgram."""

    def __init__(self, program: LogConvexProgram):
        self.n = program.n_variables
        self.lo, self.hi = program.bounds()
        self.c = program.objective_vector()
        blocks = program.blocks
        first = np.cumsum([0] + [blk.const.size for blk in blocks]).tolist()
        self.m = first[-1]
        self.A = np.zeros((self.m, self.n))
        self.b = np.concatenate([np.zeros(0), *(blk.const for blk in blocks)])
        lse, res, bases = [], [], []
        n_res = 0  # residual rows so far
        for blk, r0 in zip(blocks, first):
            # += rather than =: the zeros of A stay +0.0
            self.A[r0 : r0 + blk.const.size, : blk.coef.shape[1]] += blk.coef
            row, w, v = blk.lse
            lse.append((r0 + row, w, v))
            if blk.res is not None:
                base, const, (row, w, v) = blk.res
                res.append((n_res + row, w, v))
                base_row, base_ix = np.nonzero(base)
                rows = r0 + np.arange(const.size)
                bases.append((rows, const, n_res + base_row, base_ix, base[base_row, base_ix]))
                n_res += const.size

        lse_row, lse_w, lse_v = _stack(lse, (_INT, _FLOAT, _INT))
        self.lse_rows = np.unique(lse_row)
        self.lse_terms = _Terms(np.searchsorted(self.lse_rows, lse_row), lse_w, lse_v)
        self.lse_rowptr = self._rowptr(self.lse_terms.row, self.lse_rows.size)
        self.res_terms = _Terms(*_stack(res, (_INT, _FLOAT, _INT)))
        self.res_rows, self.res_base_const, self.rb_row, self.rb_ix, self.rb_co = _stack(
            bases, (_INT, _FLOAT, _INT, _INT, _FLOAT)
        )

    @staticmethod
    def _rowptr(rows: NDArray[np.int64], nrows: int) -> NDArray[np.int64]:
        counts = np.bincount(rows, minlength=nrows) if nrows else np.zeros(0, dtype=int)
        return np.concatenate([[0], np.cumsum(counts)]).astype(np.int64)

    # -- evaluation ----------------------------------------------------------

    def eval(self, x: NDArray[np.float64]) -> EvalCache:
        """Constraint values g_j(x) for every row, +inf out of domain."""
        values = self.A @ x + self.b
        cache = EvalCache(x=x, values=values)
        if self.lse_rows.size:
            z = self.lse_terms.arg_values(x)
            lse_val = _kernels.segment_logsumexp(z, self.lse_rowptr)
            values[self.lse_rows] += lse_val
            cache.lse_u = np.exp(z - lse_val[self.lse_terms.row])
        if self.res_rows.size:
            base = self.res_base_const.copy()
            if self.rb_row.size:
                base += _kernels.segment_sum(
                    self.rb_co * x[self.rb_ix], self.rb_row, self.res_rows.size
                )
            exps = np.exp(self.res_terms.arg_values(x))
            subtract = _kernels.segment_sum(exps, self.res_terms.row, self.res_rows.size)
            s = base - subtract
            cache.res_exp = exps
            cache.res_s = s
            good = s > 0.0
            cache.in_domain = bool(good.all())
            contrib = np.where(good, -np.log(np.where(good, s, 1.0)), np.inf)
            values[self.res_rows] += contrib
        return cache

    def grad_rows(self, cache: EvalCache) -> NDArray[np.float64]:
        """Dense (m, n) matrix of constraint gradients at the cached point."""
        if not cache.in_domain:
            raise FloatingPointError("gradient requested outside residual domain")
        G = self.A.copy()
        if self.lse_rows.size:
            rows = self.lse_rows[self.lse_terms.row]
            self.lse_terms.scatter_gradient(G, rows, cache.lse_u)
        if self.res_rows.size:
            inv_s = 1.0 / cache.res_s
            if self.rb_row.size:
                np.add.at(
                    G,
                    (self.res_rows[self.rb_row], self.rb_ix),
                    -self.rb_co * inv_s[self.rb_row],
                )
            rows = self.res_rows[self.res_terms.row]
            self.res_terms.scatter_gradient(G, rows, cache.res_exp * inv_s[self.res_terms.row])
        return G

    def hessian_weighted(
        self, cache: EvalCache, w: NDArray[np.float64]
    ) -> NDArray[np.float64]:
        """Sum_j w_j * hessian(g_j) at the cached point (dense n x n)."""
        H = np.zeros((self.n, self.n))
        if self.lse_rows.size:
            w_rows = w[self.lse_rows]
            # rank-one correction: -(sum_j u_j a_j)(...)^T per row
            V = np.zeros((self.lse_rows.size, self.n))
            self.lse_terms.scatter_gradient(V, self.lse_terms.row, cache.lse_u)
            H -= V.T @ (w_rows[:, None] * V)
            self.lse_terms.diag_outer(H, w_rows[self.lse_terms.row] * cache.lse_u)
        if self.res_rows.size:
            w_rows = w[self.res_rows]
            inv_s = 1.0 / cache.res_s
            R = np.zeros((self.res_rows.size, self.n))
            if self.rb_row.size:
                np.add.at(R, (self.rb_row, self.rb_ix), self.rb_co * inv_s[self.rb_row])
            self.res_terms.scatter_gradient(
                R, self.res_terms.row, -cache.res_exp * inv_s[self.res_terms.row]
            )
            H += R.T @ (w_rows[:, None] * R)
            self.res_terms.diag_outer(
                H,
                w_rows[self.res_terms.row]
                * cache.res_exp
                * inv_s[self.res_terms.row],
            )
        return H
