# cython: boundscheck=False, wraparound=False, cdivision=True
"""Compiled kernels.

Semantics mirror phrp._kernels._pure exactly; see that module for the
reference documentation.  bf_rounds is comparison-only and therefore
bitwise identical across backends; the segment reductions may differ from
numpy in the last bits because of summation order.
"""

import numpy as np

cimport numpy as cnp
from libc.math cimport INFINITY, exp, log

cnp.import_array()

BACKEND_NAME = "fast"


def bf_rounds(object weights, object dist0, object parent0, Py_ssize_t max_rounds):
    """Jacobi relaxation rounds, as in ``_pure.bf_rounds``.

    The diagonal of ``weights`` may be 0 or +inf: a self-loop never wins the
    strict improvement ``best < prev[t]``.
    """
    cdef cnp.ndarray[cnp.float64_t, ndim=2] w = np.ascontiguousarray(weights, dtype=np.float64)
    cdef cnp.ndarray[cnp.float64_t, ndim=1] dist = np.array(dist0, dtype=np.float64)
    cdef cnp.ndarray[cnp.int64_t, ndim=1] parent = np.array(parent0, dtype=np.int64)
    cdef Py_ssize_t T = w.shape[0]
    cdef cnp.ndarray[cnp.float64_t, ndim=1] prev = dist.copy()
    cdef Py_ssize_t r, t, tau, barg
    cdef double best, v
    cdef Py_ssize_t rounds_run = 0
    cdef bint converged = max_rounds == 0
    cdef bint changed
    for r in range(max_rounds):
        prev[:] = dist
        changed = False
        for t in range(T):
            best = INFINITY
            barg = -1
            for tau in range(T):
                v = prev[tau] + w[tau, t]
                if v < best:
                    best = v
                    barg = tau
            if best < prev[t]:
                dist[t] = best
                parent[t] = barg
                changed = True
        rounds_run += 1
        if not changed:
            converged = True
            break
    return dist, parent, int(rounds_run), bool(converged)


def segment_logsumexp(object z0, object rowptr0):
    cdef cnp.ndarray[cnp.float64_t, ndim=1] z = np.ascontiguousarray(z0, dtype=np.float64)
    cdef cnp.ndarray[cnp.int64_t, ndim=1] rowptr = np.ascontiguousarray(rowptr0, dtype=np.int64)
    cdef Py_ssize_t nrows = rowptr.shape[0] - 1
    cdef cnp.ndarray[cnp.float64_t, ndim=1] out = np.empty(nrows, dtype=np.float64)
    cdef Py_ssize_t r, j
    cdef double mx, s
    for r in range(nrows):
        mx = -INFINITY
        for j in range(rowptr[r], rowptr[r + 1]):
            if z[j] > mx:
                mx = z[j]
        s = 0.0
        for j in range(rowptr[r], rowptr[r + 1]):
            s += exp(z[j] - mx)
        out[r] = mx + log(s)
    return out


def segment_sum(object values0, object rows0, Py_ssize_t nrows):
    cdef cnp.ndarray[cnp.float64_t, ndim=1] values = np.ascontiguousarray(values0, dtype=np.float64)
    cdef cnp.ndarray[cnp.int64_t, ndim=1] rows = np.ascontiguousarray(rows0, dtype=np.int64)
    cdef cnp.ndarray[cnp.float64_t, ndim=1] out = np.zeros(nrows, dtype=np.float64)
    cdef Py_ssize_t j
    for j in range(values.shape[0]):
        out[rows[j]] += values[j]
    return out
