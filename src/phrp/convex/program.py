"""Log-domain convex feasibility programs, held as labelled blocks of array rows.

Row j of a block reads

    coef[j] @ x + const[j] + log(sum_k w_k exp(x[v_k]))
        <= log(base_coef[j] @ x + base_const[j] - sum_k d_k exp(x[u_k]))

The left log sums the block's ``lse`` terms (row, w, v) of row j and is
absent when row j has none.  The right log is present on every row of a
block with a ``res`` part (base_coef, base_const, terms (row, d, u)) and
absent from every row of a block without one.  Every weight is positive, so
the left side is convex and the right side concave, and the feasible set is
convex.  Variables are either log-domain reals boxed to [-B, B] or
nonnegative slack variables; the objective is always the sum of the slacks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.typing import NDArray


class ProgramStructureError(ValueError):
    """The program or a constraint violates the required structural form."""


Terms = tuple[NDArray[np.int64], NDArray[np.float64], NDArray[np.int64]]


@dataclass(frozen=True)
class RowBlock:
    """One block of rows in the form of the module docstring.

    ``coef`` is (m, w) over the first w <= n variables and ``const`` is (m,);
    term arrays are flat and ordered by row.
    """

    label: str
    coef: NDArray[np.float64]
    const: NDArray[np.float64]
    lse: Terms
    res: tuple[NDArray[np.float64], NDArray[np.float64], Terms] | None


@dataclass(frozen=True)
class _Variable:
    name: str
    kind: str  # "log" | "slack"
    lower: float
    upper: float
    start: float


class LogConvexProgram:
    """Builder and container for one feasibility program.

    Log variables are boxed to [-B, B]; B realizes the localization radius:
    a solution is only trusted if it lies strictly inside the box.  Slack
    variables live in [0, cap] and carry the objective.
    """

    def __init__(self, box_bound: float = 30.0, name: str = "program"):
        if not box_bound > 0:
            raise ProgramStructureError("box_bound must be positive")
        self.name = name
        self.box_bound = float(box_bound)
        self._variables: list[_Variable] = []
        self._blocks: list[RowBlock] = []

    # -- variables ---------------------------------------------------------

    def add_log_variable(self, name: str, start: float = 0.0) -> int:
        b = self.box_bound
        if not -b <= start <= b:
            raise ProgramStructureError(f"start for {name!r} outside the box")
        self._variables.append(_Variable(name, "log", -b, b, float(start)))
        return len(self._variables) - 1

    def add_slack_variable(self, name: str, cap: float, start: float | None = None) -> int:
        if not (math.isfinite(cap) and cap > 0):
            raise ProgramStructureError("slack cap must be positive and finite")
        if start is None:
            start = cap / 4.0
        if not 0.0 <= start <= cap:
            raise ProgramStructureError(f"start for {name!r} outside [0, cap]")
        self._variables.append(_Variable(name, "slack", 0.0, float(cap), float(start)))
        return len(self._variables) - 1

    # -- constraints -------------------------------------------------------

    def add_constraint(self, label: str, coef, const, lse=None, res=None) -> None:
        """Add the block of rows ``label``: ``lse`` is (row, w, v) and ``res``
        is (base_coef, base_const, (row, d, u)), as in the module docstring.

        Raises:
            ProgramStructureError: a coefficient is not finite, a weight is not
                positive and finite, an index is out of range, term rows are
                not ordered, or some row has no variable.
        """

        def require(ok, what):
            if not ok:
                raise ProgramStructureError(f"block {label!r}: {what}")

        coef, const = self._matrix(coef, const, require)
        m = const.size
        varies = (coef != 0.0).any(axis=1)
        lse = self._terms(((), (), ()) if lse is None else lse, m, require)
        varies[lse[0]] = True
        if res is not None:
            base_coef, base_const = self._matrix(res[0], res[1], require)
            require(base_const.size == m, "res must have one base per row")
            res = (base_coef, base_const, self._terms(res[2], m, require))
            varies |= (base_coef != 0.0).any(axis=1)
            varies[res[2][0]] = True
        require(varies.all(), "a row has no variable")
        self._blocks.append(RowBlock(label, coef, const, lse, res))

    def _matrix(self, coef, const, require):
        coef = np.asarray(coef, dtype=np.float64)
        const = np.asarray(const, dtype=np.float64)
        require(
            coef.ndim == 2
            and const.shape == coef.shape[:1]
            and coef.shape[1] <= len(self._variables),
            "coefficients must be (rows, at most n_variables) and constants (rows,)",
        )
        require(np.isfinite(coef).all() and np.isfinite(const).all(), "coefficients must be finite")
        return coef, const

    def _terms(self, terms, m: int, require) -> Terms:
        row, weight, var = (np.asarray(a) for a in terms)
        row = row.astype(np.int64)
        weight = weight.astype(np.float64)
        var = var.astype(np.int64)
        require(row.ndim == 1 and row.shape == weight.shape == var.shape, "term arrays must match")
        require(np.all((weight > 0.0) & (weight < math.inf)), "weights must be positive and finite")
        in_order = np.all((row >= 0) & (row < m)) and np.all(np.diff(row) >= 0)
        require(in_order, "term rows must be ordered and in range")
        require(np.all((var >= 0) & (var < len(self._variables))), "term of an unknown variable")
        return row, weight, var

    # -- introspection -----------------------------------------------------

    @property
    def n_variables(self) -> int:
        return len(self._variables)

    @property
    def variable_names(self) -> tuple[str, ...]:
        return tuple(v.name for v in self._variables)

    @property
    def blocks(self) -> tuple[RowBlock, ...]:
        return tuple(self._blocks)

    @property
    def slack_indices(self) -> tuple[int, ...]:
        return tuple(i for i, v in enumerate(self._variables) if v.kind == "slack")

    def bounds(self) -> tuple[NDArray[np.float64], NDArray[np.float64]]:
        lo = np.array([v.lower for v in self._variables])
        hi = np.array([v.upper for v in self._variables])
        return lo, hi

    def kinds(self) -> tuple[str, ...]:
        return tuple(v.kind for v in self._variables)

    def start_point(self) -> NDArray[np.float64]:
        return np.array([v.start for v in self._variables])

    def objective_vector(self) -> NDArray[np.float64]:
        c = np.zeros(len(self._variables))
        for i in self.slack_indices:
            c[i] = 1.0
        return c
