"""Core domain types, validation and CSV ingestion.

Market statistics are a pair of strictly positive T x n matrices: prices and
purchased quantities, one row per observation period.  Strict positivity is
enforced here, at the boundary, because every downstream analysis substitutes
log-variables and needs finite logarithms.  Zero or negative entries are
rejected rather than floored; callers must pre-clean their data.

All types are immutable after construction and safe to share across threads.
"""

from __future__ import annotations

import csv
import enum
import io
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable

import numpy as np
from numpy.typing import NDArray


class StatisticsError(Exception):
    """Base class for data validation failures."""


class MissingFileError(StatisticsError):
    """Input file does not exist."""


class MalformedRowError(StatisticsError):
    """A CSV row (or the header) does not match the expected schema.

    Attributes:
        row: 1-based data row index (0 for the header row).
        column: 1-based column index, or 0 when the whole row is wrong.
    """

    def __init__(self, message: str, row: int, column: int = 0):
        super().__init__(message)
        self.row = row
        self.column = column


class NonpositiveValueError(StatisticsError):
    """A price or quantity entry is zero or negative.

    Attributes:
        row: 1-based data row index.
        column: 1-based column index.
    """

    def __init__(self, message: str, row: int, column: int):
        super().__init__(message)
        self.row = row
        self.column = column


class EmptyBlockError(StatisticsError):
    """A goods partition would leave one of the two blocks empty."""


class IndexOutOfRangeError(StatisticsError):
    """A goods index is outside 0..n-1."""


class Status(str, enum.Enum):
    """Three-valued outcome of a numerical decision procedure."""

    FEASIBLE = "FEASIBLE"
    INFEASIBLE = "INFEASIBLE"
    UNDECIDED = "UNDECIDED"


@dataclass(frozen=True)
class Decision:
    """Outcome of a decision procedure.

    UNDECIDED is reserved for genuine numerical ambiguity: multipliers or
    cross expenditures that leave float64, a solve whose phase I stalled, or
    a search whose points all fail independent verification.

    Attributes:
        status: FEASIBLE / INFEASIBLE / UNDECIDED.
        detail: human-readable explanation.
    """

    status: Status
    detail: str = ""


def _as_positive_matrix(values, name: str) -> NDArray[np.float64]:
    arr = np.array(values, dtype=np.float64)
    if arr.ndim != 2:
        raise StatisticsError(f"{name} must be a 2-d array, got ndim={arr.ndim}")
    if arr.shape[0] < 1 or arr.shape[1] < 1:
        raise StatisticsError(f"{name} must have at least one row and column")
    if not np.all(np.isfinite(arr)):
        raise StatisticsError(f"{name} contains non-finite entries")
    if np.any(arr <= 0.0):
        t, i = map(int, np.argwhere(arr <= 0.0)[0])
        raise NonpositiveValueError(
            f"{name}[{t}, {i}] = {arr[t, i]} is not strictly positive",
            row=t + 1,
            column=i + 1,
        )
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class MarketStatistics:
    """Observed prices and purchased quantities over T periods and n goods.

    Attributes:
        prices: T x n matrix of strictly positive prices (currency per unit).
        quantities: T x n matrix of strictly positive quantities (units).
    """

    prices: NDArray[np.float64]
    quantities: NDArray[np.float64]

    def __post_init__(self):
        p = _as_positive_matrix(self.prices, "prices")
        q = _as_positive_matrix(self.quantities, "quantities")
        if p.shape != q.shape:
            raise StatisticsError(
                f"prices shape {p.shape} != quantities shape {q.shape}"
            )
        object.__setattr__(self, "prices", p)
        object.__setattr__(self, "quantities", q)

    @property
    def periods(self) -> int:
        return self.prices.shape[0]

    @property
    def goods(self) -> int:
        return self.prices.shape[1]

    def expenditures(self) -> NDArray[np.float64]:
        """Per-period spending p^t . q^t as a length-T vector."""
        return np.einsum("ti,ti->t", self.prices, self.quantities)

    def cross_expenditures(self) -> NDArray[np.float64]:
        """T x T matrix C with C[a, b] = p^a . q^b (cost of bundle b at prices a).

        Entries that overflow come back as inf without a warning; the
        verifiers reject non-finite cross expenditures.
        """
        with np.errstate(over="ignore"):
            return self.prices @ self.quantities.T


@dataclass(frozen=True)
class PartitionedStatistics:
    """Market statistics with goods split into two disjoint blocks.

    The q-block / y-block naming follows the aggregation use case: the y-block
    is the candidate group of goods entering through a scalar sub-index.
    Indices are 0-based; each block keeps the original column order.

    Attributes:
        base: the full statistics.
        q_block: goods indices of the first block (complement of y_block).
        y_block: goods indices of the second block.
    """

    base: MarketStatistics
    q_block: tuple[int, ...]
    y_block: tuple[int, ...]

    def __post_init__(self):
        n = self.base.goods
        q = tuple(self.q_block)
        y = tuple(self.y_block)
        if not q or not y:
            raise EmptyBlockError("both goods blocks must be nonempty")
        for idx in (*q, *y):
            if not 0 <= idx < n:
                raise IndexOutOfRangeError(f"goods index {idx} outside 0..{n - 1}")
        if set(q) & set(y):
            raise StatisticsError("goods blocks overlap")
        if len(set(q)) != len(q) or len(set(y)) != len(y):
            raise StatisticsError("duplicate goods index in a block")
        if len(q) + len(y) != n:
            raise StatisticsError("blocks do not cover all goods")
        object.__setattr__(self, "q_block", q)
        object.__setattr__(self, "y_block", y)

    @property
    def q_prices(self) -> NDArray[np.float64]:
        return self.base.prices[:, list(self.q_block)]

    @property
    def q_quantities(self) -> NDArray[np.float64]:
        return self.base.quantities[:, list(self.q_block)]

    @property
    def y_prices(self) -> NDArray[np.float64]:
        return self.base.prices[:, list(self.y_block)]

    @property
    def y_quantities(self) -> NDArray[np.float64]:
        return self.base.quantities[:, list(self.y_block)]

    def y_statistics(self) -> MarketStatistics:
        """The y-block viewed as a standalone market."""
        return MarketStatistics(self.y_prices, self.y_quantities)


def partition(stats: MarketStatistics, y_block: Iterable[int]) -> PartitionedStatistics:
    """Split goods into the given y-block and its complement.

    Args:
        stats: full market statistics.
        y_block: 0-based goods indices of the y-block; must be a nonempty
            proper subset of 0..n-1.

    Raises:
        EmptyBlockError: y_block is empty or covers all goods.
        IndexOutOfRangeError: an index is outside 0..n-1.
    """
    y = sorted(set(int(i) for i in y_block))
    if not y:
        raise EmptyBlockError("y_block must be nonempty")
    for idx in y:
        if not 0 <= idx < stats.goods:
            raise IndexOutOfRangeError(f"goods index {idx} outside 0..{stats.goods - 1}")
    q = [i for i in range(stats.goods) if i not in set(y)]
    if not q:
        raise EmptyBlockError("y_block covers all goods; q-block would be empty")
    return PartitionedStatistics(stats, tuple(q), tuple(y))


def _expected_header(n: int) -> list[str]:
    return [f"p{i}" for i in range(1, n + 1)] + [f"q{i}" for i in range(1, n + 1)]


def load_statistics(path: str | Path) -> MarketStatistics:
    """Read market statistics from a CSV file.

    The file must be UTF-8, comma separated, with header row
    ``p1,...,pn,q1,...,qn`` and one data row per period.  Every value must
    parse as a strictly positive decimal.

    The header is read with :mod:`csv`.  The body is first parsed by
    numpy's C parser (``np.loadtxt``), which rounds decimals exactly as
    ``float`` does; a body it rejects, or whose array has the wrong width or
    a value that is not finite and strictly positive, is parsed again cell
    by cell, so every error names its row and column.  Blank bodies go
    straight to the cell-by-cell parser.

    Raises:
        MissingFileError: the file does not exist.
        MalformedRowError: bad header, wrong cell count, or unparseable value.
        NonpositiveValueError: a parsed value is <= 0.
    """
    path = Path(path)
    if not path.is_file():
        raise MissingFileError(f"no such file: {path}")
    with path.open(newline="", encoding="utf-8") as fh:
        try:
            header = next(csv.reader(fh))
        except StopIteration:
            raise MalformedRowError("empty file: missing header row", row=0) from None
        header = [h.strip() for h in header]
        if len(header) < 2 or len(header) % 2 != 0:
            raise MalformedRowError(
                f"header must contain p1..pn,q1..qn, got {len(header)} columns", row=0
            )
        n = len(header) // 2
        if header != _expected_header(n):
            raise MalformedRowError(
                f"header mismatch: expected {','.join(_expected_header(n))}", row=0
            )
        body = fh.read()
    data = _parse_fast(body, n)
    if data is None:
        data = _parse_cells(body, n)
    return MarketStatistics(prices=data[:, :n], quantities=data[:, n:])


def _parse_fast(body: str, n: int) -> NDArray[np.float64] | None:
    """The body as a (T, 2n) array of finite positive values, or None."""
    if not body.strip():  # np.loadtxt warns on a body without data
        return None
    # numpy strips the separators \x1c-\x1f around a number as whitespace,
    # float() rejects them; no other code point next to a number is read
    # differently by the two
    if any(sep in body for sep in "\x1c\x1d\x1e\x1f"):
        return None
    try:
        data = np.loadtxt(io.StringIO(body), delimiter=",", ndmin=2, comments=None)
    except ValueError:  # a cell or row numpy cannot read: the loop names it
        return None
    if data.shape[1] != 2 * n or not np.all(np.isfinite(data)) or not np.all(data > 0.0):
        return None
    return data


def _parse_cells(body: str, n: int) -> NDArray[np.float64]:
    """The body parsed cell by cell; raises on the first bad row or cell."""
    rows: list[list[float]] = []
    for r, cells in enumerate(csv.reader(io.StringIO(body, newline="")), start=1):
        if not cells or all(not c.strip() for c in cells):
            continue  # tolerate trailing blank lines
        if len(cells) != 2 * n:
            raise MalformedRowError(
                f"row {r}: expected {2 * n} values, got {len(cells)}",
                row=r,
                column=min(len(cells) + 1, 2 * n),
            )
        parsed: list[float] = []
        for c, cell in enumerate(cells, start=1):
            try:
                value = float(cell)
            except ValueError:
                raise MalformedRowError(
                    f"row {r}, column {c}: cannot parse {cell!r}", row=r, column=c
                ) from None
            if not math.isfinite(value):
                raise MalformedRowError(
                    f"row {r}, column {c}: non-finite value {cell!r}", row=r, column=c
                )
            if value <= 0.0:
                raise NonpositiveValueError(
                    f"row {r}, column {c}: value {value} is not strictly positive",
                    row=r,
                    column=c,
                )
            parsed.append(value)
        rows.append(parsed)
    if not rows:
        raise MalformedRowError("file contains a header but no data rows", row=1)
    return np.asarray(rows, dtype=np.float64)


def save_statistics(stats: MarketStatistics, path: str | Path) -> None:
    """Write statistics in the CSV schema read by :func:`load_statistics`.

    Values are written with 17 significant digits, enough to round-trip
    IEEE doubles exactly.  The rows end in CRLF, as ``csv.writer`` ends
    them, and no cell needs quoting, so a block of rows is one format
    template filled in one call.  Blocks of 128 rows keep the text held at
    once to a few hundred kB.
    """
    row = ",".join(["%.17g"] * (2 * stats.goods)) + "\r\n"
    p, q = stats.prices, stats.quantities
    with Path(path).open("w", newline="", encoding="utf-8") as fh:
        fh.write(",".join(_expected_header(stats.goods)) + "\r\n")
        for lo in range(0, stats.periods, 128):
            block = np.hstack([p[lo : lo + 128], q[lo : lo + 128]])
            fh.write((row * block.shape[0]) % tuple(block.ravel().tolist()))
