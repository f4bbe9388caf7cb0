"""Newton-polynomial curve fitting (Section 6.2.1).

The OBC/CF heuristic analyses only a handful of DYN segment lengths
exactly and interpolates every activity's response time at all other
lengths with a Newton polynomial -- "extremely fast, in particular when
recalculating the values after a new point has been added to the set
Points" (paper footnote 1).  The divided-difference form makes adding a
point an O(n) update per interpolated value.

Every activity is interpolated over the *same* nodes: a feasible
analysis result carries a response time for every activity (the
analysis evaluates Eq. (5) on it, which needs all of them), and an
infeasible one adds no node at all.  :class:`NewtonTable` exploits that
shared-node invariant: it keeps one node list and stores the Newton
coefficients column by column (column ``k`` holds the order-``k``
coefficient of every output), so evaluating all outputs at ``x`` is a
column-wise Horner scheme -- ``x - xs[k]`` is computed once per column,
not once per output, and no per-output object is touched.  The float
operations per output are exactly those of a single-output Horner
evaluation, in the same order, so the values are bit-identical to
evaluating one interpolator per output.  :class:`NewtonInterpolator` is
the one-output view of the same table.

An OBC/CF scoring round evaluates the table once per candidate length:
candidates x activities x (nodes - 1) multiply-adds, with no per-output
dispatch and no allocation beyond the Horner scheme's working lists.
"""

from __future__ import annotations

from typing import List, Sequence

from repro.errors import AnalysisError


class NewtonTable:
    """Incremental Newton interpolation of *width* outputs on shared nodes.

    Stores the rising diagonal of each output's divided-difference table
    and the Newton coefficients column-wise, so :meth:`add_point` costs
    O(width * n) and :meth:`__call__` O(width * n) float operations.
    """

    def __init__(self, width: int):
        self.width = width
        self._xs: List[float] = []
        self._columns: List[List[float]] = []  # column k: c_k of every output
        self._diag: List[List[float]] = []  # last dd-table row, column-wise

    def __len__(self) -> int:
        return len(self._xs)

    @property
    def xs(self) -> List[float]:
        """Interpolation nodes added so far."""
        return list(self._xs)

    def add_point(self, x: float, ys: Sequence[float]) -> None:
        """Add node *x* with one value per output; *x* must be new."""
        if len(ys) != self.width:
            raise AnalysisError(
                f"expected {self.width} values at x={x}, got {len(ys)}"
            )
        xs = self._xs
        if any(x == old for old in xs):
            raise AnalysisError(f"duplicate interpolation node x={x}")
        # Update the rising diagonal of every divided-difference table.
        row = [float(y) for y in ys]
        new_diag = [row]
        last = len(xs) - 1
        for k, prev in enumerate(self._diag):
            denom = x - xs[last - k]
            row = [(a - p) / denom for a, p in zip(row, prev)]
            new_diag.append(row)
        xs.append(float(x))
        self._diag = new_diag
        self._columns.append(row)

    def __call__(self, x: float) -> List[float]:
        """Every output's interpolating polynomial at *x* (Horner form)."""
        columns = self._columns
        if not columns:
            raise AnalysisError("cannot evaluate an empty interpolator")
        xs = self._xs
        values = columns[-1]
        for k in range(len(columns) - 2, -1, -1):
            d = x - xs[k]
            values = [v * d + c for v, c in zip(values, columns[k])]
        return list(values)


class NewtonInterpolator:
    """Incremental Newton divided-difference interpolation of one output.

    A one-column :class:`NewtonTable`: :meth:`add_point` and evaluation
    both cost O(n).
    """

    def __init__(self, xs: Sequence[float] = (), ys: Sequence[float] = ()):
        if len(xs) != len(ys):
            raise AnalysisError("xs and ys must have equal length")
        self._table = NewtonTable(1)
        for x, y in zip(xs, ys):
            self.add_point(x, y)

    def __len__(self) -> int:
        return len(self._table)

    @property
    def xs(self) -> List[float]:
        """Interpolation nodes added so far."""
        return self._table.xs

    def add_point(self, x: float, y: float) -> None:
        """Add node (x, y); x must differ from all existing nodes."""
        self._table.add_point(x, (y,))

    def __call__(self, x: float) -> float:
        """Evaluate the interpolating polynomial at *x* (Horner form)."""
        return self._table(x)[0]


def spread_points(lo: int, hi: int, count: int) -> List[int]:
    """*count* distinct integers evenly spread over [lo, hi], inclusive.

    Used to seed the initial ``Points`` set of the OBC/CF heuristic
    (the paper used five).
    """
    if hi < lo:
        raise AnalysisError(f"empty range [{lo}, {hi}]")
    if count < 1:
        raise AnalysisError("count must be >= 1")
    if hi == lo:
        return [lo]
    count = min(count, hi - lo + 1)
    if count == 1:
        return [lo]
    step = (hi - lo) / (count - 1)
    points = {lo + round(i * step) for i in range(count)}
    return sorted(points)
