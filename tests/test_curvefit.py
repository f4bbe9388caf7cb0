"""Unit tests for the Newton interpolator and point spreading."""

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from repro.core.curvefit import NewtonInterpolator, NewtonTable, spread_points
from repro.errors import AnalysisError


def scalar_newton(xs, ys, x):
    """One output's Newton polynomial at *x*: scalar divided differences
    and Horner, the float operations every table column must repeat."""
    nodes, coeffs, diag = [], [], []
    for xn, yn in zip(xs, ys):
        new_diag = [float(yn)]
        for k, prev in enumerate(diag):
            denom = xn - nodes[len(nodes) - 1 - k]
            new_diag.append((new_diag[k] - prev) / denom)
        nodes.append(float(xn))
        diag = new_diag
        coeffs.append(new_diag[-1])
    result = coeffs[-1]
    for k in range(len(coeffs) - 2, -1, -1):
        result = result * (x - nodes[k]) + coeffs[k]
    return result


class TestNewtonInterpolator:
    def test_reproduces_nodes_exactly(self):
        xs = [1, 4, 9, 16]
        ys = [3, -2, 7, 0]
        ip = NewtonInterpolator(xs, ys)
        for x, y in zip(xs, ys):
            assert ip(x) == pytest.approx(y)

    def test_linear_data_interpolated_exactly(self):
        ip = NewtonInterpolator([0, 10], [5, 25])
        assert ip(5) == pytest.approx(15)
        assert ip(7) == pytest.approx(19)

    def test_quadratic_data(self):
        xs = [0, 1, 2, 3]
        ip = NewtonInterpolator(xs, [x * x for x in xs])
        assert ip(1.5) == pytest.approx(2.25)
        assert ip(10) == pytest.approx(100)  # exact polynomial extrapolates

    def test_incremental_add_matches_batch(self):
        xs = [0, 2, 5, 7]
        ys = [1, 9, 4, 4]
        batch = NewtonInterpolator(xs, ys)
        inc = NewtonInterpolator()
        for x, y in zip(xs, ys):
            inc.add_point(x, y)
        for x in [1, 3, 6, 8.5]:
            assert inc(x) == pytest.approx(batch(x))

    def test_single_point_is_constant(self):
        ip = NewtonInterpolator([5], [42])
        assert ip(0) == 42 and ip(100) == 42

    def test_rejects_duplicate_node(self):
        ip = NewtonInterpolator([1], [1])
        with pytest.raises(AnalysisError, match="duplicate"):
            ip.add_point(1, 2)

    def test_rejects_empty_evaluation(self):
        with pytest.raises(AnalysisError):
            NewtonInterpolator()(3)

    def test_rejects_length_mismatch(self):
        with pytest.raises(AnalysisError):
            NewtonInterpolator([1, 2], [1])

    def test_len_and_xs(self):
        ip = NewtonInterpolator([1, 2], [5, 6])
        assert len(ip) == 2
        assert ip.xs == [1.0, 2.0]


class TestNewtonTable:
    @settings(max_examples=100, deadline=None)
    @given(
        st.lists(st.integers(0, 400), min_size=1, max_size=24, unique=True),
        st.integers(1, 6),
        st.data(),
    )
    def test_columns_bit_identical_to_scalar_newton(self, xs, width, data):
        row = st.lists(st.integers(0, 10**9), min_size=width, max_size=width)
        ys = [data.draw(row) for _ in xs]
        table = NewtonTable(width)
        for x, row in zip(xs, ys):
            table.add_point(x, row)
        points = data.draw(st.lists(st.integers(0, 400), min_size=1, max_size=8))
        for x in points:
            expected = [
                scalar_newton(xs, [values[j] for values in ys], x)
                for j in range(width)
            ]
            assert table(x) == expected

    def test_rejects_wrong_width(self):
        table = NewtonTable(2)
        with pytest.raises(AnalysisError, match="expected 2 values"):
            table.add_point(1, [5])

    def test_evaluation_returns_a_fresh_list(self):
        table = NewtonTable(2)
        table.add_point(1, [5, 6])
        table(3).append(7)
        assert table(3) == [5.0, 6.0]


class TestSpreadPoints:
    def test_five_points_cover_range(self):
        pts = spread_points(10, 110, 5)
        assert pts[0] == 10 and pts[-1] == 110
        assert len(pts) == 5
        assert pts == sorted(set(pts))

    def test_small_range_returns_all(self):
        assert spread_points(3, 6, 10) == [3, 4, 5, 6]

    def test_degenerate_range(self):
        assert spread_points(7, 7, 5) == [7]

    def test_single_point(self):
        assert spread_points(2, 9, 1) == [2]

    def test_rejects_empty_range(self):
        with pytest.raises(AnalysisError):
            spread_points(5, 4, 3)

    def test_rejects_zero_count(self):
        with pytest.raises(AnalysisError):
            spread_points(0, 10, 0)
