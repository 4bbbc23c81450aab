"""Unit tests for the grid evaluator and the closed-form power formula."""

from fractions import Fraction
from math import comb

import pytest

from formsign import (
    Form,
    GridSpec,
    closed_form_central_power,
    grid_classify,
    matrix_power,
    parse_form,
)

F = Fraction


class TestGridSpec:
    def test_point_count_formula(self):
        for n, d in ((2, 4), (3, 8), (3, 16), (4, 5)):
            grid = GridSpec(n, d)
            assert len(grid) == comb(d + n - 1, n - 1)
            assert len(list(grid.points())) == len(grid)

    def test_denominator_one(self):
        pts = list(GridSpec(3, 1).points())
        assert pts == [
            (F(0), F(0), F(1)),
            (F(0), F(1), F(0)),
            (F(1), F(0), F(0)),
        ]

    def test_points_lie_on_simplex(self):
        for pt in GridSpec(3, 6).points():
            assert sum(pt) == 1
            assert all(v >= 0 for v in pt)
            assert all(v.denominator in (1, 2, 3, 6) for v in pt)

    def test_points_ascending_lex(self):
        pts = list(GridSpec(3, 5).points())
        assert pts == sorted(pts)

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            GridSpec(0, 4)
        with pytest.raises(ValueError):
            GridSpec(3, 0)
        with pytest.raises(ValueError):
            GridSpec(3, True)
        with pytest.raises(ValueError):
            GridSpec(True, 4)

    def test_one_variable(self):
        for d in (1, 2, 7):
            assert list(GridSpec(1, d).points()) == [(F(1),)]


class TestGridClassify:
    def test_sum_of_squares_minimum(self):
        f = parse_form("x^2 + y^2 + z^2", "x,y,z")
        result = grid_classify(f, GridSpec(3, 8))
        assert result.min_value == F(11, 32)
        assert result.argmin == (F(1, 4), F(3, 8), F(3, 8))
        assert not result.negative_found

    def test_tie_broken_by_lex_smallest_point(self):
        f = Form(2, {(1, 1): 1})
        result = grid_classify(f, GridSpec(2, 2))
        # the minimum 0 is reached at both endpoints; the lex-smaller wins
        assert result.min_value == 0
        assert result.argmin == (F(0), F(1))

    def test_negative_detected(self, mixed_sign_form):
        result = grid_classify(mixed_sign_form, GridSpec(3, 24))
        assert result.negative_found
        assert result.min_value <= F(-277879, 191102976)
        assert mixed_sign_form.evaluate(result.argmin) == result.min_value

    def test_psd_form_has_no_negative_grid_value(self, sym_diff_form):
        result = grid_classify(sym_diff_form, GridSpec(3, 12))
        assert not result.negative_found
        assert result.min_value >= 0

    def test_dimension_mismatch(self):
        f = Form(2, {(2, 0): 1})
        with pytest.raises(ValueError, match="variables"):
            grid_classify(f, GridSpec(3, 4))


class TestClosedFormPower:
    def test_first_power_is_the_generator(self, central3):
        assert closed_form_central_power(1) == central3.matrices[0]

    def test_agrees_with_repeated_products(self, central3):
        a = central3.matrices[0]
        for m in range(1, 21):
            assert closed_form_central_power(m) == matrix_power(a, m)

    def test_third_power_values(self):
        m = closed_form_central_power(3)
        assert m.columns[2] == (F(13, 27), F(13, 27), F(1, 27))

    def test_invalid_power(self):
        with pytest.raises(ValueError):
            closed_form_central_power(0)
        with pytest.raises(ValueError):
            closed_form_central_power(-2)
