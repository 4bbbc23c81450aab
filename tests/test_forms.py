"""Unit tests for the exact polynomial core."""

from fractions import Fraction

import pytest

from formsign import (
    DimensionMismatchError,
    Form,
    InhomogeneousError,
    as_fraction,
    parse_form,
)
from formsign.forms import _compositions
from conftest import all_exponents

F = Fraction


class TestAsFraction:
    def test_int(self):
        assert as_fraction(7) == F(7)

    def test_fraction_passthrough(self):
        assert as_fraction(F(2, 3)) == F(2, 3)

    def test_string_ratio(self):
        assert as_fraction("-5/6") == F(-5, 6)

    def test_float_rejected(self):
        with pytest.raises(TypeError, match="only exact rationals"):
            as_fraction(0.5)

    def test_bool_rejected(self):
        with pytest.raises(TypeError):
            as_fraction(True)


class TestConstruction:
    def test_basic(self):
        f = Form(2, {(2, 0): 1, (0, 2): F(-1)})
        assert f.n == 2
        assert f.degree == 2
        assert f.terms == {(2, 0): F(1), (0, 2): F(-1)}

    def test_zero_coefficients_dropped(self):
        f = Form(2, {(2, 0): 1, (1, 1): 0})
        assert f.terms == {(2, 0): F(1)}

    def test_zero_form(self):
        f = Form(3, {})
        assert f.is_zero
        assert f.degree == 0

    def test_zero_form_with_declared_degree(self):
        f = Form(3, {}, degree=4)
        assert f.is_zero
        assert f.degree == 4

    def test_all_zero_coefficients_is_zero_form(self):
        f = Form(2, {(3, 0): 0, (0, 3): F(0)})
        assert f.is_zero

    def test_mixed_degrees_rejected(self):
        with pytest.raises(InhomogeneousError) as exc:
            Form(1, {(2,): 1, (3,): 1})
        assert exc.value.degrees == (2, 3)
        assert "mixes degree 2 and degree 3" in str(exc.value)

    def test_exponent_length_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            Form(3, {(1, 2): 1})

    def test_negative_exponent_rejected(self):
        with pytest.raises(ValueError, match="nonnegative ints"):
            Form(2, {(-1, 3): 1})

    def test_float_coefficient_rejected(self):
        with pytest.raises(TypeError):
            Form(2, {(1, 1): 0.25})

    def test_string_coefficients_accepted(self):
        f = Form(2, {(1, 1): "3/4"})
        assert f.coefficient((1, 1)) == F(3, 4)

    def test_no_variables_rejected(self):
        with pytest.raises(ValueError):
            Form(0, {})

    def test_equality_and_hash(self):
        a = Form(2, {(2, 0): 1, (0, 2): -1})
        b = Form(2, {(0, 2): F(-1), (2, 0): F(1)})
        assert a == b
        assert hash(a) == hash(b)
        assert a != Form(2, {(2, 0): 1})


class TestCoefficient:
    def test_present(self):
        f = Form(2, {(2, 0): F(5, 7)})
        assert f.coefficient((2, 0)) == F(5, 7)

    def test_absent_is_zero(self):
        f = Form(2, {(2, 0): 1})
        assert f.coefficient((0, 2)) == 0

    def test_wrong_length(self):
        f = Form(2, {(2, 0): 1})
        with pytest.raises(DimensionMismatchError):
            f.coefficient((2, 0, 0))


class TestEvaluate:
    def test_difference_of_squares_cancels(self):
        f = Form(2, {(2, 0): 1, (0, 2): -1})
        assert f.evaluate((1, 1)) == 0

    def test_shifted_square_at_barycenter(self):
        f = parse_form("(x1 - x2 + x3)^2 + x2^2", ("x1", "x2", "x3"))
        third = F(1, 3)
        assert f.evaluate((third, third, third)) == F(2, 9)

    def test_mixed_sign_form_at_known_negative_point(self, mixed_sign_form):
        value = mixed_sign_form.evaluate((F(37, 81), F(91, 324), F(85, 324)))
        assert value == F(-1331774489191, 1156831381426176)

    def test_string_coordinates(self):
        f = Form(2, {(1, 1): 1})
        assert f.evaluate(("1/2", "1/3")) == F(1, 6)

    def test_float_coordinates_rejected(self):
        f = Form(2, {(1, 1): 1})
        with pytest.raises(TypeError):
            f.evaluate((0.5, 0.5))

    def test_dimension_mismatch(self):
        f = Form(2, {(1, 1): 1})
        with pytest.raises(DimensionMismatchError):
            f.evaluate((1, 2, 3))


class TestSubstitute:
    def test_identity_is_noop(self, mixed_sign_form):
        eye = [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
        assert mixed_sign_form.substitute(eye) == mixed_sign_form

    def test_upper_triangular_cell_matrix(self, wds3):
        f = Form(3, {(2, 0, 0): 1, (0, 2, 0): -1})
        g = f.substitute(wds3.matrices[0])
        assert g.terms == {
            (2, 0, 0): F(1),
            (1, 1, 0): F(1),
            (1, 0, 1): F(2, 3),
        }

    def test_degree_preserved(self, sym_diff_form, wds3):
        g = sym_diff_form.substitute(wds3.matrices[3])
        assert g.degree == sym_diff_form.degree
        assert g.n == sym_diff_form.n

    def test_plain_nested_lists_accepted(self):
        f = Form(2, {(2, 0): 1})
        g = f.substitute([[F(1, 2), F(1, 2)], [F(1, 2), F(1, 2)]])
        quarter = F(1, 4)
        assert g.terms == {(2, 0): quarter, (1, 1): F(1, 2), (0, 2): quarter}

    def test_wrong_shape_rejected(self):
        f = Form(2, {(2, 0): 1})
        with pytest.raises(DimensionMismatchError):
            f.substitute([[1, 0, 0], [0, 1, 0], [0, 0, 1]])

    def test_float_entries_rejected(self):
        f = Form(2, {(2, 0): 1})
        with pytest.raises(TypeError):
            f.substitute([[0.5, 0.5], [0.5, 0.5]])

    def test_zero_form_stays_zero(self):
        f = Form(2, {}, degree=3)
        g = f.substitute([[1, 1], [0, 0]])
        assert g.is_zero
        assert g.degree == 3


class TestClassifiers:
    def test_all_nonnegative_is_trivially_positive(self):
        assert Form(2, {(2, 0): 1, (1, 1): 2}).is_trivially_positive()

    def test_zero_form_is_trivially_positive(self):
        assert Form(2, {}).is_trivially_positive()

    def test_negative_coefficient_not_trivially_positive(self):
        assert not Form(2, {(2, 0): 1, (1, 1): -2, (0, 2): 1}).is_trivially_positive()

    def test_positive_sum_not_trivially_negative(self):
        assert not Form(2, {(2, 0): 1, (0, 2): 1}).is_trivially_negative()

    def test_negative_sum_is_trivially_negative(self):
        f = Form(2, {(1, 1): 1, (2, 0): -1, (0, 2): -1})
        assert f.is_trivially_negative()
        assert f.evaluate((F(1, 2), F(1, 2))) == F(-1, 4)

    def test_zero_sum_is_not_trivially_negative(self):
        f = Form(2, {(2, 0): 1, (1, 1): -1})
        assert not f.is_trivially_negative()

    def test_trivially_negative_means_negative_barycenter_value(self):
        f = Form(3, {(2, 0, 0): 1, (1, 1, 0): -4})
        assert f.is_trivially_negative()
        third = F(1, 3)
        assert f.evaluate((third, third, third)) < 0

    def test_psd_form_with_negative_coefficients_is_neither(self, sym_diff_form):
        assert not sym_diff_form.is_trivially_positive()
        assert not sym_diff_form.is_trivially_negative()


class TestNormalizeContent:
    def test_scales_to_coprime_integers(self):
        f = Form(2, {(2, 0): F(2, 3), (0, 2): F(-4, 3)})
        g = f.normalize_content()
        assert g.terms == {(2, 0): F(1), (0, 2): F(-2)}

    def test_integer_content_divided_out(self):
        f = Form(1, {(3,): 5})
        assert f.normalize_content().terms == {(3,): F(1)}

    def test_zero_form_unchanged(self):
        f = Form(2, {}, degree=2)
        assert f.normalize_content().is_zero

    def test_idempotent(self, mixed_sign_form):
        once = mixed_sign_form.normalize_content()
        assert once.normalize_content() == once

    def test_sign_pattern_preserved(self):
        f = Form(2, {(2, 0): F(3, 7), (1, 1): F(-6, 7)})
        g = f.normalize_content()
        for exps in f.terms:
            assert (f.terms[exps] > 0) == (g.terms[exps] > 0)

    def test_classifiers_invariant(self, sym_diff_form):
        scaled = Form(3, {e: c * F(7, 3) for e, c in sym_diff_form.terms.items()})
        assert (
            scaled.normalize_content().is_trivially_positive()
            == scaled.is_trivially_positive()
        )
        assert (
            scaled.normalize_content().is_trivially_negative()
            == scaled.is_trivially_negative()
        )


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_compositions_list_every_exponent_vector_in_ascending_order(n):
    for total in range(7):
        assert list(_compositions(total, n)) == sorted(all_exponents(n, total))
