"""Unit tests for the exact polynomial core."""

import time
import tracemalloc
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from formsign import (
    MAX_DIGITS,
    DimensionMismatchError,
    Form,
    InhomogeneousError,
    Outcome,
    as_fraction,
    decide,
    format_form,
    make_wds_scheme,
    parse_form,
)
from formsign.forms import _compositions, _write_rational
from conftest import all_exponents

F = Fraction
EXAMPLES = settings(derandomize=True, deadline=None, database=None, max_examples=300)
WDS = {n: make_wds_scheme(n) for n in (2, 3, 4)}


def naive_evaluate(form: Form, point) -> Fraction:
    """The value at a point as a per-term Fraction sum: the oracle that
    Form.evaluate's integer evaluation is checked against."""
    total = F(0)
    for exps, coeff in form.terms.items():
        v = coeff
        for p, e in zip(point, exps):
            v *= as_fraction(p) ** e
        total += v
    return total


# ints and p/q of up to 300 bits, and forms in 1-4 variables of degree 0-6
# with any subset of the monomials (none gives the zero form)
_BOUND = 2**300
rationals = st.one_of(
    st.integers(-_BOUND, _BOUND),
    st.builds(F, st.integers(-_BOUND, _BOUND), st.integers(1, _BOUND)),
)


@st.composite
def forms(draw, min_n: int = 1) -> Form:
    n = draw(st.integers(min_n, 4))
    degree = draw(st.integers(0, 6))
    monomials = list(_compositions(degree, n))
    support = draw(st.lists(st.sampled_from(monomials), unique=True, max_size=12))
    return Form(n, {e: draw(rationals) for e in support}, degree=degree)


# zero, negative and p/q coordinates, also as 'p/q' text
coordinates = st.one_of(
    st.just(0),
    st.integers(-1000, 1000),
    st.builds(F, st.integers(-(10**9), 10**9), st.integers(1, 10**9)),
    st.builds(lambda p, q: f"{p}/{q}", st.integers(-99, 99), st.integers(1, 99)),
)


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

    @pytest.mark.parametrize(
        "text", ["0.5", "1e-1", "1_000", " 3 ", "1/0", "1/-2", "\u00bd", "\u0663", "", "/2"]
    )
    def test_only_integers_and_ratios_are_read(self, text):
        with pytest.raises(ValueError) as exc:
            as_fraction(text)
        assert str(exc.value) == f"not a rational number: {text!r}"

    def test_exponent_refused_without_expanding_it(self):
        start = time.process_time()
        with pytest.raises(ValueError, match="not a rational number"):
            as_fraction("1e2000000")
        assert time.process_time() - start < 0.1

    def test_longest_integers_read(self):
        # read in runs of at most 640 digits, so no interpreter limit applies
        big = "9" * MAX_DIGITS
        assert as_fraction(f"-1/{big}") == F(-1, 10**MAX_DIGITS - 1)
        assert as_fraction("+" + "1" * 641) == (10**641 - 1) // 9
        with pytest.raises(ValueError, match=f"longer than {MAX_DIGITS} digits"):
            as_fraction("1" * (MAX_DIGITS + 1))
        with pytest.raises(ValueError, match=f"longer than {MAX_DIGITS} digits"):
            as_fraction(f"1/{big}9")

    def test_long_fractions_written_in_full(self):
        # a 5 001-digit denominator, checked against arithmetic, not str()
        value = F(-3, 10**5000 + 7)
        text = _write_rational(value)
        assert text == "-3/1" + "0" * 4999 + "7"
        assert _write_rational(10**1280) == "1" + "0" * 1280
        assert _write_rational(10**640 - 1) == "9" * 640
        assert _write_rational(10**640) == "1" + "0" * 640
        assert _write_rational(F(2, 3)) == "2/3"


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
        assert (f.ints, f.den, f.terms) == ({}, 1, {})

    def test_zero_form_with_declared_degree(self):
        f = Form(3, {}, degree=4)
        assert f.is_zero
        assert f.degree == 4

    def test_all_zero_coefficients_is_zero_form(self):
        f = Form(2, {(3, 0): 0, (0, 3): F(0), (1, 2): "0/7"})
        assert f.is_zero
        assert (f.ints, f.den) == ({}, 1)

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

    @pytest.mark.parametrize("exps", [(1.0, 1), (True, 1), ("1", 1), (1, None)])
    def test_exponents_must_be_ints(self, exps):
        # parse_form and expand_level build their forms without these checks;
        # the public constructor keeps every one
        with pytest.raises(ValueError, match="nonnegative ints"):
            Form(2, {exps: 1})

    def test_parsed_form_equals_the_checked_one(self):
        f = parse_form("x^2 - 3/4*x*y + 5*y^2", "x,y")
        assert all(type(c) is F and c for c in f.terms.values())
        assert f == Form(2, dict(f.terms)) and f.degree == 2

    def test_float_coefficient_rejected(self):
        with pytest.raises(TypeError):
            Form(2, {(1, 1): 0.25})

    def test_string_coefficients_accepted(self):
        f = Form(2, {(1, 1): "3/4"})
        assert f.coefficient((1, 1)) == F(3, 4)

    def test_no_variables_rejected(self):
        with pytest.raises(ValueError):
            Form(0, {})
        with pytest.raises(ValueError):
            Form(True, {(1,): 1})

    def test_equality_and_hash(self):
        a = Form(2, {(2, 0): 1, (0, 2): -1})
        b = Form(2, {(0, 2): F(-1), (2, 0): F(1)})
        assert a == b
        assert hash(a) == hash(b)
        assert a != Form(2, {(2, 0): 1})

    def test_coefficients_kept_as_ints_over_one_denominator(self):
        f = Form(2, {(2, 0): "2/4", (0, 2): "1/2"})
        assert (f.ints, f.den) == ({(2, 0): 1, (0, 2): 1}, 2)
        parsed = parse_form("1/2*x^2 + 1/2*y^2", "x,y")
        assert f == parsed and hash(f) == hash(parsed)
        assert f != Form(2, {(2, 0): 1, (0, 2): 1})
        g = Form(2, {(2, 0): F(3, 4), (1, 1): F(-5, 6), (0, 2): 2})
        assert (g.ints, g.den) == ({(2, 0): 9, (1, 1): -10, (0, 2): 24}, 12)
        assert g.terms == {(2, 0): F(3, 4), (1, 1): F(-5, 6), (0, 2): F(2)}


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


@EXAMPLES
@given(forms(), st.data())
def test_evaluate_matches_the_per_term_sum(form, data):
    point = data.draw(st.lists(coordinates, min_size=form.n, max_size=form.n))
    assert form.evaluate(point) == naive_evaluate(form, point)


@EXAMPLES
@given(forms())
def test_one_canonical_representation(form):
    # the ints and den are in lowest terms, so the Fractions they give
    # rebuild the same form, and so does the text the form prints as
    names = ["x", "y", "z", "w"][: form.n]
    assert gcd(form.den, *form.ints.values()) == 1 and form.den > 0
    rebuilt = Form(form.n, form.terms, degree=form.degree)
    assert rebuilt == form and hash(rebuilt) == hash(form)
    if not form.is_zero:  # "0" parses as the zero form of degree 0
        assert parse_form(format_form(form, names), names) == form


@EXAMPLES
@given(forms(min_n=2))
def test_decide_settles_depth_zero_as_the_classifiers_do(form):
    if form.is_zero:
        return
    verdict = decide(form, WDS[form.n], max_depth=1)
    if form.is_trivially_negative():
        assert (verdict.outcome, verdict.depth_reached) == (Outcome.INDEFINITE, 0)
        assert verdict.witness_value == naive_evaluate(form, verdict.witness_point) < 0
    elif form.is_trivially_positive():
        assert (verdict.outcome, verdict.depth_reached) == (Outcome.PSD, 0)
    else:
        assert verdict.depth_reached == 1


def test_evaluate_a_sparse_form_of_high_degree_in_little_memory():
    # only the powers the two terms use are built, each about 28 kB, not
    # every power of 11 up to the 65 536th (gigabytes)
    form = Form(2, {(65536, 0): 1, (0, 65536): -1})
    tracemalloc.start()
    try:
        value = form.evaluate([F(11, 12), F(1, 12)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert value == F(11**65536 - 1, 12**65536)
    assert peak < 4 * 2**20
