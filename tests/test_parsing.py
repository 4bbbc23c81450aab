"""Unit tests for the form grammar, parser and formatter."""

import random
from fractions import Fraction

import pytest

from formsign import (
    MAX_DIGITS,
    Form,
    FormSyntaxError,
    InhomogeneousError,
    VariableContext,
    format_form,
    parse_form,
)
from formsign.parsing import _growth, _power, _power_step_pairs, _size
from conftest import MIXED_SIGN_TEXT, VARS3, random_form

F = Fraction


class TestVariableContext:
    def test_from_comma_string(self):
        ctx = VariableContext.of("x, y , z")
        assert ctx.names == ("x", "y", "z")
        assert ctx.n == 3

    def test_from_iterable(self):
        ctx = VariableContext.of(["x1", "x2"])
        assert ctx.names == ("x1", "x2")

    def test_passthrough(self):
        ctx = VariableContext.of("a,b")
        assert VariableContext.of(ctx) is ctx

    def test_index(self):
        ctx = VariableContext.of("a,b,c")
        assert ctx.index("b") == 1

    def test_duplicate_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            VariableContext.of("x,x")

    def test_invalid_name_rejected(self):
        with pytest.raises(ValueError, match="invalid variable name"):
            VariableContext.of("x,2y")

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            VariableContext.of([])


class TestParseBasics:
    def test_simple_quadratic(self):
        f = parse_form("x^2 - 2*x*y", "x,y")
        assert f.terms == {(2, 0): F(1), (1, 1): F(-2)}

    def test_rational_coefficient(self):
        f = parse_form("5/6*x*y", "x,y")
        assert f.terms == {(1, 1): F(5, 6)}

    def test_unary_minus_binds_after_ratio(self):
        f = parse_form("-1/3*x^3", "x,y")
        assert f.terms == {(3, 0): F(-1, 3)}

    def test_double_unary_minus(self):
        f = parse_form("--x^2", "x,y")
        assert f.terms == {(2, 0): F(1)}

    def test_parenthesized_power(self):
        f = parse_form("(x + y)^2", "x,y")
        assert f.terms == {(2, 0): F(1), (1, 1): F(2), (0, 2): F(1)}

    def test_numeric_power(self):
        f = parse_form("(1/2)^2 * x^2", "x,y")
        assert f.terms == {(2, 0): F(1, 4)}

    def test_subtraction_chain(self):
        f = parse_form("x^2 - x*y - x*y", "x,y")
        assert f.terms == {(2, 0): F(1), (1, 1): F(-2)}

    def test_cancellation_to_zero(self):
        f = parse_form("x*y - x*y", "x,y")
        assert f.is_zero

    def test_multicharacter_names(self):
        f = parse_form("x1^2 - x2*x3", ("x1", "x2", "x3"))
        assert f.terms == {(2, 0, 0): F(1), (0, 1, 1): F(-1)}

    def test_degree_six_difference_expansion(self, sym_diff_form):
        assert sym_diff_form.degree == 6
        assert len(sym_diff_form.terms) == 18
        assert sym_diff_form.coefficient((6, 0, 0)) == 1
        assert sym_diff_form.coefficient((0, 6, 0)) == 1
        assert sym_diff_form.coefficient((1, 5, 0)) == -1

    def test_multinomial_power(self):
        f = parse_form("(x+y+z)^12", VARS3)
        assert f.coefficient((4, 4, 4)) == 34650
        assert all(type(c) is Fraction for c in f.terms.values())

    def test_rational_power_equals_the_repeated_product(self):
        base = "(1/3*x - 5/7*y + 2*z)"
        power = parse_form(f"{base}^9", VARS3)
        assert power == parse_form("*".join([base] * 9), VARS3)
        assert power.coefficient((9, 0, 0)) == F(1, 3**9)

    def test_power_just_under_the_work_limit_parses(self):
        # 515 100 term pairs, about half of MAX_TERM_PAIRS
        form = parse_form("(x+y+z)^100", VARS3)
        assert len(form.terms) == 5151
        assert form.terms[(34, 33, 33)] > 0

    def test_rational_literals_cancel(self):
        assert parse_form("2/4*x - 1/2*x + y", VARS3) == parse_form("y", VARS3)

    def test_nine_term_example(self, mixed_sign_form):
        assert len(mixed_sign_form.terms) == 9
        assert mixed_sign_form.coefficient((4, 1, 1)) == -2
        assert mixed_sign_form.coefficient((0, 6, 0)) == 1


class TestParseErrors:
    def test_implicit_multiplication_rejected(self):
        with pytest.raises(FormSyntaxError, match="written with '\\*'") as exc:
            parse_form("x y", "x,y")
        assert exc.value.position == 2

    def test_number_then_name_rejected(self):
        with pytest.raises(FormSyntaxError, match="written with '\\*'"):
            parse_form("2x", "x,y")

    def test_unknown_variable(self):
        with pytest.raises(FormSyntaxError, match="unknown variable 'w'"):
            parse_form("x + w", "x,y")

    def test_longest_literal_parses(self):
        big = "9" * MAX_DIGITS
        form = parse_form(f"{big}*x - 1/{big}*y", "x,y")
        assert form.coefficient((1, 0)) == 10**MAX_DIGITS - 1
        assert form.coefficient((0, 1)) == F(-1, 10**MAX_DIGITS - 1)

    @pytest.mark.parametrize(
        "template, position",
        [("{}*x", 0), ("x - 1/{}*y", 6), ("x^{}", 2), ("(x + y)*{}/7*x", 8)],
    )
    def test_literal_past_max_digits_fails_at_its_position(self, template, position):
        text = template.format("1" * (MAX_DIGITS + 1))
        with pytest.raises(FormSyntaxError) as exc:
            parse_form(text, "x,y")
        assert exc.value.position == position
        assert str(exc.value) == (
            f"integer literal longer than {MAX_DIGITS} digits (at position {position})"
        )

    def test_exponent_cap(self):
        with pytest.raises(FormSyntaxError, match="exceeds the maximum 65536"):
            parse_form("x^65537", "x,y")

    @pytest.mark.parametrize(
        "text, position",
        [("(x+y+z)^200", 7), ("(x+y+z)^60*(x+y+z)^60", 10)],
    )
    def test_work_limit_is_a_syntax_error_at_the_operator(self, text, position):
        with pytest.raises(FormSyntaxError, match="more than 1000000 pairs") as exc:
            parse_form(text, VARS3)
        assert exc.value.position == position

    @pytest.mark.parametrize(
        "text, position",
        [
            ("(2^65536)^1000*x", 9),  # one term, a 64-million-bit coefficient
            ("(2^1000)^1500*x", 8),
            # 100 000-bit factors, each cheap; their products grow in size
            ("*".join(["(2^1000)^100"] * 16) + "*x", 181),
        ],
        ids=["power-of-power", "power", "product-chain"],
    )
    def test_large_coefficients_count_against_the_work_limit(self, text, position):
        with pytest.raises(FormSyntaxError, match="more than 1000000 pairs") as exc:
            parse_form(text, VARS3)
        assert exc.value.position == position

    def test_large_coefficient_under_the_work_limit_parses(self):
        assert parse_form("(2^1000)^100*x", VARS3).terms == {(1, 0, 0): 2**100000}

    @pytest.mark.parametrize(
        "base",
        [
            {(1, 0, 0): 1, (0, 1, 0): 1, (0, 0, 1): 1},
            {(2, 0, 0): 1, (1, 1, 0): -2, (0, 0, 2): 3},
            {(2, 0, 0): 1, (0, 1, 0): 1, (0, 0, 0): 5},  # mixed degrees
            {(1, 0, 0): F(1, 3), (0, 1, 0): F(-5, 7), (0, 0, 1): 2**70},
        ],
    )
    def test_power_bound_covers_the_work(self, base):
        powers = [_power(base, j, 3) for j in range(12)]
        done = [len(p) * len(base) for p in powers]
        bounds = list(_power_step_pairs(base, 12, 3))
        assert all(b >= d for b, d in zip(bounds, done, strict=True))
        if all(sum(e) == 1 for e in base):
            assert bounds == done  # exact for a sum of the variables
        # coefficient sizes, which weight the pairs, stay under j * growth
        assert all(_size(p) <= j * _growth(base) for j, p in enumerate(powers) if j)

    def test_negative_exponent(self):
        with pytest.raises(FormSyntaxError, match="nonnegative integer exponent"):
            parse_form("x^-2", "x,y")

    def test_zero_denominator(self):
        with pytest.raises(FormSyntaxError, match="zero denominator"):
            parse_form("1/0*x", "x,y")

    def test_division_by_variable_rejected(self):
        with pytest.raises(FormSyntaxError):
            parse_form("x/3", "x,y")

    def test_missing_close_paren(self):
        with pytest.raises(FormSyntaxError, match="expected '\\)'"):
            parse_form("(x + y", "x,y")

    def test_unmatched_close_paren(self):
        with pytest.raises(FormSyntaxError, match="unmatched '\\)'"):
            parse_form(")", "x,y")

    def test_empty_input(self):
        with pytest.raises(FormSyntaxError, match="unexpected end of input"):
            parse_form("", "x,y")

    def test_trailing_operator(self):
        with pytest.raises(FormSyntaxError, match="unexpected end of input"):
            parse_form("x +", "x,y")

    def test_unexpected_character(self):
        with pytest.raises(FormSyntaxError, match="unexpected character"):
            parse_form("x $ y", "x,y")

    def test_deep_nesting_is_a_syntax_error(self):
        # 100 levels parse; 2000 parentheses or minus signs would overflow
        # the recursive descent, so they are refused as syntax errors
        assert parse_form("(" * 100 + "x" + ")" * 100, "x,y") == parse_form("x", "x,y")
        assert parse_form("-" * 100 + "x", "x,y") == parse_form("x", "x,y")
        for text in ("(" * 2000 + "x" + ")" * 2000, "-" * 2000 + "x"):
            with pytest.raises(FormSyntaxError, match="nested more than 100 levels"):
                parse_form(text, "x,y")

    def test_position_reported(self):
        with pytest.raises(FormSyntaxError) as exc:
            parse_form("x^2 + w", "x,y")
        assert exc.value.position == 6
        assert "(at position 6)" in str(exc.value)

    def test_inhomogeneous_rejected(self):
        with pytest.raises(InhomogeneousError) as exc:
            parse_form("x^2 + x", "x,y")
        assert exc.value.degrees == (1, 2)

    def test_constant_alone_is_inhomogeneous_with_variables(self):
        # a pure constant is a degree-0 form; mixing with x^2 must fail
        with pytest.raises(InhomogeneousError):
            parse_form("1 + x^2", "x,y")


class TestFormat:
    def test_convention(self):
        f = Form(2, {(2, 0): 1, (1, 1): -2})
        assert format_form(f, "x,y") == "x^2 - 2*x*y"

    def test_zero_form(self):
        assert format_form(Form(2, {}), "x,y") == "0"

    def test_unit_coefficients_bare(self):
        f = Form(2, {(2, 0): 1, (0, 2): -1})
        assert format_form(f, "x,y") == "x^2 - y^2"

    def test_rational_coefficient_rendered_as_ratio(self):
        f = Form(2, {(1, 1): F(-5, 6)})
        assert format_form(f, "x,y") == "-5/6*x*y"

    def test_graded_lex_descending(self):
        f = Form(2, {(1, 1): 1, (2, 0): 1, (0, 2): 1})
        assert format_form(f, "x,y") == "x^2 + x*y + y^2"

    def test_dimension_mismatch(self):
        f = Form(2, {(2, 0): 1})
        with pytest.raises(ValueError, match="variable names"):
            format_form(f, "x,y,z")

    def test_round_trip_nine_term_example(self, mixed_sign_form):
        text = format_form(mixed_sign_form, VARS3)
        assert parse_form(text, VARS3) == mixed_sign_form

    def test_round_trip_matches_source_text(self, mixed_sign_form):
        # the source text is already in descending graded-lex order
        assert format_form(mixed_sign_form, VARS3) == MIXED_SIGN_TEXT

    def test_round_trip_random_forms(self):
        rng = random.Random(1387)
        for _ in range(40):
            n = rng.choice([2, 3])
            f = random_form(rng, n, rng.randint(1, 5))
            names = VARS3[:n]
            assert parse_form(format_form(f, names), names) == f
