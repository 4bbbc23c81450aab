"""Unit tests for the form grammar, parser and formatter."""

import random
import time
from collections import Counter
from fractions import Fraction
from math import comb
from operator import mul

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from formsign import (
    MAX_DIGITS,
    Form,
    FormSyntaxError,
    InhomogeneousError,
    Outcome,
    VariableContext,
    check_convergence,
    decide,
    engine,
    format_form,
    make_wds_scheme,
    parse_form,
    witness_point,
)
from formsign.forms import _Keys, _write_rational
from formsign.parsing import (
    _Parser,
    _degree_bound,
    _growth,
    _power,
    _power_step_pairs,
    _size,
    _tokenize,
)
from conftest import MIXED_SIGN_TEXT, VARS3, lowest_digit_limit, random_form

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
        for text in ("x*y - x*y", "1/3*x*y - 1/3*x*y"):
            f = parse_form(text, "x,y")
            assert f.is_zero
            assert (f.ints, f.den) == ({}, 1)

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

    def test_form_takes_the_parse_value_in_lowest_terms(self):
        # the parser ends with 2*x*y + 2*x*z over 2; the Form keeps 1 and 1
        # over 1, as Form(n, terms) clears the same coefficients
        text = "1/2*x*(2*y + 2*z)"
        terms, den = _Parser(text, VariableContext.of(VARS3)).parse()
        assert (sorted(terms.values()), den) == ([2, 2], 2)
        f = parse_form(text, VARS3)
        assert (f.ints, f.den) == ({(1, 1, 0): 1, (1, 0, 1): 1}, 1)
        assert f == Form(3, f.terms)


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

    def test_long_exponent_at_the_lowest_digit_limit(self):
        # a 700-digit exponent, past Python's lowest int-to-str limit, is
        # still named in the message
        with lowest_digit_limit():
            with pytest.raises(FormSyntaxError, match="exceeds the maximum 65536") as exc:
                parse_form("x^" + "9" * 700, "x")
        assert exc.value.position == 2
        assert f"exponent {'9' * 700} exceeds" in str(exc.value)

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
            ("(((x^65536)^65536)^65536)^65536", 25),  # one term, a pair a step
            ("(2^1000)^1500*x", 8),
            # 100 000-bit factors, each cheap; their products grow in size
            ("*".join(["(2^1000)^100"] * 16) + "*x", 181),
            # 5 151 terms of 14 450 bits brought over a 4 300-digit denominator
            ("(x+y+z)^100*" + "9" * MAX_DIGITS + " + 1/" + "9" * MAX_DIGITS + "*x^100", 4313),
        ],
        ids=["power-of-power", "power-tower", "power", "product-chain", "rescaled-sum"],
    )
    def test_large_coefficients_count_against_the_work_limit(self, text, position):
        with pytest.raises(FormSyntaxError, match="more than 1000000 pairs") as exc:
            parse_form(text, VARS3)
        assert exc.value.position == position

    @pytest.mark.parametrize(
        "text, pairs", [("x^65536 - y^65536", 590_336), ("((x^65536)^65536)^65536", 885_504)]
    )
    def test_one_term_powers_charge_one_weighted_pair_a_step(self, text, pairs):
        # step j of a one-term power multiplies one pair of terms, weighted
        # by the bits of the j-th power's coefficient
        parser = _Parser(text, VariableContext.of(VARS3))
        parser.parse()
        assert parser.pairs == pairs

    def test_a_power_of_zero_keeps_no_denominator(self):
        # a zero base charges no term pair, so raising its 4 300-digit
        # denominator to the 65 536th power, a 117 MB int, would go unbounded
        big = "9" * MAX_DIGITS
        text = f"x + (0/{big})^65536*x + (1/{big}*y - 1/{big}*y)^65536*x"
        start = time.process_time()
        assert parse_form(text, "x,y") == parse_form("x", "x,y")
        assert time.process_time() - start < 1

    @pytest.mark.parametrize(
        "template",
        [
            "{P}*{D}/{D}",
            "{P} + 0/{D}*v0^2",
            "1/{D}*{D}*{P}",
            "{P} + (1/{D}*v0^2 - 1/{D}*v0^2)",
        ],
        ids=["literal-in-lowest-terms", "zero-literal", "one-term-product", "empty-sum"],
    )
    def test_a_value_equal_to_an_integer_one_parses(self, template):
        # P, the square of the sum of 101 variables, has 5 151 terms: over a
        # 4 300-digit denominator, dividing them once at the end would pass
        # the work limit
        names = [f"v{i}" for i in range(101)]
        square = "(" + "+".join(names) + ")^2"
        text = template.format(P=square, D="9" * MAX_DIGITS)
        assert parse_form(text, names) == parse_form(square, names)

    def test_large_coefficient_under_the_work_limit_parses(self):
        assert parse_form("(2^1000)^100*x", VARS3).terms == {(1, 0, 0): 2**100000}

    @pytest.mark.parametrize(
        "base",
        [
            ({(1, 0, 0): 1, (0, 1, 0): 1, (0, 0, 1): 1}, 1),
            ({(2, 0, 0): 1, (1, 1, 0): -2, (0, 0, 2): 3}, 1),
            ({(2, 0, 0): 1, (0, 1, 0): 1, (0, 0, 0): 5}, 1),  # mixed degrees
            # 1/3*x - 5/7*y + 2^70*z over the common denominator 21
            ({(1, 0, 0): 7, (0, 1, 0): -15, (0, 0, 1): 21 * 2**70}, 21),
        ],
    )
    def test_power_bound_covers_the_work(self, base):
        terms = base[0]
        # the bases are written with exponent tuples; the parser keys its
        # values by _Keys, here wide enough for the 11th power of degree 2
        keys = _Keys(3, 22)
        base = ({sum(map(mul, e, keys.units)): v for e, v in terms.items()}, base[1])
        powers = [_power(base, j) for j in range(12)]
        done = [len(p[0]) * len(terms) for p in powers]
        bounds = list(_power_step_pairs(base[0], 12, keys))
        assert all(b >= d for b, d in zip(bounds, done, strict=True))
        if all(sum(e) == 1 for e in terms):
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

    def test_tokens_and_positions_around_any_whitespace(self):
        # Unicode whitespace is skipped like a space, any other character
        # that starts no token is refused where it stands, and a long
        # whitespace tail costs linear time (a regex alternation with a
        # leading \s* would retry the tail from each of its positions)
        text = "\u3000x\t^ 2\u2003+\n12"
        assert _tokenize(text) == [
            ("NAME", "x", 1), ("^", "^", 3), ("NUM", 2, 5), ("+", "+", 7),
            ("NUM", 12, 9), ("END", None, 11),
        ]
        with pytest.raises(FormSyntaxError) as exc:
            _tokenize("x \u00b2")
        assert str(exc.value) == "unexpected character '\u00b2' (at position 2)"
        start = time.process_time()
        tail = "x" + " " * 10**6
        assert _tokenize(tail) == [("NAME", "x", 0), ("END", None, len(tail))]
        assert time.process_time() - start < 1.0

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

    def test_long_numbers_round_trip_at_the_lowest_digit_limit(self):
        # 904- and 955-digit coefficients, past 640 digits, Python's lowest
        # int-to-str limit: format_form must still write them
        form = parse_form("2^3000*x + 1/3^2000*y", "x,y")
        with lowest_digit_limit():
            text = format_form(form, "x,y")
            assert parse_form(text, "x,y") == form
        assert text == f"{_write_rational(2**3000)}*x + 1/{_write_rational(3**2000)}*y"

    def test_round_trip_random_forms(self):
        rng = random.Random(1387)
        for _ in range(40):
            n = rng.choice([2, 3])
            f = random_form(rng, n, rng.randint(1, 5))
            names = VARS3[:n]
            assert parse_form(format_form(f, names), names) == f


# ---------------------------------------------------------------------------
# the parser against a Fraction fold of the same expression tree

# a tree is ("num", p, q), ("var", i), ("neg", a), ("+" or "-" or "*", a, b)
# or ("^", a, e); rendered with only the parentheses the grammar needs
_ATOM, _POWER, _UNARY, _PRODUCT, _SUM = 5, 4, 3, 2, 1


@st.composite
def trees(draw, n: int, degree: int, depth: int = 3):
    """A random expression tree, homogeneous of the given degree."""
    if not depth or not draw(st.integers(0, 3)):
        # a leaf: a literal, or a product of degree variables
        if not degree:
            p = draw(st.integers(0, 10**6))
            return ("num", p, draw(st.one_of(st.none(), st.integers(1, 10**6))))
        tree = ("var", draw(st.integers(0, n - 1)))
        for _ in range(degree - 1):
            tree = ("*", tree, ("var", draw(st.integers(0, n - 1))))
        return tree
    kind = draw(st.sampled_from(["+", "-", "neg", "*", "^"]))
    if kind == "neg":
        return ("neg", draw(trees(n, degree, depth - 1)))
    if kind == "*":
        left = draw(st.integers(0, degree))
        return ("*", draw(trees(n, left, depth - 1)), draw(trees(n, degree - left, depth - 1)))
    if kind == "^":
        if degree:
            e = draw(st.sampled_from([e for e in range(1, 5) if degree % e == 0]))
            return ("^", draw(trees(n, degree // e, depth - 1)), e)
        e = draw(st.integers(0, 4))  # x^0 is 1, so any base works
        return ("^", draw(trees(n, 0 if e else draw(st.integers(0, 2)), depth - 1)), e)
    return (kind, draw(trees(n, degree, depth - 1)), draw(trees(n, degree, depth - 1)))


def render(tree, names) -> tuple[str, int]:
    """(text, precedence) of a tree; a child is parenthesized only where the
    grammar would otherwise read it differently."""

    def child(sub, least):
        text, prec = render(sub, names)
        return text if prec >= least else f"({text})"

    kind = tree[0]
    if kind == "num":
        _, p, q = tree
        return (str(p) if q is None else f"{p}/{q}"), _ATOM
    if kind == "var":
        return names[tree[1]], _ATOM
    if kind == "neg":
        return "-" + child(tree[1], _UNARY), _UNARY
    if kind == "^":
        return f"{child(tree[1], _ATOM)}^{tree[2]}", _POWER
    if kind == "*":
        return f"{child(tree[1], _PRODUCT)}*{child(tree[2], _UNARY)}", _PRODUCT
    return f"{child(tree[1], _SUM)} {kind} {child(tree[2], _PRODUCT)}", _SUM


def fold(tree, n: int) -> dict:
    """The tree's expansion as a dict of Fractions, term by term."""

    def times(a: dict, b: dict) -> dict:
        out: dict = {}
        for ka, va in a.items():
            for kb, vb in b.items():
                k = tuple(x + y for x, y in zip(ka, kb))
                out[k] = out.get(k, F(0)) + va * vb
        return out

    def plus(a: dict, b: dict, sign: int) -> dict:
        out = dict(a)
        for k, v in b.items():
            out[k] = out.get(k, F(0)) + sign * v
        return out

    kind = tree[0]
    if kind == "num":
        _, p, q = tree
        return {(0,) * n: F(p, q or 1)}
    if kind == "var":
        return {tuple(int(i == tree[1]) for i in range(n)): F(1)}
    if kind == "neg":
        return {k: -v for k, v in fold(tree[1], n).items()}
    if kind == "^":
        base, out = fold(tree[1], n), {(0,) * n: F(1)}
        for _ in range(tree[2]):
            out = times(out, base)
        return out
    a, b = fold(tree[1], n), fold(tree[2], n)
    return times(a, b) if kind == "*" else plus(a, b, -1 if kind == "-" else 1)


NAMES5 = ("x", "y", "z", "u", "v")


@st.composite
def expressions(draw):
    n = draw(st.integers(1, 5))
    degree = draw(st.integers(0, 3))
    return n, draw(trees(n, degree))


@settings(derandomize=True, deadline=None, database=None, max_examples=400)
@given(expressions())
def test_parse_matches_the_fraction_fold(case):
    n, tree = case
    names = NAMES5[:n]
    text, _ = render(tree, names)
    assert parse_form(text, names) == Form(n, fold(tree, n))


# x * y^E * z with E built by nested powers past the largest value of a 16-,
# 32- and 64-bit key field, and past 2^100 by a 100-fold nested ^2: a field
# too narrow for E would carry into z's field or the degree above it
@pytest.mark.parametrize(
    "exponents",
    [(256, 257), (65536, 65536), (65536,) * 3, (256,) * 8, (2,) * 100],
    ids=["2^16", "2^32", "2^48", "2^64", "2^100"],
)
def test_nested_powers_past_each_key_width_match_the_fold(exponents):
    power = ("var", 1)
    for e in exponents:
        power = ("^", power, e)
    tree = ("*", ("*", ("var", 0), power), ("var", 2))
    text, _ = render(tree, VARS3)
    assert parse_form(text, VARS3) == Form(3, fold(tree, 3))


def test_many_summands_keep_narrow_key_fields():
    # 600 summands c*x^2*y^3*z^4 and (x+y+z)^9: the bound counts each
    # variable once per occurrence, 600 * 9 + 3 * 9, so the fields are 16
    # bits wide, where the product of all exponents would give 2 750 bits
    text = " + ".join(f"{c}*x^2*y^3*z^4" for c in range(1, 601)) + " + (x+y+z)^9"
    assert _degree_bound(_tokenize(text)) == 600 * 9 + 3 * 9
    power = ("^", ("+", ("+", ("var", 0), ("var", 1)), ("var", 2)), 9)
    expected = fold(power, 3)
    expected[(2, 3, 4)] += sum(range(1, 601))
    assert parse_form(text, VARS3) == Form(3, expected)


def test_degree_bound_counts_a_zeroth_power_as_a_first():
    # (x+y)^300 is expanded before ^0 makes it 1, in keys that must hold it:
    # its two occurrences count 300 each
    assert _degree_bound(_tokenize("((x+y)^300)^0*z")) == 2 * 300 + 1


def test_key_widths_hold_their_bound():
    tops = (0, 255, 256, 2**16, 2**32, 2**64 - 1, 2**64)
    assert [_Keys(3, top).width for top in tops] == [8, 8, 16, 32, 64, 64, 128]
    for top in (255, 2**16, 2**32, 2**64):
        keys = _Keys(3, top)
        third = top // 3
        exps = [(top, 0, 0), (0, top, 0), (0, 0, top), (third, third, top - 2 * third)]
        packed = [sum(map(mul, e, keys.units)) for e in exps]
        assert [keys.degree(k) for k in packed] == [top] * 4
        assert keys.unpack(packed) == exps


def test_substitute_with_exponents_past_a_byte():
    # x^256*y^44 + y^300 under x -> x + y: 16-bit fields
    form = Form(2, {(256, 44): 1, (0, 300): 1})
    image = form.substitute([[1, 1], [0, 1]])
    expected = {(k, 300 - k): F(comb(256, k)) for k in range(257)}
    expected[(0, 300)] += 1
    assert image == Form(2, expected)


def test_rendered_precedence_reads_as_the_grammar_says():
    # a p/q literal is one atom, so a power raises the whole ratio
    assert render(("^", ("num", 1, 3), 2), VARS3)[0] == "1/3^2"
    assert parse_form("1/3^2*x", VARS3).terms == {(1, 0, 0): F(1, 9)}
    tree = ("-", ("var", 0), ("+", ("var", 1), ("neg", ("var", 2))))
    assert render(tree, VARS3)[0] == "x - (y + -z)"
    assert parse_form("x - (y + -z)", VARS3) == Form(3, fold(tree, 3))


def _primes(count: int) -> list[int]:
    primes: list[int] = []
    c = 2
    while len(primes) < count:
        if all(c % p for p in primes if p * p <= c):
            primes.append(c)
        c += 1
    return primes


def test_many_distinct_denominators_end_in_bounded_time():
    # 3 000 terms 1/p*v_a*v_b over 80 variables with pairwise coprime p: over
    # their common denominator of 39 000 bits, the final gcd with every
    # coefficient takes more than the work limit allows, which is charged at
    # position 0, before the gcd
    names = [f"v{i}" for i in range(80)]
    pairs = [(a, b) for a in range(80) for b in range(a, 80)]
    text = " + ".join(
        f"1/{p}*{names[a]}*{names[b]}" for p, (a, b) in zip(_primes(3000), pairs)
    )
    start = time.process_time()
    with pytest.raises(FormSyntaxError, match="more than 1000000 pairs") as exc:
        parse_form(text, names)
    assert exc.value.position == 0
    assert time.process_time() - start < 5


def test_common_denominator_counts_against_the_work_limit():
    # 129 terms 1/(2^p - 1)*v_a*v_b, p the primes from 13 000 to 14 283, so
    # the denominators are pairwise coprime and of 3 900 to 4 300 digits:
    # each step of their lcm is charged at its summand's operator, before
    # the lcm is taken, and the parse ends there
    ps = [p for p in range(13000, 14284) if all(p % d for d in range(2, 120))]
    names = [f"v{i}" for i in range(20)]
    pairs = [(a, b) for a in range(20) for b in range(a, 20)]
    # _write_rational writes the denominators whatever the int-to-str limit
    text = " + ".join(
        f"1/{_write_rational(2**p - 1)}*{names[a]}*{names[b]}"
        for p, (a, b) in zip(ps, pairs)
    )
    start = time.process_time()
    with pytest.raises(FormSyntaxError, match="more than 1000000 pairs") as exc:
        parse_form(text, names)
    assert exc.value.position > 0 and text[exc.value.position] == "+"
    assert time.process_time() - start < 5


_FRACTION_ARITHMETIC = (
    "__add__ __radd__ __sub__ __rsub__ __mul__ __rmul__ __truediv__ "
    "__rtruediv__ __floordiv__ __rfloordiv__ __mod__ __rmod__ __divmod__ "
    "__pow__ __rpow__ __neg__ __pos__ __abs__ __eq__ __lt__ __le__ __gt__ __ge__"
).split()


def _count_fraction_arithmetic(monkeypatch, names=_FRACTION_ARITHMETIC) -> Counter:
    """Count every call of the Fraction methods `names`, by default its
    arithmetic, from here to monkeypatch.undo().  Add "__new__" to count
    the Fractions built by name, Fraction(p, q) (from Python 3.12 on the
    results of arithmetic are built without it)."""
    calls: Counter = Counter()
    for name in names:

        def counted(*args, _name=name, _method=getattr(Fraction, name), **kwargs):
            calls[_name] += 1
            return _method(*args, **kwargs)

        monkeypatch.setattr(Fraction, name, counted)
    return calls


def test_parse_and_psd_decide_do_no_fraction_arithmetic(monkeypatch, wds3):
    # a Form keeps the parser's ints over one denominator, and decide reads
    # them, so neither builds a Fraction: not from rational coefficients,
    # nor from integer ones
    texts = (
        "(1/3*x - 2/5*y)^2 + 1/7*(x*z + y*z) - 1/11*z^2 + 3/4*z^2 + 1/6*x*y",
        "x^4 - 2*x^2*y^2 + y^4 + x*y*z^2 + z^4",
    )
    for text in texts:
        calls = _count_fraction_arithmetic(monkeypatch, (*_FRACTION_ARITHMETIC, "__new__"))
        form = parse_form(text, VARS3)
        verdict = decide(form, wds3)
        monkeypatch.undo()
        assert (verdict.outcome, verdict.depth_reached) == (Outcome.PSD, 1)
        assert not calls


def test_cells_are_read_without_fraction_arithmetic(monkeypatch):
    # a scheme built here, so that no table of it is cached yet
    wds4 = make_wds_scheme(4)
    path = (1, 7, 24, 13, 2, 18)
    calls = _count_fraction_arithmetic(monkeypatch)
    point = witness_point(path, wds4)
    mapped = dict(calls)
    engine._Table(wds4, 3)
    built = dict(calls)
    report = check_convergence(wds4)
    monkeypatch.undo()
    assert not mapped
    assert built == mapped
    assert sum(calls.values()) <= len(wds4)
    # the same point by Fraction arithmetic on the cells' rows
    expected = (Fraction(1, 4),) * 4
    for i in reversed(path):
        rows = wds4.matrices[i - 1].rows
        expected = tuple(sum(map(mul, row, expected)) for row in rows)
    assert point == expected
    assert report.contraction_ratio_sq == Fraction(3, 8)
