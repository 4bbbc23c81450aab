"""Parse and print forms in a small expression grammar.

Grammar (whitespace is ignored, positions are 0-based character offsets):

    expr     := term (('+' | '-') term)*
    term     := unary ('*' unary)*
    unary    := '-' unary | power
    power    := atom ('^' INT)?
    atom     := RATIONAL | NAME | '(' expr ')'
    RATIONAL := INT ('/' INT)?

Multiplication is always explicit ('x y' and '2x' are errors), '/' only
joins two integer literals into one rational constant, and exponents are
nonnegative integers capped at 2**16.  '-1/3*x^3' therefore denotes
(-1/3) * x**3.  An integer literal has at most MAX_DIGITS (4300) digits,
parentheses and unary minus signs nest at most 100 deep, and expanding
one input may multiply at most 10**6 pairs of terms, a pair of large
coefficients counting as several (see _pair_weight), and bringing terms to
a new common denominator counts as well, so a hostile input is a syntax
error rather than a blown Python stack or a parse that runs for minutes.
The same grammar is used for the --form command line argument; scheme
files use their own simpler row format.

The parser expands as it reads, on int coefficients over one common
denominator, with each monomial packed into one int key (forms._Keys) whose
field width comes from a bound on every term's degree read off the tokens
first; parse_form turns the keys back into exponent tuples once per term.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from itertools import repeat
from math import comb, gcd, lcm
from typing import Iterable, Iterator, Sequence

from .forms import (
    _DIGITS,
    Form,
    InhomogeneousError,
    _Keys,
    _lowest,
    _mul,
    _read_int,
    _write_rational,
)

MAX_EXPONENT = 2**16
MAX_NESTING = 100  # each level costs the recursive descent up to 5 stack frames
# term pairs one parse may multiply, counted before each product or power;
# (x+y+z)^100 takes 515 100 of them
MAX_TERM_PAIRS = 10**6
# a fixed unit of the work limit for coefficient size: this many products of two
# 64-bit words count as one more term pair (see _pair_weight)
_WORD_PRODUCTS_PER_PAIR = 256

# A parse value is (terms, den): a map from the parse's _Keys keys, one int
# per monomial, to nonzero ints, and one positive int den they are all over.
Value = tuple[dict, int]

_NAME_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")


class FormSyntaxError(ValueError):
    """Syntax or naming problem in a form expression, with its position."""

    def __init__(self, message: str, position: int):
        self.position = position
        super().__init__(f"{message} (at position {position})")


@dataclass(frozen=True)
class VariableContext:
    """An ordered tuple of distinct variable names; order fixes coordinates."""

    names: tuple[str, ...]

    def __post_init__(self):
        if not self.names:
            raise ValueError("need at least one variable name")
        seen = set()
        for name in self.names:
            if not _NAME_RE.fullmatch(name):
                raise ValueError(f"invalid variable name {name!r}")
            if name in seen:
                raise ValueError(f"duplicate variable name {name!r}")
            seen.add(name)

    @classmethod
    def of(cls, names: Iterable[str] | str) -> "VariableContext":
        """Build from an iterable of names or a comma-separated string."""
        if isinstance(names, VariableContext):
            return names
        if isinstance(names, str):
            names = [part.strip() for part in names.split(",")]
        return cls(tuple(names))

    @property
    def n(self) -> int:
        return len(self.names)

    def index(self, name: str) -> int:
        return self.names.index(name)


# token kinds: NUM, NAME, and single-character operators
_OPS = set("+-*^()/")


def _tokenize(text: str) -> list[tuple[str, object, int]]:
    tokens = []
    i = 0
    while i < len(text):
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch in _OPS:
            tokens.append((ch, ch, i))
            i += 1
            continue
        m = _DIGITS.match(text, i)
        if m:
            try:
                tokens.append(("NUM", _read_int(m.group()), i))
            except ValueError as exc:
                raise FormSyntaxError(str(exc), i) from None
            i = m.end()
            continue
        m = _NAME_RE.match(text, i)
        if m:
            tokens.append(("NAME", m.group(), i))
            i = m.end()
            continue
        raise FormSyntaxError(f"unexpected character {ch!r}", i)
    tokens.append(("END", None, len(text)))
    return tokens


class _Parser:
    """Recursive descent over the token list, producing values directly.

    A value is a term map of int coefficients over one positive common
    denominator, keyed by `keys`, whose fields hold every degree the tokens
    can reach: a product multiplies the denominators, a power raises it,
    and a sum brings its summands to the lcm of theirs.  A literal p/q is
    in lowest terms, a one-term factor cancels against the other factor's
    denominator (_times), and an empty value is over 1.  parse_form hands
    the final ints and den to the Form after one gcd.
    """

    def __init__(self, text: str, ctx: VariableContext):
        self.tokens = _tokenize(text)
        self.keys = _Keys(ctx.n, _degree_bound(self.tokens))
        self.pos = 0
        # parentheses and minus signs around the factor being parsed; the
        # top-level unary call brings it to 0
        self.depth = -1
        self.pairs = 0  # term pairs multiplied so far
        self.ctx = ctx

    def peek(self):
        return self.tokens[self.pos]

    def advance(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def charge(self, pairs: int, at: int) -> None:
        """Add the weighted term pairs an operator is about to multiply to the
        parse's count, and fail at the operator's position `at` once it passes
        MAX_TERM_PAIRS."""
        self.pairs += pairs
        if self.pairs > MAX_TERM_PAIRS:
            raise FormSyntaxError(
                f"expanding the expression multiplies more than {MAX_TERM_PAIRS} "
                "pairs of terms (a pair of large coefficients counts as several)",
                at,
            )

    def parse(self) -> Value:
        value = self.expr()
        kind, _, at = self.peek()
        if kind != "END":
            if kind in ("NAME", "NUM", "("):
                raise FormSyntaxError(
                    "expected an operator before this (multiplication must be written with '*')",
                    at,
                )
            raise FormSyntaxError(f"unexpected {kind!r}", at)
        return value

    def expr(self) -> Value:
        value = self.term()
        if self.peek()[0] not in ("+", "-"):
            return value
        # (value, sign, operator position) per summand; the first is charged
        # at the first operator
        parts = [(value, 1, self.peek()[2])]
        while self.peek()[0] in ("+", "-"):
            op, _, at = self.advance()
            parts.append((self.term(), -1 if op == "-" else 1, at))
        # every summand goes over the lcm of all their denominators at once,
        # so none is rescaled again at a later operator.  Each summand is
        # charged at its operator, by the sizes of the ints involved: a step
        # of the lcm as a gcd and a product, then the division giving its
        # factor and the product of each of its terms by that factor (an
        # empty summand has denominator 1)
        den = 1
        for (_, old), _, at in parts:
            if old > 1 and den > 1 and old != den:
                self.charge(2 * _pair_weight(den.bit_length(), old.bit_length()), at)
                den = lcm(den, old)
            elif old > 1:
                den = old
        out: dict = {}
        for (terms, old), sign, at in parts:
            if old > 1 and old != den:
                self.charge(_pair_weight(den.bit_length(), old.bit_length()), at)
            factor = sign * (den // old)
            if factor != sign:
                weight = _pair_weight(_bits(terms), factor.bit_length())
                self.charge(len(terms) * weight, at)
            for k, v in terms.items():
                v = out.get(k, 0) + v * factor
                if v:
                    out[k] = v
                elif k in out:
                    del out[k]
        return (out, den) if out else ({}, 1)

    def term(self) -> Value:
        value = self.unary()
        while self.peek()[0] == "*":
            _, _, star_at = self.advance()
            rhs = self.unary()
            weight = _pair_weight(_size(value), _size(rhs))
            self.charge(len(value[0]) * len(rhs[0]) * weight, star_at)
            value = _times(value, rhs)
        return value

    def unary(self) -> Value:
        self.depth += 1
        if self.depth > MAX_NESTING:
            raise FormSyntaxError(
                f"expression nested more than {MAX_NESTING} levels deep", self.peek()[2]
            )
        if self.peek()[0] == "-":
            self.advance()
            terms, den = self.unary()
            value = ({k: -v for k, v in terms.items()}, den)
        else:
            value = self.power()
        self.depth -= 1
        return value

    def power(self) -> Value:
        base = self.atom()
        if self.peek()[0] != "^":
            return base
        _, _, caret_at = self.advance()
        kind, value, at = self.advance()
        if kind != "NUM":
            raise FormSyntaxError("expected a nonnegative integer exponent", at)
        if value > MAX_EXPONENT:
            raise FormSyntaxError(
                f"exponent {_write_rational(value)} exceeds the maximum {MAX_EXPONENT}",
                at,
            )
        size, growth = _size(base), _growth(base)
        for j, pairs in enumerate(_power_step_pairs(base[0], value, self.keys)):
            # step j multiplies p^j, whose coefficients have at most
            # j * growth bits, by p's
            self.charge(pairs * _pair_weight(j * growth, size), caret_at)
        return _power(base, value)

    def atom(self) -> Value:
        kind, value, at = self.advance()
        if kind == "NUM":
            den = 1
            # a '/' directly after an integer continues a rational literal
            if self.peek()[0] == "/":
                self.advance()
                dkind, den, dat = self.advance()
                if dkind != "NUM":
                    raise FormSyntaxError("expected an integer denominator", dat)
                if den == 0:
                    raise FormSyntaxError("zero denominator", dat)
            g = gcd(value, den)  # gcd(0, den) is den
            return ({0: value // g} if value else {}), den // g
        if kind == "NAME":
            try:
                j = self.ctx.index(value)
            except ValueError:
                raise FormSyntaxError(f"unknown variable {value!r}", at) from None
            return {self.keys.units[j]: 1}, 1
        if kind == "(":
            inner = self.expr()
            kind2, _, at2 = self.advance()
            if kind2 != ")":
                raise FormSyntaxError("expected ')'", at2)
            return inner
        if kind == ")":
            raise FormSyntaxError("unmatched ')'", at)
        if kind == "END":
            raise FormSyntaxError("unexpected end of input", at)
        raise FormSyntaxError(f"unexpected {value!r}", at)


def _degree_bound(tokens: list[tuple[str, object, int]]) -> int:
    """An upper bound on the degree of every term the parser builds from
    `tokens`, so of every key it makes: each occurrence of a variable
    counts once, times every exponent applied to it or to a parenthesized
    group around it.

    An exponent of 0 counts as 1, since its base is expanded first, and one
    past MAX_EXPONENT as MAX_EXPONENT, since the parse stops at it.  A
    malformed list gets a bound on what is parsed before the error.
    """
    outer: list[int] = []  # the counts of the enclosing groups
    count = 0  # the count of the group being read
    last = 0  # the count of the atom just read, which a '^' raises
    for i, (kind, _, _) in enumerate(tokens):
        if kind == "NAME":
            count += 1
            last = 1
            continue
        if kind == "(":
            outer.append(count)
            count = 0
        elif kind == ")" and outer:
            last = count
            count += outer.pop()
            continue
        elif kind == "^":
            ekind, e, _ = tokens[i + 1]
            if ekind == "NUM" and e > 1:
                count += last * (min(e, MAX_EXPONENT) - 1)
        last = 0
    return count + sum(outer)


def _power_step_pairs(p: dict, e: int, keys: _Keys) -> Iterator[int]:
    """Upper bounds on the term pairs each step of _power(p, e) multiplies,
    for p keyed by `keys`.

    Step j multiplies p^j by p's k terms, and p^j has at most
    min(C(j+k-1, k-1), C(j*hi+n, n) - C(j*lo+n-1, n)) terms: the multisets
    of j of p's terms, and the monomials of degree j*lo to j*hi, where lo and
    hi are p's least and top degree.  For a sum of the n variables the
    bounds are exact.
    """
    k = len(p)
    if k < 2:
        # none for zero; for one term C(j, 0) = 1, and p^j has a monomial
        yield from repeat(1, e * k)
        return
    n = keys.n
    degrees = [keys.degree(key) for key in p]
    lo, hi = min(degrees), max(degrees)
    for j in range(e):
        monomials = comb(j * hi + n, n) - comb(j * lo + n - 1, n)
        yield k * min(comb(j + k - 1, k - 1), monomials)


def _bits(terms: dict) -> int:
    """Bits of the largest int coefficient in a term map (0 if it is empty)."""
    return max(map(int.bit_length, terms.values()), default=0)


def _size(p: Value) -> int:
    """Bits of p's largest int coefficient plus bits of its denominator: at
    least the bits of any one coefficient, numerator plus denominator."""
    terms, den = p
    return _bits(terms) + den.bit_length() if terms else 0


def _growth(p: Value) -> int:
    """Bits each further factor p adds at most to a coefficient of a power of p.

    With D the denominator of p and v its int coefficients, every
    coefficient of p^j is N / D^j with |N| <= (sum |v|)^j.
    """
    terms, den = p
    return sum(map(abs, terms.values())).bit_length() + den.bit_length()


def _pair_weight(a_bits: int, b_bits: int) -> int:
    """How many term pairs one pair of coefficients of a_bits and b_bits bits
    counts as: 1 plus its schoolbook product of 64-bit words, in units of
    _WORD_PRODUCTS_PER_PAIR.  Coefficients of under 960 bits count once."""
    words = (a_bits // 64 + 1) * (b_bits // 64 + 1)
    return 1 + words // _WORD_PRODUCTS_PER_PAIR


def _times(p: Value, q: Value) -> Value:
    """p * q.  A one-term factor's coefficient is first cancelled against the
    other factor's denominator, as Fraction cancels, so the product of two
    one-term values in lowest terms is in lowest terms; a product of
    several terms by several keeps both denominators."""
    (pt, pd), (qt, qd) = p, q
    if len(qt) == 1:
        ((k, v),) = qt.items()
        g = gcd(v, pd)
        qt, pd = {k: v // g}, pd // g
    if len(pt) == 1:
        ((k, v),) = pt.items()
        g = gcd(v, qd)
        pt, qd = {k: v // g}, qd // g
    terms = _mul(pt, qt)
    return (terms, pd * qd) if terms else ({}, 1)


def _power(p: Value, e: int) -> Value:
    terms, den = p
    if len(terms) == 1:
        # a monomial's e-th power has e times its key
        ((k, v),) = terms.items()
        return {k * e: v**e}, den**e
    out = {0: 1}
    for _ in range(e):
        out = _mul(out, terms)
    # a power of zero has no term pairs to charge den^e to: drop den
    return out, den**e if out else 1


def parse_form(text: str, variables: Iterable[str] | str | VariableContext) -> Form:
    """Parse an expression into a Form over the given variables.

    Raises FormSyntaxError (with a character position) for grammar problems
    and InhomogeneousError when the expanded polynomial mixes degrees.
    """
    ctx = VariableContext.of(variables)
    parser = _Parser(text, ctx)
    terms, den = parser.parse()
    if den > 1:
        # _lowest reads every coefficient in one gcd with den
        weight = _pair_weight(_bits(terms), den.bit_length())
        parser.charge(len(terms) * weight, 0)
    # the parser builds only keys of ctx.n exponents >= 0 and drops zero
    # coefficients, so of Form's checks only homogeneity is left
    keys = parser.keys
    degrees = set(map(keys.degree, terms))
    if len(degrees) > 1:
        raise InhomogeneousError(degrees)
    terms, den = _lowest(terms, den)
    ints = dict(zip(keys.unpack(terms), terms.values()))
    return Form._of(ctx.n, ints, den, degrees.pop() if degrees else 0)


def format_form(form: Form, variables: Iterable[str] | str | VariableContext) -> str:
    """Canonical text for a form: terms in descending graded-lex order.

    The output round-trips through parse_form, and does not depend on the
    interpreter's int-to-str digit limit.  The zero form prints as '0'.
    """
    ctx = VariableContext.of(variables)
    if ctx.n != form.n:
        raise ValueError(
            f"{ctx.n} variable names given, form has {form.n} variables"
        )
    if form.is_zero:
        return "0"
    parts: list[str] = []
    # within one homogeneous form graded-lex is plain lex; sort high to low
    ints, den = form.ints, form.den  # each coefficient is ints[e] / den
    for exps in sorted(ints, key=lambda e: (sum(e), e), reverse=True):
        coeff = ints[exps]
        factors = []
        for name, e in zip(ctx.names, exps):
            if e == 1:
                factors.append(name)
            elif e > 1:
                factors.append(f"{name}^{_write_rational(e)}")
        mono = "*".join(factors)
        mag = abs(coeff)
        g = gcd(mag, den)  # |coeff| / den in lowest terms
        text = _write_rational(mag // g)
        if g != den:
            text = f"{text}/{_write_rational(den // g)}"
        if not mono:
            body = text
        elif mag == den:
            body = mono
        else:
            body = f"{text}*{mono}"
        if not parts:
            parts.append(f"-{body}" if coeff < 0 else body)
        else:
            parts.append(f"- {body}" if coeff < 0 else f"+ {body}")
    return " ".join(parts)
