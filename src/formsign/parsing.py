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
coefficients counting as several (see _pair_weight), so a hostile input
is a syntax error rather than a blown Python stack or a parse that runs
for minutes.
The same grammar is used for the --form command line argument; scheme
files use their own simpler row format.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from math import comb, lcm
from operator import attrgetter
from typing import Iterable, Iterator, Sequence

from .forms import Form, _mul, _read_int

MAX_EXPONENT = 2**16
MAX_NESTING = 100  # each level costs the recursive descent up to 5 stack frames
# term pairs one parse may multiply, counted before each product or power;
# (x+y+z)^100 takes 515 100 of them
MAX_TERM_PAIRS = 10**6
# products of two 64-bit words that cost about as much as one term pair's
# loop overhead in forms._mul
_WORD_PRODUCTS_PER_PAIR = 256
_numerator, _denominator = attrgetter("numerator"), attrgetter("denominator")

_NAME_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")
_INT_RE = re.compile(r"[0-9]+")


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
        m = _INT_RE.match(text, i)
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
    """Recursive descent over the token list, producing term maps directly.

    Coefficients stay ints until a p/q literal brings in a Fraction; Form
    coerces them all to Fraction at the end.
    """

    def __init__(self, text: str, ctx: VariableContext):
        self.tokens = _tokenize(text)
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

    def parse(self) -> dict:
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

    def expr(self) -> dict:
        value = self.term()
        while self.peek()[0] in ("+", "-"):
            op = self.advance()[0]
            rhs = self.term()
            value = _add(value, rhs, negate=op == "-")
        return value

    def term(self) -> dict:
        value = self.unary()
        while self.peek()[0] == "*":
            _, _, star_at = self.advance()
            rhs = self.unary()
            weight = _pair_weight(_size(value), _size(rhs))
            self.charge(len(value) * len(rhs) * weight, star_at)
            value = _mul(value, rhs)
        return value

    def unary(self) -> dict:
        self.depth += 1
        if self.depth > MAX_NESTING:
            raise FormSyntaxError(
                f"expression nested more than {MAX_NESTING} levels deep", self.peek()[2]
            )
        if self.peek()[0] == "-":
            self.advance()
            value = {k: -v for k, v in self.unary().items()}
        else:
            value = self.power()
        self.depth -= 1
        return value

    def power(self) -> dict:
        base = self.atom()
        if self.peek()[0] != "^":
            return base
        _, _, caret_at = self.advance()
        kind, value, at = self.advance()
        if kind != "NUM":
            raise FormSyntaxError("expected a nonnegative integer exponent", at)
        if value > MAX_EXPONENT:
            raise FormSyntaxError(
                f"exponent {value} exceeds the maximum {MAX_EXPONENT}", at
            )
        n = self.ctx.n
        size, growth = _size(base), _growth(base)
        for j, pairs in enumerate(_power_step_pairs(base, value, n)):
            # step j multiplies p^j, whose coefficients have at most
            # j * growth bits, by p's
            self.charge(pairs * _pair_weight(j * growth, size), caret_at)
        return _power(base, value, n)

    def atom(self) -> dict:
        kind, value, at = self.advance()
        n = self.ctx.n
        if kind == "NUM":
            coeff = value
            # a '/' directly after an integer continues a rational literal
            if self.peek()[0] == "/":
                self.advance()
                dkind, dvalue, dat = self.advance()
                if dkind != "NUM":
                    raise FormSyntaxError("expected an integer denominator", dat)
                if dvalue == 0:
                    raise FormSyntaxError("zero denominator", dat)
                coeff = Fraction(value, dvalue)
            return {(0,) * n: coeff} if coeff else {}
        if kind == "NAME":
            try:
                j = self.ctx.index(value)
            except ValueError:
                raise FormSyntaxError(f"unknown variable {value!r}", at) from None
            exps = tuple(1 if i == j else 0 for i in range(n))
            return {exps: 1}
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


def _add(p: dict, q: dict, negate: bool = False) -> dict:
    out = dict(p)
    for k, v in q.items():
        s = out.get(k, 0) + (-v if negate else v)
        if s:
            out[k] = s
        elif k in out:
            del out[k]
    return out


def _power_step_pairs(p: dict, e: int, n: int) -> Iterator[int]:
    """Upper bounds on the term pairs each step of _power(p, e, n) multiplies.

    Step j multiplies p^j by p's k terms, and p^j has at most
    min(C(j+k-1, k-1), C(j*hi+n, n) - C(j*lo+n-1, n)) terms: the multisets
    of j of p's terms, and the monomials of degree j*lo to j*hi, where lo and
    hi are p's least and top degree.  For a sum of the n variables the
    bounds are exact.
    """
    k = len(p)
    if not k:
        return
    degrees = [sum(exps) for exps in p]
    lo, hi = min(degrees), max(degrees)
    for j in range(e):
        monomials = comb(j * hi + n, n) - comb(j * lo + n - 1, n)
        yield k * min(comb(j + k - 1, k - 1), monomials)


def _size(p: dict) -> int:
    """Bits of p's largest numerator plus bits of its largest denominator: at
    least the bits of any one coefficient, numerator plus denominator."""
    if not p:
        return 0
    coeffs = p.values()
    return max(map(int.bit_length, map(_numerator, coeffs))) + max(
        map(int.bit_length, map(_denominator, coeffs))
    )


def _growth(p: dict) -> int:
    """Bits each further factor p adds at most to a coefficient of a power of p.

    With L the least common denominator of p's coefficients c, every
    coefficient of p^j is N / L^j with |N| <= (sum |c| * L)^j.
    """
    coeffs = p.values()
    den = lcm(*map(_denominator, coeffs))
    bound = sum(abs(c.numerator) * (den // c.denominator) for c in coeffs)
    return bound.bit_length() + den.bit_length()


def _pair_weight(a_bits: int, b_bits: int) -> int:
    """How many term pairs one pair of coefficients of a_bits and b_bits bits
    counts as: 1 plus its schoolbook product of 64-bit words, in units of
    _WORD_PRODUCTS_PER_PAIR.  Coefficients of under 960 bits count once."""
    words = (a_bits // 64 + 1) * (b_bits // 64 + 1)
    return 1 + words // _WORD_PRODUCTS_PER_PAIR


def _power(p: dict, e: int, n: int) -> dict:
    # raise p with its denominators cleared and divide by den^e once at the
    # end: integer products, not a gcd in every Fraction operation
    den = lcm(*map(_denominator, p.values()))
    base = {k: c.numerator * (den // c.denominator) for k, c in p.items()}
    out = {(0,) * n: 1}
    for _ in range(e):
        out = _mul(out, base)
    if den == 1:
        return out
    scale = den**e
    return {k: Fraction(v, scale) for k, v in out.items()}


def parse_form(text: str, variables: Iterable[str] | str | VariableContext) -> Form:
    """Parse an expression into a Form over the given variables.

    Raises FormSyntaxError (with a character position) for grammar problems
    and InhomogeneousError when the expanded polynomial mixes degrees.
    """
    ctx = VariableContext.of(variables)
    terms = _Parser(text, ctx).parse()
    return Form(ctx.n, terms)


def format_form(form: Form, variables: Iterable[str] | str | VariableContext) -> str:
    """Canonical text for a form: terms in descending graded-lex order.

    The output round-trips through parse_form.  The zero form prints as '0'.
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
    for exps in sorted(form.terms, key=lambda e: (sum(e), e), reverse=True):
        coeff = form.terms[exps]
        factors = []
        for name, e in zip(ctx.names, exps):
            if e == 1:
                factors.append(name)
            elif e > 1:
                factors.append(f"{name}^{e}")
        mono = "*".join(factors)
        mag = abs(coeff)
        if not mono:
            body = str(mag)
        elif mag == 1:
            body = mono
        else:
            body = f"{mag}*{mono}"
        if not parts:
            parts.append(f"-{body}" if coeff < 0 else body)
        else:
            parts.append(f"- {body}" if coeff < 0 else f"+ {body}")
    return " ".join(parts)
