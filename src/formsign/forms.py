"""Exact arithmetic on homogeneous polynomial forms.

A form of degree d in n variables is stored sparsely as a map from exponent
vectors (length-n tuples of nonnegative ints summing to d) to nonzero
rational coefficients.  Everything is exact: coefficients and points are
`fractions.Fraction` at the API, and floats are refused on sight so no
rounding can sneak into a verdict.  Inside, the per-query work runs on
Python ints over a common denominator (_cleared): evaluation, content
normalization (_content), the parser's values and subdivision cells, each
building Fractions only for its result.  Polynomials in progress (the
parser's values, Form.substitute's products) key each monomial by one int
(_Keys), so that multiplying two monomials is one int addition.
"""

from __future__ import annotations

import re
import struct
from fractions import Fraction
from itertools import combinations
from math import gcd, lcm
from typing import Iterable, Iterator, Mapping, Sequence, Union

Exponents = tuple[int, ...]
RationalLike = Union[int, str, Fraction]

_ZERO = Fraction(0)
# decimal digits of the longest integer literal the form and scheme-file
# parsers read; Python's default int-to-str limit
MAX_DIGITS = 4300
# Python never sets its int/str digit limit below 640, so runs of at most
# this many digits convert whatever the interpreter's limit is
_CHUNK = 640
# the text as_fraction reads: an optionally signed integer or p/q
_RATIONAL = re.compile(r"([+-]?)([0-9]+)(?:/([0-9]+))?")
# a run of ASCII digits, the text _read_int takes; str.isdigit() also
# accepts digits int() refuses
_DIGITS = re.compile(r"[0-9]+")


class DimensionMismatchError(ValueError):
    """A point, matrix or scheme does not match the form's variable count."""


class InhomogeneousError(ValueError):
    """Terms of two different total degrees appeared in one polynomial."""

    def __init__(self, degrees: Iterable[int]):
        self.degrees = tuple(sorted(set(degrees)))
        lo, hi = self.degrees[0], self.degrees[-1]
        super().__init__(
            f"not homogeneous: mixes degree {lo} and degree {hi} terms"
        )


def _read_int(digits: str) -> int:
    """The value of a run of ASCII decimal digits, which the caller has
    matched; refuses more than MAX_DIGITS digits."""
    if len(digits) > MAX_DIGITS:
        raise ValueError(f"integer literal longer than {MAX_DIGITS} digits")
    value = 0
    for i in range(0, len(digits), _CHUNK):
        chunk = digits[i : i + _CHUNK]
        value = value * 10 ** len(chunk) + int(chunk)
    return value


def _write_rational(value: int | Fraction) -> str:
    """str(value), converted in runs of at most _CHUNK digits, so that the
    text does not depend on the interpreter's digit limit."""

    def digits(k: int) -> str:
        low = []
        while k >= 10**_CHUNK:
            k, r = divmod(k, 10**_CHUNK)
            low.append(f"{r:0{_CHUNK}d}")
        return str(k) + "".join(reversed(low))

    num, den = value.numerator, value.denominator
    text = ("-" if num < 0 else "") + digits(abs(num))
    return text if den == 1 else f"{text}/{digits(den)}"


def as_fraction(value: RationalLike) -> Fraction:
    """Coerce ints, Fractions and 'p/q' strings to Fraction; reject floats.

    A string must be an optionally signed integer or p/q in ASCII digits,
    q nonzero and each integer at most MAX_DIGITS digits; else ValueError.
    """
    if type(value) is Fraction:  # immutable, so no copy is needed
        return value
    if isinstance(value, bool) or isinstance(value, float):
        raise TypeError(
            f"refusing {value!r}: only exact rationals (int, Fraction, 'p/q') are accepted"
        )
    if not isinstance(value, str):
        return Fraction(value)
    match = _RATIONAL.fullmatch(value)
    if match is not None:
        sign, num, den = match.groups()
        num = _read_int(num)
        den = 1 if den is None else _read_int(den)
        if den:
            return Fraction(-num if sign == "-" else num, den)
    raise ValueError(f"not a rational number: {value!r}")


class Form:
    """A homogeneous polynomial with exact rational coefficients.

    Instances are value objects: treat them as immutable.  Zero coefficients
    are dropped at construction, so `terms` holds only the support, and a
    form with empty support is the zero form (its degree defaults to 0
    unless a degree is passed along).
    """

    __slots__ = ("n", "degree", "terms")

    def __init__(
        self,
        n: int,
        terms: Mapping[Iterable[int], RationalLike],
        degree: int | None = None,
    ):
        if not isinstance(n, int) or isinstance(n, bool) or n < 1:
            raise ValueError("a form needs at least one variable")
        clean: dict[Exponents, Fraction] = {}
        degrees: set[int] = set()
        for raw_exps, raw_coeff in terms.items():
            exps = tuple(raw_exps)
            if len(exps) != n:
                raise DimensionMismatchError(
                    f"exponent vector {exps} has length {len(exps)}, expected {n}"
                )
            if any(not isinstance(e, int) or isinstance(e, bool) or e < 0 for e in exps):
                raise ValueError(f"exponents must be nonnegative ints: {exps}")
            coeff = as_fraction(raw_coeff)
            if not coeff:
                continue
            degrees.add(sum(exps))
            clean[exps] = coeff
        if len(degrees) > 1:
            raise InhomogeneousError(degrees)
        self.n = n
        self.terms = clean
        if degrees:
            self.degree = degrees.pop()
        else:
            self.degree = 0 if degree is None else degree

    @classmethod
    def _of(cls, n: int, terms: dict[Exponents, Fraction], degree: int) -> Form:
        """The form with `terms`, taken as they are, with none of __init__'s
        checks: the caller guarantees n >= 1, exponent tuples of n
        nonnegative ints summing to `degree`, and nonzero Fraction
        coefficients."""
        form = object.__new__(cls)
        form.n = n
        form.terms = terms
        form.degree = degree
        return form

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def coefficient(self, exponents: Iterable[int]) -> Fraction:
        """Coefficient of the given monomial (0 if absent)."""
        exps = tuple(exponents)
        if len(exps) != self.n:
            raise DimensionMismatchError(
                f"exponent vector {exps} has length {len(exps)}, expected {self.n}"
            )
        return self.terms.get(exps, _ZERO)

    def evaluate(self, point: Sequence[RationalLike]) -> Fraction:
        """Exact value at a point, given as rationals (floats rejected).

        The form is homogeneous, so with the point a / D over a common
        denominator D, F(a / D) = F(a) / D^degree: the sum runs on ints, with
        each power of a coordinate that a term needs computed once, and one
        Fraction is built.
        """
        pt = self._check_point(point)
        coords, den = _cleared(pt)
        coeffs, scale = _cleared(self.terms.values())
        # powers[i][e] = coords[i]^e, for the exponents e that occur
        powers: list[dict[int, int]] = [{} for _ in coords]
        total = 0
        for exps, v in zip(self.terms, coeffs):
            for a, cache, e in zip(coords, powers, exps):
                if e:
                    p = cache.get(e)
                    if p is None:
                        p = cache[e] = a**e
                    v *= p
            total += v
        return Fraction(total, scale * den**self.degree)

    def substitute(self, matrix) -> Form:
        """Compose with a linear change of variables.

        `matrix` is an n x n nested sequence (or anything with a `.rows`
        attribute, such as a NormalizedMatrix); row i holds the coefficients
        of the new variables in the image of old variable i.  The result is
        again homogeneous of the same degree.  Powers of each variable's
        linear image are expanded once and reused across terms.
        """
        rows = getattr(matrix, "rows", matrix)
        images = [tuple(as_fraction(v) for v in row) for row in rows]
        if len(images) != self.n or any(len(r) != self.n for r in images):
            raise DimensionMismatchError(
                f"substitution matrix must be {self.n} x {self.n}"
            )
        n = self.n
        keys = _Keys(n, self.degree)
        linear = [{u: c for u, c in zip(keys.units, image) if c} for image in images]
        pows: list[list[dict]] = [[{0: Fraction(1)}] for _ in range(n)]

        def image_power(i: int, e: int) -> dict:
            cache = pows[i]
            while len(cache) <= e:
                cache.append(_mul(cache[-1], linear[i]))
            return cache[e]

        out: dict[int, Fraction] = {}
        for exps, coeff in self.terms.items():
            prod = {0: coeff}
            for i, e in enumerate(exps):
                if e:
                    prod = _mul(prod, image_power(i, e))
            for k, v in prod.items():
                out[k] = out.get(k, _ZERO) + v
        out = dict(zip(keys.unpack(out), out.values()))
        return Form(n, out, degree=self.degree)

    def is_trivially_positive(self) -> bool:
        """True when every coefficient is nonnegative.

        Such a form is nonnegative everywhere on the nonnegative orthant,
        so the branch carrying it needs no further subdivision.
        """
        return all(c >= 0 for c in self.terms.values())

    def is_trivially_negative(self) -> bool:
        """True when the value at the simplex barycenter is negative.

        The value at (1/n, ..., 1/n) is (sum of coefficients) / n**degree,
        so only the coefficient sum's sign is tested.  Exactly zero is not
        negative.
        """
        return sum(self.terms.values()) < 0

    def normalize_content(self) -> Form:
        """Scale by a positive rational so coefficients are coprime integers.

        Multiplies by lcm(denominators)/gcd(numerators).  The scale factor
        is positive, so the sign pattern, the two triviality tests and the
        zero set are all unchanged.  The zero form is returned as is.
        """
        if not self.terms:
            return self
        ints = _content(self.terms)
        if ints == self.terms:
            return self
        return Form(self.n, ints, degree=self.degree)

    def _check_point(self, point: Sequence[RationalLike]) -> tuple[Fraction, ...]:
        pt = tuple(as_fraction(v) for v in point)
        if len(pt) != self.n:
            raise DimensionMismatchError(
                f"point has {len(pt)} coordinates, form has {self.n} variables"
            )
        return pt

    def __eq__(self, other) -> bool:
        if not isinstance(other, Form):
            return NotImplemented
        return (
            self.n == other.n
            and self.degree == other.degree
            and self.terms == other.terms
        )

    def __hash__(self) -> int:
        return hash((self.n, self.degree, frozenset(self.terms.items())))

    def __repr__(self) -> str:
        return f"Form(n={self.n}, degree={self.degree}, terms={len(self.terms)})"


def _compositions(total: int, n: int) -> Iterator[Exponents]:
    """The n-tuples of nonnegative ints summing to `total`, in ascending
    lexicographic order: stars and bars, with the n - 1 bars placed among
    total + n - 1 slots and each part the gap between neighbouring bars."""
    end = total + n - 1
    for bars in combinations(range(end), n - 1):
        yield tuple(b - a - 1 for a, b in zip((-1, *bars), (*bars, end)))


def _cleared(values: Iterable[Fraction]) -> tuple[list[int], int]:
    """The rationals `values` as ints over their least common denominator:
    (numerators, denominator), the numerators in the order given."""
    values = list(values)
    den = lcm(*[v.denominator for v in values])
    return [v.numerator * (den // v.denominator) for v in values], den


def _content(terms: Mapping[Exponents, Fraction]) -> dict[Exponents, int]:
    """A form's coefficients scaled to coprime integers: times the lcm of
    their denominators over the gcd of the numerators that gives.  The
    scale is positive, so signs, the coefficient sum's sign and the zero
    set stay as they are."""
    ints, _ = _cleared(terms.values())
    g = gcd(*ints)
    if g > 1:
        ints = [v // g for v in ints]
    return dict(zip(terms, ints))


class _Keys:
    """Monomials in n variables packed into ints, their keys, so that the
    key of a product of monomials is the sum of their keys.

    Exponent i sits in bits [w*i, w*(i + 1)) and the degree in the bits
    above, where the field width w is the least of 8, 16, 32, 64, ... bits
    that holds `top`.  A key is valid while its degree is at most `top`:
    then no field carries into the next.
    """

    __slots__ = ("n", "width", "shift", "units", "_read")

    def __init__(self, n: int, top: int):
        width = 8
        while width < top.bit_length():
            width *= 2
        self.n = n
        self.width = width
        self.shift = width * n
        # the keys of the n variables, each of degree 1
        self.units = [(1 << width * j) + (1 << self.shift) for j in range(n)]
        # reads the n exponent fields from a key's n + 1 fields of bytes
        # (the degree fits one field too), for the widths struct has codes for
        self._read = None
        if width in _FIELD_CODES:
            layout = f"<{n}{_FIELD_CODES[width]}{width // 8}x"
            self._read = struct.Struct(layout).unpack

    def degree(self, key: int) -> int:
        return key >> self.shift

    def unpack(self, keys: Iterable[int]) -> list[Exponents]:
        """The exponent tuples of `keys`, in order."""
        n, width, read = self.n, self.width, self._read
        if read is not None:
            size = (n + 1) * width // 8
            return [read(k.to_bytes(size, "little")) for k in keys]
        mask = (1 << width) - 1
        shifts = range(0, self.shift, width)
        return [tuple(k >> s & mask for s in shifts) for k in keys]


# struct's little-endian codes for unsigned ints of 8, 16, 32 and 64 bits
_FIELD_CODES = {8: "B", 16: "H", 32: "I", 64: "Q"}


# Sums start at int 0, so integer inputs (the parser's integer numerators)
# stay integer and Fraction inputs give Fractions.  _mul takes and gives
# dicts from _Keys keys to coefficients.


def _mul(p: dict, q: dict) -> dict:
    out: dict = {}
    for ka, va in p.items():
        for kb, vb in q.items():
            k = ka + kb
            s = out.get(k, 0) + va * vb
            if s:
                out[k] = s
            elif k in out:
                del out[k]
    return out
