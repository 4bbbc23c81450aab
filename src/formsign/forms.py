"""Exact arithmetic on homogeneous polynomial forms.

A form of degree d in n variables is stored sparsely as a map from exponent
vectors (length-n tuples of nonnegative ints summing to d) to nonzero ints,
all over one positive denominator (Form.ints over Form.den), as a
subdivision cell's entries are.  Everything is exact: coefficients and
points are `fractions.Fraction` at the API, and floats are refused on sight
so no rounding can sneak into a verdict.  Rationals become ints over their
least common denominator in one place (_cleared): a Form's coefficients, a
point and a cell.  Evaluation, substitution, the sign tests and content
normalization run on those ints, each building Fractions only for its
result.  Polynomials in progress (the parser's values, Form.substitute's
products) key each monomial by one int (_Keys), so that multiplying two
monomials is one int addition.
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

# decimal digits of the longest integer literal the form and scheme-file
# parsers read; Python's default int-to-str limit
MAX_DIGITS = 4300
# Python never sets its int/str digit limit below 640, so runs of at most
# this many digits convert whatever the interpreter's limit is
_CHUNK = 640
_TEN_CHUNK = 10**_CHUNK
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
        while k >= _TEN_CHUNK:
            k, r = divmod(k, _TEN_CHUNK)
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

    Instances are value objects: treat them as immutable.  As a cell's
    entries are, the coefficients are stored cleared (_cleared): `ints`
    maps each exponent tuple of the support to a nonzero int, over `den`,
    a positive int that shares no prime with all of them.  Equality,
    hashing and every computation read that canonical pair; `terms` builds
    Fractions on demand.  The zero form has no support, {} over 1, and
    degree 0 unless a degree is passed along.
    """

    __slots__ = ("n", "degree", "ints", "den")

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
        ints, self.den = _cleared(clean.values())
        self.ints = dict(zip(clean, ints))
        self.degree = degrees.pop() if degrees else (0 if degree is None else degree)

    @classmethod
    def _of(cls, n: int, ints: dict[Exponents, int], den: int, degree: int) -> Form:
        """The form of `ints` over `den`, taken as they are, with none of
        __init__'s checks: the caller guarantees n >= 1, exponent tuples of
        n nonnegative ints summing to `degree`, nonzero ints, and the
        canonical pair, den > 0 and gcd(den, *ints.values()) == 1."""
        form = object.__new__(cls)
        form.n, form.ints, form.den, form.degree = n, ints, den, degree
        return form

    @property
    def terms(self) -> dict[Exponents, Fraction]:
        den = self.den
        return {exps: Fraction(v, den) for exps, v in self.ints.items()}

    @property
    def is_zero(self) -> bool:
        return not self.ints

    def coefficient(self, exponents: Iterable[int]) -> Fraction:
        """Coefficient of the given monomial (0 if absent)."""
        exps = tuple(exponents)
        if len(exps) != self.n:
            raise DimensionMismatchError(
                f"exponent vector {exps} has length {len(exps)}, expected {self.n}"
            )
        return Fraction(self.ints.get(exps, 0), self.den)

    def evaluate(self, point: Sequence[RationalLike]) -> Fraction:
        """Exact value at a point, given as rationals (floats rejected).

        The form is homogeneous, so with the point a / D over a common
        denominator D, F(a / D) = F(a) / D^degree: the sum runs on ints, with
        each power of a coordinate that a term needs computed once, and one
        Fraction is built.
        """
        pt = self._check_point(point)
        coords, den = _cleared(pt)
        # powers[i][e] = coords[i]^e, for the exponents e that occur
        powers: list[dict[int, int]] = [{} for _ in coords]
        total = 0
        for exps, v in self.ints.items():
            for a, cache, e in zip(coords, powers, exps):
                if e:
                    p = cache.get(e)
                    if p is None:
                        p = cache[e] = a**e
                    v *= p
            total += v
        return Fraction(total, self.den * den**self.degree)

    def substitute(self, matrix) -> Form:
        """Compose with a linear change of variables.

        `matrix` is an n x n nested sequence (or anything with a `.rows`
        attribute, such as a NormalizedMatrix); row i holds the coefficients
        of the new variables in the image of old variable i.  The result is
        again homogeneous of the same degree.  Powers of each variable's
        linear image are expanded once, on ints, and reused across terms.
        """
        rows = getattr(matrix, "rows", matrix)
        images = [tuple(as_fraction(v) for v in row) for row in rows]
        if len(images) != self.n or any(len(r) != self.n for r in images):
            raise DimensionMismatchError(
                f"substitution matrix must be {self.n} x {self.n}"
            )
        n = self.n
        entries, scale = _cleared(v for image in images for v in image)
        keys = _Keys(n, self.degree)
        linear = [
            {u: c for u, c in zip(keys.units, entries[i : i + n]) if c}
            for i in range(0, n * n, n)
        ]
        pows: list[list[dict]] = [[{0: 1}] for _ in range(n)]

        def image_power(i: int, e: int) -> dict:
            cache = pows[i]
            while len(cache) <= e:
                cache.append(_mul(cache[-1], linear[i]))
            return cache[e]

        out: dict[int, int] = {}
        for exps, coeff in self.ints.items():
            prod = {0: coeff}
            for i, e in enumerate(exps):
                if e:
                    prod = _mul(prod, image_power(i, e))
            for k, v in prod.items():
                out[k] = out.get(k, 0) + v
        out = {k: v for k, v in out.items() if v}
        out, den = _lowest(out, self.den * scale**self.degree)
        return Form._of(n, dict(zip(keys.unpack(out), out.values())), den, self.degree)

    def is_trivially_positive(self) -> bool:
        """True when every coefficient is nonnegative.

        Such a form is nonnegative everywhere on the nonnegative orthant,
        so the branch carrying it needs no further subdivision.
        """
        return min(self.ints.values(), default=0) >= 0

    def is_trivially_negative(self) -> bool:
        """True when the value at the simplex barycenter is negative.

        The value at (1/n, ..., 1/n) is (sum of coefficients) / n**degree,
        so only the sign of the ints' sum is tested.  Exactly zero is not
        negative.
        """
        return sum(self.ints.values()) < 0

    def normalize_content(self) -> Form:
        """Scale by a positive rational so coefficients are coprime integers.

        Multiplies by den/gcd(ints), so the result is the ints divided by
        their gcd, over 1.  The scale factor is positive, so the sign
        pattern, the two triviality tests and the zero set are all
        unchanged.  The zero form is returned as is.
        """
        g = gcd(*self.ints.values())  # 0 for the zero form
        if g < 2 and self.den == 1:
            return self
        return Form._of(self.n, {e: v // g for e, v in self.ints.items()}, 1, self.degree)

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
        mine = (self.n, self.degree, self.den, self.ints)
        return mine == (other.n, other.degree, other.den, other.ints)

    def __hash__(self) -> int:
        return hash((self.n, self.degree, self.den, frozenset(self.ints.items())))

    def __repr__(self) -> str:
        return f"Form(n={self.n}, degree={self.degree}, terms={len(self.ints)})"


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


def _lowest(ints: dict, den: int) -> tuple[dict, int]:
    """Nonzero ints over a positive den, both divided by their gcd: the
    canonical pair a Form keeps."""
    g = gcd(den, *ints.values())
    return ({k: v // g for k, v in ints.items()}, den // g) if g > 1 else (ints, den)


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
