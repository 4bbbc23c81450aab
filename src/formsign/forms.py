"""Exact arithmetic on homogeneous polynomial forms.

A form of degree d in n variables is stored sparsely as a map from exponent
vectors (length-n tuples of nonnegative ints summing to d) to nonzero
rational coefficients.  Everything is exact: coefficients and points are
`fractions.Fraction`, and floats are refused on sight so no rounding can
sneak into a verdict.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations
from math import gcd, lcm
from typing import Iterable, Iterator, Mapping, Sequence, Union

Exponents = tuple[int, ...]
RationalLike = Union[int, str, Fraction]

_ZERO = Fraction(0)


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


def as_fraction(value: RationalLike) -> Fraction:
    """Coerce ints, Fractions and 'p/q' strings to Fraction; reject floats."""
    if type(value) is Fraction:  # immutable, so no copy is needed
        return value
    if isinstance(value, bool) or isinstance(value, float):
        raise TypeError(
            f"refusing {value!r}: only exact rationals (int, Fraction, 'p/q') are accepted"
        )
    return Fraction(value)


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
        if not isinstance(n, int) or n < 1:
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
            if coeff == 0:
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
        """Exact value at a point, given as rationals (floats rejected)."""
        pt = self._check_point(point)
        total = _ZERO
        for exps, coeff in self.terms.items():
            v = coeff
            for p, e in zip(pt, exps):
                if e:
                    v *= p**e
            total += v
        return total

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
        unit = (0,) * n
        pows: list[list[dict]] = [[{unit: Fraction(1)}] for _ in range(n)]

        def image_power(i: int, e: int) -> dict:
            cache = pows[i]
            while len(cache) <= e:
                cache.append(_mul_linear(cache[-1], images[i]))
            return cache[e]

        out: dict[Exponents, Fraction] = {}
        for exps, coeff in self.terms.items():
            prod = {unit: coeff}
            for i, e in enumerate(exps):
                if e:
                    prod = _mul(prod, image_power(i, e))
            for k, v in prod.items():
                out[k] = out.get(k, _ZERO) + v
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
        den = 1
        for c in self.terms.values():
            den = lcm(den, c.denominator)
        num = 0
        for c in self.terms.values():
            num = gcd(num, c.numerator * (den // c.denominator))
        scale = Fraction(den, num)
        if scale == 1:
            return self
        return Form(
            self.n,
            {k: c * scale for k, c in self.terms.items()},
            degree=self.degree,
        )

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


# Sums start at int 0, so integer inputs (the engine's substitution tables)
# stay integer and Fraction inputs give Fractions.


def _mul(p: dict, q: dict) -> dict:
    out: dict = {}
    for ka, va in p.items():
        for kb, vb in q.items():
            k = tuple(a + b for a, b in zip(ka, kb))
            s = out.get(k, 0) + va * vb
            if s:
                out[k] = s
            elif k in out:
                del out[k]
    return out


def _mul_linear(p: dict, image: tuple) -> dict:
    # multiply by a linear form; image[j] is the coefficient of variable j
    out: dict = {}
    for k, v in p.items():
        for j, c in enumerate(image):
            if c:
                kk = k[:j] + (k[j] + 1,) + k[j + 1 :]
                s = out.get(kk, 0) + v * c
                if s:
                    out[kk] = s
                elif kk in out:
                    del out[kk]
    return out
