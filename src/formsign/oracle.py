"""Independent cross-checks: exact grid search and a closed-form power.

The grid oracle evaluates a form at every rational point of the simplex
with a fixed common denominator.  It can prove indefiniteness (any negative
value is a counterexample) but never nonnegativity, so it is a one-sided
check against the subdivision engine.  The closed-form matrix power pins
down the central-fan matrix's behaviour without iterating products.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb
from typing import Iterator

from .forms import Form, _compositions
from .subdivision import NormalizedMatrix


@dataclass(frozen=True)
class GridSpec:
    """All points of T_n whose coordinates share the denominator.

    The points are the tuples (a_1/D, ..., a_n/D) with nonnegative integers
    a_i summing to D; there are C(D + n - 1, n - 1) of them, enumerated in
    ascending lexicographic order.
    """

    n: int
    denominator: int

    def __post_init__(self):
        for name in ("n", "denominator"):
            value = getattr(self, name)
            if not isinstance(value, int) or isinstance(value, bool) or value < 1:
                raise ValueError(f"{name} must be a positive integer")

    def __len__(self) -> int:
        return comb(self.denominator + self.n - 1, self.n - 1)

    def points(self) -> Iterator[tuple[Fraction, ...]]:
        d = self.denominator
        for ints in _compositions(d, self.n):
            yield tuple(Fraction(a, d) for a in ints)


@dataclass(frozen=True)
class GridResult:
    min_value: Fraction
    argmin: tuple[Fraction, ...]
    negative_found: bool


def grid_classify(form: Form, grid: GridSpec) -> GridResult:
    """Exact minimum of the form over the grid.

    Ties keep the lexicographically smallest point, which together with the
    fixed enumeration order makes the result deterministic.  negative_found
    proves indefiniteness; a clean grid proves nothing.
    """
    if form.n != grid.n:
        raise ValueError(f"form has {form.n} variables, grid has {grid.n}")
    best_value: Fraction | None = None
    best_point: tuple[Fraction, ...] | None = None
    for point in grid.points():
        value = form.evaluate(point)
        if best_value is None or value < best_value:
            best_value = value
            best_point = point
    assert best_value is not None and best_point is not None
    return GridResult(best_value, best_point, best_value < 0)


def closed_form_central_power(m: int) -> NormalizedMatrix:
    """The m-th power of the first central-fan matrix, in closed form.

    The matrix fixes e1 and e2 and pulls e3 toward the segment between
    them; its m-th power has third column ((1 - 3**-m)/2, (1 - 3**-m)/2,
    3**-m).  Used to cross-check matrix_power without iterating.
    """
    if not isinstance(m, int) or isinstance(m, bool) or m < 1:
        raise ValueError("m must be an integer >= 1")
    pole = Fraction(1, 3**m)
    half = (1 - pole) / 2
    return NormalizedMatrix(
        (
            (Fraction(1), Fraction(0), half),
            (Fraction(0), Fraction(1), half),
            (Fraction(0), Fraction(0), pole),
        )
    )
