"""Shared fixtures and helpers for the formsign test suite."""

import random
import sys
from contextlib import contextmanager
from fractions import Fraction
from itertools import combinations_with_replacement
from math import comb, lcm

import pytest

from formsign import (
    Form,
    NormalizedMatrix,
    Outcome,
    RunStats,
    SubdivisionScheme,
    Verdict,
    barycenter,
    make_central3_scheme,
    make_midpoint3_scheme,
    make_star3_scheme,
    make_trisection3_scheme,
    make_wds_scheme,
    parse_form,
    witness_point,
)
from formsign import engine

VARS3 = ("x", "y", "z")

# Degree 6, PSD on the nonnegative orthant but with negative coefficients.
SYM_DIFF_TEXT = "x*(x-y)^5 - y*(-z-y)^5 - z*(x-z)^5"

# Degree 6, indefinite on the nonnegative orthant; 9 monomials as written.
MIXED_SIGN_TEXT = (
    "x^4*y^2 - 2*x^4*y*z + x^4*z^2 + 3*x^3*y^2*z - 2*x^3*y*z^2"
    " - 2*x^2*y^4 - 2*x^2*y^3*z + x^2*y^2*z^2 + y^6"
)

# Degree 24, indefinite; polynomialization of a sixth-root inequality,
# built as 192*N^6 - 729*(x^6+y^6+z^6)*D^6.
BIG_RADICAL_TEXT = (
    "192*(x^2*(z+x)*(x+y) + y^2*(x+y)*(y+z) + z^2*(y+z)*(z+x))^6"
    " - 729*(x^6 + y^6 + z^6)*((y+z)*(z+x)*(x+y))^6"
)


@pytest.fixture(scope="session")
def wds2():
    return make_wds_scheme(2)


@pytest.fixture(scope="session")
def wds3():
    return make_wds_scheme(3)


@pytest.fixture(scope="session")
def midpoint3():
    return make_midpoint3_scheme()


@pytest.fixture(scope="session")
def trisection3():
    return make_trisection3_scheme()


@pytest.fixture(scope="session")
def central3():
    return make_central3_scheme()


@pytest.fixture(scope="session")
def sym_diff_form():
    return parse_form(SYM_DIFF_TEXT, VARS3)


@pytest.fixture(scope="session")
def mixed_sign_form():
    return parse_form(MIXED_SIGN_TEXT, VARS3)


@pytest.fixture(scope="session")
def big_radical_form():
    return parse_form(BIG_RADICAL_TEXT, VARS3)


def swapped_halves_scheme() -> SubdivisionScheme:
    """An n = 2 scheme whose second cell is P * first * Q with both
    permutations non-trivial."""
    return SubdivisionScheme(
        "swapped_halves",
        2,
        [
            NormalizedMatrix(((1, Fraction(1, 2)), (0, Fraction(1, 2)))),
            NormalizedMatrix(((Fraction(1, 2), 0), (Fraction(1, 2), 1))),
        ],
    )


def bisection_scheme(n: int) -> SubdivisionScheme:
    """The two halves of T_n on either side of the midpoint of the edge
    from e_1 to e_2: the identity with column 2, or column 1, moved to it."""

    def half(moved: int) -> NormalizedMatrix:
        def entry(i: int, j: int):
            return Fraction(int(i < 2), 2) if j == moved else int(i == j)

        return NormalizedMatrix([[entry(i, j) for j in range(n)] for i in range(n)])

    return SubdivisionScheme(f"bisection{n}", n, [half(1), half(0)])


# Schemes for checking the integer kernel: permutation cells (wds), the
# rational, non-permutation cells of the fixed and star schemes, and a
# bisection in 8 variables, whose tables past degree 1 have more than 32
# box slots per monomial and walk on dicts.
KERNEL_SCHEMES = {
    "wds3": lambda: make_wds_scheme(3),
    "midpoint3": make_midpoint3_scheme,
    "trisection3": make_trisection3_scheme,
    "central3": make_central3_scheme,
    "wds4": lambda: make_wds_scheme(4),
    "star3_off_centre": lambda: make_star3_scheme(
        (Fraction(1, 2), Fraction(1, 4), Fraction(1, 4)),
        (Fraction(1, 3), Fraction(2, 3), 0),
        (0, Fraction(1, 2), Fraction(1, 2)),
        (Fraction(3, 4), 0, Fraction(1, 4)),
    ),
    "swapped_halves": swapped_halves_scheme,
    "wds5": lambda: make_wds_scheme(5),
    "bisection8": lambda: bisection_scheme(8),
}


@contextmanager
def lowest_digit_limit():
    """Run the block under Python's lowest int-to-str limit, 640 digits
    (interpreters without the limit run it as it is)."""
    old = getattr(sys, "get_int_max_str_digits", lambda: None)()
    if old is not None:
        sys.set_int_max_str_digits(640)
    try:
        yield
    finally:
        if old is not None:
            sys.set_int_max_str_digits(old)


def all_exponents(n: int, degree: int):
    """All exponent vectors of length n with total degree `degree`."""
    out = []
    for combo in combinations_with_replacement(range(n), degree):
        exps = [0] * n
        for i in combo:
            exps[i] += 1
        out.append(tuple(exps))
    return out


def random_form(rng: random.Random, n: int, degree: int, coeff_bound: int = 5,
                density: float = 0.6) -> Form:
    """A random nonzero form with integer coefficients in [-bound, bound]."""
    monos = all_exponents(n, degree)
    while True:
        terms = {}
        for exps in monos:
            if rng.random() < density:
                c = rng.randint(-coeff_bound, coeff_bound)
                if c:
                    terms[exps] = Fraction(c)
        if terms:
            return Form(n, terms)


def random_simplex_point(rng: random.Random, n: int, denominator: int = 60):
    """A random rational point with positive coordinates summing to 1."""
    weights = [rng.randint(1, denominator) for _ in range(n)]
    total = sum(weights)
    return tuple(Fraction(w, total) for w in weights)


def elevates(cells: int, n: int, degree: int) -> bool:
    """Whether decide prunes by degree elevation on a scheme of `cells`
    cells in n variables at `degree`: the degree is at least 2, its table
    keeps strips (cells x size(d)^2 entries at most engine._BATCH_ENTRIES)
    and the pack set of S^K * y^alpha, size(d) x size(d + K) entries, is as
    small."""
    size = comb(degree + n - 1, n - 1)
    high = comb(degree + engine._POLYA_K + n - 1, n - 1)
    bound = engine._BATCH_ENTRIES
    return degree >= 2 and cells * size**2 <= bound and size * high <= bound


def elevated(form: Form, k: int) -> dict:
    """The coefficients of S^k * form, S the sum of the variables, by k
    plain multiplications by S, on the numerators over one denominator."""
    den = lcm(*(c.denominator for c in form.terms.values()))
    terms = {e: int(c * den) for e, c in form.terms.items()}
    for _ in range(k):
        product = {}
        for e, c in terms.items():
            for i in range(form.n):
                up = e[:i] + (e[i] + 1,) + e[i + 1 :]
                product[up] = product.get(up, 0) + c
        terms = product
    return {e: Fraction(c, den) for e, c in terms.items()}


def elevation_proves(form: Form) -> bool:
    """The engine's degree-elevation prune in Form arithmetic: floor the
    content-normalized coefficients c to c >> s, s the bits of the largest
    |c| past engine._COARSE_BITS, multiply by S^K and check the signs."""
    ints = {e: int(c) for e, c in form.normalize_content().terms.items()}
    s = max(0, max(map(abs, ints.values())).bit_length() - engine._COARSE_BITS)
    floored = Form(form.n, {e: c >> s for e, c in ints.items()}, degree=form.degree)
    return min(elevated(floored, engine._POLYA_K).values(), default=0) >= 0


def plain_decide(form: Form, scheme: SubdivisionScheme, max_depth: int) -> Verdict:
    """decide as the plain nested loop over Form.substitute: every copy of a
    repeated child is expanded and counted, parent by parent and cell by
    cell.  A child with a negative coefficient and a nonnegative sum is
    pruned too when elevation_proves it, on the schemes and degrees where
    decide elevates.  Images are memoized per (form, cell), which saves
    time and changes no count, order or path."""
    if form.is_trivially_negative():
        point = barycenter(form.n)
        return Verdict(Outcome.INDEFINITE, 0, RunStats(0, 0, 1), (), point, form.evaluate(point))
    if form.is_trivially_positive():
        return Verdict(Outcome.PSD, 0, RunStats(0, 0, 1))
    elevate = elevates(len(scheme), form.n, form.degree)
    images = {}
    frontier = [(form.normalize_content(), ())]
    expanded = pruned = 0
    peak = 1
    for level in range(1, max_depth + 1):
        children = []
        for parent, path in frontier:
            for i, m in enumerate(scheme.matrices, 1):
                child = images.get((parent, i))
                if child is None:
                    child = images[(parent, i)] = parent.substitute(m).normalize_content()
                expanded += 1
                if child.is_trivially_positive():
                    pruned += 1
                elif child.is_trivially_negative():
                    stats = RunStats(expanded, pruned, peak)
                    point = witness_point(path + (i,), scheme)
                    value = form.evaluate(point)
                    return Verdict(Outcome.INDEFINITE, level, stats, path + (i,), point, value)
                elif elevate and elevation_proves(child):
                    pruned += 1
                else:
                    children.append((child, path + (i,)))
        peak = max(peak, len(children))
        if not children:
            return Verdict(Outcome.PSD, level, RunStats(expanded, pruned, peak))
        frontier = children
    return Verdict(Outcome.INCONCLUSIVE, max_depth, RunStats(expanded, pruned, peak))
