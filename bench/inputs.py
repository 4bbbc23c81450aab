"""Seeded benchmark inputs with answers planted by construction.

Every query is plain text in the form grammar plus the answer its
construction guarantees.  Nothing here imports formsign: the planted answer
must not come from the program under test.

Constructions (S is the variable sum, p a rational point inside the simplex
and l a linear form with integer coefficients and l(p) = 0):

- planted positive: l^2 * m + eps * S^d with m a monomial or a power of S.
  Both summands are nonnegative on the orthant and eps * S^d is positive
  on the simplex, so the form is strictly positive there: the answer is PSD.
- planted negative: l^2 * m - delta * S^d.  Its value at p is -delta < 0,
  so the form is indefinite; p is kept as the planted witness.
- degree 1: a linear form is positive on the simplex exactly when every
  coefficient is, and negative at the vertex of a negative coefficient.
"""

from __future__ import annotations

import random
from fractions import Fraction
from math import gcd, lcm

NAMES = ("x", "y", "z", "w", "v")

# The degree-24 polynomialization of a sixth-root inequality from the
# paper's examples; indefinite, decided at depths 4, 3 and 2 on wds3,
# midpoint3 and trisection3.
RADICAL_TEXT = (
    "192*(x^2*(z+x)*(x+y) + y^2*(x+y)*(y+z) + z^2*(y+z)*(z+x))^6"
    " - 729*(x^6 + y^6 + z^6)*((y+z)*(z+x)*(x+y))^6"
)

# (scheme selector, depth bound): the acceptance depths plus one level of
# slack, so the bound never decides the verdict.
RADICAL_RUNS = (("wds3", 5), ("midpoint3", 5), ("trisection3", 3))

# (scheme, family, n)
CORPUS_SCHEMES = (
    ("wds3", "wds", 3), ("midpoint3", "midpoint3", 3),
    ("trisection3", "trisection3", 3), ("wds4", "wds", 4),
)
CORPUS_DEGREES = range(1, 7)
CORPUS_PER_STRATUM = 10

# Vanishes only at (2, 5/3, 6/5, 1) / S, inside the simplex.
_POINT4 = (
    "(2*x - 3*y + w)^2*(x + y + z + w)^2 + (3*y - 5*z + w)^2*(x + y + z + w)^2"
    " + (x - 2*w)^4"
)

# Deep templates: (scheme, n, degree, square part, degree of square part,
# eps).  Each square vanishes on a curve or a point inside the simplex, so
# certifying the eps margin needs depth >= 5 and thousands of children.
# Nine templates, so that verdict_s.p50 falls on one template's samples
# (the second wds4 one) rather than in the gap between two.
DEEP_TEMPLATES = (
    ("wds3", 3, 4, "(2*x*y - 3*z^2 + x*z - y*z)^2", 4, "1/100000"),
    ("midpoint3", 3, 5, "(x^2 - 3*x*y + 2*z^2)^2", 4, "1/1000000"),
    ("wds3", 3, 6, "(x^3 - 4*x*y*z + 2*y^2*z - z^3 + y^3)^2", 6, "1/100000"),
    ("trisection3", 3, 7, "(2*x*y - 3*z^2 + x*z - y*z)^2", 4, "1/1000000"),
    ("midpoint3", 3, 8,
     "(2*x*y - 3*z^2 + x*z - y*z)^2*(x^2 - 3*x*y + 2*z^2)^2", 8, "1/10000000"),
    ("wds3", 3, 9, "(x - 2*y + z)^2*(3*y - z - x)^2 + (x - y)^4", 4, "1/100000000"),
    ("trisection3", 3, 10, "(x^3 - 4*x*y*z + 2*y^2*z - z^3 + y^3)^2", 6,
     "1/1000000"),
    ("wds4", 4, 4, _POINT4, 4, "1/100"),
    ("wds4", 4, 4, _POINT4, 4, "1/30"),
)


def _fmt_rational(c: Fraction) -> str:
    return str(c.numerator) if c.denominator == 1 else f"{c.numerator}/{c.denominator}"


def _linear_text(coeffs, names) -> str:
    parts = []
    for c, name in zip(coeffs, names):
        if c == 0:
            continue
        mag = abs(c)
        body = name if mag == 1 else f"{_fmt_rational(Fraction(mag))}*{name}"
        if not parts:
            parts.append(f"-{body}" if c < 0 else body)
        else:
            parts.append(f"- {body}" if c < 0 else f"+ {body}")
    return "(" + " ".join(parts) + ")"


def _sum_text(names) -> str:
    return "(" + " + ".join(names) + ")"


def _times(factor: str, exponent: int) -> str:
    if exponent == 0:
        return ""
    return f"*{factor}" if exponent == 1 else f"*{factor}^{exponent}"


def _interior_point(rng: random.Random, n: int) -> tuple[Fraction, ...]:
    weights = [rng.randint(1, 9) for _ in range(n)]
    total = sum(weights)
    return tuple(Fraction(w, total) for w in weights)


def _vanishing_linear(rng: random.Random, p) -> list[int]:
    """Integer coefficients of a nonzero linear form vanishing at p."""
    n = len(p)
    while True:
        v = [rng.randint(-5, 5) for _ in range(n)]
        if len(set(v)) > 1:
            break
    shift = sum(Fraction(a) * b for a, b in zip(v, p))
    coeffs = [Fraction(a) - shift for a in v]
    den = lcm(*(c.denominator for c in coeffs))
    ints = [int(c * den) for c in coeffs]
    g = gcd(*ints)
    return [c // g for c in ints]


# The barycenter of one first-level cell of each scheme family.  Every
# scheme used is symmetric under coordinate permutations, so each permuted
# copy is the barycenter of another first-level cell.
def _level_one_point(family: str, n: int) -> list[Fraction]:
    if family == "midpoint3":
        return [Fraction(2, 3), Fraction(1, 6), Fraction(1, 6)]
    if family == "trisection3":
        return [Fraction(7, 9), Fraction(1, 9), Fraction(1, 9)]
    # wds: columns e_1, (e_1 + e_2)/2, ..., (e_1 + ... + e_n)/n
    return [sum(Fraction(1, j) for j in range(i + 1, n + 1)) / n for i in range(n)]


def planted_form(rng: random.Random, family: str, n: int, degree: int,
                 positive: bool) -> dict:
    """One planted-answer form for a scheme family ('wds', 'midpoint3' or
    'trisection3'): text, variables, degree, expected verdict and, for an
    indefinite one, a point of the simplex where it is negative."""
    names = NAMES[:n]
    if degree == 1:
        coeffs = [rng.randint(1, 5) for _ in range(n)]
        witness = None
        if not positive:
            j = rng.randrange(n)
            others = sum(coeffs) - coeffs[j]
            coeffs[j] = -rng.randint(1, others - 1)
            witness = tuple(Fraction(int(i == j)) for i in range(n))
        return _planted(_linear_text(coeffs, names)[1:-1], names, 1, positive, witness)
    if not positive:
        return level_one_negative(rng, family, n, degree)
    if family == "wds":
        return level_one_positive(rng, n, degree)
    return margin_positive(rng, n, degree)


def _weight(rng: random.Random, names, degree: int) -> tuple[str, Fraction]:
    """A random monomial or, half the time, S^degree, with its value at the
    simplex barycenter."""
    n = len(names)
    if rng.random() < 0.5:
        return _times(_sum_text(names), degree), Fraction(1)
    exps = [0] * n
    for _ in range(degree):
        exps[rng.randrange(n)] += 1
    text = "".join(_times(name, e) for name, e in zip(names, exps))
    return text, Fraction(1, n ** degree)


def _planted(text: str, names, degree: int, positive: bool, witness) -> dict:
    return {
        "text": text,
        "vars": ",".join(names),
        "degree": degree,
        "expect": "PSD" if positive else "indefinite",
        "planted_point": None if witness is None else [str(c) for c in witness],
    }


def level_one_negative(rng: random.Random, family: str, n: int, degree: int,
                       first_cell: bool = False) -> dict:
    """A planted-negative form decided at depth exactly 1.

    The form is l^2 * m - delta * S^d with l vanishing at p, the barycenter
    of a first-level cell, and delta half of l(b)^2 * m(b) at the simplex
    barycenter b.  It is positive at b, so no depth-0 rule applies, and
    negative at p, so the first level finds a witness.  With `first_cell`,
    p is the barycenter of the scheme's first cell, so the witness is the
    very first child at every seed."""
    names = NAMES[:n]
    p = _level_one_point(family, n)
    if not first_cell:
        rng.shuffle(p)
    while True:
        coeffs = _vanishing_linear(rng, p)
        if sum(coeffs):  # l(b) != 0
            break
    weight, weight_at_b = _weight(rng, names, degree - 2)
    delta = Fraction(sum(coeffs), n) ** 2 * weight_at_b / 2
    text = (
        f"{_linear_text(coeffs, names)}^2{weight} - "
        f"{_fmt_rational(delta)}{_times(_sum_text(names), degree)}"
    )
    return _planted(text, names, degree, False, p)


def level_one_positive(rng: random.Random, n: int, degree: int) -> dict:
    """A planted-positive form that wds_n certifies at depth at most 1.

    On a wds cell the coordinates are ordered, so each difference x_a - x_b
    maps to a linear form with coefficients of one sign; its square times a
    monomial or a power of S maps to a form with nonnegative coefficients.
    The input has negative coefficients, so depth 0 does not settle it."""
    names = NAMES[:n]
    pairs = [(a, b) for a in range(n) for b in range(a + 1, n)]
    terms = []
    for a, b in rng.sample(pairs, 2):
        weight, _ = _weight(rng, names, degree - 2)
        terms.append(f"{rng.randint(1, 9)}*({names[a]} - {names[b]})^2{weight}")
    if degree >= 4:
        (a, b), (c, e) = rng.sample(pairs, 2)
        terms.append(
            f"({names[a]} - {names[b]})^2*({names[c]} - {names[e]})^2"
            f"{_times(_sum_text(names), degree - 4)}"
        )
    terms.append(f"1/100{_times(_sum_text(names), degree)}")
    return _planted(" + ".join(terms), names, degree, True, None)


def margin_positive(rng: random.Random, n: int, degree: int) -> dict:
    """l^2 * m + eps * S^d with l vanishing inside the simplex: positive by
    construction, with eps = max|l_i|^2 / 8, large enough against l's
    coefficients that a few levels certify it."""
    names = NAMES[:n]
    coeffs = _vanishing_linear(rng, _interior_point(rng, n))
    weight, _ = _weight(rng, names, degree - 2)
    eps = Fraction(max(abs(c) for c in coeffs) ** 2, 8)
    text = (
        f"{_linear_text(coeffs, names)}^2{weight} + "
        f"{_fmt_rational(eps)}{_times(_sum_text(names), degree)}"
    )
    return _planted(text, names, degree, True, None)


def _permuted(text: str, names, perm) -> str:
    """Rename variables by a permutation (single-letter names only)."""
    table = {ord(a): ord(b) for a, b in zip(names, (names[i] for i in perm))}
    return text.translate(table)


def cold_cli_queries(seed: int) -> list[dict]:
    """The paper's radical form on three schemes, plus one planted form each
    on wds4 at degree 10 and wds5 at degree 6.  Each runs as its own CLI
    process, so every query pays the full per-(scheme, degree) set-up."""
    rng = random.Random(f"cold_cli:{seed}")
    queries = []
    for scheme, depth in RADICAL_RUNS:
        queries.append({
            "text": RADICAL_TEXT, "vars": "x,y,z", "degree": 24, "scheme": scheme,
            "max_depth": depth, "expect": "indefinite", "planted_point": None,
        })
    planted = ((4, level_one_negative(rng, "wds", 4, 10, first_cell=True)),
               (5, level_one_positive(rng, 5, 6)))
    for n, q in planted:
        q.update(scheme=f"wds{n}", max_depth=30)
        queries.append(q)
    return _numbered(queries, "cold_cli")


def corpus_queries(seed: int, per_stratum: int = CORPUS_PER_STRATUM,
                   degrees=CORPUS_DEGREES) -> list[dict]:
    """Small planted forms, per_stratum of each (scheme, degree, answer)."""
    rng = random.Random(f"corpus:{seed}")
    queries = []
    for scheme, family, n in CORPUS_SCHEMES:
        for degree in degrees:
            for positive in (True, False):
                for _ in range(per_stratum):
                    q = planted_form(rng, family, n, degree, positive)
                    q.update(scheme=scheme, max_depth=30)
                    queries.append(q)
    rng.shuffle(queries)
    return _numbered(queries, "corpus")


def deep_psd_queries(seed: int) -> list[dict]:
    """The deep templates with seeded variable renamings and positive
    scalings.  Every scheme used is symmetric under coordinate
    permutations, so each renamed form has the same subdivision tree and
    the same amount of work at every seed, while the input text changes."""
    rng = random.Random(f"deep_psd:{seed}")
    queries = []
    for scheme, n, degree, square, square_degree, eps in DEEP_TEMPLATES:
        names = NAMES[:n]
        perm = list(range(n))
        rng.shuffle(perm)
        c = rng.randint(1, 9)
        s = _sum_text(names)
        text = (
            f"{c}*({square}){_times(s, degree - square_degree)}"
            f" + {_fmt_rational(c * Fraction(eps))}{_times(s, degree)}"
        )
        queries.append({
            "text": _permuted(text, names, perm), "vars": ",".join(names),
            "degree": degree, "scheme": scheme, "max_depth": 30, "expect": "PSD",
            "planted_point": None,
        })
    return _numbered(queries, "deep_psd")


def _numbered(queries: list[dict], prefix: str) -> list[dict]:
    for i, q in enumerate(queries):
        q["id"] = f"{prefix}-{i}"
    return queries


WORKLOADS = {
    "cold_cli": cold_cli_queries,
    "corpus": corpus_queries,
    "deep_psd": deep_psd_queries,
}
