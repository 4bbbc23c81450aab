"""Subsimplex matrices and subdivision schemes of the standard simplex.

A subsimplex of the simplex T_n = {x >= 0, sum x = 1} is written as an
n x n matrix whose column j is vertex j of the subsimplex, so columns are
nonnegative and sum to 1, and the matrix is nonsingular when the subsimplex
has positive volume.  A subdivision scheme is an ordered family of such
matrices that tile T_n (checked when the scheme is built, via sum |det| = 1
/ n factors of the volume form, which all cancel to plain sum |det| = 1).

Substituting a matrix into a form restricts the form to that subsimplex in
the subsimplex's own coordinates, which is what the decision engine builds
its branches from.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from operator import mul
from typing import Iterable, Sequence

from .forms import (
    _DIGITS,
    DimensionMismatchError,
    RationalLike,
    _cleared,
    _read_int,
    _write_rational,
    as_fraction,
)


class SchemeError(ValueError):
    """An invalid subdivision scheme, scheme parameter or scheme file.

    `validation` holds the failed SchemeValidation when a scheme's cells
    fail their checks, and is None otherwise.
    """

    def __init__(self, message: str, validation: SchemeValidation | None = None):
        super().__init__(message)
        self.validation = validation


def barycenter(n: int) -> tuple[Fraction, ...]:
    """The center (1/n, ..., 1/n) of the standard simplex."""
    if not isinstance(n, int) or isinstance(n, bool) or n < 1:
        raise ValueError("n must be a positive integer")
    return (Fraction(1, n),) * n


def _int_det(entries: Sequence[int], n: int) -> int:
    """The determinant of the n x n int matrix with the given row-major
    entries, by Bareiss elimination: after step k every entry below and
    right of the pivot is a (k + 2)-order minor, so each division by the
    previous pivot is exact and no entry outgrows a minor."""
    m = [list(entries[i : i + n]) for i in range(0, n * n, n)]
    sign, prev = 1, 1
    for k in range(n - 1):
        pivot = next((r for r in range(k, n) if m[r][k]), None)
        if pivot is None:
            return 0
        if pivot != k:
            m[k], m[pivot] = m[pivot], m[k]
            sign = -sign
        top, p = m[k], m[k][k]
        for row in m[k + 1 :]:
            a = row[k]
            for j in range(k + 1, n):
                row[j] = (row[j] * p - a * top[j]) // prev
        prev = p
    return sign * m[n - 1][n - 1]


class NormalizedMatrix:
    """Square rational matrix whose columns name subsimplex vertices.

    The entries are stored once, cleared (forms._cleared): `ints` lists
    them row by row over `den`, their least common denominator, so column
    j is ints[j::n].  That canonical pair is what equality, hashing and
    every computation on the cell read; Fractions are built for results.

    The constructor pins shape and exactness only.  Whether the columns
    really lie on the simplex (nonnegative, summing to 1) and span a
    positive-volume cell is checked when matrices form a SubdivisionScheme,
    so a single matrix that breaks those rules can still be represented.
    """

    __slots__ = ("n", "ints", "den")

    def __init__(self, rows: Iterable[Iterable[RationalLike]]):
        rs = [[as_fraction(v) for v in row] for row in rows]
        n = len(rs)
        if n == 0 or any(len(r) != n for r in rs):
            raise ValueError("matrix must be square and nonempty")
        self.n = n
        ints, self.den = _cleared(v for row in rs for v in row)
        self.ints = tuple(ints)

    @classmethod
    def from_columns(cls, columns: Iterable[Iterable[RationalLike]]) -> "NormalizedMatrix":
        cols = tuple(tuple(col) for col in columns)
        # zip would truncate ragged columns; __init__ coerces the entries
        if any(len(c) != len(cols) for c in cols):
            raise ValueError("matrix must be square and nonempty")
        return cls(zip(*cols))

    @classmethod
    def _of(cls, n: int, ints: tuple[int, ...], den: int) -> "NormalizedMatrix":
        """The matrix of row-major `ints` over `den`, which must already be
        the canonical pair __init__ would clear them to: den the least
        common denominator of the entries in lowest terms."""
        matrix = object.__new__(cls)
        matrix.n, matrix.ints, matrix.den = n, ints, den
        return matrix

    @classmethod
    def identity(cls, n: int) -> "NormalizedMatrix":
        if not isinstance(n, int) or isinstance(n, bool) or n < 1:
            raise ValueError("n must be a positive integer")
        return cls([[int(i == j) for j in range(n)] for i in range(n)])

    @property
    def rows(self) -> tuple[tuple[Fraction, ...], ...]:
        n, den = self.n, self.den
        return tuple(
            tuple(Fraction(v, den) for v in self.ints[i : i + n])
            for i in range(0, n * n, n)
        )

    @property
    def columns(self) -> tuple[tuple[Fraction, ...], ...]:
        return tuple(zip(*self.rows))

    def det(self) -> Fraction:
        """Exact determinant, by fraction-free elimination on the ints:
        det = det(ints) / den^n."""
        return Fraction(_int_det(self.ints, self.n), self.den**self.n)

    def apply(self, point: Sequence[RationalLike]) -> tuple[Fraction, ...]:
        """Matrix times column vector; maps T_n points into this cell."""
        coords, scale = _cleared(as_fraction(v) for v in point)
        n = self.n
        if len(coords) != n:
            raise DimensionMismatchError(
                f"point has {len(coords)} coordinates, matrix is {n} x {n}"
            )
        return tuple(
            Fraction(sum(map(mul, self.ints[i : i + n], coords)), scale * self.den)
            for i in range(0, n * n, n)
        )

    def __matmul__(self, other: "NormalizedMatrix") -> "NormalizedMatrix":
        if not isinstance(other, NormalizedMatrix):
            return NotImplemented
        if other.n != self.n:
            raise DimensionMismatchError("matrix sizes differ")
        return NormalizedMatrix.from_columns(self.apply(col) for col in other.columns)

    def __eq__(self, other) -> bool:
        if not isinstance(other, NormalizedMatrix):
            return NotImplemented
        return self.den == other.den and self.ints == other.ints

    def __hash__(self) -> int:
        return hash((self.den, self.ints))

    def __repr__(self) -> str:
        body = "; ".join(" ".join(map(_write_rational, row)) for row in self.rows)
        return f"NormalizedMatrix({body})"


def diameter_sq(matrix: NormalizedMatrix) -> Fraction:
    """Largest squared Euclidean distance between two cell vertices."""
    n = matrix.n
    pairs = itertools.combinations([matrix.ints[j::n] for j in range(n)], 2)
    widest = max((sum((a - b) ** 2 for a, b in zip(p, q)) for p, q in pairs), default=0)
    return Fraction(widest, matrix.den**2)


def compose(matrices: Iterable[NormalizedMatrix]) -> NormalizedMatrix:
    """Product of matrices left to right: the cell reached along that path."""
    ms = list(matrices)
    if not ms:
        raise ValueError("compose needs at least one matrix")
    acc = ms[0]
    for m in ms[1:]:
        acc = acc @ m
    return acc


def matrix_power(matrix: NormalizedMatrix, k: int) -> NormalizedMatrix:
    """k-fold product of a matrix with itself, k >= 1."""
    if not isinstance(k, int) or isinstance(k, bool) or k < 1:
        raise ValueError("power must be an integer >= 1")
    return compose((matrix,) * k)


class SubdivisionScheme:
    """An ordered family of subsimplex matrices tiling the standard simplex.

    Order is significant: branch index paths and witness reports use the
    1-based position of each matrix, so reordering matrices produces
    different (equally valid) traces.  Every scheme is checked when it is
    built: the constructor raises SchemeError("invalid scheme: ...") with the
    failed validate_scheme result attached, so a scheme object is valid, and
    keeps the passed result as `validation`.  The name must be one a
    scheme file can carry: one line, not empty, with no '#' and no leading
    or trailing whitespace.
    """

    __slots__ = ("name", "n", "matrices", "validation", "__weakref__")

    def __init__(self, name: str, n: int, matrices: Iterable[NormalizedMatrix]):
        mats = tuple(matrices)
        if not mats:
            raise SchemeError("a scheme needs at least one matrix")
        if not isinstance(n, int) or n < 2:
            raise SchemeError("schemes need n >= 2 variables")
        for m in mats:
            if m.n != n:
                raise DimensionMismatchError(
                    f"scheme is {n}-dimensional but contains a {m.n} x {m.n} matrix"
                )
        name = str(name)
        if name.splitlines() != [name] or "#" in name or name != name.strip():
            raise SchemeError(
                f"scheme name {name!r} is not one a scheme file can carry: one "
                "nonempty line with no '#' and no leading or trailing whitespace"
            )
        self.name = name
        self.n = n
        self.matrices = mats
        validation = validate_scheme(self)
        if not validation.ok:
            raise SchemeError(
                "invalid scheme: " + "; ".join(validation.failures()), validation
            )
        self.validation = validation

    def __len__(self) -> int:
        return len(self.matrices)

    def __repr__(self) -> str:
        return (
            f"SubdivisionScheme({self.name!r}, n={self.n}, "
            f"matrices={len(self.matrices)})"
        )


# ---------------------------------------------------------------------------
# built-in schemes


def _mat(*rows: str) -> NormalizedMatrix:
    return NormalizedMatrix(row.split() for row in rows)


def make_wds_scheme(n: int) -> SubdivisionScheme:
    """Barycentric subdivision of T_n: one cell per coordinate ordering.

    For each permutation p of the n coordinates, column j of the cell
    matrix is the average of the basis vectors e_p(1), ..., e_p(j): a
    vertex, an edge midpoint, a facet barycenter, and so on down to the
    full barycenter.  Permutations are enumerated in lexicographic order,
    so the identity ordering's upper-triangular matrix comes first and the
    scheme has n! cells, each of volume fraction 1/n!.
    """
    if not isinstance(n, int) or n < 2:
        raise SchemeError("barycentric subdivision needs an integer n >= 2")
    # column j holds 1/(j + 1), in lowest terms, in rows perm[0..j]: over
    # den = lcm(1..n), row perm[j] is zero left of column j and tail[j:] on
    den = lcm(*range(1, n + 1))
    tail = [den // j for j in range(1, n + 1)]
    mats = []
    for perm in itertools.permutations(range(n)):
        ints = [0] * (n * n)
        for j, p in enumerate(perm):
            ints[p * n + j : p * n + n] = tail[j:]
        mats.append(NormalizedMatrix._of(n, tuple(ints), den))
    return SubdivisionScheme(f"wds{n}", n, mats)


def make_midpoint3_scheme() -> SubdivisionScheme:
    """Edge-midpoint subdivision of the triangle: three corner cells plus
    the medial cell, all at half scale (4 cells of volume fraction 1/4)."""
    return SubdivisionScheme(
        "midpoint3",
        3,
        (
            _mat("1 1/2 1/2", "0 1/2 0", "0 0 1/2"),
            _mat("0 0 1/2", "1 1/2 1/2", "0 1/2 0"),
            _mat("0 1/2 0", "0 0 1/2", "1 1/2 1/2"),
            _mat("1/2 0 1/2", "1/2 1/2 0", "0 1/2 1/2"),
        ),
    )


def make_trisection3_scheme() -> SubdivisionScheme:
    """Edge-trisection subdivision of the triangle: nine cells at one-third
    scale (volume fraction 1/9 each), row by row from the first corner."""
    return SubdivisionScheme(
        "trisection3",
        3,
        (
            _mat("1 2/3 2/3", "0 1/3 0", "0 0 1/3"),
            _mat("2/3 1/3 2/3", "1/3 1/3 0", "0 1/3 1/3"),
            _mat("2/3 1/3 1/3", "1/3 2/3 1/3", "0 0 1/3"),
            _mat("1/3 0 1/3", "2/3 2/3 1/3", "0 1/3 1/3"),
            _mat("1/3 0 0", "2/3 1 2/3", "0 0 1/3"),
            _mat("2/3 1/3 1/3", "0 1/3 0", "1/3 1/3 2/3"),
            _mat("1/3 0 1/3", "1/3 1/3 0", "1/3 2/3 2/3"),
            _mat("1/3 0 0", "1/3 2/3 1/3", "1/3 1/3 2/3"),
            _mat("1/3 0 0", "0 1/3 0", "2/3 2/3 1"),
        ),
    )


def make_central3_scheme() -> SubdivisionScheme:
    """Fan from the triangle's barycenter: three cells, each keeping one
    full edge of the base triangle.

    Deliberately non-contracting (every cell shares an edge with T_3), so
    it can narrow a search region but can never certify nonnegativity by
    shrinking cells; useful as a worked non-convergent example.
    """
    return SubdivisionScheme(
        "central3",
        3,
        (
            _mat("1 0 1/3", "0 1 1/3", "0 0 1/3"),
            _mat("0 0 1/3", "1 0 1/3", "0 1 1/3"),
            _mat("0 1 1/3", "0 0 1/3", "1 0 1/3"),
        ),
    )


def _point3(value, label: str) -> tuple[Fraction, Fraction, Fraction]:
    pt = tuple(as_fraction(v) for v in value)
    if len(pt) != 3:
        raise SchemeError(f"{label} must have 3 coordinates")
    if sum(pt) != 1:
        raise SchemeError(f"{label} must have coordinate sum 1, got {sum(pt)}")
    return pt


def _edge_point(value, zero_at: int, label: str):
    pt = _point3(value, label)
    if pt[zero_at] != 0:
        raise SchemeError(
            f"{label} must have coordinate {zero_at + 1} equal to 0, got {pt[zero_at]}"
        )
    if any(pt[i] <= 0 for i in range(3) if i != zero_at):
        raise SchemeError(f"{label} must lie strictly inside its edge")
    return pt


def make_star3_scheme(center, edge12, edge23, edge13) -> SubdivisionScheme:
    """Six-cell star subdivision of the triangle around an interior point.

    `center` is a strictly interior point; `edge12`, `edge23` and `edge13`
    lie strictly inside the corresponding edges (so edge12 has third
    coordinate 0, edge23 has first coordinate 0, edge13 has second
    coordinate 0).  Each cell is (corner vertex, adjacent edge point,
    center); with the barycenter and edge midpoints this reproduces the
    barycentric subdivision's six cells.
    """
    o = _point3(center, "center")
    if any(v <= 0 for v in o):
        raise SchemeError("center must be strictly interior (all coordinates > 0)")
    a = _edge_point(edge12, 2, "edge12")
    b = _edge_point(edge23, 0, "edge23")
    c = _edge_point(edge13, 1, "edge13")
    e1, e2, e3 = (1, 0, 0), (0, 1, 0), (0, 0, 1)
    cells = (
        (e1, a, o),
        (e2, a, o),
        (e2, b, o),
        (e3, b, o),
        (e3, c, o),
        (e1, c, o),
    )
    return SubdivisionScheme(
        "star3", 3, tuple(NormalizedMatrix.from_columns(cols) for cols in cells)
    )


# ---------------------------------------------------------------------------
# validation and convergence


@dataclass(frozen=True)
class SchemeValidation:
    name: str  # the scheme's name and dimension, for reports
    n: int
    dets: tuple[Fraction, ...]  # one per matrix, in scheme order
    det_sum: Fraction  # sum of |det| over all matrices
    problems: tuple[str, ...]  # one message per failed check, in check order

    @property
    def ok(self) -> bool:
        return not self.problems

    def failures(self) -> list[str]:
        return list(self.problems)


def validate_scheme(scheme: SubdivisionScheme) -> SchemeValidation:
    """Check every matrix (columns on the simplex, positive volume) and that
    the cell volumes sum to the whole simplex (sum of |det| equal to 1).

    When those checks pass, the cells must also meet face to face (see
    _tiling_problem), which together with the volume sum proves that they
    tile the simplex; a valid tiling that is not face-to-face is refused.

    SubdivisionScheme runs this when it is built, refuses a failing family
    and keeps the result as scheme.validation, so for a scheme object the
    result is always ok; analyze-scheme prints it as a per-matrix report.
    """
    dets = []
    problems = []
    n = scheme.n
    for idx, m in enumerate(scheme.matrices, start=1):
        # column j sums to 1 exactly when its ints sum to den
        if any(sum(m.ints[j::n]) != m.den for j in range(n)):
            problems.append(f"matrix {idx}: some column does not sum to 1")
        if min(m.ints) < 0:
            problems.append(f"matrix {idx}: negative entry")
        d = m.det()
        if not d:
            problems.append(f"matrix {idx}: singular (zero volume cell)")
        dets.append(d)
    total = sum(map(abs, dets), Fraction(0))
    if total != 1:
        problems.append(
            "cell volumes do not tile the simplex: "
            f"sum |det| = {_write_rational(total)}, expected 1"
        )
    if not problems:
        problem = _tiling_problem(scheme.matrices, dets)
        if problem is not None:
            problems.append(problem)
    return SchemeValidation(scheme.name, scheme.n, tuple(dets), total, tuple(problems))


def _tiling_problem(matrices: Sequence[NormalizedMatrix], dets: Sequence[Fraction]):
    """Why nonsingular cells on the simplex whose volumes sum to 1 may not
    tile it, or None when they tile it face to face.

    A facet of a cell is its vertex set without one column.  One whose
    vertices share a zero coordinate lies on the simplex's boundary.  Every
    other facet must belong to exactly two cells whose opposite vertices
    lie on opposite sides of it.  Then the number of cells over a point
    does not change across any facet, so it is constant almost everywhere,
    and sum |det| = 1 makes it 1.  The side of a cell's opposite vertex is
    sign(det) times the parity of the column order that lists the sorted
    facet first.  Only the first failing facet is reported.
    """
    # a vertex is numbered by its column of ints in lowest terms, which sums
    # to its denominator; a facet is its sorted vertex numbers
    ids: dict[tuple, int] = {}
    facets: dict[tuple, list] = {}  # facet -> [(cell, side)]
    for idx, (m, d) in enumerate(zip(matrices, dets), start=1):
        n = m.n
        keys = []
        for j in range(n):
            col = m.ints[j::n]
            g = gcd(m.den, *col)
            keys.append(tuple(v // g for v in col))
        vs = [ids.setdefault(key, len(ids)) for key in keys]
        order = sorted(range(n), key=vs.__getitem__)
        inversions = sum(a > b for i, a in enumerate(order) for b in order[i + 1 :])
        sign = (1 if d > 0 else -1) * (-1) ** inversions
        # the facet without column j lies on the boundary when j is the one
        # column nonzero in some row
        supports = ([j for j in range(n) if keys[j][i]] for i in range(n))
        boundary = {nz[0] for nz in supports if len(nz) == 1}
        for k, j in enumerate(order):
            if j not in boundary:
                facet = tuple(vs[i] for i in order if i != j)
                facets.setdefault(facet, []).append((idx, sign * (-1) ** (n - 1 - k)))
    for facet, cells in facets.items():
        if len(cells) == 2 and cells[0][1] != cells[1][1]:
            continue
        by_id = list(ids)  # vertex v's key is the v-th
        corners = [tuple(Fraction(x, sum(by_id[v])) for x in by_id[v]) for v in facet]
        where = ", ".join(f"({', '.join(map(_write_rational, c))})" for c in corners)
        for side in (1, -1):
            same = [c for c, s in cells if s == side]
            if len(same) > 1:
                return f"cells {same[0]} and {same[1]} overlap at the facet {where}"
        i = cells[0][0]  # the facet's one cell
        center = tuple(sum(c) / len(facet) for c in zip(*corners))
        # in a tiling the centre can lie only on the boundary of another cell
        touching = None
        for j, m in enumerate(matrices, start=1):
            if j == i:
                continue
            low = min(_barycentric(m, center))
            if low > 0:
                point = ", ".join(map(_write_rational, center))
                return f"cells {i} and {j} overlap at ({point})"
            if low == 0 and touching is None:
                touching = j
        if touching is not None:
            return (
                f"cells {i} and {touching} are not face-to-face at {where}; "
                "only face-to-face tilings are verified"
            )
        return (
            f"no cell lies beyond cell {i} at the facet {where}, so with "
            "sum |det| = 1 some cells overlap"
        )
    return None


def _barycentric(m: NormalizedMatrix, point: tuple) -> list[Fraction]:
    # Cramer's rule on the ints: with point = coords / scale, coordinate k
    # is det(ints with column k replaced by coords) * den / (det(ints) * scale)
    n = m.n
    coords, scale = _cleared(point)
    whole = _int_det(m.ints, n) * scale
    out = []
    for k in range(n):
        entries = list(m.ints)
        entries[k::n] = coords
        out.append(Fraction(_int_det(entries, n) * m.den, whole))
    return out


@dataclass(frozen=True)
class ConvergenceReport:
    """A level-1 test of whether repeated subdivision shrinks every cell to
    a point.

    `convergent` is False when some first-level cell keeps two distinct
    vertices of the base simplex (two columns that are standard basis
    vectors), and True otherwise; such column pairs are listed in
    `shared_edges` as (matrix index, (column, column)), 1-based.  This is
    not an exact test.  A full edge kept at level 1 can be lost at later
    levels, so a convergent scheme can be reported False: the bisection of
    T_4 into (e1, e3, e4, m) and (e2, e3, e4, m), m the midpoint of e1 e2,
    is, though its largest squared cell diameter falls to 13/32 by level 8.
    True is not proved beyond level 1 either, though no scheme is known
    for which it is wrong.  When True, `contraction_ratio_sq` holds the
    largest squared diameter of a first-level cell over that of the
    standard simplex, which is 2.  It describes level 1 only and is no
    bound for later levels: wds3's ratio is 1/3, yet a level-2 cell
    reaches squared diameter 13/54 > 2 * (1/3)**2.  When every cell is a
    scaled copy of the simplex (midpoint3, trisection3), the largest
    level-k squared diameter is exactly 2 * ratio**k.
    """

    convergent: bool
    contraction_ratio_sq: Fraction | None
    shared_edges: tuple[tuple[int, tuple[int, int]], ...]


def check_convergence(scheme: SubdivisionScheme) -> ConvergenceReport:
    shared = []
    for idx, m in enumerate(scheme.matrices, start=1):
        # columns are nonnegative and sum to den, so a basis vector holds den;
        # a scheme's cells are nonsingular, so their columns are distinct
        units = [j + 1 for j in range(m.n) if m.den in m.ints[j :: m.n]]
        shared.extend((idx, pair) for pair in itertools.combinations(units, 2))
    if shared:
        return ConvergenceReport(False, None, tuple(shared))
    ratio = max(diameter_sq(m) for m in scheme.matrices) / 2
    return ConvergenceReport(True, ratio, ())


# ---------------------------------------------------------------------------
# scheme files
#
# Plain text, '#' starts a comment, blank lines are ignored:
#
#     name: midpoint3
#     n: 3
#     matrix:
#     1 1/2 1/2
#     0 1/2 0
#     0 0 1/2
#     matrix:
#     ...
#
# Each matrix block holds n rows of n whitespace-separated exact rationals
# written as signed or unsigned integers or p/q (no decimal points,
# exponents or digit separators; as_fraction reads them).  Every integer, in
# an entry or in the n: field, has at most MAX_DIGITS digits.  Column j of
# each matrix is vertex j of the subsimplex.

def format_scheme(scheme: SubdivisionScheme) -> str:
    """Render a scheme in the scheme file format (round-trips via parse_scheme)."""
    lines = [
        f"# {scheme.name}: {len(scheme.matrices)} cells, n = {scheme.n}",
        f"name: {scheme.name}",
        f"n: {scheme.n}",
    ]
    for m in scheme.matrices:
        lines.append("matrix:")
        for row in m.rows:
            lines.append(" ".join(map(_write_rational, row)))
    return "\n".join(lines) + "\n"


def parse_scheme(text: str) -> SubdivisionScheme:
    """Parse the scheme file format into a (checked) SubdivisionScheme."""
    name: str | None = None
    n: int | None = None
    matrices: list[list[tuple[Fraction, ...]]] = []
    in_matrix = False

    def fail(lineno: int, msg: str):
        raise SchemeError(f"line {lineno}: {msg}")

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("name:"):
            if name is not None:
                fail(lineno, "duplicate name field")
            name = line[len("name:"):].strip()
            if not name:
                fail(lineno, "empty name")
        elif line.startswith("n:"):
            if n is not None:
                fail(lineno, "duplicate n field")
            body = line[len("n:"):].strip()
            try:
                n = _read_int(body) if _DIGITS.fullmatch(body) else None
            except ValueError as exc:
                fail(lineno, str(exc))
            if n is None or n < 2:
                fail(lineno, f"n must be an integer >= 2, got {body!r}")
        elif line == "matrix:":
            if n is None:
                fail(lineno, "n must be declared before the first matrix")
            if matrices and len(matrices[-1]) != n:
                fail(lineno, f"previous matrix has {len(matrices[-1])} rows, expected {n}")
            matrices.append([])
            in_matrix = True
        else:
            if not in_matrix:
                fail(lineno, f"unexpected line {line!r}")
            parts = line.split()
            if len(parts) != n:
                fail(lineno, f"row has {len(parts)} entries, expected {n}")
            try:
                row = tuple(map(as_fraction, parts))
            except ValueError as exc:
                fail(lineno, str(exc))
            if len(matrices[-1]) >= n:
                fail(lineno, f"matrix has more than {n} rows")
            matrices[-1].append(row)

    if name is None:
        raise SchemeError("missing name field")
    if n is None:
        raise SchemeError("missing n field")
    if not matrices:
        raise SchemeError("no matrices")
    if len(matrices[-1]) != n:
        raise SchemeError(f"last matrix has {len(matrices[-1])} rows, expected {n}")
    return SubdivisionScheme(name, n, tuple(NormalizedMatrix(m) for m in matrices))


def load_scheme(path) -> SubdivisionScheme:
    """Read and parse a scheme file."""
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    try:
        return parse_scheme(text)
    except SchemeError as exc:
        raise SchemeError(f"{path}: {exc}", exc.validation) from None


def save_scheme(scheme: SubdivisionScheme, path) -> None:
    """Write a scheme in the scheme file format."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(format_scheme(scheme))
