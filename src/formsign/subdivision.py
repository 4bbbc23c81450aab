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
import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

from .forms import DimensionMismatchError, RationalLike, as_fraction


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
    if not isinstance(n, int) or n < 1:
        raise ValueError("n must be a positive integer")
    return (Fraction(1, n),) * n


class NormalizedMatrix:
    """Square rational matrix whose columns name subsimplex vertices.

    The constructor pins shape and exactness only.  Whether the columns
    really lie on the simplex (nonnegative, summing to 1) and span a
    positive-volume cell is checked when matrices form a SubdivisionScheme,
    so a single matrix that breaks those rules can still be represented.
    """

    __slots__ = ("n", "rows")

    def __init__(self, rows: Iterable[Iterable[RationalLike]]):
        rs = tuple(tuple(as_fraction(v) for v in row) for row in rows)
        n = len(rs)
        if n == 0 or any(len(r) != n for r in rs):
            raise ValueError("matrix must be square and nonempty")
        self.n = n
        self.rows = rs

    @classmethod
    def from_columns(cls, columns: Iterable[Iterable[RationalLike]]) -> "NormalizedMatrix":
        cols = tuple(tuple(col) for col in columns)
        # zip would truncate ragged columns; __init__ coerces the entries
        if any(len(c) != len(cols) for c in cols):
            raise ValueError("matrix must be square and nonempty")
        return cls(zip(*cols))

    @classmethod
    def identity(cls, n: int) -> "NormalizedMatrix":
        return cls(
            tuple(
                tuple(Fraction(1 if i == j else 0) for j in range(n))
                for i in range(n)
            )
        )

    @property
    def columns(self) -> tuple[tuple[Fraction, ...], ...]:
        return tuple(zip(*self.rows))

    def det(self) -> Fraction:
        """Exact determinant by Gaussian elimination."""
        n = self.n
        m = [list(r) for r in self.rows]
        det = Fraction(1)
        for col in range(n):
            pivot = next((r for r in range(col, n) if m[r][col]), None)
            if pivot is None:
                return Fraction(0)
            if pivot != col:
                m[col], m[pivot] = m[pivot], m[col]
                det = -det
            det *= m[col][col]
            inv = 1 / m[col][col]
            for r in range(col + 1, n):
                if m[r][col]:
                    factor = m[r][col] * inv
                    for c in range(col, n):
                        m[r][c] -= factor * m[col][c]
        return det

    def apply(self, point: Sequence[RationalLike]) -> tuple[Fraction, ...]:
        """Matrix times column vector; maps T_n points into this cell."""
        pt = tuple(as_fraction(v) for v in point)
        if len(pt) != self.n:
            raise DimensionMismatchError(
                f"point has {len(pt)} coordinates, matrix is {self.n} x {self.n}"
            )
        return tuple(
            sum((row[j] * pt[j] for j in range(self.n)), Fraction(0))
            for row in self.rows
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
        return self.rows == other.rows

    def __hash__(self) -> int:
        return hash(self.rows)

    def __repr__(self) -> str:
        body = "; ".join(" ".join(str(v) for v in row) for row in self.rows)
        return f"NormalizedMatrix({body})"


def diameter_sq(matrix: NormalizedMatrix) -> Fraction:
    """Largest squared Euclidean distance between two cell vertices."""
    return max(
        (
            sum(((a - b) ** 2 for a, b in zip(p, q)), Fraction(0))
            for p, q in itertools.combinations(matrix.columns, 2)
        ),
        default=Fraction(0),
    )


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
    failed validate_scheme result attached, so a scheme object is valid.
    """

    __slots__ = ("name", "n", "matrices", "__weakref__")

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
        self.name = str(name)
        self.n = n
        self.matrices = mats
        validation = validate_scheme(self)
        if not validation.ok:
            raise SchemeError(
                "invalid scheme: " + "; ".join(validation.failures()), validation
            )

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
    return NormalizedMatrix(tuple(tuple(Fraction(v) for v in row.split()) for row in rows))


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
    mats = []
    for perm in itertools.permutations(range(n)):
        counts = [0] * n
        cols = []
        for j, p in enumerate(perm, start=1):
            counts[p] += 1
            cols.append(tuple(Fraction(c, j) for c in counts))
        mats.append(NormalizedMatrix.from_columns(cols))
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


def make_star3_scheme(
    center, edge12, edge23, edge13, name: str = "star3"
) -> SubdivisionScheme:
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
    e1 = (Fraction(1), Fraction(0), Fraction(0))
    e2 = (Fraction(0), Fraction(1), Fraction(0))
    e3 = (Fraction(0), Fraction(0), Fraction(1))
    cells = (
        (e1, a, o),
        (e2, a, o),
        (e2, b, o),
        (e3, b, o),
        (e3, c, o),
        (e1, c, o),
    )
    return SubdivisionScheme(
        name, 3, tuple(NormalizedMatrix.from_columns(cols) for cols in cells)
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


# how validate_scheme's message for a family whose volumes miss 1 begins
VOLUME_PROBLEM = "cell volumes do not tile the simplex"


def validate_scheme(scheme: SubdivisionScheme) -> SchemeValidation:
    """Check every matrix (columns on the simplex, positive volume) and that
    the cell volumes sum to the whole simplex (sum of |det| equal to 1).

    SubdivisionScheme runs this when it is built and refuses a failing
    family, so for a scheme object the result is always ok; analyze-scheme
    prints it as a per-matrix report.  Overlap beyond the volume count is
    not checked; a family that double-covers one region and misses another
    with matching volumes will pass (see "Scheme files" in README.md).
    """
    dets = []
    problems = []
    for idx, m in enumerate(scheme.matrices, start=1):
        if any(sum(col, Fraction(0)) != 1 for col in zip(*m.rows)):
            problems.append(f"matrix {idx}: some column does not sum to 1")
        if any(v.numerator < 0 for row in m.rows for v in row):
            problems.append(f"matrix {idx}: negative entry")
        d = m.det()
        if not d:
            problems.append(f"matrix {idx}: singular (zero volume cell)")
        dets.append(d)
    total = sum(map(abs, dets), Fraction(0))
    if total != 1:
        problems.append(f"{VOLUME_PROBLEM}: sum |det| = {total}, expected 1")
    return SchemeValidation(scheme.name, scheme.n, tuple(dets), total, tuple(problems))


@dataclass(frozen=True)
class ConvergenceReport:
    """Whether repeated subdivision shrinks every cell to a point.

    A cell that keeps two distinct vertices of the base simplex (two
    columns that are standard basis vectors) keeps that full edge at every
    level, so diameters cannot go to zero; such column pairs are listed in
    `shared_edges` as (matrix index, (column, column)), 1-based.  When no
    cell keeps an edge, cells contract and `contraction_ratio_sq` holds the
    worst squared diameter ratio per level for first-level cells (the
    squared diameter of the standard simplex is 2).
    """

    convergent: bool
    contraction_ratio_sq: Fraction | None
    shared_edges: tuple[tuple[int, tuple[int, int]], ...]


def _is_basis_vector(col: tuple[Fraction, ...]) -> bool:
    return sum(col) == 1 and all(v in (0, 1) for v in col)


def check_convergence(scheme: SubdivisionScheme) -> ConvergenceReport:
    shared = []
    for idx, m in enumerate(scheme.matrices, start=1):
        cols = m.columns
        units = [j for j, col in enumerate(cols) if _is_basis_vector(col)]
        for a, b in itertools.combinations(units, 2):
            if cols[a] != cols[b]:
                shared.append((idx, (a + 1, b + 1)))
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
# exponents or digit separators).  Column j of each matrix is vertex j of
# the subsimplex.

_RATIONAL = re.compile(r"[+-]?[0-9]+(?:/([0-9]+))?")
_COUNT = re.compile(r"[0-9]+")  # str.isdigit() also accepts digits int() refuses


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
            lines.append(" ".join(str(v) for v in row))
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
            if not _COUNT.fullmatch(body) or int(body) < 2:
                fail(lineno, f"n must be an integer >= 2, got {body!r}")
            n = int(body)
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
            row = []
            for tok in parts:
                match = _RATIONAL.fullmatch(tok)
                if match is None or (match[1] is not None and not int(match[1])):
                    fail(lineno, f"not a rational number: {tok!r}")
                row.append(Fraction(tok))
            if len(matrices[-1]) >= n:
                fail(lineno, f"matrix has more than {n} rows")
            matrices[-1].append(tuple(row))

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
