"""Breadth-first sign decision for forms on the nonnegative orthant.

Scaling a point by a positive constant never changes a form's sign, so only
directions matter and the standard simplex T_n carries all of them.  The
engine keeps a frontier of (form, index path) branches, one per subsimplex
still in doubt.  Each level replaces every branch by its images under the
scheme's matrices:

  - a child whose coefficients are all nonnegative is nonnegative on its
    whole cell and is pruned;
  - a child whose coefficient sum is negative is negative at its cell's
    barycenter, which is an explicit interior counterexample: the run stops
    and reports the mapped barycenter as witness;
  - anything else survives to the next level.

An empty frontier proves nonnegativity on all of T_n (every direction is
covered by some pruned ancestor); hitting max_depth with live branches is
inconclusive.  All arithmetic is exact.

Branch forms are content normalized and kept as coprime integer coefficient
vectors; they become Forms only at the public expand_level boundary.  The
engine clears each matrix's denominators once (scaling a substitution matrix
by a positive constant scales the image form by a positive constant, which
normalization removes and no sign test can see) and precomputes, per scheme
and degree, the expansion of every monomial's image as integer columns; a
child is then one integer matrix-vector accumulation.  Cells that differ by
a row and a column permutation (the n! cells of the barycentric scheme are
one such class) share one set of columns, read through an input and an
output index map, so each class is expanded once.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from math import gcd, lcm
from operator import itemgetter
from typing import Callable, Iterable, NamedTuple, Sequence

from .forms import DimensionMismatchError, Form, _compositions, _mul_linear
from .subdivision import SubdivisionScheme, barycenter

IndexPath = tuple[int, ...]  # 1-based matrix choices, root to leaf


class Outcome(Enum):
    PSD = "PSD"
    INDEFINITE = "indefinite"
    INCONCLUSIVE = "inconclusive"


@dataclass(frozen=True)
class Branch:
    """A live subsimplex: the restricted form and how we got there."""

    form: Form
    path: IndexPath


@dataclass(frozen=True)
class RunStats:
    branches_expanded: int  # child forms materialized (pruned and negative included)
    branches_pruned_positive: int
    peak_frontier_size: int


@dataclass(frozen=True)
class Verdict:
    outcome: Outcome
    depth_reached: int
    stats: RunStats
    witness_path: IndexPath | None = None
    witness_point: tuple[Fraction, ...] | None = None
    witness_value: Fraction | None = None


class LevelResult(NamedTuple):
    children: list[Branch]
    pruned: int
    negative: Branch | None


# ---------------------------------------------------------------------------
# per-(scheme, degree) substitution tables


class _Table:
    """Integer expansion columns for one scheme at one degree, one set per
    permutation class of cells.

    Suppose cell M and the class representative R satisfy
    M[i][j] = R[sigma[i]][tau[j]].  Then F(My) = (F o P)(R(Qy)) for the
    permutation matrices P and Q of sigma and tau, so R's expansion of each
    monomial serves M through two index maps.  cells[m] = (columns, pin,
    pout) for scheme matrix m: columns[j] lists (row_index, coefficient)
    pairs, the expansion of monomial `exponents[j]` under the representative
    with denominators cleared; input column j reads columns[pin[j]], and the
    child's coefficient at column r is the accumulated coefficient at
    pout[r].  A representative carries identity maps.
    """

    __slots__ = ("exponents", "index", "cells")

    def __init__(self, scheme: SubdivisionScheme, degree: int):
        n = scheme.n
        zero = (0,) * n
        images = []
        for mat in scheme.matrices:
            scale = 1
            for row in mat.rows:
                for v in row:
                    scale = lcm(scale, v.denominator)
            images.append(tuple(tuple(int(v * scale) for v in row) for row in mat.rows))
        self.exponents = tuple(_compositions(degree, n))[::-1]
        self.index = {e: i for i, e in enumerate(self.exponents)}
        columns = {}  # representative -> its expansion columns
        maps = {}  # permutation -> its column map, shared by the cells using it
        self.cells = []
        for m, (rep, sigma, tau) in enumerate(_classes(images)):
            if rep == m:
                # walk degrees upward, keeping only the previous level in
                # memory; extending each monomial by e_i for i up to its first
                # nonzero index reaches every monomial of the next degree once
                prev = {zero: {zero: 1}}
                for _ in range(degree):
                    cur = {}
                    for pred, expansion in prev.items():
                        for i in range(n):
                            alpha = pred[:i] + (pred[i] + 1,) + pred[i + 1 :]
                            cur[alpha] = _mul_linear(expansion, images[m][i])
                            if pred[i]:
                                break
                    prev = cur
                columns[m] = [
                    [(self.index[beta], c) for beta, c in prev[alpha].items()]
                    for alpha in self.exponents
                ]
            for perm in (sigma, tau):
                if perm not in maps:
                    # column of e' where e'[perm[i]] = e[i], for each column's e
                    moved = itemgetter(*sorted(range(n), key=perm.__getitem__))
                    maps[perm] = [self.index[moved(e)] for e in self.exponents]
            self.cells.append((columns[rep], maps[sigma], maps[tau]))


def _classes(images: Sequence[tuple]) -> list[tuple[int, tuple, tuple]]:
    """(rep, sigma, tau) per cell, with cell[i][j] == images[rep][sigma[i]][tau[j]]
    and rep the first cell of its permutation class.

    Only cells with the same sorted rows and sorted columns can match.
    """
    found = []
    reps: dict[tuple, list[int]] = {}  # sorted rows, sorted columns -> representatives
    for m, rows in enumerate(images):
        key = tuple(
            tuple(sorted(tuple(sorted(line)) for line in lines))
            for lines in (rows, zip(*rows))
        )
        candidates = reps.setdefault(key, [])
        for rep in candidates:
            match = _match(rows, images[rep])
            if match is not None:
                found.append((rep, *match))
                break
        else:
            candidates.append(m)
            identity = tuple(range(len(rows)))
            found.append((m, identity, identity))
    return found


def _match(rows: tuple, rep_rows: tuple):
    """(sigma, tau) with rows[i][j] == rep_rows[sigma[i]][tau[j]], or None.

    tau grows one column at a time, and a partial tau survives only while
    the rows cut to its columns are a row permutation of the cell's rows
    cut to as many columns; sigma then follows from the rows, which are
    distinct in a nonsingular matrix.
    """
    n = len(rows)

    def extend(tau: tuple):
        k = len(tau)
        cut = sorted(tuple(r[t] for t in tau) for r in rep_rows)
        if sorted(r[:k] for r in rows) != cut:
            return None
        if k == n:
            return tau
        for t in range(n):
            if t not in tau:
                found = extend(tau + (t,))
                if found is not None:
                    return found
        return None

    tau = extend(())
    if tau is None:
        return None
    row_index = {tuple(r[t] for t in tau): s for s, r in enumerate(rep_rows)}
    return tuple(row_index[row] for row in rows), tau


# tables live exactly as long as their scheme: scheme -> {degree: _Table}
_TABLES: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()


def _table_for(scheme: SubdivisionScheme, degree: int) -> _Table:
    tables = _TABLES.setdefault(scheme, {})
    table = tables.get(degree)
    if table is None:
        table = tables[degree] = _Table(scheme, degree)
    return table


# ---------------------------------------------------------------------------
# level expansion


def _expand(frontier: Iterable[tuple[list, IndexPath]], table: _Table) -> tuple:
    """expand_level on (items, path) branches, where items lists a form's
    content-normalized coefficients as (table column, int) pairs."""
    size = len(table.exponents)
    children = []
    pruned = 0
    for items, path in frontier:
        for m_idx, (col, pin, pout) in enumerate(table.cells, start=1):
            out = [0] * size
            for j, v in items:
                for r, c in col[pin[j]]:
                    out[r] += c * v
            if min(out) >= 0:
                pruned += 1
                continue
            out = [out[r] for r in pout]
            g = gcd(*out)
            child = ([(r, v // g) for r, v in enumerate(out) if v], path + (m_idx,))
            if sum(out) < 0:
                return children, pruned, child
            children.append(child)
    return children, pruned, None


def expand_level(
    frontier: Sequence[Branch], scheme: SubdivisionScheme
) -> LevelResult:
    """Expand every branch by every scheme matrix, in order.

    Children are visited parent by parent, matrix by matrix.  Trivially
    positive children are counted in `pruned` and dropped; on the first
    trivially negative child the scan stops and that child is returned as
    `negative` (later children are never materialized); all other children
    are returned content normalized.  Every branch form must have the
    scheme's dimension and one shared degree.
    """
    branches = list(frontier)
    if not branches:
        return LevelResult([], 0, None)
    degree = branches[0].form.degree
    for b in branches:
        if b.form.n != scheme.n:
            raise DimensionMismatchError(
                f"branch form has {b.form.n} variables, scheme has {scheme.n}"
            )
        if b.form.degree != degree:
            raise ValueError("frontier mixes forms of different degrees")
    table = _table_for(scheme, degree)
    index, exps = table.index, table.exponents
    parents = []
    for b in branches:
        terms = b.form.normalize_content().terms
        parents.append(([(index[e], c.numerator) for e, c in terms.items()], b.path))

    def branch(child) -> Branch:
        items, path = child
        return Branch(Form(scheme.n, {exps[r]: v for r, v in items}, degree), path)

    children, pruned, negative = _expand(parents, table)
    negative = None if negative is None else branch(negative)
    return LevelResult([branch(c) for c in children], pruned, negative)


# ---------------------------------------------------------------------------
# the decision loop


def witness_point(path: Iterable[int], scheme: SubdivisionScheme) -> tuple[Fraction, ...]:
    """Map the simplex barycenter through the cells of a 1-based index path."""
    matrices = []
    count = len(scheme.matrices)
    for i in path:
        if not isinstance(i, int) or isinstance(i, bool) or not 1 <= i <= count:
            raise ValueError(f"path index {i!r} out of range 1..{count}")
        matrices.append(scheme.matrices[i - 1])
    # the leaf's cell maps the barycenter first, then each ancestor's cell
    point = barycenter(scheme.n)
    for m in reversed(matrices):
        point = m.apply(point)
    return point


def _dedup(children: list) -> list:
    first = {}  # keyed by coefficients; insertion order keeps the first path
    for child in children:
        first.setdefault(tuple(child[0]), child)
    return list(first.values())


def decide(
    form: Form,
    scheme: SubdivisionScheme,
    max_depth: int = 30,
    dedup: bool = False,
    on_level: Callable[[int, int, int, int], None] | None = None,
) -> Verdict:
    """Decide whether `form` is nonnegative on the nonnegative orthant.

    Returns a PSD verdict when subdivision proves nonnegativity, an
    indefinite verdict carrying an exact interior point with negative value,
    or inconclusive after `max_depth` levels.  `dedup` drops repeated
    identical branch forms within a level, keeping the first path (off by
    default so traces match the plain nested-loop expansion order).
    `on_level`, when given, is called after each completed level as
    on_level(level, parents, pruned, kept); the level that stops the run on
    a negative child is reported by the verdict instead.

    The verdict is deterministic: same form, scheme and options give the
    identical verdict, witness and stats.
    """
    if form.is_zero:
        raise ValueError("cannot decide the zero form; it is identically zero")
    if form.n != scheme.n:
        raise DimensionMismatchError(
            f"form has {form.n} variables, scheme subdivides {scheme.n}"
        )
    if not isinstance(max_depth, int) or isinstance(max_depth, bool) or max_depth < 1:
        raise ValueError("max_depth must be an integer >= 1")

    def indefinite(depth: int, path: IndexPath, stats: RunStats) -> Verdict:
        point = witness_point(path, scheme)
        value = form.evaluate(point)
        if not value < 0:
            raise AssertionError(
                "internal error: witness point does not evaluate negative"
            )
        return Verdict(Outcome.INDEFINITE, depth, stats, path, point, value)

    # depth 0: the input form itself may already settle it
    if form.is_trivially_negative():
        return indefinite(0, (), RunStats(0, 0, 1))
    if form.is_trivially_positive():
        return Verdict(Outcome.PSD, 0, RunStats(0, 0, 1))

    table = _table_for(scheme, form.degree)
    terms = form.normalize_content().terms
    frontier = [([(table.index[e], c.numerator) for e, c in terms.items()], ())]
    expanded = 0
    pruned_total = 0
    peak = 1
    for level in range(1, max_depth + 1):
        children, pruned, negative = _expand(frontier, table)
        expanded += len(children) + pruned + (1 if negative is not None else 0)
        pruned_total += pruned
        if negative is not None:
            return indefinite(level, negative[1], RunStats(expanded, pruned_total, peak))
        if dedup:
            children = _dedup(children)
        peak = max(peak, len(children))
        if on_level is not None:
            on_level(level, len(frontier), pruned, len(children))
        if not children:
            return Verdict(Outcome.PSD, level, RunStats(expanded, pruned_total, peak))
        frontier = children
    return Verdict(
        Outcome.INCONCLUSIVE, max_depth, RunStats(expanded, pruned_total, peak)
    )


def run_report(verdict: Verdict) -> dict:
    """JSON-ready summary of a verdict; rationals are rendered as 'p/q'."""
    report: dict = {
        "verdict": verdict.outcome.value,
        "depth_reached": verdict.depth_reached,
        "stats": {
            "branches_expanded": verdict.stats.branches_expanded,
            "branches_pruned_positive": verdict.stats.branches_pruned_positive,
            "peak_frontier_size": verdict.stats.peak_frontier_size,
        },
    }
    if verdict.outcome is Outcome.INDEFINITE:
        report["witness"] = {
            "path": list(verdict.witness_path),
            "point": [str(v) for v in verdict.witness_point],
            "value": str(verdict.witness_value),
        }
    if verdict.outcome is Outcome.INCONCLUSIVE:
        report["note"] = (
            "undecided: the form may be nonnegative with zeros on the simplex "
            "(then no depth suffices) or max_depth may simply be too small"
        )
    return report
