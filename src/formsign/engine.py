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
  - anything else survives to the next level, once: a child equal to one
    already kept on this level (the same content-normalized coefficients)
    is dropped, since identical forms have identical subtrees.

The frontier is thus a set of forms, each under the first path that reached
it in level order, and the first negative child in level order always lies
under a kept branch.  An empty frontier proves nonnegativity on all of T_n
(every direction is covered by some pruned ancestor); hitting max_depth with
live branches is inconclusive.  All arithmetic is exact.

The input form is read once as its content vector (forms._content): coprime
integer coefficients, a positive multiple of the form, so the depth-0 tests
are an int sum and an int minimum, and a witness is mapped and evaluated
on ints too.  Branch forms are kept as such vectors; they become Forms only
at the public expand_level boundary.  The engine substitutes each matrix's
cleared ints (NormalizedMatrix.ints; scaling a substitution matrix by a
positive constant scales the image form by a positive constant, which
normalization removes and no sign test can see) and precomputes, per scheme
and degree, the expansion of every monomial's image.  Cells that differ by
a row and a column permutation (the n! cells of the barycentric scheme are
one such class) share one set of expansions, read through an input and an
output index map, so each class is expanded once.

Expansions are packed (Kronecker substitution): each becomes one Python int
with a w-bit slot per output monomial, built by a depth-first walk over the
monomials that keeps one partial image per degree on its path.  A child is
computed on these packs.  The slot width is chosen per parent so that no child
coefficient reaches 2^(w-1) in absolute value; the child is then 2^(w-1) in
every slot (the bias) plus one big-int multiply-add per parent term, every
biased slot lies in [1, 2^w) without carrying into the next, and its top
bit is set exactly when the coefficient is nonnegative.  So "all
coefficients >= 0" is one AND against the bias, and only kept or negative
children are decoded slot by slot.

Most children are pruned, so on a table of at most _BATCH_ENTRIES strip
entries each level runs in two passes.  There a parent with coefficients
of more than _COARSE_BITS bits is first floored to that many (each v_j
shifted right by the same s).  Table entries are nonnegative and
v_j >= 2^s (v_j >> s), so a floored child with no negative coefficient
proves the child nonnegative: it is counted as pruned and its full-width
product is never formed.  The floored children of all cells are computed
at once: the packs of one input column under every cell, cell 1 on top,
are joined into one strip at a width that holds any floored child, so the
pass is one multiply-add per floored term, and only the cells whose
segment shows a negative slot go on.  A larger table keeps no strips and
runs the exact pass alone.  Every child the floored pass cannot certify,
and every child of a narrower parent, is computed exactly as above, so
the children, their order and the counts are those of the exact pass
alone.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from math import comb, gcd
from operator import itemgetter, mul
from typing import Callable, Iterable, NamedTuple, Sequence

from .forms import (
    DimensionMismatchError,
    Form,
    _compositions,
    _content,
    _write_rational,
)
from .subdivision import SubdivisionScheme, barycenter

IndexPath = tuple[int, ...]  # 1-based matrix choices, root to leaf

# a substitution table's size bound: representative cells times the square of
# the monomial count, C(d + n - 1, n - 1); wds3 reaches it past degree 43
MAX_TABLE_ENTRIES = 10**6

# tables of at most this many strip entries (cells times the square of the
# monomial count, under 1 MB of strips at 56-bit slots) keep strips and
# floor all of a parent's cells at once.  A larger table runs the exact
# pass alone: its strips would take megabytes (3-11 MB for the degree-24
# tables of wds3, midpoint3 and trisection3, 43 MB for wds5 at degree 6)
# and their build is paid again in every cold process, and a parent whose
# first cells settle it early (wds4 at degree 10) would pay for floored
# children of every cell it never reaches
_BATCH_ENTRIES = 2**17

# on a table with strips, _expand floors a parent of more bits than this to
# this many before its exact pass.  The floored multipliers fit one 30-bit
# digit of a Python int, and a floored child fits floored_width bits: 16 for
# the multiplier, the monomial count's bits for the sum and maxc's for the
# entries, plus a sign
_COARSE_BITS = 16


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
    """Counts of distinct branches: a child repeating a kept child of the
    same level is dropped by expand_level and counted nowhere."""

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
    """Packed integer expansions for one scheme at one degree, one set per
    permutation class of cells.

    Suppose cell M and the class representative R satisfy
    M[i][j] = R[sigma[i]][tau[j]].  Then F(My) = (F o P)(R(Qy)) for the
    permutation matrices P and Q of sigma and tau, so R's expansion of each
    monomial serves M through two index maps.  cells[m] = (rep, pin, pout)
    for scheme matrix m: input monomial j reads column pin[j] of rep, and
    the child's coefficient of monomial `exponents[r]` is the accumulated
    coefficient of monomial `exponents[pout[r]]`.  A representative carries
    identity maps.

    Column j of rep is the expansion of monomial `exponents[j]` under rep
    with denominators cleared.  packs(rep, w) holds each column as one int
    with a w-bit slot per monomial, the slot of `exponents[r]` being the
    r-th from the top, and top(w) is the bias 2^(w-1) in every slot; both
    are built on first use of a width and live as long as the table.  Every
    entry is a nonnegative integer (scheme cells have nonnegative entries)
    and maxc is the largest: no entry exceeds R^degree, R the largest row
    sum of a representative, so packs at a width that holds R^degree find
    it exactly, and they are kept like any other width's.

    A table of at most _BATCH_ENTRIES strip entries also holds strips[j]:
    column pin[j] of every cell's representative packed at floored_width,
    the cells' slots concatenated in scheme order with cell 1 on top, so
    one multiply-add per parent term computes a floored child in every
    cell at once (floored).  Larger tables hold strips = None and run no
    floored pass.
    """

    __slots__ = (
        "exponents", "index", "cells", "maxc", "floored_width", "strips",
        "_reps", "_packs", "_tops", "_strips_top",
    )

    def __init__(self, scheme: SubdivisionScheme, degree: int):
        n = scheme.n
        images = [
            tuple(m.ints[i : i + n] for i in range(0, n * n, n)) for m in scheme.matrices
        ]
        classes = _classes(images)
        self._reps = {m: images[m] for m, (rep, _, _) in enumerate(classes) if rep == m}
        reps = len(self._reps)
        size = comb(degree + n - 1, n - 1)
        if reps * size**2 > MAX_TABLE_ENTRIES:
            raise ValueError(
                f"a degree-{degree} form on scheme {scheme.name} needs a "
                f"substitution table of up to {reps} x {size}^2 entries, more "
                f"than the limit {MAX_TABLE_ENTRIES}"
            )
        self.exponents = exps = tuple(_compositions(degree, n))[::-1]
        self.index = index = {e: i for i, e in enumerate(exps)}
        # permutation -> its column map, shared by the cells using it
        maps = {tuple(range(n)): list(range(size))}
        self.cells = [
            (rep, _column_map(sigma, maps, index), _column_map(tau, maps, index))
            for rep, sigma, tau in classes
        ]
        self._packs = {}
        self._tops = {}
        top_row = max(sum(row) for rows in self._reps.values() for row in rows)
        w = _slot_width(top_row**degree)
        k = w // 8
        slots = [slice(i, i + k) for i in range(0, size * k, k)]
        packs = [pack for rep in self._reps for pack in self.packs(rep, w)]
        # the largest entry has as many bits as the longest slot of the OR
        # of all packs, so only packs with that bit set in a slot can hold
        # it; big-endian slots of equal length compare as their values
        union = 0
        for pack in packs:
            union |= pack
        raw = union.to_bytes(size * k, "big")
        bits = int.from_bytes(max(map(raw.__getitem__, slots)), "big").bit_length()
        high = int.from_bytes((1 << (bits - 1)).to_bytes(k, "big") * size, "big")
        largest = max(
            max(map(pack.to_bytes(size * k, "big").__getitem__, slots))
            for pack in packs
            if pack & high
        )
        self.maxc = int.from_bytes(largest, "big")
        # |low_j| <= 2^_COARSE_BITS for at most size terms, against entries
        # of at most maxc: every floored child is below 2^(floored_width - 1)
        bound = self.maxc.bit_length() + size.bit_length() + _COARSE_BITS + 1
        self.floored_width = wf = -(-bound // 8) * 8
        self.strips = None
        if len(self.cells) * size**2 <= _BATCH_ENTRIES:
            kf = wf // 8
            columns = {
                rep: [pack.to_bytes(size * kf, "big") for pack in _walk(rows, exps, wf)]
                for rep, rows in self._reps.items()
            }
            self.strips = []
            for j in range(size):
                strip = b"".join(columns[rep][pin[j]] for rep, pin, _ in self.cells)
                self.strips.append(int.from_bytes(strip, "big"))
            slot = (1 << (wf - 1)).to_bytes(kf, "big")
            self._strips_top = int.from_bytes(slot * (size * len(self.cells)), "big")

    def floored(self, low: list) -> list[int]:
        """The cells, 0-based and in order, whose floored child has a
        negative coefficient, `low` being a floored parent's (column, int)
        pairs, each int at most 2^_COARSE_BITS in absolute value; the table
        must have strips.

        y is the bias 2^(floored_width - 1) in every slot of every cell
        plus one multiply-add per floored term; every biased slot lies in
        [1, 2^floored_width) without borrowing from the next, so
        z = (y & bias) ^ bias has a bit set exactly in each negative slot,
        and each cell whose segment of z is nonzero is returned.
        """
        strips, top = self.strips, self._strips_top
        y = top
        for j, c in low:
            y += c * strips[j]
        z = (y & top) ^ top
        cell_bits = len(self.exponents) * self.floored_width
        last = len(self.cells) - 1
        flagged = []
        while z:
            m = last - (z.bit_length() - 1) // cell_bits
            flagged.append(m)
            z &= (1 << (last - m) * cell_bits) - 1  # drop cell m's segment
        return flagged

    def packs(self, rep: int, w: int) -> list[int]:
        """Representative rep's columns packed into w-bit slots, built on
        first use of the width by one walk."""
        packs = self._packs.get((rep, w))
        if packs is None:
            packs = self._packs[(rep, w)] = _walk(self._reps[rep], self.exponents, w)
        return packs

    def top(self, w: int) -> int:
        """2^(w-1) in every w-bit slot: the bias, and the sign bits' mask."""
        top = self._tops.get(w)
        if top is None:
            slot = (1 << (w - 1)).to_bytes(w // 8, "little")
            top = self._tops[w] = int.from_bytes(slot * len(self.exponents), "little")
        return top


def _column_map(perm: tuple, maps: dict, index: dict) -> list:
    """The column of e' where e'[perm[i]] = e[i], for each column's e, the
    columns being `index`'s keys in order; `maps` caches it per permutation
    and must hold the identity's.

    The map of t o q is map_t o map_q.  So a permutation other than a
    transposition t takes one C-level map from t o perm, which fixes one
    more index, and a transposition's is read off the exponents.
    """
    found = maps.get(perm)
    if found is None:
        i = next(i for i, p in enumerate(perm) if p != i)
        t = list(range(len(perm)))
        t[i], t[perm[i]] = perm[i], i
        t = tuple(t)
        if perm == t:
            found = list(map(index.__getitem__, map(itemgetter(*t), index)))
        else:
            rest = _column_map(tuple(t[p] for p in perm), maps, index)
            found = list(map(_column_map(t, maps, index).__getitem__, rest))
        maps[perm] = found
    return found


def _slot_width(bound: int) -> int:
    """The least slot width 32 * 2^k with bound < 2^(w-1)."""
    w = 32
    while w - 1 < bound.bit_length():
        w *= 2
    return w


def _walk(rows: tuple, exponents: tuple, w: int) -> list[int]:
    """The expansion of each monomial `exponents[j]` under the integer cell
    `rows`, packed into w-bit slots, the slot of `exponents[r]` the r-th from
    the top; every entry must be below 2^w.

    Monomials are numbered in a box: y^beta has slot
    sum_{j < n-1} beta_j (d+1)^(n-2-j), the last variable being implied by
    the degree d, so multiplying a monomial by y_j adds a constant to its
    slot.  While the box has at most 32 slots per monomial of degree d, a
    form on the way is one int with a w-bit field per box slot, and
    multiplying it by the image of x_i costs one shifted multiply-add per
    nonzero entry of row i.  Entries are nonnegative, and each is at most
    an entry of every expansion that extends its monomial (every row has a
    positive entry), so no field carries into the next.  A degree-d image
    is compacted at once: its big-endian bytes hold each run of monomials
    with fixed beta_0 .. beta_{n-3} and beta_{n-2} descending as one
    contiguous range, and the runs joined in order are the pack.  The box
    has (d+1)^(n-1) slots, up to (n-1)! times the monomial count and far
    more for many variables at a low degree (3^19 against 210 at n = 20,
    d = 2).  Past 32 slots per monomial, where a Python-level dict update
    costs less than the int's passes over the empty fields, a form is a
    dict from box slot to coefficient and holds only its own monomials.

    The walk goes depth first over the index sequences i_1 <= ... <= i_d,
    one per monomial x_{i_1} ... x_{i_d}, and keeps only the images along
    its path.  Most steps multiply by x_{n-1}, whose image is the sparsest
    row in the corner cells that represent the built-in schemes.
    """
    n = len(rows)
    degree = sum(exponents[0])
    size = len(exponents)
    unit = [(degree + 1) ** (n - 2 - j) for j in range(n - 1)] + [0]
    offsets = [sum(map(mul, e, unit)) for e in exponents]  # strictly descending
    at = {o: j for j, o in enumerate(offsets)}
    span = offsets[0] + 1
    k = w // 8
    terms = [[(c, u) for c, u in zip(row, unit) if c] for row in rows]
    if span <= 32 * size:
        runs = []  # byte ranges of the big-endian box, in exponents order
        start = 0
        for s in range(1, size + 1):
            if s == size or offsets[s] != offsets[s - 1] - 1:
                hi, lo = offsets[start], offsets[s - 1]
                runs.append(slice((span - 1 - hi) * k, (span - lo) * k))
                start = s
        shifts = [[(c, w * u) for c, u in row] for row in terms]

        def times(x: int, i: int) -> int:
            y = 0
            for c, shift in shifts[i]:
                y += c * (x << shift)
            return y

        def pack(x: int) -> int:
            raw = x.to_bytes(span * k, "big")
            return int.from_bytes(b"".join(map(raw.__getitem__, runs)), "big")

        one = 1
    else:

        def times(x: dict, i: int) -> dict:
            y: dict = {}
            for o, v in x.items():
                for c, u in terms[i]:
                    y[o + u] = y.get(o + u, 0) + c * v
            return y

        def pack(x: dict) -> int:
            raw = bytearray(size * k)
            for o, v in x.items():
                r = at[o] * k
                raw[r : r + k] = v.to_bytes(k, "big")
            return int.from_bytes(raw, "big")

        one = {0: 1}
    packs = [0] * size
    path = [0] * degree  # the factors' indices, nondecreasing
    image = [one] * (degree + 1)  # image[t]: the image of the path's first t factors
    slot = [0] * (degree + 1)  # slot[t]: their monomial's box slot
    t = 0  # the first factor whose image is stale
    while True:
        for u in range(t, degree):
            image[u + 1] = times(image[u], path[u])
            slot[u + 1] = slot[u] + unit[path[u]]
        packs[at[slot[degree]]] = pack(image[degree])
        # the next path: raise the last factor below x_{n-1}, repeat it to the end
        t = degree - 1
        while t >= 0 and path[t] == n - 1:
            t -= 1
        if t < 0:
            return packs
        path[t:] = [path[t] + 1] * (degree - t)


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


def _expand(frontier: Iterable[tuple[Sequence, IndexPath]], table: _Table) -> tuple:
    """expand_level on (items, path) branches, where items lists a form's
    content-normalized coefficients as (table column, int) pairs; a child's
    items are a tuple, which keys the kept children."""
    size = len(table.exponents)
    cells = table.cells
    # kept child -> its path.  A repeat of a kept child would grow the same
    # subtree again; the first copy, and with it the first path, is kept
    first = {}
    pruned = 0
    for items, path in frontier:
        # First, on a table with strips, the floored pass: a parent of more
        # than _COARSE_BITS bits is floored to low_j = v_j >> s, zeros
        # dropped.  v_j >= 2^s * low_j and every entry is >= 0, so 2^s times
        # a floored child is at most the child slot by slot, and a floored
        # child with no negative coefficient proves the child nonnegative.
        # Only the cells it cannot settle pay the full-width product below.
        s = 0
        if table.strips is not None:
            s = max(abs(v) for _, v in items).bit_length() - _COARSE_BITS
        low = [(j, c) for j, v in items if (c := v >> s)] if s > 0 else []
        exact = table.floored(low) if low else range(len(cells))
        w = 0
        done = 0  # cells before this one are settled
        for m in exact:
            pruned += m - done  # the floored pass pruned the cells between
            done = m + 1
            rep, pin, pout = cells[m]
            # child coefficient r is the sum over the parent's terms of v_j
            # times one table entry, so |out[r]| <= maxc * sum |v_j| <
            # 2^(w-1): biased by 2^(w-1), every slot holds out[r] + 2^(w-1)
            # in [1, 2^w), carries nothing into the next slot, and has its
            # top bit set exactly when out[r] >= 0.  The width is found on
            # the first cell that needs it.
            if not w:
                w = _slot_width(table.maxc * sum(abs(v) for _, v in items))
                k = w // 8
                half = 1 << (w - 1)
                top = table.top(w)
            packs = table.packs(rep, w)
            x = top
            for j, v in items:
                x += v * packs[pin[j]]
            if x & top == top:
                pruned += 1
                continue
            raw = x.to_bytes(size * k, "big")
            out = [int.from_bytes(raw[r * k : r * k + k], "big") - half for r in pout]
            g = gcd(*out)
            child = tuple([(r, v // g) for r, v in enumerate(out) if v])
            if sum(out) < 0:
                return list(first.items()), pruned, (child, path + (m + 1,))
            first.setdefault(child, path + (m + 1,))
        pruned += len(cells) - done
    return list(first.items()), pruned, None


def expand_level(
    frontier: Sequence[Branch], scheme: SubdivisionScheme
) -> LevelResult:
    """Expand every branch by every scheme matrix, in order.

    Children are visited parent by parent, matrix by matrix.  Trivially
    positive children are counted in `pruned` and dropped; on the first
    trivially negative child the scan stops and that child is returned as
    `negative` (later children are never materialized); all other children
    are returned content normalized, each distinct form once, under the
    path of its first copy (a repeat is neither returned nor counted).
    Every branch form must be nonzero and have the scheme's dimension and
    one shared degree.
    """
    branches = list(frontier)
    if not branches:
        return LevelResult([], 0, None)
    degree = branches[0].form.degree
    for b in branches:
        if b.form.is_zero:
            raise ValueError("cannot expand a zero branch form; it is identically zero")
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
        ints = _content(b.form.terms)
        parents.append(([(index[e], v) for e, v in ints.items()], b.path))

    def branch(child) -> Branch:
        items, path = child
        terms = {exps[r]: Fraction(v) for r, v in items}
        return Branch(Form._of(scheme.n, terms, degree), path)

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


def decide(
    form: Form,
    scheme: SubdivisionScheme,
    max_depth: int = 30,
    on_level: Callable[[int, int, int, int], None] | None = None,
) -> Verdict:
    """Decide whether `form` is nonnegative on the nonnegative orthant.

    Returns a PSD verdict when subdivision proves nonnegativity, an
    indefinite verdict carrying an exact interior point with negative value,
    or inconclusive after `max_depth` levels.  Each level is one
    expand_level, so a child form repeated within a level is expanded once,
    under its first path: identical forms have identical subtrees, so the
    verdict, depth and witness are those of expanding every copy, and the
    stats count distinct branches.
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

    # depth 0: the input form itself may already settle it; the content
    # vector is a positive multiple of the form, so its coefficient sum and
    # least coefficient have the form's signs
    ints = _content(form.terms)
    if sum(ints.values()) < 0:
        return indefinite(0, (), RunStats(0, 0, 1))
    if min(ints.values()) >= 0:
        return Verdict(Outcome.PSD, 0, RunStats(0, 0, 1))

    table = _table_for(scheme, form.degree)
    frontier = [([(table.index[e], v) for e, v in ints.items()], ())]
    expanded = 0
    pruned_total = 0
    peak = 1
    for level in range(1, max_depth + 1):
        children, pruned, negative = _expand(frontier, table)
        expanded += len(children) + pruned + (1 if negative is not None else 0)
        pruned_total += pruned
        if negative is not None:
            return indefinite(level, negative[1], RunStats(expanded, pruned_total, peak))
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
    """JSON-ready summary of a verdict; rationals are rendered as 'p/q',
    whatever the interpreter's int-to-str digit limit."""
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
            "point": [_write_rational(v) for v in verdict.witness_point],
            "value": _write_rational(verdict.witness_value),
        }
    if verdict.outcome is Outcome.INCONCLUSIVE:
        report["note"] = (
            "undecided: the form may be nonnegative with zeros on the simplex "
            "(then no depth suffices) or max_depth may simply be too small"
        )
    return report
