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
  - a child equal to one already met on this level (the same
    content-normalized coefficients) is dropped, since identical forms have
    identical subtrees;
  - a child G is pruned by degree elevation when S^K * G has no negative
    coefficient, S = y_1 + ... + y_n and K = _POLYA_K: S > 0 on the cell,
    so G >= 0 there.  This is Polya's certificate of positivity, which
    some K gives for every G > 0 on its cell (Polya 1928); Powers and
    Reznick bound that K by G's relative minimum (J. Pure Appl. Algebra
    164, 2001), so the test settles small deep cells;
  - anything else survives to the next level.

The frontier is thus a set of forms, each under the first path that reached
it in level order, and the first negative child in level order always lies
under a kept branch.  An empty frontier proves nonnegativity on all of T_n
(every direction is covered by some pruned ancestor); hitting max_depth with
live branches is inconclusive.  All arithmetic is exact.

A Form keeps int coefficients over one denominator, so the depth-0 tests
are an int sum and an int minimum, and the root is read once as its content
vector (Form.normalize_content): coprime integer coefficients, a positive
multiple of the form.  A witness is mapped and evaluated on ints too.
Branch forms are kept as such vectors; they become Forms, over 1, only at
the public expand_level boundary.  The engine substitutes each matrix's
cleared ints (NormalizedMatrix.ints; scaling a substitution matrix by a
positive constant scales the image form by a positive constant, which
normalization removes and no sign test can see) and precomputes, per scheme
and degree, the expansion of every monomial's image.  Cells that differ by
a row and a column permutation (the n! cells of the barycentric scheme are
one such class) share one set of expansions, read through an input and an
output index map, so each class is expanded once.

Expansions are packed (Kronecker substitution): each becomes one Python int
with a w-bit slot per output monomial, built by a depth-first walk over the
monomials that keeps one partial image per degree on its path.  The walk
runs once per representative, at a width that holds every entry; every
entry is nonnegative, so the packs of any other width that holds them are
the walked packs re-spaced, each slot gaining zero high bytes or dropping
them.  A child is computed on these packs.  The slot width is chosen per
parent so that no child coefficient reaches 2^(w-1) in absolute value; the
child is then 2^(w-1) in every slot (the bias) plus one big-int
multiply-add per parent term, every biased slot lies in [1, 2^w) without
carrying into the next, and its top bit is set exactly when the
coefficient is nonnegative.  So "all coefficients >= 0" is one AND against
the bias, and only kept or negative children are decoded slot by slot.

Most children are pruned, so a table of at most _BATCH_ENTRIES strip
entries computes a parent's child in every cell at once (_Table.children):
the packs of one input column under every cell, cell 1 on top, are joined
into one strip at a width that holds any child of a parent of at most
_COARSE_BITS bits, so the pass is one multiply-add per parent term, and the
children of such a parent are read off its sum.  A wider parent is first
floored to that many bits (each v_j shifted right by the same s).  Table
entries are nonnegative and v_j >= 2^s (v_j >> s), so a floored child with
no negative coefficient proves the child nonnegative, and only the other
cells pay the full-width product above.  A larger table keeps no strips and
computes every child at full width.  Either way each child is computed once.

Degree elevation runs on the children that survive the sign tests and the
dedup, only on a table with strips, at degree 2 or more, and only where its
pack set, size(d) x size(d + K) entries, is no larger than _BATCH_ENTRIES
(_Elevation, one per (n, degree), shared by the tables that hold it).  A
child is floored to _COARSE_BITS bits as a strip parent is, and S^K times it
is one multiply-add per child term on the packs of S^K * y^alpha, then one
AND against the bias, as in the strip pass.  So a PSD leaf stays checkable:
multiply it out by S^K.  The strip-free tables are the big ones, such as the
degree-24 ones, where a fixed K narrows the gap between the Bernstein
coefficients and the form by a factor of only about d / (d + K).
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from functools import reduce
from math import comb, factorial, gcd
from operator import itemgetter, mul, or_
from typing import Callable, Iterable, Iterator, NamedTuple, Sequence

from .forms import (
    DimensionMismatchError,
    Form,
    _compositions,
    _mul,
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

# on a table with strips, the strip pass floors a parent of more bits than
# this to this many, and takes a narrower one as it is.  The multipliers fit
# one 30-bit digit of a Python int, and a strip child fits floored_width
# bits: 16 for the multiplier, the monomial count's bits for the sum and
# maxc's for the entries, plus a sign
_COARSE_BITS = 16

# K of the degree-elevation prune.  A larger K settles more cells but costs
# size(d + K) slots per test: on the deep benchmark forms K = 4 left a third
# more children than K = 8 and took 13 % more CPU, and K = 12 took the same
# CPU as K = 8 but 2.4 times as long to build its pack sets
_POLYA_K = 8


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
    """Counts of distinct branches: a child repeating a kept or an
    elevation-pruned child of the same level is dropped by expand_level and
    counted nowhere."""

    branches_expanded: int  # child forms materialized (pruned and negative included)
    # children with no negative coefficient, and those pruned by degree elevation
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
    pruned: int  # children with no negative coefficient, or pruned by degree elevation
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
    r-th from the top, kept as long as the table lives.  Every entry is a
    nonnegative integer (scheme cells have nonnegative entries) below
    2^bits, bits the largest entry's bit length, and maxc = 2^bits - 1.  No
    entry exceeds R^degree, R the largest row sum of a representative, so
    the table walks each representative once, at the width that holds
    R^degree, and reads bits off those packs.  The packs of any other width
    w >= bits are the walked ones re-spaced (_respaced), built on first use
    of the width.

    A table of at most _BATCH_ENTRIES strip entries also holds strips[j]:
    column pin[j] of every cell's representative re-spaced to floored_width,
    the cells' slots concatenated in scheme order with cell 1 on top, so
    one multiply-add per parent term computes a child of the (floored)
    parent in every cell at once (children).  Larger tables hold
    strips = None.  A table with strips of degree 2 or more also holds the
    degree-elevation pack set of its (n, degree) where that has at most
    _BATCH_ENTRIES entries (_Elevation), and elevation = None otherwise.
    """

    __slots__ = (
        "exponents", "index", "cells", "maxc", "floored_width", "strips",
        "elevation", "_reps", "_walk_width", "_packs", "_strips_top",
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
        top_row = max(sum(row) for rows in self._reps.values() for row in rows)
        self._walk_width = w = _slot_width(top_row**degree)
        self._packs = {(rep, w): _walk(rows, exps, w) for rep, rows in self._reps.items()}
        k = w // 8
        # the largest entry has the bits of the largest slot of the OR of all
        # packs; big-endian slots of equal length compare as their values
        union = reduce(or_, (pack for packs in self._packs.values() for pack in packs))
        raw = union.to_bytes(size * k, "big")
        largest = max(raw[i : i + k] for i in range(0, size * k, k))
        self.maxc = (1 << int.from_bytes(largest, "big").bit_length()) - 1
        self.strips = self.elevation = None
        if len(self.cells) * size**2 <= _BATCH_ENTRIES:
            # |low_j| <= 2^_COARSE_BITS for at most size terms, against
            # entries of at most maxc: every strip child is below
            # 2^(floored_width - 1)
            bound = self.maxc.bit_length() + size.bit_length() + _COARSE_BITS + 1
            self.floored_width = wf = -(-bound // 8) * 8
            kf = wf // 8
            columns = {
                rep: list(_respaced(self._packs[(rep, w)], size, k, kf)) for rep in self._reps
            }
            self.strips = []
            for j in range(size):
                strip = b"".join(columns[rep][pin[j]] for rep, pin, _ in self.cells)
                self.strips.append(int.from_bytes(strip, "big"))
            self._strips_top = _bias(wf, size * len(self.cells))
            # below degree 2 every coefficient is at a vertex, and S^K * G
            # keeps G's vertex coefficients
            high = comb(degree + _POLYA_K + n - 1, n - 1)
            if degree >= 2 and size * high <= _BATCH_ENTRIES:
                self.elevation = _elevation_for(n, degree, exps)

    def children(self, items: Sequence) -> Iterator[tuple[int, list[int]]]:
        """(m, out) for each cell m, 0-based and in order, whose child of the
        parent with (column, int) pairs `items` has a negative coefficient,
        out being its coefficients in `exponents` order.

        On a table with strips, y is the bias 2^(floored_width - 1) in every
        slot of every cell plus one multiply-add per term of the parent
        floored to v_j >> s, s = max(0, bits - _COARSE_BITS).  Every biased
        slot lies in [1, 2^floored_width) without borrowing from the next,
        so z = (y & bias) ^ bias is nonzero in the segment of each cell whose
        floored child has a negative slot.  When s is 0 such a segment is
        the child itself.  Otherwise the cell, like every cell of a table
        without strips, takes the exact product at the parent's width w:
        |out[r]| <= maxc * sum |v_j| < 2^(w-1), so every biased slot of x
        lies in [1, 2^w) too.
        """
        cells = self.cells
        flagged = range(len(cells))
        if self.strips is not None:
            s = max(0, max(abs(v) for _, v in items).bit_length() - _COARSE_BITS)
            y = top = self._strips_top
            for j, v in items:
                y += (v >> s) * self.strips[j]
            z = (y & top) ^ top
            seg = len(self.exponents) * self.floored_width  # one cell's bits
            last = len(cells) - 1
            flagged = []
            while z:
                m = last - (z.bit_length() - 1) // seg
                flagged.append(m)
                z &= (1 << (last - m) * seg) - 1  # drop cell m's segment
            if not s:
                mask, k = (1 << seg) - 1, self.floored_width // 8
                for m in flagged:
                    yield m, _slots(y >> (last - m) * seg & mask, k, cells[m][2])
                return
        w = 0
        for m in flagged:
            rep, pin, pout = cells[m]
            if not w:  # the width is found on the first cell that needs it
                w = _slot_width(self.maxc * sum(abs(v) for _, v in items))
                top = _bias(w, len(self.exponents))
            packs = self.packs(rep, w)
            x = top
            for j, v in items:
                x += v * packs[pin[j]]
            if x & top != top:
                yield m, _slots(x, w // 8, pout)

    def packs(self, rep: int, w: int) -> list[int]:
        """Representative rep's columns packed into w-bit slots: the walked
        packs, or those re-spaced on first use of the width, with no walk."""
        packs = self._packs.get((rep, w))
        if packs is None:
            walked, k = self._packs[(rep, self._walk_width)], self._walk_width // 8
            raw = _respaced(walked, len(self.exponents), k, w // 8)
            packs = self._packs[(rep, w)] = [int.from_bytes(r, "big") for r in raw]
        return packs


class _Elevation:
    """Degree elevation by K = _POLYA_K for the degree-d forms in n
    variables, d = `degree`: S^K * y^alpha_j, S = y_1 + ... + y_n, for each
    degree-d monomial alpha_j in descending order (a table's `exponents`),
    packed into w-bit slots, one per monomial of degree d + K.  Every entry
    is a multinomial coefficient of S^K, so nonnegative and below 2^bits,
    bits the bit length of the largest, and w = bits + size(d)'s bits +
    _COARSE_BITS + 1, rounded up to a byte, holds S^K * G in every slot for
    any G of at most _COARSE_BITS bits.

    The slots come in parts, each with its bias and (column, pack) pairs.
    First one part per facet y_i = 0: the coefficients of S^K * G with a
    zero i-th exponent are those of S'^K * G', S' and G' being S and G at
    y_i = 0, so they come from the columns with a zero i-th exponent and
    the one elevation pack set of n - 1 variables, which every facet
    shares.  Then the interior, the monomials with no zero exponent, which
    every column reaches.  The parts cover every monomial, and a lower face
    lies in several facets.
    """

    __slots__ = ("parts", "vertices", "__weakref__")

    def __init__(self, n: int, degree: int, exponents: tuple):
        # the largest multinomial coefficient of S^K is at the most even split
        q, r = divmod(_POLYA_K, n)
        bits = _multinomial([q + 1] * r + [q] * (n - r)).bit_length()
        w = -(-(bits + len(exponents).bit_length() + _COARSE_BITS + 1) // 8) * 8
        high = degree + _POLYA_K
        face = tuple(_compositions(degree, n - 1))[::-1]
        shared = dict(zip(face, _elevated(face, w, False)))
        top = _bias(w, comb(high + n - 2, n - 2))
        columns = list(enumerate(exponents))
        self.parts = [
            (top, [(j, shared[e[:i] + e[i + 1 :]]) for j, e in columns if not e[i]])
            for i in range(n)
        ]
        if high >= n:  # the interior monomials, y_1 ... y_n times degree d + K - n
            inner = comb(high - 1, n - 1)
            packs = _elevated(exponents, w, True)
            self.parts.append((_bias(w, inner), list(enumerate(packs))))
        # the columns of y_i^d, whose coefficients are those of y_i^(d + K)
        # in S^K * G
        self.vertices = [j for j, e in enumerate(exponents) if degree in e]

    def proves(self, out: list[int], g: int) -> bool:
        """Whether S^K * G has no negative coefficient, G = out / g a child
        in columns order, after flooring it to G_j >> s, that is
        out_j // (g * 2^s), s = max(0, bits - _COARSE_BITS) for G's largest
        |coefficient|.  Entries are nonnegative, so a floored elevation with
        no negative slot proves S^K * G >= 0, and with it G >= 0 on its cell,
        since S > 0 there.

        A negative vertex coefficient of G is one of S^K * G, and it is read
        off `out` first.  Then each part of the slots, the facets first, on
        which almost every failing child fails, is its bias plus one
        multiply-add per term, which every slot holds in [1, 2^w) as the
        strips do: the floored elevation has no negative slot in the part
        when every sign bit is set.
        """
        if min(map(out.__getitem__, self.vertices)) < 0:
            return False
        q = g << max(0, (max(max(out), -min(out)) // g).bit_length() - _COARSE_BITS)
        for top, terms in self.parts:
            y = top
            for j, pack in terms:
                if out[j]:
                    y += out[j] // q * pack
            if y & top != top:
                return False
        return True


# elevation pack sets live as long as a table holds them: (n, degree) -> _Elevation.
# Shared across schemes: a pack set depends on n and the degree alone, and an
# n = 3 one takes 0.3-0.5 ms to build (2-vCPU VM) for each scheme otherwise
_ELEVATIONS: weakref.WeakValueDictionary = weakref.WeakValueDictionary()


def _elevation_for(n: int, degree: int, exponents: tuple) -> _Elevation:
    elevation = _ELEVATIONS.get((n, degree))
    if elevation is None:
        elevation = _ELEVATIONS[(n, degree)] = _Elevation(n, degree, exponents)
    return elevation


def _multinomial(b: Sequence[int]) -> int:
    """The coefficient of y^b in S^|b|."""
    return factorial(sum(b)) // reduce(mul, map(factorial, b), 1)


def _elevated(alphas: Sequence, w: int, interior: bool) -> list[int]:
    """S^K * y^alpha for each alpha of `alphas`, the degree-d monomials in n
    variables in descending order, K = _POLYA_K, packed into w-bit slots
    over the degree-(d + K) monomials in descending order, or over those
    with no zero exponent when `interior` is set: y_1 ... y_n times each
    monomial of degree d + K - n, in the same order.

    S^K is one form laid out in _box's degree-(d + K) box, and S^K * y^alpha
    is that form with its slots moved by alpha's box slot: a shift of the
    dense int, or a new key per dict entry.
    """
    n = len(alphas[0])
    high = sum(alphas[0]) + _POLYA_K
    if interior:
        monomials = [tuple(v + 1 for v in e) for e in _compositions(high - n, n)][::-1]
    else:
        monomials = tuple(_compositions(high, n))[::-1]
    unit, dense, pack = _box(n, high, monomials, w)
    power = {sum(map(mul, b, unit)): _multinomial(b) for b in _compositions(_POLYA_K, n)}
    moves = [sum(map(mul, a, unit)) for a in alphas]
    if dense:
        x = sum(c << w * o for o, c in power.items())
        return [pack(x << w * u) for u in moves]
    return [pack({u + o: c for o, c in power.items()}) for u in moves]


def _bias(w: int, slots: int) -> int:
    """2^(w-1) in each of `slots` w-bit slots, w a multiple of 8."""
    return int.from_bytes((1 << (w - 1)).to_bytes(w // 8, "big") * slots, "big")


def _slots(x: int, k: int, order: Sequence[int]) -> list[int]:
    """x's k-byte slots, less the bias 2^(8k - 1) each, in `order`: r in
    order reads the r-th slot from the top of len(order) slots."""
    raw = x.to_bytes(len(order) * k, "big")
    half = 1 << (8 * k - 1)
    return [int.from_bytes(raw[r * k : r * k + k], "big") - half for r in order]


# a memoryview format of each item size _respaced moves
_ITEMS = {1: "B", 2: "H", 4: "I", 8: "Q"}


def _respaced(packs: Sequence[int], slots: int, k: int, k2: int) -> Iterator[bytearray]:
    """The big-endian bytes of `packs`, each of `slots` k-byte slots, with
    every slot's entry moved into k2 bytes: padded with high zero bytes when
    k2 > k, cut to its low k2 bytes otherwise, so every entry must be below
    2^(8 min(k, k2)).

    Each u-byte item of a slot, u = gcd(k, k2, 8), is one strided copy of
    that item of every slot of a pack, so the loop runs min(k, k2) / u times
    per pack, whatever the number of slots.
    """
    u = gcd(k, k2, 8)
    item = _ITEMS[u]
    k, k2 = k // u, k2 // u  # in u-byte items
    moves = [
        (slice(k2 - b, None, k2), slice(k - b, None, k)) for b in range(1, min(k, k2) + 1)
    ]
    for pack in packs:
        raw = bytearray(slots * k2 * u)
        into = memoryview(raw).cast(item)
        items = memoryview(pack.to_bytes(slots * k * u, "big")).cast(item)
        for to, at in moves:
            into[to] = items[at]
        yield raw


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


def _box(
    n: int, degree: int, exponents: Sequence, w: int
) -> tuple[list[int], bool, Callable]:
    """(unit, dense, pack) for `exponents`, some or all of the degree-d
    monomials in n variables, d = `degree`, in descending order, packed
    into w-bit slots.

    Monomials are numbered in a box: y^beta has slot
    sum_j beta_j unit[j], unit[j] = (d+1)^(n-2-j) below the last variable
    and 0 for it, the last exponent being implied by the degree, so
    multiplying a monomial by y_j adds unit[j] to its slot.  The box has
    (d+1)^(n-1) slots, up to (n-1)! times the monomial count and far more
    for many variables at a low degree (3^19 against 210 at n = 20,
    d = 2).  While it has at most 32 slots per degree-d monomial a form is
    dense: one int with a w-bit field per box slot, and pack(x) compacts it
    at once, its big-endian bytes holding each run of listed monomials
    with fixed beta_0 .. beta_{n-3} and beta_{n-2} descending as one
    contiguous range, and the runs joined in order being the pack.  Past
    that, where a Python-level dict update costs less than an int's passes
    over the empty fields, a form is a dict from box slot to coefficient
    and holds only its own monomials.  Either way pack(x) is x's
    coefficients of `exponents`, each below 2^w, in w-bit slots, the slot
    of `exponents[r]` the r-th from the top.
    """
    size = len(exponents)
    unit = [(degree + 1) ** (n - 2 - j) for j in range(n - 1)] + [0]
    offsets = [sum(map(mul, e, unit)) for e in exponents]  # strictly descending
    span = degree * unit[0] + 1  # y_1^d's slot is the top one
    k = w // 8
    if span <= 32 * comb(degree + n - 1, n - 1):
        runs = []  # byte ranges of the big-endian box, in exponents order
        start = 0
        for s in range(1, size + 1):
            if s == size or offsets[s] != offsets[s - 1] - 1:
                hi, lo = offsets[start], offsets[s - 1]
                runs.append(slice((span - 1 - hi) * k, (span - lo) * k))
                start = s

        def pack(x: int) -> int:
            raw = x.to_bytes(span * k, "big")
            return int.from_bytes(b"".join(map(raw.__getitem__, runs)), "big")

        return unit, True, pack
    at = {o: j for j, o in enumerate(offsets)}

    def pack_dict(x: dict) -> int:
        raw = bytearray(size * k)
        for o, v in x.items():
            r = at.get(o)
            if r is not None:
                raw[r * k : r * k + k] = v.to_bytes(k, "big")
        return int.from_bytes(raw, "big")

    return unit, False, pack_dict


def _walk(rows: tuple, exponents: tuple, w: int) -> list[int]:
    """The expansion of each monomial `exponents[j]` under the integer cell
    `rows`, packed into w-bit slots, the slot of `exponents[r]` the r-th from
    the top; every entry must be below 2^w.  `exponents` must be every
    degree-d monomial in n variables, in descending order, as _Table passes
    them: it walks each representative once, and re-spaces the packs into
    every other width it needs.

    A form on the way is laid out in _box's box, so multiplying it by the
    image of x_i costs one shifted multiply-add per nonzero entry of row i
    on a dense form, and one forms._mul by the image, a dict keyed by box
    slot, on a sparse one.  Entries are nonnegative, and each is at most an
    entry of every expansion that extends its monomial (every row has a
    positive entry), so no field carries into the next, no dict term
    cancels, and a degree-d image is compacted at once.

    The walk goes depth first over the index sequences i_1 <= ... <= i_d,
    one per monomial x_{i_1} ... x_{i_d}, and keeps only the images along
    its path.  It meets them in lex order, which is their monomials'
    descending order, so each pack is appended as it is reached.  Most
    steps multiply by x_{n-1}, whose image is the sparsest row in the
    corner cells that represent the built-in schemes.
    """
    n = len(rows)
    degree = sum(exponents[0])
    unit, dense, pack = _box(n, degree, exponents, w)
    if dense:
        shifts = [[(c, w * u) for c, u in zip(row, unit) if c] for row in rows]

        def times(x: int, i: int) -> int:
            y = 0
            for c, shift in shifts[i]:
                y += c * (x << shift)
            return y

        one = 1
    else:
        linear = [{u: c for c, u in zip(row, unit) if c} for row in rows]

        def times(x: dict, i: int) -> dict:
            return _mul(x, linear[i])

        one = {0: 1}
    packs = []
    path = [0] * degree  # the factors' indices, nondecreasing
    image = [one] * (degree + 1)  # image[t]: the image of the path's first t factors
    t = 0  # the first factor whose image is stale
    while True:
        for u in range(t, degree):
            image[u + 1] = times(image[u], path[u])
        packs.append(pack(image[degree]))
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
    items are a tuple, which keys the children met."""
    # child met -> its path, or None when degree elevation pruned it.  A
    # repeat would grow the same subtree again, or be pruned again: only the
    # first copy, and with it the first path, is kept and counted
    first = {}
    pruned = 0
    elevation = table.elevation
    for items, path in frontier:
        done = 0  # cells before this one are settled
        for m, out in table.children(items):
            pruned += m - done  # the cells between have no negative coefficient
            done = m + 1
            g = gcd(*out)
            child = tuple([(r, v // g) for r, v in enumerate(out) if v])
            if sum(out) < 0:
                kept = [c for c in first.items() if c[1]]
                return kept, pruned, (child, path + (m + 1,))
            if child not in first:
                if elevation is not None and elevation.proves(out, g):
                    first[child] = None
                    pruned += 1
                else:
                    first[child] = path + (m + 1,)
        pruned += len(table.cells) - done
    return [c for c in first.items() if c[1]], pruned, None


def expand_level(
    frontier: Sequence[Branch], scheme: SubdivisionScheme
) -> LevelResult:
    """Expand every branch by every scheme matrix, in order.

    Children are visited parent by parent, matrix by matrix.  Trivially
    positive children are counted in `pruned` and dropped; on the first
    trivially negative child the scan stops and that child is returned as
    `negative` (later children are never materialized).  Each other distinct
    form counts once, under the path of its first copy (a repeat is neither
    returned nor counted): it is counted in `pruned` and dropped when degree
    elevation proves it nonnegative, and returned content normalized
    otherwise.
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
        ints = b.form.normalize_content().ints
        parents.append(([(index[e], v) for e, v in ints.items()], b.path))

    def branch(child) -> Branch:
        items, path = child
        ints = {exps[r]: v for r, v in items}
        return Branch(Form._of(scheme.n, ints, 1, degree), path)

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

    # depth 0: the input form itself may already settle it
    if form.is_trivially_negative():
        return indefinite(0, (), RunStats(0, 0, 1))
    if form.is_trivially_positive():
        return Verdict(Outcome.PSD, 0, RunStats(0, 0, 1))

    table = _table_for(scheme, form.degree)
    ints = form.normalize_content().ints
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
            "(then no depth suffices), max_depth may simply be too small, or "
            "the scheme's cells may not shrink to points (analyze-scheme checks "
            "this at level 1)"
        )
    return report
