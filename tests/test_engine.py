"""Unit tests for the branch-and-prune decision engine."""

import gc
import random
import time
import tracemalloc
from dataclasses import replace
from fractions import Fraction
from math import comb, gcd, lcm

import pytest

from formsign import (
    Branch,
    DimensionMismatchError,
    Form,
    NormalizedMatrix,
    Outcome,
    RunStats,
    SchemeError,
    SubdivisionScheme,
    as_fraction,
    barycenter,
    compose,
    decide,
    expand_level,
    make_central3_scheme,
    make_midpoint3_scheme,
    make_star3_scheme,
    make_trisection3_scheme,
    make_wds_scheme,
    matrix_power,
    parse_form,
    run_report,
    witness_point,
)
from formsign import engine
from formsign.forms import _write_rational
from conftest import (
    KERNEL_SCHEMES,
    VARS3,
    all_exponents,
    bisection_scheme,
    elevates,
    elevated,
    elevation_proves,
    lowest_digit_limit,
    plain_decide,
    swapped_halves_scheme,
)

F = Fraction


class TestDecideTermination:
    def test_psd_by_subdivision(self, sym_diff_form, wds3):
        verdict = decide(sym_diff_form, wds3)
        assert verdict.outcome is Outcome.PSD
        assert verdict.depth_reached == 3
        assert verdict.stats == RunStats(18, 16, 1)
        assert verdict.witness_path is None
        assert verdict.witness_point is None

    def test_negative_at_barycenter_stops_at_depth_zero(self, mixed_sign_form, wds3):
        verdict = decide(mixed_sign_form, wds3)
        assert verdict.outcome is Outcome.INDEFINITE
        assert verdict.depth_reached == 0
        assert verdict.witness_path == ()
        assert verdict.witness_point == (F(1, 3), F(1, 3), F(1, 3))
        assert verdict.witness_value == F(-1, 729)
        assert verdict.stats == RunStats(0, 0, 1)

    def test_trivially_positive_stops_at_depth_zero(self, wds3):
        f = Form(3, {(2, 0, 0): 1, (1, 1, 0): 2})
        verdict = decide(f, wds3)
        assert verdict.outcome is Outcome.PSD
        assert verdict.depth_reached == 0
        assert verdict.stats == RunStats(0, 0, 1)

    def test_indefinite_with_searched_witness(self, wds3):
        f = parse_form("x^2 + y^2 + z^2 - 5/2*x*y", VARS3)
        verdict = decide(f, wds3)
        assert verdict.outcome is Outcome.INDEFINITE
        assert verdict.depth_reached == 2
        assert verdict.witness_path == (1, 3)
        assert verdict.witness_point == (F(67, 108), F(37, 108), F(1, 27))
        assert verdict.witness_value == F(-647, 23328)
        # level 1 keeps (1,) and prunes (2,) by degree elevation; children
        # (3,) and (4,) repeat them and are counted nowhere
        assert verdict.stats == RunStats(7, 5, 1)
        assert f.evaluate(verdict.witness_point) == verdict.witness_value

    def test_inconclusive_when_zero_is_irrational(self, wds2):
        # (x^2 - 2*y^2)^2 vanishes along an irrational direction, so no
        # finite depth can certify it; the frontier never empties
        f = parse_form("x^4 - 4*x^2*y^2 + 4*y^4", "x,y")
        verdict = decide(f, wds2, max_depth=6)
        assert verdict.outcome is Outcome.INCONCLUSIVE
        assert verdict.depth_reached == 6
        assert verdict.stats == RunStats(12, 6, 1)

    def test_psd_with_zero_at_barycenter(self, wds3):
        # PSD with a single interior zero at the barycenter; every cell's
        # image turns trivially positive after one level
        f = parse_form("x^2 + y^2 + z^2 - x*y - y*z - z*x", VARS3)
        verdict = decide(f, wds3)
        assert verdict.outcome is Outcome.PSD
        assert verdict.depth_reached == 1
        assert verdict.stats == RunStats(6, 6, 1)

    def test_determinism(self, wds3):
        f = parse_form("x^2 + y^2 + z^2 - 5/2*x*y", VARS3)
        assert decide(f, wds3) == decide(f, wds3)


class TestDecideArguments:
    def test_zero_form_rejected(self, wds3):
        with pytest.raises(ValueError, match="zero form"):
            decide(Form(3, {}, degree=2), wds3)

    def test_dimension_mismatch(self, wds2):
        with pytest.raises(DimensionMismatchError):
            decide(Form(3, {(2, 0, 0): 1, (1, 1, 0): -3}), wds2)

    def test_max_depth_validated(self, wds3, sym_diff_form):
        with pytest.raises(ValueError, match="max_depth"):
            decide(sym_diff_form, wds3, max_depth=0)
        with pytest.raises(ValueError, match="max_depth"):
            decide(sym_diff_form, wds3, max_depth=True)

    def test_table_past_its_bound_refused_at_once(self, wds3):
        # refused before any expansion: the table would hold 1 x 1891^2 entries
        form = parse_form("x^60 - 2*y^60 + z^60", VARS3)
        start = time.process_time()
        with pytest.raises(ValueError) as exc:
            decide(form, wds3, max_depth=3)
        assert time.process_time() - start < 1.0
        assert str(exc.value) == (
            "a degree-60 form on scheme wds3 needs a substitution table of up to "
            f"1 x 1891^2 entries, more than the limit {engine.MAX_TABLE_ENTRIES}"
        )

    def test_invalid_scheme_rejected(self):
        from formsign import NormalizedMatrix

        # a scheme that fails its checks cannot be built, so decide never sees one
        with pytest.raises(SchemeError, match="invalid scheme") as exc:
            SubdivisionScheme(
                "bad",
                3,
                (NormalizedMatrix(((F(1), F(1), F(1)),) + ((F(0),) * 3,) * 2),),
            )
        v = exc.value.validation
        assert "matrix 1: singular (zero volume cell)" in v.failures()
        assert v.det_sum == 0


class TestTraceAndDedup:
    def test_on_level_sees_completed_levels(self, sym_diff_form, wds3):
        seen = []
        decide(
            sym_diff_form,
            wds3,
            on_level=lambda level, parents, pruned, kept: seen.append(
                (level, parents, pruned, kept)
            ),
        )
        assert seen == [(1, 1, 5, 1), (2, 1, 5, 1), (3, 1, 6, 0)]

    def test_dedup_merges_identical_branches(self, wds3):
        # invariant under swapping the first two variables, so the six
        # barycentric children collapse to three distinct forms
        f = parse_form("x^4*y^2 + x^2*y^4 + z^6 - 3*x^2*y^2*z^2", VARS3)
        plain = plain_decide(f, wds3, 30)
        merged = decide(f, wds3)
        assert plain.outcome is Outcome.PSD
        assert plain.depth_reached == 2
        assert merged.outcome is Outcome.PSD
        assert merged.depth_reached == 2
        assert plain.stats == RunStats(18, 16, 2)
        assert merged.stats == RunStats(11, 10, 1)

    def test_dedup_keys_on_all_coefficients_and_keeps_the_first_path(self):
        # the one-cell identity scheme: each child is its parent, content
        # normalized, under the parent's path extended by 1
        scheme = SubdivisionScheme("id2", 2, [NormalizedMatrix.identity(2)])
        table = engine._Table(scheme, 2)
        a = ((0, 1), (1, 2), (2, -1))
        b = ((0, 1), (1, 2), (2, -3))
        twice_a = tuple((j, 2 * v) for j, v in a)
        frontier = [(a, (1,)), (b, (2,)), (a, (3,)), (twice_a, (4,)), (b, (5,))]
        assert engine._expand(frontier, table) == ([(a, (1, 1)), (b, (2, 1))], 0, None)

    def test_dedup_never_changes_the_verdict(self, wds3, midpoint3, mixed_sign_form):
        for text in ("x^2 + y^2 + z^2 - 5/2*x*y", "x^4*y^2 + x^2*y^4 + z^6 - 3*x^2*y^2*z^2"):
            f = parse_form(text, VARS3)
            for scheme in (wds3, midpoint3):
                plain = plain_decide(f, scheme, 6)
                assert replace(decide(f, scheme, max_depth=6), stats=plain.stats) == plain
        assert decide(mixed_sign_form, wds3) == plain_decide(mixed_sign_form, wds3, 30)

    def test_radical_form_on_wds3_expands_each_distinct_branch_once(
        self, wds3, big_radical_form
    ):
        # the plain loop grows 20 distinct children into 115, RunStats(115,
        # 72, 24), and finds the same witness
        verdict = decide(big_radical_form, wds3, max_depth=5)
        assert verdict.outcome is Outcome.INDEFINITE
        assert verdict.depth_reached == 4
        assert verdict.witness_path == (1, 5, 1, 1)
        assert verdict.witness_point == (F(391, 972), F(587, 1944), F(575, 1944))
        assert verdict.witness_value == big_radical_form.evaluate(verdict.witness_point)
        assert verdict.stats == RunStats(20, 12, 4)


class TestExpandLevel:
    def test_children_prune_and_paths(self, sym_diff_form, wds3):
        result = expand_level([Branch(sym_diff_form, ())], wds3)
        assert result.negative is None
        assert result.pruned == 5
        assert len(result.children) == 1
        assert result.children[0].path == (1,)

    def test_matches_public_substitution_pipeline(self, sym_diff_form, wds3):
        result = expand_level([Branch(sym_diff_form, ())], wds3)
        child = result.children[0]
        expected = sym_diff_form.substitute(
            wds3.matrices[child.path[-1] - 1]
        ).normalize_content()
        assert child.form == expected

    def test_scaled_parents_give_identical_children(self, wds3):
        f = parse_form("x^2 + y^2 + z^2 - 5/2*x*y", VARS3)
        g = Form(3, {e: c * F(7, 5) for e, c in f.terms.items()})
        rf = expand_level([Branch(f, ())], wds3)
        rg = expand_level([Branch(g, ())], wds3)
        assert [b.form for b in rf.children] == [b.form for b in rg.children]

    def test_negative_child_short_circuits(self, wds3):
        # at the second level the third child of the first branch turns
        # trivially negative; expansion must stop right there.  On the first
        # level, child (2,) is pruned by degree elevation, and children (3,)
        # and (4,) repeat (1,) and (2,)
        f = parse_form("x^2 + y^2 + z^2 - 5/2*x*y", VARS3)
        first = expand_level([Branch(f.normalize_content(), ())], wds3)
        assert first.negative is None
        assert [b.path for b in first.children] == [(1,)]
        assert first.pruned == 3
        second = expand_level(first.children, wds3)
        assert second.negative is not None
        assert second.negative.path == (1, 3)
        assert second.negative.form.is_trivially_negative()
        # the two earlier siblings were pruned; nothing is expanded after
        # the negative hit
        assert second.children == []
        assert second.pruned == 2

    def test_mixed_degrees_rejected(self, wds3):
        frontier = [
            Branch(Form(3, {(2, 0, 0): 1, (1, 1, 0): -2}), ()),
            Branch(Form(3, {(3, 0, 0): 1, (1, 1, 1): -2}), ()),
        ]
        with pytest.raises(ValueError, match="different degrees"):
            expand_level(frontier, wds3)

    def test_dimension_mismatch_rejected(self, wds2):
        with pytest.raises(DimensionMismatchError):
            expand_level([Branch(Form(3, {(2, 0, 0): 1, (0, 2, 0): -2}), ())], wds2)

    def test_zero_branch_rejected(self, wds3):
        # refused up front, like decide's zero form, also behind a nonzero one
        zero = Branch(Form(3, {}, degree=2), ())
        other = Branch(Form(3, {(2, 0, 0): 1, (1, 1, 0): -2}), ())
        for frontier in ([zero], [other, zero]):
            with pytest.raises(ValueError, match="zero branch form"):
                expand_level(frontier, wds3)

    def test_degree_zero_branch(self, wds3):
        # every cell maps a constant to itself
        minus_one = expand_level([Branch(Form(3, {(0, 0, 0): -1}), ())], wds3)
        assert minus_one.negative.path == (1,)
        assert minus_one.children == [] and minus_one.pruned == 0
        two = expand_level([Branch(Form(3, {(0, 0, 0): 2}), ())], wds3)
        assert two.negative is None
        assert two.children == [] and two.pruned == 6


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_table_exponents_descend(n):
    scheme = SubdivisionScheme(f"id{n}", n, [NormalizedMatrix.identity(n)])
    for d in range(7):
        expected = tuple(sorted(all_exponents(n, d), reverse=True))
        assert engine._Table(scheme, d).exponents == expected


def test_tables_live_as_long_as_their_scheme():
    scheme = SubdivisionScheme("cache-probe", 2, make_wds_scheme(2).matrices)
    assert not hasattr(scheme, "_tables")
    assert engine._table_for(scheme, 3) is engine._table_for(scheme, 3)
    assert scheme in engine._TABLES
    del scheme
    gc.collect()
    assert all(s.name != "cache-probe" for s in engine._TABLES)


# (scheme, expansions built): cells that differ by a row and a column
# permutation share one expansion
CLASS_SCHEMES = {
    **{f"wds{n}": (lambda n=n: make_wds_scheme(n), 1) for n in range(2, 7)},
    "midpoint3": (make_midpoint3_scheme, 2),
    "trisection3": (make_trisection3_scheme, 3),
    "central3": (make_central3_scheme, 1),
    # swapping y and z fixes the centre and the edge23 point, so the two
    # cells around edge23 form one class
    "star3_off_centre": (
        lambda: make_star3_scheme(
            (F(1, 2), F(1, 4), F(1, 4)),
            (F(1, 3), F(2, 3), 0),
            (0, F(1, 2), F(1, 2)),
            (F(3, 4), 0, F(1, 4)),
        ),
        5,
    ),
    "star3_asymmetric": (
        lambda: make_star3_scheme(
            (F(1, 2), F(1, 3), F(1, 6)),
            (F(1, 3), F(2, 3), 0),
            (0, F(1, 4), F(3, 4)),
            (F(3, 5), 0, F(2, 5)),
        ),
        6,
    ),
    "swapped_halves": (swapped_halves_scheme, 1),
}


@pytest.mark.parametrize("name", CLASS_SCHEMES)
def test_one_expansion_per_permutation_class(name):
    make, expansions = CLASS_SCHEMES[name]
    scheme = make()
    table = engine._Table(scheme, 2)
    assert len(table.cells) == len(scheme)
    reps = {rep for rep, _, _ in table.cells}
    assert len(reps) == expansions
    # a representative stands for itself, through identity maps
    identity = list(range(len(table.exponents)))
    assert all(table.cells[rep] == (rep, identity, identity) for rep in reps)


@pytest.mark.parametrize("name", CLASS_SCHEMES)
def test_class_maps_rebuild_every_cell(name):
    matrices = CLASS_SCHEMES[name][0]().matrices
    for m, (rep, sigma, tau) in enumerate(engine._classes([c.rows for c in matrices])):
        assert rep <= m
        rows, rep_rows = matrices[m].rows, matrices[rep].rows
        assert rows == tuple(tuple(rep_rows[s][t] for t in tau) for s in sigma)


def direct_column_map(perm, table):
    """The column of e' where e'[perm[i]] = e[i], for each column's e, read
    off the exponents alone."""
    moved = [[0] * len(perm) for _ in table.exponents]
    for out, e in zip(moved, table.exponents):
        for i, p in enumerate(perm):
            out[p] = e[i]
    return [table.index[tuple(e)] for e in moved]


COLUMN_MAP_SCHEMES = {
    **{f"wds{n}": (lambda n=n: make_wds_scheme(n)) for n in range(2, 8)},
    **KERNEL_SCHEMES,
}


@pytest.mark.parametrize("name", COLUMN_MAP_SCHEMES)
def test_composed_column_maps_match_direct_ones(name):
    scheme = COLUMN_MAP_SCHEMES[name]()
    n = scheme.n
    images = [tuple(m.ints[i : i + n] for i in range(0, n * n, n)) for m in scheme.matrices]
    classes = engine._classes(images)
    for degree in range(4) if n < 7 else (2,):
        table = engine._Table(scheme, degree)
        direct = {}
        for cell, (rep, sigma, tau) in zip(table.cells, classes):
            for perm in (sigma, tau):
                if perm not in direct:
                    direct[perm] = direct_column_map(perm, table)
            assert cell == (rep, direct[sigma], direct[tau])


def test_same_sorted_lines_but_no_permutation():
    # equal sorted rows and sorted columns, yet no row and column
    # permutation turns one cell into the other
    a = ((0, 0, 1), (0, 1, 1), (1, 2, 0))
    b = ((0, 0, 1), (0, 1, 2), (1, 1, 0))
    assert engine._match(a, b) is None
    assert engine._match(b, a) is None
    identity = (0, 1, 2)
    assert engine._classes([a, b]) == [(0, identity, identity), (1, identity, identity)]


# ---------------------------------------------------------------------------
# the packed kernel against a sparse loop over Form.substitute's expansions


def substituted_columns(scheme, table):
    """{rep: columns} with column j the expansion of monomial
    table.exponents[j] under rep's denominator-cleared cell, taken from
    Form.substitute, as (row index, coefficient) pairs."""
    columns = {}
    for rep in sorted({rep for rep, _, _ in table.cells}):
        rows = scheme.matrices[rep].rows
        scale = lcm(*(v.denominator for row in rows for v in row))
        cell = [[v * scale for v in row] for row in rows]
        columns[rep] = [
            [
                (table.index[e], int(c))
                for e, c in Form(scheme.n, {alpha: 1}).substitute(cell).terms.items()
            ]
            for alpha in table.exponents
        ]
    return columns


def decode(pack, size, w):
    """A pack's slots, the slot of exponents[r] the r-th from the top."""
    k = w // 8
    raw = pack.to_bytes(size * k, "big")
    return [int.from_bytes(raw[r * k : r * k + k], "big") for r in range(size)]


def sparse_child(table, columns, rep, pin, items):
    """A child's coefficients in rep's monomial order, by one multiply-add
    per (parent term, expansion entry)."""
    out = [0] * len(table.exponents)
    for j, v in items:
        for r, c in columns[rep][pin[j]]:
            out[r] += c * v
    return out


def child_form(table, items):
    """The form with (column, int) pairs `items` in table.exponents order."""
    return Form(len(table.exponents[0]), {table.exponents[r]: v for r, v in items})


def table_elevates(table):
    exps = table.exponents
    return elevates(len(table.cells), len(exps[0]), sum(exps[0]))


def sparse_expand(frontier, table, columns):
    """engine._expand as one multiply-add per (parent term, expansion entry),
    keeping the first copy of each kept child.  A child with a negative
    coefficient and a nonnegative sum is pruned when it elevates and
    elevation_proves it; a repeat of a kept or an elevation-pruned child is
    dropped and counted nowhere."""
    children, proved, pruned = [], [], 0
    elevate = table_elevates(table)
    for items, path in frontier:
        for m_idx, (rep, pin, pout) in enumerate(table.cells, start=1):
            out = sparse_child(table, columns, rep, pin, items)
            if min(out) >= 0:
                pruned += 1
                continue
            out = [out[r] for r in pout]
            g = gcd(*out)
            child = (tuple((r, v // g) for r, v in enumerate(out) if v), path + (m_idx,))
            if sum(out) < 0:
                return children, pruned, child
            if child[0] in proved or any(child[0] == kept for kept, _ in children):
                continue
            if elevate and elevation_proves(child_form(table, child[0])):
                proved.append(child[0])
                pruned += 1
            else:
                children.append(child)
    return children, pruned, None


def assert_packs_decode_to(table, columns, w):
    size = len(table.exponents)
    for rep, cols in columns.items():
        packs = table.packs(rep, w)
        assert len(packs) == size
        for pack, col in zip(packs, cols):
            expected = [0] * size
            for r, c in col:
                expected[r] = c
            assert decode(pack, size, w) == expected


@pytest.mark.parametrize("name", KERNEL_SCHEMES)
def test_packs_match_form_substitute(name):
    scheme = KERNEL_SCHEMES[name]()
    for degree in range(4):
        table = engine._Table(scheme, degree)
        columns = substituted_columns(scheme, table)
        largest = max(c for cols in columns.values() for col in cols for _, c in col)
        assert table.maxc >= largest
        assert table.maxc.bit_length() == largest.bit_length()
        # the widths the table built its packs at while bounding the entries
        for w in widths(table):
            assert_packs_decode_to(table, columns, w)


def test_wds3_degree_24_packs_at_two_widths(wds3):
    table = engine._Table(wds3, 24)
    columns = substituted_columns(wds3, table)
    largest = max(c for col in columns[0] for _, c in col)
    assert table.maxc >= largest
    assert table.maxc.bit_length() == largest.bit_length() == 79
    # 128 bits is the least width holding every entry, and the width of the
    # maxc walk, since 11^24 < 2^127
    assert widths(table) == [128]
    for w in (128, 256):
        assert_packs_decode_to(table, columns, w)
    assert widths(table) == [128, 256]


def test_table_build_peak_memory():
    # the wds6 table at degree 6 is one representative with 462 packs of
    # 462 slots, about 1.7 MB at 64 bits and 3.4 MB at 128; the walk adds
    # only the ints on its path
    scheme = make_wds_scheme(6)
    gc.collect()
    tracemalloc.start()
    try:
        table = engine._Table(scheme, 6)
        table.packs(0, 128)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert widths(table) == [64, 128]
    assert peak < 10 * 2**20


def test_many_variables_at_a_low_degree():
    # a degree-2 form in 16 variables has 136 monomials, and a box of 3^15
    # slots, 57 MB per int at 32 bits: the walk keeps dicts instead, and the
    # table with its 64-bit packs stays as small as the packs (0.24 MB)
    scheme = bisection_scheme(16)
    gc.collect()
    tracemalloc.start()
    start = time.process_time()
    try:
        table = engine._Table(scheme, 2)
        table.packs(0, 64)
        seconds = time.process_time() - start
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2**20
    assert seconds < 2
    assert_packs_decode_to(table, substituted_columns(scheme, table), 64)
    # it keeps strips, but its elevation pack set would have 136 x C(25, 15)
    # entries: it builds none
    assert table.strips is not None
    assert table.elevation is None


def random_parent(rng, size, kind):
    """Items of a random nonzero parent.  An int kind gives coefficients up
    to 2^kind in absolute value, about one in four of them negative;
    "mixed" puts one 300-bit coefficient among coefficients +-1; "cancel"
    gives a, -(a - delta) to neighbouring columns, a of 40 to 300 bits and
    0 <= delta <= 3, so that a child is 0 or just above it in the slots
    where the two columns' expansions agree, and a floored child may read
    -1 there.  Half of these pairs are x_1^d, x_1^(d-1) x_2, the first two
    columns, whose expansions agree in many slots under a bisection."""
    columns = sorted(rng.sample(range(size), rng.randint(1, size)))
    if kind == "mixed":
        big = rng.choice(columns)
        return [
            (j, rng.choice((1, -1)) * (rng.randint(2**299, 2**300) if j == big else 1))
            for j in columns
        ]
    if kind == "cancel":
        j = rng.choice((0, rng.randrange(size - 1)))
        a = rng.randint(2**40, 2 ** rng.choice((41, 120, 300)))
        return [(j, a), (j + 1, rng.randint(0, 3) - a)]
    return [(j, rng.choice((1, 1, 1, -1)) * rng.randint(1, 2**kind)) for j in columns]


def widths(table):
    return sorted({w for _, w in table._packs})


@pytest.fixture
def packs_asked(monkeypatch):
    """Every (rep, width) that _Table.packs is asked for, in order, with
    ("strips", floored_width) for each strip pass a table runs in
    _Table.children."""
    asked = []
    packs, children = engine._Table.packs, engine._Table.children

    def record(table, rep, w):
        asked.append((rep, w))
        return packs(table, rep, w)

    def record_children(table, items):
        if table.strips is not None:
            asked.append(("strips", table.floored_width))
        return children(table, items)

    monkeypatch.setattr(engine._Table, "packs", record)
    monkeypatch.setattr(engine._Table, "children", record_children)
    return asked


def two_pass_model(frontier, table, columns):
    """The (rep, width) pairs engine._expand asks the table's packs for, with
    ("strips", floored_width) for each strip pass, and how many children
    the strip pass prunes and how many only the exact pass prunes, from
    one multiply-add per (parent term, expansion entry).

    A table of at most engine._BATCH_ENTRIES cells x size^2 entries runs
    every parent through its strips, floored to engine._COARSE_BITS bits
    if it is wider, so it asks for no packs until the exact pass, and for
    none on a parent it need not floor, whose children are its strip sum; a
    larger one has no strips and runs the exact pass alone.  Degree
    elevation, which _expand runs on the children the table yields, asks
    the table for no packs, so it has no part in this model."""
    size = len(table.exponents)
    batched = len(table.cells) * size**2 <= engine._BATCH_ENTRIES
    assert (table.strips is not None) == batched
    if batched:
        bits = table.maxc.bit_length() + size.bit_length() + engine._COARSE_BITS + 1
        assert table.floored_width == -(-bits // 8) * 8
    asked, pruned = [], {"floored": 0, "exact": 0}
    for items, _ in frontier:
        s = max(0, max(abs(v) for _, v in items).bit_length() - engine._COARSE_BITS)
        low = [(j, v >> s) for j, v in items]
        w = engine._slot_width(table.maxc * sum(abs(v) for _, v in items))
        if batched:
            asked.append(("strips", table.floored_width))
        for rep, pin, _ in table.cells:
            if batched:
                floored = sparse_child(table, columns, rep, pin, low)
                # every floored child fits the strips' slots
                assert max(map(abs, floored)) < 2 ** (table.floored_width - 1)
                if min(floored) >= 0:
                    pruned["floored"] += 1
                    continue
            if s or not batched:
                asked.append((rep, w))
            out = sparse_child(table, columns, rep, pin, items)
            if min(out) >= 0:
                # a child the strips flag is one they floored
                assert s > 0 or not batched
                pruned["exact"] += batched
            elif sum(out) < 0:
                return asked, pruned
    return asked, pruned


@pytest.mark.parametrize("name", KERNEL_SCHEMES)
def test_packed_kernel_matches_sparse_loop(name, packs_asked):
    scheme = KERNEL_SCHEMES[name]()
    rng = random.Random(f"packed:{name}")
    tables = [engine._Table(scheme, d) for d in (1, 2, 3 if scheme.n < 5 else 2)]
    columns = {id(t): substituted_columns(scheme, t) for t in tables}
    seen = {"kept": 0, "pruned": 0, "negative": 0, "floored": 0, "exact": 0}
    for _ in range(30):
        table = rng.choice(tables)
        size = len(table.exponents)
        kinds = rng.choices((1, 8, 40, 120, 300, "mixed", "cancel"), k=rng.randint(1, 4))
        frontier = [(random_parent(rng, size, kind), (p,)) for p, kind in enumerate(kinds, 1)]
        packs_asked.clear()
        got = engine._expand(frontier, table)
        assert got == sparse_expand(frontier, table, columns[id(table)])
        asked, pruned = two_pass_model(frontier, table, columns[id(table)])
        assert packs_asked == asked
        children, pruned_total, negative = got
        seen["kept"] += len(children)
        seen["pruned"] += pruned_total
        seen["negative"] += negative is not None
        seen["floored"] += pruned["floored"]
        seen["exact"] += pruned["exact"]
    assert all(seen.values()), seen
    assert max(len(widths(t)) for t in tables) > 1


def test_slot_width_changes_within_a_level(wds3):
    # a small, a 300-bit and a small parent: the second needs 512-bit slots
    table = engine._Table(wds3, 2)
    small = [(0, 1), (3, 2), (5, 1)]
    huge = [(0, 2**300 + 1), (1, -1), (4, 3**180)]
    frontier = [(small, (1,)), (huge, (2,)), (small, (3,))]
    result = engine._expand(frontier, table)
    assert result == sparse_expand(frontier, table, substituted_columns(wds3, table))
    assert result[0] and result[1]
    assert widths(table) == [32, 512]


class TestSlotEdges:
    """Children at the edges of a slot.  The one-cell identity scheme's table
    has largest entry 1, so each child is its parent and a parent's
    coefficient sum alone fixes the slot width."""

    @pytest.fixture
    def table(self):
        scheme = SubdivisionScheme("id2", 2, [NormalizedMatrix.identity(2)])
        return engine._Table(scheme, 1)

    def test_zero_coefficient_is_nonnegative(self, table):
        # 3x + 0y: the zero slot holds exactly the bias
        assert engine._expand([([(0, 3)], ())], table) == ([], 1, None)

    def test_cancellation_to_zero_is_pruned(self, wds2):
        # x - y under the first wds2 cell (x -> 2x + y, y -> y) is 2x + 0y,
        # and under the second (x -> y, y -> 2x + y) it is -2x
        table = engine._Table(wds2, 1)
        assert engine._expand([([(0, 1), (1, -1)], ())], table) == ([], 1, (((0, -1),), (2,)))

    def test_minus_one_is_negative(self, table):
        # 2x - y: the y slot holds 2^31 - 1, one below the bias
        assert engine._expand([([(0, 2), (1, -1)], (7,))], table) == (
            [(((0, 2), (1, -1)), (7, 1))], 0, None
        )
        assert widths(table) == [32]

    # 2^4095 has 1 233 decimal digits, past Python's lowest int-to-str limit
    @pytest.mark.parametrize("w", [32, 64, 512, 4096])
    def test_coefficients_at_the_slot_edge(self, table, w):
        edge = 2 ** (w - 1) - 1  # the largest |coefficient| a w-bit slot holds
        # +edge fills its slot with ones and carries nothing into the zero slot
        assert engine._expand([([(0, edge)], ())], table) == ([], 1, None)
        # -edge leaves 1 in its slot
        assert engine._expand([([(1, -edge)], ())], table) == ([], 0, (((1, -1),), (1,)))
        # one below the edge next to -1 and 1: both decode exactly
        kept = ((0, edge - 1), (1, -1))
        assert engine._expand([(kept, ())], table) == ([(kept, (1,))], 0, None)
        negative = ((0, 1), (1, 1 - edge))
        assert engine._expand([(negative, ())], table) == ([], 0, (negative, (1,)))
        # the table also keeps the 32-bit packs its maxc walk built
        assert widths(table) == sorted({32, w})
        # one past the edge takes the next width; the -1 keeps the floored
        # child from certifying it, so it reaches the exact pass
        past = ((0, edge + 1), (1, -1))
        assert engine._expand([(past, ())], table) == ([(past, (1,))], 0, None)
        assert widths(table) == sorted({32, w, 2 * w})

    def test_parents_of_at_most_coarse_bits_enter_the_strips_unfloored(
        self, table, packs_asked
    ):
        # 2^15 has 16 bits: the strips' 24-bit slots, 1 bit of entry, 2 of
        # term count and 16 + 1 of multiplier, hold the child itself, whose
        # y slot is -1, and no exact pass runs
        narrow = ((0, 2**15), (1, -1))
        assert list(table.children(narrow)) == [(0, [2**15, -1])]
        packs_asked.clear()
        assert engine._expand([(narrow, ())], table) == ([(narrow, (1,))], 0, None)
        assert packs_asked == [("strips", 24)]
        # 2^16 has 17 bits: the floored child 2x - y fails on the strips,
        # then the exact one
        packs_asked.clear()
        wide = ((0, 2**16), (1, -1))
        assert engine._expand([(wide, ())], table) == ([(wide, (1,))], 0, None)
        assert packs_asked == [("strips", 24), (0, 32)]


def test_floored_minus_one_falls_through_to_an_exact_zero(wds2, packs_asked):
    # a (x - y) with a = 2^40 + 1: under the first wds2 cell the child is
    # 2a x + 0 y, and the 25-bit shift floors -a to -(2^15 + 1), one past
    # a >> 25 = 2^15, so the floored y slot reads -1; the exact pass prunes it
    a = 2**40 + 1
    table = engine._Table(wds2, 1)
    packs_asked.clear()
    assert engine._expand([([(0, a), (1, -a)], ())], table) == (
        [], 1, (((0, -1),), (2,))
    )
    # one floored pass on the strips flags both cells, and each cell then
    # asks for its exact packs
    assert packs_asked == [("strips", 24), (0, 64), (0, 64)]


def test_all_positive_wide_frontier_never_builds_its_exact_width(wds3):
    table = engine._Table(wds3, 2)
    rng = random.Random("wide positive")
    frontier = [
        ([(j, rng.randint(2**299, 2**300)) for j in range(6)], (p,)) for p in range(5)
    ]
    assert engine._expand(frontier, table) == ([], 30, None)
    assert widths(table) == [32]


@pytest.fixture
def no_strip_pass(monkeypatch):
    """_Table.children checked to run only on tables that keep no strips."""
    children = engine._Table.children

    def strip_free(table, items):
        assert table.strips is None, "a table with strips"
        return children(table, items)

    monkeypatch.setattr(engine._Table, "children", strip_free)


def test_strip_free_table_runs_the_exact_pass_alone(packs_asked, no_strip_pass):
    # wds4 at degree 6 has 24 cells of 84 monomials, 169 344 strip entries,
    # past engine._BATCH_ENTRIES: it keeps no strips, floors no parent, and
    # asks for packs only at each parent's exact width
    scheme = make_wds_scheme(4)
    table = engine._Table(scheme, 6)
    assert table.strips is None
    built = set(widths(table))  # the width of the maxc walk
    columns = substituted_columns(scheme, table)
    rng = random.Random("per-cell floored")
    size = len(table.exponents)
    exact = set()
    seen = {"kept": 0, "pruned": 0}
    for kinds in ((300,), ("cancel", 40), ("mixed", 1, 120)):
        frontier = [(random_parent(rng, size, kind), (p,)) for p, kind in enumerate(kinds, 1)]
        exact |= {
            engine._slot_width(table.maxc * sum(abs(v) for _, v in items))
            for items, _ in frontier
        }
        packs_asked.clear()
        children, pruned, negative = engine._expand(frontier, table)
        assert (children, pruned, negative) == sparse_expand(frontier, table, columns)
        asked, _ = two_pass_model(frontier, table, columns)
        assert packs_asked == asked
        assert all(rep in table._reps and w in exact for rep, w in packs_asked)
        seen["kept"] += len(children)
        seen["pruned"] += pruned
    assert all(seen.values()), seen
    assert set(widths(table)) <= exact | built


def test_radical_form_on_trisection3_computes_each_child_once(
    trisection3, big_radical_form, no_strip_pass
):
    # the degree-24 table of trisection3 keeps no strips, so no parent is
    # floored and each of the 14 children is computed once, at full width
    verdict = decide(big_radical_form, trisection3)
    assert verdict.outcome is Outcome.INDEFINITE
    assert verdict.witness_path == (2, 5)
    assert verdict.stats == RunStats(14, 7, 6)
    assert verdict.witness_value == big_radical_form.evaluate(verdict.witness_point)


@pytest.mark.parametrize("name, degree", [("wds3", 24), ("wds5", 6)])
def test_large_tables_build_no_strips(name, degree):
    table = engine._Table(make_wds_scheme(int(name[3:])), degree)
    assert len(table.cells) * len(table.exponents) ** 2 > engine._BATCH_ENTRIES
    assert table.strips is None


class TestBatchedFlooredPass:
    """The strip pass on all of a parent's cells at once, cell 1's slots on
    top of the strips, against the floored children one multiply-add per
    (parent term, expansion entry) gives."""

    @staticmethod
    def flagged(table, columns, low):
        return [
            m
            for m, (rep, pin, _) in enumerate(table.cells)
            if min(sparse_child(table, columns, rep, pin, low)) < 0
        ]

    @staticmethod
    def negative_children(table, columns, items):
        """(m, out) per cell whose child has a negative coefficient, out in
        table.exponents order: what table.children(items) yields."""
        found = []
        for m, (rep, pin, pout) in enumerate(table.cells):
            child = sparse_child(table, columns, rep, pin, items)
            if min(child) < 0:
                found.append((m, [child[r] for r in pout]))
        return found

    @staticmethod
    def exact_products(table, items, cells):
        """The packs table.children(items) asks for, run to the end, when its
        strips flag `cells` of a parent it floors."""
        w = engine._slot_width(table.maxc * sum(abs(v) for _, v in items))
        return [("strips", table.floored_width)] + [(table.cells[m][0], w) for m in cells]

    def test_floored_minus_one_in_a_cells_last_slot(self, trisection3, packs_asked):
        # F = a x + b y + c z at degree 1: cell m's child holds F at its
        # vertices (cleared by 3), and its last slot, z's, F at its third
        # vertex.  Cells 1 and 2 end on (2, 0, 1), where F is 2a + c = 0
        # and the floored F, 2 * 2^14 - 2^15 - 1, is -1; cell 3, whose
        # slots sit right below cell 2's, has (2, 1, 0), (1, 2, 0) and
        # (1, 1, 1), where the floored F is positive
        table = engine._Table(trisection3, 1)
        assert table.strips is not None
        columns = substituted_columns(trisection3, table)
        a = 2**40 + 1
        x, y, z = (table.index[e] for e in ((1, 0, 0), (0, 1, 0), (0, 0, 1)))
        items = [(x, a), (y, 2**41), (z, -2 * a)]
        s = (2 * a).bit_length() - engine._COARSE_BITS
        low = [(j, v >> s) for j, v in items]
        assert [c for _, c in low] == [2**14, 2**15, -(2**15) - 1]
        flagged = self.flagged(table, columns, low)
        assert flagged[:3] == [0, 1, 5]
        packs_asked.clear()
        children = list(table.children(items))
        assert packs_asked == self.exact_products(table, items, flagged)
        # the exact children of cells 1 and 2 are 0 in the z slot, so cells
        # 1-5 are pruned, and cell 6 is negative
        assert children == self.negative_children(table, columns, items)
        assert children[0][0] == 5
        frontier = [(items, ())]
        result = engine._expand(frontier, table)
        assert result == sparse_expand(frontier, table, columns)
        assert result[:2] == ([], 5) and result[2][1] == (6,)

    @pytest.mark.parametrize("name, degree", [("wds4", 1), ("trisection3", 2)])
    def test_every_floored_multiplier_at_its_bound(self, name, degree, packs_asked):
        # bits(maxc) + bits(size) + _COARSE_BITS + 1 is a multiple of 8 on
        # these tables, so floored_width leaves no slack; -(2^40 - 1) floors
        # to -2^16 at a 24-bit shift, and all of them at once give the
        # largest floored child in every slot of every cell
        scheme = KERNEL_SCHEMES[name]()
        table = engine._Table(scheme, degree)
        size = len(table.exponents)
        wf = table.floored_width
        bits = table.maxc.bit_length() + size.bit_length() + engine._COARSE_BITS + 1
        assert wf == bits
        columns = substituted_columns(scheme, table)
        items = [(j, 1 - 2**40) for j in range(size)]
        low = [(j, v >> 24) for j, v in items]
        assert {c for _, c in low} == {-(2**engine._COARSE_BITS)}
        # the strips' sum decodes, cell by cell, to the floored children
        y = table._strips_top
        for j, c in low:
            y += c * table.strips[j]
        slots = decode(y, size * len(table.cells), wf)
        half = 2 ** (wf - 1)
        for m, (rep, pin, _) in enumerate(table.cells):
            floored = sparse_child(table, columns, rep, pin, low)
            assert slots[m * size : (m + 1) * size] == [v + half for v in floored]
        # every cell is flagged and takes an exact product
        packs_asked.clear()
        children = list(table.children(items))
        assert packs_asked == self.exact_products(table, items, range(len(table.cells)))
        assert children == self.negative_children(table, columns, items)
        frontier = [(items, ())]
        assert engine._expand(frontier, table) == sparse_expand(frontier, table, columns)

    def test_negative_child_between_pruned_cells(self, trisection3, packs_asked):
        # F = 2x - y + 2z is 0 at (1, 2, 0) and (0, 2, 1) and -3 at
        # (0, 3, 0), cell 5's other vertex, and positive at every other
        # vertex: cells 1-4 and 6-9 are pruned by the floored pass, and
        # cell 5 is negative.  pruned counts only the four cells before it
        table = engine._Table(trisection3, 1)
        columns = substituted_columns(trisection3, table)
        x, y, z = (table.index[e] for e in ((1, 0, 0), (0, 1, 0), (0, 0, 1)))
        items = [(x, 2**31), (y, -(2**30)), (z, 2**31)]
        low = [(j, v >> 16) for j, v in items]
        assert self.flagged(table, columns, low) == [4]
        packs_asked.clear()
        children = list(table.children(items))
        assert packs_asked == self.exact_products(table, items, [4])
        assert children == self.negative_children(table, columns, items)
        frontier = [(items, (7,))]
        result = engine._expand(frontier, table)
        assert result == sparse_expand(frontier, table, columns)
        assert result == ([], 4, (((y, -1),), (7, 5)))

    def test_narrow_parent_takes_the_strip_pass_once_unfloored(self, packs_asked):
        # a parent of at most _COARSE_BITS bits is summed on the strips as
        # it is, so they hold its children: the strips flag exactly the
        # cells whose child has a negative coefficient, those children are
        # read off the strip sum, and no cell gets a full-width product
        scheme = make_wds_scheme(4)
        table = engine._Table(scheme, 2)
        assert table.strips is not None
        columns = substituted_columns(scheme, table)
        rng = random.Random("narrow parents")
        seen = {"pruned": 0, "flagged": 0, "kept": 0, "negative": 0}
        for _ in range(20):
            items = random_parent(rng, len(table.exponents), 15)
            assert max(abs(v) for _, v in items).bit_length() <= engine._COARSE_BITS
            packs_asked.clear()
            children = list(table.children(items))
            assert children == self.negative_children(table, columns, items)
            assert packs_asked == [("strips", table.floored_width)]
            packs_asked.clear()
            frontier = [(items, ())]
            kept, pruned, stop = engine._expand(frontier, table)
            assert (kept, pruned, stop) == sparse_expand(frontier, table, columns)
            assert packs_asked == [("strips", table.floored_width)]
            seen["pruned"] += pruned
            seen["flagged"] += len(children)
            seen["kept"] += len(kept)
            seen["negative"] += stop is not None
        assert all(seen.values()), seen


# ---------------------------------------------------------------------------
# degree elevation against S^K * G in Form arithmetic


def elevation_slots(elevation, n, degree):
    """Each part of an elevation pack set decoded to {column: {monomial:
    entry}}, the part's monomials read off S^K * y^alpha in Form arithmetic:
    the facets', then the interior's."""
    high = degree + engine._POLYA_K
    descending = tuple(sorted(all_exponents(n, high), reverse=True))
    wanted = [[e for e in descending if not e[i]] for i in range(n)]
    wanted.append([e for e in descending if 0 not in e])
    found = []
    for (top, terms), monomials in zip(elevation.parts, [w for w in wanted if w]):
        w = top.bit_length() // len(monomials)
        assert top == engine._bias(w, len(monomials))
        found.append(
            {j: dict(zip(monomials, decode(pack, len(monomials), w))) for j, pack in terms}
        )
    return found


@pytest.mark.parametrize("n, degree", [(2, 3), (3, 0), (3, 4), (4, 2), (6, 1), (6, 2)])
def test_elevation_packs_match_form_arithmetic(n, degree):
    # (6, 2) lays its facets out as ints and its interior as dicts, the
    # degree-10 box of 6 variables having 11^5 slots, and (6, 1) both as
    # dicts
    exps = tuple(sorted(all_exponents(n, degree), reverse=True))
    elevation = engine._Elevation(n, degree, exps)
    parts = elevation_slots(elevation, n, degree)
    assert len(parts) == n + 1
    for i, part in enumerate(parts):
        for j, alpha in enumerate(exps):
            image = elevated(Form(n, {alpha: 1}), engine._POLYA_K)
            if i < n and alpha[i]:
                assert j not in part
                continue
            assert part[j] == {e: image.get(e, 0) for e in part[j]}
    assert elevation.vertices == [j for j, e in enumerate(exps) if degree in e]


def largest_elevated_degree(n):
    """The largest degree whose pack set of n variables, size(d) x
    size(d + K) entries, is within engine._BATCH_ENTRIES, or -1."""
    def entries(d):
        return comb(d + n - 1, n - 1) * comb(d + engine._POLYA_K + n - 1, n - 1)

    d = -1
    while entries(d + 1) <= engine._BATCH_ENTRIES:
        d += 1
    return d


@pytest.mark.parametrize("n", range(2, 8))
def test_elevation_pack_sets_stay_cheap_within_the_size_bound(n):
    # tables elevate at degree 2 or more: the bound admits degree 357 at
    # n = 2 and degree 2 at n = 6 (21 x 3 003 entries, the interior laid out
    # as dicts), and no such degree at n = 7, where degree 2 needs 28 x 8 008
    degree = largest_elevated_degree(n)
    assert (degree < 2) == (n >= 7)
    bisection = engine._Table(bisection_scheme(n), 2)
    assert (bisection.elevation is None) == (n >= 7)
    if degree < 2:
        return
    exps = tuple(sorted(all_exponents(n, degree), reverse=True))
    gc.collect()
    tracemalloc.start()
    start = time.process_time()
    try:
        elevation = engine._Elevation(n, degree, exps)
        seconds = time.process_time() - start
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert seconds < 0.5
    assert peak < 4 * 2**20
    assert len(elevation.parts) == n + 1


def biased_parents(rng, exps, count):
    """Forms in exps order that degree elevation often settles: coefficients
    of 20 to 40 with a few negative ones, now and then at a vertex, as
    lists of ints, scaled by a random positive int."""
    out = []
    while len(out) < count:
        coeffs = [rng.randint(20, 40) for _ in exps]
        for j in rng.sample(range(len(exps)), rng.randint(1, 3)):
            coeffs[j] = -rng.randint(1, 60)
        if min(coeffs) < 0 <= sum(coeffs):
            out.append([rng.randint(1, 3) * c for c in coeffs])
    return out


@pytest.mark.parametrize("n, degree", [(2, 4), (3, 3), (4, 2)])
def test_elevation_test_is_the_floored_product(n, degree):
    # one multiply-add per term on the packs agrees with flooring the child
    # and multiplying it by S^K in Form arithmetic; a negative vertex
    # coefficient skips the product, and never a child that would pass,
    # since y_i^(d + K) in S^K * G has G's coefficient of y_i^d
    exps = tuple(sorted(all_exponents(n, degree), reverse=True))
    elevation = engine._Elevation(n, degree, exps)
    rng = random.Random(f"elevation:{n}:{degree}")
    seen = {"proved": 0, "failed": 0, "vertex": 0}
    for out in biased_parents(rng, exps, 150):
        form = Form(n, dict(zip(exps, out)))
        got = elevation.proves(out, gcd(*out))
        assert got == elevation_proves(form)
        if min(out[j] for j in elevation.vertices) < 0:
            seen["vertex"] += 1
            assert not elevation_proves(form)
        seen["proved" if got else "failed"] += 1
    assert all(seen.values()), seen


def test_elevation_floors_a_wide_child():
    # a (x^2 - x y + y^2) with a = 2^40 + 1 floors at s = 25 to
    # 2^15 x^2 - (2^15 + 1) x y + 2^15 y^2, whose elevation is still
    # nonnegative, also when the child comes scaled by g = 3; a (x - y)^2
    # vanishes on the cell, so no S^K times it is nonnegative
    exps = ((2, 0), (1, 1), (0, 2))
    elevation = engine._Elevation(2, 2, exps)
    a = 2**40 + 1
    assert elevation.proves([a, -a, a], 1)
    assert elevation.proves([3 * a, -3 * a, 3 * a], 3)
    assert not elevation.proves([a, -2 * a, a], 1)
    assert elevation_proves(Form(2, dict(zip(exps, (a, -a, a)))))


def test_repeat_of_an_elevation_pruned_child_is_dropped_uncounted():
    # the one-cell identity scheme: each child is its parent.  x^2 - xy + y^2
    # is pruned by degree elevation once, and its repeat counts nowhere;
    # (x - y)^2 vanishes on the cell, so it is kept once, under its first path
    scheme = SubdivisionScheme("id2", 2, [NormalizedMatrix.identity(2)])
    table = engine._Table(scheme, 2)
    assert table.elevation is not None
    proved = ((0, 1), (1, -1), (2, 1))
    kept = ((0, 1), (1, -2), (2, 1))
    frontier = [(proved, (1,)), (kept, (2,)), (proved, (3,)), (kept, (4,))]
    assert engine._expand(frontier, table) == ([(kept, (2, 1))], 1, None)


def positive_ish_form(rng, n, degree):
    """l^2 S^(d - 2) + t S^d, d >= 2, l a random linear form of mixed signs
    with coefficients of about 14 bits, S the sum of the variables and t of
    23 to 25 bits: strictly positive on the simplex, with coefficients wider
    than engine._COARSE_BITS, negative ones where l has mixed signs."""
    names = [f"v{i}" for i in range(1, n + 1)]
    coeffs = [rng.randint(-3, 3) * 4096 + rng.randrange(4096) for _ in names]
    line = " + ".join(f"({c})*{v}" for c, v in zip(coeffs, names))
    total = "(" + " + ".join(names) + ")"
    t = rng.randint(2**22, 2**24)
    return parse_form(f"({line})^2*{total}^{degree - 2} + {t}*{total}^{degree}", names)


@pytest.mark.parametrize("name", KERNEL_SCHEMES)
def test_every_elevation_pruned_child_is_nonnegative(name, monkeypatch):
    # every child the engine prunes by degree elevation has a negative
    # coefficient, and S^K times it, exactly and unfloored, has none
    scheme = KERNEL_SCHEMES[name]()
    n = scheme.n
    proves = engine._Elevation.proves
    tested = []

    def record(elevation, out, g):
        got = proves(elevation, out, g)
        tested.append((out, g, got))
        return got

    monkeypatch.setattr(engine._Elevation, "proves", record)
    rng = random.Random(f"sound:{name}")
    degrees = [d for d in (2, 3, 4) if elevates(len(scheme), n, d)]
    proved = floored = 0
    for _ in range(12 if degrees else 0):
        if proved >= 100:
            break
        degree = rng.choice(degrees)
        exps = engine._table_for(scheme, degree).exponents
        tested.clear()
        decide(positive_ish_form(rng, n, degree), scheme, max_depth=1)
        for out, g, got in tested:
            if got:
                proved += 1
                child = Form(n, {e: v // g for e, v in zip(exps, out)})
                wide = max(abs(c) for c in child.terms.values())
                floored += wide >= 2**engine._COARSE_BITS
                assert min(child.terms.values()) < 0
                assert min(elevated(child, engine._POLYA_K).values()) >= 0
    # bisection8 elevates at no degree: past degree 1 its pack sets are
    # too large
    assert (proved and floored) or not degrees


class TestWitnessPoint:
    def test_empty_path_is_barycenter(self, wds3):
        assert witness_point((), wds3) == (F(1, 3), F(1, 3), F(1, 3))

    def test_single_step(self, wds3):
        assert witness_point((1,), wds3) == (F(11, 18), F(5, 18), F(1, 9))

    def test_path_composes_in_order(self, wds3):
        p = witness_point((1, 3), wds3)
        expected = (wds3.matrices[0] @ wds3.matrices[2]).apply(
            (F(1, 3), F(1, 3), F(1, 3))
        )
        assert p == expected

    def test_out_of_range_index(self, wds3):
        with pytest.raises(ValueError, match="out of range"):
            witness_point((7,), wds3)
        with pytest.raises(ValueError, match="out of range"):
            witness_point((0,), wds3)
        with pytest.raises(ValueError, match="out of range"):
            witness_point((True,), wds3)

    @pytest.mark.parametrize("name", ["wds3", "trisection3", "star3_asymmetric"])
    def test_matches_composed_cell(self, name):
        # the composed matrix of the path, applied to the barycenter, is the
        # definition the cell-by-cell mapping must reproduce
        scheme = CLASS_SCHEMES[name][0]()
        rng = random.Random(name)
        for length in range(1, 13):
            path = tuple(rng.randint(1, len(scheme)) for _ in range(length))
            cell = compose(scheme.matrices[i - 1] for i in path)
            assert witness_point(path, scheme) == cell.apply(barycenter(scheme.n))


# strictly positive, but its restriction to the edge x3 = 0, which every
# power of central3's first cell keeps, needs K = 40 in Polya's test
CENTRAL_STUCK_TEXT = "(x1 - x2 + x3)^2 + 1/10*x2^2"


class TestCentralFanRegression:
    def test_positive_definite_form_never_terminates(self, central3):
        f = parse_form(CENTRAL_STUCK_TEXT, ("x1", "x2", "x3"))
        verdict = decide(f, central3, max_depth=10)
        assert verdict.outcome is Outcome.INCONCLUSIVE
        assert verdict.depth_reached == 10
        assert verdict.stats == RunStats(105, 67, 4)

    def test_stuck_branch_tracks_matrix_powers(self, central3):
        f = parse_form(CENTRAL_STUCK_TEXT, ("x1", "x2", "x3"))
        a = central3.matrices[0]
        frontier = [Branch(f.normalize_content(), ())]
        for m in range(1, 7):
            result = expand_level(frontier, central3)
            assert result.negative is None
            frontier = result.children
            stuck = next(b for b in frontier if b.path == (1,) * m)
            expected = f.substitute(matrix_power(a, m)).normalize_content()
            assert stuck.form == expected
            assert stuck.form.coefficient((1, 1, 0)) < 0
            # so degree elevation cannot prune it
            assert min(elevated(stuck.form, engine._POLYA_K).values()) < 0

    def test_form_that_ran_out_of_depth_now_ends_psd(self, central3):
        # (x1 - x2 + x3)^2 + x2^2 was inconclusive at any depth before the
        # degree-elevation prune: its stuck branch keeps a -2 x1 x2.  Each
        # level-1 child with a negative coefficient is pruned by S^K
        f = parse_form("(x1 - x2 + x3)^2 + x2^2", ("x1", "x2", "x3"))
        verdict = decide(f, central3, max_depth=10)
        assert verdict.outcome is Outcome.PSD
        assert verdict.depth_reached == 1
        assert verdict.stats == RunStats(3, 3, 1)
        children = [f.substitute(m).normalize_content() for m in central3.matrices]
        elevated_children = [c for c in children if not c.is_trivially_positive()]
        assert elevated_children
        for child in elevated_children:
            assert min(elevated(child, engine._POLYA_K).values()) >= 0


class TestRunReport:
    def test_indefinite_report(self, wds3, mixed_sign_form):
        report = run_report(decide(mixed_sign_form, wds3))
        assert report["verdict"] == "indefinite"
        assert report["depth_reached"] == 0
        assert report["stats"] == {
            "branches_expanded": 0,
            "branches_pruned_positive": 0,
            "peak_frontier_size": 1,
        }
        assert report["witness"]["path"] == []
        assert report["witness"]["point"] == ["1/3", "1/3", "1/3"]
        assert report["witness"]["value"] == "-1/729"
        assert all(F(v) == F(1, 3) for v in report["witness"]["point"])

    def test_psd_report_has_no_witness(self, wds3, sym_diff_form):
        report = run_report(decide(sym_diff_form, wds3))
        assert report["verdict"] == "PSD"
        assert "witness" not in report
        assert "note" not in report

    def test_inconclusive_report_carries_note(self, central3):
        f = parse_form(CENTRAL_STUCK_TEXT, ("x1", "x2", "x3"))
        report = run_report(decide(f, central3, max_depth=3))
        assert report["verdict"] == "inconclusive"
        assert "undecided" in report["note"]

    def test_long_values_at_the_lowest_digit_limit(self):
        # a 904-digit witness value, past 640 digits, Python's lowest
        # int-to-str limit: the report must still write it
        verdict = decide(parse_form("x - 2^3000*y", "x,y"), make_wds_scheme(2))
        with lowest_digit_limit():
            report = run_report(verdict)
        assert verdict.witness_value == F(1 - 2**3000, 2)
        assert report["witness"]["value"] == _write_rational(verdict.witness_value)
        assert as_fraction(report["witness"]["value"]) == verdict.witness_value
        assert report["witness"]["point"] == ["1/2", "1/2"]

    def test_json_serializable(self, wds3, mixed_sign_form):
        import json

        text = json.dumps(run_report(decide(mixed_sign_form, wds3)))
        assert "indefinite" in text


def test_outcome_values():
    assert Outcome.PSD.value == "PSD"
    assert Outcome.INDEFINITE.value == "indefinite"
    assert Outcome.INCONCLUSIVE.value == "inconclusive"


def test_wds2_engine_end_to_end():
    f = parse_form("x^2 - 3*x*y + y^2", "x,y")
    verdict = decide(f, make_wds_scheme(2))
    assert verdict.outcome is Outcome.INDEFINITE
    assert sum(verdict.witness_point) == 1
    assert f.evaluate(verdict.witness_point) == verdict.witness_value
    assert verdict.witness_value < 0
