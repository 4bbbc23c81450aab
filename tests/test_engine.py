"""Unit tests for the branch-and-prune decision engine."""

import gc
import random
from fractions import Fraction

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
from conftest import VARS3, all_exponents, swapped_halves_scheme

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
        assert verdict.stats == RunStats(9, 4, 4)
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
        plain = decide(f, wds3)
        merged = decide(f, wds3, dedup=True)
        assert plain.outcome is Outcome.PSD
        assert plain.depth_reached == 2
        assert merged.outcome is Outcome.PSD
        assert merged.depth_reached == 2
        assert plain.stats == RunStats(18, 16, 2)
        assert merged.stats == RunStats(12, 10, 1)

    def test_dedup_keys_on_all_coefficients_and_keeps_the_first_path(self):
        a = [(0, 1), (1, 2), (2, -1)]
        b = [(0, 1), (1, 2), (2, -3)]
        children = [(a, (1,)), (b, (2,)), (list(a), (3,)), (list(b), (4,))]
        assert engine._dedup(children) == [(a, (1,)), (b, (2,))]

    def test_dedup_never_changes_the_verdict(self, wds3, mixed_sign_form):
        a = decide(mixed_sign_form, wds3)
        b = decide(mixed_sign_form, wds3, dedup=True)
        assert a.outcome == b.outcome


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
        # trivially negative; expansion must stop right there
        f = parse_form("x^2 + y^2 + z^2 - 5/2*x*y", VARS3)
        first = expand_level([Branch(f.normalize_content(), ())], wds3)
        assert first.negative is None
        assert [b.path for b in first.children] == [(1,), (2,), (3,), (4,)]
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
    assert len({id(columns) for columns, _, _ in table.cells}) == expansions


@pytest.mark.parametrize("name", CLASS_SCHEMES)
def test_class_maps_rebuild_every_cell(name):
    matrices = CLASS_SCHEMES[name][0]().matrices
    for m, (rep, sigma, tau) in enumerate(engine._classes([c.rows for c in matrices])):
        assert rep <= m
        rows, rep_rows = matrices[m].rows, matrices[rep].rows
        assert rows == tuple(tuple(rep_rows[s][t] for t in tau) for s in sigma)


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


class TestCentralFanRegression:
    def test_positive_definite_form_never_terminates(self, central3):
        f = parse_form("(x1 - x2 + x3)^2 + x2^2", ("x1", "x2", "x3"))
        verdict = decide(f, central3, max_depth=10)
        assert verdict.outcome is Outcome.INCONCLUSIVE
        assert verdict.depth_reached == 10
        assert verdict.stats == RunStats(57, 37, 2)

    def test_stuck_branch_tracks_matrix_powers(self, central3):
        f = parse_form("(x1 - x2 + x3)^2 + x2^2", ("x1", "x2", "x3"))
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
        f = parse_form("(x1 - x2 + x3)^2 + x2^2", ("x1", "x2", "x3"))
        report = run_report(decide(f, central3, max_depth=3))
        assert report["verdict"] == "inconclusive"
        assert "undecided" in report["note"]

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
