"""Unit tests for matrices, schemes, validation and convergence analysis."""

import re
from fractions import Fraction
from itertools import combinations, permutations
from math import factorial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from formsign import (
    MAX_DIGITS,
    DimensionMismatchError,
    NormalizedMatrix,
    SchemeError,
    SubdivisionScheme,
    barycenter,
    check_convergence,
    compose,
    diameter_sq,
    format_scheme,
    load_scheme,
    make_central3_scheme,
    make_midpoint3_scheme,
    make_star3_scheme,
    make_trisection3_scheme,
    make_wds_scheme,
    matrix_power,
    parse_scheme,
    save_scheme,
    validate_scheme,
)
from formsign.forms import _write_rational
from conftest import lowest_digit_limit

F = Fraction


def _rows(*rows):
    return tuple(tuple(F(v) for v in row.split()) for row in rows)


class TestBarycenter:
    def test_three(self):
        assert barycenter(3) == (F(1, 3), F(1, 3), F(1, 3))

    def test_one(self):
        assert barycenter(1) == (F(1),)

    def test_invalid(self):
        with pytest.raises(ValueError):
            barycenter(0)
        with pytest.raises(ValueError):
            barycenter(True)


class TestNormalizedMatrix:
    def test_rows_and_columns(self):
        m = NormalizedMatrix(_rows("1 1/2", "0 1/2"))
        assert m.n == 2
        assert m.columns == ((F(1), F(0)), (F(1, 2), F(1, 2)))

    def test_from_columns_round_trip(self):
        m = NormalizedMatrix(_rows("1 1/2 1/3", "0 1/2 1/3", "0 0 1/3"))
        assert NormalizedMatrix.from_columns(m.columns) == m

    def test_identity(self):
        eye = NormalizedMatrix.identity(3)
        assert eye.rows == _rows("1 0 0", "0 1 0", "0 0 1")

    @pytest.mark.parametrize("n", [0, True])
    def test_identity_invalid(self, n):
        with pytest.raises(ValueError):
            NormalizedMatrix.identity(n)

    def test_non_square_rejected(self):
        with pytest.raises(ValueError, match="square"):
            NormalizedMatrix(((F(1), F(0)),))

    def test_float_entries_rejected(self):
        with pytest.raises(TypeError):
            NormalizedMatrix(((0.5, 0.5), (0.5, 0.5)))

    def test_det_of_triangular_cell(self, wds3):
        assert wds3.matrices[0].det() == F(1, 6)

    def test_det_singular(self):
        m = NormalizedMatrix(_rows("1/2 1/2", "1/2 1/2"))
        assert m.det() == 0

    def test_det_with_row_swap_pivot(self):
        m = NormalizedMatrix(_rows("0 1", "1 0"))
        assert m.det() == -1

    @settings(max_examples=200, deadline=None)
    @given(
        st.integers(1, 5).flatmap(
            lambda n: st.lists(
                st.lists(
                    st.sampled_from([0, 0, 1, -1, 2]).flatmap(
                        lambda k: st.fractions(-4, 4, max_denominator=9).map(lambda f: k * f)
                    ),
                    min_size=n,
                    max_size=n,
                ),
                min_size=n,
                max_size=n,
            )
        )
    )
    def test_det_matches_permutation_expansion(self, rows):
        # many zero entries, so pivots must be searched and some are singular
        n = len(rows)
        expected = F(0)
        for perm in permutations(range(n)):
            inversions = sum(perm[i] > perm[j] for i, j in combinations(range(n), 2))
            term = F((-1) ** inversions)
            for i, j in enumerate(perm):
                term *= rows[i][j]
            expected += term
        assert NormalizedMatrix(rows).det() == expected

    def test_apply(self, wds3):
        w = wds3.matrices[0]
        assert w.apply(barycenter(3)) == (F(11, 18), F(5, 18), F(1, 9))

    def test_apply_dimension_mismatch(self, wds3):
        with pytest.raises(DimensionMismatchError):
            wds3.matrices[0].apply((F(1, 2), F(1, 2)))

    def test_matmul(self, wds3):
        w = wds3.matrices[0]
        assert (w @ w).rows == _rows("1 3/4 11/18", "0 1/4 5/18", "0 0 1/9")

    def test_matmul_size_mismatch(self, wds2, wds3):
        with pytest.raises(DimensionMismatchError):
            wds2.matrices[0] @ wds3.matrices[0]

    def test_hash_and_eq(self):
        a = NormalizedMatrix(_rows("1 1/2", "0 1/2"))
        b = NormalizedMatrix(_rows("1 1/2", "0 1/2"))
        assert a == b
        assert hash(a) == hash(b)


class TestDiameterAndPowers:
    def test_identity_diameter(self):
        assert diameter_sq(NormalizedMatrix.identity(3)) == 2

    def test_wds_cell_diameter(self, wds3):
        assert diameter_sq(wds3.matrices[0]) == F(2, 3)

    def test_midpoint_cell_diameter(self, midpoint3):
        assert diameter_sq(midpoint3.matrices[0]) == F(1, 2)

    def test_compose_chains_left_to_right(self, wds3):
        a, b = wds3.matrices[0], wds3.matrices[3]
        assert compose([a, b]) == a @ b
        assert compose([a]) == a

    def test_compose_empty_rejected(self):
        with pytest.raises(ValueError):
            compose([])

    def test_matrix_power(self, central3):
        a = central3.matrices[0]
        assert matrix_power(a, 1) == a
        assert matrix_power(a, 2) == a @ a
        assert matrix_power(a, 2).rows == _rows("1 0 4/9", "0 1 4/9", "0 0 1/9")

    def test_matrix_power_invalid(self, central3):
        with pytest.raises(ValueError):
            matrix_power(central3.matrices[0], 0)


class TestWdsScheme:
    def test_counts_are_factorials(self):
        for n in (2, 3, 4):
            assert len(make_wds_scheme(n)) == factorial(n)

    def test_first_matrix_is_running_average_of_identity_order(self, wds3):
        assert wds3.matrices[0].rows == _rows("1 1/2 1/3", "0 1/2 1/3", "0 0 1/3")

    def test_two_variable_matrices(self, wds2):
        assert wds2.matrices[0].rows == _rows("1 1/2", "0 1/2")
        assert wds2.matrices[1].rows == _rows("0 1/2", "1 1/2")
        assert [m.det() for m in wds2.matrices] == [F(1, 2), F(-1, 2)]

    def test_determinant_magnitudes(self):
        for n in (2, 3, 4):
            scheme = make_wds_scheme(n)
            assert {abs(m.det()) for m in scheme.matrices} == {F(1, factorial(n))}

    @pytest.mark.parametrize("n", range(2, 8))
    def test_cells_equal_their_rational_running_averages(self, n):
        # the cells are built from ints; built from Fraction columns through
        # the public constructor they are equal and hash equal, in order
        cells = make_wds_scheme(n).matrices
        for perm, cell in zip(permutations(range(n)), cells, strict=True):
            counts = [0] * n
            columns = []
            for j, p in enumerate(perm, start=1):
                counts[p] += 1
                columns.append([F(c, j) for c in counts])
            expected = NormalizedMatrix.from_columns(columns)
            assert cell == expected and hash(cell) == hash(expected)
            assert (cell.n, cell.ints, cell.den) == (n, expected.ints, expected.den)

    def test_invalid_dimension(self):
        with pytest.raises(SchemeError):
            make_wds_scheme(1)

    def test_name(self, wds3):
        assert wds3.name == "wds3"
        assert wds3.n == 3


class TestFixedSchemes:
    def test_midpoint_first_matrix_and_dets(self, midpoint3):
        assert len(midpoint3) == 4
        assert midpoint3.matrices[0].rows == _rows("1 1/2 1/2", "0 1/2 0", "0 0 1/2")
        assert {abs(m.det()) for m in midpoint3.matrices} == {F(1, 4)}

    def test_trisection_first_matrix_and_dets(self, trisection3):
        assert len(trisection3) == 9
        assert trisection3.matrices[0].rows == _rows("1 2/3 2/3", "0 1/3 0", "0 0 1/3")
        assert {abs(m.det()) for m in trisection3.matrices} == {F(1, 9)}

    def test_central_matrices(self, central3):
        assert len(central3) == 3
        assert central3.matrices[0].rows == _rows("1 0 1/3", "0 1 1/3", "0 0 1/3")
        assert {abs(m.det()) for m in central3.matrices} == {F(1, 3)}


class TestStarScheme:
    def test_barycentric_parameters_reproduce_wds(self, wds3):
        scheme = make_star3_scheme(
            barycenter(3),
            (F(1, 2), F(1, 2), 0),
            (0, F(1, 2), F(1, 2)),
            (F(1, 2), 0, F(1, 2)),
        )
        assert len(scheme) == 6
        assert set(scheme.matrices) == set(wds3.matrices)

    def test_off_center_parameters(self):
        scheme = make_star3_scheme(
            (F(1, 2), F(1, 4), F(1, 4)),
            (F(1, 3), F(2, 3), 0),
            (0, F(1, 2), F(1, 2)),
            (F(3, 4), 0, F(1, 4)),
        )
        validation = validate_scheme(scheme)
        assert validation.ok
        assert validation.det_sum == 1
        report = check_convergence(scheme)
        assert report.convergent
        assert report.contraction_ratio_sq == F(9, 16)

    def test_center_must_be_interior(self):
        with pytest.raises(SchemeError, match="interior"):
            make_star3_scheme(
                (F(1, 2), F(1, 2), 0),
                (F(1, 2), F(1, 2), 0),
                (0, F(1, 2), F(1, 2)),
                (F(1, 2), 0, F(1, 2)),
            )

    def test_edge_point_must_lie_on_its_edge(self):
        with pytest.raises(SchemeError, match="edge12"):
            make_star3_scheme(
                barycenter(3),
                (F(1, 4), F(1, 2), F(1, 4)),
                (0, F(1, 2), F(1, 2)),
                (F(1, 2), 0, F(1, 2)),
            )

    def test_coordinate_sum_checked(self):
        with pytest.raises(SchemeError, match="sum 1"):
            make_star3_scheme(
                (F(1, 2), F(1, 4), F(1, 2)),
                (F(1, 2), F(1, 2), 0),
                (0, F(1, 2), F(1, 2)),
                (F(1, 2), 0, F(1, 2)),
            )


class TestSchemeConstruction:
    def test_empty_rejected(self):
        with pytest.raises(SchemeError):
            SubdivisionScheme("empty", 3, ())

    def test_dimension_mismatch_rejected(self, wds2, wds3):
        with pytest.raises(DimensionMismatchError):
            SubdivisionScheme("mixed", 3, (wds3.matrices[0], wds2.matrices[0]))

    def test_len(self, trisection3):
        assert len(trisection3) == 9

    # format_scheme writes the name on one "name:" line, and parse_scheme
    # reads it back up to a '#', stripped
    @pytest.mark.parametrize("name", ["mid#1", " spaced ", "", "two\nlines"])
    def test_names_a_scheme_file_cannot_carry_rejected(self, wds2, name):
        with pytest.raises(SchemeError, match="scheme name"):
            SubdivisionScheme(name, 2, wds2.matrices)


class TestValidation:
    def test_builtins_pass(self, wds2, wds3, midpoint3, trisection3, central3):
        for scheme in (wds2, wds3, midpoint3, trisection3, central3):
            validation = validate_scheme(scheme)
            assert validation.ok, scheme.name
            assert validation.det_sum == 1
            assert validation.failures() == []

    def test_bad_column_sum_flagged(self):
        m = NormalizedMatrix(_rows("1 1", "0 1"))
        with pytest.raises(SchemeError, match="invalid scheme") as exc:
            SubdivisionScheme("bad", 2, (m,))
        v = exc.value.validation
        assert not v.ok
        assert v.failures()[0] == "matrix 1: some column does not sum to 1"
        assert any("column" in msg for msg in v.failures())

    def test_short_rational_column_sum_flagged(self):
        m = NormalizedMatrix(_rows("1/2 1/3", "1/3 2/3"))  # column 1 sums to 5/6
        with pytest.raises(SchemeError) as exc:
            SubdivisionScheme("short", 2, (m,))
        assert exc.value.validation.failures()[0] == "matrix 1: some column does not sum to 1"

    @settings(derandomize=True, deadline=None, database=None, max_examples=200)
    @given(
        st.integers(2, 3).flatmap(
            lambda n: st.lists(
                st.lists(st.sampled_from("0 1 1/2 1/3 2/3 1/4 3/4 1/6 5/6".split()),
                         min_size=n, max_size=n),
                min_size=n, max_size=n,
            )
        )
    )
    def test_column_sums_agree_with_fraction_sums(self, rows):
        # the check sums each cell over its common denominator in ints
        rows = [[F(v) for v in row] for row in rows]
        try:
            SubdivisionScheme("s", len(rows), (NormalizedMatrix(rows),))
            problems = []
        except SchemeError as exc:
            problems = exc.validation.failures()
        short = any(sum(col, F(0)) != 1 for col in zip(*rows))
        assert ("matrix 1: some column does not sum to 1" in problems) == short

    def test_negative_entry_flagged(self):
        m = NormalizedMatrix(_rows("3/2 0", "-1/2 1"))
        with pytest.raises(SchemeError, match="negative entry") as exc:
            SubdivisionScheme("neg", 2, (m,))
        assert "matrix 1: negative entry" in exc.value.validation.failures()

    def test_singular_flagged(self):
        m = NormalizedMatrix(_rows("1/2 1/2", "1/2 1/2"))
        with pytest.raises(SchemeError, match="singular") as exc:
            SubdivisionScheme("flat", 2, (m,))
        v = exc.value.validation
        assert "matrix 1: singular (zero volume cell)" in v.failures()
        assert v.dets[0] == 0

    def test_det_sum_shortfall_flagged(self, midpoint3):
        with pytest.raises(SchemeError, match="do not tile") as exc:
            SubdivisionScheme("gap", 3, midpoint3.matrices[:3])
        v = exc.value.validation
        assert v.det_sum == F(3, 4)
        assert not v.ok
        # no per-matrix problem, only the volume shortfall
        assert v.failures() == [
            "cell volumes do not tile the simplex: sum |det| = 3/4, expected 1"
        ]
        assert (v.name, v.n) == ("gap", 3)

    def test_double_cover_refused(self):
        # the half of the segment next to e1 twice, the half next to e2 never
        half = NormalizedMatrix(_rows("1 1/2", "0 1/2"))
        with pytest.raises(SchemeError):
            SubdivisionScheme("double", 2, (half, half))

    @pytest.mark.parametrize(
        "cells, message",
        [
            # the double cover of test_double_cover_refused
            ((("1 1/2", "0 1/2"),) * 2, "cells 1 and 2 overlap at the facet (1/2, 1/2)"),
            # (e1, e2, m23), (e1, p, e3), (p, m23, e3) with p = (1/2, 1/4, 1/4):
            # cell 1's edge e1-m23 is split at p, a valid tiling that is not
            # face-to-face, which is all the check can verify
            (
                (
                    ("1 0 0", "0 1 1/2", "0 0 1/2"),
                    ("1 1/2 0", "0 1/4 0", "0 1/4 1"),
                    ("1/2 0 0", "1/4 1/2 0", "1/4 1/2 1"),
                ),
                "cells 1 and 2 are not face-to-face at (1, 0, 0), (0, 1/2, 1/2); "
                "only face-to-face tilings are verified",
            ),
            # the second cell overlaps the first and leaves [0, 1/4] uncovered
            (
                (("1 1/2", "0 1/2"), ("3/4 1/4", "1/4 3/4")),
                "cells 1 and 2 overlap at (1/2, 1/2)",
            ),
            # the quarter next to e1 twice, nothing beyond the half next to it
            (
                (("1 1/2", "0 1/2"), ("1 3/4", "0 1/4"), ("1 3/4", "0 1/4")),
                "no cell lies beyond cell 1 at the facet (1/2, 1/2), "
                "so with sum |det| = 1 some cells overlap",
            ),
        ],
    )
    def test_volumes_summing_to_one_without_a_tiling_refused(self, cells, message):
        mats = [NormalizedMatrix(_rows(*rows)) for rows in cells]
        with pytest.raises(SchemeError) as exc:
            SubdivisionScheme("cells", len(cells[0]), mats)
        v = exc.value.validation
        assert v.det_sum == 1
        assert v.failures() == [message]

    def test_long_volume_sum_reported_in_full(self):
        # each cell's |det| has 2 501 digits and their sum more than 4 300; the
        # text is built without str() of a long int, so this also runs under
        # Python's lowest int-to-str digit limit
        zeros = "0" * 2499
        p, q = 10**2500 + 1, 10**2500 + 3
        cells = "".join(f"matrix:\n1 1/1{zeros}{d}\n0 1/1{zeros}{d}\n" for d in (3, 1))
        with pytest.raises(SchemeError) as exc:
            parse_scheme(f"name: long\nn: 2\n{cells}")
        v = exc.value.validation
        assert v.det_sum == F(1, p) + F(1, q) == F(2 * 10**2500 + 4, p * q)
        # (2*10^2500 + 4) / (10^5000 + 4*10^2500 + 3), already in lowest terms
        det_sum = f"2{zeros}4/1{zeros}4{zeros}3"
        assert v.failures()[-1] == (
            f"cell volumes do not tile the simplex: sum |det| = {det_sum}, expected 1"
        )


class TestConvergence:
    def test_wds_ratio(self, wds3):
        report = check_convergence(wds3)
        assert report.convergent
        assert report.contraction_ratio_sq == F(1, 3)
        assert report.shared_edges == ()

    def test_midpoint_ratio(self, midpoint3):
        report = check_convergence(midpoint3)
        assert report.convergent
        assert report.contraction_ratio_sq == F(1, 4)

    def test_trisection_ratio(self, trisection3):
        report = check_convergence(trisection3)
        assert report.convergent
        assert report.contraction_ratio_sq == F(1, 9)

    def test_central_not_convergent(self, central3):
        report = check_convergence(central3)
        assert not report.convergent
        assert report.contraction_ratio_sq is None
        assert report.shared_edges == ((1, (1, 2)), (2, (1, 2)), (3, (1, 2)))

    def test_ratio_describes_level_one_only(self, wds3, midpoint3, trisection3):
        # wds3's level-2 cells outgrow 2 * ratio^2; cells that are scaled
        # copies of the simplex meet it exactly
        def level_two(scheme):
            return max(diameter_sq(a @ b) for a in scheme.matrices for b in scheme.matrices)

        ratio = check_convergence(wds3).contraction_ratio_sq
        assert level_two(wds3) == F(13, 54) > 2 * ratio**2
        for scheme in (midpoint3, trisection3):
            ratio = check_convergence(scheme).contraction_ratio_sq
            assert level_two(scheme) == 2 * ratio**2

    def test_wds_family_convergent(self):
        for n in (2, 4, 5):
            assert check_convergence(make_wds_scheme(n)).convergent


# every built-in scheme builder, by the name of the scheme it builds
BUILTINS = {
    **{f"wds{n}": (lambda n=n: make_wds_scheme(n)) for n in (2, 3, 4, 5)},
    "midpoint3": make_midpoint3_scheme,
    "trisection3": make_trisection3_scheme,
    "central3": make_central3_scheme,
    "star3": lambda: make_star3_scheme(
        barycenter(3), (F(1, 2), F(1, 2), 0), (0, F(1, 2), F(1, 2)), (F(1, 2), 0, F(1, 2))
    ),
}


class TestSchemeFiles:
    def test_round_trip_builtins(self):
        for name, build in BUILTINS.items():
            scheme = build()
            parsed = parse_scheme(format_scheme(scheme))
            assert parsed.name == scheme.name == name
            assert parsed.n == scheme.n
            assert parsed.matrices == scheme.matrices

    def test_save_and_load(self, tmp_path, midpoint3):
        path = tmp_path / "midpoint.scheme"
        save_scheme(midpoint3, path)
        loaded = load_scheme(path)
        assert loaded.matrices == midpoint3.matrices

    def test_comments_and_blank_lines_ignored(self):
        text = (
            "# a halving of the segment\n"
            "name: halves\n"
            "\n"
            "n: 2\n"
            "matrix:\n"
            "1 1/2   # right half\n"
            "0 1/2\n"
            "matrix:\n"
            "0 1/2\n"
            "1 1/2\n"
        )
        scheme = parse_scheme(text)
        assert scheme.name == "halves"
        assert len(scheme) == 2

    def test_missing_name_rejected(self):
        with pytest.raises(SchemeError, match="name"):
            parse_scheme("n: 2\nmatrix:\n1 1/2\n0 1/2\n")

    def test_missing_n_rejected(self):
        with pytest.raises(SchemeError, match="n field"):
            parse_scheme("name: q\n")
        with pytest.raises(SchemeError, match="n must be declared"):
            parse_scheme("name: q\nmatrix:\n1 1/2\n0 1/2\n")

    def test_no_matrices_rejected(self):
        with pytest.raises(SchemeError, match="no matrices"):
            parse_scheme("name: q\nn: 2\n")

    def test_row_width_checked(self):
        with pytest.raises(SchemeError, match="line"):
            parse_scheme("name: q\nn: 2\nmatrix:\n1 1/2 0\n0 1/2\n")

    def test_decimal_entries_rejected(self):
        with pytest.raises(SchemeError):
            parse_scheme("name: q\nn: 2\nmatrix:\n1 0.5\n0 0.5\n")

    @pytest.mark.parametrize(
        "token", ["5e-1", "1_0/2_0", "0.5", "1/0", "1/-2", "\u00bd", "\u0663"]
    )
    def test_only_integer_and_ratio_literals(self, token):
        text = f"name: q\nn: 2\nmatrix:\n1 {token}\n0 1/2\nmatrix:\n0 1/2\n1 1/2\n"
        message = re.escape(f"line 4: not a rational number: {token!r}")
        with pytest.raises(SchemeError, match=message):
            parse_scheme(text)

    @pytest.mark.parametrize("body", ["\u00b2", "\u0663", "+3", "3.0", "1"])
    def test_n_must_be_an_ascii_integer_of_at_least_two(self, body):
        text = f"name: q\nn: {body}\nmatrix:\n1 1/2\n0 1/2\n"
        message = re.escape(f"line 2: n must be an integer >= 2, got {body!r}")
        with pytest.raises(SchemeError, match=message):
            parse_scheme(text)

    def test_longest_literal_accepted(self):
        # the text is built without str() of a long int, so this also runs
        # under Python's lowest int-to-str digit limit
        q = "9" * MAX_DIGITS
        p = q[:-1] + "8"  # q - 1
        rows = (f"1 1/{q}", f"0 {p}/{q}", f"1/{q} 0", f"{p}/{q} 1")
        scheme = parse_scheme("name: q\nn: 2\nmatrix:\n{}\n{}\nmatrix:\n{}\n{}\n".format(*rows))
        assert scheme.matrices[0].rows[0][1] == F(1, 10**MAX_DIGITS - 1)
        # an n: field of MAX_DIGITS digits passes its own check
        with pytest.raises(SchemeError, match="no matrices"):
            parse_scheme(f"name: q\nn: {'9' * MAX_DIGITS}\n")

    def test_long_entries_round_trip_at_the_lowest_digit_limit(self):
        # a 700-digit entry, past 640 digits, Python's lowest int-to-str
        # limit: format_scheme and repr must still write it
        big = 10**699 + 7
        a, b = F(big - 1, big), F(1, big)
        scheme = SubdivisionScheme(
            "long",
            2,
            (
                NormalizedMatrix.from_columns(((1, 0), (a, b))),
                NormalizedMatrix.from_columns(((a, b), (0, 1))),
            ),
        )
        with lowest_digit_limit():
            text = format_scheme(scheme)
            shown = repr(scheme.matrices[0])
        assert f"\n1 {_write_rational(a)}\n0 {_write_rational(b)}\n" in text
        assert shown == f"NormalizedMatrix(1 {_write_rational(a)}; 0 {_write_rational(b)})"
        assert parse_scheme(text).matrices == scheme.matrices

    @pytest.mark.parametrize(
        "entry", ["{}", "-{}", "1/{}", "{}/1", "+{}/{}", "n: {}"]
    )
    def test_literal_past_max_digits_refused_on_its_line(self, entry):
        long = "1" * (MAX_DIGITS + 1)
        if entry.startswith("n:"):
            text, line = f"name: q\n{entry.format(long)}\nmatrix:\n1 1/2\n0 1/2\n", 2
        else:
            token = entry.format(long, long)
            text = f"name: q\nn: 2\nmatrix:\n1 1/2\n0 {token}\nmatrix:\n0 1/2\n1 1/2\n"
            line = 5
        with pytest.raises(SchemeError) as exc:
            parse_scheme(text)
        assert str(exc.value) == f"line {line}: integer literal longer than {MAX_DIGITS} digits"

    def test_signed_literals_accepted(self):
        text = "name: q\nn: 2\nmatrix:\n+1 1/2\n0 +1/2\nmatrix:\n0 1/2\n1 1/2\n"
        scheme = parse_scheme(text)
        assert scheme.matrices[0].rows == ((1, F(1, 2)), (0, F(1, 2)))
        # a negative entry reaches the per-matrix report
        with pytest.raises(SchemeError, match="invalid scheme") as exc:
            parse_scheme("name: q\nn: 2\nmatrix:\n2 -1/2\n-1 3/2\n")
        assert "matrix 1: negative entry" in exc.value.validation.failures()

    def test_validation_on_by_default(self):
        # column sums are wrong, so the parse must refuse and say why
        text = "name: q\nn: 2\nmatrix:\n1 1\n0 1\n"
        with pytest.raises(SchemeError, match="invalid scheme") as exc:
            parse_scheme(text)
        v = exc.value.validation
        assert not v.ok
        assert v.failures()[0] == "matrix 1: some column does not sum to 1"

    def test_load_missing_file(self, tmp_path):
        with pytest.raises(OSError):
            load_scheme(tmp_path / "absent.scheme")

    def test_load_prefixes_parse_errors_with_the_path(self, tmp_path):
        path = tmp_path / "bad.scheme"
        path.write_text("name: q\n")
        with pytest.raises(SchemeError, match="bad.scheme"):
            load_scheme(path)
