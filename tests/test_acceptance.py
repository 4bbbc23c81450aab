"""Acceptance suite: seven criteria, one test function each.

Each criterion is a black-box statement about the installed package; run
with `pytest -v` to get one pass/fail line per criterion.  Criterion 3
exercises the large degree-24 form and is marked slow, but still runs by
default.
"""

import random
from fractions import Fraction
from math import factorial

import mpmath
import pytest

from formsign import (
    GridSpec,
    NormalizedMatrix,
    Outcome,
    check_convergence,
    closed_form_central_power,
    decide,
    format_form,
    grid_classify,
    make_central3_scheme,
    make_midpoint3_scheme,
    make_trisection3_scheme,
    make_wds_scheme,
    matrix_power,
    parse_form,
    validate_scheme,
    witness_point,
)
from formsign import engine
from conftest import VARS3, elevated, random_form, random_simplex_point

F = Fraction


def test_criterion_1_psd_decision_depths(
    sym_diff_form, wds3, midpoint3, trisection3
):
    # a PSD form with negative coefficients must be certified at exactly
    # these depths, scheme by scheme
    expected = {"wds3": 3, "midpoint3": 3, "trisection3": 2}
    for scheme in (wds3, midpoint3, trisection3):
        verdict = decide(scheme=scheme, form=sym_diff_form)
        assert verdict.outcome is Outcome.PSD, scheme.name
        assert verdict.depth_reached == expected[scheme.name], scheme.name


def test_criterion_2_indefinite_form_witnesses(
    mixed_sign_form, wds3, midpoint3, trisection3
):
    # the engine must disprove nonnegativity within the depth budget, and
    # the known counterexample points must evaluate to exact negatives
    bounds = {"wds3": 3, "midpoint3": 3, "trisection3": 2}
    for scheme in (wds3, midpoint3, trisection3):
        verdict = decide(mixed_sign_form, scheme)
        assert verdict.outcome is Outcome.INDEFINITE, scheme.name
        assert verdict.depth_reached <= bounds[scheme.name], scheme.name
        assert verdict.witness_value < 0
        assert mixed_sign_form.evaluate(verdict.witness_point) == verdict.witness_value

    known_negative_points = {
        (F(37, 81), F(91, 324), F(85, 324)): F(-1331774489191, 1156831381426176),
        (F(11, 24), F(1, 3), F(5, 24)): F(-277879, 191102976),
        (F(13, 27), F(7, 27), F(7, 27)): F(-346087, 387420489),
    }
    for point, value in known_negative_points.items():
        assert sum(point) == 1
        got = mixed_sign_form.evaluate(point)
        assert got == value
        assert got < 0


@pytest.mark.slow
def test_criterion_3_radical_inequality_counterexample(
    big_radical_form, wds3, midpoint3, trisection3
):
    # The degree-24 form encodes 192*N^6 - 729*(x^6+y^6+z^6)*D^6, the
    # polynomialized difference of a sixth-root expression.  Before using
    # it, confirm it agrees in sign with the radical original at 50 random
    # rational interior points.
    numerator = parse_form(
        "x^2*(z+x)*(x+y) + y^2*(x+y)*(y+z) + z^2*(y+z)*(z+x)", VARS3
    )
    denominator = parse_form("(y+z)*(z+x)*(x+y)", VARS3)

    mpmath.mp.dps = 60

    def to_mpf(value):
        return mpmath.mpf(value.numerator) / value.denominator

    sixth = mpmath.mpf(1) / 6
    rng = random.Random(20260819)
    for _ in range(50):
        weights = [rng.randint(1, 40) for _ in range(3)]
        total = sum(weights)
        p = tuple(F(w, total) for w in weights)
        power_sum = sum(v**6 for v in p)
        radical = mpmath.mpf(192) ** sixth * to_mpf(numerator.evaluate(p)) - 3 * to_mpf(
            power_sum
        ) ** sixth * to_mpf(denominator.evaluate(p))
        exact = big_radical_form.evaluate(p)
        assert exact != 0
        assert (exact < 0) == (radical < 0), p

    # the known counterexample points must be exact negatives
    for point in (
        (F(2159, 5832), F(3685, 11664), F(3661, 11664)),
        (F(7, 24), F(37, 96), F(31, 96)),
        (F(31, 81), F(25, 81), F(25, 81)),
    ):
        assert sum(point) == 1
        assert big_radical_form.evaluate(point) < 0

    # the engine must find counterexamples within the depth budget; the
    # frozen paths and points pin the deterministic traversal
    expectations = {
        "wds3": (5, (1, 5, 1, 1), (F(391, 972), F(587, 1944), F(575, 1944))),
        "midpoint3": (5, (4, 4, 1), (F(7, 24), F(5, 12), F(7, 24))),
        "trisection3": (3, (2, 5), (F(11, 27), F(8, 27), F(8, 27))),
    }
    for scheme in (wds3, midpoint3, trisection3):
        bound, path, point = expectations[scheme.name]
        verdict = decide(big_radical_form, scheme, max_depth=bound)
        assert verdict.outcome is Outcome.INDEFINITE, scheme.name
        assert verdict.depth_reached <= bound, scheme.name
        assert verdict.witness_path == path, scheme.name
        assert verdict.witness_point == point, scheme.name
        assert verdict.witness_value < 0
        assert (
            big_radical_form.evaluate(verdict.witness_point)
            == verdict.witness_value
        )


def test_criterion_4_non_terminating_positive_definite_form(central3):
    # this strictly positive form never terminates under the central-fan
    # scheme: the frontier survives every depth, and the stuck branch has
    # a closed-form matrix power whose substitution keeps one coefficient
    # pinned at -2.  Every power of the cell fixes e1 and e2, so on the edge
    # x3 = 0 the branch is a positive multiple of the form itself, and there
    # S^K times it keeps a negative coefficient at every depth: degree
    # elevation never prunes it
    f = parse_form("(x1 - x2 + x3)^2 + 1/10*x2^2", ("x1", "x2", "x3"))
    verdict = decide(f, central3, max_depth=10)
    assert verdict.outcome is Outcome.INCONCLUSIVE
    assert verdict.depth_reached == 10

    def on_edge(terms):
        return {e: c for e, c in terms.items() if e[2] == 0}

    edge = on_edge(elevated(f, engine._POLYA_K))
    assert min(edge.values()) < 0
    a = central3.matrices[0]
    for m in range(1, 13):
        power = matrix_power(a, m)
        assert power == closed_form_central_power(m)
        image = f.substitute(power)
        assert image.coefficient((1, 1, 0)) == -2
        assert on_edge(elevated(image, engine._POLYA_K)) == edge


def test_criterion_5_convergence_classification(
    midpoint3, trisection3, central3
):
    for n in (2, 3, 4, 5):
        assert check_convergence(make_wds_scheme(n)).convergent, n

    midpoint_report = check_convergence(midpoint3)
    assert midpoint_report.convergent
    assert midpoint_report.contraction_ratio_sq == F(1, 4)

    assert check_convergence(trisection3).convergent

    central_report = check_convergence(central3)
    assert not central_report.convergent
    assert central_report.shared_edges
    basis = {
        tuple(F(1) if i == j else F(0) for i in range(3)) for j in range(3)
    }
    for matrix_index, (col_a, col_b) in central_report.shared_edges:
        cols = central3.matrices[matrix_index - 1].columns
        assert cols[col_a - 1] in basis
        assert cols[col_b - 1] in basis
        assert cols[col_a - 1] != cols[col_b - 1]


def test_criterion_6_builtin_scheme_validity(
    wds3, midpoint3, trisection3, central3
):
    schemes = [make_wds_scheme(n) for n in (2, 3, 4, 5)]
    schemes += [midpoint3, trisection3, central3]
    for scheme in schemes:
        validation = validate_scheme(scheme)
        assert validation.ok, scheme.name
        assert validation.det_sum == 1, scheme.name
        for m in scheme.matrices:
            for col in m.columns:
                assert sum(col) == 1
                assert all(v >= 0 for v in col)
            assert m.det() != 0
        assert sum(abs(m.det()) for m in scheme.matrices) == 1
    assert len(make_wds_scheme(5)) == factorial(5)

    # the six barycentric cell matrices for n = 3, written out longhand
    half, third = F(1, 2), F(1, 3)
    expected = {
        NormalizedMatrix(rows)
        for rows in (
            ((1, half, third), (0, half, third), (0, 0, third)),
            ((1, half, third), (0, 0, third), (0, half, third)),
            ((0, half, third), (1, half, third), (0, 0, third)),
            ((0, 0, third), (1, half, third), (0, half, third)),
            ((0, half, third), (0, 0, third), (1, half, third)),
            ((0, 0, third), (0, half, third), (1, half, third)),
        )
    }
    assert set(wds3.matrices) == expected


def test_criterion_7_property_and_corpus_agreement(wds3):
    # substitution composes like matrix products
    rng = random.Random(31907)
    for _ in range(40):
        f = random_form(rng, 3, rng.randint(1, 4))
        u = rng.choice(wds3.matrices)
        v = rng.choice(wds3.matrices)
        assert f.substitute(u).substitute(v) == f.substitute(u @ v)
        p = random_simplex_point(rng, 3)
        assert f.substitute(u).evaluate(p) == f.evaluate(u.apply(p))

    # parse/format round trip
    rng = random.Random(41519)
    for _ in range(40):
        f = random_form(rng, 3, rng.randint(1, 4), coeff_bound=7)
        assert parse_form(format_form(f, VARS3), VARS3) == f

    # witness points stay on the simplex
    for path in ((), (1,), (3, 2), (6, 1, 4, 2)):
        point = witness_point(path, wds3)
        assert sum(point) == 1
        assert all(v >= 0 for v in point)

    # grid oracle vs engine on a 200-form corpus: no contradictions
    rng = random.Random(977)
    grid = GridSpec(3, 16)
    corpus_verdicts = {"PSD": 0, "indefinite": 0, "inconclusive": 0}
    for _ in range(200):
        f = random_form(rng, 3, rng.randint(1, 4), coeff_bound=5)
        sampled = grid_classify(f, grid)
        verdict = decide(f, wds3, max_depth=12)
        corpus_verdicts[verdict.outcome.value] += 1
        if sampled.negative_found:
            # an exact negative value exists, so PSD would be a lie and
            # the engine is expected to find some counterexample
            assert verdict.outcome is Outcome.INDEFINITE, format_form(f, VARS3)
        if verdict.outcome is Outcome.INDEFINITE:
            assert verdict.witness_value < 0
            assert f.evaluate(verdict.witness_point) == verdict.witness_value
            assert sum(verdict.witness_point) == 1
            assert all(v >= 0 for v in verdict.witness_point)
        if verdict.outcome is Outcome.PSD:
            assert not sampled.negative_found, format_form(f, VARS3)
            assert sampled.min_value >= 0
    assert sum(corpus_verdicts.values()) == 200
