"""Randomized property tests over seeded corpora."""

import random
from fractions import Fraction

import pytest

from formsign import (
    Branch,
    Form,
    Outcome,
    decide,
    diameter_sq,
    expand_level,
    format_form,
    make_midpoint3_scheme,
    make_trisection3_scheme,
    make_wds_scheme,
    parse_form,
    validate_scheme,
    witness_point,
)
from conftest import KERNEL_SCHEMES, random_form, random_simplex_point

F = Fraction
NAMES = ("u1", "u2", "u3", "u4")


def test_substitution_composition_coherence():
    rng = random.Random(52901)
    for _ in range(50):
        n = rng.choice([2, 3])
        scheme = make_wds_scheme(n)
        f = random_form(rng, n, rng.randint(1, 4))
        u = rng.choice(scheme.matrices)
        v = rng.choice(scheme.matrices)
        assert f.substitute(u).substitute(v) == f.substitute(u @ v)


def test_substitution_commutes_with_evaluation():
    rng = random.Random(62193)
    for _ in range(50):
        n = rng.choice([2, 3])
        scheme = make_wds_scheme(n)
        f = random_form(rng, n, rng.randint(1, 4))
        m = rng.choice(scheme.matrices)
        p = random_simplex_point(rng, n)
        assert f.substitute(m).evaluate(p) == f.evaluate(m.apply(p))


def test_substitution_preserves_degree_and_identity():
    rng = random.Random(73514)
    eye3 = make_wds_scheme(3).matrices[0] @ make_wds_scheme(3).matrices[0]
    for _ in range(30):
        f = random_form(rng, 3, rng.randint(1, 5))
        assert f.substitute([[1, 0, 0], [0, 1, 0], [0, 0, 1]]) == f
        assert f.substitute(eye3).degree == f.degree


def test_normalize_content_properties():
    rng = random.Random(84173)
    for _ in range(40):
        f = random_form(rng, 3, rng.randint(1, 4))
        scale = F(rng.randint(1, 9), rng.randint(1, 9))
        g = Form(3, {e: c * scale for e, c in f.terms.items()})
        h = g.normalize_content()
        assert h.normalize_content() == h
        assert h == f.normalize_content()
        assert h.is_trivially_positive() == f.is_trivially_positive()
        assert h.is_trivially_negative() == f.is_trivially_negative()
        for e in f.terms:
            assert h.terms[e].denominator == 1
        p = random_simplex_point(rng, 3)
        assert (h.evaluate(p) > 0) == (f.evaluate(p) > 0)
        assert (h.evaluate(p) < 0) == (f.evaluate(p) < 0)


def test_trivial_classifiers_are_sound():
    rng = random.Random(91387)
    checked_pos = checked_neg = 0
    for _ in range(200):
        f = random_form(rng, 3, rng.randint(1, 4))
        if f.is_trivially_positive():
            checked_pos += 1
            for _ in range(5):
                w = [F(rng.randint(0, 12), 4) for _ in range(3)]
                assert f.evaluate(w) >= 0
        if f.is_trivially_negative():
            checked_neg += 1
            assert f.evaluate((F(1, 3), F(1, 3), F(1, 3))) < 0
    assert checked_pos > 5
    assert checked_neg > 5


def test_parse_format_round_trip():
    rng = random.Random(10289)
    for _ in range(60):
        n = rng.choice([2, 3, 4])
        f = random_form(rng, n, rng.randint(1, 5), coeff_bound=9)
        names = NAMES[:n]
        text = format_form(f, names)
        assert parse_form(text, names) == f


def test_round_trip_with_rational_coefficients():
    rng = random.Random(11731)
    from conftest import all_exponents

    for _ in range(30):
        monos = all_exponents(3, rng.randint(1, 4))
        terms = {}
        for e in monos:
            if rng.random() < 0.5:
                num = rng.randint(-20, 20)
                if num:
                    terms[e] = F(num, rng.randint(1, 20))
        if not terms:
            continue
        f = Form(3, terms)
        text = format_form(f, NAMES[:3])
        assert parse_form(text, NAMES[:3]) == f


# The integer kernel against the reference Form.substitute.
@pytest.mark.parametrize("name", KERNEL_SCHEMES)
def test_expand_level_matches_public_substitution(name):
    rng = random.Random(12893)
    scheme = KERNEL_SCHEMES[name]()
    n = scheme.n
    # 25 draws with coefficients up to 5, then 5 of up to 300 bits, which
    # need slots of 512 bits or more
    for bound in [5] * 25 + [2**300] * 5:
        f = random_form(rng, n, rng.randint(1, 4), bound).normalize_content()
        if f.is_trivially_negative():
            continue
        result = expand_level([Branch(f, ())], scheme)
        for child in result.children:
            m = scheme.matrices[child.path[-1] - 1]
            assert child.form == f.substitute(m).normalize_content()
        if result.negative is not None:
            m = scheme.matrices[result.negative.path[-1] - 1]
            assert result.negative.form == f.substitute(m).normalize_content()
            assert result.negative.form.is_trivially_negative()
        else:
            # a child equal to an earlier kept one is a repeat, dropped
            live = [f.substitute(m).normalize_content() for m in scheme.matrices]
            live = [g for g in live if not g.is_trivially_positive()]
            repeats = len(live) - len(set(live))
            assert len(result.children) + result.pruned + repeats == len(scheme)


def test_witness_points_stay_on_the_simplex():
    rng = random.Random(13997)
    scheme = make_wds_scheme(3)
    found = 0
    for _ in range(60):
        f = random_form(rng, 3, rng.randint(2, 4))
        verdict = decide(f, scheme, max_depth=8)
        if verdict.outcome is not Outcome.INDEFINITE:
            continue
        found += 1
        point = verdict.witness_point
        assert sum(point) == 1
        assert all(v >= 0 for v in point)
        assert f.evaluate(point) == verdict.witness_value
        assert verdict.witness_value < 0
        assert witness_point(verdict.witness_path, scheme) == point
    assert found > 20


def test_random_paths_stay_on_the_simplex():
    rng = random.Random(15091)
    for scheme in (make_wds_scheme(3), make_midpoint3_scheme(), make_trisection3_scheme()):
        for _ in range(20):
            path = tuple(
                rng.randint(1, len(scheme)) for _ in range(rng.randint(0, 6))
            )
            point = witness_point(path, scheme)
            assert sum(point) == 1
            assert all(v > 0 for v in point)


def test_cell_products_remain_valid_substitutions():
    rng = random.Random(16217)
    scheme = make_wds_scheme(3)
    for _ in range(30):
        m = rng.choice(scheme.matrices)
        for _ in range(rng.randint(1, 4)):
            m = m @ rng.choice(scheme.matrices)
        for col in m.columns:
            assert sum(col) == 1
            assert all(v >= 0 for v in col)
        assert m.det() != 0


def test_self_similar_contraction_bounds():
    # midpoint and trisection cells shrink by their scheme ratio under
    # composition with any cell; barycentric cells only obey the weaker
    # classical bound (n-1)/(n+1) rather than their own first-step ratio
    for scheme, ratio in ((make_midpoint3_scheme(), F(1, 4)),
                          (make_trisection3_scheme(), F(1, 9))):
        for m in scheme.matrices:
            for k in scheme.matrices:
                assert diameter_sq(m @ k) <= ratio * diameter_sq(m)

    wds3 = make_wds_scheme(3)
    w = wds3.matrices[0]
    assert diameter_sq(w @ w) == F(13, 54)
    assert diameter_sq(w @ w) > F(1, 3) * diameter_sq(w)
    for m in wds3.matrices:
        for k in wds3.matrices:
            assert diameter_sq(m @ k) <= F(4, 9) * diameter_sq(m)


def test_decide_is_deterministic_on_random_forms():
    rng = random.Random(17231)
    scheme = make_wds_scheme(3)
    for _ in range(20):
        f = random_form(rng, 3, rng.randint(1, 3))
        a = decide(f, scheme, max_depth=6)
        b = decide(f, scheme, max_depth=6)
        assert a == b


def test_builtin_schemes_always_validate():
    for scheme in (
        make_wds_scheme(2),
        make_wds_scheme(3),
        make_wds_scheme(4),
        make_midpoint3_scheme(),
        make_trisection3_scheme(),
    ):
        assert validate_scheme(scheme).ok
