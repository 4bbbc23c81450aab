"""Property tests: decide agrees with its public single steps and with the
plain loop that expands every repeated child, is invariant under positive
scaling, and commutes with renaming variables."""

from dataclasses import astuple, replace

from hypothesis import given, settings
from hypothesis import strategies as st

from formsign import (
    Branch,
    Form,
    NormalizedMatrix,
    Outcome,
    RunStats,
    SubdivisionScheme,
    decide,
    expand_level,
    make_midpoint3_scheme,
    make_trisection3_scheme,
    make_wds_scheme,
)
from conftest import all_exponents, plain_decide

SCHEMES = {"wds3": make_wds_scheme(3), "midpoint3": make_midpoint3_scheme()}
TRISECTION3 = make_trisection3_scheme()
MAX_DEPTH = 4
EXAMPLES = settings(derandomize=True, deadline=None, database=None)


@st.composite
def forms(draw):
    degree = draw(st.integers(1, 4))
    coeffs = st.integers(-9, 9).filter(bool)
    terms = draw(
        st.dictionaries(st.sampled_from(all_exponents(3, degree)), coeffs, min_size=1)
    )
    # most random forms have a negative coefficient sum, which settles them
    # at depth 0; negating those keeps more examples on the subdivision levels
    if sum(terms.values()) < 0:
        terms = {e: -c for e, c in terms.items()}
    return Form(3, terms)


schemes = st.sampled_from(sorted(SCHEMES))


def replay(form, scheme):
    """decide rebuilt from expand_level, one public step per level:
    (outcome, depth, witness path, stats)."""
    if form.is_trivially_negative():
        return Outcome.INDEFINITE, 0, (), RunStats(0, 0, 1)
    if form.is_trivially_positive():
        return Outcome.PSD, 0, None, RunStats(0, 0, 1)
    frontier = [Branch(form, ())]
    expanded = pruned_total = 0
    peak = 1
    for level in range(1, MAX_DEPTH + 1):
        children, pruned, negative = expand_level(frontier, scheme)
        expanded += len(children) + pruned + (negative is not None)
        pruned_total += pruned
        if negative is not None:
            stats = RunStats(expanded, pruned_total, peak)
            return Outcome.INDEFINITE, level, negative.path, stats
        peak = max(peak, len(children))
        if not children:
            return Outcome.PSD, level, None, RunStats(expanded, pruned_total, peak)
        frontier = children
    return Outcome.INCONCLUSIVE, MAX_DEPTH, None, RunStats(expanded, pruned_total, peak)


@EXAMPLES
@given(forms(), schemes)
def test_decide_matches_expand_level_replay(form, name):
    verdict = decide(form, SCHEMES[name], max_depth=MAX_DEPTH)
    got = (verdict.outcome, verdict.depth_reached, verdict.witness_path, verdict.stats)
    assert got == replay(form, SCHEMES[name])


@EXAMPLES
@given(forms(), schemes)
def test_dedup_keeps_outcome_depth_and_witness(form, name):
    # a repeated child is expanded once: outcome, depth, witness path, point
    # and value are the plain loop's, and only the counts can be smaller
    plain = plain_decide(form, SCHEMES[name], MAX_DEPTH)
    deduped = decide(form, SCHEMES[name], max_depth=MAX_DEPTH)
    assert replace(deduped, stats=plain.stats) == plain
    assert all(map(int.__le__, astuple(deduped.stats), astuple(plain.stats)))


@EXAMPLES
@given(forms(), schemes, st.integers(2, 1000))
def test_positive_scaling_keeps_verdict(form, name, k):
    plain = decide(form, SCHEMES[name], max_depth=MAX_DEPTH)
    scaled_form = Form(3, {e: k * c for e, c in form.terms.items()})
    scaled = decide(scaled_form, SCHEMES[name], max_depth=MAX_DEPTH)
    assert replace(scaled, witness_value=None) == replace(plain, witness_value=None)
    if plain.witness_value is not None:
        assert scaled.witness_value == k * plain.witness_value


def move(v, pi):
    """v with entry i moved to position pi[i]."""
    out = [None] * len(v)
    for i, x in enumerate(v):
        out[pi[i]] = x
    return tuple(out)


@EXAMPLES
@given(forms(), st.sampled_from([*SCHEMES, "trisection3"]), st.permutations(range(3)))
def test_renaming_variables_with_the_scheme_moves_only_the_witness(form, name, pi):
    # variable i of the form becomes variable pi[i], and every cell is
    # conjugated alike: M'[pi[i]][pi[j]] = M[i][j]
    scheme = SCHEMES.get(name, TRISECTION3)
    cells = (
        NormalizedMatrix(move([move(r, pi) for r in m.rows], pi)) for m in scheme.matrices
    )
    renamed_scheme = SubdivisionScheme(name, 3, cells)
    renamed = Form(3, {move(e, pi): c for e, c in form.terms.items()})
    plain = decide(form, scheme, max_depth=MAX_DEPTH)
    moved = decide(renamed, renamed_scheme, max_depth=MAX_DEPTH)
    assert replace(moved, witness_point=None) == replace(plain, witness_point=None)
    if plain.witness_point is not None:
        assert moved.witness_point == move(plain.witness_point, pi)
