"""Property tests: the form grammar and the scheme-file grammar refuse every
bad input with their own error types, including literals longer than
MAX_DIGITS, which the command line turns into exit 3; as_fraction reads
exactly the entries scheme files accept."""

import re
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from formsign import (
    MAX_DIGITS,
    FormSyntaxError,
    InhomogeneousError,
    SchemeError,
    as_fraction,
    parse_form,
    parse_scheme,
)

EXAMPLES = settings(derandomize=True, deadline=None, database=None, max_examples=300)
LONG = "7" * (MAX_DIGITS + 1)

form_texts = st.lists(
    st.sampled_from(
        ["x", "y", "w", "+", "-", "*", "^", "/", "(", ")", " ", "0", "1", "2", "3",
         "2x", ".", "$", LONG]
    ),
    max_size=16,
).map("".join)

entries = st.sampled_from(
    ["0", "1", "-1", "+1", "1/2", "-1/2", "1/0", "0.5", "1/-2", "x", "\u00bd",
     LONG, f"1/{LONG}", f"{LONG}/3", f"-{LONG}"]
)
scheme_lines = st.one_of(
    st.sampled_from(
        ["name: s", "name:", "n: 2", "n: 1", "n: x", "n: \u00b2", f"n: {LONG}",
         "matrix:", "# note", ""]
    ),
    st.lists(entries, min_size=1, max_size=3).map(" ".join),
)
# entries, plus near misses: signs, separators, decimal points and exponents
numbers = st.one_of(
    entries,
    st.builds(
        lambda sign, num, den: sign + num + ("" if den is None else "/" + den),
        st.sampled_from(["", "+", "-", " ", "--"]),
        st.text("0123456789_.e ", max_size=6),
        st.none() | st.text("0123456789_-", max_size=4),
    ),
)
# the entries scheme files have accepted since they bounded their literals
ENTRY = re.compile(r"[+-]?([0-9]+)(?:/([0-9]+))?")

# half the texts open with a header that lets the next lines be matrix rows
scheme_texts = st.builds(
    lambda head, lines: "\n".join([head, *lines]),
    st.sampled_from(["", "name: s\nn: 2\nmatrix:"]),
    st.lists(scheme_lines, max_size=12),
)


@EXAMPLES
@given(form_texts)
def test_form_grammar_raises_only_its_own_errors(text):
    try:
        parse_form(text, "x,y")
    except (FormSyntaxError, InhomogeneousError):
        pass


@EXAMPLES
@given(scheme_texts)
def test_scheme_grammar_raises_only_scheme_errors(text):
    try:
        parse_scheme(text)
    except SchemeError:
        pass


def scheme_entry(text: str) -> bool:
    match = ENTRY.fullmatch(text)
    return (
        match is not None
        and all(len(d) <= MAX_DIGITS for d in match.groups(""))
        and (match[2] is None or int(match[2]) != 0)
    )


@EXAMPLES
@given(numbers)
def test_as_fraction_reads_exactly_the_scheme_entries(text):
    if scheme_entry(text):
        assert as_fraction(text) == Fraction(text)
    else:
        with pytest.raises(ValueError):
            as_fraction(text)
