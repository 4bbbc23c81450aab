"""Property tests: the form grammar and the scheme-file grammar refuse every
bad input with their own error types, including literals longer than
MAX_DIGITS, which the command line turns into exit 3."""

from hypothesis import given, settings
from hypothesis import strategies as st

from formsign import (
    MAX_DIGITS,
    FormSyntaxError,
    InhomogeneousError,
    SchemeError,
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
