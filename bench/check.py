"""Verdict checks made apart from formsign.

Forms are evaluated from their input text with plain `Fraction`
arithmetic over Python's own expression parser, and the CLI's echo of the
parsed form is compared with sympy's expansion of the input.  Neither path
touches formsign's parser, `Form` or oracle, so a fault there cannot hide
itself.
"""

from __future__ import annotations

import ast
import json
from fractions import Fraction

EXIT_CODES = {"PSD": 0, "indefinite": 1, "inconclusive": 2}


def evaluate(text: str, names: str, point) -> Fraction:
    """Exact value of a form-grammar expression at a point.

    `names` is the comma-separated variable order and `point` a sequence of
    rationals (or 'p/q' strings) in that order.
    """
    env = dict(zip(names.split(","), (Fraction(v) for v in point)))
    tree = ast.parse(text.replace("^", "**"), mode="eval")
    return _eval(tree.body, env)


def _eval(node, env) -> Fraction:
    if isinstance(node, ast.BinOp):
        left = _eval(node.left, env)
        if isinstance(node.op, ast.Pow):
            if not (isinstance(node.right, ast.Constant) and type(node.right.value) is int):
                raise ValueError("exponents must be integer literals")
            return left ** node.right.value
        right = _eval(node.right, env)
        if isinstance(node.op, ast.Add):
            return left + right
        if isinstance(node.op, ast.Sub):
            return left - right
        if isinstance(node.op, ast.Mult):
            return left * right
        if isinstance(node.op, ast.Div):
            return left / right
    elif isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub):
        return -_eval(node.operand, env)
    elif isinstance(node, ast.Constant) and type(node.value) is int:
        return Fraction(node.value)
    elif isinstance(node, ast.Name):
        return env[node.id]
    raise ValueError(f"unsupported syntax: {ast.dump(node)}")


def check_verdict(query: dict, verdict: dict) -> list[str]:
    """Problems with one verdict, empty when it is right.

    `verdict` holds 'verdict', 'depth', 'stats' and, for an indefinite
    answer, the witness 'path', 'point' and 'value' as 'p/q' strings.
    """
    outcome = verdict.get("verdict")
    if outcome != query["expect"]:
        return [f"verdict {outcome!r}, planted answer {query['expect']!r}"]
    if outcome != "indefinite":
        return []
    point = verdict.get("point")
    if not point or verdict.get("value") is None:
        return ["indefinite verdict without a witness"]
    coords = [Fraction(v) for v in point]
    problems = []
    if len(coords) != len(query["vars"].split(",")):
        return [f"witness has {len(coords)} coordinates"]
    if any(c < 0 for c in coords) or sum(coords) != 1:
        problems.append("witness point is not on the simplex")
    value = evaluate(query["text"], query["vars"], coords)
    if value >= 0:
        problems.append(f"form is {value} at the witness, not negative")
    if value != Fraction(verdict["value"]):
        problems.append(f"reported value {verdict['value']}, exact value {value}")
    return problems


def check_planted_point(query: dict) -> list[str]:
    """A planted-negative query's own point must give a negative value."""
    if query.get("planted_point") is None:
        return []
    value = evaluate(query["text"], query["vars"], query["planted_point"])
    return [] if value < 0 else [f"planted point gives {value}, not negative"]


def cli_verdict(report: dict) -> dict:
    """The CLI's JSON report in the compact verdict form check_verdict reads."""
    witness = report.get("witness") or {}
    stats = report.get("stats", {})
    return {
        "verdict": report.get("verdict"),
        "depth": report.get("depth_reached"),
        "stats": [
            stats.get("branches_expanded"),
            stats.get("branches_pruned_positive"),
            stats.get("peak_frontier_size"),
        ],
        "path": witness.get("path"),
        "point": witness.get("point"),
        "value": witness.get("value"),
    }


def check_cli(query: dict, code: int, stdout: str, same_polynomial) -> tuple[list[str], dict | None]:
    """Problems with one CLI run's exit code and echo, and its verdict
    (None when the output did not parse); check_verdict checks the verdict.

    `same_polynomial(a, b)` decides whether two expression texts expand to
    the same polynomial; the CLI echoes the form it parsed, which must be
    the input.
    """
    try:
        report = json.loads(stdout)
    except ValueError:
        return [f"exit {code} without a JSON report"], None
    verdict = cli_verdict(report)
    problems = []
    expected_code = EXIT_CODES.get(verdict["verdict"])
    if code != expected_code:
        problems.append(f"exit {code} with verdict {verdict['verdict']!r}")
    if not same_polynomial(query["text"], report.get("form", "")):
        problems.append("the echoed form differs from the input")
    return problems, verdict


class SympyExpansion:
    """Polynomial equality by sympy expansion, cached per pair of texts."""

    def __init__(self):
        import sympy

        self._sympy = sympy
        self._cache: dict = {}

    def __call__(self, a: str, b: str) -> bool:
        key = (a, b)
        if key not in self._cache:
            sp = self._sympy
            diff = sp.sympify(a.replace("^", "**")) - sp.sympify(b.replace("^", "**"))
            self._cache[key] = sp.expand(diff) == 0
        return self._cache[key]
