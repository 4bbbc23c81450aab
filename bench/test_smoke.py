"""Fast smoke test of the benchmark itself (about 15 s):

    python -m pytest -q bench/test_smoke.py

It runs the corpus workload at a tiny size, checks that the result line has
the schema BENCHMARK.json promises, and shows that the checker rejects a
corrupted witness, a flipped verdict and a CLI exit code that contradicts
its JSON verdict.
"""

import json
import os
import random
import subprocess
import sys
from fractions import Fraction

import pytest

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)

import check  # noqa: E402
import inputs  # noqa: E402


def _spec():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
def test_tiny_run_prints_the_promised_schema(trace, section):
    proc = subprocess.run(
        [sys.executable, os.path.join(BENCH, "run.py"), "--workload", "corpus",
         "--seed", "3", "--seconds", "0.2", "--trace", str(trace), "--size", "tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    line = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is True and line["failed"] == 0 and line["attempted"] >= 1
    promised = {m["name"]: m["unit"] for m in _spec()[section]}
    assert {k: v["unit"] for k, v in line["metrics"].items()} == promised
    assert all(isinstance(v["value"], (int, float)) for v in line["metrics"].values())


def _negative_query():
    rng = random.Random(5)
    return inputs.planted_form(rng, "wds", 3, 4, positive=False)


def _true_verdict(query):
    point = query["planted_point"]
    value = check.evaluate(query["text"], query["vars"], point)
    return {"verdict": "indefinite", "depth": 1, "stats": [1, 0, 1],
            "path": [1], "point": point, "value": str(value)}


def test_checker_accepts_a_true_witness():
    query = _negative_query()
    assert check.check_planted_point(query) == []
    assert check.check_verdict(query, _true_verdict(query)) == []


def test_checker_rejects_a_corrupted_witness():
    query = _negative_query()
    verdict = _true_verdict(query)

    wrong_value = dict(verdict, value=str(Fraction(verdict["value"]) * 2))
    assert check.check_verdict(query, wrong_value)

    moved = [str(Fraction(1, 3))] * 3  # another simplex point, same reported value
    assert check.check_verdict(query, dict(verdict, point=moved))

    off_simplex = [str(2 * Fraction(v)) for v in verdict["point"]]
    assert check.check_verdict(query, dict(verdict, point=off_simplex))

    assert check.check_verdict(query, dict(verdict, point=None))


def test_checker_rejects_a_flipped_verdict():
    negative = _negative_query()
    assert check.check_verdict(negative, {"verdict": "PSD"})
    positive = inputs.planted_form(random.Random(6), "midpoint3", 3, 4, positive=True)
    assert check.check_verdict(positive, {"verdict": "indefinite", "point": ["1", "0", "0"],
                                          "value": "-1"})
    assert check.check_verdict(positive, {"verdict": "inconclusive"})


def test_checker_rejects_an_exit_code_that_contradicts_the_json():
    query = _negative_query()
    report = {"form": query["text"], "verdict": "indefinite", "depth_reached": 1,
              "stats": {}, "witness": {"path": [1], "point": query["planted_point"],
                                       "value": _true_verdict(query)["value"]}}
    same = check.SympyExpansion()
    problems, verdict = check.check_cli(query, 1, json.dumps(report), same)
    assert problems == [] and check.check_verdict(query, verdict) == []
    assert check.check_cli(query, 0, json.dumps(report), same)[0]
    assert check.check_cli(query, 1, "Traceback (most recent call last):", same)[0]
    echoed_wrong = dict(report, form=query["text"] + " + x^4")
    assert check.check_cli(query, 1, json.dumps(echoed_wrong), same)[0]


def test_evaluator_agrees_with_sympy():
    import sympy

    rng = random.Random(7)
    for positive in (True, False):
        query = inputs.planted_form(rng, "trisection3", 3, 5, positive)
        expr = sympy.sympify(query["text"].replace("^", "**"))
        point = (Fraction(1, 7), Fraction(2, 7), Fraction(4, 7))
        subs = dict(zip(sympy.symbols(query["vars"]),
                        (sympy.Rational(p.numerator, p.denominator) for p in point)))
        assert check.evaluate(query["text"], query["vars"], point) == Fraction(str(expr.subs(subs)))
