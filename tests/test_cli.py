"""End-to-end tests for the command line interface."""

import json
import os
import subprocess
import sys
import time
from fractions import Fraction
from math import comb

import pytest

import formsign
from formsign import cli, subdivision
from formsign.cli import main
from formsign.forms import _write_rational
from conftest import MIXED_SIGN_TEXT, SYM_DIFF_TEXT

F = Fraction


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_process(*argv, **env):
    """Run `python -m formsign.cli ARGV` with extra environment variables."""
    src = os.path.dirname(os.path.dirname(formsign.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-m", "formsign.cli", *argv],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": path, **env},
    )


class TestDecideCommand:
    def test_psd_exit_zero(self, capsys):
        code, out, err = run(
            capsys,
            "decide", "--vars", "x,y,z", "--form", SYM_DIFF_TEXT,
            "--scheme", "wds",
        )
        assert code == 0
        assert "verdict: PSD" in out
        assert "depth reached: 3" in out
        assert "scheme: wds3 (6 cells)" in out

    def test_indefinite_exit_one_with_witness(self, capsys):
        code, out, err = run(
            capsys,
            "decide", "--vars", "x,y,z", "--form", MIXED_SIGN_TEXT,
            "--scheme", "trisection3",
        )
        assert code == 1
        assert "verdict: indefinite" in out
        assert "witness point: (1/3, 1/3, 1/3)" in out
        assert "witness value: -1/729" in out

    def test_inconclusive_exit_two(self, capsys):
        code, out, err = run(
            capsys,
            "decide", "--vars", "x1,x2,x3",
            "--form", "(x1 - x2 + x3)^2 + 1/10*x2^2",
            "--scheme", "central3", "--max-depth", "4",
        )
        assert code == 2
        assert "verdict: inconclusive" in out
        assert "undecided" in out

    def test_json_output(self, capsys):
        code, out, err = run(
            capsys,
            "decide", "--vars", "x,y,z", "--form", MIXED_SIGN_TEXT,
            "--scheme", "wds", "--output", "json",
        )
        assert code == 1
        report = json.loads(out)
        # repeated branches are always expanded once, so no "dedup" field
        assert list(report) == [
            "form", "variables", "scheme", "max_depth",
            "verdict", "depth_reached", "stats", "witness",
        ]
        assert report["verdict"] == "indefinite"
        assert report["scheme"] == "wds3"
        assert report["witness"]["path"] == []
        point = tuple(F(v) for v in report["witness"]["point"])
        assert sum(point) == 1
        assert F(report["witness"]["value"]) < 0

    def test_dedup_is_not_a_decide_option(self, capsys):
        # repeated branches are always expanded once
        with pytest.raises(SystemExit) as exc:
            main(["decide", "--vars", "x,y", "--form", "x - y", "--scheme", "wds", "--dedup"])
        assert exc.value.code == 3
        assert "unrecognized arguments: --dedup" in capsys.readouterr().err

    def test_trace_goes_to_stderr(self, capsys):
        code, out, err = run(
            capsys,
            "decide", "--vars", "x,y,z", "--form", SYM_DIFF_TEXT,
            "--scheme", "wds", "--trace",
        )
        assert code == 0
        assert "level 1: 1 branches expanded, 5 pruned nonnegative, 1 kept" in err
        assert "level 3: 1 branches expanded, 6 pruned nonnegative, 0 kept" in err
        assert "level" not in out

    def test_wds_dimension_follows_variable_count(self, capsys):
        code, out, err = run(
            capsys,
            "decide", "--vars", "x,y", "--form", "x^2 - 3*x*y + y^2",
            "--scheme", "wds",
        )
        assert code == 1
        assert "scheme: wds2 (2 cells)" in out

    def test_scheme_dimension_mismatch(self, capsys):
        code, out, err = run(
            capsys,
            "decide", "--vars", "x,y", "--form", "x^2 + y^2",
            "--scheme", "midpoint3",
        )
        assert code == 3
        assert "error:" in err
        assert "form has 2 variables, scheme subdivides 3" in err

    def test_n_is_not_a_decide_option(self, capsys):
        # decide takes its dimension from --vars
        with pytest.raises(SystemExit) as exc:
            main([
                "decide", "--vars", "x,y,z", "--form", "x^2 + y^2 + z^2",
                "--scheme", "wds", "--n", "3",
            ])
        assert exc.value.code == 3

    def test_syntax_error_exit_three(self, capsys):
        code, out, err = run(
            capsys,
            "decide", "--vars", "x,y", "--form", "x +", "--scheme", "wds",
        )
        assert code == 3
        assert "error: unexpected end of input" in err

    def test_deep_nesting_exit_three(self, capsys):
        form = "(" * 2000 + "x" + ")" * 2000 + " - y"
        code, out, err = run(
            capsys, "decide", "--vars", "x,y", "--form", form, "--scheme", "wds"
        )
        assert code == 3
        assert "error: expression nested more than 100 levels deep" in err

    def test_parse_work_limit_exit_three_before_expanding(self, capsys):
        start = time.process_time()
        code, out, err = run(
            capsys, "decide", "--vars", "x,y,z", "--form", "(x+y+z)^200",
            "--scheme", "wds",
        )
        assert time.process_time() - start < 1.0
        assert code == 3
        assert "error: expanding the expression multiplies more than" in err

    @pytest.mark.parametrize("form", ["(x+y+z)^60*(x+y+z)^60", "(2^4096)^1000*x"])
    def test_parse_work_limit_exit_three(self, capsys, form):
        # both factors, or the base, are expanded before the refusal
        code, out, err = run(
            capsys, "decide", "--vars", "x,y,z", "--form", form, "--scheme", "wds"
        )
        assert code == 3
        assert "error: expanding the expression multiplies more than" in err

    def test_wds_above_seven_variables_exit_three(self, capsys):
        start = time.process_time()
        code, out, err = run(
            capsys,
            "decide", "--vars", "a,b,c,d,e,f,g,h", "--form", "a^2 - b*c",
            "--scheme", "wds",
        )
        assert time.process_time() - start < 1.0
        assert code == 3
        assert "error: wds with n = 8 has n! cells" in err

    def test_table_past_its_bound_exit_three(self, capsys):
        start = time.process_time()
        code, out, err = run(
            capsys,
            "decide", "--vars", "x,y,z", "--form", "x^60 - 2*y^60 + z^60",
            "--scheme", "wds", "--max-depth", "3",
        )
        assert time.process_time() - start < 1.0
        assert code == 3
        assert "degree-60 form on scheme wds3" in err

    def test_unknown_scheme_exit_three(self, capsys):
        code, out, err = run(
            capsys,
            "decide", "--vars", "x,y", "--form", "x^2 + y^2",
            "--scheme", "sierpinski",
        )
        assert code == 3
        assert "unknown scheme" in err

    def test_missing_required_argument_exits_three(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["decide", "--vars", "x,y", "--scheme", "wds"])
        assert exc.value.code == 3

    @pytest.mark.parametrize("exc", [OverflowError("too big"), AssertionError("broken")])
    def test_internal_error_exit_three(self, capsys, monkeypatch, exc):
        def fail(args):
            raise exc

        monkeypatch.setattr(cli, "_cmd_decide", fail)
        code, out, err = run(
            capsys, "decide", "--vars", "x,y", "--form", "x - y", "--scheme", "wds"
        )
        assert code == 3
        assert err == f"error: {exc} ({type(exc).__name__})\n"


# 2^20000 has 6 021 digits, past the int-to-str limit of Python >= 3.10.7
LONG_FORM = "x - 2^20000*y"
DIGIT_LIMIT = getattr(sys, "get_int_max_str_digits", None)


def long_value() -> str:
    with cli._full_digits():
        return str(F(1, 2) - 2**19999)


class TestLongNumbers:
    def test_decide_prints_the_whole_witness_value(self, capsys):
        code, out, err = run(
            capsys, "decide", "--vars", "x,y", "--form", LONG_FORM, "--scheme", "wds"
        )
        assert code == 1
        assert f"witness value: {long_value()}\n" in out

    def test_decide_json(self, capsys):
        code, out, err = run(
            capsys, "decide", "--vars", "x,y", "--form", LONG_FORM, "--scheme", "wds",
            "--output", "json",
        )
        assert code == 1
        assert json.loads(out)["witness"]["value"] == long_value()

    def test_sample(self, capsys):
        code, out, err = run(
            capsys, "sample", "--vars", "x,y", "--form", LONG_FORM, "-D", "2"
        )
        assert code == 1
        assert "negative found: yes" in out

    @pytest.mark.skipif(DIGIT_LIMIT is None, reason="no int-to-str digit limit")
    def test_long_literal_still_exit_three(self, capsys):
        limit = DIGIT_LIMIT()
        run(capsys, "decide", "--vars", "x,y", "--form", LONG_FORM, "--scheme", "wds")
        assert DIGIT_LIMIT() == limit  # lifted only while the output printed
        code, out, err = run(
            capsys, "decide", "--vars", "x,y", "--form", "1" * 5000 + "*x - y",
            "--scheme", "wds",
        )
        assert code == 3
        assert "error:" in err

    def test_long_literal_exit_three_with_the_digit_limit_off(self):
        proc = run_process(
            "decide", "--vars", "x,y", "--form", "1" * 5000 + "*x - y", "--scheme", "wds",
            PYTHONINTMAXSTRDIGITS="0",
        )
        assert proc.returncode == 3
        assert proc.stderr == (
            "error: integer literal longer than 4300 digits (at position 0) "
            "(FormSyntaxError)\n"
        )

    def test_error_line_prints_a_long_number(self, capsys):
        denominator = "9" * 4000
        code, out, err = run(
            capsys, "sample", "--vars", "x,y,z", "--form", "x", "-D", denominator
        )
        assert code == 3
        with cli._full_digits():
            points = str(comb(int(denominator) + 2, 2))
        assert len(points) > 4300
        assert f"error: the grid has {points} points" in err


@pytest.mark.parametrize(
    "code, argv",
    [
        (0, ["--vars", "x,y,z", "--form", SYM_DIFF_TEXT, "--scheme", "wds"]),
        (1, ["--vars", "x,y,z", "--form", MIXED_SIGN_TEXT, "--scheme", "trisection3"]),
        (2, ["--vars", "x1,x2,x3", "--form", "(x1 - x2 + x3)^2 + 1/10*x2^2",
             "--scheme", "central3", "--max-depth", "4"]),
        (3, ["--vars", "x,y", "--form", "x +", "--scheme", "wds"]),
        # strictly positive, settled on level 1 by degree elevation
        (0, ["--vars", "x1,x2,x3", "--form", "(x1 - x2 + x3)^2 + x2^2",
             "--scheme", "central3", "--max-depth", "10"]),
    ],
)
def test_process_exit_codes(code, argv):
    proc = run_process("decide", *argv)
    assert proc.returncode == code
    assert "Traceback" not in proc.stderr


class TestAnalyzeSchemeCommand:
    def test_text_report_for_convergent_scheme(self, capsys):
        code, out, err = run(capsys, "analyze-scheme", "--scheme", "midpoint3")
        assert code == 0
        assert "midpoint3 (4 cells, n = 3)" in out
        assert "sum |det|: 1" in out
        assert "valid: yes" in out
        assert "convergent: yes" in out
        assert "contraction ratio squared: 1/4" in out

    def test_text_report_for_non_convergent_scheme(self, capsys):
        code, out, err = run(capsys, "analyze-scheme", "--scheme", "central3")
        assert code == 0
        assert "convergent: no" in out
        assert "columns 1 and 2 are basis vectors" in out

    def test_json_report(self, capsys):
        code, out, err = run(
            capsys, "analyze-scheme", "--scheme", "wds", "--n", "2",
            "--output", "json",
        )
        assert code == 0
        report = json.loads(out)
        assert report["scheme"] == "wds2"
        assert report["matrices"] == 2
        assert report["valid"] is True
        assert report["dets"] == ["1/2", "-1/2"]
        assert report["det_sum"] == "1"
        assert report["convergent"] is True
        assert report["contraction_ratio_sq"] == "1/4"

    @pytest.mark.parametrize("argv", [("wds", "--n", "3"), ("midpoint3",)])
    def test_scheme_validated_once(self, capsys, monkeypatch, argv):
        # the report reads the validation the scheme kept when it was built;
        # the tiling check is the last step of every passing validation
        calls = []
        tiling = subdivision._tiling_problem
        monkeypatch.setattr(
            subdivision, "_tiling_problem", lambda *a: calls.append(1) or tiling(*a)
        )
        code, out, err = run(capsys, "analyze-scheme", "--scheme", *argv)
        assert code == 0
        assert "valid: yes" in out
        assert len(calls) == 1

    def test_invalid_scheme_file_reported(self, capsys, tmp_path):
        path = tmp_path / "broken.scheme"
        path.write_text("name: broken\nn: 2\nmatrix:\n1 1\n0 1\n")
        code, out, err = run(capsys, "analyze-scheme", "--scheme", f"file:{path}")
        assert code == 3
        assert "valid: no" in out
        assert "problem:" in out

    def test_double_cover_file_refused(self, capsys, tmp_path):
        path = tmp_path / "double.scheme"
        path.write_text("name: double\nn: 2\n" + "matrix:\n1 1/2\n0 1/2\n" * 2)
        code, out, err = run(capsys, "analyze-scheme", "--scheme", f"file:{path}")
        assert code == 3
        assert "sum |det|: 1\nvalid: no\n" in out
        assert "problem: cells 1 and 2 overlap at the facet (1/2, 1/2)" in out
        code, out, err = run(
            capsys,
            "decide", "--vars", "x,y", "--form", "3*x - y", "--scheme", f"file:{path}",
        )
        assert code == 3
        assert "overlap" in err

    def test_non_ratio_literal_exit_three(self, capsys, tmp_path):
        path = tmp_path / "exponent.scheme"
        path.write_text("name: e\nn: 2\nmatrix:\n1 5e-1\n0 5e-1\nmatrix:\n0 1/2\n1 1/2\n")
        code, out, err = run(capsys, "analyze-scheme", "--scheme", f"file:{path}")
        assert code == 3
        assert "line 4: not a rational number: '5e-1'" in err

    def test_superscript_dimension_exit_three(self, capsys, tmp_path):
        path = tmp_path / "superscript.scheme"
        path.write_text("name: s\nn: \u00b2\nmatrix:\n1 1/2\n0 1/2\n", encoding="utf-8")
        code, out, err = run(capsys, "analyze-scheme", "--scheme", f"file:{path}")
        assert code == 3
        assert "line 2: n must be an integer >= 2, got '\u00b2'" in err


    @pytest.mark.parametrize("output", ["text", "json"])
    def test_invalid_scheme_with_long_determinants_reported(self, capsys, tmp_path, output):
        # each cell's |det| has 2 501 digits and their sum more than 4 300;
        # _write_rational writes them whatever the int-to-str limit
        big_p, big_q = 10**2500 + 1, 10**2500 + 3
        p, q = _write_rational(big_p), _write_rational(big_q)
        path = tmp_path / "long.scheme"
        cells = "".join(f"matrix:\n1 1/{d}\n0 1/{d}\n" for d in (q, p))
        path.write_text(f"name: long\nn: 2\n{cells}")
        code, out, err = run(
            capsys, "analyze-scheme", "--scheme", f"file:{path}", "--output", output
        )
        assert code == 3
        assert err == ""
        det_sum = _write_rational(F(1, big_p) + F(1, big_q))
        assert len(det_sum) > 4300
        if output == "json":
            report = json.loads(out)
            assert report["valid"] is False
            assert report["dets"] == [f"1/{q}", f"1/{p}"]
            assert report["det_sum"] == det_sum
        else:
            assert f"matrix 1: det 1/{q}\nmatrix 2: det 1/{p}\n" in out
            assert f"sum |det|: {det_sum} (expected 1)\nvalid: no\n" in out

    def test_wds_above_seven_exit_three(self, capsys):
        start = time.process_time()
        code, out, err = run(capsys, "analyze-scheme", "--scheme", "wds", "--n", "8")
        assert time.process_time() - start < 1.0
        assert code == 3
        assert "for n <= 7" in err

    @pytest.mark.parametrize("command", ["analyze-scheme", "gen-scheme"])
    @pytest.mark.parametrize("scheme", ["midpoint3", "trisection3", "central3"])
    def test_fixed_scheme_refuses_another_n(self, capsys, command, scheme):
        code, out, err = run(capsys, command, "--scheme", scheme, "--n", "4")
        assert (code, out) == (3, "")
        assert f"error: scheme {scheme} has n = 3, not --n 4" in err
        code, out, err = run(capsys, command, "--scheme", scheme, "--n", "3")
        assert code == 0
        assert out == run(capsys, command, "--scheme", scheme)[1]

    def test_scheme_file_n_is_its_own(self, capsys, tmp_path):
        path = tmp_path / "wds2.scheme"
        assert run(capsys, "gen-scheme", "--scheme", "wds", "--n", "2", "--out", str(path))[0] == 0
        for argv in ((), ("--n", "2")):
            code, out, err = run(capsys, "analyze-scheme", "--scheme", f"file:{path}", *argv)
            assert code == 0
            assert "scheme: wds2 (2 cells, n = 2)" in out
        code, out, err = run(capsys, "analyze-scheme", "--scheme", f"file:{path}", "--n", "3")
        assert code == 3
        assert "error: scheme wds2 has n = 2, not --n 3" in err


class TestSampleCommand:
    def test_negative_found_exit_one(self, capsys):
        code, out, err = run(
            capsys,
            "sample", "--vars", "x,y", "--form", "x*y - x^2 - y^2", "-D", "4",
        )
        assert code == 1
        assert "negative found: yes" in out

    def test_no_negative_exit_zero(self, capsys):
        code, out, err = run(
            capsys,
            "sample", "--vars", "x,y", "--form", "x^2 + y^2",
            "--denominator", "6",
        )
        assert code == 0
        assert "negative found: no" in out
        assert "7 points" in out

    def test_json_output(self, capsys):
        code, out, err = run(
            capsys,
            "sample", "--vars", "x,y,z", "--form", "x^2 + y^2 + z^2",
            "-D", "8", "--output", "json",
        )
        assert code == 0
        report = json.loads(out)
        assert report["min_value"] == "11/32"
        assert report["argmin"] == ["1/4", "3/8", "3/8"]
        assert report["negative_found"] is False
        assert report["points"] == 45


    def test_grid_above_limit_exit_three(self, capsys):
        start = time.process_time()
        code, out, err = run(
            capsys,
            "sample", "--vars", "x,y,z", "--form", "x^2 - y*z", "-D", "100000",
        )
        assert time.process_time() - start < 1.0
        assert code == 3
        assert "error: the grid has 5000150001 points" in err

    def test_grid_past_sys_maxsize_exit_three(self, capsys):
        # C(10**10 + 2, 2) is about 5e19 points, more than len() can return
        code, out, err = run(
            capsys,
            "sample", "--vars", "x,y,z", "--form", "x^2 - y*z", "-D", "10000000000",
        )
        assert code == 3
        assert "error: the grid has 50000000015000000001 points" in err


class TestGenSchemeCommand:
    def test_stdout_round_trips(self, capsys):
        code, out, err = run(capsys, "gen-scheme", "--scheme", "trisection3")
        assert code == 0
        assert out.startswith("# trisection3:")
        assert out.count("matrix:") == 9

    def test_file_output_feeds_decide(self, capsys, tmp_path):
        path = tmp_path / "wds3.scheme"
        code, out, err = run(
            capsys, "gen-scheme", "--scheme", "wds", "--out", str(path)
        )
        assert code == 0
        assert f"wrote {path}" in out

        code, out, err = run(
            capsys,
            "decide", "--vars", "x,y,z", "--form", SYM_DIFF_TEXT,
            "--scheme", f"file:{path}",
        )
        assert code == 0
        assert "verdict: PSD" in out
        assert "depth reached: 3" in out

    def test_missing_file_errors(self, capsys, tmp_path):
        code, out, err = run(
            capsys,
            "decide", "--vars", "x,y,z", "--form", "x^2 + y^2 + z^2",
            "--scheme", f"file:{tmp_path}/nope.scheme",
        )
        assert code == 3
        assert "error:" in err
