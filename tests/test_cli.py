"""End-to-end tests for the command line interface."""

import json
from fractions import Fraction

import pytest

from formsign.cli import main
from conftest import MIXED_SIGN_TEXT, SYM_DIFF_TEXT

F = Fraction


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


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
            "--form", "(x1 - x2 + x3)^2 + x2^2",
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
        assert report["verdict"] == "indefinite"
        assert report["scheme"] == "wds3"
        assert report["witness"]["path"] == []
        point = tuple(F(v) for v in report["witness"]["point"])
        assert sum(point) == 1
        assert F(report["witness"]["value"]) < 0

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

    def test_invalid_scheme_file_reported(self, capsys, tmp_path):
        path = tmp_path / "broken.scheme"
        path.write_text("name: broken\nn: 2\nmatrix:\n1 1\n0 1\n")
        code, out, err = run(capsys, "analyze-scheme", "--scheme", f"file:{path}")
        assert code == 3
        assert "valid: no" in out
        assert "problem:" in out

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
