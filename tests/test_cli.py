import json
import math
import os
import subprocess
import sys

import pytest

from lauricella import HyperSpec, appell_f1, hyp2f1, lauricella_fd, verify_all
from lauricella import cli
from lauricella.cli import main, _format_value, _parse_complex, _parse_complex_list

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


class TestParsing:
    def test_real(self):
        assert _parse_complex("-1") == complex(-1, 0)

    def test_pair(self):
        assert _parse_complex("1,-1") == complex(1, -1)

    def test_semicolon_list(self):
        assert _parse_complex_list("1,-1;2,0;1,1") == [1 - 1j, 2 + 0j, 1 + 1j]

    def test_bare_real_list(self):
        assert _parse_complex_list("0.5,0.5,0.5") == [0.5, 0.5, 0.5]

    def test_bare_pair_is_two_reals(self):
        # a two-entry comma list follows the same rule as any other length
        assert _parse_complex_list("0.2,0.5") == [0.2, 0.5]

    def test_lone_complex_entry(self):
        assert _parse_complex_list("0.2,0.5;") == [0.2 + 0.5j]

    @pytest.mark.parametrize("token", ["nan", "inf", "-inf", "1e400", "1,nan", "0,-1e999"])
    def test_non_finite_rejected(self, token):
        with pytest.raises(ValueError, match="finite"):
            _parse_complex(token)

    def test_tiny_imaginary_part_kept(self):
        # an absolute 1e-13 floor printed this value as real
        assert _format_value(3.1e-15 + 3.1e-15j) == "3.1e-15 + 3.1e-15i"
        assert _format_value(1.0 + 1e-14j) == "1"
        assert _format_value(0j) == "0"


class TestEval:
    def test_2f1_kummer_point(self, capsys):
        code = main(["eval", "2f1", "--a", "1", "--b", "0.5", "--c", "1.5", "--x", "-1"])
        out = capsys.readouterr().out.splitlines()
        assert code == 0
        assert out[0].startswith("0.785398163397448")

    @pytest.mark.parametrize("x", ["-1", "5"])
    def test_eval_prints_the_value_alone_from_one_evaluation(self, capsys, monkeypatch, x):
        # a series point and a connection-formula point: eval once ran each
        # point a second time at a looser tolerance to print an "error estimate"
        calls = []

        def counted(*args):
            calls.append(args)
            return hyp2f1(*args)

        monkeypatch.setattr(cli, "hyp2f1", counted)
        code = main(["eval", "2f1", "--a", "1", "--b", "0.5", "--c", "1.5", "--x", x, "--quad-tol", "1e-12"])
        out = capsys.readouterr().out.splitlines()
        assert code == 0
        assert len(out) == 1
        assert len(calls) == 1
        assert calls[0][-1] == 1e-12

    @pytest.mark.parametrize(
        "argv, want",
        [
            (["--a", "2.5", "--b", "2", "--c", "1.5", "--x=-10"], "-0.00175306786877035"),
            (["--a", "1.3", "--b", "2.6", "--c", "3.1", "--x", "5", "--side", "above"],
             "-0.212329965705191 - 0.182794756764963i"),
            (["--a", "1.3", "--b", "2.6", "--c", "3.1", "--x", "5", "--side", "below"],
             "-0.212329965705191 + 0.182794756764963i"),
        ],
    )
    def test_2f1_by_connection_formula(self, capsys, argv, want):
        # c < a and b, or b >= 1 on the cut in both orders: no Euler integral applies
        assert main(["eval", "2f1", *argv]) == 0
        assert capsys.readouterr().out.splitlines()[0] == want

    def test_fd_continuation(self, capsys):
        code = main([
            "eval", "fd", "--a", "1", "--bs", "0.5,0.5,0.5", "--c", "2",
            "--xs", "1,-1;2,0;1,1",
        ])
        out = capsys.readouterr().out.splitlines()
        assert code == 0
        value = 1.3110287771460599
        assert f"{value:.10g}"[:10] in out[0]
        assert " - " in out[0]  # negative imaginary part on the default side

    def test_f1_trivial_a_zero(self, capsys):
        code = main(["eval", "f1", "--a", "0", "--bs", "1,1", "--c", "2",
                     "--xs", "0.3,0;0.4,0"])
        out = capsys.readouterr().out.splitlines()
        assert code == 0
        assert out[0] == "1"

    def test_f1_with_three_b_values_is_exit_2(self, capsys):
        code = main(["eval", "f1", "--a", "0.5", "--bs", "0.3,0.4,0.5", "--c", "1.5",
                     "--xs", "0.2,0;-0.3,0"])
        assert code == 2
        assert "exactly two b parameters" in capsys.readouterr().err

    def test_f1_bare_comma_lists(self, capsys):
        code = main(["eval", "f1", "--a", "0.5", "--bs", "0.3,0.4", "--c", "1.5", "--xs", "0.2,0.5"])
        bare = capsys.readouterr().out.splitlines()[0]
        assert code == 0
        assert main(["eval", "f1", "--a", "0.5", "--bs", "0.3,0.4", "--c", "1.5", "--xs", "0.2;0.5"]) == 0
        assert capsys.readouterr().out.splitlines()[0] == bare == "1.11217641882036"

    def test_fd_bare_comma_lists_of_two(self, capsys):
        code = main(["eval", "fd", "--a", "1", "--bs", "0.5,0.5", "--c", "2", "--xs", "0.2,0.3"])
        assert code == 0
        want = lauricella_fd(HyperSpec(1.0, (0.5, 0.5), 2.0, (0.2, 0.3)))
        assert capsys.readouterr().out.splitlines()[0] == _format_value(want)

    def test_fd_list_length_mismatch_is_exit_2(self, capsys):
        code = main(["eval", "fd", "--a", "1", "--bs", "0.5;0.5", "--c", "2", "--xs", "0.2;0.3;0.4"])
        assert code == 2
        assert "argument error" in capsys.readouterr().err

    def test_complex_b_list(self, capsys):
        code = main(["eval", "f1", "--a", "0.5", "--bs", "0.3,0.1;0.4,-0.2", "--c", "1.5",
                     "--xs", "0.2,0;-0.3,0"])
        assert code == 0
        want = appell_f1(0.5, 0.3 + 0.1j, 0.4 - 0.2j, 1.5, 0.2, -0.3)
        assert capsys.readouterr().out.splitlines()[0] == _format_value(want)

    def test_missing_flag_is_exit_2(self, capsys):
        assert main(["eval", "2f1", "--a", "1", "--c", "1.5"]) == 2

    def test_bad_value_is_exit_2(self, capsys):
        assert main(["eval", "2f1", "--a", "x", "--b", "1", "--c", "1.5", "--x", "0"]) == 2
        assert "argument error" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv",
        [
            ["--a", "nan", "--b", "0.4", "--c", "2.1", "--x", "5"],
            ["--a", "1.3", "--b", "0.4", "--c", "2.1", "--x", "1e400"],
            ["--a", "1.3", "--b", "inf,0", "--c", "2.1", "--x", "5"],
        ],
    )
    def test_non_finite_value_is_exit_2(self, capsys, argv):
        assert main(["eval", "2f1", *argv]) == 2
        assert "must be finite" in capsys.readouterr().err

    def test_non_finite_list_entry_is_exit_2(self, capsys):
        assert main(["eval", "fd", "--a", "1", "--bs", "0.5,nan,0.5", "--c", "2",
                     "--xs", "0.1,0.2,0.3"]) == 2
        assert main(["eval", "fd", "--a", "1", "--bs", "0.5,0.5,0.5", "--c", "2",
                     "--xs", "0.1;0.2;inf,0"]) == 2
        assert "must be finite" in capsys.readouterr().err

    @pytest.mark.parametrize("x", ["-0.5", "5"])
    @pytest.mark.parametrize("quad_tol", ["0", "1e-14", "nan", "inf", "abc"])
    def test_bad_quad_tol_is_exit_2(self, capsys, x, quad_tol):
        # a series point at -0.5 never reaches the quadrature, which rejects
        # such a tolerance itself; both are argument errors
        code = main(["eval", "2f1", "--a", "1.3", "--b", "0.4", "--c", "2.1", f"--x={x}",
                     "--quad-tol", quad_tol])
        assert code == 2
        assert "--quad-tol" in capsys.readouterr().err

    def test_quad_tol_floor_accepted(self, capsys):
        assert main(["eval", "2f1", "--a", "1.3", "--b", "0.4", "--c", "2.1", "--x", "5",
                     "--quad-tol", "1e-13"]) == 0

    def test_tiny_complex_value_keeps_its_imaginary_part(self, capsys):
        # both parts are about 3.1e-15: mpmath.hyp2f1 at 30 digits
        code = main(["eval", "2f1", "--a", "3", "--b", "30.5", "--c", "1.2", "--x", "1000,1000"])
        out = capsys.readouterr().out.splitlines()
        assert code == 0
        want = 3.1131157033822156e-15 + 3.1141025210213493e-15j
        assert out[0].endswith("i")
        assert abs(_parse_value(out[0]) - want) <= 1e-12 * abs(want)

    def test_side_flag_conjugates(self, capsys):
        assert main(["eval", "fd", "--a", "1", "--bs", "0.5,0.5,0.5", "--c", "2",
                     "--xs", "1,-1;2,0;1,1", "--side", "above"]) == 0
        out = capsys.readouterr().out.splitlines()[0]
        assert " + " in out  # positive imaginary part on the opposite side

    def test_evaluation_error_is_exit_3(self, capsys):
        code = main(["eval", "2f1", "--a", "1", "--b", "0.5", "--c", "1.5", "--x", "1"])
        assert code == 3
        assert "divergence boundary" in capsys.readouterr().err

    def test_non_positive_integer_c_is_exit_3(self, capsys):
        code = main(["eval", "2f1", "--a", "1", "--b", "1", "--c", "-1", "--x", "0.5"])
        assert code == 3
        assert "non-positive integer" in capsys.readouterr().err

    def test_integrand_past_float_range_is_exit_3(self, capsys):
        # (1 + 1000 u)**300 overflows inside the Euler integrand
        code = main(["eval", "2f1", "--a", "0.5", "--b=-300", "--c", "1.5", "--x=-1000"])
        assert code == 3
        assert "exceeds the floating-point range" in capsys.readouterr().err

    def test_large_gamma_arguments_print_or_exit_3(self, capsys):
        # Gamma(170.5) and Gamma(171) are finite, but their power term overflows
        code = main(["eval", "2f1", "--a", "170.5", "--b", "0.5", "--c", "171", "--x", "2"])
        out = capsys.readouterr().out.splitlines()
        assert code in (0, 3)
        if code == 0:
            assert out[0].endswith("i")

    def test_large_parameters_at_minus_point_nine(self, capsys):
        code = main(["eval", "2f1", "--a", "10", "--b", "10", "--c", "1.5", "--x", "-0.9"])
        out = capsys.readouterr().out.splitlines()
        assert code == 0
        assert abs(_parse_value(out[0]) - 1.49735359829033e-4) <= 1e-12 * 1.49735359829033e-4

    @pytest.mark.parametrize("argv", [
        # Gamma(a) Gamma(c-a) underflows: the Euler prefactor, about 2.6e325, is past the range
        ["eval", "f1", "--a", "0.5,240", "--bs", "0.3,0.4", "--c", "1.5", "--xs", "2,0;-3,0"],
        # 1.9**800 times a finite series sum overflows; 1.9**1200 overflows on its own
        ["eval", "2f1", "--a=-800", "--b", "0.5", "--c", "1.5", "--x=-0.9"],
        ["eval", "2f1", "--a=-1200", "--b", "0.5", "--c", "1.5", "--x=-0.9"],
    ])
    def test_value_past_float_range_is_exit_3(self, argv, capsys):
        code = main(argv)
        captured = capsys.readouterr()
        assert code == 3
        assert captured.out == ""
        assert "floating-point range" in captured.err

    def test_gamma_quotient_past_float_range(self, capsys):
        # Gamma(172) overflows; the Euler prefactor is formed from log-Gammas
        code = main(["eval", "2f1", "--a", "171.5", "--b", "0.5", "--c", "172", "--x", "2"])
        out = capsys.readouterr().out.splitlines()
        assert code == 0
        mpmath = pytest.importorskip("mpmath")
        mpmath.mp.dps = 30
        want = complex(mpmath.hyp2f1(171.5, 0.5, 172, mpmath.mpc(2, "-1e-25")))
        assert abs(_parse_value(out[0]) - want) <= 1e-9 * abs(want)


def _parse_value(line: str) -> complex:
    """Read the value line `re`, `re + imi` or `re - imi` that eval prints."""
    for sign, op in ((" + ", 1.0), (" - ", -1.0)):
        if sign in line:
            re, im = line.split(sign)
            return complex(float(re), op * float(im.rstrip("i")))
    return complex(float(line), 0.0)


class TestVerifyCommand:
    def test_kummer_json_roundtrip(self, capsys):
        code = main(["verify", "--filter", "kummer*", "--format", "json"])
        out = capsys.readouterr().out
        assert code == 0
        rows = json.loads(out)
        assert len(rows) == 6
        assert all(row["status"] == "pass" for row in rows)
        assert set(rows[0]) == {"id", "anchor", "lhs", "rhs", "abs_err", "rel_err",
                                "status", "elapsed_ms", "note"}
        assert rows[0]["note"] == ""
        # byte-identical reserialization
        assert json.dumps(rows, indent=2, separators=(",", ": ")) == out.rstrip("\n")

    def test_tight_tolerance_fails(self, capsys):
        # the six Kummer records agree to within 8.4e-16
        code = main(["verify", "--filter", "kummer*", "--tol", "1e-17"])
        capsys.readouterr()
        assert code == 1

    def test_text_summary(self, capsys):
        code = main(["verify", "--filter", "gr-*"])
        out = capsys.readouterr().out
        assert code == 0
        assert "total 4: 4 pass" in out

    def test_out_file(self, tmp_path, capsys):
        target = tmp_path / "report.json"
        code = main(["verify", "--filter", "enu5-1", "--format", "json",
                     "--out", str(target)])
        assert code == 0
        rows = json.loads(target.read_text())
        assert rows[0]["id"] == "enu5-1"
        assert rows[0]["lhs"]["im"] == pytest.approx(-0.9270373386506859, rel=1e-10)

    def test_json_row_carries_the_erratum_note(self, capsys):
        code = main(["verify", "--filter", "bg00", "--format", "json"])
        rows = json.loads(capsys.readouterr().out)
        assert code == 0
        assert rows[0]["status"] == "pass_with_erratum"
        assert "as printed |rhs/lhs| = " in rows[0]["note"]

    def test_exact_id_with_brackets(self, capsys):
        # brackets in a grid id would be a glob character class
        code = main(["verify", "--filter", "kummer[a=1.0,b=0.5]", "--format", "json"])
        rows = json.loads(capsys.readouterr().out)
        assert code == 0
        assert [row["id"] for row in rows] == ["kummer[a=1.0,b=0.5]"]

    def test_closed_stdout_exits_quietly(self):
        env = {**os.environ, "PYTHONPATH": SRC}
        proc = subprocess.Popen(
            [sys.executable, "-m", "lauricella.cli", "verify", "--filter", "kummer*"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env, text=True,
        )
        proc.stdout.close()    # the reader goes away before the report is written
        err = proc.stderr.read()
        proc.stderr.close()
        assert proc.wait(timeout=60) == 1
        assert err == ""

    def test_json_rows_ordered_by_id(self, capsys):
        code = main(["verify", "--filter", "effe1*", "--format", "json"])
        rows = json.loads(capsys.readouterr().out)
        assert code == 0
        assert [r["id"] for r in rows] == sorted(r["id"] for r in rows)


    def test_tolerance_below_quadrature_floor(self, capsys):
        # the quadrature target is floored at 1e-13, so a tight --tol fails
        # records instead of failing to evaluate them
        code = main(["verify", "--tol", "1e-17"])
        out = capsys.readouterr().out
        assert code == 1
        assert "evaluation error" not in out


    def test_bad_quad_tol_is_exit_2(self, capsys):
        # at 0 the one record came out "fail" with exit code 1
        assert main(["verify", "--filter", "enu5-1", "--quad-tol", "0"]) == 2
        assert "--quad-tol" in capsys.readouterr().err


class TestRunArguments:
    @pytest.mark.parametrize("command,filter", [("verify", "kummer*"), ("reduce", "goursat-*")])
    @pytest.mark.parametrize("tol", ["nan", "inf", "0", "-1", "abc"])
    def test_bad_tol_is_exit_2(self, capsys, command, filter, tol):
        assert main([command, "--filter", filter, "--tol", tol]) == 2
        assert "--tol" in capsys.readouterr().err

    @pytest.mark.parametrize("command,filter", [("verify", "kumer*"), ("reduce", "nope")])
    def test_empty_filter_is_exit_2(self, capsys, command, filter):
        assert main([command, "--filter", filter]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"no record matches --filter {filter!r}" in captured.err

    def test_empty_filter_is_an_empty_list_in_the_library(self):
        from lauricella.identities import run_all
        from lauricella.reductions import CHECKS, check_reduction

        assert verify_all("kumer*") == []
        assert run_all(CHECKS, check_reduction, "nope") == []

    def test_unwritable_out_is_exit_2(self, tmp_path, capsys, monkeypatch):
        from lauricella import identities

        ran = []
        monkeypatch.setattr(identities, "verify", lambda id, *args: ran.append(id))
        target = tmp_path / "no-such-dir" / "report.json"
        code = main(["verify", "--filter", "enu5-1", "--out", str(target)])
        assert code == 2
        assert capsys.readouterr().err.startswith("cannot write report: ")
        assert not target.exists()
        assert ran == []  # --out is opened before any record runs

    def test_unwritable_out_is_exit_2_before_reduce_runs(self, tmp_path, capsys, monkeypatch):
        from lauricella import reductions

        ran = []
        monkeypatch.setattr(reductions, "check_reduction", lambda id, *args: ran.append(id))
        code = main(["reduce", "--filter", "goursat-*", "--out", str(tmp_path)])
        assert code == 2
        assert capsys.readouterr().err.startswith("cannot write report: ")
        assert ran == []


class TestReduceCommand:
    def test_bad_quad_tol_is_exit_2(self, capsys):
        assert main(["reduce", "--filter", "maier-g4", "--quad-tol", "nan"]) == 2
        assert "--quad-tol" in capsys.readouterr().err

    def test_goursat_filter(self, capsys):
        code = main(["reduce", "--filter", "goursat-*", "--format", "json"])
        rows = json.loads(capsys.readouterr().out)
        assert code == 0
        assert len(rows) == 3
        assert all(row["status"] == "pass" for row in rows)

    def test_maier(self, capsys):
        code = main(["reduce", "--filter", "maier-g4", "--format", "json"])
        rows = json.loads(capsys.readouterr().out)
        assert code == 0
        assert rows[0]["lhs"]["re"] == pytest.approx(1.9923328995834907, rel=1e-9)
        assert rows[0]["rhs"]["re"] == pytest.approx(1.9923328995834907, rel=1e-9)

    def test_z2_product(self, capsys):
        code = main(["reduce", "--filter", "legendre-z2*", "--format", "json"])
        rows = json.loads(capsys.readouterr().out)
        assert code == 0
        assert len(rows) == 3
        assert all(row["status"] == "pass" for row in rows)

    def test_exact_id_with_brackets(self, capsys):
        code = main(["reduce", "--filter", "rep-quintic[source]", "--format", "json"])
        rows = json.loads(capsys.readouterr().out)
        assert code == 0
        assert [(row["id"], row["status"]) for row in rows] == [("rep-quintic[source]", "pass")]

    def test_tight_tolerance_fails_without_evaluation_errors(self, capsys):
        code = main(["reduce", "--tol", "1e-15"])
        out = capsys.readouterr().out
        assert code == 1
        assert "evaluation error" not in out

    def test_representations_honour_tolerance(self, capsys):
        # their rel_err reaches 9.5e-16, so 1e-16 must fail some of them
        code = main(["reduce", "--filter", "rep-*", "--tol", "1e-16", "--format", "json"])
        rows = json.loads(capsys.readouterr().out)
        assert code == 1
        assert len(rows) == 7
        assert any(row["status"] == "fail" for row in rows)
