"""Session parsing and the command-line surface, including exit codes."""
import ast
import hashlib
import importlib.util
import json
import os
import random
import re
import resource
import shlex
import subprocess
import sys
import time
from pathlib import Path

import pytest

from atkernel import groebner, koszul
from atkernel.cli import COMMANDS, _plain_args, _resolve_derivation, build_parser, main
from atkernel.polyforms import ParseError, digit_excess, parse_poly, parse_ring
from atkernel.selftest import parse_complex
from atkernel.session import SessionError, parse_session
from oracles import tuple_terms

SESSION = """\
# corpus pair
ring Q[x, y]
seq Z = x ; y
seq W = x^2
hom phi on Z = 1 ; 0
hom psi on W = 1
der ddx = x: 1, y: 0
"""

NONREGULAR = """\
ring Q[x, y, z]
seq B = x*y ; x*z
hom bad on B = 1 ; 0
"""

# not regular (common factor x) and not homogeneous, so parsed ungraded
UNGRADED_NONREGULAR = """\
ring Q[x, y, z]
seq B = x*y + x^3 ; x*z
hom bad on B = 1 ; 0
der ddz = z: 1
"""


class TestSessionParsing:
    def test_declarations(self):
        s = parse_session(SESSION)
        assert s.var_names == ("x", "y")
        assert s.sequences["Z"].q == 2
        assert s.sequences["W"].polys[0] == parse_poly("x^2", ("x", "y"))
        phi = s.homs["phi"]
        assert phi.ideal is s.sequences["Z"] and phi.values[0] == parse_poly("1", ("x", "y"))
        assert s.derivations["ddx"].values[0] == parse_poly("1", ("x", "y"))

    def test_weighted_ring(self):
        s = parse_session("ring Q[x:3, y:2]\nseq V = x^2 ; y^3\n")
        assert s.var_weights == (3, 2)
        assert s.sequences["V"].var_weights == (3, 2)

    def test_inhomogeneous_sequence_kept_ungraded(self):
        s = parse_session("ring Q[x, y]\nseq V = x + y^2\n")
        assert s.sequences["V"].var_weights is None

    def test_error_carries_line_number(self):
        with pytest.raises(SessionError) as err:
            parse_session("ring Q[x]\nseq = ;\n")
        assert err.value.line == 2

    def test_undeclared_sequence(self):
        with pytest.raises(SessionError):
            parse_session("ring Q[x]\nhom phi on Z = 1\n")

    def test_wrong_value_count(self):
        with pytest.raises(SessionError):
            parse_session("ring Q[x, y]\nseq Z = x ; y\nhom phi on Z = 1\n")

    @pytest.mark.parametrize(
        "text, message",
        [
            ("seq W = x^2\nhom phi on W = 1\nhom phi on W = x\n", "hom 'phi' redeclared (line 4)"),
            ("der d = x: 1\nseq W = x^2\nder d = y: 1\n", "derivation 'd' redeclared (line 4)"),
        ],
    )
    def test_hom_and_derivation_redeclaration_refused(self, text, message):
        with pytest.raises(SessionError) as err:
            parse_session("ring Q[x, y]\n" + text)
        assert str(err.value) == message

    def test_repeated_derivation_variable_refused(self):
        # the later value used to replace the first silently: x -> y
        with pytest.raises(SessionError) as err:
            parse_session("ring Q[x, y]\nseq Z = x ; y\nder d = x: 1, x: y\n")
        assert str(err.value) == "variable 'x' given twice in derivation (line 3)"

    def test_ring_arity_refused_on_its_line(self):
        # a 17-variable ring used to fail only at its first polynomial
        names = [f"x{i}" for i in range(17)]
        assert parse_ring(f"Q[{', '.join(names[:16])}]")[0] == tuple(names[:16])
        with pytest.raises(SessionError) as err:
            parse_session(f"ring Q[{', '.join(names)}]\n")
        assert str(err.value) == "ring arity must be in 1..16, got 17 (line 1)"

    @pytest.mark.parametrize("digit", ["\u00b2", "\u0662"])
    def test_non_ascii_digit_names_the_line(self, digit):
        with pytest.raises(SessionError) as err:
            parse_session(f"ring Q[x, y]\nseq Z = x^{digit} ; y\n")
        assert err.value.line == 2
        assert f"unexpected character {digit!r} (line 1, col 3)" in str(err.value)

    def test_malformed_first_line(self):
        with pytest.raises(SessionError) as err:
            parse_session("seq Z = x\n")
        assert err.value.line == 1


# sessions and complex blocks share one ring parser, so both refuse each
BAD_RINGS = ["Q[x, x]", "Q[x, , y]", "Q[1x]", "Q[x:0]", "Q[x:a]", "x, y]"]


class TestSharedParsers:
    @pytest.mark.parametrize("decl", BAD_RINGS)
    def test_session_refuses_bad_ring(self, decl):
        with pytest.raises(SessionError) as err:
            parse_session(f"# header\nring {decl}\n")
        assert err.value.line == 2

    @pytest.mark.parametrize("decl", BAD_RINGS)
    @pytest.mark.parametrize("tag", ["", " ungraded"])
    def test_complex_block_refuses_bad_ring(self, decl, tag):
        with pytest.raises(ValueError):
            parse_complex(f"complex K {{ ring {decl}{tag}; deg 0: [e] }}")

    # int() alone reads Q[x:\u0662, y:1_0] as the weights (2, 10)
    @pytest.mark.parametrize("weight", ["\u0662", "\u00b2", "1_0", "+2"])
    def test_weight_is_ascii_digits_only(self, weight):
        with pytest.raises(ValueError) as err:
            parse_ring(f"Q[x:{weight}, y: 3]")
        assert str(err.value) == f"bad weight {weight!r}"
        assert parse_ring("Q[x: 2, y:10]") == (("x", "y"), (2, 10))

    @pytest.mark.parametrize("text", ["x: 1,", "x: 1, y: x*y", ", y: 2, ", "y: 1/2"])
    def test_inline_derivation_matches_der_line(self, text):
        session = parse_session(f"ring Q[x, y]\nder d = {text}\n")
        assert _resolve_derivation(session, text) == session.derivations["d"]


SRC = Path(__file__).resolve().parents[1] / "src"


def run_cli(args, session=None, tmp_path=None, degree_bound=None):
    """`atk args` in a fresh process on this checkout's sources, with
    ATK_DEGREE_BOUND set to degree_bound, or unset when that is None.
    The variable no longer exists; tests set it to show it is ignored."""
    cmd = [sys.executable, "-m", "atkernel.cli", *args]
    if session is not None:
        path = tmp_path / "session.sr"
        path.write_text(session)
        cmd += ["--input", str(path)]
    env = {k: v for k, v in os.environ.items() if k != "ATK_DEGREE_BOUND"}
    env["PYTHONPATH"] = str(SRC)
    if degree_bound is not None:
        env["ATK_DEGREE_BOUND"] = degree_bound
    return subprocess.run(cmd, capture_output=True, text=True, env=env)


class TestCLI:
    def test_blochcmp_exact_verdict(self, tmp_path):
        out = run_cli(["blochcmp", "--hom", "phi"], SESSION, tmp_path)
        assert out.returncode == 0
        assert "VERDICT: exact" in out.stdout
        assert "(dy) / (x*y)^1 * delta[f1^f2]" in out.stdout

    def test_ch_defaults_to_top_component(self, tmp_path):
        out = run_cli(["ch", "--seq", "Z"], SESSION, tmp_path)
        assert out.returncode == 0
        assert out.stdout.strip() == "(dx^dy) / (x*y)^1 * delta[f1^f2]"

    def test_atk_prints_power_matrices(self, tmp_path):
        out = run_cli(["atk", "--seq", "W", "--power", "1"], SESSION, tmp_path)
        assert out.returncode == 0
        assert "u(-1) = [[-2*x*dx]]" in out.stdout

    def test_obstruct_agrees_with_contraction(self, tmp_path):
        out = run_cli(
            ["obstruct", "--seq", "W", "--derivation", "ddx"], SESSION, tmp_path
        )
        assert out.returncode == 0
        assert "VERDICT: exact" in out.stdout

    def test_semireg_component(self, tmp_path):
        out = run_cli(["semireg", "--hom", "psi", "--k", "0"], SESSION, tmp_path)
        assert out.returncode == 0
        assert out.stdout.strip() == "(1) / (x^2)^1 * delta[f1]"

    def test_sff_euler(self, tmp_path):
        out = run_cli(["sff", "--preset", "euler"])
        assert out.returncode == 0
        assert "VERDICT: exact" in out.stdout

    def test_sff_hypersurface(self, tmp_path):
        out = run_cli(["sff", "--preset", "hypersurface:x^2"])
        assert out.returncode == 0
        assert "VERDICT: exact" in out.stdout

    def test_sff_euler_with_n(self):
        # P^2 has three Euler generators x_j*dx_i - x_i*dx_j
        out = run_cli(["sff", "--preset", "euler:2"])
        assert out.returncode == 0
        assert "u(0) = [[x1*dx0 - x0*dx1], [x2*dx0 - x0*dx2], [x2*dx1 - x1*dx2]];" in out.stdout
        assert out.stdout.endswith("sigma on generators: -id\nVERDICT: exact\n")

    def test_sff_largest_euler_keeps_its_output(self):
        # euler:10 has C(11, 2) = 55 generators, the most under the 64 cap
        out = run_cli(["sff", "--preset", "euler:10"])
        assert out.returncode == 0 and out.stdout.endswith("VERDICT: exact\n")
        digest = hashlib.sha256(out.stdout.encode()).hexdigest()
        assert digest == "6e16b607fee7e1d34660a59ab79835c257c79a428112aad05a5ee20d53027803"

    def test_obstruct_inline_derivation_matches_named(self, tmp_path):
        session = SESSION.replace("der ddx = x: 1, y: 0", "der ddx = x: 1")
        named = run_cli(["obstruct", "--seq", "Z", "--derivation", "ddx"], session, tmp_path)
        inline = run_cli(["obstruct", "--seq", "Z", "--derivation", "x: 1"], session, tmp_path)
        assert named.returncode == inline.returncode == 0
        assert "VERDICT: exact" in named.stdout and inline.stdout == named.stdout

    def test_sff_ungraded_hypersurface(self):
        # x^2 + y^3 is not homogeneous for weights (1, 1); sigma is df
        out = run_cli(["sff", "--preset", "hypersurface:x^2+y^3"])
        assert out.returncode == 0
        assert "u(0) = [[2*x*dx + 3*y^2*dy]];" in out.stdout
        assert out.stdout.endswith("VERDICT: exact\n")

    def test_iclosure_yes_and_no(self):
        out = run_cli(["iclosure", "--ideal", "x^3,y^3", "--test", "x^2*y"])
        assert out.returncode == 0 and out.stdout.startswith("YES")
        out = run_cli(["iclosure", "--ideal", "x^3,y^3", "--test", "x*y"])
        assert out.returncode == 0 and out.stdout.startswith("NO")

    def test_curvdim_and_dimcheck(self):
        out = run_cli(["curvdim", "--ideal", "x^2"])
        assert out.returncode == 0 and out.stdout.strip() == "1"
        out = run_cli(["dimcheck", "--ideal", "x^2,x*y,y^2"])
        assert out.returncode == 0
        assert "holds: yes" in out.stdout

    def test_output_determinism(self, tmp_path):
        first = run_cli(["blochcmp", "--hom", "phi"], SESSION, tmp_path)
        second = run_cli(["blochcmp", "--hom", "phi"], SESSION, tmp_path)
        assert first.stdout == second.stdout


class TestExitCodes:
    def test_parse_error_is_two(self, tmp_path):
        out = run_cli(["blochcmp", "--hom", "phi"], "seq Z = ;\n", tmp_path)
        assert out.returncode == 2
        assert "error:" in out.stderr

    def test_missing_file_is_two(self):
        out = run_cli(["blochcmp", "--hom", "phi", "--input", "/nonexistent.sr"])
        assert out.returncode == 2

    def test_directory_input_is_two(self, tmp_path):
        out = run_cli(["ch", "--seq", "Z", "--input", str(tmp_path)])
        assert out.returncode == 2 and out.stdout == ""
        assert out.stderr.startswith("error:")

    def test_unknown_command_is_two(self):
        out = run_cli(["transmogrify"])
        assert out.returncode == 2

    def test_unknown_name_is_two(self, tmp_path):
        out = run_cli(["blochcmp", "--hom", "nope"], SESSION, tmp_path)
        assert out.returncode == 2

    def test_bad_monomial_is_two(self):
        out = run_cli(["iclosure", "--ideal", "x+y", "--test", "x"])
        assert out.returncode == 2

    def test_regularity_guard_is_two(self, tmp_path):
        out = run_cli(["ch", "--seq", "B"], "ring Q[x, y]\nseq B = x ; x\n", tmp_path)
        assert out.returncode == 2
        assert "regularity" in out.stderr

    def test_blochcmp_regularity_guard_is_two(self, tmp_path):
        out = run_cli(["blochcmp", "--hom", "bad"], NONREGULAR, tmp_path)
        assert out.returncode == 2 and out.stdout == ""
        assert "regularity" in out.stderr

    def test_semireg_regularity_guard_is_two(self, tmp_path):
        out = run_cli(["semireg", "--hom", "bad", "--k", "1"], NONREGULAR, tmp_path)
        assert out.returncode == 2 and out.stdout == ""
        assert "regularity" in out.stderr

    @pytest.mark.parametrize("bound", ["0", "-3", "1", "2", "3", None])
    def test_degree_bound_cannot_switch_the_guard_off(self, bound, tmp_path):
        # the guard takes no bound; a scan to degree 2 missed the syzygy
        # z*gf1 - y*gf2 of degree 3
        out = run_cli(["ch", "--seq", "B"], "ring Q[x:1, y:1, z:1]\nseq B = x*y ; x*z\n",
                      tmp_path, degree_bound=bound)
        assert out.returncode == 2 and out.stdout == ""
        assert out.stderr.startswith("error:")

    @pytest.mark.parametrize(
        "argv",
        [["atk", "--seq", "B"], ["ch", "--seq", "B"], ["obstruct", "--seq", "B", "--derivation", "ddz"],
         ["semireg", "--hom", "bad", "--k", "1"], ["blochcmp", "--hom", "bad"]],
    )
    def test_ungraded_non_regular_is_two(self, argv, tmp_path):
        out = run_cli(argv, UNGRADED_NONREGULAR, tmp_path)
        assert out.returncode == 2 and out.stdout == ""
        assert "regularity" in out.stderr

    def test_guard_work_bound_is_two(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr(groebner, "MAX_TERM_OPS", 0)
        path = tmp_path / "session.sr"
        path.write_text(NONREGULAR)
        assert main(["ch", "--seq", "B", "--input", str(path)]) == 2
        out, err = capsys.readouterr()
        assert out == "" and "regularity guard exceeded its work bound" in err

    def test_iclosure_test_coefficient_is_two(self):
        out = run_cli(["iclosure", "--ideal", "x^3,y^3", "--test", "2*x"])
        assert out.returncode == 2 and out.stdout == ""

    @pytest.mark.parametrize("n", ["0", "-1", "1.5"])
    def test_sff_euler_needs_positive_integer(self, n):
        out = run_cli(["sff", "--preset", f"euler:{n}"])
        assert out.returncode == 2 and out.stdout == ""

    def test_huge_euler_is_refused_before_any_pair_is_built(self):
        """euler:N builds C(N + 1, 2) generators, so the refusal comes first:
        under a 10 s deadline and a 512 MB address-space limit."""
        limit = 512 << 20

        def cap_memory():
            resource.setrlimit(resource.RLIMIT_AS, (limit, limit))

        out = subprocess.run(
            [sys.executable, "-m", "atkernel.cli", "sff", "--preset", "euler:99999999"],
            capture_output=True, text=True, timeout=10, preexec_fn=cap_memory,
            env={**os.environ, "PYTHONPATH": str(SRC)},
        )
        assert out.returncode == 2 and out.stdout == ""
        assert out.stderr == "error: complex exceeds 64 total basis elements\n"

    def test_inline_derivation_literal(self, tmp_path):
        out = run_cli(
            ["atk", "--seq", "W", "--power", "1", "--derivation", "x: 1, y: 0"],
            SESSION,
            tmp_path,
        )
        assert out.returncode == 0
        assert "[[-2*x]]" in out.stdout

    def test_bad_flag_value_is_two(self, tmp_path):
        out = run_cli(["ch", "--seq", "Z", "--k", "many"], SESSION, tmp_path)
        assert out.returncode == 2

    def test_missing_required_flag_is_two(self):
        out = run_cli(["iclosure", "--ideal", "x^2"])
        assert out.returncode == 2


HUGE = "9" * 5000  # more digits than int() reads by default (4,300)


class TestHugeIntegers:
    """An integer literal longer than int() reads is refused by its own
    grammar through polyforms.digit_excess, with exit 2 and no output,
    and the refusal neither names Python's limit nor echoes the literal."""

    @staticmethod
    def assert_refused(out, message):
        assert out.returncode == 2 and out.stdout == ""
        assert "set_int_max_str_digits" not in out.stderr and "_ascii_int" not in out.stderr
        assert HUGE[:100] not in out.stderr
        assert out.stderr.splitlines()[-1] == message

    def test_euler_preset(self):
        out = run_cli(["sff", "--preset", f"euler:{HUGE}"])
        self.assert_refused(
            out, "error: euler needs a positive integer n, got one of 5000 digits, more than 4300")

    @pytest.mark.parametrize("line, lineno", [
        (f"seq Z = {HUGE}*x ; y", 2),
        (f"seq Z = x^{HUGE} ; y", 2),
        (f"der big = x: {HUGE}/7, y: 0", 3),
    ])
    def test_session_coefficients_exponents_and_derivations(self, line, lineno, tmp_path):
        lines = ["ring Q[x, y]", "seq Y = x ; y"]
        lines.insert(lineno - 1, line)
        out = run_cli(["ch", "--seq", "Y"], "\n".join(lines) + "\n", tmp_path)
        self.assert_refused(out, f"error: integer of 5000 digits, more than 4300 (line {lineno})")

    def test_session_ring_weight(self, tmp_path):
        out = run_cli(["ch", "--seq", "Z"], f"ring Q[x:{HUGE}, y]\nseq Z = x ; y\n", tmp_path)
        self.assert_refused(out, "error: integer of 5000 digits, more than 4300 (line 1)")

    @pytest.mark.parametrize("argv", [
        ["iclosure", "--ideal", f"x^{HUGE},y", "--test", "x"],
        ["iclosure", "--ideal", "x,y", "--test", f"x^{HUGE}"],
        ["curvdim", "--ideal", f"x^{HUGE},y"],
    ])
    def test_monomial_ideals(self, argv):
        out = run_cli(argv)
        flag = next(flag for flag, value in zip(argv, argv[1:]) if HUGE in value)
        self.assert_refused(
            out, f"error: argument {flag}: integer of 5000 digits, more than 4300 (line 1, col 3)")

    @pytest.mark.parametrize("flag, value", [("--power", HUGE), ("--k", HUGE), ("--k", f"-{HUGE}")])
    def test_integer_flags(self, flag, value, tmp_path):
        command = ["atk", "--seq", "Z"] if flag == "--power" else ["ch", "--seq", "Z"]
        out = run_cli([*command, f"{flag}={value}"], SESSION, tmp_path)
        self.assert_refused(
            out, f"atk {command[0]}: error: argument {flag}: invalid int value of 5000 digits, "
                 "more than 4300")

    @pytest.mark.parametrize("items", [f"deg 0: [e:{HUGE}]", f"deg {HUGE}: [e]",
                                       f"deg -1: [g]; deg 0: [e]; d({HUGE}) = [[x]]",
                                       f"ring Q[x:{HUGE}]; deg 0: [e]"])
    def test_complex_block_integers(self, items):
        if items.startswith("ring"):  # a weight, refused by parse_ring
            with pytest.raises(ValueError) as err:
                parse_complex(f"complex K {{ {items} }}")
            assert str(err.value) == "bad weight of 5000 digits, more than 4300"
        else:
            with pytest.raises(ParseError,
                               match="expected an integer, got one of 5000 digits, more"):
                parse_complex(f"complex K {{ ring Q[x]; {items} }}")

    def test_limit_is_the_interpreters(self):
        limit = sys.get_int_max_str_digits()
        assert digit_excess("1" * limit) == ""
        assert digit_excess("1" * (limit + 1)) == f"{limit + 1} digits, more than {limit}"
        assert digit_excess(f"x^{'2' * limit} + {'3' * (limit + 2)}*y") == (
            f"{limit + 2} digits, more than {limit}")
        assert tuple_terms(parse_poly("7" * limit + "*x", ("x",))) == {(1,): int("7" * limit)}


class TestUsageMessages:
    def test_session_command_without_input_is_two(self):
        out = run_cli(["ch", "--seq", "Z"])
        assert (out.returncode, out.stdout) == (2, "")
        assert out.stderr == "error: this command needs --input <session file>\n"

    @pytest.mark.parametrize(
        "argv, flag",
        [
            (["ch", "--seq", "nope"], "--seq"),
            (["blochcmp", "--hom", "nope"], "--hom"),
            (["obstruct", "--seq", "Z", "--derivation", "nope"], "--derivation"),
            (["atk", "--seq", "Z", "--derivation", "nope: 1"], "--derivation"),
        ],
    )
    def test_unknown_name_names_the_flag(self, argv, flag, tmp_path, capsys):
        path = tmp_path / "session.sr"
        path.write_text(SESSION)
        assert main([*argv, "--input", str(path)]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert f"argument {flag}: unknown" in err and "'nope'" in err
        assert "line" not in err

    @pytest.mark.parametrize(
        "extra, argv, message",
        [
            ("hom phi on Z = 0 ; 1", ["blochcmp", "--hom", "phi"], "hom 'phi' redeclared (line 8)"),
            ("der ddx = y: 1", ["obstruct", "--seq", "Z", "--derivation", "ddx"],
             "derivation 'ddx' redeclared (line 8)"),
        ],
    )
    def test_redeclared_hom_or_derivation_is_two(self, extra, argv, message, tmp_path, capsys):
        # the later declaration used to replace the first silently
        path = tmp_path / "session.sr"
        path.write_text(SESSION + extra + "\n")
        assert main([*argv, "--input", str(path)]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err == f"error: {message}\n"

    @pytest.mark.parametrize(
        "extra, derivation, message",
        [
            ("der d = x: 1, x: y", "d", "variable 'x' given twice in derivation (line 8)"),
            ("", "x: 1, x: y", "argument --derivation: variable 'x' given twice in derivation"),
        ],
    )
    def test_repeated_derivation_variable_is_two(self, extra, derivation, message, tmp_path,
                                                 capsys):
        path = tmp_path / "session.sr"
        path.write_text(SESSION + extra + "\n")
        argv = ["obstruct", "--seq", "Z", "--derivation", derivation, "--input", str(path)]
        assert main(argv) == 2
        out, err = capsys.readouterr()
        assert out == "" and err == f"error: {message}\n"

    @pytest.mark.parametrize("digit", ["\u00b2", "\u0662"])
    def test_non_ascii_digit_is_two_with_its_line(self, digit, tmp_path, capsys):
        path = tmp_path / "session.sr"
        path.write_text(f"ring Q[x, y]\nseq Z = x^{digit} ; y\n", encoding="utf-8")
        assert main(["ch", "--seq", "Z", "--input", str(path)]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == (f"error: bad polynomial 'x^{digit}': unexpected character "
                       f"{digit!r} (line 1, col 3) (line 2)\n")

    def test_non_ascii_weight_is_two(self, tmp_path, capsys):
        path = tmp_path / "session.sr"
        path.write_text("ring Q[x:\u0662, y:1_0]\nseq Z = x ; y\n", encoding="utf-8")
        assert main(["ch", "--seq", "Z", "--input", str(path)]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err == "error: bad weight '\u0662' (line 1)\n"

    @pytest.mark.parametrize(
        "argv, value",
        [
            (["atk", "--seq", "Z", "--power", "\u0662"], "\u0662"),
            (["ch", "--seq", "Z", "--k", "\u0661"], "\u0661"),
            (["semireg", "--hom", "phi", "--k", "1_0"], "1_0"),
            (["atk", "--seq", "Z", "--power", " 2"], " 2"),
        ],
    )
    def test_non_ascii_flag_integer_is_two(self, argv, value, tmp_path, capsys):
        # int() reads all four; the flags take ASCII digits and a leading '-'
        path = tmp_path / "session.sr"
        path.write_text(SESSION)
        with pytest.raises(SystemExit) as exc:
            main([*argv, "--input", str(path)])
        assert exc.value.code == 2
        out, err = capsys.readouterr()
        flag = argv[-2]
        assert out == "" and err.startswith("usage: atk ")
        assert err.endswith(f"error: argument {flag}: invalid int value: {value!r}\n")

    def test_negative_power_keeps_its_refusal(self, tmp_path, capsys):
        path = tmp_path / "session.sr"
        path.write_text(SESSION)
        assert main(["atk", "--seq", "Z", "--power", "-1", "--input", str(path)]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err == "error: power must be nonnegative\n"

    @pytest.mark.parametrize("argv", [["ch", "--seq", "Z"], ["semireg", "--hom", "phi"]])
    def test_negative_k_names_the_flag(self, argv, tmp_path, capsys):
        path = tmp_path / "session.sr"
        path.write_text(SESSION)
        assert main([*argv, "--k", "-1", "--input", str(path)]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == "error: argument --k: component index must be nonnegative, got -1\n"

    def test_non_ascii_euler_n_is_two(self, capsys):
        assert main(["sff", "--preset", "euler:\u00b2"]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err == "error: euler needs a positive integer n, got '\u00b2'\n"

    @pytest.mark.parametrize("preset", ["eulerx", "euler2", "euler-3"])
    def test_preset_that_only_starts_with_euler_is_unknown(self, preset, capsys):
        """Only euler and euler:<n> name the Euler preset."""
        assert main(["sff", "--preset", preset]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err == f"error: unknown preset '{preset}'\n"

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["iclosure", "--ideal", "x^2", "--test", "y"],
             "argument --test: unknown name 'y' (line 1, col 1)"),
            (["iclosure", "--ideal", "x^2", "--test", "x^"],
             "argument --test: unexpected end of input (line 1, col 2)"),
            (["iclosure", "--ideal", "x^3,y^3", "--test", "2*x"], "argument --test: not a monomial: '2*x'"),
            (["iclosure", "--ideal", "x+y", "--test", "x"], "argument --ideal: not a monomial: 'x+y'"),
            (["curvdim", "--ideal", "1"], "argument --ideal: no variables found in ideal"),
            (["dimcheck", "--ideal", "x^"], "argument --ideal: unexpected end of input (line 1, col 2)"),
        ],
    )
    def test_monomial_flag_errors_name_the_flag(self, argv, message, capsys):
        assert main(argv) == 2
        out, err = capsys.readouterr()
        assert out == "" and err == f"error: {message}\n"

    @pytest.mark.parametrize("ideal", ["x^2,,y", ",x^2", "x^2,", "x, ,y"])
    @pytest.mark.parametrize("command", [["curvdim"], ["dimcheck"], ["iclosure", "--test", "x"]])
    def test_empty_generator_is_two(self, ideal, command, capsys):
        assert main([command[0], "--ideal", ideal, *command[1:]]) == 2
        out, err = capsys.readouterr()
        assert out == "" and "empty generator" in err


ROOT = Path(__file__).resolve().parents[1]
CLI_EXPECTED = ROOT / "perfbench" / "cli_expected.json"
CORPUS_GOLDEN = ROOT / "tests" / "golden" / "corpus.txt"
SELFTEST_GOLDEN = ROOT / "tests" / "golden" / "selftest.txt"
SFF_GOLDEN = ROOT / "tests" / "golden" / "sff.txt"
USAGE_GOLDEN = ROOT / "tests" / "golden" / "usage.txt"

# the commands that read a session file: those with an --input flag
READS_SESSION = {name for name, (_, _, flags) in COMMANDS.items()
                 if any(option == "--input" for option, _, _ in flags)}


def load_demo():
    """scripts/demo_session.py as a module: the demo SESSION and COMMANDS."""
    path = ROOT / "scripts" / "demo_session.py"
    spec = importlib.util.spec_from_file_location("demo_session", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestBlochFail:
    def test_flipped_mu_sign_is_a_fail(self, tmp_path, capsys, monkeypatch):
        """blochcmp's FAIL branch: with one term of mu negated, the routes
        differ, and the command prints FAIL and exits 1."""
        from atkernel import semireg
        from atkernel.koszul import NormalHom

        original = semireg.bloch_mu

        def flipped(phi):
            return original(NormalHom(phi.ideal, (-phi.values[0], *phi.values[1:])))

        monkeypatch.setattr(semireg, "bloch_mu", flipped)
        path = tmp_path / "s.sr"
        path.write_text(SESSION)
        assert main(["blochcmp", "--hom", "phi", "--input", str(path)]) == 1
        assert capsys.readouterr().out.splitlines()[-1] == "VERDICT: FAIL"


class TestDemoGolden:
    """The 13 demo commands, in process, against their recorded stdout."""

    def test_demo_commands_match_recorded_output(self, tmp_path, capsys):
        demo = load_demo()
        recorded = json.loads(CLI_EXPECTED.read_text())
        assert len(recorded) == 13
        assert {" ".join(command) for command in demo.COMMANDS} == set(recorded)
        path = tmp_path / "demo.sr"
        path.write_text(demo.SESSION)
        for command, expected in sorted(recorded.items()):
            argv = command.split()
            if argv[0] in READS_SESSION:
                argv += ["--input", str(path)]
            assert (main(argv), capsys.readouterr().out) == (0, expected), command


class TestSffGolden:
    def test_sff_presets_match_recorded_output(self, capsys):
        """`atk sff` on the recorded presets, in process: each block is the
        command line, its stdout and its exit code."""
        golden = SFF_GOLDEN.read_text()
        commands = re.findall(r"^\$ atk (sff --preset .*)$", golden, flags=re.M)
        assert len(commands) == 9
        out = []
        for command in commands:
            code = main(command.split(" ", 2))
            out.append(f"$ atk {command}\n{capsys.readouterr().out}exit {code}\n")
        assert "".join(out) == golden

    def test_hypersurface_builds_delta_once(self, capsys, monkeypatch):
        """The printed delta'' is the one compared with -pi''∘At."""
        from atkernel import ladder

        calls = []
        original = ladder.connecting_delta

        def counting(lad):
            calls.append(lad)
            return original(lad)

        monkeypatch.setattr(ladder, "connecting_delta", counting)
        assert main(["sff", "--preset", "hypersurface:x^2 - y*z"]) == 0
        assert "VERDICT: exact" in capsys.readouterr().out
        assert len(calls) == 1


COMMAND_NAMES = ("atk", "ch", "semireg", "blochcmp", "obstruct", "sff", "iclosure", "curvdim",
                 "dimcheck", "selftest")

# command lines that argparse answers: help, usage errors, and the accepted
# forms that are not plain (an abbreviation, a repeated flag, `=`)
ARGPARSE_ARGVS = [
    ["--help"],
    *([name, "--help"] for name in COMMAND_NAMES),
    ["transmogrify"],
    ["iclosure", "--ideal", "x^2"],
    ["blochcmp", "--ho", "phi", "--input", "demo.sr"],
    ["ch", "--seq", "W", "--seq", "Z", "--input", "demo.sr"],
    ["blochcmp", "--hom=phi", "--input", "demo.sr"],
    ["ch", "--seq", "Z", "--k", "\u0662", "--input", "demo.sr"],
    [],
]


def usage_block(argv, capsys) -> str:
    """`atk argv` in process: the command line, stdout, stderr and exit code."""
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    out, err = capsys.readouterr()
    return f"$ {' '.join(['atk', *argv])}\n{out}" + (f"stderr:\n{err}" if err else "") + f"exit {code}\n"


class TestUsageGolden:
    def test_help_and_usage_errors_match_recorded_output(self, tmp_path, capsys, monkeypatch):
        """Help, usage errors and the forms only argparse reads, at 80
        columns, against their recorded bytes."""
        monkeypatch.setenv("COLUMNS", "80")
        monkeypatch.chdir(tmp_path)
        (tmp_path / "demo.sr").write_text(load_demo().SESSION)
        out = "".join(usage_block(argv, capsys) for argv in ARGPARSE_ARGVS)
        assert out == USAGE_GOLDEN.read_text(encoding="utf-8")


def readme_argvs() -> list[list[str]]:
    """README's `atk` synopses as command lines: each placeholder filled in,
    each optional `[--flag v]` both given and left out, each `a | b` both."""
    fill = {"f.sr": "readme.sr", "k": "1", "d": "ddx", "euler[:n]": "euler:2",
            "hypersurface:<f>": "hypersurface:x^2"}
    argvs = []
    for line in re.findall(r"^    atk (.+?)(?:\s+#.*)?$", (ROOT / "README.md").read_text(), flags=re.M):
        variants = {re.sub(r"\[(--[^]]+)\]", r"\1", line), re.sub(r" \[--[^]]+\]", "", line)}
        variants = {re.sub(r"(\S+) \| (\S+)", rf"\{i}", v) for v in variants for i in (1, 2)}
        argvs += [[fill.get(token, token) for token in shlex.split(v)] for v in sorted(variants)]
    return argvs


def demo_argvs() -> list[list[str]]:
    return [[*argv, "--input", "demo.sr"] if argv[0] in READS_SESSION else list(argv)
            for argv in load_demo().COMMANDS]


def file_argvs() -> list[list[str]]:
    """Every list of string literals in this file that starts like a command line."""
    argvs = []
    for node in ast.walk(ast.parse(Path(__file__).read_text(encoding="utf-8"))):
        if isinstance(node, ast.List) and node.elts and all(
                isinstance(e, ast.Constant) and isinstance(e.value, str) for e in node.elts):
            argv = [e.value for e in node.elts]
            if argv[0] in COMMAND_NAMES or argv[0].startswith("-"):
                argvs.append(argv)
    return argvs


# values that argparse reads otherwise than as a plain value, or refuses
ODD_VALUES = ["-1", "\u0662", "9" * 5000, "-" + "9" * 5000, "1_0", " 2", "", "-h", "--seq", "x=1"]


def mutations(argv: list[str], rng: random.Random) -> list[list[str]]:
    """Seeded edits of a command line: a dropped, repeated or abbreviated
    flag, reordered pairs, the `=` form, `-h`, odd values and token counts."""
    pairs = [argv[i:i + 2] for i in range(1, len(argv) - 1, 2)]
    out = [argv[:-1], [*argv, rng.choice(argv)], [*argv[:1], "-h", *argv[1:]], [*argv, "--help"]]
    if pairs:
        i = rng.randrange(len(pairs))
        flag, value = pairs[i]
        shuffled = rng.sample(pairs, len(pairs))
        out += [
            [*argv[:1], *(t for j, p in enumerate(pairs) if j != i for t in p)],
            [*argv, flag, value],
            [*argv[:1], *(t for p in shuffled for t in p)],
            [*argv[:1], *(t for p in pairs[:i] for t in p), flag[:rng.randint(2, len(flag) - 1)],
             value, *(t for p in pairs[i + 1:] for t in p)],
            [*argv[:1], *(t for p in pairs[:i] for t in p), f"{flag}={value}",
             *(t for p in pairs[i + 1:] for t in p)],
        ]
        for odd in rng.sample(ODD_VALUES, 3):
            out.append([*argv[:1], *(t for j, p in enumerate(pairs) for t in (
                [p[0], odd] if j == i else p))])
        for int_flag in ("--k", "--power"):
            out.append([*argv, int_flag, rng.choice(["0", "3", *ODD_VALUES])])
    return out


class TestPlainArgs:
    """_plain_args against argparse: on every command line it returns None,
    which hands the line to argparse, or argparse's own namespace."""

    def test_demo_and_readme_lines_take_the_plain_path(self):
        argvs = demo_argvs() + readme_argvs()
        assert len(argvs) == 13 + 13  # README's ten synopses give 13 lines
        parser = build_parser()
        for argv in argvs:
            plain = _plain_args(argv)
            assert plain is not None, argv
            assert vars(plain) == vars(parser.parse_args(argv)), argv

    def test_argparse_lines_do_not(self):
        assert all(_plain_args(argv) is None for argv in ARGPARSE_ARGVS)

    def test_agrees_with_argparse_on_seeded_mutations(self):
        parser = build_parser()
        bases = demo_argvs() + readme_argvs() + file_argvs()
        argvs = [*bases, *(m for i, argv in enumerate(bases)
                           for m in mutations(argv, random.Random(f"plain-args:{i}")))]
        taken = 0
        for argv in argvs:
            plain = _plain_args(argv)
            if plain is not None:
                taken += 1
                assert vars(plain) == vars(parser.parse_args(argv)), argv
        assert len(bases) > 100 and 0.1 < taken / len(argvs) < 0.9


class TestSelftestGolden:
    def test_selftest_matches_recorded_output(self, capsys):
        """`atk selftest`, in process, against its recorded stdout."""
        assert main(["selftest"]) == 0
        assert capsys.readouterr().out == SELFTEST_GOLDEN.read_text()

    @staticmethod
    def semireg_misses_at(indices, monkeypatch):
        """Make the comparison of the listed draws of the semiregularity
        group fail; returns the list of calls."""
        from atkernel import selftest

        original = selftest.compare_semireg
        calls = []

        def fails_at(hom):
            report = original(hom)
            if len(calls) in indices:
                report.verdict = "fail"
            calls.append(hom)
            return report

        monkeypatch.setattr(selftest, "compare_semireg", fails_at)
        return calls

    @staticmethod
    def expect_row(line):
        """The golden selftest stdout with the semiregularity row replaced."""
        golden = SELFTEST_GOLDEN.read_text().splitlines()
        row = golden.index("both semiregularity routes agree: 24/24 ok")
        expected = [*golden[:-1], "selftest: FAIL"]
        expected[row] = line
        return expected

    def test_counted_miss_fails_its_group(self, capsys, monkeypatch):
        """One False verdict is counted in its group's line, which reads
        FAIL with the miss's index, and fails the selftest; every other
        line is unchanged."""
        calls = self.semireg_misses_at({0}, monkeypatch)
        assert main(["selftest"]) == 1
        expected = self.expect_row("both semiregularity routes agree: 23/24 FAIL (misses: 0)")
        assert capsys.readouterr().out.splitlines() == expected
        assert len(calls) == 24

    def test_miss_is_named_by_its_case_index(self, capsys, monkeypatch):
        calls = self.semireg_misses_at({3}, monkeypatch)
        assert main(["selftest"]) == 1
        expected = self.expect_row("both semiregularity routes agree: 23/24 FAIL (misses: 3)")
        assert capsys.readouterr().out.splitlines() == expected
        assert len(calls) == 24

    def test_only_the_first_five_misses_are_named(self, capsys, monkeypatch):
        self.semireg_misses_at({1, 3, 5, 7, 9, 11, 20}, monkeypatch)
        assert main(["selftest"]) == 1
        expected = self.expect_row(
            "both semiregularity routes agree: 17/24 FAIL (misses: 1, 3, 5, 7, 9, ...)")
        assert capsys.readouterr().out.splitlines() == expected

    def test_raising_group_is_one_miss(self, capsys, monkeypatch):
        """A group that raises is reported as a miss naming the group function
        and the exception; every other group still reports."""
        from atkernel import selftest

        def check_appendix_invariants(corpus):
            raise ValueError("refused draw")

        monkeypatch.setattr(selftest, "ALL_GROUPS", [*selftest.ALL_GROUPS[:-1],
                                                     check_appendix_invariants])
        assert main(["selftest"]) == 1
        golden = SELFTEST_GOLDEN.read_text().splitlines()
        assert golden[-2:] == ["integral closure invariants: 57/57 ok", "selftest: PASS"]
        assert capsys.readouterr().out.splitlines() == golden[:-2] + [
            "check_appendix_invariants raised ValueError: refused draw: 0/1 FAIL",
            "selftest: FAIL",
        ]


class TestCorpusGolden:
    def test_corpus_matches_recorded_output(self):
        """scripts/run_corpus.py against its recorded stdout, timings stripped."""
        out = subprocess.run(
            [sys.executable, str(ROOT / "scripts" / "run_corpus.py")],
            capture_output=True,
            text=True,
        )
        assert out.returncode == 0, out.stderr
        stripped = re.sub(r" \(\d+\.\d+s\)$", "", out.stdout, flags=re.M)
        assert stripped == CORPUS_GOLDEN.read_text()


class TestPowerBound:
    @pytest.mark.parametrize(
        "argv, expected",
        [
            (["atk", "--seq", "Z", "--power", "100000000"],
             "map at^100000000 {\n  degree 100000000;\n  formdeg 2;\n}\n"),
            (["ch", "--seq", "Z", "--k", "100000000"], "0\n"),
            (["semireg", "--hom", "phi", "--k", "100000000"], "0\n"),
        ],
    )
    def test_huge_power_returns_at_once(self, argv, expected, tmp_path, capsys):
        path = tmp_path / "session.sr"
        path.write_text(SESSION)
        start = time.perf_counter()
        code = main([*argv, "--input", str(path)])
        assert time.perf_counter() - start < 1.0
        assert code == 0
        assert capsys.readouterr().out == expected

    def test_power_beyond_length_prints_zero_map(self, tmp_path):
        # q + 1 = 3 for Z = x ; y: the bytes the k-fold composition printed
        out = run_cli(["atk", "--seq", "Z", "--power", "3"], SESSION, tmp_path)
        assert out.returncode == 0
        assert out.stdout == "map at^3 {\n  degree 3;\n  formdeg 2;\n}\n"


class TestOneKoszulBuild:
    @pytest.mark.parametrize(
        "argv",
        [["ch", "--seq", "Z"], ["blochcmp", "--hom", "phi"], ["semireg", "--hom", "phi", "--k", "1"]],
    )
    def test_command_builds_the_complex_once(self, argv, tmp_path, monkeypatch, capsys):
        # Z = x ; y is graded with q = 2, so the regularity guard runs too;
        # every build_koszul call on the session's ideal shares one build
        built = []
        real = koszul._build_koszul

        def counting(ideal):
            built.append(ideal)
            return real(ideal)

        monkeypatch.setattr(koszul, "_build_koszul", counting)
        path = tmp_path / "session.sr"
        path.write_text(SESSION)
        assert main([*argv, "--input", str(path)]) == 0
        assert capsys.readouterr().out
        assert len(built) == 1


# dataclasses pulls in inspect, ast, dis and tokenize; the library uses neither
HEAVY_STDLIB = {"dataclasses", "inspect"}
# argparse and what it imports; a well-formed command line loads none of them
ARGPARSE_STDLIB = {"argparse", "gettext", "locale"}
LISTS_MODULES = (
    "import sys\n{body}\n"
    "print(' '.join(m for m in sorted(sys.modules)"
    " if m.split('.')[0] in ('atkernel', 'dataclasses', 'inspect', 'argparse', 'gettext', 'locale')))"
)


def loaded_modules(body: str) -> set[str]:
    """The atkernel modules a fresh interpreter holds after running body."""
    out = subprocess.run(
        [sys.executable, "-c", LISTS_MODULES.format(body=body)],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": str(SRC)},
    )
    assert out.returncode == 0, out.stderr
    return set(out.stdout.splitlines()[-1].split())


class TestImportSurface:
    """Each command imports only the modules it runs."""

    def test_package_loads_no_submodule(self):
        assert loaded_modules("import atkernel") == {"atkernel"}

    @pytest.mark.parametrize(
        "argv",
        [["iclosure", "--ideal", "x^3,y^3", "--test", "x^2*y"], ["curvdim", "--ideal", "x^2"],
         ["dimcheck", "--ideal", "x^2,x*y,y^2"]],
    )
    def test_monomial_commands(self, argv):
        loaded = loaded_modules(f"from atkernel.cli import main\nmain({argv!r})")
        allowed = {"atkernel", "atkernel.cli", "atkernel.integraldep", "atkernel.polyforms"}
        # only dimcheck takes a dimension, and that lives in groebner
        if argv[0] == "dimcheck":
            allowed.add("atkernel.groebner")
        assert "atkernel.integraldep" in loaded and loaded == allowed
        assert not loaded & HEAVY_STDLIB

    @pytest.mark.parametrize("argv", [["ch", "--seq", "Z"], ["blochcmp", "--hom", "phi"]])
    def test_session_commands(self, argv, tmp_path):
        path = tmp_path / "session.sr"
        path.write_text(SESSION)
        argv = [*argv, "--input", str(path)]
        loaded = loaded_modules(f"from atkernel.cli import main\nassert main({argv!r}) == 0")
        assert {"atkernel.semireg", "atkernel.groebner"} <= loaded
        unused = {"atkernel.integraldep", "atkernel.ladder", "atkernel.corpus", "atkernel.selftest"}
        assert not loaded & unused
        assert not loaded & HEAVY_STDLIB

    @pytest.mark.parametrize(
        "argv",
        [["atk", "--seq", "Z", "--power", "1"], ["obstruct", "--seq", "Z", "--derivation", "ddx"]],
    )
    def test_resolution_commands_skip_the_semiregularity_modules(self, argv, tmp_path):
        path = tmp_path / "session.sr"
        path.write_text(SESSION)
        argv = [*argv, "--input", str(path)]
        loaded = loaded_modules(f"from atkernel.cli import main\nassert main({argv!r}) == 0")
        assert {"atkernel.atiyah", "atkernel.groebner"} <= loaded
        assert not loaded & {"atkernel.semireg", "atkernel.cousin", "atkernel.integraldep",
                             *HEAVY_STDLIB}

    @pytest.mark.parametrize(
        "argv",
        [["ch", "--seq", "Z"], ["blochcmp", "--hom", "phi"], ["semireg", "--hom", "phi"],
         ["atk", "--seq", "Z", "--power", "1"], ["obstruct", "--seq", "Z", "--derivation", "ddx"]],
    )
    def test_session_commands_skip_the_solver(self, argv, tmp_path):
        """No session command decides a coboundary, so none loads the solver."""
        path = tmp_path / "session.sr"
        path.write_text(SESSION)
        argv = [*argv, "--input", str(path)]
        loaded = loaded_modules(f"from atkernel.cli import main\nassert main({argv!r}) == 0")
        assert "atkernel.chaincore" in loaded
        assert not loaded & {"atkernel.coboundary", "atkernel.linalg"}

    @pytest.mark.parametrize("preset", ["euler", "hypersurface:x^2"])
    def test_sff_skips_the_solver_and_selftest(self, preset):
        argv = ["sff", "--preset", preset]
        loaded = loaded_modules(f"from atkernel.cli import main\nassert main({argv!r}) == 0")
        assert "atkernel.ladder" in loaded
        assert not loaded & {"atkernel.coboundary", "atkernel.linalg", "atkernel.selftest"}

    # the source lines of the library modules that a fresh `ch` process
    # loads, and so compiles when it finds no bytecode cache; they were
    # 3,041 while both coboundary decisions, shifts, cones, the complex
    # text format and the dual basis maps sat in the modules `ch` imports
    CH_LINES_BEFORE = 3041
    CH_LINES = 2465

    def test_ch_loads_at_most_its_line_budget(self, tmp_path):
        path = tmp_path / "session.sr"
        path.write_text(SESSION)
        argv = ["ch", "--seq", "Z", "--input", str(path)]
        loaded = loaded_modules(f"from atkernel.cli import main\nassert main({argv!r}) == 0")
        files = [SRC / "atkernel" / f"{(m.split('.')[1:] or ['__init__'])[0]}.py"
                 for m in loaded if m.split(".")[0] == "atkernel"]
        lines = sum(len(f.read_text().splitlines()) for f in files)
        assert lines <= self.CH_LINES < self.CH_LINES_BEFORE

    @pytest.mark.parametrize(
        "argv",
        [["ch", "--seq", "Z"], ["blochcmp", "--hom", "phi"], ["semireg", "--hom", "phi", "--k", "1"],
         ["atk", "--seq", "Z", "--power", "2"], ["obstruct", "--seq", "Z", "--derivation", "ddx"],
         ["sff", "--preset", "euler"], ["iclosure", "--ideal", "x^3,y^3", "--test", "x^2*y"],
         ["curvdim", "--ideal", "x^2"], ["dimcheck", "--ideal", "x*y"], ["selftest"]],
    )
    def test_well_formed_command_loads_no_argparse(self, argv, tmp_path):
        path = tmp_path / "session.sr"
        path.write_text(SESSION)
        if argv[0] in READS_SESSION:
            argv = [*argv, "--input", str(path)]
        loaded = loaded_modules(f"from atkernel.cli import main\nassert main({argv!r}) == 0")
        assert "atkernel.cli" in loaded and not loaded & ARGPARSE_STDLIB

    @pytest.mark.parametrize("argv", [["ch", "--help"], ["ch", "--seq", "Z", "--k", "\u0662"]])
    def test_help_and_usage_errors_load_argparse(self, argv):
        body = f"from atkernel.cli import main\ntry:\n    main({argv!r})\nexcept SystemExit:\n    pass"
        assert ARGPARSE_STDLIB <= loaded_modules(body)

    def test_whole_library_loads_no_dataclasses(self):
        loaded = loaded_modules("import atkernel.selftest")
        assert "atkernel.semireg" in loaded and "atkernel.integraldep" in loaded
        assert not loaded & HEAVY_STDLIB


# the library modules whose names the benchmark imports
BENCHMARK_MODULES = ("atkernel.chaincore", "atkernel.cousin", "atkernel.atiyah", "atkernel.semireg")

# decides, through the benchmark's names, a coboundary, a cocycle that is
# not one (At on K(x, y)) and a Cousin class that is not zero (ch_2)
DECIDE = """
from atkernel.koszul import RegularSequenceIdeal, build_koszul
from atkernel.polyforms import Form, Poly
ideal = RegularSequenceIdeal(2, (Poly.variable(2, 0), Poly.variable(2, 1)), (1, 1))
cx = build_koszul(ideal).complex
h = ChainMap(cx, cx, 0, 1, {-1: {0: {0: Form(2, 1, {(1,): Poly.variable(2, 0)})}}})
c = hom_bracket(h)
report = solve_coboundary(c)
assert not c.is_zero() and hom_bracket(report.witness) == c
at = atiyah_power(atiyah_cocycle(cx), 1).chain_map
print(report.solvable, solve_coboundary(at).solvable,
      cousin_coboundary_solve(chern_character(ideal, ideal.q)))
"""


def benchmark_imports() -> dict[str, set[str]]:
    """The names that perfbench/cases.py and perfbench/oracles.py import
    from each of BENCHMARK_MODULES, wherever the import statement sits."""
    names = {module: set() for module in BENCHMARK_MODULES}
    for path in (ROOT / "perfbench" / "cases.py", ROOT / "perfbench" / "oracles.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and node.module in names:
                names[node.module].update(alias.name for alias in node.names)
    return names


class TestBenchmarkImports:
    """The benchmark imports library names from where they were when it was
    written; they must stay there, each working."""

    def test_names_import_and_decide_in_a_fresh_process(self):
        names = benchmark_imports()
        assert {"ChainMap", "compose", "hom_bracket", "monomials_of_weighted_degree",
                "solve_coboundary"} <= names["atkernel.chaincore"]
        assert {"cousin_coboundary_solve", "local_trace"} <= names["atkernel.cousin"]
        assert {"atiyah_cocycle", "atiyah_power"} <= names["atkernel.atiyah"]
        assert "chern_character" in names["atkernel.semireg"]
        imports = "".join(f"from {module} import {', '.join(sorted(ns))}\n"
                          for module, ns in names.items())
        out = subprocess.run([sys.executable, "-c", imports + DECIDE], capture_output=True,
                             text=True, env={**os.environ, "PYTHONPATH": str(SRC)})
        assert out.returncode == 0, out.stderr
        assert out.stdout == "True False None\n"
