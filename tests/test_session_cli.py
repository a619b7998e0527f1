"""Session parsing and the command-line surface, including exit codes."""
import importlib.util
import json
import os
import re
import subprocess
import sys
import time
from pathlib import Path

import pytest

from atkernel import groebner, koszul
from atkernel.chaincore import parse_complex
from atkernel.cli import _resolve_derivation, main
from atkernel.polyforms import parse_poly
from atkernel.session import SessionError, parse_session

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
        seq_name, phi = s.homs["phi"]
        assert seq_name == "Z" and phi.values[0] == parse_poly("1", ("x", "y"))
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


class TestUsageMessages:
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


def load_demo():
    """scripts/demo_session.py as a module: the demo SESSION and COMMANDS."""
    path = ROOT / "scripts" / "demo_session.py"
    spec = importlib.util.spec_from_file_location("demo_session", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


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
            if argv[0] not in ("sff", "iclosure", "curvdim", "dimcheck"):
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


class TestSelftestGolden:
    def test_selftest_matches_recorded_output(self, capsys):
        """`atk selftest`, in process, against its recorded stdout."""
        assert main(["selftest"]) == 0
        assert capsys.readouterr().out == SELFTEST_GOLDEN.read_text()


    def test_raising_group_is_one_miss(self, capsys, monkeypatch):
        """A group that raises is reported as a miss naming the group function
        and the exception; every other group still reports."""
        from atkernel import selftest

        def check_appendix_invariants():
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
LISTS_MODULES = (
    "import sys\n{body}\n"
    "print(' '.join(m for m in sorted(sys.modules)"
    " if m.split('.')[0] in ('atkernel', 'dataclasses', 'inspect')))"
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
        allowed = {"atkernel", "atkernel.cli", "atkernel.integraldep", "atkernel.linalg",
                   "atkernel.polyforms"}
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

    def test_whole_library_loads_no_dataclasses(self):
        loaded = loaded_modules("import atkernel.selftest")
        assert "atkernel.semireg" in loaded and "atkernel.integraldep" in loaded
        assert not loaded & HEAVY_STDLIB
