"""Command-line front end: parse a session file, dispatch, print verdicts.

Exit codes: 0 on success, 1 when a comparison reports FAIL or a selftest
group misses, 2 on usage, parse, or semantic errors and unreadable input,
where a refused flag value names its flag.  Numbers print as exact rationals.

COMMANDS holds every command and flag.  _plain_args reads a well-formed
command line from it without loading argparse; build_parser builds from it
the parser that reads any other line and prints help and usage errors.
Handlers import the library modules they run, so a process loads (and,
without a bytecode cache, compiles) only what its command runs.  Commands
that build a Koszul resolution exit 2 with no output when the regularity
guard, koszul.verify_regular, refuses or exceeds its work bound.
"""
from __future__ import annotations

import re
import sys
from types import SimpleNamespace


def _load_session(path: str | None):
    from .session import SessionError, parse_session

    if path is None:
        raise SessionError("this command needs --input <session file>")
    with open(path, "r", encoding="utf-8") as fh:
        return parse_session(fh.read())


def _guarded_koszul(ideal):
    """Run the regularity guard, then build the resolution once.

    The guard is exact and runs on every sequence of length at least two,
    graded or not; a single nonzero entry is always regular.  Later
    build_koszul calls on the same ideal return the same complex.
    """
    from .koszul import build_koszul, verify_regular
    from .session import SessionError

    if ideal.q >= 2 and not verify_regular(ideal):
        raise SessionError("sequence failed the regularity guard")
    return build_koszul(ideal)


def _named(table: dict, kind: str, flag: str, name: str):
    """The session entry that a command-line flag names."""
    if name not in table:
        raise ValueError(f"argument {flag}: unknown {kind} {name!r}")
    return table[name]


def _cmd_atk(args) -> int:
    from .atiyah import atiyah_cocycle, atiyah_power, contract_derivation
    from .chaincore import map_to_text

    session = _load_session(args.input)
    ideal = _named(session.sequences, "sequence", "--seq", args.seq)
    kz = _guarded_koszul(ideal)
    at = atiyah_power(atiyah_cocycle(kz.complex), args.power)
    result = at.chain_map
    label = f"at^{args.power}"
    if args.derivation:
        deriv = _resolve_derivation(session, args.derivation)
        result = contract_derivation(deriv, result)
        label = f"contract({args.derivation}, {label})"
    print(map_to_text(result, label, session.var_names))
    return 0


def _resolve_derivation(session, text: str):
    """A named derivation, or an inline literal in the `der` grammar."""
    from .session import parse_derivation

    if text in session.derivations:
        return session.derivations[text]
    if ":" not in text:
        raise ValueError(f"argument --derivation: unknown derivation {text!r}")
    return _flag_value("--derivation", parse_derivation, text, session.var_names)


def _flag_value(flag: str, parse, *args):
    """parse(*args), with a refusal prefixed by the flag whose value it reads."""
    try:
        return parse(*args)
    except ValueError as exc:
        raise ValueError(f"argument {flag}: {exc}") from None


def _component_index(args, default: int) -> int:
    """The component that --k names, or the command's default."""
    if args.k is not None and args.k < 0:
        raise ValueError(f"argument --k: component index must be nonnegative, got {args.k}")
    return default if args.k is None else args.k


def _cmd_ch(args) -> int:
    from .cousin import cousin_to_text
    from .semireg import chern_character

    session = _load_session(args.input)
    ideal = _named(session.sequences, "sequence", "--seq", args.seq)
    k = _component_index(args, ideal.q)
    _guarded_koszul(ideal)
    out = chern_character(ideal, k)
    print(cousin_to_text(out, session.var_names))
    return 0


def _cmd_semireg(args) -> int:
    from .cousin import cousin_to_text
    from .semireg import ext1_representative, sigma_component

    session = _load_session(args.input)
    hom = _named(session.homs, "hom", "--hom", args.hom)
    k = _component_index(args, hom.ideal.q - 1)
    kz = _guarded_koszul(hom.ideal)
    rep = ext1_representative(hom, kz)
    out = sigma_component(rep, k, kz)
    print(cousin_to_text(out, session.var_names))
    return 0


def _cmd_blochcmp(args) -> int:
    from .cousin import cousin_to_text
    from .semireg import compare_semireg

    session = _load_session(args.input)
    hom = _named(session.homs, "hom", "--hom", args.hom)
    _guarded_koszul(hom.ideal)
    report = compare_semireg(hom)
    print(f"mu:  {cousin_to_text(report.mu_route, session.var_names)}")
    print(f"tau: {cousin_to_text(report.atiyah_route, session.var_names)}")
    exact = report.verdict == "representative-exact"
    print(f"VERDICT: {'exact' if exact else 'FAIL'}")
    return 0 if exact else 1


def _cmd_obstruct(args) -> int:
    from .atiyah import atiyah_cocycle, contract_derivation, obstruction_cocycle
    from .chaincore import map_to_text

    session = _load_session(args.input)
    ideal = _named(session.sequences, "sequence", "--seq", args.seq)
    deriv = _resolve_derivation(session, args.derivation)
    kz = _guarded_koszul(ideal)
    ob = obstruction_cocycle(kz, deriv)
    print(map_to_text(ob, "obstruction", session.var_names))
    contracted = contract_derivation(deriv, atiyah_cocycle(kz.complex))
    agree = ob == contracted
    print(f"VERDICT: {'exact' if agree else 'FAIL'}")
    return 0 if agree else 1


def _cmd_sff(args) -> int:
    from .ladder import sff_preset

    lines, good = sff_preset(args.preset)
    print("\n".join(lines))
    return 0 if good else 1


def _cmd_iclosure(args) -> int:
    from .integraldep import closure_member, monomial_exponent, monomial_ideal_from_text

    ideal, names = _flag_value("--ideal", monomial_ideal_from_text, args.ideal)
    cert = closure_member(ideal, _flag_value("--test", monomial_exponent, args.test, names))
    if cert.verdict:
        lam = ", ".join(str(v) for v in cert.lambdas)
        slack = ", ".join(str(v) for v in cert.slack)
        print(f"YES lambda=({lam}) slack=({slack})")
    else:
        sep = ", ".join(str(v) for v in cert.separator)
        print(f"NO separator=({sep}) threshold={cert.threshold}")
    return 0


def _cmd_curvdim(args) -> int:
    from .integraldep import curvilinear_dim, monomial_ideal_from_text

    ideal, _ = _flag_value("--ideal", monomial_ideal_from_text, args.ideal)
    print(curvilinear_dim(ideal))
    return 0


def _cmd_dimcheck(args) -> int:
    from .integraldep import dim_bound_check, monomial_ideal_from_text

    ideal, _ = _flag_value("--ideal", monomial_ideal_from_text, args.ideal)
    report = dim_bound_check(ideal)
    print(
        f"dim = {report.dim_quotient}; bound = {report.bound}; "
        f"curvilinear = {report.curv_dim}; holds: {'yes' if report.holds else 'NO'}"
    )
    return 0 if report.holds else 1


def _cmd_selftest(args) -> int:
    from .selftest import run_selftest

    results, all_pass = run_selftest()
    for name, passed, total, misses in results:
        status = "ok" if passed == total else "FAIL"
        if misses:  # the first five case indices, in yield order
            status += f" (misses: {', '.join(map(str, misses[:5]))}{', ...' * (len(misses) > 5)})"
        print(f"{name}: {passed}/{total} {status}")
    print(f"selftest: {'PASS' if all_pass else 'FAIL'}")
    return 0 if all_pass else 1


def _ascii_int(text: str) -> int:
    from .polyforms import digit_excess

    if not re.fullmatch("-?[0-9]+", text):  # int() also takes '٢', '1_0' and spaces
        message = f"invalid int value: {text!r}"
    elif excess := digit_excess(text):
        message = f"invalid int value of {excess}"
    else:
        return int(text)
    import argparse

    raise argparse.ArgumentTypeError(message)


# The one command table, read by build_parser and _plain_args: per command its
# handler, help and flags (option, required, help or None).  INT_FLAGS holds the
# integer flags, read by _ascii_int, and their defaults; others default to None.
INT_FLAGS = {"--k": None, "--power": 1}
_INPUT, _K = ("--input", False, "session file"), ("--k", False, "component index")
_SEQ, _HOM = ("--seq", True, "sequence name"), ("--hom", True, "normal hom name")
COMMANDS = {
    "atk": (_cmd_atk, "print cocycle power matrices",
            (_INPUT, _SEQ, ("--derivation", False, "derivation name"),
             ("--power", False, "cocycle power"))),
    "ch": (_cmd_ch, "chern character component", (_INPUT, _SEQ, _K)),
    "semireg": (_cmd_semireg, "semiregularity component of a hom", (_INPUT, _HOM, _K)),
    "blochcmp": (_cmd_blochcmp, "compare both semiregularity routes", (_INPUT, _HOM)),
    "obstruct": (_cmd_obstruct, "obstruction cocycle of a derivation",
                 (("--input", False, None), ("--seq", True, None), ("--derivation", True, None))),
    "sff": (_cmd_sff, "second fundamental form presets",
            (("--preset", True, "euler[:n] or hypersurface:<f>"),)),
    "iclosure": (_cmd_iclosure, "integral closure membership",
                 (("--ideal", True, "comma-separated monomials"), ("--test", True, "monomial to test"))),
    "curvdim": (_cmd_curvdim, "curvilinear extension dimension", (("--ideal", True, None),)),
    "dimcheck": (_cmd_dimcheck, "dimension bound report", (("--ideal", True, None),)),
    "selftest": (_cmd_selftest, "run the invariant corpus", ()),
}


def build_parser():
    import argparse

    parser = argparse.ArgumentParser(
        prog="atk", description="exact kernel for cocycle-level characteristic class identities")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (func, text, flags) in COMMANDS.items():
        p = sub.add_parser(name, help=text)
        for option, required, help_text in flags:
            typed = {"type": _ascii_int, "default": INT_FLAGS[option]} if option in INT_FLAGS else {}
            p.add_argument(option, required=required, help=help_text, **typed)
        p.set_defaults(func=func)
    return parser


def _plain_args(argv):
    """argparse's namespace for a plain command line: an exact command name,
    then `--flag value` pairs of its own flags, spelled out and given once,
    with no value starting with '-', every required flag and valid integers.
    None for any other command line, which argparse then reads."""
    if not argv or argv[0] not in COMMANDS:
        return None
    func, _, flags = COMMANDS[argv[0]]
    required = {option: needed for option, needed, _ in flags}
    given = dict(zip(argv[1::2], argv[2::2]))
    if (len(argv) != 2 * len(given) + 1 or not given.keys() <= required.keys()
            or any(value.startswith("-") for value in given.values())
            or any(needed and option not in given for option, needed in required.items())):
        return None
    args = {option[2:]: INT_FLAGS.get(option) for option in required}
    for option, value in given.items():
        try:
            args[option[2:]] = _ascii_int(value) if option in INT_FLAGS else value
        except Exception:  # argparse's ArgumentTypeError, which argparse reports
            return None
    return SimpleNamespace(command=argv[0], func=func, **args)


def main(argv=None) -> int:
    args = _plain_args(sys.argv[1:] if argv is None else argv) or build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:  # every library error is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
