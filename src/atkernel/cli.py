"""Command-line front end: parse a session file, dispatch, print verdicts.

Exit codes: 0 on success, 1 when a comparison reports FAIL or a selftest
group misses, 2 on usage, parse, or semantic errors and unreadable input.
All numeric output is exact rational text.

Library modules are imported inside the handlers, so an `atk` process
loads (and, without a bytecode cache, compiles) only what its command runs;
this module holds only dispatch and printing (the `sff` presets live in
ladder, the monomial-ideal parser in integraldep).  The value classes are
plain slotted classes, so no command loads `inspect`.
Commands that build a Koszul resolution exit 2 with no output when the exact
regularity guard, koszul.verify_regular, refuses or exceeds its work bound.
"""
from __future__ import annotations

import argparse
import re
import sys


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
    from .session import SessionError

    if name not in table:
        raise SessionError(f"argument {flag}: unknown {kind} {name!r}")
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
    from .session import SessionError, parse_derivation

    if text in session.derivations:
        return session.derivations[text]
    if ":" not in text:
        raise SessionError(f"argument --derivation: unknown derivation {text!r}")
    try:
        return parse_derivation(text, session.var_names)
    except SessionError as exc:
        raise SessionError(f"argument --derivation: {exc}") from None


def _component_index(args, default: int) -> int:
    """The component that --k names, or the command's default."""
    from .session import SessionError

    if args.k is None:
        return default
    if args.k < 0:
        raise SessionError(f"argument --k: component index must be nonnegative, got {args.k}")
    return args.k


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

    ideal, names = monomial_ideal_from_text(args.ideal)
    cert = closure_member(ideal, monomial_exponent(args.test, names))
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

    ideal, _ = monomial_ideal_from_text(args.ideal)
    print(curvilinear_dim(ideal))
    return 0


def _cmd_dimcheck(args) -> int:
    from .integraldep import dim_bound_check, monomial_ideal_from_text

    ideal, _ = monomial_ideal_from_text(args.ideal)
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
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}")
    if excess := digit_excess(text):
        raise argparse.ArgumentTypeError(f"invalid int value of {excess}")
    return int(text)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="atk",
        description="exact kernel for cocycle-level characteristic class identities",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, *, seq=False, hom=False, derivation=False, k=False, power=False):
        p.add_argument("--input", help="session file")
        if seq:
            p.add_argument("--seq", required=True, help="sequence name")
        if hom:
            p.add_argument("--hom", required=True, help="normal hom name")
        if derivation:
            p.add_argument("--derivation", help="derivation name")
        if k:
            p.add_argument("--k", type=_ascii_int, default=None, help="component index")
        if power:
            p.add_argument("--power", type=_ascii_int, default=1, help="cocycle power")

    p = sub.add_parser("atk", help="print cocycle power matrices")
    add_common(p, seq=True, derivation=True, power=True)
    p.set_defaults(func=_cmd_atk)

    p = sub.add_parser("ch", help="chern character component")
    add_common(p, seq=True, k=True)
    p.set_defaults(func=_cmd_ch)

    p = sub.add_parser("semireg", help="semiregularity component of a hom")
    add_common(p, hom=True, k=True)
    p.set_defaults(func=_cmd_semireg)

    p = sub.add_parser("blochcmp", help="compare both semiregularity routes")
    add_common(p, hom=True)
    p.set_defaults(func=_cmd_blochcmp)

    p = sub.add_parser("obstruct", help="obstruction cocycle of a derivation")
    p.add_argument("--input")
    p.add_argument("--seq", required=True)
    p.add_argument("--derivation", required=True)
    p.set_defaults(func=_cmd_obstruct)

    p = sub.add_parser("sff", help="second fundamental form presets")
    p.add_argument("--preset", required=True, help="euler[:n] or hypersurface:<f>")
    p.set_defaults(func=_cmd_sff)

    p = sub.add_parser("iclosure", help="integral closure membership")
    p.add_argument("--ideal", required=True, help="comma-separated monomials")
    p.add_argument("--test", required=True, help="monomial to test")
    p.set_defaults(func=_cmd_iclosure)

    p = sub.add_parser("curvdim", help="curvilinear extension dimension")
    p.add_argument("--ideal", required=True)
    p.set_defaults(func=_cmd_curvdim)

    p = sub.add_parser("dimcheck", help="dimension bound report")
    p.add_argument("--ideal", required=True)
    p.set_defaults(func=_cmd_dimcheck)

    p = sub.add_parser("selftest", help="run the invariant corpus")
    p.set_defaults(func=_cmd_selftest)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:  # every library error is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
