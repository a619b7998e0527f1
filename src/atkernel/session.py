"""Line-based session files naming rings, sequences, homs, and derivations.

Grammar, one declaration per line, `#` comments:

    ring Q[x, y:2, z]
    seq Z = x^2 - y*z ; y^2 - x*z
    hom phi on Z = 1 ; 0
    der dx = x: 1, y: 0, z: 0

Weights default to 1; a sequence that is inhomogeneous for the declared
weights is kept ungraded (graded-only operations will refuse it).
"""
from __future__ import annotations

from .atiyah import DerivationSpec
from .chaincore import GradingError
from .koszul import NormalHom, RegularSequenceIdeal
from .polyforms import Poly, digit_excess, parse_poly, parse_ring


class SessionError(ValueError):
    """A bad session file (with its line number) or a bad command-line value."""

    def __init__(self, message: str, line: int | None = None):
        super().__init__(message if line is None else f"{message} (line {line})")
        self.line = line


class SessionFile:
    __slots__ = ("var_names", "var_weights", "sequences", "homs", "derivations")

    def __init__(self):
        self.var_names: tuple[str, ...] = ()
        self.var_weights: tuple[int, ...] = ()
        self.sequences: dict[str, RegularSequenceIdeal] = {}
        self.homs: dict[str, NormalHom] = {}
        self.derivations: dict[str, DerivationSpec] = {}

    @property
    def n(self) -> int:
        return len(self.var_names)


def parse_derivation(body: str, names: tuple[str, ...]) -> DerivationSpec:
    """The derivation `x: g1, y: g2` over the variables `names`.

    Chunks are comma-separated `var: poly`; empty chunks are skipped,
    unnamed variables map to zero and a variable named twice is refused.
    """
    values: dict[str, Poly] = {}
    for chunk in body.split(","):
        chunk = chunk.strip()
        if not chunk:
            continue
        var, _, expr = chunk.partition(":")
        var = var.strip()
        if var not in names:
            raise SessionError(f"unknown variable {var!r} in derivation")
        if var in values:
            raise SessionError(f"variable {var!r} given twice in derivation")
        try:
            values[var] = parse_poly(expr.strip(), names)
        except ValueError as exc:  # a ParseError, or a product past the degree ceiling
            raise SessionError(f"bad polynomial in derivation: {exc}") from None
    return DerivationSpec(tuple(values.get(v, Poly.zero(len(names))) for v in names))


def _poly_list(body: str, names: tuple[str, ...], empty: str, lineno: int) -> tuple[Poly, ...]:
    """The `;`-separated polynomials of a `seq` or `hom` line."""
    polys = []
    for chunk in body.split(";"):
        chunk = chunk.strip()
        if not chunk:
            raise SessionError(empty, lineno)
        try:
            polys.append(parse_poly(chunk, names))
        except ValueError as exc:  # a ParseError, or a product past the degree ceiling
            raise SessionError(f"bad polynomial {chunk!r}: {exc}", lineno) from None
    return tuple(polys)


def parse_session(text: str) -> SessionFile:
    session = SessionFile()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if excess := digit_excess(line):
            raise SessionError(f"integer of {excess}", lineno)
        head, _, rest = line.partition(" ")
        if head == "ring":
            if session.var_names:
                raise SessionError("ring already declared", lineno)
            try:
                session.var_names, session.var_weights = parse_ring(rest)
            except ValueError as exc:
                raise SessionError(str(exc), lineno) from None
            continue
        if not session.var_names:
            raise SessionError("ring must be declared before anything else", lineno)
        if head == "seq":
            name, _, body = rest.partition("=")
            name = name.strip()
            if not name.isidentifier() or not body.strip():
                raise SessionError("expected `seq <name> = f1 ; f2`", lineno)
            if name in session.sequences:
                raise SessionError(f"sequence {name!r} redeclared", lineno)
            polys = _poly_list(body, session.var_names, "empty polynomial in sequence", lineno)
            try:
                ideal = RegularSequenceIdeal(session.n, polys, session.var_weights)
            except GradingError:
                ideal = RegularSequenceIdeal(session.n, polys, None)
            except ValueError as exc:
                raise SessionError(str(exc), lineno) from None
            session.sequences[name] = ideal
        elif head == "hom":
            name, _, tail = rest.partition(" on ")
            name = name.strip()
            seq_name, _, body = tail.partition("=")
            seq_name = seq_name.strip()
            if not name.isidentifier() or not seq_name:
                raise SessionError("expected `hom <name> on <seq> = g1 ; g2`", lineno)
            if name in session.homs:
                raise SessionError(f"hom {name!r} redeclared", lineno)
            if seq_name not in session.sequences:
                raise SessionError(f"undeclared sequence {seq_name!r}", lineno)
            ideal = session.sequences[seq_name]
            values = _poly_list(body, session.var_names, "empty value in hom", lineno)
            if len(values) != ideal.q:
                raise SessionError(
                    f"hom needs {ideal.q} values for sequence {seq_name!r}", lineno
                )
            session.homs[name] = NormalHom(ideal, values)
        elif head == "der":
            name, _, body = rest.partition("=")
            name = name.strip()
            if not name.isidentifier() or not body.strip():
                raise SessionError("expected `der <name> = x: g1, y: g2`", lineno)
            if name in session.derivations:
                raise SessionError(f"derivation {name!r} redeclared", lineno)
            try:
                session.derivations[name] = parse_derivation(body, session.var_names)
            except SessionError as exc:
                raise SessionError(str(exc), lineno) from None
        else:
            raise SessionError(f"unknown declaration {head!r}", lineno)
    return session
