"""Seeded fuzz of the session commands, in process through `cli.main`.

Each case is a generated session (a valid ring, a sequence, homs and a
derivation, sometimes mutated as text) and one command with a flag value
from -1, 0, q, q + 1 and 10^8. Every case must end in exit 0, 1 or 2 with
no exception escaping `main`, print the same stdout when run again, and
answer within a 10 s alarm. Every `blochcmp` that reaches a verdict must
print `VERDICT: exact`, since tau = mu literally. A failing case is named
by its index; its seed is `cli-fuzz:<index>`.
"""
import contextlib
import io
import random
import signal

from atkernel.cli import main

CASES = 200
BUDGET_S = 10
NAMES = ("x", "y", "z")
MUTATION_CHARS = "xyzQ0123456789^*+-/;:,=#[] \n"


class CaseTimeout(Exception):
    pass


def _raise_timeout(signum, frame):
    raise CaseTimeout


def _poly(rng, names, max_degree, constant=True, lead=True):
    """Up to three terms with small rational coefficients.  With
    constant=False every term has a variable; with lead=False the text
    starts with a binary sign, to be appended to another polynomial."""
    text = ""
    for k in range(rng.randint(1, 3)):
        coeff = rng.choice(("1", "2", "-1", "-3", "1/2"))
        powers = [f"{v}^{rng.randint(1, max_degree)}" for v in names if rng.random() < 0.4]
        if not powers and not constant:
            powers = [rng.choice(names)]
        neg = coeff.startswith("-")
        term = "*".join([coeff.lstrip("-"), *powers])
        if k == 0 and lead:
            text += f"-{term}" if neg else term
        else:
            text += f" {'-' if neg else '+'} {term}"
    return text


def _session(rng):
    """Session text and the sequence length q."""
    n = rng.randint(1, 3)
    names = NAMES[:n]
    weighted = rng.random() < 0.3
    ring = ", ".join(f"{v}:{rng.randint(1, 2)}" if weighted else v for v in names)
    q = rng.randint(1, n)
    if rng.random() < 0.6:
        # a power of a distinct variable in each entry, so mostly regular
        order = rng.sample(names, q)
        seq = [f"{v}^{rng.randint(1, 3)}" for v in order]
        seq = [f + _poly(rng, names, 1, False, False) if rng.random() < 0.3 else f
               for f in seq]
    else:
        seq = [_poly(rng, names, 2, False) for _ in range(q)]
    hom = [_poly(rng, names, 1) if rng.random() < 0.7 else "0" for _ in range(q)]
    der = ", ".join(f"{v}: {_poly(rng, names, 1)}" for v in names if rng.random() < 0.7)
    lines = [f"ring Q[{ring}]", f"seq S = {' ; '.join(seq)}",
             f"hom h on S = {' ; '.join(hom)}", f"der D = {der or names[0] + ': 1'}"]
    return "\n".join(lines) + "\n", q


def _mutate(rng, text):
    for _ in range(rng.randint(1, 2)):
        kind = rng.randrange(5)
        lines = text.splitlines(keepends=True)
        pos = rng.randrange(len(text) + 1)
        if kind == 0:
            text = text[:pos] + text[pos + 1:]
        elif kind == 1:
            text = text[:pos] + rng.choice(MUTATION_CHARS) + text[pos:]
        elif kind == 2:
            text = text[:pos] + rng.choice(MUTATION_CHARS) + text[pos + 1:]
        elif kind == 3 and lines:
            i = rng.randrange(len(lines))
            text = "".join(lines[:i + 1] + lines[i:])
        elif lines:
            i = rng.randrange(len(lines))
            text = "".join(lines[:i] + lines[i + 1:])
    return text


def _case(index):
    rng = random.Random(f"cli-fuzz:{index}")
    text, q = _session(rng)
    if rng.random() < 0.3:
        text = _mutate(rng, text)
    value = str(rng.choice((-1, 0, q, q + 1, 10 ** 8)))
    argv = rng.choice((
        ["atk", "--seq", "S", "--power", value],
        ["atk", "--seq", "S", "--power", value, "--derivation", "D"],
        ["ch", "--seq", "S", "--k", value],
        ["semireg", "--hom", "h", "--k", value],
        ["blochcmp", "--hom", "h"],
        ["obstruct", "--seq", "S", "--derivation", "D"],
    ))
    return text, argv


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue()


def test_every_generated_session_ends_in_an_answer(tmp_path):
    path = tmp_path / "fuzz.sr"
    previous = signal.signal(signal.SIGALRM, _raise_timeout)
    try:
        for index in range(CASES):
            text, argv = _case(index)
            path.write_text(text)
            argv = [*argv, "--input", str(path)]
            where = f"case {index}: atk {' '.join(argv[:-2])} on\n{text}"
            signal.alarm(BUDGET_S)
            try:
                first, again = _run(argv), _run(argv)
            except CaseTimeout:
                raise AssertionError(f"{where}took over {BUDGET_S} s") from None
            except Exception as exc:
                raise AssertionError(f"{where}raised {exc!r}") from exc
            finally:
                signal.alarm(0)
            code, out = first
            assert code in (0, 1, 2), where
            assert again == first, where
            if argv[0] == "blochcmp" and "VERDICT:" in out:
                assert out.endswith("VERDICT: exact\n"), where
    finally:
        signal.signal(signal.SIGALRM, previous)


def test_degree_past_the_ceiling_is_refused(tmp_path):
    """x^2147483648 has total degree 2^31, the ceiling of packed monomials:
    `ch` exits 2 within the same alarm, naming the ceiling and the place of
    the exponent; a product that reaches it is refused on its line."""
    path = tmp_path / "ceiling.sr"
    cases = [
        ("seq Z = x^2147483648 ; y", "bad polynomial 'x^2147483648': total degree 2147483648 "
         "reaches the degree ceiling 2^31 (line 1, col 3) (line 2)"),
        ("seq Z = x^2147483647*y ; y", "bad polynomial 'x^2147483647*y': total degree "
         "2147483648 reaches the degree ceiling 2^31 (line 2)"),
    ]
    previous = signal.signal(signal.SIGALRM, _raise_timeout)
    try:
        for line, message in cases:
            path.write_text(f"ring Q[x, y]\n{line}\n")
            out, err = io.StringIO(), io.StringIO()
            signal.alarm(BUDGET_S)
            try:
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                    code = main(["ch", "--seq", "Z", "--input", str(path)])
            finally:
                signal.alarm(0)
            assert (code, out.getvalue(), err.getvalue()) == (2, "", f"error: {message}\n")
    finally:
        signal.signal(signal.SIGALRM, previous)


def test_guard_names_itself_at_the_degree_ceiling(tmp_path):
    """Each generator is below the ceiling, but the lcm of their leads,
    x^2000000000*y^2000000000, reaches it: the regularity guard refuses the
    S-pair, and `ch` exits 2 within the same alarm with a message that
    names the guard, as its work-bound refusal does."""
    path = tmp_path / "guard_ceiling.sr"
    path.write_text("ring Q[x, y]\nseq Z = x^2000000000*y ; x*y^2000000000\n")
    message = "regularity guard: total degree 4000000000 reaches the degree ceiling 2^31"
    previous = signal.signal(signal.SIGALRM, _raise_timeout)
    out, err = io.StringIO(), io.StringIO()
    signal.alarm(BUDGET_S)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(["ch", "--seq", "Z", "--input", str(path)])
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    assert (code, out.getvalue(), err.getvalue()) == (2, "", f"error: {message}\n")


def test_curvilinear_dimension_of_all_quadric_products_in_16_variables():
    """`curvdim` and `dimcheck` on the 120 products x_i*x_j, i < j, in 16
    variables answer within the same alarm: the ideal is generated in one
    degree, so no generator is integral over m*I and no LP runs."""
    ideal = ",".join(f"x{i}*x{j}" for i in range(1, 17) for j in range(i + 1, 17))
    cases = [
        (["curvdim", "--ideal", ideal], (0, "120\n")),
        (["dimcheck", "--ideal", ideal], (0, "dim = 1; bound = -104; curvilinear = 120; holds: yes\n")),
    ]
    previous = signal.signal(signal.SIGALRM, _raise_timeout)
    try:
        for argv, want in cases:
            signal.alarm(BUDGET_S)
            try:
                assert _run(argv) == want
            finally:
                signal.alarm(0)
    finally:
        signal.signal(signal.SIGALRM, previous)
