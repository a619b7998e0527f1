"""Exact arithmetic for multivariate polynomials over Q and exterior forms.

Polynomials are sparse maps from exponent vectors to nonzero rational
coefficients.  A coefficient is stored as an int when it is integral and
as a Fraction with denominator > 1 otherwise, so the integer arithmetic
that dominates Koszul complexes never builds a Fraction.  Floats are
refused: a binary fraction is not the rational that was meant.  Forms
carry polynomial coefficients on strictly increasing wedge index tuples,
so every value has one canonical representation and equality is literal
dictionary equality.  Term order is graded lexicographic with the
variable order fixed by the ring declaration.
"""
from __future__ import annotations

from collections.abc import Mapping, Sequence
from fractions import Fraction
from functools import lru_cache
from operator import add

MAX_ARITY = 16


class Record:
    """Base of the library's small value classes: equality, hash and repr
    over the fields that each subclass names in its __slots__.  A slot
    whose name starts with an underscore holds a value derived from the
    fields, computed once, and is left out of all three."""

    __slots__ = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        cls._field_names = tuple(name for name in cls.__slots__ if not name.startswith("_"))

    def _fields(self) -> tuple:
        return tuple(getattr(self, name) for name in self._field_names)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._fields() == other._fields()
        return NotImplemented

    def __hash__(self):
        return hash(self._fields())

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._field_names)
        return f"{type(self).__name__}({fields})"


class ArityError(ValueError):
    """Raised when operands live over rings of different arity."""


class ParseError(ValueError):
    def __init__(self, message: str, line: int = 1, col: int = 1):
        super().__init__(f"{message} (line {line}, col {col})")
        self.line = line
        self.col = col


def default_names(n: int) -> tuple[str, ...]:
    if n <= 4:
        return ("x", "y", "z", "w")[:n]
    return tuple(f"x{i+1}" for i in range(n))


def _grlex_key(expt: tuple[int, ...]) -> tuple:
    return (sum(expt), expt)


Coeff = int | Fraction


def _canon(c) -> Coeff:
    """The canonical coefficient for the rational c: an int when c is
    integral, else a Fraction with denominator > 1.  Floats raise."""
    if type(c) is int:
        return c
    if type(c) is not Fraction:
        if isinstance(c, float):
            raise ValueError(f"float coefficient {c!r}: use an int or a Fraction")
        c = Fraction(c)
    return c.numerator if c.denominator == 1 else c


class Poly:
    """Sparse multivariate polynomial with exact rational coefficients."""

    __slots__ = ("n", "terms")

    def __init__(self, n: int, terms: Mapping[tuple[int, ...], Coeff] | None = None):
        if not 0 < n <= MAX_ARITY:
            raise ArityError(f"ring arity must be in 1..{MAX_ARITY}, got {n}")
        clean: dict[tuple[int, ...], Coeff] = {}
        for expt, coeff in (terms or {}).items():
            coeff = _canon(coeff)
            if coeff == 0:
                continue
            expt = tuple(int(e) for e in expt)
            if len(expt) != n or any(e < 0 for e in expt):
                raise ValueError(f"bad exponent vector {expt} for arity {n}")
            clean[expt] = coeff
        self.n = n
        self.terms = clean

    @staticmethod
    def _raw(n: int, terms: dict[tuple[int, ...], Coeff]) -> "Poly":
        """Trusted constructor for internal arithmetic: `terms` must already
        be canonical (length-n exponent tuples, nonzero values, each an int
        when integral and a Fraction with denominator > 1 otherwise) and is
        kept, not copied."""
        p = object.__new__(Poly)
        p.n = n
        p.terms = terms
        return p

    # -- constructors ---------------------------------------------------

    @staticmethod
    def zero(n: int) -> "Poly":
        if not 0 < n <= MAX_ARITY:
            raise ArityError(f"ring arity must be in 1..{MAX_ARITY}, got {n}")
        return Poly._raw(n, {})

    @staticmethod
    def const(n: int, c) -> "Poly":
        return Poly(n, {(0,) * n: c})

    @staticmethod
    def one(n: int) -> "Poly":
        return Poly.const(n, 1)

    @staticmethod
    def variable(n: int, i: int) -> "Poly":
        if not 0 <= i < n:
            raise ValueError(f"variable index {i} out of range for arity {n}")
        expt = tuple(1 if j == i else 0 for j in range(n))
        return Poly(n, {expt: 1})

    @staticmethod
    def monomial(n: int, expt: Sequence[int], coeff=1) -> "Poly":
        return Poly(n, {tuple(expt): coeff})

    # -- ring operations ------------------------------------------------

    def _check(self, other: "Poly") -> None:
        if self.n != other.n:
            raise ArityError(f"arity mismatch: {self.n} vs {other.n}")

    def __add__(self, other: "Poly") -> "Poly":
        self._check(other)
        terms = dict(self.terms)
        for expt, coeff in other.terms.items():
            prev = terms.get(expt)
            if prev is None:
                terms[expt] = coeff
                continue
            total = prev + coeff
            if total:
                terms[expt] = _canon(total)
            else:
                del terms[expt]
        return Poly._raw(self.n, terms)

    def __neg__(self) -> "Poly":
        return Poly._raw(self.n, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other: "Poly") -> "Poly":
        return self + (-other)

    def __mul__(self, other: "Poly") -> "Poly":
        self._check(other)
        acc: dict[tuple[int, ...], Coeff] = {}
        _mul_into(acc, self, other)
        return _poly_from_acc(self.n, acc)

    def __pow__(self, k: int) -> "Poly":
        if k < 0:
            raise ValueError("negative power")
        result = Poly.one(self.n)
        for _ in range(k):
            result = result * self
        return result

    def scale(self, c) -> "Poly":
        c = _canon(c)
        return Poly._raw(self.n, {e: _canon(c * v) for e, v in self.terms.items()} if c else {})

    def __eq__(self, other) -> bool:
        return isinstance(other, Poly) and self.n == other.n and self.terms == other.terms

    def __hash__(self):
        return hash((self.n, frozenset(self.terms.items())))

    def is_zero(self) -> bool:
        return not self.terms

    def constant_term(self) -> Coeff:
        return self.terms.get((0,) * self.n, 0)

    # -- degrees ----------------------------------------------------------

    def total_degree(self) -> int:
        # zero polynomial reports -1
        return max((sum(e) for e in self.terms), default=-1)

    def homogeneous_degree(self, weights: Sequence[int]) -> int | None:
        """Weighted degree if homogeneous, else None.  Zero counts as any degree."""
        degs = {sum(w * k for w, k in zip(weights, e)) for e in self.terms}
        if len(degs) > 1:
            return None
        return degs.pop() if degs else 0

    # -- calculus ---------------------------------------------------------

    def derivative(self, i: int) -> "Poly":
        terms: dict[tuple[int, ...], Coeff] = {}
        for expt, coeff in self.terms.items():
            if expt[i] == 0:
                continue
            e = list(expt)
            e[i] -= 1
            terms[tuple(e)] = _canon(coeff * expt[i])
        return Poly._raw(self.n, terms)

    def apply_derivation(self, values: Sequence["Poly"]) -> "Poly":
        """Extend x_i -> values[i] to this polynomial by the Leibniz rule."""
        if len(values) != self.n:
            raise ArityError("derivation must assign a value to every variable")
        out = Poly.zero(self.n)
        for i, val in enumerate(values):
            if not val.is_zero():
                out = out + self.derivative(i) * val
        return out

    # -- division by a single polynomial ----------------------------------

    def leading_term(self) -> tuple[tuple[int, ...], Coeff]:
        expt = max(self.terms, key=_grlex_key)
        return expt, self.terms[expt]

    def divmod_single(self, divisor: "Poly") -> tuple["Poly", "Poly"]:
        """Graded-lex division by one polynomial; remainder is canonical.

        A single divisor generates its ideal as its own Groebner basis, so
        the remainder vanishes exactly when divisor | self.
        """
        self._check(divisor)
        if divisor.is_zero():
            raise ZeroDivisionError("division by zero polynomial")
        lt_e, lt_c = divisor.leading_term()
        quot = Poly.zero(self.n)
        rem = Poly.zero(self.n)
        work = self
        while not work.is_zero():
            e, c = work.leading_term()
            if all(a >= b for a, b in zip(e, lt_e)):
                quot_e = tuple(a - b for a, b in zip(e, lt_e))
                q = Poly.monomial(self.n, quot_e, Fraction(c, lt_c))
                quot = quot + q
                work = work - q * divisor
            else:
                t = Poly.monomial(self.n, e, c)
                rem = rem + t
                work = work - t
        return quot, rem

    def sorted_terms(self) -> list[tuple[tuple[int, ...], Coeff]]:
        return sorted(self.terms.items(), key=lambda t: _grlex_key(t[0]), reverse=True)

    def __repr__(self):
        return f"Poly({poly_to_text(self)!r})"


class Form:
    """Exterior form with Poly coefficients on increasing index tuples."""

    __slots__ = ("n", "degree", "terms")

    def __init__(self, n: int, degree: int, terms: Mapping[tuple[int, ...], Poly] | None = None):
        if not 0 <= degree <= n:
            raise ValueError(f"form degree {degree} out of range for arity {n}")
        clean: dict[tuple[int, ...], Poly] = {}
        for idx, coeff in (terms or {}).items():
            idx = tuple(idx)
            if len(idx) != degree or list(idx) != sorted(set(idx)):
                raise ValueError(f"index tuple {idx} not strictly increasing of length {degree}")
            if any(not 0 <= i < n for i in idx):
                raise ValueError(f"index out of range in {idx}")
            if coeff.n != n:
                raise ArityError("coefficient arity differs from form arity")
            if not coeff.is_zero():
                clean[idx] = coeff
        self.n = n
        self.degree = degree
        self.terms = clean

    @staticmethod
    def _raw(n: int, degree: int, terms: dict[tuple[int, ...], Poly]) -> "Form":
        """Trusted constructor for internal arithmetic: `terms` must map
        strictly increasing length-`degree` index tuples to nonzero arity-n
        canonical Polys (see Poly._raw), and is kept, not copied."""
        w = object.__new__(Form)
        w.n = n
        w.degree = degree
        w.terms = terms
        return w

    @staticmethod
    def zero(n: int, degree: int = 0) -> "Form":
        if not 0 <= degree <= n:
            raise ValueError(f"form degree {degree} out of range for arity {n}")
        return Form._raw(n, degree, {})

    @staticmethod
    def from_poly(p: Poly) -> "Form":
        return Form._raw(p.n, 0, {(): p} if p.terms else {})

    def to_poly(self) -> Poly:
        if self.degree != 0:
            raise ValueError("only degree-0 forms convert to Poly")
        return self.terms.get((), Poly.zero(self.n))

    def _check(self, other: "Form") -> None:
        if self.n != other.n:
            raise ArityError(f"arity mismatch: {self.n} vs {other.n}")

    def __add__(self, other: "Form") -> "Form":
        self._check(other)
        if self.degree != other.degree:
            if self.is_zero():
                return other
            if other.is_zero():
                return self
            raise ValueError("cannot add forms of different degree")
        terms = dict(self.terms)
        for idx, coeff in other.terms.items():
            prev = terms.get(idx)
            if prev is None:
                terms[idx] = coeff
                continue
            total = prev + coeff
            if total.terms:
                terms[idx] = total
            else:
                del terms[idx]
        return Form._raw(self.n, self.degree, terms)

    def __neg__(self) -> "Form":
        return Form._raw(self.n, self.degree, {i: -c for i, c in self.terms.items()})

    def __sub__(self, other: "Form") -> "Form":
        return self + (-other)

    def scale(self, c) -> "Form":
        c = _canon(c)
        if not c:
            return Form._raw(self.n, self.degree, {})
        return Form._raw(self.n, self.degree, {i: p.scale(c) for i, p in self.terms.items()})

    def mul_poly(self, p: Poly) -> "Form":
        # a product of nonzero polynomials is nonzero, so only p can kill terms
        terms = {i: c * p for i, c in self.terms.items()}
        return Form._raw(self.n, self.degree, terms if p.terms else {})

    def __eq__(self, other) -> bool:
        if not isinstance(other, Form) or self.n != other.n:
            return NotImplemented if not isinstance(other, Form) else False
        if not self.terms and not other.terms:
            return True  # the zero form is degree-agnostic
        return self.degree == other.degree and self.terms == other.terms

    def __hash__(self):
        return hash((self.n, frozenset(self.terms.items())))

    def is_zero(self) -> bool:
        return not self.terms

    def __repr__(self):
        return f"Form({form_to_text(self)!r})"


@lru_cache(maxsize=4096)
def _merge_indices(a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, tuple[int, ...]] | None:
    """Sort the concatenation a+b; return (sign, sorted) or None on repeats.

    Memoised: the answer depends only on the pair, and a computation
    multiplies few distinct index pairs many times."""
    if set(a) & set(b):
        return None
    merged = a + b
    # count inversions between the two sorted blocks
    inversions = sum(1 for x in a for y in b if x > y)
    return (-1) ** inversions, tuple(sorted(merged))


# -- raw accumulators ------------------------------------------------------
#
# The fused kernels sum many products into plain dicts, {expt: coeff} for a
# polynomial and {idx: {expt: coeff}} for a form, which may hold zero or
# integral Fraction coefficients until the result is built once, and made
# canonical, by _poly_from_acc or _form_from_acc.  Operands are canonical
# and share one arity.


def _mul_into(acc: dict, p: Poly, q: Poly, negate: bool = False) -> None:
    """Add p*q, or -(p*q) when negate is set, into a raw polynomial accumulator."""
    q_items = q.terms.items()
    for e1, c1 in p.terms.items():
        if negate:
            c1 = -c1
        for e2, c2 in q_items:
            e = tuple(map(add, e1, e2))
            prev = acc.get(e)
            acc[e] = c1 * c2 if prev is None else prev + c1 * c2


def _poly_from_acc(n: int, acc: dict) -> Poly:
    return Poly._raw(n, {e: _canon(c) for e, c in acc.items() if c})


def _wedge_into(acc: dict, a: Form, b: Form, negate: bool = False) -> None:
    """Add a ^ b, or -(a ^ b) when negate is set, into a raw form accumulator.

    The caller has checked that a.degree + b.degree <= n.
    """
    for ia, ca in a.terms.items():
        for ib, cb in b.terms.items():
            merged = _merge_indices(ia, ib)
            if merged is None:
                continue
            sign, idx = merged
            out = acc.get(idx)
            if out is None:
                out = acc[idx] = {}
            _mul_into(out, ca, cb, negate ^ (sign < 0))


def _form_from_acc(n: int, degree: int, acc: dict) -> Form:
    terms = {}
    for idx, coeffs in acc.items():
        p = _poly_from_acc(n, coeffs)
        if p.terms:
            terms[idx] = p
    return Form._raw(n, degree, terms)


def wedge(a: Form, b: Form) -> Form:
    """Exterior product; returns the zero Form when the degree exceeds n."""
    a._check(b)
    degree = a.degree + b.degree
    if degree > a.n:
        return Form.zero(a.n, a.n)
    acc: dict = {}
    _wedge_into(acc, a, b)
    return _form_from_acc(a.n, degree, acc)


def exterior_derivative(f: Poly) -> Form:
    """d(f) = sum_i (df/dx_i) dx_i."""
    terms = {}
    for i in range(f.n):
        df = f.derivative(i)
        if df.terms:
            terms[(i,)] = df
    return Form._raw(f.n, 1, terms)


def form_d(w: Form) -> Form:
    """Wedge-extended exterior derivative on forms."""
    out = Form.zero(w.n, min(w.degree + 1, w.n))
    for idx, coeff in w.terms.items():
        dcoeff = exterior_derivative(coeff)
        out = out + wedge(dcoeff, Form(w.n, w.degree, {idx: Poly.one(w.n)}))
    return out


def contract_form(values: Sequence[Poly], w: Form) -> Form:
    """Interior product against the derivation x_i -> values[i].

    Contracts the leftmost matching slot of each wedge monomial with the
    standard alternating sign.
    """
    if w.degree == 0:
        raise ValueError("cannot contract a degree-0 form")
    n = w.n
    if any(v.n != n for v in values):
        raise ArityError("derivation values must share the form's arity")
    acc: dict = {}
    for idx, coeff in w.terms.items():
        for j, slot in enumerate(idx):
            val = values[slot]
            if not val.terms:
                continue
            rest = idx[:j] + idx[j + 1 :]
            out = acc.get(rest)
            if out is None:
                out = acc[rest] = {}
            _mul_into(out, coeff, val, negate=j % 2 == 1)
    return _form_from_acc(n, w.degree - 1, acc)


# -- canonical text ------------------------------------------------------


def _coeff_text(c: Coeff) -> str:
    return str(c)


def _monomial_text(expt: tuple[int, ...], names: Sequence[str]) -> str:
    parts = []
    for name, k in zip(names, expt):
        if k == 0:
            continue
        parts.append(name if k == 1 else f"{name}^{k}")
    return "*".join(parts)


def _dform_text(idx: tuple[int, ...], names: Sequence[str]) -> str:
    return "^".join(f"d{names[i]}" for i in idx)


def poly_to_text(p: Poly, names: Sequence[str] | None = None) -> str:
    names = names or default_names(p.n)
    if p.is_zero():
        return "0"
    chunks: list[str] = []
    for expt, coeff in p.sorted_terms():
        mono = _monomial_text(expt, names)
        mag = abs(coeff)
        if mono and mag == 1:
            body = mono
        elif mono:
            body = f"{_coeff_text(mag)}*{mono}"
        else:
            body = _coeff_text(mag)
        if not chunks:
            chunks.append(body if coeff > 0 else f"-{body}")
        else:
            chunks.append(f"+ {body}" if coeff > 0 else f"- {body}")
    return " ".join(chunks)


def form_to_text(w: Form, names: Sequence[str] | None = None) -> str:
    names = names or default_names(w.n)
    if w.degree == 0:
        return poly_to_text(w.to_poly(), names)
    if w.is_zero():
        return "0"
    chunks: list[str] = []
    for idx in sorted(w.terms):
        dpart = _dform_text(idx, names)
        for expt, coeff in w.terms[idx].sorted_terms():
            mono = _monomial_text(expt, names)
            mag = abs(coeff)
            pieces = [piece for piece in (_coeff_text(mag) if mag != 1 else "", mono) if piece]
            body = "*".join(pieces + [dpart]) if pieces else dpart
            if not chunks:
                chunks.append(body if coeff > 0 else f"-{body}")
            else:
                chunks.append(f"+ {body}" if coeff > 0 else f"- {body}")
    return " ".join(chunks)


class _Tok:
    __slots__ = ("kind", "text", "line", "col")

    def __init__(self, kind, text, line, col):
        self.kind = kind
        self.text = text
        self.line = line
        self.col = col


def _tokenize(text: str) -> list[_Tok]:
    toks = []
    line, col = 1, 1
    i = 0
    while i < len(text):
        ch = text[i]
        if ch == "\n":
            line += 1
            col = 1
            i += 1
            continue
        if ch.isspace():
            col += 1
            i += 1
            continue
        if ch.isdigit():
            j = i
            while j < len(text) and text[j].isdigit():
                j += 1
            toks.append(_Tok("num", text[i:j], line, col))
            col += j - i
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < len(text) and (text[j].isalnum() or text[j] == "_"):
                j += 1
            toks.append(_Tok("name", text[i:j], line, col))
            col += j - i
            i = j
            continue
        if ch in "+-*/^":
            toks.append(_Tok(ch, ch, line, col))
            col += 1
            i += 1
            continue
        raise ParseError(f"unexpected character {ch!r}", line, col)
    return toks


class _FormParser:
    """Recursive descent for the canonical signed-sum-of-terms grammar."""

    def __init__(self, toks: list[_Tok], names: Sequence[str]):
        self.toks = toks
        self.pos = 0
        self.names = list(names)
        self.n = len(self.names)

    def _peek(self) -> _Tok | None:
        return self.toks[self.pos] if self.pos < len(self.toks) else None

    def _next(self) -> _Tok:
        tok = self._peek()
        if tok is None:
            last = self.toks[-1] if self.toks else _Tok("", "", 1, 1)
            raise ParseError("unexpected end of input", last.line, last.col)
        self.pos += 1
        return tok

    def _fail(self, msg: str, tok: _Tok | None = None):
        tok = tok or self._peek() or (self.toks[-1] if self.toks else _Tok("", "", 1, 1))
        raise ParseError(msg, tok.line, tok.col)

    def parse(self) -> Form:
        total = Form.zero(self.n, 0)
        first = True
        while self._peek() is not None:
            sign = 1
            tok = self._peek()
            if tok.kind in "+-":
                self._next()
                sign = -1 if tok.kind == "-" else 1
            elif not first:
                self._fail("expected '+' or '-' between terms", tok)
            start = self._peek()
            term = self._term()
            try:
                total = total + term.scale(sign)
            except ValueError:
                self._fail("mixed form degrees in one expression", start)
            first = False
        if first:
            self._fail("empty expression")
        return total

    def _term(self) -> Form:
        coeff: Coeff = 1
        expt = [0] * self.n
        didx: list[int] = []
        saw_atom = False
        while True:
            tok = self._peek()
            if tok is None or tok.kind in "+-":
                break
            if saw_atom:
                if tok.kind != "*":
                    self._fail("expected '*' between factors", tok)
                self._next()
            coeff, saw = self._factor(coeff, expt, didx)
            saw_atom = True
            if not saw:
                break
        if not saw_atom:
            self._fail("empty term")
        if didx != sorted(set(didx)):
            # canonicalize an out-of-order or repeated wedge, one factor at a time
            idx: tuple[int, ...] = ()
            for i in didx:
                merged = _merge_indices(idx, (i,))
                if merged is None:
                    return Form.zero(self.n, len(set(didx)))
                sign, idx = merged
                coeff *= sign
            didx = list(idx)
        p = Poly.monomial(self.n, tuple(expt), coeff)
        return Form(self.n, len(didx), {tuple(didx): p})

    def _factor(self, coeff: Coeff, expt: list[int], didx: list[int]):
        tok = self._next()
        if tok.kind == "num":
            value = int(tok.text)
            nxt = self._peek()
            if nxt is not None and nxt.kind == "/":
                self._next()
                den = self._next()
                if den.kind != "num":
                    self._fail("expected integer denominator", den)
                if int(den.text) == 0:
                    self._fail("zero denominator", den)
                value = Fraction(value, int(den.text))
            return coeff * value, True
        if tok.kind == "name":
            name = tok.text
            if name in self.names:
                i = self.names.index(name)
                power = 1
                nxt = self._peek()
                if nxt is not None and nxt.kind == "^":
                    self._next()
                    ptok = self._next()
                    if ptok.kind != "num":
                        self._fail("expected integer exponent", ptok)
                    power = int(ptok.text)
                expt[i] += power
                return coeff, True
            if name.startswith("d") and name[1:] in self.names:
                didx.append(self.names.index(name[1:]))
                while True:
                    nxt = self._peek()
                    if nxt is None or nxt.kind != "^":
                        break
                    save = self.pos
                    self._next()
                    dtok = self._peek()
                    if (
                        dtok is not None
                        and dtok.kind == "name"
                        and dtok.text.startswith("d")
                        and dtok.text[1:] in self.names
                    ):
                        self._next()
                        didx.append(self.names.index(dtok.text[1:]))
                    else:
                        self.pos = save
                        break
                return coeff, True
            self._fail(f"unknown name {name!r}", tok)
        self._fail(f"unexpected token {tok.text!r}", tok)


def parse_form(text: str, names: Sequence[str]) -> Form:
    return _FormParser(_tokenize(text), names).parse()


def parse_poly(text: str, names: Sequence[str]) -> Poly:
    w = parse_form(text, names)
    if w.degree != 0:
        raise ParseError("expected a polynomial, found differentials")
    return w.to_poly()


def variable_names(text: str) -> tuple[str, ...]:
    """The distinct names in an expression, sorted: the variables of a ring
    read off the text itself."""
    return tuple(sorted({tok.text for tok in _tokenize(text) if tok.kind == "name"}))


def parse_ring(text: str) -> tuple[tuple[str, ...], tuple[int, ...]]:
    """Names and weights of a ring declaration `Q[x, y:2, z]`.

    Weights default to 1 and must be positive integers; names must be
    distinct identifiers.  Raises ValueError on anything else.
    """
    text = text.strip()
    if not (text.startswith("Q[") and text.endswith("]")):
        raise ValueError("ring declaration must look like `ring Q[x, y]`")
    names, weights = [], []
    for chunk in text[2:-1].split(","):
        chunk = chunk.strip()
        if not chunk:
            raise ValueError("empty variable name in ring declaration")
        if ":" in chunk:
            name, w = chunk.split(":", 1)
            name = name.strip()
            try:
                weight = int(w)
            except ValueError:
                raise ValueError(f"bad weight {w!r}") from None
        else:
            name, weight = chunk, 1
        if not name.isidentifier():
            raise ValueError(f"bad variable name {name!r}")
        if weight < 1:
            raise ValueError("weights must be positive")
        names.append(name)
        weights.append(weight)
    if len(set(names)) != len(names):
        raise ValueError("duplicate variable names")
    return tuple(names), tuple(weights)
