"""Exact arithmetic for multivariate polynomials over Q and exterior forms.

Both are one dict of nonzero rationals on int keys: an int coefficient when
integral, else a Fraction with denominator > 1, so Koszul arithmetic never
builds a Fraction; floats are refused.  pack alone fixes a monomial's key:
one int of FIELD-bit fields, the total degree on top, then x_1 down to x_n
as the ring declares them.  So int order is grlex order, a product adds
keys, and x^a | x^b when b - a >= 0 sets no field's top (guard) bit;
degrees stay below CEILING, so no field carries.  Another order (grevlex,
a local order) would complement or reorder the fields in pack and unpack.
A form's key puts its wedge index above that, as mask << FIELD * (n + 1)
| monomial with bit i of the mask for dx_i; no mask bit is a guard bit.
A product of a form and a polynomial adds keys as well, and so does a
wedge of terms with disjoint masks, times _wedge_sign.  Equality is
literal dictionary equality.
"""
from __future__ import annotations

import re
import sys
from collections.abc import Mapping, Sequence
from fractions import Fraction
from functools import lru_cache

MAX_ARITY = 16
FIELD = 32
CEILING = 1 << FIELD - 1
MASK = (1 << FIELD) - 1
GUARD = CEILING * sum(1 << FIELD * i for i in range(MAX_ARITY + 1))
TOPS = tuple(CEILING << FIELD * n for n in range(MAX_ARITY + 1))  # arity n's degree-field top bit


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


def pack(expt: Sequence[int], prefix: str = "") -> int:
    """The key of x^expt; refuses a total degree of CEILING or more, after prefix."""
    if (key := sum(expt)) >= CEILING:
        raise ValueError(f"{prefix}total degree {key} reaches the degree ceiling 2^{FIELD - 1}")
    for k in expt:
        key = key << FIELD | k
    return key


def unpack(key: int, n: int) -> tuple[int, ...]:
    """The exponent vector of an arity-n key: pack's inverse."""
    return tuple(key >> FIELD * i & MASK for i in range(n - 1, -1, -1))


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


class _Terms:
    """What Poly and Form share: arity n and one dict of canonical terms,
    so that their linear arithmetic and equality are one loop each."""

    __slots__ = ("n", "terms")

    def _check(self, other) -> None:
        if self.n != other.n:
            raise ArityError(f"arity mismatch: {self.n} vs {other.n}")

    def _sum(self, other) -> dict:
        terms = dict(self.terms)
        for key, coeff in other.terms.items():
            prev = terms.get(key)
            if prev is None:
                terms[key] = coeff
                continue
            total = prev + coeff
            if total:
                terms[key] = _canon(total)
            else:
                del terms[key]
        return terms

    def __neg__(self):
        return self._like({k: -c for k, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def scale(self, c):
        c = _canon(c)
        return self._like({k: _canon(c * v) for k, v in self.terms.items()} if c else {})

    def __eq__(self, other) -> bool:
        # a zero Form equals one of any degree; nonzero keys fix the degree
        return type(other) is type(self) and self.n == other.n and self.terms == other.terms

    def __hash__(self):
        return hash((self.n, frozenset(self.terms.items())))

    def is_zero(self) -> bool:
        return not self.terms

    def exact_quotient(self, divisor: "Poly"):
        """self / divisor when divisor divides self, else None.

        Graded-lex division by one polynomial, which is its own Groebner
        basis, of every coefficient at once: a form's largest key is the
        largest of its largest mask, and a step changes only that mask's
        lower terms.  It stops at the first leading term that lt(divisor)
        does not divide: that term belongs to the remainder, and every
        later step only changes terms below it, so nothing can cancel it.
        """
        self._check(divisor)
        if divisor.is_zero():
            raise ZeroDivisionError("division by zero polynomial")
        lt_e, lt_c = divisor.leading_term()
        tail = [(e, c) for e, c in divisor.terms.items() if e != lt_e]
        work = dict(self.terms)
        quot: dict[int, Coeff] = {}
        while work:
            e = max(work)
            q_e = e - lt_e
            if q_e < 0 or q_e & GUARD:  # a field of lt_e exceeds e's
                return None
            q_c = quot[q_e] = _canon(Fraction(work.pop(e), lt_c))
            for d_e, d_c in tail:
                v = work.get(m := q_e + d_e, 0) - q_c * d_c
                if v:
                    work[m] = v
                else:
                    del work[m]
        return self._like(quot)


class Poly(_Terms):
    """Sparse multivariate polynomial with exact rational coefficients."""

    __slots__ = ()

    def __init__(self, n: int, terms: Mapping[tuple[int, ...], Coeff] | None = None):
        if not 0 < n <= MAX_ARITY:
            raise ArityError(f"ring arity must be in 1..{MAX_ARITY}, got {n}")
        clean: dict[int, Coeff] = {}
        for expt, coeff in (terms or {}).items():
            coeff = _canon(coeff)
            if coeff == 0:
                continue
            expt = tuple(int(e) for e in expt)
            if len(expt) != n or any(e < 0 for e in expt):
                raise ValueError(f"bad exponent vector {expt} for arity {n}")
            clean[pack(expt)] = coeff
        self.n = n
        self.terms = clean

    @staticmethod
    def _raw(n: int, terms: dict[int, Coeff]) -> "Poly":
        """Trusted constructor for internal arithmetic: `terms` must already
        be canonical (arity-n packed keys, nonzero values, each an int when
        integral and a Fraction with denominator > 1 otherwise) and is kept,
        not copied."""
        p = object.__new__(Poly)
        p.n = n
        p.terms = terms
        return p

    def _like(self, terms: dict) -> "Poly":
        return Poly._raw(self.n, terms)

    # -- constructors ---------------------------------------------------

    @staticmethod
    def zero(n: int) -> "Poly":
        return Poly(n)

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
        return Poly(n, {tuple(int(j == i) for j in range(n)): 1})

    @staticmethod
    def monomial(n: int, expt: Sequence[int], coeff=1) -> "Poly":
        return Poly(n, {tuple(expt): coeff})

    # -- ring operations ------------------------------------------------

    def __add__(self, other: "Poly") -> "Poly":
        self._check(other)
        return Poly._raw(self.n, self._sum(other))

    def __mul__(self, other: "Poly") -> "Poly":
        self._check(other)
        acc: dict[int, Coeff] = {}
        _mul_into(acc, self, other)
        return _poly_from_acc(self.n, acc)

    def __pow__(self, k: int) -> "Poly":
        if k < 0:
            raise ValueError("negative power")
        result = self if k else Poly.one(self.n)
        for _ in range(k - 1):
            result = result * self
        return result

    def constant_term(self) -> Coeff:
        return self.terms.get(0, 0)

    # -- degrees ----------------------------------------------------------

    def total_degree(self) -> int:
        return max(self.terms) >> FIELD * self.n if self.terms else -1

    def homogeneous_degree(self, weights: Sequence[int]) -> int | None:
        """Weighted degree if homogeneous, else None.  Zero counts as any degree."""
        degs = {sum(w * k for w, k in zip(weights, unpack(e, self.n))) for e in self.terms}
        if len(degs) > 1:
            return None
        return degs.pop() if degs else 0

    # -- calculus ---------------------------------------------------------

    def derivative(self, i: int) -> "Poly":
        shift = FIELD * (self.n - 1 - i)
        step = (1 << FIELD * self.n) + (1 << shift)  # one off the degree and off x_i
        return Poly._raw(self.n, {e - step: _canon(c * k) for e, c in self.terms.items()
                                  if (k := e >> shift & MASK)})

    def apply_derivation(self, values: Sequence["Poly"]) -> "Poly":
        """Extend x_i -> values[i] to this polynomial by the Leibniz rule."""
        if len(values) != self.n:
            raise ArityError("derivation must assign a value to every variable")
        out = Poly.zero(self.n)
        for i, val in enumerate(values):
            if not val.is_zero():
                out = out + self.derivative(i) * val
        return out

    def leading_term(self) -> tuple[int, Coeff]:
        return max(self.terms.items())  # keys are distinct, so coefficients never compare

    def sorted_terms(self) -> list[tuple[int, Coeff]]:
        return sorted(self.terms.items(), reverse=True)

    def __repr__(self):
        return f"Poly({poly_to_text(self)!r})"


class Form(_Terms):
    """Exterior form, keyed as the module docstring says; the public
    constructor takes {increasing index tuple: Poly}."""

    __slots__ = ("degree",)

    def __init__(self, n: int, degree: int, terms: Mapping[tuple[int, ...], Poly] | None = None):
        if not 0 <= degree <= n:
            raise ValueError(f"form degree {degree} out of range for arity {n}")
        clean: dict[int, Coeff] = {}
        for idx, coeff in (terms or {}).items():
            idx = tuple(idx)
            if len(idx) != degree or list(idx) != sorted(set(idx)):
                raise ValueError(f"index tuple {idx} not strictly increasing of length {degree}")
            if any(not 0 <= i < n for i in idx):
                raise ValueError(f"index out of range in {idx}")
            if coeff.n != n:
                raise ArityError("coefficient arity differs from form arity")
            top = sum(1 << i for i in idx) << FIELD * (n + 1)
            clean.update((top | e, c) for e, c in coeff.terms.items())
        self.n = n
        self.degree = degree
        self.terms = clean

    @staticmethod
    def _raw(n: int, degree: int, terms: dict[int, Coeff]) -> "Form":
        """Trusted constructor for internal arithmetic: `terms` must be
        canonical as Poly._raw's, on keys whose masks have `degree` bits
        below n, and is kept, not copied."""
        w = object.__new__(Form)
        w.n = n
        w.degree = degree
        w.terms = terms
        return w

    def _like(self, terms: dict) -> "Form":
        return Form._raw(self.n, self.degree, terms)

    @staticmethod
    def zero(n: int, degree: int = 0) -> "Form":
        return Form(n, degree)

    @staticmethod
    def from_poly(p: Poly) -> "Form":
        return Form._raw(p.n, 0, p.terms)

    def to_poly(self) -> Poly:
        if self.degree != 0:
            raise ValueError("only degree-0 forms convert to Poly")
        return Poly._raw(self.n, self.terms)

    def __add__(self, other: "Form") -> "Form":
        self._check(other)
        if self.degree != other.degree:
            if self.is_zero():
                return other
            if other.is_zero():
                return self
            raise ValueError("cannot add forms of different degree")
        return Form._raw(self.n, self.degree, self._sum(other))

    def mul_poly(self, p: Poly) -> "Form":
        self._check(p)
        acc: dict[int, Coeff] = {}
        _mul_into(acc, self, p)
        return _form_from_acc(self.n, self.degree, acc)

    def __repr__(self):
        return f"Form({form_to_text(self)!r})"


@lru_cache(maxsize=4096)
def _indices(mask: int) -> tuple[int, ...]:
    """The increasing positions of a mask's bits: a wedge index, or a Cousin index set."""
    return tuple(i for i in range(mask.bit_length()) if mask >> i & 1)


@lru_cache(maxsize=4096)
def _wedge_sign(a: int, b: int) -> int:
    """dx_a ^ dx_b = sign * dx_(a | b) for masks a and b, and likewise for
    Cousin index sets: 0 when they share a bit, else -1 to the number of
    pairs i in a, j in b with i > j."""
    if a & b:
        return 0
    return -1 if sum((a >> j + 1).bit_count() for j in _indices(b)) % 2 else 1


# -- raw accumulators ------------------------------------------------------
#
# The fused kernels sum many products into one plain {key: coeff} dict, for
# a polynomial or a form alike, which may hold zero or integral Fraction
# coefficients until the result is built once, and made canonical, by
# _poly_from_acc or _form_from_acc.  Operands are canonical and share one
# arity.  The ceiling check reads the top bit of the degree field, which
# no sum of two degrees below CEILING carries out of, and no mask bit.


def _mul_into(acc: dict, p, q, negate: bool = False) -> None:
    """Add p*q, or -(p*q) when negate is set, into a raw accumulator; p and
    q are Polys, or a Poly and a Form, whose keys add."""
    top = TOPS[p.n]
    q_items = q.terms.items()
    for e1, c1 in p.terms.items():
        if negate:
            c1 = -c1
        for e2, c2 in q_items:
            if (e := e1 + e2) & top:
                pack(unpack(e, p.n))  # raises: no field has carried, so unpack reads them all
            prev = acc.get(e)
            acc[e] = c1 * c2 if prev is None else prev + c1 * c2


def _add_into(acc: dict, w: Form, times: int) -> None:
    """Add times * w, for a nonzero integer times, into a raw accumulator."""
    for e, c in w.terms.items():
        acc[e] = acc.get(e, 0) + times * c


def _poly_from_acc(n: int, acc: dict) -> Poly:
    return Poly._raw(n, _canon_terms(acc))


def _form_from_acc(n: int, degree: int, acc: dict) -> Form:
    return Form._raw(n, degree, _canon_terms(acc))


def _canon_terms(acc: dict) -> dict:
    return {e: c if type(c) is int else _canon(c) for e, c in acc.items() if c}


def _wedge_into(acc: dict, a: Form, b: Form, negate: bool = False) -> None:
    """Add a ^ b, or -(a ^ b) when negate is set, into a raw accumulator.

    The caller has checked that a.degree + b.degree <= n.  A degree-0
    factor has the zero mask, so the product is _mul_into's.
    """
    if not (a.degree and b.degree):
        return _mul_into(acc, a, b, negate)
    shift, top = FIELD * (a.n + 1), TOPS[a.n]
    b_items = b.terms.items()
    for e1, c1 in a.terms.items():
        ma = e1 >> shift
        for e2, c2 in b_items:
            if sign := _wedge_sign(ma, e2 >> shift):
                if (e := e1 + e2) & top:
                    pack(unpack(e, a.n))
                c = c1 * c2 if (sign > 0) ^ negate else -c1 * c2
                prev = acc.get(e)
                acc[e] = c if prev is None else prev + c


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
        dx = 1 << FIELD * (f.n + 1) + i
        terms.update((e + dx, c) for e, c in f.derivative(i).terms.items())
    return Form._raw(f.n, 1, terms)


def contract_form(values: Sequence[Poly], w: Form) -> Form:
    """Interior product against the derivation x_i -> values[i].

    Contracts the leftmost matching slot of each wedge monomial with the
    standard alternating sign: slot i clears bit i of the mask, negated
    after an odd number of lower bits.  A trusted kernel: w has degree at
    least 1 and every value has w's arity, as atiyah.contract_derivation
    checks.
    """
    acc: dict = {}
    shift, top = FIELD * (w.n + 1), TOPS[w.n]
    for e1, c1 in w.terms.items():
        for slot, drop, odd in _slots(e1 >> shift, shift):
            rest, c = e1 - drop, -c1 if odd else c1
            for e2, c2 in values[slot].terms.items():
                if (e := rest + e2) & top:
                    pack(unpack(e, w.n))
                prev = acc.get(e)
                acc[e] = c * c2 if prev is None else prev + c * c2
    return _form_from_acc(w.n, w.degree - 1, acc)


@lru_cache(maxsize=4096)
def _slots(mask: int, shift: int) -> tuple:
    """(slot, its mask bit shifted, odd) per slot of mask; memoised, as
    _wedge_sign is."""
    return tuple((i, 1 << shift + i, j % 2 == 1) for j, i in enumerate(_indices(mask)))


# -- canonical text ------------------------------------------------------


def _monomial_text(expt: tuple[int, ...], names: Sequence[str]) -> str:
    return "*".join(name if k == 1 else f"{name}^{k}" for name, k in zip(names, expt) if k)


def _dform_text(idx: tuple[int, ...], names: Sequence[str]) -> str:
    return "^".join(f"d{names[i]}" for i in idx)


def _terms_text(terms, names: Sequence[str]) -> str:
    """Signed sum of (wedge index, exponent, coefficient) terms in the given
    order, "0" when there are none; a magnitude 1 is written only when
    there is no monomial and no wedge."""
    chunks: list[str] = []
    for idx, expt, coeff in terms:
        mag = abs(coeff)
        pieces = [piece for piece in (_monomial_text(expt, names), _dform_text(idx, names))
                  if piece]
        if mag != 1 or not pieces:
            pieces.insert(0, str(mag))
        body = "*".join(pieces)
        if not chunks:
            chunks.append(body if coeff > 0 else f"-{body}")
        else:
            chunks.append(f"+ {body}" if coeff > 0 else f"- {body}")
    return " ".join(chunks) or "0"


def poly_to_text(p: Poly, names: Sequence[str] | None = None) -> str:
    names = names or default_names(p.n)
    return _terms_text((((), unpack(e, p.n), c) for e, c in p.sorted_terms()), names)


def form_to_text(w: Form, names: Sequence[str] | None = None) -> str:
    """Wedge indices in increasing order, each one's terms in Poly's order."""
    names = names or default_names(w.n)
    shift = FIELD * (w.n + 1)
    keys = sorted(w.terms, key=lambda e: (_indices(e >> shift), -(e & (1 << shift) - 1)))
    return _terms_text(((_indices(e >> shift), unpack(e, w.n), w.terms[e]) for e in keys), names)


class _Tok:
    __slots__ = ("kind", "text", "line", "col")

    def __init__(self, kind, text, line, col):
        self.kind, self.text, self.line, self.col = kind, text, line, col


def digit_excess(text: str) -> str:
    """Why int() refuses text's longest run of ASCII digits, or '' if it does not."""
    limit = sys.get_int_max_str_digits()  # 0: no limit
    longest = max(map(len, re.findall("[0-9]+", text)), default=0)
    return f"{longest} digits, more than {limit}" if 0 < limit < longest else ""


def _tokenize(text: str) -> list[_Tok]:
    toks = []
    line, col, i = 1, 1, 0
    while i < len(text):
        ch, j = text[i], i + 1
        if ch.isspace():
            line, col = (line + 1, 1) if ch == "\n" else (line, col + 1)
            i = j
            continue
        if "0" <= ch <= "9":
            while j < len(text) and "0" <= text[j] <= "9":
                j += 1
            if excess := digit_excess(text[i:j]):
                raise ParseError(f"integer of {excess}", line, col)
            kind = "num"
        elif ch.isalpha() or ch == "_":
            while j < len(text) and (text[j].isalnum() or text[j] == "_"):
                j += 1
            kind = "name"
        elif ch in "+-*/^":
            kind = ch
        else:
            raise ParseError(f"unexpected character {ch!r}", line, col)
        toks.append(_Tok(kind, text[i:j], line, col))
        col += j - i
        i = j
    return toks


class _FormParser:
    """Recursive descent for the canonical signed-sum-of-terms grammar.  A
    term is the wedge of its factors, so `wedge` alone orders a term's
    differentials, with their sign, and drops a repeated one."""

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
        """The wedge of the factors up to the next '+' or '-': '*' joins
        any two, and '^' joins a differential to the d<var> after it, read
        as a differential even where d<var> is itself a variable."""
        tok = self._peek()
        if tok is None or tok.kind in "+-":
            self._fail("empty term")
        term = factor = self._factor()
        while (tok := self._peek()) is not None and tok.kind not in "+-":
            self._next()
            if tok.kind == "^" and factor.degree and (dx := self._differential(self._peek())):
                self._next()
                factor = dx
            elif tok.kind == "*":
                factor = self._factor()
            else:
                self._fail("expected '*' between factors", tok)
            term = wedge(term, factor)
        return term

    def _differential(self, tok: _Tok | None) -> Form | None:
        """The differential d<var> when tok is that name, else None."""
        if tok and tok.kind == "name" and tok.text.startswith("d") and tok.text[1:] in self.names:
            return self._monomial(1, 1 << FIELD * (self.n + 1) + self.names.index(tok.text[1:]))
        return None

    def _monomial(self, degree: int, key: int, coeff: Coeff = 1) -> Form:
        return Form._raw(self.n, degree, {key: coeff} if coeff else {})

    def _factor(self) -> Form:
        """A number, a variable power or a differential d<var>."""
        tok = self._next()
        if tok.kind == "num":
            value = int(tok.text)
            if (nxt := self._peek()) is not None and nxt.kind == "/":
                self._next()
                den = self._next()
                if den.kind != "num":
                    self._fail("expected integer denominator", den)
                if int(den.text) == 0:
                    self._fail("zero denominator", den)
                value = _canon(Fraction(value, int(den.text)))
            return self._monomial(0, 0, value)
        if tok.kind == "name":
            if tok.text in self.names:
                i, power = self.names.index(tok.text), 1
                if (nxt := self._peek()) is not None and nxt.kind == "^":
                    self._next()
                    tok = self._next()
                    if tok.kind != "num":
                        self._fail("expected integer exponent", tok)
                    power = int(tok.text)
                try:
                    return self._monomial(0, pack([power * (j == i) for j in range(self.n)]))
                except ValueError as exc:  # the degree ceiling, at the exponent
                    self._fail(str(exc), tok)
            if dx := self._differential(tok):
                return dx
            self._fail(f"unknown name {tok.text!r}", tok)
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

    Weights default to 1 and must be positive ASCII integers; names must be
    distinct identifiers, at most MAX_ARITY.  Raises ValueError otherwise.
    """
    text = text.strip()
    if not (text.startswith("Q[") and text.endswith("]")):
        raise ValueError("ring declaration must look like `ring Q[x, y]`")
    names, weights = [], []
    for chunk in text[2:-1].split(","):
        name, colon, w = (part.strip() for part in chunk.partition(":"))
        if not (name or colon):
            raise ValueError("empty variable name in ring declaration")
        # ASCII digits only, as the tokenizer reads them: int() takes '1_0'
        if colon and not (w.isascii() and w.isdigit()):
            raise ValueError(f"bad weight {w!r}")
        if excess := digit_excess(w):
            raise ValueError(f"bad weight of {excess}")
        weight = int(w) if colon else 1
        if not name.isidentifier():
            raise ValueError(f"bad variable name {name!r}")
        if weight < 1:
            raise ValueError("weights must be positive")
        names.append(name)
        weights.append(weight)
    if len(set(names)) != len(names):
        raise ValueError("duplicate variable names")
    if len(names) > MAX_ARITY:
        raise ValueError(f"ring arity must be in 1..{MAX_ARITY}, got {len(names)}")
    return tuple(names), tuple(weights)
