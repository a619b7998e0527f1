"""Value semantics of the library's small record classes: equality and
hashing by fields, and the constructors' validation errors."""
import pytest

from atkernel.atiyah import DerivationSpec
from atkernel.chaincore import BasisElement, GradingError, ShapeError
from atkernel.corpus import CorpusEntry
from atkernel.cousin import LocalizedForm
from atkernel.integraldep import MonomialIdeal
from atkernel.koszul import NormalHom, RegularSequenceIdeal
from atkernel.polyforms import Form, Poly, parse_poly

XY = ("x", "y")
X, Y = parse_poly("x", XY), parse_poly("y", XY)
ONE, ZERO = Poly.one(2), Poly.zero(2)
Z = RegularSequenceIdeal(2, (X, Y), (1, 1))

# (class, fields, fields differing in one place)
RECORDS = [
    (BasisElement, ("gf1", 1), ("gf1", 2)),
    (LocalizedForm, (Form.from_poly(X), 1), (Form.from_poly(X), 2)),
    (RegularSequenceIdeal, (2, (X, Y), (1, 1)), (2, (X, Y), None)),
    (NormalHom, (Z, (ONE, ZERO)), (Z, (ZERO, ONE))),
    (DerivationSpec, ((ONE, ZERO),), ((ZERO, ONE),)),
    (MonomialIdeal, (2, ((2, 0),)), (2, ((0, 2),))),
    (CorpusEntry, ("x;y", XY, Z), ("x;y", ("u", "v"), Z)),
]


@pytest.mark.parametrize("cls, fields, other", RECORDS, ids=[r[0].__name__ for r in RECORDS])
def test_field_wise_equality_and_hash(cls, fields, other):
    a, b, c = cls(*fields), cls(*fields), cls(*other)
    assert a == b and not a != b and hash(a) == hash(b)
    assert a != c and not a == c
    assert a != fields
    assert len({a, b, c}) == 2


@pytest.mark.parametrize(
    "args, exc, message",
    [
        ((2, ()), ValueError, "sequence must be nonempty"),
        ((1, (parse_poly("x", ("x",)),) * 2), ValueError, "sequence longer than ring arity"),
        ((2, (parse_poly("x", ("x",)),)), ValueError, "sequence entry arity mismatch"),
        ((2, (ZERO,)), ValueError, "zero entry in sequence"),
        ((2, (X + ONE,)), ValueError, "sequence entries must have zero constant term"),
        ((2, (X + Y * Y,), (1, 1)), GradingError,
         "sequence entry not homogeneous for given weights"),
    ],
)
def test_sequence_validation_errors(args, exc, message):
    with pytest.raises(exc) as err:
        RegularSequenceIdeal(*args)
    assert type(err.value) is exc and str(err.value) == message


@pytest.mark.parametrize(
    "values, message",
    [((ONE,), "need one value per sequence entry"),
     ((ONE, Poly.one(3)), "value arity mismatch")],
)
def test_normal_hom_validation_errors(values, message):
    with pytest.raises(ShapeError) as err:
        NormalHom(Z, values)
    assert type(err.value) is ShapeError and str(err.value) == message
