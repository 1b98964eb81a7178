"""The frozen result records: construction, equality, hash, repr, immutability.

These classes were frozen dataclasses; they now derive from `klasika._Record`.
The repr strings below are the ones the dataclasses printed.
"""

import copy
import pickle
from fractions import Fraction as F

import pytest

import klasika
from klasika import _Record
from klasika.cli import CommandResult
from klasika.exact import Polynomial as P

# (record, the repr the dataclass gave it)
SAMPLES = [
    (klasika.DepressedPolynomial(P([1, -3, 0, 1]), F(1, 3)),
     "DepressedPolynomial(poly=Polynomial([1, -3, 0, 1]), shift=Fraction(1, 3))"),
    (klasika.CubicRoots((1 + 0j, -1 + 0j, 2j), (0.0, 1e-17, 0.0), 1e-8),
     "CubicRoots(roots=((1+0j), (-1+0j), 2j), residuals=(0.0, 1e-17, 0.0), tolerance=1e-08)"),
    (klasika.BinaryForm("1/2", 0, 1),
     "BinaryForm(a=Fraction(1, 2), b=Fraction(0, 1), c=Fraction(1, 1))"),
    (klasika.TernaryForm(1, 2, 3, F(1, 2), 0, -1),
     "TernaryForm(a=Fraction(1, 1), b=Fraction(2, 1), c=Fraction(3, 1), d=Fraction(1, 2), "
     "e=Fraction(0, 1), f=Fraction(-1, 1))"),
    (klasika.Diagonalization(((1.0, 0.0), (0.0, 1.0)), (2.0, -1.0), 0.0),
     "Diagonalization(S=((1.0, 0.0), (0.0, 1.0)), D=(2.0, -1.0), residual=0.0)"),
    (klasika.Num(3), "Num(value=Fraction(3, 1))"),
    (klasika.Add(klasika.Num(1), klasika.Num(2)),
     "Add(left=Num(value=Fraction(1, 1)), right=Num(value=Fraction(2, 1)))"),
    (klasika.Sub(klasika.Num(1), klasika.Num(2)),
     "Sub(left=Num(value=Fraction(1, 1)), right=Num(value=Fraction(2, 1)))"),
    (klasika.Mul(klasika.Num(1), klasika.Num(2)),
     "Mul(left=Num(value=Fraction(1, 1)), right=Num(value=Fraction(2, 1)))"),
    (klasika.Div(klasika.Num(1), klasika.Num(2)),
     "Div(left=Num(value=Fraction(1, 1)), right=Num(value=Fraction(2, 1)))"),
    (klasika.Sqrt(klasika.Num(2)), "Sqrt(operand=Num(value=Fraction(2, 1)))"),
    (klasika.ConstructibilityVerdict(False, "degree 3", {"degree": 3}),
     "ConstructibilityVerdict(constructible=False, reason='degree 3', details={'degree': 3})"),
    (klasika.RealFactorization(F(2), ((F(1), 2),), ((F(0), F(1), 1),)),
     "RealFactorization(constant=Fraction(2, 1), linear_factors=((Fraction(1, 1), 2),), "
     "quadratic_factors=((Fraction(0, 1), Fraction(1, 1), 1),))"),
    (klasika.PartialFractions(P([1, 1]), ((F(1, 2), F(-1), 1),), ((F(1), F(0), F(0), F(4)),)),
     "PartialFractions(polynomial_part=Polynomial([1, 1]), linear_terms=((Fraction(1, 2), "
     "Fraction(-1, 1), 1),), quadratic_terms=((Fraction(1, 1), Fraction(0, 1), Fraction(0, 1), "
     "Fraction(4, 1)),))"),
    (klasika.PolyTerm(P([0, 1])), "PolyTerm(poly=Polynomial([0, 1]))"),
    (klasika.LogAbs(F(1), F(-2)), "LogAbs(coeff=Fraction(1, 1), root=Fraction(-2, 1))"),
    (klasika.PowerTerm(F(-1), F(3), -2),
     "PowerTerm(coeff=Fraction(-1, 1), root=Fraction(3, 1), exponent=-2)"),
    (klasika.LogQuadratic(F(1, 2), F(0), F(4)),
     "LogQuadratic(coeff=Fraction(1, 2), p=Fraction(0, 1), q=Fraction(4, 1))"),
    (klasika.ArctanTerm(F(-1, 2), F(0), F(4)),
     "ArctanTerm(coeff=Fraction(-1, 2), p=Fraction(0, 1), q=Fraction(4, 1))"),
    (klasika.SymbolicAntiderivative((klasika.LogAbs(F(1), F(0)),)),
     "SymbolicAntiderivative(terms=(LogAbs(coeff=Fraction(1, 1), root=Fraction(0, 1)),))"),
    (klasika.ConicParam("ellipse", 2.0, 1.0), "ConicParam(kind='ellipse', a=2.0, b=1.0)"),
    (CommandResult("ok", {"command": "x"}, "text", 0),
     "CommandResult(status='ok', payload={'command': 'x'}, human_text='text', exit_code=0)"),
]
RECORDS = [record for record, _ in SAMPLES]
IDS = [type(record).__name__ for record in RECORDS]


def _values(record):
    return tuple(getattr(record, f) for f in type(record)._fields)


def test_the_samples_cover_every_record_class():
    exported = {name for names in klasika._EXPORTS.values() for name in names
                if isinstance(getattr(klasika, name), type) and issubclass(getattr(klasika, name), _Record)}
    assert len(exported) == 21
    assert {type(record).__name__ for record in RECORDS} == exported | {"CommandResult"}


@pytest.mark.parametrize("record, text", SAMPLES, ids=IDS)
def test_repr_is_the_dataclass_repr(record, text):
    assert repr(record) == text


@pytest.mark.parametrize("record", RECORDS, ids=IDS)
def test_fields_are_the_annotations_in_order(record):
    cls = type(record)
    assert cls._fields == tuple(cls.__annotations__) == cls.__match_args__


@pytest.mark.parametrize("record", RECORDS, ids=IDS)
def test_positional_and_keyword_construction_agree(record):
    cls, values = type(record), _values(record)
    by_keyword = cls(**dict(zip(cls._fields, values)))
    assert by_keyword == cls(*values) == record
    assert cls(*values[:1], **dict(zip(cls._fields[1:], values[1:]))) == record


@pytest.mark.parametrize("record", RECORDS, ids=IDS)
def test_a_missing_extra_or_unknown_argument_is_a_type_error(record):
    cls, values = type(record), _values(record)
    if cls is not klasika.ConstructibilityVerdict:  # its `details` has a default
        with pytest.raises(TypeError):
            cls(*values[:-1])
    with pytest.raises(TypeError):
        cls(*values[:-2])
    with pytest.raises(TypeError):
        cls(*values, values[-1])
    with pytest.raises(TypeError):
        cls(*values, no_such_field=1)
    with pytest.raises(TypeError):
        cls(*values, **{cls._fields[0]: values[0]})  # given twice


@pytest.mark.parametrize("record", RECORDS, ids=IDS)
def test_equality_needs_the_same_type_and_equal_fields(record):
    cls, values = type(record), _values(record)
    assert record == cls(*values) and not record != cls(*values)
    assert record != values and record != object()
    try:
        expected = hash(values)
    except TypeError:  # a dict field makes the record unhashable too
        with pytest.raises(TypeError):
            hash(record)
    else:
        assert hash(record) == expected == hash(cls(*values))


def test_equal_fields_of_different_types_are_unequal():
    c, p, q = F(1, 2), F(0), F(4)
    assert klasika.LogQuadratic(c, p, q) != klasika.ArctanTerm(c, p, q)
    one, two = klasika.Num(1), klasika.Num(2)
    nodes = [cls(one, two) for cls in (klasika.Add, klasika.Sub, klasika.Mul, klasika.Div)]
    assert len({*nodes}) == 4
    assert klasika.Add(one, two) != klasika.Add(two, one)


@pytest.mark.parametrize("record", RECORDS, ids=IDS)
def test_setting_or_deleting_an_attribute_raises_attribute_error(record):
    field = type(record)._fields[0]
    before = getattr(record, field)
    with pytest.raises(AttributeError):
        setattr(record, field, before)
    with pytest.raises(AttributeError):
        record.no_such_field = 1
    with pytest.raises(AttributeError):
        delattr(record, field)
    assert getattr(record, field) is before


@pytest.mark.parametrize("record", RECORDS, ids=IDS)
def test_copy_and_pickle_give_an_equal_record(record):
    for twin in (copy.copy(record), copy.deepcopy(record), pickle.loads(pickle.dumps(record))):
        assert type(twin) is type(record) and twin == record and repr(twin) == repr(record)


VALUES = [P([F(1, 2), 0, -3]), klasika.SquareMatrix([[1, F(2, 3)], [0, -1]]), klasika.SymMatrix([[1, 2], [2, 0]])]


@pytest.mark.parametrize("value", VALUES, ids=[type(value).__name__ for value in VALUES])
def test_copy_and_pickle_keep_polynomials_and_matrices_immutable(value):
    for twin in (copy.copy(value), copy.deepcopy(value), pickle.loads(pickle.dumps(value))):
        assert type(twin) is type(value) and twin == value and repr(twin) == repr(value)
        with pytest.raises(AttributeError):
            twin.immutable = False


def test_post_init_normalises_and_validates():
    form = klasika.BinaryForm("1/2", 0, 1)
    assert [type(v) for v in (form.a, form.b, form.c)] == [F, F, F] and form.a == F(1, 2)
    assert klasika.BinaryForm(a=1, b="-2", c=F(3)) == klasika.BinaryForm(1, -2, 3)
    ternary = klasika.TernaryForm(1, 2, "3/4", 0, 0, -1)
    assert all(type(getattr(ternary, f)) is F for f in "abcdef")
    assert type(klasika.Num("3/4").value) is F and klasika.Num(value=2).value == 2
    for args in [("circle", 1.0, 2.0), ("ellipse", 0.0, 1.0), ("spiral", 1.0, 1.0)]:
        with pytest.raises(ValueError):
            klasika.ConicParam(*args)
    with pytest.raises(ValueError):
        klasika.ConicParam(kind="hyperbola", a=1.0, b=-1.0)


def test_verdict_details_default_is_a_new_dict_for_each_verdict():
    first = klasika.ConstructibilityVerdict(True, "x")
    second = klasika.ConstructibilityVerdict(constructible=True, reason="x")
    assert first.details == {} and first.details is not second.details
    first.details["k"] = 1
    assert second.details == {}
    assert first == klasika.ConstructibilityVerdict(True, "x", {"k": 1})
