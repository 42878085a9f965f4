"""The record classes on core.Value and core.Frozen keep the dataclass
contract: constructor parameters in field order with their defaults,
field-wise equality per class, hash over the fields when frozen (none
when mutable), the dataclass repr, immutability where frozen, and copy
and pickle round trips."""

import copy
import inspect
import pickle

import pytest

from ncrat.acceptance import CriterionResult
from ncrat.core import ExactMatrix, Frozen, Scalar
from ncrat.errors import GOutOfRange, SpecError
from ncrat.gram import GramConstraint, GramProblem
from ncrat.ideals import MembershipVerdict, RRIdeal, builtin_ideal, is_member
from ncrat.ncpoly import Alphabet, Letter, NcPoly
from ncrat.positivity import ProbeReport, SohsCertificate, VerifyResult
from ncrat.ratexpr import Add, Const, Inv, Mul, Neg, RatExpr, Var, parse_poly
from ncrat.realization import BasePoint
from ncrat.sampler import SampleDomain, Witness
from ncrat.series import GenPoly

A1 = Alphabet.x(1)
X1 = Var(Letter(1, False))
HALF = Const(Scalar(1, 2))
P = parse_poly("1 - X1", A1)
TWO = ExactMatrix.scalar(1, 2)

# class -> (constructor arguments, frozen); the field names are the
# constructor's parameters, in order
CASES = {
    Const: ((Scalar(1, 2),), True),
    Var: ((Letter(1, False),), True),
    Add: (((X1, HALF),), True),
    Neg: ((X1,), True),
    Mul: (((X1, X1),), True),
    Inv: ((X1,), True),
    RatExpr: ((A1, Add((X1, HALF))), True),
    BasePoint: (((Letter(1, False),), (TWO,), 1), True),
    MembershipVerdict: ((True,), False),
    SampleDomain: (("unitaries", 2), True),
    Witness: ((1, 0, 5, (TWO,), TWO, 2.0), False),
    SohsCertificate: (((P,), NcPoly.zero(A1), None), False),
    VerifyResult: ((True, "zero", True), False),
    GramConstraint: (((0,), ((0, 0),), Scalar(1)), False),
    GramProblem: ((1, A1, ((),), (GramConstraint((), ((0, 0),), Scalar(1)),)), False),
    ProbeReport: ((-1.0, 1, 0, 3), False),
    GenPoly: ((1, (Letter(1, False),), ((P,),)), False),
    CriterionResult: ((1, "criterion", True, 0.5, "detail"), False),
}
FIELDS = {
    Const: ("value",),
    Var: ("letter",),
    Add: ("children",),
    Neg: ("child",),
    Mul: ("children",),
    Inv: ("child",),
    RatExpr: ("alphabet", "node"),
    BasePoint: ("letters", "mats", "m"),
    MembershipVerdict: ("member",),
    SampleDomain: ("kind", "g"),
    Witness: ("size", "trial", "seed", "point", "value", "score"),
    SohsCertificate: ("squares", "remainder", "cofactors"),
    VerifyResult: ("identity_ok", "remainder_path", "remainder_ok"),
    GramConstraint: ("word", "pairs", "rhs"),
    GramProblem: ("d", "alphabet", "basis", "constraints"),
    ProbeReport: ("min_eigenvalue", "size", "trial", "samples"),
    GenPoly: ("m", "letters", "entries"),
    CriterionResult: ("number", "name", "ok", "seconds", "detail"),
    RRIdeal: ("name", "alphabet", "generators", "resolvent", "basepoint", "g",
              "domain_kind", "resolvent_reps"),
}
DEFAULTS = {SohsCertificate: {"cofactors": None}, CriterionResult: {"detail": ""}}


def _make(cls):
    return cls(*CASES[cls][0])


def _values(x):
    return tuple(getattr(x, name) for name in FIELDS[type(x)])


@pytest.mark.parametrize("cls", list(FIELDS), ids=lambda c: c.__name__)
def test_constructor_signature(cls):
    params = list(inspect.signature(cls).parameters.values())
    assert tuple(p.name for p in params) == FIELDS[cls] == cls.__slots__
    assert all(p.kind is p.POSITIONAL_OR_KEYWORD for p in params)
    defaults = {p.name: p.default for p in params if p.default is not p.empty}
    assert defaults == DEFAULTS.get(cls, {})
    assert issubclass(cls, Frozen) == (cls is RRIdeal or CASES[cls][1])


@pytest.mark.parametrize("cls", list(CASES), ids=lambda c: c.__name__)
class TestParity:
    def test_fields_and_keywords(self, cls):
        args = CASES[cls][0]
        x = _make(cls)
        assert _values(x) == args
        assert cls(**dict(zip(FIELDS[cls], args))) == x
        assert not hasattr(x, "__dict__")

    def test_equality_is_field_wise_and_per_class(self, cls):
        x, y = _make(cls), _make(cls)
        assert x is not y and x == y and not x != y
        assert x.__eq__(object()) is NotImplemented
        assert x != _values(x)
        # the same arguments but another last one
        changed = CASES[cls][0][:-1] + ({SampleDomain: 3, Add: (HALF,), Mul: (HALF,)}.get(cls, "other"),)
        assert cls(*changed) != x

    def test_hash(self, cls):
        x = _make(cls)
        if CASES[cls][1]:
            assert hash(x) == hash(_values(x)) == hash(_make(cls))
        else:
            with pytest.raises(TypeError):
                hash(x)

    def test_repr_is_the_dataclass_text(self, cls):
        x = _make(cls)
        fields = ", ".join(f"{name}={value!r}" for name, value in zip(FIELDS[cls], _values(x)))
        assert repr(x) == f"{cls.__name__}({fields})"

    def test_assignment(self, cls):
        x = _make(cls)
        name = FIELDS[cls][0]
        if CASES[cls][1]:
            with pytest.raises(AttributeError):
                setattr(x, name, None)
            with pytest.raises(AttributeError):
                delattr(x, name)
            with pytest.raises(AttributeError):
                x.extra = None
            assert _values(x) == CASES[cls][0]
        else:
            setattr(x, name, None)
            assert getattr(x, name) is None

    @pytest.mark.parametrize("clone", [copy.copy, copy.deepcopy, lambda x: pickle.loads(pickle.dumps(x))],
                             ids=["copy", "deepcopy", "pickle"])
    def test_round_trip(self, cls, clone):
        x = _make(cls)
        y = clone(x)
        assert type(y) is cls and y == x and y is not x


def test_nodes_compare_by_class_and_recursively():
    assert Neg(X1) != Inv(X1) and Add((X1,)) != Mul((X1,))
    assert Add((Neg(Var(Letter(1, False))), Const(Scalar(1, 2)))) == Add((Neg(X1), HALF))
    assert Add((Neg(X1), HALF)) != Add((Inv(X1), HALF))
    assert {Neg(X1): 1}[Neg(Var(Letter(1, False)))] == 1


def test_post_init_checks_stay():
    with pytest.raises(ValueError):
        Add(())
    with pytest.raises(ValueError):
        Mul(())
    with pytest.raises(SpecError, match="unknown sample domain kind"):
        SampleDomain("cube", 1)
    with pytest.raises(GOutOfRange, match="g >= 1"):
        SampleDomain("unitaries", 0)
    cert = SohsCertificate([P], NcPoly.zero(A1), [(P, 0, P)])
    assert cert.squares == (P,) and cert.cofactors == ((P, 0, P),)


class TestIdealIdentity:
    # an RRIdeal is frozen and equal only to itself
    def test_identity_equality_and_hash(self):
        T = builtin_ideal("T", 1)
        twin = RRIdeal(*_values(T))
        assert T == T and twin != T and hash(T) == object.__hash__(T)
        assert repr(T) == "RRIdeal(T(g=1), 2 generators)"
        with pytest.raises(AttributeError):
            T.g = 2
        assert T.g == 1

    @pytest.mark.parametrize("clone", [copy.copy, copy.deepcopy, lambda x: pickle.loads(pickle.dumps(x))],
                             ids=["copy", "deepcopy", "pickle"])
    def test_round_trip(self, clone):
        T = builtin_ideal("T", 1)
        y = clone(T)
        assert type(y) is RRIdeal and y is not T and y != T
        assert (y.name, y.alphabet, y.generators, y.g, y.domain_kind) == (
            T.name, T.alphabet, T.generators, T.g, T.domain_kind)
        f = parse_poly("1 - X1^* X1", T.alphabet)
        assert is_member(f, y).member and not is_member(NcPoly.var(T.alphabet, 1), y).member

