"""Properties of the automaton arithmetic on random rational expressions:
the inverse laws, and exact evaluation of a compiled automaton against
evaluation of the expression tree, at a scalar and a 2 x 2 base point."""

from fractions import Fraction

from hypothesis import assume, given, settings, strategies as st

from ncrat.core import ExactMatrix, Scalar
from ncrat.errors import DomainError, ResolventSingular, SingularConstantTerm
from ncrat.ncpoly import Alphabet, Letter
from ncrat.ratexpr import Add, Const, Inv, Mul, Neg, RatExpr, Var, eval_expression
from ncrat.realization import (
    BasePoint,
    compile_expression,
    is_zero,
    rep_add,
    rep_const,
    rep_inv,
    rep_mul,
)
from ncrat.series import eval_rep

L1, L2 = Letter(1, False), Letter(2, False)
ALPHABET = Alphabet.x(2)
BASEPOINTS = {
    "scalar": BasePoint.scalars([1, 2]),
    "E12,E21": BasePoint.from_mapping({L1: ExactMatrix.unit(2, 0, 1), L2: ExactMatrix.unit(2, 1, 0)}),
}
CONSTS = tuple(Scalar(*x) for x in ((1, 0), (2, 0), (-1, 0), (Fraction(1, 2), 0), (0, 1)))

nodes = st.recursive(
    st.one_of(st.sampled_from((Var(L1), Var(L2))), st.sampled_from(CONSTS).map(Const)),
    lambda inner: st.one_of(
        st.lists(inner, min_size=2, max_size=3).map(lambda c: Add(tuple(c))),
        st.lists(inner, min_size=2, max_size=3).map(lambda c: Mul(tuple(c))),
        inner.map(Neg),
        inner.map(Inv),
    ),
    max_leaves=5,
)
entries = st.sampled_from(tuple(Scalar(*x) for x in ((0, 0), (1, 0), (-1, 0), (2, 0), (0, 1), (Fraction(1, 2), 1))))


def _compiled(node, where):
    try:
        return compile_expression(RatExpr(ALPHABET, node), BASEPOINTS[where])
    except DomainError:
        return None


def test_inverse_laws():
    outcomes = []

    @settings(max_examples=60)
    @given(nodes, st.sampled_from(sorted(BASEPOINTS)))
    def check(node, where):
        s = _compiled(node, where)
        try:
            s_inv = None if s is None else rep_inv(s)
        except SingularConstantTerm:
            s_inv = None
        outcomes.append(s_inv is not None)
        assume(s_inv is not None)
        one = rep_const(ExactMatrix.identity(s.m), s.basepoint)
        for prod in (rep_mul(s, s_inv), rep_mul(s_inv, s)):
            assert is_zero(rep_add(prod, -1, one))

    check()
    assert sum(outcomes) >= len(outcomes) // 2


def test_eval_rep_matches_tree_evaluation():
    outcomes = []

    @settings(max_examples=60)
    @given(nodes, st.sampled_from(sorted(BASEPOINTS)), st.integers(1, 2), st.data())
    def check(node, where, s, data):
        rep = _compiled(node, where)
        assume(rep is not None)
        size = rep.m * s
        point = tuple(
            ExactMatrix(size, size, data.draw(st.lists(entries, min_size=size * size, max_size=size * size)))
            for _ in (L1, L2)
        )
        try:
            expect = eval_expression(RatExpr(ALPHABET, node), point)
            value = eval_rep(rep, point)
        except (DomainError, ResolventSingular):
            outcomes.append(False)
            return
        outcomes.append(True)
        assert value == expect

    check()
    assert sum(outcomes) >= len(outcomes) // 2
