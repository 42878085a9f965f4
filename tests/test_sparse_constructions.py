"""The automaton constructions on sparse rows of C and B.

``rep_mul``, ``rep_inv``, ``_sum`` and ``_scaled`` build the rows of C, B
and the letter matrices directly.  Here their results are compared, entry
for entry, with the block formulas of the realization docstring computed
on dense matrices, minimization is compared with the Scalar-form
reference of fraction_closure.py, and every automaton that compile and
minimization return is checked to hold only nonzero entries and no empty
row."""

import os
import shlex

from hypothesis import given, settings, strategies as st

from ncrat.cli import _parse_basepoint
from ncrat.core import ExactMatrix
from ncrat.errors import SingularConstantTerm
from ncrat.ideals import BUILTIN_KINDS, builtin_ideal
from ncrat.ncpoly import Alphabet, Letter
from ncrat.ratexpr import parse_expression, parse_poly
from ncrat.realization import (
    BasePoint,
    LinRep,
    _scaled,
    _sum,
    compile_expression,
    minimize_scalar,
    rep_inv,
    rep_mul,
)

from fraction_closure import dense, hstack, reference_minimize, rref, vstack
from test_closure import VALUES, _block, _rep, _triangular_change

README = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")
_zeros = ExactMatrix.zeros


def _inverse(a):
    """a^-1 by Gauss-Jordan on [a | I], or None when a is singular."""
    m = a.rows
    rows, pivots = rref([list(a.row(i)) + list(ExactMatrix.identity(m).row(i)) for i in range(m)])
    if pivots[:m] != list(range(m)):
        return None
    return ExactMatrix(m, m, [x for row in rows for x in row[m:]])


def _assert_sparse_rows(rep):
    """Rows of C and B in range, each nonempty and without zero entries."""
    for rows, n_rows, n_cols in ((rep.c_rows, rep.m, rep.states), (rep.b_rows, rep.states, rep.m)):
        for i, row in rows.items():
            assert 0 <= i < n_rows and row
            assert all(0 <= j < n_cols and x for j, x in row.items())


def _assert_equals(rep, C, A, B):
    assert (rep.C, rep.B) == (C, B)
    assert [dense(a, rep.states) for a in rep.A] == A
    _assert_sparse_rows(rep)


@st.composite
def operands(draw, zero=st.booleans()):
    """Two automata about the same zero base point, each with its dense
    (C, A, B), and an m x m matrix a; ``zero`` draws whether a series is
    zero, and with it CB = 0."""
    m = draw(st.integers(1, 2))
    base_letters = draw(st.integers(1, 2)) if m == 1 else 1
    out = []
    for _ in range(2):
        block = _block(draw, m, m * m * base_letters, draw(st.integers(1, 3)), draw(st.integers(0, 2)),
                       draw(zero), st.sampled_from(VALUES), _triangular_change)
        out.append((_rep(m, base_letters, *block), block))
    a = ExactMatrix(m, m, [draw(st.sampled_from(VALUES)) for _ in range(m * m)])
    return out, a


@settings(max_examples=80)
@given(operands())
def test_sum_and_scaled_match_block_formulas(case):
    ((s1, (C1, A1, B1)), (s2, (C2, A2, B2))), a = case
    D1, D2 = C1.cols, C2.cols
    diag = [
        vstack([hstack([x, _zeros(D1, D2)]), hstack([_zeros(D2, D1), y])]) for x, y in zip(A1, A2)
    ]
    _assert_equals(_sum([s1, s2]), hstack([C1, C2]), diag, vstack([B1, B2]))
    _assert_equals(_scaled(a, s1), a * C1, A1, B1)


@settings(max_examples=80)
@given(operands())
def test_product_matches_block_formulas(case):
    ((s1, (C1, A1, B1)), (s2, (C2, A2, B2))), _ = case
    m, D1, D2 = s1.m, C1.cols, C2.cols
    C = hstack([C1, (C1 * B1) * C2])
    A = [vstack([hstack([x, (x * B1) * C2]), hstack([_zeros(D2, D1), y])]) for x, y in zip(A1, A2)]
    _assert_equals(rep_mul(s1, s2), C, A, vstack([_zeros(D1, m), B2]))


def test_inverse_matches_block_formulas():
    invertible, reached = [], set()

    @settings(max_examples=80)
    @given(operands(zero=st.just(False)))
    def check(case):
        ((s, (C, A, B)), _), _ = case
        m, D = s.m, C.cols
        a_inv = _inverse(C * B)
        invertible.append(a_inv is not None)
        reached.add((m, a_inv is not None))
        try:
            inv = rep_inv(s)
        except SingularConstantTerm:
            assert a_inv is None
            return
        assert a_inv is not None
        mats = [vstack([hstack([x - (x * B) * a_inv * C, (x * B) * a_inv]), _zeros(m, D + m)]) for x in A]
        _assert_equals(inv, hstack([-(a_inv * C), a_inv]), mats, vstack([_zeros(D, m), ExactMatrix.identity(m)]))

    check()
    assert sum(invertible) >= len(invertible) // 4
    # a one-Scalar constant term at m = 1 and a 2 x 2 one, each invertible and singular
    assert reached == {(1, True), (1, False), (2, True), (2, False)}


def test_minimization_matches_the_scalar_reference():
    zeros = []

    @settings(max_examples=80)
    @given(operands())
    def check(case):
        ((s1, _), (s2, _)), a = case
        for s in (s1, s2, rep_mul(s1, s2), _sum([s1, _scaled(a, s2)])):
            small, states = minimize_scalar(s)
            ref, ref_states = reference_minimize(s)
            assert states == small.states == ref_states
            assert small.basepoint is s.basepoint
            assert small.c_rows == ref.c_rows and small.b_rows == ref.b_rows
            assert [x.rows for x in small.A] == [x.rows for x in ref.A]
            zeros.append(states == 0)

    check()
    assert any(zeros) and not all(zeros)


def _readme_commands():
    """The argument lists of the ``ncrat ...`` lines of the README's CLI block."""
    with open(README) as fh:
        block = fh.read().split("\n## CLI\n", 1)[1].split("```", 2)[1]
    return [shlex.split(line)[1:] for line in block.splitlines() if line.startswith("ncrat ")]


def _option(args, name, default=None):
    return args[args.index(name) + 1] if name in args else default


def _and_minimized(rep):
    return [rep, minimize_scalar(rep)[0]]


def test_compiled_and_minimized_automata_hold_only_nonzeros():
    reps = []
    ideals = {(kind, 2) for kind in BUILTIN_KINDS}
    polys = []
    for args in _readme_commands():
        g = int(_option(args, "--g", 2))
        if "--expr" in args:
            expr = parse_expression(_option(args, "--expr"), Alphabet.x(g))
            spec = _option(args, "--basepoint", _option(args, "--point"))
            if spec.startswith("file:"):  # the E12, E21 point of the README's eval example
                bp = BasePoint.from_mapping({Letter(1, False): ExactMatrix.unit(2, 0, 1),
                                             Letter(2, False): ExactMatrix.unit(2, 1, 0)})
            else:
                bp = _parse_basepoint(spec, expr)
            reps += _and_minimized(compile_expression(expr, bp))
        if "--ideal" in args:
            ideals.add((_option(args, "--ideal"), g))
            if "--poly" in args:
                polys.append((_option(args, "--ideal"), g, _option(args, "--poly")))
    assert len(reps) == 6 and len(polys) == 3
    for kind, g in sorted(ideals):
        ideal = builtin_ideal(kind, g)
        reps += ideal.resolvent_reps.values()
        for expr in ideal.resolvent.values():
            reps += _and_minimized(compile_expression(expr, ideal.basepoint))
        for f in ideal.generators:
            reps += _and_minimized(ideal.oracle_rep(f))
    for kind, g, text in polys:
        ideal = builtin_ideal(kind, g)
        reps += _and_minimized(ideal.oracle_rep(parse_poly(text, ideal.alphabet)))
    for rep in reps:
        _assert_sparse_rows(rep)
    assert any(rep.states == 0 for rep in reps) and any(rep.states > 20 for rep in reps)


def test_linrep_stores_no_dense_view():
    assert "C" not in LinRep.__slots__ and "B" not in LinRep.__slots__
    assert {"c_rows", "b_rows", "states"} <= set(LinRep.__slots__)
