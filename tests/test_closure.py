"""The fraction-free closure and minimization on random automata with
non-real entries and denominators, against the Fraction reference in
fraction_closure.py and against word enumeration."""

from fractions import Fraction

from hypothesis import given, settings, strategies as st

from ncrat.core import ExactMatrix, Scalar, matrix_inverse
from ncrat.ncpoly import Letter
from ncrat.realization import (
    BasePoint,
    LinRep,
    SparseMatrix,
    is_zero_by_enumeration,
    minimize_scalar,
    scalar_rep_is_zero,
)

from fraction_closure import reference_is_zero, reference_minimal_dimension

# zero-heavy, with non-real values and non-integer denominators
VALUES = tuple(
    Scalar(*x)
    for x in (
        (0, 0), (0, 0), (0, 0), (1, 0), (-1, 0), (2, 0), (0, 1), (1, 1), (0, -2),
        (Fraction(1, 2), 0), (Fraction(-2, 3), Fraction(1, 3)), (Fraction(3, 2), Fraction(-1, 2)),
    )
)
SETTINGS = settings(max_examples=80)


def _unit_triangular(draw, n, lower):
    e = []
    for i in range(n):
        for j in range(n):
            if i == j:
                e.append(Scalar(1))
            elif (i > j) == lower:
                e.append(draw(st.sampled_from(VALUES)))
            else:
                e.append(Scalar(0))
    return ExactMatrix(n, n, e)


@st.composite
def automata(draw):
    """(LinRep, zero): an automaton, about a zero base point, whose first k
    coordinates span an invariant subspace holding B, seen through a random
    change of basis P.  With zero, C vanishes on that subspace, so the
    series is zero.  The number of states need not be a multiple of m."""
    m = draw(st.integers(1, 2))
    base_letters = draw(st.integers(1, 2)) if m == 1 else 1
    k, h = draw(st.integers(1, 3)), draw(st.integers(0, 2))
    zero = draw(st.booleans())
    n = k + h
    entry = st.sampled_from(VALUES)

    def matrix(rows, cols, keep):
        return ExactMatrix(rows, cols, [
            draw(entry) if keep(i, j) else Scalar(0) for i in range(rows) for j in range(cols)
        ])

    P = _unit_triangular(draw, n, True) * _unit_triangular(draw, n, False)
    P_inv = matrix_inverse(P)
    mats = []
    for _ in range(m * m * base_letters):
        a = P * matrix(n, n, lambda i, j: i < k or j >= k) * P_inv
        sm = SparseMatrix(n)
        for i in range(n):
            for j in range(n):
                sm.add_entry(i, j, a[i, j])
        mats.append(sm)
    B = P * matrix(n, m, lambda i, j: i < k)
    C = matrix(m, n, lambda i, j: j >= k or not zero) * P_inv
    bp = BasePoint.from_mapping(
        {Letter(i + 1, False): ExactMatrix.zeros(m, m) for i in range(base_letters)}
    )
    return LinRep(bp, C, mats, B), zero


@SETTINGS
@given(automata())
def test_closure_matches_reference_and_enumeration(case):
    rep, zero = case
    verdict = scalar_rep_is_zero(rep)
    assert verdict == reference_is_zero(rep) == is_zero_by_enumeration(rep)
    if zero:
        assert verdict


@SETTINGS
@given(automata(), st.data())
def test_minimization_preserves_words_and_is_minimal(case, data):
    rep, _ = case
    red, n_min = minimize_scalar(rep)
    assert red.states == n_min == reference_minimal_dimension(rep)
    assert red.basepoint == rep.basepoint
    assert (n_min == 0) == scalar_rep_is_zero(rep)
    word = st.lists(st.integers(0, len(rep.A) - 1), max_size=5)
    for w in data.draw(st.lists(word, min_size=1, max_size=8)):
        assert red.word_value(tuple(w)) == rep.word_value(tuple(w))
