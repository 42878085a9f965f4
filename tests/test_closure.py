"""The fraction-free closure and minimization on random automata with
non-real entries and denominators, against the Fraction reference in
fraction_closure.py and against word enumeration."""

import itertools
from fractions import Fraction

from hypothesis import given, settings, strategies as st

from ncrat.core import ExactMatrix, Scalar, matrix_inverse
from ncrat.ncpoly import Letter, words_up_to
from ncrat.realization import (
    BasePoint,
    automaton_rep,
    minimize_scalar,
    rep_add,
    scalar_rep_is_zero,
)
from ncrat.series import coefficient, coefficients, is_zero_by_enumeration

from fraction_closure import reference_is_zero, reference_minimal_dimension, reference_word_value

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


def _triangular_change(draw, n):
    P = _unit_triangular(draw, n, True) * _unit_triangular(draw, n, False)
    return P, matrix_inverse(P)


def _permutation_change(draw, n):
    perm = draw(st.permutations(range(n)))
    P = ExactMatrix(n, n, [Scalar(int(perm[i] == j)) for i in range(n) for j in range(n)])
    return P, P.transpose()


def _block(draw, m, letters, k, h, zero, letter_entry, change):
    """(C, A, B) with A a list of ExactMatrix, one per scalar letter: an
    automaton whose first k of k + h coordinates span an invariant subspace
    holding B, seen through the change of basis P that ``change`` draws.
    Letter matrix entries are drawn from ``letter_entry``, those of B and C
    from VALUES.  With zero, C vanishes on that subspace, so the series is
    zero."""
    n = k + h

    def matrix(rows, cols, keep, entry=st.sampled_from(VALUES)):
        return ExactMatrix(rows, cols, [
            draw(entry) if keep(i, j) else Scalar(0) for i in range(rows) for j in range(cols)
        ])

    P, P_inv = change(draw, n)
    A = [P * matrix(n, n, lambda i, j: i < k or j >= k, letter_entry) * P_inv for _ in range(letters)]
    B = P * matrix(n, m, lambda i, j: i < k)
    C = matrix(m, n, lambda i, j: j >= k or not zero) * P_inv
    return C, A, B


def _rep(m, base_letters, C, A, B):
    """The LinRep (C, A, B) about the zero base point."""
    bp = BasePoint.from_mapping(
        {Letter(i + 1, False): ExactMatrix.zeros(m, m) for i in range(base_letters)}
    )
    entries = [
        (bp.letters[l // (m * m)], l // m % m, l % m, row, col, a[row, col])
        for l, a in enumerate(A) for row in range(a.rows) for col in range(a.cols)
    ]
    return automaton_rep(bp, C, entries, B)


@st.composite
def automata(draw, ms=st.integers(1, 2)):
    """(LinRep, zero): one _block with k <= 3 and h <= 2 seen through a
    triangular change of basis, about a zero base point.  The number of
    states need not be a multiple of m."""
    m = draw(ms)
    base_letters = draw(st.integers(1, 2)) if m == 1 else 1
    k, h = draw(st.integers(1, 3)), draw(st.integers(0, 2))
    zero = draw(st.booleans())
    block = _block(draw, m, m * m * base_letters, k, h, zero, st.sampled_from(VALUES), _triangular_change)
    return _rep(m, base_letters, *block), zero


# about 75 % zeros
SPARSE_VALUES = (Scalar(0),) * 24 + VALUES


@st.composite
def block_sums(draw):
    """(LinRep, zero): the sum of several small _blocks with sparse letter
    matrices, each seen through a permutation, with 20 to 60 states in all, so that most
    coordinates of every closure vector are zero.  Some blocks are
    subtracted again, which cancels them in the series but not in the
    automaton."""
    m = draw(st.integers(1, 2))
    base_letters = draw(st.integers(1, 2)) if m == 1 else 1
    zero = draw(st.booleans())
    target = draw(st.integers(20, 52))
    rep = None
    while rep is None or rep.states < target:
        block = _block(draw, m, m * m * base_letters, draw(st.integers(1, 4)), draw(st.integers(0, 3)),
                       zero, st.sampled_from(SPARSE_VALUES), _permutation_change)
        term = _rep(m, base_letters, *block)
        rep = term if rep is None else rep_add(rep, 1, term)
        if draw(st.booleans()):
            rep = rep_add(rep, -1, term)
    return rep, zero


@SETTINGS
@given(automata())
def test_closure_matches_reference_and_enumeration(case):
    rep, zero = case
    verdict = scalar_rep_is_zero(rep)
    assert verdict == reference_is_zero(rep) == is_zero_by_enumeration(rep)
    if zero:
        assert verdict


@settings(max_examples=15, deadline=None)
@given(block_sums())
def test_sparse_block_sums_match_reference(case):
    # the regime the sparse kernel targets: sparse letter matrices in
    # blocks that no letter connects, so most coordinates of each closure
    # vector are zero
    rep, zero = case
    assert 20 <= rep.states <= 60
    verdict = scalar_rep_is_zero(rep)
    assert verdict == reference_is_zero(rep)
    if zero:
        assert verdict
    red, n_min = minimize_scalar(rep)
    assert red.states == n_min == reference_minimal_dimension(rep)
    assert (n_min == 0) == verdict


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
        assert reference_word_value(red, tuple(w)) == reference_word_value(rep, tuple(w))


@SETTINGS
@given(automata(ms=st.just(2)))
def test_coefficient_matches_word_values_on_the_fiber(case):
    # coefficient reads the series by its word walk and reference_word_value
    # by dense products: entry (r, c) of [S, w] holds (C A^v B)[r, c] at
    # every scalar word v of the fiber of w, and no other monomial
    rep, _ = case
    m, mm = rep.m, rep.m * rep.m
    for word in itertools.product(rep.letters, repeat=2):
        gp = coefficient(rep, word)
        fiber = list(itertools.product(*(
            range(rep.basepoint.slot(l) * mm, (rep.basepoint.slot(l) + 1) * mm) for l in word
        )))
        monomials = {v: tuple(Letter(i + 1, False) for i in v) for v in fiber}
        for v in fiber:
            value = reference_word_value(rep, v)
            for r in range(m):
                for c in range(m):
                    assert gp.entries[r][c].coeff(monomials[v]) == value[r, c]
        assert all(set(p.terms) <= set(monomials.values()) for row in gp.entries for p in row)
    # the one walk of coefficients reads what coefficient reads word by word
    loop = [(w, gp) for w in words_up_to(rep.letters, 2)
            if not (gp := coefficient(rep, w)).is_zero()]
    assert list(coefficients(rep, 2).items()) == loop
