import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from ncrat.core import ExactMatrix, Scalar
from ncrat.errors import (
    AlphabetMismatch,
    GOutOfRange,
    MissingLetter,
    SizeMismatch,
    SpecError,
    ZeroPolynomialError,
)
from ncrat.ncpoly import (Alphabet, Letter, NcPoly, grlex_key, word_count, word_star,
                          words_up_to)
from ncrat.ratexpr import STAR_RULES, _lookup, _point_binding, _point_size

from conftest import random_exact_matrix

A2 = Alphabet.x(2)


def random_poly(rng, alphabet, max_deg=3, max_terms=4, star=False):
    f = NcPoly.zero(alphabet)
    for _ in range(rng.randint(1, max_terms)):
        word = tuple(
            Letter(rng.randint(1, alphabet.size), star and rng.random() < 0.4)
            for _ in range(rng.randint(0, max_deg))
        )
        f = f + NcPoly.monomial(alphabet, Scalar(rng.randint(-3, 3), rng.randint(-1, 1)), word)
    return f


class TestArithmetic:
    def test_square_expansion(self):
        f = NcPoly.var(A2, 1) + NcPoly.var(A2, 2)
        sq = f * f
        assert sq.degree_and_terms() == (2, 4)
        l1, l2 = Letter(1), Letter(2)
        assert sq.coeff((l1, l2)) == Scalar(1)
        assert sq.coeff((l2, l1)) == Scalar(1)

    def test_additive_inverse(self):
        rng = random.Random(11)
        for _ in range(20):
            f = random_poly(rng, A2)
            assert (f + f.scale(-1)).is_zero()
            assert (NcPoly.one(A2) * f) == f

    def test_alphabet_mismatch(self):
        with pytest.raises(AlphabetMismatch):
            NcPoly.var(A2, 1) + NcPoly.var(Alphabet.x(3), 1)


def test_matrix_alphabet_range():
    assert Alphabet.matrix(9).size == 81
    with pytest.raises(GOutOfRange):
        Alphabet.matrix(10)


def test_duplicate_letter_names_rejected():
    with pytest.raises(SpecError, match="duplicate letter names"):
        Alphabet(["X1", "X1"])


class TestInvolution:
    def test_rule_application(self):
        f = NcPoly.monomial(A2, Scalar(0, 2), (Letter(1), Letter(2, True)))
        expected = NcPoly.monomial(A2, Scalar(0, -2), (Letter(2), Letter(1, True)))
        assert f.star() == expected

    def test_involution_and_antihomomorphism(self):
        rng = random.Random(12)
        for _ in range(20):
            f = random_poly(rng, A2, star=True)
            h = random_poly(rng, A2, star=True)
            assert f.star().star() == f
            assert (f * h).star() == h.star() * f.star()


class TestDegreeAndTerms:
    def test_counting(self):
        f = (
            NcPoly.monomial(A2, 1, (Letter(1), Letter(2, True), Letter(1)))
            + NcPoly.var(A2, 1).scale(3)
            - NcPoly.one(A2)
        )
        assert f.degree_and_terms() == (3, 3)

    def test_constant(self):
        assert NcPoly.constant(A2, 5).degree_and_terms() == (0, 1)

    def test_spherical_generator(self):
        f = NcPoly.one(A2)
        for j in (1, 2):
            f = f - NcPoly.var(A2, j, starred=True) * NcPoly.var(A2, j)
        assert f.degree_and_terms() == (2, 3)

    def test_zero_polynomial_raises(self):
        with pytest.raises(ZeroPolynomialError):
            NcPoly.zero(A2).degree_and_terms()

    def test_degree_of_products_of_monomials(self):
        rng = random.Random(13)
        for _ in range(20):
            w1 = tuple(Letter(rng.randint(1, 2)) for _ in range(rng.randint(1, 3)))
            w2 = tuple(Letter(rng.randint(1, 2)) for _ in range(rng.randint(1, 3)))
            f = NcPoly.monomial(A2, 2, w1)
            h = NcPoly.monomial(A2, 1, w2)
            assert (f * h).degree_and_terms()[0] == len(w1) + len(w2)


class TestEvaluation:
    def test_reference_example(self):
        f = (NcPoly.var(A2, 1) * NcPoly.var(A2, 2)).scale(3) - NcPoly.var(A2, 1) * NcPoly.var(A2, 1)
        a1 = ExactMatrix.from_rows([[1, 1], [-1, 0]])
        a2 = ExactMatrix.from_rows([[1, 0], [2, -1]])
        assert f.eval((a1, a2)) == ExactMatrix.from_rows([[9, -4], [-2, 1]])

    def test_unitary_kills_trig_generator(self):
        f = NcPoly.one(A2) - NcPoly.var(A2, 1, starred=True) * NcPoly.var(A2, 1)
        swap = ExactMatrix.from_rows([[0, 1], [1, 0]])
        other = ExactMatrix.identity(2)
        assert f.eval((swap, other)).is_zero()

    def test_identity_case(self):
        f = NcPoly.one(A2)
        m = ExactMatrix.from_rows([[5, 0], [1, 2]])
        assert f.eval((m, m)) == ExactMatrix.identity(2)

    def test_ring_homomorphism(self):
        rng = random.Random(14)
        for _ in range(15):
            f = random_poly(rng, A2)
            h = random_poly(rng, A2)
            point = (random_exact_matrix(rng, 3), random_exact_matrix(rng, 3))
            assert (f + h).eval(point) == f.eval(point) + h.eval(point)
            assert (f * h).eval(point) == f.eval(point) * h.eval(point)

    def test_adjoint_rule_compatibility(self):
        rng = random.Random(15)
        for _ in range(15):
            f = random_poly(rng, A2, star=True)
            point = (random_exact_matrix(rng, 2), random_exact_matrix(rng, 2))
            assert f.star().eval(point) == f.eval(point).conjugate_transpose()

    def test_formal_rule_requires_star_binding(self):
        f = NcPoly.var(A2, 1, starred=True)
        m = ExactMatrix.identity(2)
        with pytest.raises(MissingLetter):
            f.eval((m, m), star_rule="formal")
        bound = {Letter(1, True): m}
        assert f.eval(bound, star_rule="formal") == m

    def test_unknown_star_rule_rejected(self):
        m = ExactMatrix.identity(2)
        with pytest.raises(SpecError):
            NcPoly.var(A2, 1).eval((m, m), star_rule="transpose")

    def test_mixed_sizes_rejected(self):
        f = NcPoly.var(A2, 1) + NcPoly.var(A2, 2)
        with pytest.raises(SizeMismatch):
            f.eval((ExactMatrix.identity(2), ExactMatrix.identity(3)))

    def test_float_evaluation(self):
        f = NcPoly.var(A2, 1) * NcPoly.var(A2, 2)
        a = np.array([[0, 1], [1, 0]], dtype=complex)
        b = np.diag([1, -1]).astype(complex)
        assert np.allclose(f.eval((a, b)), a @ b)


def reference_eval(f: NcPoly, point, star_rule="adjoint"):
    """f at a point, word by word: each word multiplied out from the
    identity and scaled by its coefficient, exactly at exact points and in
    complex floats otherwise."""
    binding = _point_binding(point, star_rule)
    n = _point_size(binding)
    if isinstance(next(iter(binding.values())), ExactMatrix):
        acc = ExactMatrix.zeros(n, n)
        for w, c in f.terms.items():
            val = ExactMatrix.identity(n)
            for l in w:
                val = val * _lookup(binding, l)
            acc = acc + val.scale(c)
        return acc
    acc = np.zeros((n, n), dtype=complex)
    for w, c in f.terms.items():
        val = np.eye(n, dtype=complex)
        for l in w:
            val = val @ _lookup(binding, l)
        acc = acc + c.to_complex() * val
    return acc


LETTERS4 = [Letter(i, s) for i in (1, 2) for s in (False, True)]
gaussian_ints = st.builds(Scalar, st.integers(-2, 2), st.integers(-2, 2))
polys = st.dictionaries(
    st.lists(st.sampled_from(LETTERS4), max_size=3).map(tuple),
    st.builds(Scalar, st.fractions(-3, 3, max_denominator=3), st.integers(-2, 2)),
    max_size=4,
).map(lambda terms: NcPoly(A2, terms))
# a point binds X1 and X2 as a tuple or a mapping, or binds all four letters
POINT_FORMS = ("tuple", "mapping", "starred mapping")
SOME_ENTRIES = [Scalar(k, k % 3 - 1) for k in range(16)]


@settings(max_examples=300)
@given(polys, st.integers(1, 2), st.lists(gaussian_ints, min_size=16, max_size=16),
       st.sampled_from(POINT_FORMS), st.sampled_from(STAR_RULES), st.booleans())
@example(NcPoly.zero(A2), 2, SOME_ENTRIES, "tuple", "adjoint", True)
@example(NcPoly.zero(A2), 2, SOME_ENTRIES, "starred mapping", "formal", False)
@example(NcPoly.constant(A2, Scalar(Fraction(1, 3), -1)), 2, SOME_ENTRIES, "mapping", "formal", True)
@example(NcPoly.constant(A2, Scalar(Fraction(1, 3), -1)), 2, SOME_ENTRIES, "tuple", "adjoint", False)
def test_eval_matches_word_by_word_reference(f, n, entries, form, star_rule, exact):
    chunks = [entries[4 * k : 4 * k + n * n] for k in range(4)]
    if exact:
        mats = [ExactMatrix(n, n, chunk) for chunk in chunks]
    else:
        mats = [np.array([x.to_complex() for x in chunk]).reshape(n, n) for chunk in chunks]
    if form == "tuple":
        point = tuple(mats[:2])
    else:
        point = dict(zip(LETTERS4[::2] + LETTERS4[1::2], mats))
        if form == "mapping":
            point = {l: m for l, m in point.items() if not l.starred}

    def outcome(evaluate):
        try:
            return evaluate(f, point, star_rule)
        except MissingLetter:  # a starred letter the formal rule leaves unbound
            return MissingLetter

    want, got = outcome(reference_eval), outcome(NcPoly.eval)
    if want is MissingLetter or got is MissingLetter:
        assert got is want
    elif exact:
        assert got == want
    else:
        assert np.allclose(got, want, rtol=1e-12, atol=1e-12)


def test_word_star():
    w = (Letter(1), Letter(2, True))
    assert word_star(w) == (Letter(2), Letter(1, True))
    assert word_star(word_star(w)) == w


def test_support_is_graded_lex():
    f = (
        NcPoly.monomial(A2, 1, (Letter(2),))
        + NcPoly.monomial(A2, 1, (Letter(1), Letter(1)))
        + NcPoly.one(A2)
    )
    assert f.support() == [(), (Letter(2),), (Letter(1), Letter(1))]


def test_words_up_to_is_grlex_over_grlex_letters():
    letters = [Letter(i, s) for i in (1, 2) for s in (False, True)]
    words = words_up_to(letters, 3)
    assert len(words) == 1 + 4 + 16 + 64
    assert words == sorted(words, key=grlex_key)
    assert words_up_to(letters, 0) == [()]
    with pytest.raises(SpecError):
        words_up_to(letters, -1)


def test_word_count_counts_words_up_to_its_cap():
    for n in range(4):
        for d in range(-1, 5):
            expect = len(words_up_to([Letter(i + 1, False) for i in range(n)], d)) if d >= 0 else 0
            assert word_count(n, d, 10 ** 6) == expect
    assert word_count(3, 8, 9841) == 9841 and word_count(3, 8, 9840) == 9841
    # the count stops once it passes the cap, whatever the length
    assert word_count(1, 10 ** 12, 50) == 51 and word_count(2, 10 ** 12, 10 ** 6) == 10 ** 6 + 1
