import json
import math
import random
from fractions import Fraction

import numpy as np
import pytest

from ncrat.core import (
    ExactMatrix,
    FractionFreeBasis,
    Scalar,
    ZERO,
    ONE,
    I,
    block_matrix,
    conjugate_transpose,
    embed,
    float_from_json,
    float_to_json,
    gaussian_scalar,
    gaussian_vector,
    matrix_inverse,
    matrix_product,
    split_blocks,
)
from ncrat.errors import DimensionMismatch, SingularMatrixError

from conftest import random_exact_matrix, random_scalar
from fraction_closure import rref


class TestScalar:
    def test_field_axioms_on_random_triples(self):
        rng = random.Random(1)
        for _ in range(200):
            a, b, c = (random_scalar(rng) for _ in range(3))
            assert (a + b) + c == a + (b + c)
            assert (a * b) * c == a * (b * c)
            assert a * (b + c) == a * b + a * c
            assert a + b == b + a
            assert a * b == b * a
            if a:
                assert a * a.inverse() == ONE
                assert a.inverse() * a == ONE

    def test_units_and_conjugation(self):
        assert I * I == Scalar(-1)
        assert I.conjugate() == Scalar(0, -1)
        s = Scalar(Fraction(1, 2), Fraction(-3, 4))
        assert s.conjugate().conjugate() == s
        assert (s / s) == ONE

    def test_parse_and_json(self):
        s = Scalar.from_json(["1/2", "-3/4"])
        assert s == Scalar(Fraction(1, 2), Fraction(-3, 4))
        assert Scalar.from_json(s.to_json()) == s

    def test_zero_division(self):
        with pytest.raises(ZeroDivisionError):
            ZERO.inverse()


class TestMatrixProduct:
    def test_identity(self):
        m = ExactMatrix.from_rows([[1, 2], [3, 4]])
        assert matrix_product(ExactMatrix.identity(2), m) == m

    def test_matrix_units(self):
        e12 = ExactMatrix.unit(2, 0, 1)
        e21 = ExactMatrix.unit(2, 1, 0)
        assert e12 * e21 == ExactMatrix.unit(2, 0, 0)

    def test_polynomial_evaluation_by_hand(self):
        # 3*A1*A2 - A1^2 at the standard pair gives [[9,-4],[-2,1]]
        a1 = ExactMatrix.from_rows([[1, 1], [-1, 0]])
        a2 = ExactMatrix.from_rows([[1, 0], [2, -1]])
        value = (a1 * a2).scale(3) - a1 * a1
        assert value == ExactMatrix.from_rows([[9, -4], [-2, 1]])

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            matrix_product(ExactMatrix.zeros(2, 3), ExactMatrix.zeros(2, 3))


class TestMatrixInverse:
    def test_unitriangular(self):
        m = ExactMatrix.from_rows([[1, 1], [0, 1]])
        assert matrix_inverse(m) == ExactMatrix.from_rows([[1, -1], [0, 1]])

    def test_identity(self):
        for n in (1, 3, 5):
            assert matrix_inverse(ExactMatrix.identity(n)) == ExactMatrix.identity(n)

    def test_singular(self):
        with pytest.raises(SingularMatrixError):
            matrix_inverse(ExactMatrix.from_rows([[1, 1], [1, 1]]))

    def test_random_inverses_up_to_size_six(self):
        # Three input sets: integers; Gaussian rationals, which reach non-real
        # pivots and denominator clearing in the fraction-free kernel; and
        # (a + b*i)/d with a, b in {-1, 0, 1}, often singular.  Every draw is
        # singular exactly when the Gauss-Jordan reference finds rank < n, and
        # otherwise inverted to what that reference reads off rref([m | I]).
        rng = random.Random(7)
        small = lambda: Scalar(
            Fraction(rng.randint(-1, 1), rng.randint(1, 2)),
            rng.choice((0, 0, Fraction(rng.randint(-1, 1), rng.randint(1, 2)))),
        )
        draws = (
            lambda n: random_exact_matrix(rng, n),
            lambda n: ExactMatrix(n, n, [random_scalar(rng) for _ in range(n * n)]),
            lambda n: ExactMatrix(n, n, [small() for _ in range(n * n)]),
        )
        singular = []
        for draw in draws:
            singular.append(0)
            for _ in range(200):
                n = rng.randint(1, 6)
                m = draw(n)
                eye = ExactMatrix.identity(n)
                work, pivots = rref([m.row(i) + eye.row(i) for i in range(n)])
                if sum(p < n for p in pivots) < n:  # the rank of m
                    singular[-1] += 1
                    with pytest.raises(SingularMatrixError):
                        matrix_inverse(m)
                    continue
                assert matrix_inverse(m) == ExactMatrix(n, n, [x for row in work for x in row[n:]])
        assert singular[0] > 0 and singular[2] > 10


class TestConjugateTranspose:
    def test_scalar_conjugation(self):
        m = ExactMatrix(1, 1, [I])
        assert conjugate_transpose(m) == ExactMatrix(1, 1, [Scalar(0, -1)])

    def test_antihomomorphism(self):
        rng = random.Random(3)
        for _ in range(20):
            a = ExactMatrix(3, 3, [random_scalar(rng) for _ in range(9)])
            b = ExactMatrix(3, 3, [random_scalar(rng) for _ in range(9)])
            assert conjugate_transpose(a * b) == conjugate_transpose(b) * conjugate_transpose(a)
            assert conjugate_transpose(conjugate_transpose(a)) == a

    def test_real_symmetric_fixed(self):
        m = ExactMatrix.from_rows([[2, 1], [1, 5]])
        assert conjugate_transpose(m) == m

    def test_float_matrices(self):
        a = np.array([[1j, 2], [0, 1]])
        assert np.allclose(conjugate_transpose(a), a.conj().T)


class TestEliminationHelpers:
    def test_reference_rref(self):
        # the Gauss-Jordan reference the kernel tests count ranks with
        m = ExactMatrix.from_rows([[1, 2, 3], [2, 4, 6], [1, 0, 1]])
        red, pivots = rref([m.row(i) for i in range(3)])
        assert pivots == [0, 1]
        assert red == [[ONE, ZERO, ONE], [ZERO, ONE, ONE], [ZERO, ZERO, ZERO]]

    def test_echelon_basis(self):
        # Gaussian-integer vectors, some with non-real pivots, some dependent:
        # the basis keeps the rank an exact rref finds, every row has a
        # positive integer pivot and content 1, and the coordinates that
        # add() reports rebuild each vector.
        rng = random.Random(11)
        pool = [Scalar(a, b) for a in range(-3, 4) for b in (0, 0, -1, 2)]
        saw_complex_row = False
        for _ in range(40):
            n = rng.randint(1, 5)
            basis = FractionFreeBasis(n)
            span = []
            for _ in range(rng.randint(1, 6)):
                if span and rng.random() < 0.4:  # dependent on earlier vectors
                    v = [sum((rng.choice(pool) * u[q] for u in span), ZERO) for q in range(n)]
                else:
                    v = [rng.choice(pool) for _ in range(n)]
                span.append(v)
                coords = []
                basis.add(gaussian_vector(v)[1], coords)
                rebuilt = [ZERO] * n
                for j, re, im, den in coords:
                    c = gaussian_scalar(re, im, den)
                    row_re, row_im = basis.vectors[j]
                    row = [gaussian_scalar(x, row_im[q] if row_im else 0) for q, x in enumerate(row_re)]
                    rebuilt = [x + c * y for x, y in zip(rebuilt, row)]
                assert rebuilt == v
            assert len(basis) == len(rref(span)[1])
            for re, im in basis.vectors:
                im = im or [0] * n
                piv = next(q for q in range(n) if re[q] or im[q])
                assert re[piv] > 0 and im[piv] == 0
                assert math.gcd(*re, *im) == 1
                saw_complex_row |= any(im)
        assert saw_complex_row


class TestBlocksAndJson:
    def test_block_roundtrip(self):
        rng = random.Random(5)
        blocks = [
            [ExactMatrix(2, 2, [random_scalar(rng) for _ in range(4)]) for _ in range(2)]
            for _ in range(2)
        ]
        big = block_matrix(blocks)
        again = split_blocks(big, 2)
        assert again == blocks

    def test_split_blocks_is_exact_only(self):
        with pytest.raises(DimensionMismatch):
            split_blocks(np.eye(4, dtype=complex), 2)
        with pytest.raises(DimensionMismatch):
            split_blocks(ExactMatrix.identity(3), 2)

    def test_embed(self):
        m = ExactMatrix.from_rows([[1, 2], [3, 4]])
        e = embed(m, 2)
        assert e.rows == 4
        assert e[0, 0] == Scalar(1) and e[1, 1] == Scalar(1)
        assert e[0, 2] == Scalar(2) and e[2, 0] == Scalar(3)

    def test_exact_json_roundtrip(self):
        m = ExactMatrix.from_rows([[Scalar(1, 2), Scalar(Fraction(-1, 3))], [ZERO, ONE]])
        obj = json.loads(json.dumps(m.to_json()))
        assert ExactMatrix.from_json(obj) == m

    def test_float_json_roundtrip(self):
        a = np.array([[1 + 2j, 0.5], [0, -1j]])
        b = float_from_json(json.loads(json.dumps(float_to_json(a))))
        assert np.allclose(a, b)
