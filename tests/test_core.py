import copy
import json
import math
import pickle
import random
import sys
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
    float_to_json,
    gaussian_rows,
    gaussian_scalar,
    gaussian_vector,
    matrix_inverse,
    matrix_product,
    split_blocks,
    _mk,
)
from ncrat.errors import DimensionMismatch, SingularMatrixError
from ncrat.ideals import builtin_ideal, zero_set_sampler
from ncrat.ncpoly import Letter
from ncrat.ratexpr import parse_expression, parse_poly
from ncrat.realization import BasePoint, compile_expression, minimize_scalar
from ncrat.sampler import falsify

from conftest import random_exact_matrix, random_scalar
from fraction_closure import rref


def float_from_json(obj) -> np.ndarray:
    """The float matrix of a float_to_json object."""
    r, c = int(obj["rows"]), int(obj["cols"])
    flat = [complex(p[0], p[1]) for p in obj["entries"]]
    return np.array(flat, dtype=complex).reshape(r, c)


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

    @pytest.mark.parametrize("text", ["0", "-0", "+7", "12/8", "-3/9", "07/014", "1/0", "1/00",
                                      "", "abc", " 2", "1_0", "1.5", "-1e-3", "1/-2", "2/ 3",
                                      "\u0663/4"])
    def test_text_reads_as_fraction_reads_it(self, text):
        # integers and ratios are read without fractions, the rest through it
        try:
            expected = Scalar(Fraction(text))
        except (ValueError, ZeroDivisionError) as exc:
            with pytest.raises(type(exc)):
                Scalar(text)
        else:
            assert Scalar(text) == expected

    def test_text_and_parts_are_the_fractions(self):
        rng = random.Random(3)
        for _ in range(300):
            re, im = (Fraction(rng.randint(-40, 40), rng.randint(1, 12)) for _ in range(2))
            s = Scalar(re, im)
            assert (s.re, s.im) == (re, im) and s == Scalar(str(re), str(im))
            assert s.to_json() == [str(re), str(im)]
            assert repr(s) == f"Scalar({re}, {im})"
            assert hash(s) == (hash((re, im)) if im else hash(re))

    def test_zero_division(self):
        with pytest.raises(ZeroDivisionError):
            ZERO.inverse()


def parts_are_exact(s) -> bool:
    """Each part of s is stored as an int, or as a Fraction that is not integral."""
    return all(type(x) is int or (type(x) is Fraction and x.denominator != 1) for x in (s.re, s.im))


class TestIntegralParts:
    """Each part of a Scalar is an int when it is integral and a Fraction
    only otherwise, and the arithmetic is that of Fraction pairs."""

    @staticmethod
    def random_pair(rng):
        def part():
            den = rng.choice([1, 1, 2, 3, 7, 10 ** rng.randint(1, 60) + rng.randint(1, 9)])
            return Fraction(rng.randint(-(10 ** rng.randint(0, 40)), 10 ** rng.randint(0, 40)), den)

        return part(), rng.choice([Fraction(0), part()])

    def test_matches_fraction_pairs(self):
        rng = random.Random(18)

        def ref_mul(x, y):
            (a, b), (c, d) = x, y
            return a * c - b * d, a * d + b * c

        def ref_inv(x):
            a, b = x
            n = a * a + b * b
            return a / n, -b / n

        for _ in range(400):
            x, y = self.random_pair(rng), self.random_pair(rng)
            sx, sy = Scalar(*x), Scalar(*y)
            cases = [
                (sx + sy, (x[0] + y[0], x[1] + y[1])),
                (sx - sy, (x[0] - y[0], x[1] - y[1])),
                (sx * sy, ref_mul(x, y)),
                (sx.conjugate(), (x[0], -x[1])),
                (-sx, (-x[0], -x[1])),
            ]
            if any(y):
                cases += [(sy.inverse(), ref_inv(y)), (sx / sy, ref_mul(x, ref_inv(y)))]
            for got, want in cases:
                assert (got.re, got.im) == want
                assert parts_are_exact(got)

    def test_no_float_ever(self):
        # a float part could pass the equality tests, because 1.0 == 1
        third = Scalar(3).inverse()
        assert third.re == Fraction(1, 3) and type(third.re) is Fraction
        assert type((1 / Scalar(3)).re) is Fraction
        assert type((Scalar(1) / 3).re) is Fraction
        assert type(Scalar(-1).inverse().re) is int
        half = Scalar(1, 1).inverse()
        assert (half.re, half.im) == (Fraction(1, 2), Fraction(-1, 2))
        assert parts_are_exact(half)
        assert parts_are_exact(Scalar(2, 4).inverse())
        assert parts_are_exact(Scalar(Fraction(1, 2), 3) / Scalar(Fraction(3, 4), -5))

    @pytest.mark.parametrize("made, re, im", [
        (Scalar(Fraction(6, 3), Fraction(-8, 4)), 2, -2),
        (Scalar("6/3", 2.0), 2, 2),
        (Scalar(True), 1, 0),
        (Scalar(Fraction(1, 2)), Fraction(1, 2), 0),
        (_mk(Fraction(6, 3), Fraction(0)), 2, 0),
        (_mk(True, -Fraction(5, 5)), 1, -1),
        (Scalar.from_json(["6/3", "-0"]), 2, 0),
        (Scalar.from_json(["1/2", "4"]), Fraction(1, 2), 4),
        (gaussian_scalar(6, -4, 2), 3, -2),
        (gaussian_scalar(3, 5), 3, 5),
        (gaussian_scalar(3, 6, 4), Fraction(3, 4), Fraction(3, 2)),
        (parse_expression("6/3", 1).node.value, 2, 0),
        (parse_expression("6/3i", 1).node.value, 0, 2),
        (parse_expression("(-4/2)", 1).node.value, -2, 0),
        (parse_expression("(-2 + 6/3i)", 1).node.value, -2, 2),
        (parse_expression("(1/2 - 4/2i)", 1).node.value, Fraction(1, 2), -2),
    ], ids=["init-fraction", "init-str-float", "init-bool", "init-half", "mk", "mk-bool",
            "from-json", "from-json-half", "gaussian-den", "gaussian-int", "gaussian-half",
            "parse-real", "parse-imag", "parse-negative", "parse-literal", "parse-half"])
    def test_every_route_stores_ints(self, made, re, im):
        assert (made.re, made.im) == (re, im)
        assert (type(made.re), type(made.im)) == (type(re), type(im))

    def test_equality_and_hash_across_routes(self):
        three = [Scalar(3), Scalar(Fraction(3)), Scalar("6/2"), _mk(Fraction(3), Fraction(0)),
                 Scalar.from_json(["3", "0"]), gaussian_scalar(6, 0, 2),
                 parse_expression("6/2", 1).node.value, ONE + ONE + ONE,
                 Scalar(Fraction(3, 2)) * 2]
        for s in three:
            assert s == three[0] and hash(s) == hash(three[0])
            assert s == 3 and s == Fraction(3) and hash(s) == hash(3) == hash(Fraction(3))
        mixed = [Scalar(1, -2), Scalar.from_json(["2/2", "-4/2"]), gaussian_scalar(2, -4, 2),
                 parse_expression("(1 - 2i)", 1).node.value, Scalar(Fraction(1, 2), -1) * 2]
        assert len({hash(s) for s in mixed}) == 1 and all(s == mixed[0] for s in mixed)
        assert len({Scalar(3), Scalar(Fraction(3)), Scalar(3, 0)}) == 1

    @pytest.mark.parametrize("s, text, pair", [
        (Scalar(3), "3", ["3", "0"]),
        (Scalar(Fraction(6, 2)), "3", ["3", "0"]),
        (Scalar(Fraction(-1, 2)), "-1/2", ["-1/2", "0"]),
        (Scalar(1, -2), "(1 - 2i)", ["1", "-2"]),
        (Scalar(0, Fraction(4, 2)), "2i", ["0", "2"]),
    ])
    def test_text_unchanged(self, s, text, pair):
        assert str(s) == text and s.to_json() == pair
        assert repr(s) == f"Scalar({pair[0]}, {pair[1]})"


def canonical(s) -> bool:
    """s is (a + b*i)/d in lowest terms: ints a, b, d with d >= 1 and
    gcd(a, b, d) = 1, d = 1 exactly when both parts are integral, and a
    third slot only when d != 1."""
    a, b, d = s.a, s.b, s.d
    integral = type(s.re) is int and type(s.im) is int
    return (type(a) is type(b) is type(d) is int and d >= 1 and math.gcd(a, b, d) == 1
            and (d == 1) == integral and hasattr(type(s), "__slots__")
            and ("d" in type(s).__slots__) == (d != 1) and not hasattr(s, "__dict__"))


class TestGaussianRationalForm:
    """A Scalar is one canonical (a + b*i)/d, whatever made it."""

    @staticmethod
    def reference(rng):
        """A random Gaussian rational as a pair of Fractions, parts up to 10^40."""
        def part():
            den = rng.choice([1, 1, 2, 6, 10 ** rng.randint(1, 40) + rng.randint(1, 9)])
            return Fraction(rng.randint(-(10 ** rng.randint(0, 40)), 10 ** rng.randint(0, 40)), den)

        return part(), rng.choice([Fraction(0), part()])

    def test_every_operation_matches_fraction_pairs_and_stays_canonical(self):
        rng = random.Random(2301)

        def mul(x, y):
            return x[0] * y[0] - x[1] * y[1], x[0] * y[1] + x[1] * y[0]

        def inv(x):
            n = x[0] * x[0] + x[1] * x[1]
            return x[0] / n, -x[1] / n

        for _ in range(500):
            x, y = self.reference(rng), self.reference(rng)
            sx, sy = Scalar(*x), Scalar(*y)
            cases = [(sx, x), (sy, y),
                     (sx + sy, (x[0] + y[0], x[1] + y[1])), (sx - sy, (x[0] - y[0], x[1] - y[1])),
                     (sx * sy, mul(x, y)), (-sx, (-x[0], -x[1])), (sx.conjugate(), (x[0], -x[1])),
                     (sx + 3, (x[0] + 3, x[1])), (2 - sx, (2 - x[0], -x[1])),
                     (sx * Fraction(5, 7), (x[0] * Fraction(5, 7), x[1] * Fraction(5, 7)))]
            if any(y):
                cases += [(sy.inverse(), inv(y)), (sx / sy, mul(x, inv(y))), (1 / sy, inv(y))]
            for got, want in cases:
                assert canonical(got)
                assert (Fraction(got.a, got.d), Fraction(got.b, got.d)) == want
                assert (got.re, got.im) == want

    @pytest.mark.parametrize("made", [
        Scalar(), Scalar(0, 0), Scalar(-7), Scalar(Fraction(6, 4), "-9/6"), Scalar("6/3", 2.0),
        Scalar(True, False), Scalar(0, Fraction(-3, 9)), Scalar(Fraction(1, 2), Fraction(1, 2)),
        _mk(Fraction(6, 3), Fraction(0)), _mk(4, -6), _mk(Fraction(1, 6), Fraction(1, 4)),
        gaussian_scalar(6, -4, 2), gaussian_scalar(0, 0, 12), gaussian_scalar(-3, 9, 6),
        gaussian_scalar(10 ** 30, 2 * 10 ** 30, 4 * 10 ** 30),
        Scalar.from_json(["6/3", "-0"]), Scalar.from_json(["-10/4", "5/10"]),
        parse_expression("6/3", 1).node.value, parse_expression("(1/2 - 4/2i)", 1).node.value,
        parse_expression("(-2/6i)", 1).node.value, parse_expression("(-9/6 + 6/4i)", 1).node.value,
    ])
    def test_every_route_is_canonical(self, made):
        assert canonical(made)
        assert Scalar.from_json(made.to_json()) == made

    def test_real_values_compare_and_hash_as_int_and_fraction(self):
        rng = random.Random(2302)
        for _ in range(300):
            x = self.reference(rng)[0]
            s = Scalar(x)
            assert s == x and x == s and hash(s) == hash(x)
            if x.denominator == 1:
                n = int(x)
                assert s == n and n == s and hash(s) == hash(n)
            assert s != x + 1 and s != Scalar(x, 1)
        assert Scalar(0, 1) != 0 and Scalar(Fraction(1, 2), 1) != Fraction(1, 2)

    def test_an_integral_scalar_is_a_two_slot_object(self):
        class TwoSlots:
            __slots__ = ("x", "y")

        two = sys.getsizeof(TwoSlots())
        for s in (ZERO, ONE, I, Scalar(10 ** 40, -3), Scalar(Fraction(1, 2)) * 2):
            assert sys.getsizeof(s) <= two
        assert sys.getsizeof(Scalar(Fraction(1, 3))) > two

    @pytest.mark.parametrize("value", [Scalar(-7, 3), Scalar(Fraction(1, 3), "-5/6")])
    def test_copy_and_pickle_keep_the_canonical_form(self, value):
        m = ExactMatrix(1, 1, [value])
        for got in (copy.copy(value), copy.deepcopy(value), pickle.loads(pickle.dumps(value)),
                    copy.deepcopy(m).entries[0], pickle.loads(pickle.dumps(m)).entries[0]):
            assert got == value and canonical(got) and type(got) is type(value)

    def test_float_views_round_like_fraction(self):
        rng = random.Random(2303)
        values = []
        for _ in range(300):
            def part():
                return Fraction(rng.randint(-(10 ** rng.randint(0, 300)), 10 ** rng.randint(0, 300)),
                                rng.randint(1, 10 ** rng.randint(0, 60)))

            values.append((part(), rng.choice([Fraction(0), part()])))
        values += [(Fraction(1, 10 ** 400), Fraction(-1, 3 * 10 ** 400)), (Fraction(2 ** 60 + 1), 0),
                   (Fraction(10 ** 308 - 1, 7), Fraction(-(2 ** 53) - 1, 2))]
        m = ExactMatrix(1, len(values), [Scalar(*x) for x in values])
        assert float_to_json(m)["entries"] == [[float(re), float(im)] for re, im in values]
        for s, (re, im) in zip(m.entries, values):
            assert s.to_complex() == complex(float(re), float(im))

    def test_gaussian_vector_and_rows_round_trip(self):
        rng = random.Random(2304)
        for _ in range(100):
            values = [rng.choice([ZERO, Scalar(*self.reference(rng))]) for _ in range(rng.randint(0, 8))]
            d, (re, im) = gaussian_vector(dict(enumerate(values)))
            assert d == math.lcm(*(x.d for x in values))
            im = im or {}
            assert all(re.values()) and all(im.values())
            assert [gaussian_scalar(re.get(i, 0), im.get(i, 0), d) for i in range(len(values))] == values
            rows = {r: {c: x for c, x in enumerate(values) if x and (r + c) % 3}
                    for r in range(rng.randint(0, 4))}
            d, cols = gaussian_rows(rows)
            back = {}
            for c, (col_re, col_im) in cols.items():
                for r, v in col_re:
                    back[r, c] = back.get((r, c), ZERO) + gaussian_scalar(v, 0, d)
                for r, v in col_im:
                    back[r, c] = back.get((r, c), ZERO) + gaussian_scalar(0, v, d)
            assert back == {(r, c): x for r, row in rows.items() for c, x in row.items()}


class TestPipelineParts:
    """Every Scalar the exact pipeline makes has int or Fraction parts."""

    @staticmethod
    def identities(a, b):
        """Known rational identities in atoms a, b (as text)."""
        return (
            f"{a} {a}^-1 - 1",
            f"{a} - ({a}^-1 + ({b}^-1 - {a})^-1)^-1 - {a} {b} {a}",
            f"{a} (1 + {b} {a})^-1 - (1 + {a} {b})^-1 {a}",
            f"({a} + {b})^-1 - {a}^-1 ({a}^-1 + {b}^-1)^-1 {b}^-1",
            f"(1 + (1 + {b})^-1)^-1 - (1 + {b}) (2 + {b})^-1",
            f"(1 + (1 + (1 + {b})^-1)^-1)^-1 - (2 + {b}) (3 + 2 {b})^-1",
        )

    @staticmethod
    def rep_scalars(rep):
        yield from rep.C.entries
        yield from rep.B.entries
        for a in rep.A:
            for row in a.rows.values():
                yield from row.values()

    @staticmethod
    def all_exact(scalars):
        """There is a Scalar, and every part is an int or a non-integral Fraction."""
        scalars = list(scalars)
        return bool(scalars) and all(map(parts_are_exact, scalars))

    @pytest.mark.parametrize("bp, a, b", [
        (BasePoint.scalars([Fraction(5, 2), Fraction(7, 3)]), "X1", "X2"),
        (BasePoint.scalars([2, Fraction(3, 2)]), "X1", "X2"),
        (BasePoint.from_mapping({Letter(1, False): ExactMatrix.unit(2, 0, 1),
                                 Letter(2, False): ExactMatrix.unit(2, 1, 0)}),
         "(X1 + X2)", "(3/2 + X1)"),
    ], ids=["scalar-fractions", "scalar-mixed", "E12-E21"])
    def test_identities(self, bp, a, b):
        for text in self.identities(a, b):
            for t in (text, f"{text} + 3/2 X1 X2"):
                rep = compile_expression(parse_expression(t, 2), bp)
                assert self.all_exact(self.rep_scalars(rep))
                small, states = minimize_scalar(rep)
                assert states == 0 if t == text else self.all_exact(self.rep_scalars(small))

    def test_resolvents(self):
        reps = builtin_ideal("Uprime", 2).resolvent_reps
        assert reps and all(self.all_exact(self.rep_scalars(r)) for r in reps.values())

    def test_exact_witness(self):
        ideal = builtin_ideal("Tprime", 2)
        w = falsify(parse_poly("X1 X2 - X2 X1 + 2 Y1", ideal.alphabet),
                    zero_set_sampler(ideal), (1, 2), 20, 3)
        assert isinstance(w.value, ExactMatrix)
        assert self.all_exact(w.value.entries)
        assert self.all_exact(x for p in w.point for x in p.entries)


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


def _dense(v, n):
    """A sparse Gaussian-integer vector (re, im) as a list of n Scalars."""
    re, im = v
    im = im or {}
    return [gaussian_scalar(re.get(q, 0), im.get(q, 0)) for q in range(n)]


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
                basis.add(gaussian_vector(dict(enumerate(v)))[1], coords)
                rebuilt = [ZERO] * n
                for j, re, im, den in coords:
                    c = gaussian_scalar(re, im, den)
                    row = _dense(basis.vectors[j], n)
                    rebuilt = [x + c * y for x, y in zip(rebuilt, row)]
                assert rebuilt == v
            assert len(basis) == len(rref(span)[1])
            for k, (re, im) in enumerate(basis.vectors):
                # a sparse row holds its nonzero entries only; im is None
                # when the row is real
                assert all(re.values()) and (im is None or (im and all(im.values())))
                assert all(0 <= q < n for q in (*re, *(im or ())))
                piv = min(re.keys() | (im or {}).keys())
                assert basis.pivots[piv] == (re[piv], re, im, k)
                im = im or {}
                assert re[piv] > 0 and piv not in im
                assert math.gcd(*re.values(), *im.values()) == 1
                saw_complex_row |= bool(im)
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
