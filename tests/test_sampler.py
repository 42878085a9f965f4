import numpy as np
import pytest

from ncrat.core import ExactMatrix
from ncrat.errors import GOutOfRange, SpecError
from ncrat.ncpoly import Alphabet
from ncrat.ratexpr import parse_poly
from ncrat.sampler import (
    SampleDomain,
    falsify,
    haar_unitary,
    partitioned_unitary,
    sample_point,
    spherical_isometry_tuple,
    unitary_tuple,
    xgn_point,
    zero_divisor_witness,
)


class TestStructuralResiduals:
    @pytest.mark.parametrize("n", [1, 2, 5, 16, 32])
    def test_haar_unitary(self, n):
        u = haar_unitary(n, seed=1)
        assert np.linalg.norm(u.conj().T @ u - np.eye(n)) <= 1e-10

    @pytest.mark.parametrize("g,n", [(1, 4), (2, 3), (3, 8), (3, 32)])
    def test_spherical(self, g, n):
        blocks = spherical_isometry_tuple(g, n, seed=2)
        resid = sum(b.conj().T @ b for b in blocks) - np.eye(n)
        assert np.linalg.norm(resid) <= 1e-10

    @pytest.mark.parametrize("g,n", [(1, 3), (2, 2), (3, 5)])
    def test_partitioned(self, g, n):
        grid = partitioned_unitary(g, n, seed=3)
        big = np.block(grid)
        assert np.linalg.norm(big.conj().T @ big - np.eye(g * n)) <= 1e-10

    @pytest.mark.parametrize("g,n", [(1, 3), (2, 4), (3, 6)])
    def test_xgn(self, g, n):
        a, b = xgn_point(g, n, seed=4)
        resid = sum(a[k] @ b[k] for k in range(g)) - np.eye(n)
        assert np.linalg.norm(resid) <= 1e-10


class TestDeterminism:
    def test_identical_seeds(self):
        assert np.array_equal(haar_unitary(6, seed=9), haar_unitary(6, seed=9))
        a1, b1 = xgn_point(2, 3, seed=9)
        a2, b2 = xgn_point(2, 3, seed=9)
        assert all(np.array_equal(x, y) for x, y in zip(a1 + b1, a2 + b2))

    def test_substreams_differ(self):
        assert not np.array_equal(haar_unitary(6, seed=9, index=0),
                                  haar_unitary(6, seed=9, index=1))
        assert not np.array_equal(haar_unitary(6, seed=9), haar_unitary(6, seed=10))

    def test_tuple_order_is_stable(self):
        t1 = unitary_tuple(3, 4, seed=5)
        t2 = unitary_tuple(3, 4, seed=5)
        assert all(np.array_equal(x, y) for x, y in zip(t1, t2))


class TestDegenerateShapes:
    def test_size_one_unitary_is_a_phase(self):
        u = haar_unitary(1, seed=11)
        assert abs(abs(u[0, 0]) - 1) <= 1e-12

    def test_spherical_g1_is_unitary(self):
        (v,) = spherical_isometry_tuple(1, 5, seed=12)
        assert np.linalg.norm(v.conj().T @ v - np.eye(5)) <= 1e-10
        assert np.linalg.norm(v @ v.conj().T - np.eye(5)) <= 1e-10

    def test_partitioned_g1_is_haar(self):
        grid = partitioned_unitary(1, 4, seed=13)
        assert np.array_equal(grid[0][0], haar_unitary(4, seed=13))

    def test_xgn_g1_inverse_pair(self):
        (a,), (b,) = xgn_point(1, 4, seed=14)
        assert np.linalg.norm(a @ b - np.eye(4)) <= 1e-10


class TestDomainErrors:
    def test_typed_errors(self):
        with pytest.raises(GOutOfRange):
            SampleDomain("unitaries", 0)
        with pytest.raises(SpecError):
            SampleDomain("orthogonal", 2)


class TestFalsify:
    def test_commutator_on_unitaries(self):
        alph = Alphabet.x(2)
        f = parse_poly("X1 X2 - X2 X1", alph)
        w = falsify(f, SampleDomain("unitaries", 2), sizes=[1, 2], trials=50, seed=21)
        assert w is not None and w.size == 2
        # explicit derived witness: swap and diag(1,-1)
        u1 = np.array([[0, 1], [1, 0]], dtype=complex)
        u2 = np.diag([1, -1]).astype(complex)
        assert np.allclose(f.eval((u1, u2)), np.array([[0, -2], [2, 0]]))

    def test_trig_generator_never_falsified(self):
        alph = Alphabet.x(1)
        f = parse_poly("1 - X1^* X1", alph)
        assert falsify(f, SampleDomain("unitaries", 1), sizes=range(1, 7),
                       trials=25, seed=22) is None

    def test_negative_mode_on_hermitian_zero(self):
        alph = Alphabet.x(1)
        f = parse_poly("2 - X1^*X1 - X1 X1^*", alph)
        assert falsify(f, SampleDomain("unitaries", 1), sizes=range(1, 5),
                       trials=25, seed=23, mode="negative-eigenvalue") is None

    def test_negative_mode_detects(self):
        alph = Alphabet.x(1)
        f = parse_poly("- X1^* X1", alph)
        w = falsify(f, SampleDomain("unitaries", 1), sizes=[2], trials=5,
                    seed=24, mode="negative-eigenvalue")
        assert w is not None and w.score >= 0.99

    def test_sample_point_shapes(self):
        assert len(sample_point(SampleDomain("partitioned", 2), 3, 1, 0)) == 4
        assert len(sample_point(SampleDomain("xgn", 3), 2, 1, 0)) == 6
        assert len(sample_point(SampleDomain("unrestricted", 2), 2, 1, 0)) == 2


class TestZeroDivisorWitness:
    def test_reference_case(self):
        a, b = zero_divisor_witness(1, 1)
        assert a == ExactMatrix.unit(3, 0, 1)
        assert b == ExactMatrix.unit(3, 2, 0)
        assert (b * a) == ExactMatrix.unit(3, 2, 1)
        assert (a * b).is_zero()
        assert (a * a).is_zero() and (b * b).is_zero()

    @pytest.mark.parametrize("m", range(0, 5))
    @pytest.mark.parametrize("n", range(0, 5))
    def test_all_relations_small(self, m, n):
        if m + n == 0:
            with pytest.raises(ValueError):
                zero_divisor_witness(m, n)
            return
        a, b = zero_divisor_witness(m, n)  # relations are checked on build
        assert a.rows == m + n + 1 and b.rows == m + n + 1
