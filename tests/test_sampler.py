import numpy as np
import pytest

from ncrat.core import ExactMatrix
from ncrat.errors import ConditioningFailure, GOutOfRange, SpecError
from ncrat.float_samplers import (
    haar_unitary,
    partitioned_unitary,
    spherical_isometry_tuple,
    unitary_tuple,
    xgn_point,
)
from ncrat.ncpoly import Alphabet
from ncrat import sampler
from ncrat.ratexpr import parse_expression, parse_poly
from ncrat.acceptance import zero_divisor_witness
from ncrat.sampler import DOMAIN_KINDS, STAR_KINDS, SampleDomain, draws, falsify, sample_point


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

    def test_only_star_kinds_draw_exact_points(self):
        for kind in DOMAIN_KINDS:
            domain = SampleDomain(kind, 2)
            assert domain.star == (kind in STAR_KINDS)
            if not domain.star:
                with pytest.raises(SpecError):
                    domain.exact(1, 1, 0)

    @pytest.mark.parametrize("size, index", [(0, 0), (-1, 0), (1, -1)])
    def test_sample_point_ranges(self, size, index):
        with pytest.raises(SpecError):
            sample_point(SampleDomain("unitaries", 1), size, 1, index)

    @pytest.mark.parametrize("settings", [
        {"trials": 0}, {"trials": -1},
        {"sizes": []}, {"sizes": [0]}, {"sizes": range(3, 1)}, {"sizes": [2, 0]},
        {"mode": "x"},
    ], ids=repr)
    def test_search_that_cannot_sample_is_rejected(self, settings):
        # each of these samples nothing or names no kind of witness
        f = parse_poly("X1 X2 - X2 X1", Alphabet.x(2))
        kwargs = {"sizes": [2], "trials": 5, "seed": 1, **settings}
        with pytest.raises(SpecError):
            falsify(f, SampleDomain("unitaries", 2), **kwargs)


class TestDomainAlphabet:
    def test_names(self):
        assert SampleDomain("partitioned", 2).alphabet == Alphabet.matrix(2)
        assert SampleDomain("xgn", 2).alphabet == Alphabet.xy(2)
        for kind in ("unitaries", "spherical", "unrestricted"):
            assert SampleDomain(kind, 2).alphabet == Alphabet.x(2)

    @pytest.mark.parametrize("kind", DOMAIN_KINDS)
    @pytest.mark.parametrize("g", [1, 3])
    def test_every_draw_binds_exactly_its_letters(self, kind, g):
        domain = SampleDomain(kind, g)
        assert len(domain(2, 5, 0)) == domain.alphabet.size
        if domain.star:
            assert len(domain.exact(2, 5, 0)) == domain.alphabet.size


# a point of size 2 where the commutator X1 X2 - X2 X1 does not vanish
_SWAP_AND_SIGN = (np.array([[0, 1], [1, 0]], dtype=complex), np.diag([1, -1]).astype(complex))


class TestSizeWithoutPoints:
    # A ConditioningFailure means the sampler found no point at that size;
    # the search leaves the size instead of drawing its other trials.
    def _counting(self, empty_sizes):
        calls = []

        def sample(n, seed, trial):
            calls.append((n, trial))
            if n in empty_sizes:
                raise ConditioningFailure(f"no point of size {n}")
            return _SWAP_AND_SIGN
        return sample, calls

    def test_failure_moves_on_to_the_next_size(self):
        f = parse_poly("X1 X2 - X2 X1", Alphabet.x(2))
        sample, calls = self._counting({1})
        w = falsify(f, sample, sizes=[1, 2], trials=200, seed=3)
        assert calls == [(1, 0), (2, 0)]
        assert (w.size, w.trial) == (2, 0)

    def test_failure_at_every_size_finds_nothing(self):
        f = parse_poly("X1 X2 - X2 X1", Alphabet.x(2))
        sample, calls = self._counting({1, 2, 3})
        assert falsify(f, sample, sizes=[1, 2, 3], trials=200, seed=3) is None
        assert calls == [(1, 0), (2, 0), (3, 0)]


class TestDraws:
    # the one (size, trial) loop that falsify and the positivity probe judge
    def test_leaves_an_empty_size(self):
        f = parse_poly("X1 X2 - X2 X1", Alphabet.x(2))
        calls = []

        def sample(n, seed, trial):
            calls.append((n, trial))
            if n == 2:
                raise ConditioningFailure("no point of size 2")
            return _SWAP_AND_SIGN

        got = [(n, trial) for n, trial, _, _ in draws(f, sample, [1, 2, 3], 2, seed=1)]
        assert got == [(1, 0), (1, 1), (3, 0), (3, 1)]
        assert calls == [(1, 0), (1, 1), (2, 0), (3, 0), (3, 1)]

    def test_skips_a_draw_where_f_is_undefined(self):
        # (X1 - X2)^-1 is undefined at (I, I), the draw of trial 0
        f = parse_expression("(X1 - X2)^-1", Alphabet.x(2))
        eye = ExactMatrix.identity(2)
        points = {0: (eye, eye), 1: (eye + eye, eye)}
        got = [(trial, value) for _, trial, _, value in
               draws(f, lambda n, seed, trial: points[trial], [2], 2, seed=1)]
        assert got == [(1, eye)]

    def test_checks_its_settings_before_the_first_draw(self):
        calls = []
        loop = draws(parse_poly("X1", Alphabet.x(1)), lambda *draw: calls.append(draw), [1], 0, seed=1)
        with pytest.raises(SpecError):
            next(loop)
        assert calls == []

    def test_falsify_scores_only_its_witness(self, monkeypatch):
        # exact values are judged by is_zero; the commuting draw of trial 0
        # is never scored
        scored = []
        monkeypatch.setattr(sampler, "_score", lambda value, mode: scored.append(mode) or 2.0)
        f = parse_poly("X1 X2 - X2 X1", Alphabet.x(2))
        eye = ExactMatrix.identity(2)
        swap, sign = ExactMatrix.from_rows([[0, 1], [1, 0]]), ExactMatrix.from_rows([[1, 0], [0, -1]])
        points = {0: (eye, swap), 1: (swap, sign)}
        w = falsify(f, lambda n, seed, trial: points[trial], [2], 2, seed=1)
        assert (w.trial, w.score, scored) == (1, 2.0, ["nonzero"])


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

    @pytest.mark.parametrize("mode, text, score", [
        ("nonzero", "X1 X1 - 1", 3.0),
        ("nonzero", "X1 X1 - 4", None),
        # exactly nonzero, far below the float tolerance
        ("nonzero", "1/1000000000000000 X1", 2e-15),
        ("negative-eigenvalue", "- X1^* X1", 4.0),
        ("negative-eigenvalue", "X1^* X1", None),
    ])
    def test_exact_points(self, mode, text, score):
        # an exact point is scored exactly in nonzero mode and through
        # floats in negative-eigenvalue mode; the witness keeps it exact
        f = parse_poly(text, Alphabet.x(1))
        two = ExactMatrix.scalar(1, 2)
        w = falsify(f, lambda n, seed, trial: (two,), sizes=[1], trials=3, seed=1, mode=mode)
        if score is None:
            assert w is None
        else:
            assert (w.size, w.trial, w.score) == (1, 0, score)
            assert w.value == f.eval((two,)) and w.to_json()["exact_point"] == [two.to_json()]
            assert ExactMatrix.from_json(w.to_json()["exact_value"]) == w.value

    def test_sample_point_shapes(self):
        assert len(sample_point(SampleDomain("partitioned", 2), 3, 1, 0)) == 4
        assert len(sample_point(SampleDomain("xgn", 3), 2, 1, 0)) == 6
        assert len(sample_point(SampleDomain("unrestricted", 2), 2, 1, 0)) == 2


class TestZeroDivisorWitness:
    """The zero-divisor pair of the acceptance fixtures."""

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
            with pytest.raises(SpecError):
                zero_divisor_witness(m, n)
            return
        a, b = zero_divisor_witness(m, n)
        assert a.rows == m + n + 1 and b.rows == m + n + 1

        def power(x, k):
            acc = ExactMatrix.identity(x.rows)
            for _ in range(k):
                acc = acc * x
            return acc

        assert not (power(b, m) * power(a, n)).is_zero()
        assert (a * b).is_zero()
        assert power(b, m + 1).is_zero() and power(a, n + 1).is_zero()
