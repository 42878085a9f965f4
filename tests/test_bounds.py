import pytest

from ncrat.bounds import nss_bound, nss_degree_bound, pos_size, ri_bound, star_bound
from ncrat.errors import GOutOfRange, SpecError


def test_ri_bound_values():
    assert ri_bound(1, 1) == 1
    assert ri_bound(2, 3) == 6
    assert ri_bound(1, 2) == 1


def test_nss_bound_special_cases():
    for u in range(1, 11):
        for v in range(1, 11):
            assert nss_bound(1, 1, u, v) == u * v
            assert nss_bound(2, 3, u, v) == 6 * u * v
            for g in (2, 3, 5):
                assert nss_bound(1, g + 1, u, v) == -(-(g + 1) * u * v // 2)
                assert nss_bound(1, g, u, v) == -(-g * u * v // 2)


def test_nss_degree_bound_values():
    assert nss_degree_bound(1, 1, 1, 1) == 2
    assert nss_degree_bound(1, 2, 2, 2) == 18
    # consistency with the term-count bound via v <= (g+1)^d
    for m in (1, 2):
        for n in (1, 2, 3):
            for d in (1, 2):
                for g in (1, 2):
                    assert nss_degree_bound(m, n, d, g) >= nss_bound(m, n, d, (g + 1) ** d)


def test_star_bounds():
    assert star_bound("unitaries", 2, 3, 2) == 6
    assert star_bound("spherical", 2, 2, 3) == 9
    assert star_bound("partitioned", 2, 2, 3) == 6
    with pytest.raises(GOutOfRange):
        star_bound("spherical", 1, 1, 1)
    with pytest.raises(GOutOfRange):
        star_bound("partitioned", 1, 1, 1)


def test_real_case_doubles():
    for kind, g in (("unitaries", 1), ("spherical", 3), ("partitioned", 2)):
        for u in range(1, 6):
            for v in range(1, 6):
                assert star_bound(kind, g, u, v, real_case=True) == 2 * star_bound(kind, g, u, v)


def test_pos_size_values():
    assert pos_size("unitaries", 1, 2) == 9
    assert pos_size("partitioned", 2, 1) == 9
    assert pos_size("spherical", 2, 1) == 5


def test_monotonicity_grid():
    grid = range(1, 6)

    def nondecreasing(f, arity):
        import itertools

        for args in itertools.product(grid, repeat=arity):
            base = f(*args)
            for k in range(arity):
                bumped = list(args)
                bumped[k] += 1
                assert f(*bumped) >= base

    nondecreasing(ri_bound, 2)
    nondecreasing(nss_bound, 4)
    nondecreasing(lambda m, n, d, g: nss_degree_bound(m, n, d, g), 4)
    nondecreasing(lambda g, u, v: star_bound("unitaries", g, u, v), 3)
    nondecreasing(lambda g, u, v: star_bound("spherical", g + 1, u, v), 3)
    nondecreasing(lambda g, d: pos_size("spherical", g, d), 2)


def test_rejects_nonpositive():
    with pytest.raises(SpecError):
        nss_bound(0, 1, 1, 1)
    with pytest.raises(SpecError):
        ri_bound(1, -2)
    with pytest.raises(SpecError):
        star_bound("frobnicated", 2, 1, 1)
    with pytest.raises(SpecError):
        pos_size("frobnicated", 2, 1)
    with pytest.raises(SpecError):
        nss_degree_bound(1, 1, 0, 1)
