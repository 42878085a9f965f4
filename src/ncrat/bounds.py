"""Size-bound formulas for rational identity testing and membership checks.

All functions are pure integer arithmetic.  ``m`` is the base point size,
``n`` the realization dimension of the resolvent, ``u``/``v`` the degree
and term count of the polynomial under test, ``d`` a degree bound and
``g`` the number of letters.  A parameter below 1 or an unknown ideal
kind raises SpecError.
"""

from __future__ import annotations

from .errors import GOutOfRange, SpecError


def _ceil_div(a: int, b: int) -> int:
    return -(-a // b)


def _check_positive(**kwargs):
    for name, value in kwargs.items():
        if not isinstance(value, int) or value < 1:
            raise SpecError(f"{name} must be a positive integer, got {value!r}")


def ri_bound(m: int, n: int) -> int:
    """Matrix size N = m * ceil(m*n/2): a rational expression with a
    realization of dimension n about an m x m point that vanishes on all
    matrices of size N is a rational identity."""
    _check_positive(m=m, n=n)
    return m * _ceil_div(m * n, 2)


def nss_bound(m: int, n: int, u: int, v: int) -> int:
    """N = m * ceil(m*u*v*max(n,2)/2): vanishing on the zero set at size N
    implies vanishing on the whole zero set."""
    _check_positive(m=m, n=n, u=u, v=v)
    return m * _ceil_div(m * u * v * max(n, 2), 2)


def nss_degree_bound(m: int, n: int, d: int, g: int) -> int:
    """Degree-only variant: N' = m * ceil(m*d*(g+1)^d*max(n,2)/2)."""
    _check_positive(m=m, n=n, d=d, g=g)
    return m * _ceil_div(m * d * (g + 1) ** d * max(n, 2), 2)


def star_bound(kind: str, g: int, u: int, v: int, real_case: bool = False) -> int:
    """Test sizes for the involution ideals.

    unitaries: u*v; spherical isometries: ceil((g+1)*u*v/2) for g > 1;
    partitioned unitaries: ceil(g*u*v/2) for g > 1.  In the real setting
    (transpose instead of adjoint) every bound doubles.
    """
    _check_positive(g=g, u=u, v=v)
    if kind == "unitaries":
        n = u * v
    elif kind == "spherical":
        if g <= 1:
            raise GOutOfRange("spherical bound requires g > 1")
        n = _ceil_div((g + 1) * u * v, 2)
    elif kind == "partitioned":
        if g <= 1:
            raise GOutOfRange("partitioned bound requires g > 1")
        n = _ceil_div(g * u * v, 2)
    else:
        raise SpecError(f"unknown ideal kind {kind!r}")
    return 2 * n if real_case else n


def pos_size(kind: str, g: int, d: int) -> int:
    """Evaluation sizes for the positivity certificates: (2g+1)^d for
    unitaries and spherical isometries, (2g^2+1)^d for partitioned
    unitaries (block size)."""
    _check_positive(g=g, d=d)
    if kind in ("unitaries", "spherical"):
        return (2 * g + 1) ** d
    if kind == "partitioned":
        return (2 * g * g + 1) ** d
    raise SpecError(f"unknown ideal kind {kind!r}")
