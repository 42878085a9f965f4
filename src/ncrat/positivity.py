"""Sum-of-Hermitian-squares certificates: exact verification and numeric
positivity probing.

A certificate for f modulo an ideal is data (p_1..p_k, q) with

    f = sum_i p_i^* p_i + q,      q in the ideal.

Verification is exact: the identity is checked in the free *-algebra,
and q is accepted either through explicit two-sided cofactors or through
the membership oracle.  No SDP solver is bundled; certificates are
searched for externally on the Gram problem that gram.py exports.
"""

from __future__ import annotations

from math import isnan
from typing import Callable

from .core import Value
from .errors import ConditioningFailure, SpecError
from .ncpoly import NcPoly
from .sampler import _score, draws


class SohsCertificate(Value):
    __slots__ = ("squares", "remainder", "cofactors")

    def __init__(self, squares, remainder: NcPoly, cofactors=None):
        self.squares = tuple(squares)  # NcPoly p_i
        self.remainder = remainder  # q
        # ((a_i, generator_index, b_i), ...)
        self.cofactors = None if cofactors is None else tuple(cofactors)


class VerifyResult(Value):
    __slots__ = ("identity_ok", "remainder_path", "remainder_ok")

    def __init__(self, identity_ok: bool, remainder_path: str, remainder_ok: bool):
        self.identity_ok = identity_ok
        self.remainder_path = remainder_path  # "zero" | "cofactors" | "oracle"
        self.remainder_ok = remainder_ok

    @property
    def ok(self) -> bool:
        """The certificate holds: the identity and the remainder check."""
        return self.identity_ok and self.remainder_ok

    def __bool__(self):
        return self.ok


def verify_certificate(f: NcPoly, cert: SohsCertificate, ideal) -> VerifyResult:
    """Exact check that f = sum p_i^* p_i + q with q in the ideal.

    Returns a truthy result only when the algebra identity holds exactly
    and the remainder is certified (syntactically via cofactors when
    present, otherwise through the ideal's membership oracle).  A square or
    remainder over another alphabet than f's raises AlphabetMismatch, from
    the polynomial arithmetic.
    """
    total = NcPoly.zero(f.alphabet)
    for p in cert.squares:
        total = total + p.star() * p
    identity_ok = (f - total - cert.remainder).is_zero()

    q = cert.remainder
    if q.is_zero():
        path, remainder_ok = "zero", True
    elif cert.cofactors is not None:
        recomposed = NcPoly.zero(f.alphabet)
        for a, j, b in cert.cofactors:
            if not 0 <= j < len(ideal.generators):
                raise SpecError(
                    f"cofactor names generator {j}; the ideal's are 0..{len(ideal.generators) - 1}"
                )
            recomposed = recomposed + a * ideal.generators[j] * b
        path, remainder_ok = "cofactors", (recomposed - q).is_zero()
    else:
        from .ideals import is_member

        path, remainder_ok = "oracle", is_member(q, ideal).member
    return VerifyResult(identity_ok, path, remainder_ok)


# ---------------------------------------------------------------------------
# Numeric positivity probing
# ---------------------------------------------------------------------------


class ProbeReport(Value):
    __slots__ = ("min_eigenvalue", "size", "trial", "samples")

    def __init__(self, min_eigenvalue: float, size: int, trial: int, samples: int):
        self.min_eigenvalue = min_eigenvalue
        self.size = size
        self.trial = trial
        self.samples = samples


def positivity_probe(f: NcPoly, sample: Callable, sizes, trials: int, seed: int) -> ProbeReport:
    """Minimum eigenvalue of the Hermitian part of f over seeded samples.

    ``sample`` is a callable (n, seed, trial) -> point tuple, such as a
    SampleDomain or ideals.zero_set_sampler.  The values come from
    sampler.draws, as falsify's do, and each is judged as falsify judges
    it in negative-eigenvalue mode; ``samples`` counts them, and none at
    all raises ConditioningFailure.  A certificate for f modulo the
    matching ideal implies the reported minimum is not negative, up to
    rounding (necessary-condition probe).  A value that is not finite
    scores NaN, which never beats a number: the minimum is NaN only when
    every value is.
    """
    best = None
    count = 0
    for n, trial, _, value in draws(f, sample, sizes, trials, seed):
        lo = -_score(value, "negative-eigenvalue")
        count += 1
        if best is None or lo < best[0] or isnan(best[0]) and not isnan(lo):
            best = (lo, n, trial)
    if best is None:
        raise ConditioningFailure(f"no point drawn at sizes {list(sizes)}")
    return ProbeReport(*best, count)
