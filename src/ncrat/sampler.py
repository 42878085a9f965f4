"""Random structured matrix tuples and the numeric falsification search.

Sampling is deterministic: every draw comes from a counter-based Philox
stream keyed by (seed, trial index, ...), so identical seeds reproduce
bit-identical samples and distinct trials are independent substreams.
Structural residuals (unitarity, isometry, ...) are checked to 1e-10
after every draw.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence

from .core import ExactMatrix, FLOAT_TOL, ONE
from .errors import ConditioningFailure, DomainError, GOutOfRange, SpecError
from .ncpoly import NcPoly
from .ratexpr import RatExpr, eval_expression

if TYPE_CHECKING:
    import numpy as np

_COND_LIMIT = 1e8


@dataclass(frozen=True)
class SampleDomain:
    """A family of structured tuples: which constraint and how many letters."""

    kind: str  # unitaries | spherical | partitioned | xgn | unrestricted
    g: int
    n: int | None = None  # default sample size, optional

    def __post_init__(self):
        if self.kind not in ("unitaries", "spherical", "partitioned", "xgn", "unrestricted"):
            raise SpecError(f"unknown sample domain kind {self.kind!r}")
        if self.g < 1:
            raise GOutOfRange(f"domain needs g >= 1, got {self.g}")


def _rng(seed: int, index) -> np.random.Generator:
    import numpy as np

    path = tuple(index) if isinstance(index, (tuple, list)) else (index,)
    ss = np.random.SeedSequence(entropy=int(seed) & (2**64 - 1), spawn_key=tuple(int(i) for i in path))
    return np.random.Generator(np.random.Philox(ss))


def _complex_gaussian(rng: np.random.Generator, rows: int, cols: int) -> np.ndarray:
    import numpy as np

    return (rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))) / np.sqrt(2)


def _haar_from_rng(rng: np.random.Generator, n: int) -> np.ndarray:
    import numpy as np

    z = _complex_gaussian(rng, n, n)
    q, r = np.linalg.qr(z)
    d = np.diagonal(r)
    q = q * (d / np.abs(d))
    assert np.linalg.norm(q.conj().T @ q - np.eye(n)) <= FLOAT_TOL
    return q


def haar_unitary(n: int, seed: int, index=0) -> np.ndarray:
    """Haar-distributed n x n unitary (QR of a complex Gaussian matrix with
    phase-corrected diagonal)."""
    return _haar_from_rng(_rng(seed, index), n)


def unitary_tuple(g: int, n: int, seed: int, index=0) -> tuple:
    rng = _rng(seed, index)
    return tuple(_haar_from_rng(rng, n) for _ in range(g))


def spherical_isometry_tuple(g: int, n: int, seed: int, index=0) -> tuple:
    """g matrices A_j with sum A_j^* A_j = I, from a QR-orthonormalized
    (g*n) x n complex Gaussian split into n x n blocks."""
    import numpy as np

    rng = _rng(seed, index)
    z = _complex_gaussian(rng, g * n, n)
    q, r = np.linalg.qr(z)
    d = np.diagonal(r)
    q = q * (d / np.abs(d))
    blocks = tuple(q[j * n : (j + 1) * n, :] for j in range(g))
    resid = sum(b.conj().T @ b for b in blocks) - np.eye(n)
    assert np.linalg.norm(resid) <= FLOAT_TOL
    return blocks

def partitioned_unitary(g: int, n: int, seed: int, index=0) -> list:
    """A g x g grid of n x n blocks assembling to a Haar unitary of size g*n."""
    u = haar_unitary(g * n, seed, index)
    grid = [[u[i * n : (i + 1) * n, j * n : (j + 1) * n] for j in range(g)] for i in range(g)]
    return grid


def xgn_point(g: int, n: int, seed: int, index=0) -> tuple:
    """A point (A, B) with sum_k A_k B_k = I_n.

    B_k and A_{k>=2} are complex Gaussians; A_1 is solved from the relation,
    resampling B_1 until it is well conditioned (at most 20 attempts).
    """
    import numpy as np

    rng = _rng(seed, index)
    bs = [_complex_gaussian(rng, n, n) for _ in range(g)]
    as_ = [None] + [_complex_gaussian(rng, n, n) for _ in range(g - 1)]
    for _ in range(20):
        if np.linalg.cond(bs[0]) < _COND_LIMIT:
            rest = sum(as_[k] @ bs[k] for k in range(1, g)) if g > 1 else 0
            as_[0] = (np.eye(n) - rest) @ np.linalg.inv(bs[0])
            resid = sum(as_[k] @ bs[k] for k in range(g)) - np.eye(n)
            if np.linalg.norm(resid) <= FLOAT_TOL:
                return tuple(as_), tuple(bs)
        bs[0] = _complex_gaussian(rng, n, n)
    raise ConditioningFailure("no well-conditioned B_1 after 20 resamples")


def sample_point(domain: SampleDomain, n: int, seed: int, index=0) -> tuple:
    """One sample from the domain, flattened to a tuple in letter order."""
    if domain.kind == "unitaries":
        return unitary_tuple(domain.g, n, seed, index)
    if domain.kind == "spherical":
        return spherical_isometry_tuple(domain.g, n, seed, index)
    if domain.kind == "partitioned":
        grid = partitioned_unitary(domain.g, n, seed, index)
        return tuple(grid[i][j] for i in range(domain.g) for j in range(domain.g))
    if domain.kind == "xgn":
        a, b = xgn_point(domain.g, n, seed, index)
        return a + b
    rng = _rng(seed, index)
    return tuple(_complex_gaussian(rng, n, n) for _ in range(domain.g))


# ---------------------------------------------------------------------------
# Falsification
# ---------------------------------------------------------------------------


@dataclass
class Witness:
    size: int
    trial: int
    seed: int
    point: tuple
    value: np.ndarray
    score: float

    def to_json(self):
        from .core import float_to_json

        return {
            "size": self.size,
            "trial": self.trial,
            "seed": self.seed,
            "score": self.score,
            "point": [float_to_json(p) for p in self.point],
            "value": float_to_json(self.value),
        }


def _evaluate(f, point):
    if isinstance(f, NcPoly):
        return f.eval(point, star_rule="adjoint")
    if isinstance(f, RatExpr):
        return eval_expression(f, point, star_rule="adjoint")
    raise TypeError(f"cannot evaluate {type(f).__name__}")


def falsify(
    f,
    domain: "SampleDomain | Callable",
    sizes: Sequence[int],
    trials: int,
    seed: int,
    mode: str = "nonzero",
    tol: float = FLOAT_TOL,
) -> Witness | None:
    """Search for a sample where f does not vanish (or is not PSD).

    ``domain`` is a SampleDomain or a callable (n, seed, trial) -> point
    tuple.  In ``nonzero`` mode a witness has some entry of |f(point)|
    above tol; in ``negative-eigenvalue`` mode the Hermitian part of the
    value has an eigenvalue below -tol.  Returns the first witness in
    (size, trial) order, or None.
    """
    import numpy as np

    if mode not in ("nonzero", "negative-eigenvalue"):
        raise ValueError(f"unknown falsify mode {mode!r}")
    sample = (
        domain
        if callable(domain)
        else lambda n, s, t: sample_point(domain, n, s, t)
    )
    for n in sizes:
        for trial in range(trials):
            try:
                point = sample(n, seed, trial)
            except ConditioningFailure:
                continue
            try:
                value = _evaluate(f, point)
            except DomainError:
                continue
            if not np.all(np.isfinite(value)):
                continue
            if mode == "nonzero":
                score = float(np.max(np.abs(value)))
            else:
                herm = (value + value.conj().T) / 2
                score = float(-np.min(np.linalg.eigvalsh(herm)))
            if score > tol:
                return Witness(n, trial, seed, point, value, score)
    return None


# ---------------------------------------------------------------------------
# Exact counterexample fixture (zero divisors in the quotient by (XY))
# ---------------------------------------------------------------------------


def zero_divisor_witness(m: int, n: int) -> tuple[ExactMatrix, ExactMatrix]:
    """Exact (m+n+1)-sized matrices with B^m A^n != 0, AB = 0 and
    B^{m+1} = 0 = A^{n+1}.

    A is the shift along 1 -> 2 -> ... -> n+1; B shifts n+2 -> ... -> m+n+1
    and wraps m+n+1 -> 1.  For m = 0 the wrap term would break B^{m+1} = 0,
    so B is the zero matrix there.
    """
    if m < 0 or n < 0 or m + n < 1:
        raise ValueError("need m, n >= 0 with m + n >= 1")
    size = m + n + 1
    ae = list(ExactMatrix.zeros(size, size).entries)
    for i in range(1, n + 1):
        ae[(i - 1) * size + i] = ONE
    a = ExactMatrix(size, size, ae)
    b = ExactMatrix.zeros(size, size)
    if m >= 1:
        be = list(b.entries)
        for i in range(n + 2, n + m + 1):
            be[(i - 1) * size + i] = ONE
        be[(size - 1) * size + 0] = ONE
        b = ExactMatrix(size, size, be)
    _check_zero_divisor(a, b, m, n)
    return a, b


def _check_zero_divisor(a: ExactMatrix, b: ExactMatrix, m: int, n: int):
    def power(x, k):
        acc = ExactMatrix.identity(x.rows)
        for _ in range(k):
            acc = acc * x
        return acc

    assert not (power(b, m) * power(a, n)).is_zero()
    assert (a * b).is_zero()
    assert power(b, m + 1).is_zero()
    assert power(a, n + 1).is_zero()
