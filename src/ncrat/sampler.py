"""Seeded samples of structured matrix tuples and the seeded witness search.

``sample_point`` draws a tuple from a SampleDomain through the numpy
samplers of float_samplers.py, which it imports on its first draw.
Sampling is deterministic: identical seeds reproduce bit-identical
samples and distinct trials are independent substreams.  These samples
serve ``sample``, ``falsify --domain`` and the positivity probe.
``draws`` is the one (size, trial) loop of a seeded search, sampler ->
eval_expression(f), and falsify and the positivity probe judge what it
yields.  falsify also searches the exact points of
ideals.zero_set_sampler (graph points, and Cayley points of the
*-zero sets of star ideals) and in nonzero mode judges them without
numpy.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Callable, Sequence

from .core import ExactMatrix, FLOAT_TOL, ONE, Frozen, Value, float_to_json, json_float
from .errors import ConditioningFailure, DomainError, GOutOfRange, SpecError
from .ratexpr import RatExpr, eval_expression, poly_to_expression

if TYPE_CHECKING:
    import numpy as np

# The sample domains; the first three are the *-zero sets of star ideals.
DOMAIN_KINDS = ("unitaries", "spherical", "partitioned", "xgn", "unrestricted")

# What falsify counts as a witness: a nonzero entry, or a negative eigenvalue
# of the Hermitian part.
FALSIFY_MODES = ("nonzero", "negative-eigenvalue")


class SampleDomain(Frozen):
    """A family of structured tuples: which constraint and how many letters.
    As a sampler for falsify, domain(n, seed, trial) = sample_point(domain, n, seed, trial)."""

    __slots__ = ("kind", "g")

    def __init__(self, kind: str, g: int):
        if kind not in DOMAIN_KINDS:
            raise SpecError(f"unknown sample domain kind {kind!r}")
        if g < 1:
            raise GOutOfRange(f"domain needs g >= 1, got {g}")
        object.__setattr__(self, "kind", kind)  # one of DOMAIN_KINDS
        object.__setattr__(self, "g", g)

    def __call__(self, n: int, seed: int, trial: int) -> tuple:
        return sample_point(self, n, seed, trial)


def check_search(trials: int, sizes: Sequence[int] = (1,), tol: float = FLOAT_TOL,
                 mode: str = "nonzero") -> tuple:
    """The sizes of a seeded search, as a tuple, once its settings are
    checked: at least one trial, a finite tolerance above 0, a non-empty
    list of sizes >= 1 and a mode in FALSIFY_MODES.  Anything else raises
    SpecError: the search could not sample, or would report no witness or
    one where f vanishes."""
    if trials < 1:
        raise SpecError(f"trials must be at least 1, got {trials}")
    if not 0 < tol < math.inf:
        raise SpecError(f"tol must be a positive number, got {tol}")
    sizes = tuple(sizes)
    if not sizes or min(sizes) < 1:
        raise SpecError(f"sizes must be one or more sizes >= 1, got {list(sizes)}")
    if mode not in FALSIFY_MODES:
        raise SpecError(f"unknown falsify mode {mode!r}; choose from {FALSIFY_MODES}")
    return sizes


def sample_point(domain: SampleDomain, n: int, seed: int, index: int = 0) -> tuple:
    """One sample of size n >= 1 from the domain, flattened to a tuple in
    letter order; ``index`` >= 0 picks the trial substream.  A size or index
    out of range raises SpecError."""
    if n < 1:
        raise SpecError(f"sample size must be at least 1, got {n}")
    if index < 0:
        raise SpecError(f"sample index must be at least 0, got {index}")
    from . import float_samplers as fs

    if domain.kind == "unitaries":
        return fs.unitary_tuple(domain.g, n, seed, index)
    if domain.kind == "spherical":
        return fs.spherical_isometry_tuple(domain.g, n, seed, index)
    if domain.kind == "partitioned":
        grid = fs.partitioned_unitary(domain.g, n, seed, index)
        return tuple(grid[i][j] for i in range(domain.g) for j in range(domain.g))
    if domain.kind == "xgn":
        a, b = fs.xgn_point(domain.g, n, seed, index)
        return a + b
    rng = fs._rng(seed, index)
    return tuple(fs._complex_gaussian(rng, n, n) for _ in range(domain.g))


# ---------------------------------------------------------------------------
# Falsification
# ---------------------------------------------------------------------------


class Witness(Value):
    __slots__ = ("size", "trial", "seed", "point", "value", "score")

    def __init__(self, size: int, trial: int, seed: int, point: tuple,
                 value: np.ndarray | ExactMatrix, score: float):
        self.size = size
        self.trial = trial
        self.seed = seed
        self.point = point
        self.value = value  # exact exactly when the point is
        self.score = score

    def to_json(self):
        """``point`` and ``value`` as float pairs; an exact point also
        gives ``exact_point`` and ``exact_value``, each matrix as
        ExactMatrix.to_json, which keep what the floats round away."""
        data = {
            "size": self.size,
            "trial": self.trial,
            "seed": self.seed,
            "score": json_float(self.score),
            "point": [float_to_json(p) for p in self.point],
            "value": float_to_json(self.value),
        }
        if isinstance(self.value, ExactMatrix):
            data["exact_point"] = [p.to_json() for p in self.point]
            data["exact_value"] = self.value.to_json()
        return data


def _score(value, mode: str) -> float:
    """How far a value is from vanishing (nonzero mode) or from PSD
    (negative-eigenvalue mode); NaN for a float value that is not finite.
    An exact value is scored without numpy in nonzero mode, and as floats
    in negative-eigenvalue mode."""
    if isinstance(value, ExactMatrix):
        if mode == "nonzero":
            return max(abs(x.to_complex()) for x in value.entries)
        value = [[x.to_complex() for x in value.row(i)] for i in range(value.rows)]
    import numpy as np

    value = np.asarray(value, dtype=complex)
    if not np.all(np.isfinite(value)):
        return math.nan
    if mode == "nonzero":
        return float(np.max(np.abs(value)))
    herm = (value + value.conj().T) / 2
    return float(-np.min(np.linalg.eigvalsh(herm)))


def draws(f, sample: Callable, sizes: Sequence[int], trials: int, seed: int,
          mode: str = "nonzero", tol: float = FLOAT_TOL):
    """The (size, trial) loop of a seeded search: yields (n, trial, point,
    f(point)) for each size n in ``sizes`` and trial 0..trials-1, the
    point drawn as ``sample(n, seed, trial)`` and f, an NcPoly or a
    RatExpr, evaluated there with adjoint letters by
    ratexpr.eval_expression; a polynomial's expression is built once.
    The settings go through check_search before the first draw.

    A draw where f is undefined (DomainError) is skipped.  A
    ConditioningFailure from the sampler ends the current size: the loop
    moves on to the next one.  At size n the domain of a noncommutative
    rational function is Zariski-open in the g-tuples of n x n matrices,
    so it is either empty or misses only a null set.  A sampler that
    raises has already failed on several independent draws
    (zero_set_sampler on 20), so the set it samples is almost surely empty
    at that size and its later trials would fail the same way.  Trials
    are numbered per size, so leaving a size early changes none of the
    points drawn at the next ones.
    """
    sizes = check_search(trials, sizes, tol, mode)
    expr = f if isinstance(f, RatExpr) else poly_to_expression(f)
    for n in sizes:
        for trial in range(trials):
            try:
                point = sample(n, seed, trial)
            except ConditioningFailure:
                break
            try:
                value = eval_expression(expr, point)
            except DomainError:
                continue
            yield n, trial, point, value


def falsify(
    f,
    sample: Callable,
    sizes: Sequence[int],
    trials: int,
    seed: int,
    mode: str = "nonzero",
    tol: float = FLOAT_TOL,
) -> Witness | None:
    """Search for a sample where f does not vanish (or is not PSD).

    ``sample`` is a callable (n, seed, trial) -> point tuple, float or
    exact, such as a SampleDomain or ideals.zero_set_sampler; the points
    come from ``draws``, which checks the settings first.  In ``nonzero``
    mode a float value is a witness when some entry of |f(point)| is
    above tol, an exact value when it is not zero (ExactMatrix.is_zero;
    only the witness returned is scored); in ``negative-eigenvalue`` mode
    the Hermitian part of the value has an eigenvalue below -tol.
    Returns the first witness in (size, trial) order, or None.  numpy is
    imported only to sample or score float values.  A zero-set search
    follows a verdict that f does not vanish there (ideals.is_member).
    """
    for n, trial, point, value in draws(f, sample, sizes, trials, seed, mode, tol):
        exact = mode == "nonzero" and isinstance(value, ExactMatrix)
        if (not value.is_zero()) if exact else _score(value, mode) > tol:
            return Witness(n, trial, seed, point, value, _score(value, mode))
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
        raise SpecError("need m, n >= 0 with m + n >= 1")
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
