"""Seeded samples of structured matrix tuples and the seeded witness search.

A SampleDomain owns a domain kind: the letters its draws bind and both
of its drawers, ``sample_point`` (float tuples from the numpy samplers
of float_samplers.py, imported on the first draw) and
``SampleDomain.exact`` (exact points of a *-zero set).  Sampling is
deterministic: identical seeds reproduce bit-identical samples and
distinct trials are independent substreams.  ``draws`` is the one
(size, trial) loop of a seeded search, sampler -> eval_expression(f),
and falsify and the positivity probe judge what it yields, falsify also
at the exact points of ideals.zero_set_sampler, without numpy in
nonzero mode.
"""

from __future__ import annotations

import math
import random
from typing import TYPE_CHECKING, Callable, Sequence

from .core import (ExactMatrix, FLOAT_TOL, Frozen, Scalar, Value, float_to_json, json_float,
                   matrix_inverse, split_blocks)
from .errors import ConditioningFailure, DomainError, GOutOfRange, SpecError
from .ncpoly import Alphabet
from .ratexpr import RatExpr, eval_expression, poly_to_expression

if TYPE_CHECKING:
    import numpy as np

# The structured *-zero sets of star ideals, then the other sample domains.
STAR_KINDS = ("unitaries", "spherical", "partitioned")
DOMAIN_KINDS = STAR_KINDS + ("xgn", "unrestricted")

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

    @property
    def star(self) -> bool:
        """Whether the domain is the *-zero set of a star ideal."""
        return self.kind in STAR_KINDS

    @property
    def alphabet(self) -> Alphabet:
        """The letters a draw binds, in the order of its tuple."""
        if self.kind == "partitioned":
            return Alphabet.matrix(self.g)
        return Alphabet.xy(self.g) if self.kind == "xgn" else Alphabet.x(self.g)

    @property
    def bound_kind(self) -> str:
        """The kind of the domain's star_bound: a g = 1 draw is one unitary."""
        return "unitaries" if self.g == 1 and self.star else self.kind

    def exact(self, n: int, seed: int, trial: int) -> tuple:
        """An exact point of size n of the *-zero set, from the stream
        random.Random(f"star/{seed}/{n}/{trial}"): g Cayley unitaries of size
        n, or one of size gn cut into g blocks of its first n columns
        (spherical) or into its g x g grid, row by row (partitioned).  Every
        draw succeeds, the points are dense, and other kinds raise SpecError."""
        if not self.star:
            raise SpecError(f"{self.kind} has no exact drawer")
        rng = random.Random(f"star/{seed}/{n}/{trial}")
        if self.kind == "unitaries":
            return tuple(_cayley_unitary(rng, n) for _ in range(self.g))
        blocks = split_blocks(_cayley_unitary(rng, self.g * n), self.g)
        if self.kind == "spherical":
            # the first n columns of a unitary: sum_j A_j^* A_j = I
            return tuple(row[0] for row in blocks)
        return tuple(block for row in blocks for block in row)


def _gaussian_integer_matrix(rng: random.Random, n: int) -> ExactMatrix:
    """An n x n matrix of Gaussian integers with real and imaginary parts
    in -3..3, drawn row by row, real part first."""
    return ExactMatrix(n, n, [Scalar(rng.randint(-3, 3), rng.randint(-3, 3))
                              for _ in range(n * n)])


def _cayley_unitary(rng: random.Random, n: int) -> ExactMatrix:
    """(I - K)(I + K)^-1 for K = G - G^*, G drawn as above: K is
    skew-Hermitian, so I + K is invertible and the result is unitary."""
    g = _gaussian_integer_matrix(rng, n)
    k = g - g.conjugate_transpose()
    eye = ExactMatrix.identity(n)
    return (eye - k) * matrix_inverse(eye + k)


def check_search(trials: int, sizes: Sequence[int] = (1,)) -> tuple:
    """The sizes of a seeded search, as a tuple, once its settings are
    checked: at least one trial and a non-empty list of sizes >= 1.
    Anything else raises SpecError: the search could not sample."""
    if trials < 1:
        raise SpecError(f"trials must be at least 1, got {trials}")
    sizes = tuple(sizes)
    if not sizes or min(sizes) < 1:
        raise SpecError(f"sizes must be one or more sizes >= 1, got {list(sizes)}")
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


def draws(f, sample: Callable, sizes: Sequence[int], trials: int, seed: int):
    """The (size, trial) loop of a seeded search: yields (n, trial, point,
    f(point)) for each size n in ``sizes`` and trial 0..trials-1, the
    point drawn as ``sample(n, seed, trial)`` and f, an NcPoly or a
    RatExpr, evaluated there with adjoint letters by
    ratexpr.eval_expression; a polynomial's expression is built once.
    The trials and sizes go through check_search before the first draw.

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
    sizes = check_search(trials, sizes)
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
) -> Witness | None:
    """Search for a sample where f does not vanish (or is not PSD).

    ``sample`` is a callable (n, seed, trial) -> point tuple, float or
    exact, such as a SampleDomain or ideals.zero_set_sampler; the points
    come from ``draws``, which checks trials and sizes once falsify has
    checked ``mode``.  In ``nonzero`` mode a float value is a witness when
    some entry of |f(point)| is above core.FLOAT_TOL, an exact value when
    it is not zero (ExactMatrix.is_zero; only the witness returned is
    scored); in ``negative-eigenvalue`` mode the Hermitian part of the
    value has an eigenvalue below -FLOAT_TOL.
    Returns the first witness in (size, trial) order, or None.  numpy is
    imported only to sample or score float values.  A zero-set search
    follows a verdict that f does not vanish there (ideals.is_member).
    """
    if mode not in FALSIFY_MODES:
        raise SpecError(f"unknown falsify mode {mode!r}; choose from {FALSIFY_MODES}")
    for n, trial, point, value in draws(f, sample, sizes, trials, seed):
        exact = mode == "nonzero" and isinstance(value, ExactMatrix)
        if (not value.is_zero()) if exact else _score(value, mode) > FLOAT_TOL:
            return Witness(n, trial, seed, point, value, _score(value, mode))
    return None
