"""The float samplers: seeded numpy draws of structured matrix tuples.

Every draw comes from a counter-based Philox stream keyed by (seed,
trial index, ...), so identical seeds reproduce bit-identical samples and
distinct trials are independent substreams; the structural residual
(unitarity, isometry, the xgn relation) is checked to FLOAT_TOL after
every draw.  sampler.sample_point imports this module, and with it
numpy, on its first draw, so exact work loads neither.
"""

from __future__ import annotations

import numpy as np

from .core import FLOAT_TOL
from .errors import ConditioningFailure

_COND_LIMIT = 1e8


def _rng(seed: int, index) -> np.random.Generator:
    path = tuple(index) if isinstance(index, (tuple, list)) else (index,)
    ss = np.random.SeedSequence(entropy=int(seed) & (2**64 - 1), spawn_key=tuple(int(i) for i in path))
    return np.random.Generator(np.random.Philox(ss))


def _complex_gaussian(rng: np.random.Generator, rows: int, cols: int) -> np.ndarray:
    return (rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))) / np.sqrt(2)


def _orthonormal_columns(rng: np.random.Generator, rows: int, cols: int) -> np.ndarray:
    """A rows x cols matrix with orthonormal columns (rows >= cols): QR of
    a complex Gaussian matrix with the phases of R's diagonal moved into Q,
    which makes it Haar-distributed."""
    z = _complex_gaussian(rng, rows, cols)
    q, r = np.linalg.qr(z)
    d = np.diagonal(r)
    q = q * (d / np.abs(d))
    assert np.linalg.norm(q.conj().T @ q - np.eye(cols)) <= FLOAT_TOL
    return q


def haar_unitary(n: int, seed: int, index=0) -> np.ndarray:
    """Haar-distributed n x n unitary (QR of a complex Gaussian matrix with
    phase-corrected diagonal)."""
    return _orthonormal_columns(_rng(seed, index), n, n)


def unitary_tuple(g: int, n: int, seed: int, index=0) -> tuple:
    rng = _rng(seed, index)
    return tuple(_orthonormal_columns(rng, n, n) for _ in range(g))


def spherical_isometry_tuple(g: int, n: int, seed: int, index=0) -> tuple:
    """g matrices A_j with sum A_j^* A_j = I, from a QR-orthonormalized
    (g*n) x n complex Gaussian split into n x n blocks."""
    q = _orthonormal_columns(_rng(seed, index), g * n, n)
    return tuple(q[j * n : (j + 1) * n, :] for j in range(g))


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
