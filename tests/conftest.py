import os
import random
import tempfile
from fractions import Fraction

import pytest
from hypothesis import settings

from ncrat.core import ExactMatrix, Scalar, matrix_inverse
from ncrat.errors import SingularMatrixError

# One profile for every property test: reproducible examples, no time
# limit per example and no example database written to disk.  Tests set
# only max_examples.
settings.register_profile("ncrat", deadline=None, derandomize=True, database=None)
settings.load_profile("ncrat")
# database=None still leaves Hypothesis caching the constants it finds in
# the source under .hypothesis/constants/; keep that cache out of the checkout.
os.environ.setdefault(
    "HYPOTHESIS_STORAGE_DIRECTORY", os.path.join(tempfile.gettempdir(), "ncrat-hypothesis")
)


def random_scalar(rng, span=4):
    return Scalar(
        Fraction(rng.randint(-span, span), rng.randint(1, 3)),
        Fraction(rng.randint(-span, span), rng.randint(1, 3)),
    )


def random_exact_matrix(rng, n, span=3):
    return ExactMatrix(
        n, n, [Scalar(rng.randint(-span, span)) for _ in range(n * n)]
    )


def random_invertible(rng, n, span=3):
    while True:
        m = random_exact_matrix(rng, n, span)
        try:
            matrix_inverse(m)
            return m
        except SingularMatrixError:
            continue


@pytest.fixture
def rng():
    return random.Random(20240817)
