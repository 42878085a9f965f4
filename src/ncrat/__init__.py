"""ncrat: exact calculus for noncommutative polynomials and rational functions.

Decides vanishing and ideal membership through linear-representation
(realization) arithmetic over the Gaussian rationals, with matching size
bounds, structured random samplers for numeric falsification, and exact
verification of sum-of-Hermitian-squares certificates.

``import ncrat`` loads the layers that a verdict runs through (ratexpr,
realization, ideals, sampler, positivity) and their kernel; the word
walk (series), the Gram problem (gram) and the numpy samplers
(float_samplers) load on first use, and their names are ``ncrat``
attributes all the same.
"""

from .core import ExactMatrix, Scalar, conjugate_transpose, matrix_inverse, matrix_product
from .ncpoly import Alphabet, Letter, NcPoly
from .ratexpr import (
    RatExpr,
    eval_expression,
    format_expression,
    height,
    parse_expression,
    parse_poly,
    star_expression,
    substitute_letters,
)
from .realization import (
    BasePoint,
    LinRep,
    compile_expression,
    is_zero,
    minimize_scalar,
    rep_add,
    rep_const,
    rep_inv,
    rep_mul,
    rep_var,
    scalarize,
)
from .bounds import nss_bound, nss_degree_bound, pos_size, ri_bound, star_bound
from .ideals import (
    MembershipVerdict,
    RRIdeal,
    builtin_ideal,
    custom_ideal,
    is_member,
    random_ideal_element,
    substitute_resolvent,
    symbolic_matrix_inverse,
    witness_size,
)
from .sampler import SampleDomain, Witness, falsify, sample_point, zero_divisor_witness
from .positivity import SohsCertificate, positivity_probe, verify_certificate

__version__ = "0.1.0"

# name -> the module that defines it, imported on first access
_LAZY = {
    "GenPoly": "series",
    "coefficient": "series",
    "eval_rep": "series",
    "haar_unitary": "float_samplers",
    "partitioned_unitary": "float_samplers",
    "spherical_isometry_tuple": "float_samplers",
    "xgn_point": "float_samplers",
    "GramProblem": "gram",
    "export_gram": "gram",
    "gram_constraints": "gram",
    "import_gram": "gram",
}


def __getattr__(name):
    from importlib import import_module

    if name in _LAZY:
        value = getattr(import_module(f"{__name__}.{_LAZY[name]}"), name)
    elif name in _LAZY.values():
        value = import_module(f"{__name__}.{name}")
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(_LAZY) | set(_LAZY.values()))
