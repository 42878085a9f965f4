"""ncrat: exact calculus for noncommutative polynomials and rational functions.

Decides vanishing and ideal membership through linear-representation
(realization) arithmetic over the Gaussian rationals, with matching size
bounds, structured random samplers for numeric falsification, and exact
verification of sum-of-Hermitian-squares certificates.
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
    GenPoly,
    LinRep,
    coefficient,
    compile_expression,
    eval_rep,
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
from .sampler import (
    SampleDomain,
    Witness,
    falsify,
    haar_unitary,
    partitioned_unitary,
    sample_point,
    spherical_isometry_tuple,
    xgn_point,
    zero_divisor_witness,
)
from .positivity import (
    GramProblem,
    SohsCertificate,
    export_gram,
    gram_constraints,
    import_gram,
    positivity_probe,
    verify_certificate,
)

__version__ = "0.1.0"
