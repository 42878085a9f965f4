"""Exception types shared across the package."""


class NcratError(Exception):
    """Base class for all errors raised by this package."""


class DimensionMismatch(NcratError):
    """Matrix operands have incompatible shapes."""


class SingularMatrixError(NcratError):
    """Exact inverse of a singular matrix was requested."""


class AlphabetMismatch(NcratError):
    """Operands are defined over different letter alphabets."""


class ZeroPolynomialError(NcratError):
    """Degree/term statistics of the zero polynomial are undefined."""


class SizeMismatch(DimensionMismatch):
    """Evaluation point matrices do not all have the same (square) size."""


class MissingLetter(NcratError):
    """Evaluation point does not bind a letter used by the operand."""


class ParseError(NcratError):
    """Expression text does not conform to the grammar.

    The ``offset`` attribute holds the byte offset of the offending token.
    """

    def __init__(self, message, offset):
        super().__init__(f"{message} (at offset {offset})")
        self.offset = offset


class UnknownLetter(ParseError):
    """A letter name outside the declared alphabet."""


class DomainError(NcratError):
    """A point lies outside the domain of regularity of an expression.

    ``path`` is the sequence of child indices leading from the root to the
    inverse node whose argument was singular.
    """

    def __init__(self, message, path=()):
        super().__init__(f"{message} [subtree path {list(path)}]")
        self.message = message
        self.path = tuple(path)


class BasepointMismatch(NcratError):
    """Realizations were built about different base points."""


class SingularConstantTerm(NcratError):
    """The constant term of a series is not invertible; no inverse exists."""


class ResolventSingular(NcratError):
    """The structured system matrix of a realization is singular at a point."""


class GOutOfRange(NcratError):
    """Number of letters outside the admissible range for this construction."""


class SpecError(NcratError):
    """An input file (ideal spec, certificate, base point) or an ideal spec
    dict is malformed, or an argument is out of range (a search or sample
    setting, a size bound's parameter) or not one of its named choices (an
    ideal kind, a search mode)."""


# The errors malformed file data raises while it is read (ZeroDivisionError
# for a zero denominator); each reader of an input file turns them into SpecError.
MALFORMED = (KeyError, IndexError, TypeError, ValueError, AttributeError, ZeroDivisionError)


class ResolventNotVanishing(NcratError):
    """A generator does not vanish on the graph of the proposed resolvent."""


class NotPolynomial(NcratError):
    """An expression containing inverses cannot be flattened to a polynomial."""


class ConditioningFailure(NcratError):
    """Random sampling failed to produce a well-conditioned matrix."""


class DegreeTooHigh(NcratError):
    """Polynomial degree exceeds what the requested Gram problem can carry."""


class BudgetExceeded(NcratError):
    """A step whose cost grows fast in a user-chosen size would pass its
    documented cap (the basis words of a Gram problem,
    ``gram.GRAM_BASIS_CAP``, the leaves of a parsed expression with its
    powers unfolded, ``ratexpr.EXPR_LEAF_CAP``, and the terms a polynomial
    text expands to, ``ratexpr.POLY_TERM_CAP``, whose sizes are computed and
    refused before anything is enumerated, unfolded or expanded; and the
    words the series word walk visits, ``series.WORD_WALK_CAP``, which it
    prunes as it runs, so it counts them and stops at the cap)."""
