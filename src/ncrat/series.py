"""Readers of a series off its automaton: the word walk and evaluation.

A LinRep (see realization.py) stores a series as a weighted automaton
(C, {A_l}, B), and the coefficient of a scalar word w is C A^w B.  This
module reads those coefficients by one depth-first walk over words,
``_word_values``, which shares none of the arithmetic of the reachability
closure of realization.py and so checks it independently; it alone holds a
word budget.  ``_grids`` groups its words by base word into the coefficients
[S, w] that ``coefficient`` (one word) and ``coefficients`` (the nonzero ones
up to an order) read; ``coefficient_table`` (their m = 1 scalars) and
``is_zero_by_enumeration`` (the zero verdict by brute force) view the latter.
``eval_rep`` evaluates the series at exact matrices by the automaton's closed form.
"""

from __future__ import annotations

from typing import Sequence

from .core import ZERO, ExactMatrix, Value, block_matrix, embed, matrix_inverse, split_blocks
from .errors import (BudgetExceeded, DimensionMismatch, MissingLetter, ResolventSingular,
                     SingularMatrixError)
from .ncpoly import Alphabet, Letter, NcPoly, check_word_length
from .ratexpr import _evaluate, _point_size, poly_to_expression
from .realization import LinRep, _add_combination


# ---------------------------------------------------------------------------
# The word walk
# ---------------------------------------------------------------------------


#: The most words ``_word_values`` yields: sum_{k<=d} n^k to length d over n dense letters.
WORD_WALK_CAP = 10_000


def _word_values(s: LinRep, choices):
    """(w, C A^w B) for the scalar words w with w[t] in choices[t] and
    |w| <= len(choices), depth first, shorter words before their
    extensions and letters in the order of each choice.

    The m rows of C A^w are kept as sparse {state: value} dicts, and every
    step, row @ A_l to extend a word and row @ B to read it, is one
    ``_add_combination``.  A word whose rows all vanish is pruned with its
    extensions, so every word left out has coefficient 0.  Its size shows
    only as it runs: past WORD_WALK_CAP words it raises BudgetExceeded.
    """
    m, last = s.m, len(choices)
    b_rows = s.b_rows
    stack = [((), [s.c_rows.get(r, {}) for r in range(m)])]
    walked = 0
    while stack:
        word, rows = stack.pop()
        if not any(rows):
            continue
        walked += 1
        if walked > WORD_WALK_CAP:
            raise BudgetExceeded(f"the word walk to length {last} over {len(set().union(*choices))}"
                                 f" scalar letters passes {WORD_WALK_CAP} words (series.WORD_WALK_CAP)")
        value = [ZERO] * (m * m)
        for r, row in enumerate(rows):
            for k, x in _add_combination({}, row, b_rows).items():
                value[r * m + k] = x
        yield word, ExactMatrix(m, m, value)
        if len(word) == last:
            continue
        for l in reversed(choices[len(word)]):
            arows = s.A[l].rows
            stack.append((word + (l,), [_add_combination({}, row, arows) for row in rows]))


# ---------------------------------------------------------------------------
# Coefficients as generalized polynomials
# ---------------------------------------------------------------------------


class GenPoly(Value):
    """A generalized polynomial as an m x m matrix of polynomials in the
    scalarized letters (one block of m^2 scalar letters per base letter)."""

    __slots__ = ("m", "letters", "entries")

    def __init__(self, m: int, letters: tuple, entries: tuple):
        self.m = m
        self.letters = letters  # the base letters, defining the scalar alphabet layout
        self.entries = entries  # m x m grid of NcPoly

    def is_zero(self) -> bool:
        return all(p.is_zero() for row in self.entries for p in row)

    def degree(self) -> int:
        degs = [
            p.degree_and_terms()[0]
            for row in self.entries
            for p in row
            if not p.is_zero()
        ]
        return max(degs) if degs else 0

    def eval(self, point: Sequence) -> ExactMatrix:
        """Evaluate at exact matrices of size m*s (one per base letter).

        Constants act as a (x) I_s; the scalar letter for block (i, j) of
        base letter k binds to that block of the k-th point matrix.
        """
        if len(point) != len(self.letters):
            raise DimensionMismatch("one point matrix per base letter required")
        _point_size(point)  # the one shape check, before the point is split
        m = self.m
        blocks = [b for mat in point for row in split_blocks(mat, m) for b in row]
        binding = {Letter(k, False): b for k, b in enumerate(blocks, 1)}
        values = _evaluate([poly_to_expression(p).node for row in self.entries for p in row], binding)
        return block_matrix([values[i * m : (i + 1) * m] for i in range(m)])

    def __str__(self):
        return "[" + "; ".join(", ".join(str(p) for p in row) for row in self.entries) + "]"


def scalar_alphabet(m: int, letters, alphabet=None) -> Alphabet:
    """Alphabet of the m^2 * len(letters) scalarized letters, named after
    the letters' names in ``alphabet`` (by default letter k is Xk)."""
    if alphabet is None:
        alphabet = Alphabet.x(max((l.index for l in letters), default=0))
    bases = [alphabet.letter_name(l) for l in letters]
    if m == 1:
        return Alphabet(bases)
    cells = [f"_{i}{j}" for i in range(1, m + 1) for j in range(1, m + 1)]
    return Alphabet([base + cell for base in bases for cell in cells])


def _grids(s: LinRep, choices, alphabet: Alphabet | None = None, keep=()) -> dict:
    """The walk ``_word_values(s, choices)`` grouped by base word w, as {w: [S, w]}
    (see ``coefficient``) in ``words_up_to`` order; a w of coefficient 0 is
    left out unless its slots in s.letters are in ``keep``."""
    m, mm = s.m, s.m * s.m
    scalar = [Letter(l + 1, False) for l in range(len(s.A))]
    grids = {w: [{} for _ in range(mm)] for w in keep}
    for v, value in _word_values(s, choices):
        if not value.is_zero():
            grid = grids.setdefault(tuple([l // mm for l in v]), [{} for _ in range(mm)])
            monomial = tuple([scalar[l] for l in v])
            for k, x in enumerate(value.entries):
                grid[k][monomial] = x
    galph = scalar_alphabet(m, s.letters, alphabet)
    return {tuple(s.letters[k] for k in w): GenPoly(m, s.letters, tuple(
                tuple(NcPoly(galph, grids[w][r * m + c]) for c in range(m)) for r in range(m)))
            for w in sorted(grids, key=lambda w: (len(w), w))}


def coefficient(s: LinRep, word, alphabet: Alphabet | None = None) -> GenPoly:
    """The exact coefficient [S, w] at a word of base letters: entry (r, c)
    is the sum of (C A^v B)[r, c] v over the scalar words v of the fiber
    of w, which take one of the m^2 scalar letters of each base letter.
    ``alphabet`` names the base letters in them (by default letter k is Xk)."""
    missing = [letter for letter in word if letter not in s.letters]
    if missing:
        raise MissingLetter(f"letter {missing[0]} not in the representation")
    mm = s.m * s.m
    slots = tuple(s.letters.index(letter) for letter in word)
    return _grids(s, [range(k * mm, (k + 1) * mm) for k in slots], alphabet, [slots])[tuple(word)]


def coefficients(s: LinRep, order: int, alphabet: Alphabet | None = None) -> dict:
    """{w: [S, w]} for the words w of base letters with |w| <= order and a
    nonzero coefficient, in ``words_up_to`` order, read in one walk.  A
    negative order raises SpecError, and a walk past WORD_WALK_CAP
    words BudgetExceeded."""
    check_word_length(order)
    return _grids(s, [range(len(s.A))] * order, alphabet)


def coefficient_table(s: LinRep, max_len: int):
    """{w: the coefficient of the monomial w in [S, w]} for m = 1, where [S, w]
    is a multiple of w, over the w with |w| <= max_len and [S, w] != 0."""
    if s.m != 1:
        raise DimensionMismatch("coefficient_table requires a scalar base point")
    return {w: x for w, gp in coefficients(s, max_len).items()
            for x in gp.entries[0][0].terms.values()}


def is_zero_by_enumeration(s: LinRep) -> bool:
    """Cross-check oracle: zero when every scalar word shorter than D, the
    number of states, has coefficient 0, read by ``coefficients`` (so past
    WORD_WALK_CAP words BudgetExceeded); a 0-state automaton is zero."""
    return not coefficients(s, max(s.states - 1, 0))


# ---------------------------------------------------------------------------
# Evaluation of a representation
# ---------------------------------------------------------------------------


def eval_rep(s: LinRep, point) -> ExactMatrix:
    """Evaluate the series at exact matrices of size m*s via the closed form

        (C (x) I_s) (I - sum A_(l,i,j) (x) Y_(l,i,j))^{-1} (B (x) I_s),

    where Y_(l,i,j) is block (i, j) of point_l - p_l (x) I_s."""
    if len(point) != len(s.letters):
        raise DimensionMismatch("one point matrix per letter required")
    if not all(isinstance(p, ExactMatrix) for p in point):
        raise DimensionMismatch("cannot evaluate a series at float matrices: exact matrices only")
    m = s.m
    size = _point_size(point)
    if size % m:
        raise DimensionMismatch(f"point size {size} is not a multiple of m={m}")
    sfac = size // m
    N = s.states * sfac
    entries = list(ExactMatrix.identity(N).entries)
    for slot in range(len(s.letters)):
        shift = point[slot] - embed(s.basepoint.mats[slot], sfac)
        blocks = split_blocks(shift, m)
        for i in range(m):
            for j in range(m):
                mat = s.A[slot * m * m + i * m + j]
                y = [(t, u, x) for t in range(sfac) for u, x in enumerate(blocks[i][j].row(t)) if x]
                if not mat.rows or not y:
                    continue
                for q, row in mat.rows.items():
                    for qq, a in row.items():
                        for t, u, x in y:
                            k = (q * sfac + t) * N + qq * sfac + u
                            entries[k] = entries[k] - a * x
    try:
        core_inv = matrix_inverse(ExactMatrix(N, N, entries))
    except SingularMatrixError:
        raise ResolventSingular(
            "structured system matrix singular at this point"
        ) from None
    return embed(s.C, sfac) * core_inv * embed(s.B, sfac)
