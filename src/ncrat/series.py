"""Readers of a series off its automaton: the word walk and evaluation.

A LinRep (see realization.py) stores a series as a weighted automaton
(C, {A_l}, B), and the coefficient of a scalar word w is C A^w B.  This
module reads those coefficients by one depth-first walk over words,
``_word_values``, which shares none of the arithmetic of the reachability
closure of realization.py and so checks it independently: ``coefficient``
gives the generalized-polynomial coefficient [S, w] at a word of base letters,
``coefficient_table`` every nonzero coefficient up to a length, and
``is_zero_by_enumeration`` the zero verdict by brute force.  ``eval_rep``
evaluates the series at exact matrices through the closed form of the
automaton.
"""

from __future__ import annotations

from typing import Sequence

from .core import ZERO, ExactMatrix, Value, block_matrix, embed, matrix_inverse, split_blocks
from .errors import DimensionMismatch, MissingLetter, ResolventSingular, SingularMatrixError
from .ncpoly import Alphabet, Letter, NcPoly
from .ratexpr import _evaluate, poly_to_expression
from .realization import LinRep, _add_combination


# ---------------------------------------------------------------------------
# The word walk
# ---------------------------------------------------------------------------


def _word_values(s: LinRep, choices):
    """(w, C A^w B) for the scalar words w with w[t] in choices[t] and
    |w| <= len(choices), depth first, shorter words before their
    extensions and letters in the order of each choice.

    The m rows of C A^w are kept as sparse {state: value} dicts, and every
    step, row @ A_l to extend a word and row @ B to read it, is one
    ``_add_combination``.  A word whose rows all vanish is pruned with its
    extensions, so every word left out has coefficient 0.
    """
    m, last = s.m, len(choices)
    b_rows = s.b_rows
    stack = [((), [s.c_rows.get(r, {}) for r in range(m)])]
    while stack:
        word, rows = stack.pop()
        if not any(rows):
            continue
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


def is_zero_by_enumeration(s: LinRep) -> bool:
    """Cross-check oracle: test all scalar words of length < D, the number
    of states, directly.

    Exponential in D; intended for D <= 4 desk checks.
    """
    every_letter = range(len(s.A))
    return all(v.is_zero() for _, v in _word_values(s, [every_letter] * (s.states - 1)))


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
        m = self.m
        blocks = [b for mat in point for row in split_blocks(mat, m) for b in row]
        binding = {Letter(k, False): b for k, b in enumerate(blocks, 1)}
        values = _evaluate([poly_to_expression(p).node for row in self.entries for p in row],
                           binding, "formal")
        return block_matrix([values[i * m : (i + 1) * m] for i in range(m)])

    def __str__(self):
        return "[" + "; ".join(", ".join(str(p) for p in row) for row in self.entries) + "]"


def scalar_alphabet(m: int, letters, alphabet=None) -> Alphabet:
    """Alphabet of the m^2 * len(letters) scalarized letters."""
    names = []
    for letter in letters:
        base = (
            alphabet.letter_name(letter)
            if alphabet is not None
            else (f"X{letter.index}" + ("^*" if letter.starred else ""))
        )
        if m == 1:
            names.append(base)
        else:
            for i in range(1, m + 1):
                for j in range(1, m + 1):
                    names.append(f"{base}_{i}{j}")
    return Alphabet(names)


def coefficient(s: LinRep, word, alphabet: Alphabet | None = None) -> GenPoly:
    """The exact coefficient [S, w] at a word of base letters: entry (r, c)
    is the sum of (C A^v B)[r, c] v over the scalar words v of the fiber
    of w, which take one of the m^2 scalar letters of each base letter.
    ``alphabet`` names the base letters in them (by default letter k is Xk)."""
    galph = scalar_alphabet(s.m, s.letters, alphabet)
    m, mm = s.m, s.m * s.m
    choices = []
    for letter in word:
        try:
            slot = s.letters.index(letter)
        except ValueError:
            raise MissingLetter(f"letter {letter} not in the representation") from None
        choices.append(range(slot * mm, (slot + 1) * mm))
    terms = [{} for _ in range(mm)]
    for v, value in _word_values(s, choices):
        if len(v) == len(choices):
            monomial = tuple(Letter(l + 1, False) for l in v)
            for k, x in enumerate(value.entries):
                if x:
                    terms[k][monomial] = x
    grid = tuple(tuple(NcPoly(galph, terms[r * m + c]) for c in range(m)) for r in range(m))
    return GenPoly(m, s.letters, grid)


def coefficient_table(s: LinRep, max_len: int):
    """All nonzero coefficients [S, w] with |w| <= max_len, for m = 1.

    Returns {word: Scalar}; the scalar is the coefficient of the monomial
    w itself (for m = 1 every coefficient is a multiple of its word).
    """
    if s.m != 1:
        raise DimensionMismatch("coefficient_table requires a scalar base point")
    every_letter = range(len(s.letters))
    return {
        tuple(s.letters[l] for l in w): v.entries[0]
        for w, v in _word_values(s, [every_letter] * max_len)
        if v.entries[0]
    }


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
    size = point[0].rows
    if size % m:
        raise DimensionMismatch(f"point size {size} is not a multiple of m={m}")
    sfac = size // m
    for mat in point:
        if not mat.is_square or mat.rows != size:
            raise DimensionMismatch("point matrices must be square of equal size")
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
