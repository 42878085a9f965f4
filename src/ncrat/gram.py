"""Gram feasibility problems of sum-of-Hermitian-squares certificates,
and their text export and import.

f - q = sum_i p_i^* p_i with deg p_i <= d holds exactly when
f - q = v^* G v for a Hermitian PSD matrix G on the vector v of words of
degree <= d, and the squares are read off G = sum_i vec(p_i) vec(p_i)^*.
``gram_constraints`` builds the linear constraints on G, one per word
u^* v of two basis words; ``export_gram`` writes them for an external
SDP solver and ``import_gram`` reads them back.  positivity.py verifies the certificates
that such a solver finds.
"""

from __future__ import annotations

import re as _re

from .core import ExactMatrix, Scalar, Value, ZERO
from .errors import MALFORMED, BudgetExceeded, DegreeTooHigh, SpecError
from .ncpoly import (
    LETTER_NAME,
    Alphabet,
    Letter,
    NcPoly,
    check_word_length,
    grlex_key,
    word_count,
    word_star,
    words_up_to,
)


class GramConstraint(Value):
    __slots__ = ("word", "pairs", "rhs")

    def __init__(self, word: tuple, pairs: tuple, rhs: Scalar):
        self.word = word  # the target word w (of degree <= 2d)
        self.pairs = pairs  # ((row_index, col_index), ...) with basis[row]^* basis[col] = w
        self.rhs = rhs


class GramProblem(Value):
    __slots__ = ("d", "alphabet", "basis", "constraints")

    def __init__(self, d: int, alphabet: Alphabet, basis: tuple, constraints: tuple):
        self.d = d
        self.alphabet = alphabet
        self.basis = basis  # all words of degree <= d over the 2g letters, graded-lex
        self.constraints = constraints

    @property
    def g(self) -> int:
        """The number of letters."""
        return self.alphabet.size

    def basis_index(self, word) -> int:
        return self.basis.index(tuple(word))

    def check(self, G: ExactMatrix) -> bool:
        """Does the Hermitian matrix G satisfy every linear constraint?"""
        N = len(self.basis)
        if G.rows != N or G.cols != N:
            return False
        for c in self.constraints:
            acc = ZERO
            for (iu, iv) in c.pairs:
                acc = acc + G[iu, iv]
            if acc != c.rhs:
                return False
        return True

    def gram_of_squares(self, squares) -> ExactMatrix:
        """G = sum_i conj(vec(p_i)) vec(p_i)^T on the word basis."""
        N = len(self.basis)
        index = {w: i for i, w in enumerate(self.basis)}
        entries = [ZERO] * (N * N)
        for p in squares:
            vec = [ZERO] * N
            for w, cf in p.terms.items():
                vec[index[w]] = cf
            for i in range(N):
                ci = vec[i].conjugate()
                if not ci:
                    continue
                for j in range(N):
                    if vec[j]:
                        entries[i * N + j] = entries[i * N + j] + ci * vec[j]
        return ExactMatrix(N, N, entries)


#: The most basis words a Gram problem may have.  gram_constraints visits
#: every pair of basis words, so time and memory grow with the square of
#: this count: 341 words (g = 2, d = 4) take about 1.6 s and 100 MB.
GRAM_BASIS_CAP = 400


def _check_basis_budget(g: int, d: int):
    if word_count(2 * g, d, GRAM_BASIS_CAP) > GRAM_BASIS_CAP:
        raise BudgetExceeded(
            f"a Gram problem with g = {g} and d = {d} has more than"
            f" {GRAM_BASIS_CAP} basis words (gram.GRAM_BASIS_CAP)"
        )


def word_basis(alphabet: Alphabet, d: int) -> tuple:
    """All words of degree <= d over the 2g starred/unstarred letters, in
    grlex order."""
    letters = [Letter(i, s) for i in range(1, alphabet.size + 1) for s in (False, True)]
    return tuple(words_up_to(letters, d))


def gram_constraints(f: NcPoly, d: int, q: NcPoly | None = None) -> GramProblem:
    """The linear system whose Hermitian PSD solutions are exactly the
    Gram matrices of decompositions f - q = sum p_i^* p_i with deg p_i <= d.

    A negative d raises SpecError, and a basis of more than GRAM_BASIS_CAP
    words BudgetExceeded before any word is enumerated."""
    check_word_length(d)
    if q is None:
        q = NcPoly.zero(f.alphabet)
    target = f - q
    if target and target.degree_and_terms()[0] > 2 * d:
        raise DegreeTooHigh(f"deg(f - q) exceeds 2*d = {2 * d}")
    _check_basis_budget(f.alphabet.size, d)
    basis = word_basis(f.alphabet, d)
    reachable = {}
    for iu, u in enumerate(basis):
        su = word_star(u)
        for iv, v in enumerate(basis):
            reachable.setdefault(su + v, []).append((iu, iv))
    constraints = []
    for w in sorted(reachable, key=grlex_key):
        constraints.append(
            GramConstraint(w, tuple(reachable[w]), target.coeff(w))
        )
    return GramProblem(d, f.alphabet, basis, tuple(constraints))


# ---------------------------------------------------------------------------
# Text export / import of Gram problems
# ---------------------------------------------------------------------------

#: One letter of a word in a Gram file, its adjoint written ^* or *.
_WORD_TOKEN = _re.compile(rf"{LETTER_NAME}(?:\^?\*)?")


def _word_from_text(alphabet: Alphabet, text: str):
    if text == "1":
        return ()
    names = _WORD_TOKEN.findall(text)
    if "".join(names) != text:
        raise SpecError(f"bad word token in {text!r}")
    word = tuple(map(alphabet.letter, names))
    if None in word:
        raise SpecError(f"unknown letter in {text!r}")
    return word


def export_gram(problem: GramProblem, path: str):
    """One line per constraint: target word, rhs, then the G-entries
    (row word, column word, coefficient) taking part in it."""
    with open(path, "w") as fh:
        fh.write(
            f"gram-problem d {problem.d} letters {problem.g} "
            f"basis {len(problem.basis)} constraints {len(problem.constraints)}\n"
        )
        fh.write("alphabet " + " ".join(problem.alphabet.names) + "\n")
        for c in problem.constraints:
            parts = [
                problem.alphabet.word_name(c.word, sep=""),
                str(c.rhs.re),
                str(c.rhs.im),
                str(len(c.pairs)),
            ]
            for iu, iv in c.pairs:
                parts.append(problem.alphabet.word_name(problem.basis[iu], sep=""))
                parts.append(problem.alphabet.word_name(problem.basis[iv], sep=""))
                parts.append("1")
                parts.append("0")
            fh.write(" ".join(parts) + "\n")


def import_gram(path: str) -> GramProblem:
    """Read a file written by export_gram; a malformed one raises SpecError,
    and one whose basis has more than GRAM_BASIS_CAP words BudgetExceeded,
    before the basis is enumerated."""
    with open(path) as fh:
        lines = [ln.rstrip("\n") for ln in fh if ln.strip()]
    try:
        head = lines[0].split()
        if head[0] != "gram-problem":
            raise SpecError("not a gram-problem file")
        d = int(head[head.index("d") + 1])
        g = int(head[head.index("letters") + 1])
        nbasis = int(head[head.index("basis") + 1])
        ncons = int(head[head.index("constraints") + 1])
        alph_line = lines[1].split()
        if alph_line[0] != "alphabet":
            raise SpecError("missing alphabet line")
        alphabet = Alphabet.named(alph_line[1:])
        if g != alphabet.size:
            raise SpecError(f"header gives {g} letters, the alphabet line {alphabet.size}")
        # compare the basis count with the header, then with the cap,
        # before enumerating the basis
        if word_count(2 * g, d, nbasis) != nbasis:
            raise SpecError("basis size mismatch")
        _check_basis_budget(g, d)
        basis = word_basis(alphabet, d)
        index = {w: i for i, w in enumerate(basis)}
        constraints = []
        for ln in lines[2:]:
            parts = ln.split()
            word = _word_from_text(alphabet, parts[0])
            rhs = Scalar(parts[1], parts[2])
            k = int(parts[3])
            pairs = []
            cursor = 4
            for _ in range(k):
                u = _word_from_text(alphabet, parts[cursor])
                v = _word_from_text(alphabet, parts[cursor + 1])
                pairs.append((index[u], index[v]))
                cursor += 4
            constraints.append(GramConstraint(word, tuple(pairs), rhs))
        if len(constraints) != ncons:
            raise SpecError("constraint count mismatch")
        return GramProblem(d, alphabet, basis, tuple(constraints))
    except MALFORMED as exc:
        raise SpecError(f"malformed gram-problem file: {exc}") from exc
