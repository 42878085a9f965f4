"""Linear representations of generalized series about matrix base points.

A series about a base point p in M_m(k)^g is presented by data (c, A, b)
with c in A^{1xn}, b in A^{nx1} and, for each letter Y, an n x n matrix
A^Y over the A-bimodule generated by Y (A = M_m(k)).  The coefficient at
a word w is [S, w] = c A^w b, and the series itself is

    S = c (I_n - sum_Y A^Y)^{-1} b.

Rational expressions compile to such representations by structural
recursion: sums and products add dimensions, an inverse adds one.  The
whole calculus is made effective by the matrix reduction isomorphism,
which identifies M_m(k)<Y> with m x m matrices over a free algebra in
m^2 g scalar letters; the scalarized representation is an ordinary
weighted automaton of dimension m*n, where zero testing is a reachability
closure and where minimization works by restricting to the reachable and
observable subspaces.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .core import (
    ExactMatrix,
    FractionFreeBasis,
    Scalar,
    ZERO,
    _coerce,
    block_matrix,
    embed,
    gaussian_matvec,
    gaussian_rows,
    gaussian_scalar,
    gaussian_vector,
    matrix_inverse,
    rank_factor,
    split_blocks,
)
from .errors import (
    BasepointMismatch,
    DimensionMismatch,
    DomainError,
    MissingLetter,
    ResolventSingular,
    SingularConstantTerm,
    SingularMatrixError,
)
from .ncpoly import Alphabet, Letter, NcPoly
from .ratexpr import Add, Const, Mul, Neg, RatExpr, Var


# ---------------------------------------------------------------------------
# Base points
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BasePoint:
    """A tuple of m x m exact matrices indexed by the letters they shift."""

    letters: tuple
    mats: tuple
    m: int

    @staticmethod
    def from_mapping(mapping: Mapping[Letter, ExactMatrix]) -> "BasePoint":
        if not mapping:
            raise ValueError("base point needs at least one letter")
        letters = tuple(sorted(mapping))
        mats = tuple(mapping[l] for l in letters)
        m = mats[0].rows
        for mat in mats:
            if not mat.is_square or mat.rows != m:
                raise DimensionMismatch("base point matrices must all be m x m")
        return BasePoint(letters, mats, m)

    @staticmethod
    def scalars(values, letters=None) -> "BasePoint":
        """1x1 base point from plain numbers, bound to X1..Xg by default."""
        values = list(values)
        if letters is None:
            letters = [Letter(i + 1, False) for i in range(len(values))]
        return BasePoint.from_mapping(
            {l: ExactMatrix(1, 1, [_coerce(v)]) for l, v in zip(letters, values)}
        )

    def slot(self, letter: Letter) -> int:
        try:
            return self.letters.index(letter)
        except ValueError:
            raise MissingLetter(f"base point does not bind {letter}") from None

    def __getitem__(self, letter: Letter) -> ExactMatrix:
        return self.mats[self.slot(letter)]


def _check_same_point(s1: "LinRep", s2: "LinRep"):
    if s1.basepoint != s2.basepoint:
        raise BasepointMismatch("realizations built about different base points")


# ---------------------------------------------------------------------------
# Bimodule elements
# ---------------------------------------------------------------------------


class BimoduleElem:
    """An element sum_t a_t * Y * b_t of the A-bimodule generated by letter Y."""

    __slots__ = ("m", "letter", "terms")

    def __init__(self, m: int, letter: Letter, terms):
        clean = tuple(
            (a, b) for a, b in terms if not a.is_zero() and not b.is_zero()
        )
        if len(clean) > m * m:
            clean = _compress_terms(m, clean)
        self.m = m
        self.letter = letter
        self.terms = clean

    @staticmethod
    def generator(m: int, letter: Letter) -> "BimoduleElem":
        one = ExactMatrix.identity(m)
        return BimoduleElem(m, letter, [(one, one)])

    def is_zero(self) -> bool:
        if not self.terms:
            return True
        return self.tensor().is_zero()

    def tensor(self) -> ExactMatrix:
        """The element as sum_t vec(a_t) vec(b_t)^T; determines it uniquely."""
        mm = self.m * self.m
        acc = ExactMatrix.zeros(mm, mm)
        for a, b in self.terms:
            va = ExactMatrix(mm, 1, a.entries)
            vb = ExactMatrix(1, mm, b.entries)
            acc = acc + va * vb
        return acc

    def lmul(self, x: ExactMatrix) -> "BimoduleElem":
        return BimoduleElem(self.m, self.letter, [(x * a, b) for a, b in self.terms])

    def rmul(self, x: ExactMatrix) -> "BimoduleElem":
        return BimoduleElem(self.m, self.letter, [(a, b * x) for a, b in self.terms])

    def __add__(self, other: "BimoduleElem") -> "BimoduleElem":
        if other is None:
            return self
        if self.letter != other.letter or self.m != other.m:
            raise DimensionMismatch("cannot add bimodule elements of different letters")
        return BimoduleElem(self.m, self.letter, self.terms + other.terms)

    def __neg__(self):
        return BimoduleElem(self.m, self.letter, [(-a, b) for a, b in self.terms])

    def __eq__(self, other):
        if not isinstance(other, BimoduleElem):
            return NotImplemented
        return (
            self.m == other.m
            and self.letter == other.letter
            and (self.tensor() == other.tensor())
        )

    def substitute(self, value: ExactMatrix, s: int) -> ExactMatrix:
        """Evaluate with Y = value (size m*s), embedding a -> a (x) I_s."""
        acc = ExactMatrix.zeros(self.m * s, self.m * s)
        for a, b in self.terms:
            acc = acc + embed(a, s) * value * embed(b, s)
        return acc

    def __repr__(self):
        return f"BimoduleElem(letter={self.letter}, {len(self.terms)} terms)"


def _compress_terms(m: int, terms):
    # rank-factor the m^2 x m^2 tensor; caps the term list at m^2 entries
    mm = m * m
    acc = ExactMatrix.zeros(mm, mm)
    for a, b in terms:
        va = ExactMatrix(mm, 1, a.entries)
        vb = ExactMatrix(1, mm, b.entries)
        acc = acc + va * vb
    C, R = rank_factor(acc)
    out = []
    for s in range(C.cols):
        a = ExactMatrix(m, m, C.col(s))
        b = ExactMatrix(m, m, R.row(s))
        out.append((a, b))
    return tuple(out)


# ---------------------------------------------------------------------------
# Linear representations
# ---------------------------------------------------------------------------


class LinRep:
    """A linear representation (c, A, b) about a base point.

    ``A`` maps each letter to a sparse {(row, col): BimoduleElem} grid;
    letters absent from the dict act as zero.  Instances are immutable.
    """

    __slots__ = ("basepoint", "dim", "c", "A", "b", "alphabet")

    def __init__(self, basepoint: BasePoint, dim, c, A, b, alphabet=None):
        self.basepoint = basepoint
        self.dim = dim
        self.c = tuple(c)
        self.A = {l: dict(grid) for l, grid in A.items()}
        self.b = tuple(b)
        self.alphabet = alphabet
        m = basepoint.m
        if len(self.c) != dim or len(self.b) != dim:
            raise DimensionMismatch("c/b length must equal the dimension")
        for mat in self.c + self.b:
            if mat.rows != m or mat.cols != m:
                raise DimensionMismatch("c/b entries must be m x m")

    @property
    def m(self) -> int:
        return self.basepoint.m

    @property
    def letters(self) -> tuple:
        return self.basepoint.letters

    # convenience wrappers
    def scalarize(self) -> "ScalarRep":
        return scalarize(self)

    def is_zero(self) -> bool:
        return is_zero(self)

    def coefficient(self, word) -> "GenPoly":
        return coefficient(self, word)

    def eval(self, point) -> ExactMatrix:
        return eval_rep(self, point)

    def __repr__(self):
        return f"LinRep(m={self.m}, dim={self.dim}, letters={len(self.letters)})"


def rep_const(a: ExactMatrix, basepoint: BasePoint) -> LinRep:
    """Dimension-1 representation of the constant series a."""
    m = basepoint.m
    if a.rows != m or a.cols != m:
        raise DimensionMismatch("constant must be m x m")
    return LinRep(basepoint, 1, (a,), {}, (ExactMatrix.identity(m),))


def rep_var(letter: Letter, basepoint: BasePoint) -> LinRep:
    """Dimension-2 representation of the series  Y + p  for one letter."""
    m = basepoint.m
    shift = basepoint[letter]
    one = ExactMatrix.identity(m)
    zero = ExactMatrix.zeros(m, m)
    A = {letter: {(0, 1): BimoduleElem.generator(m, letter)}}
    return LinRep(basepoint, 2, (one, shift), A, (zero, one))


def rep_add(s1: LinRep, a, s2: LinRep) -> LinRep:
    """Representation of S1 + a*S2 of dimension n1 + n2."""
    _check_same_point(s1, s2)
    m = s1.m
    if isinstance(a, (int, Scalar)):
        a = ExactMatrix.scalar(m, a)
    c = s1.c + tuple(a * x for x in s2.c)
    b = s1.b + s2.b
    A = {}
    for l, grid in s1.A.items():
        A[l] = dict(grid)
    n1 = s1.dim
    for l, grid in s2.A.items():
        dst = A.setdefault(l, {})
        for (p, q), elem in grid.items():
            dst[(p + n1, q + n1)] = elem
    return LinRep(s1.basepoint, s1.dim + s2.dim, c, A, b, s1.alphabet or s2.alphabet)


def rep_mul(s1: LinRep, s2: LinRep) -> LinRep:
    """Representation of the product S1*S2 of dimension n1 + n2."""
    _check_same_point(s1, s2)
    n1, n2 = s1.dim, s2.dim
    cb = _dot(s1.c, s1.b)  # c1 b1 in A
    c = s1.c + tuple(cb * x for x in s2.c)
    b = tuple(ExactMatrix.zeros(s1.m, s1.m) for _ in range(n1)) + s2.b
    A = {}
    for l, grid in s1.A.items():
        dst = A.setdefault(l, {})
        # top-left block A1, top-right block A1 b1 c2
        for (p, q), elem in grid.items():
            dst[(p, q)] = elem
            for qq in range(n2):
                x = s1.b[q] * s2.c[qq]
                if x.is_zero():
                    continue
                extra = elem.rmul(x)
                if extra.terms:
                    prev = dst.get((p, n1 + qq))
                    dst[(p, n1 + qq)] = extra if prev is None else prev + extra
    for l, grid in s2.A.items():
        dst = A.setdefault(l, {})
        for (p, q), elem in grid.items():
            dst[(p + n1, q + n1)] = elem
    return LinRep(s1.basepoint, n1 + n2, c, A, b, s1.alphabet or s2.alphabet)


def rep_inv(s: LinRep) -> LinRep:
    """Representation of S^{-1} of dimension n + 1.

    Requires the constant term a = [S, 1] to be invertible in M_m(k);
    raises SingularConstantTerm otherwise (base point outside the domain
    at this nesting level).
    """
    m, n = s.m, s.dim
    a = _dot(s.c, s.b)
    try:
        a_inv = matrix_inverse(a)
    except SingularMatrixError:
        raise SingularConstantTerm(
            "constant term of the series is singular"
        ) from None
    c = tuple(-(a_inv * x) for x in s.c) + (a_inv,)
    zero = ExactMatrix.zeros(m, m)
    b = tuple(zero for _ in range(n)) + (ExactMatrix.identity(m),)
    # A' = [[A (I - b a^-1 c), A b a^-1], [0, 0]]
    A = {}
    for l, grid in s.A.items():
        dst = {}
        for (p, t), elem in grid.items():
            # column q of the first block: A[p,t] (delta_tq - b_t a^-1 c_q)
            prev = dst.get((p, t))
            dst[(p, t)] = elem if prev is None else prev + elem
            for q in range(n):
                x = s.b[t] * a_inv * s.c[q]
                if not x.is_zero():
                    extra = elem.rmul(-x)
                    if extra.terms:
                        prev = dst.get((p, q))
                        dst[(p, q)] = extra if prev is None else prev + extra
            x = s.b[t] * a_inv
            if not x.is_zero():
                extra = elem.rmul(x)
                if extra.terms:
                    prev = dst.get((p, n))
                    dst[(p, n)] = extra if prev is None else prev + extra
        A[l] = dst
    return LinRep(s.basepoint, n + 1, c, A, b, s.alphabet)


def _dot(row, col) -> ExactMatrix:
    acc = None
    for x, y in zip(row, col):
        prod = x * y
        acc = prod if acc is None else acc + prod
    return acc


# ---------------------------------------------------------------------------
# Compilation of rational expressions
# ---------------------------------------------------------------------------


def compile_expression(e: RatExpr, basepoint) -> LinRep:
    """Compile a rational expression into a representation of e(p + y).

    ``basepoint`` is a BasePoint or a {Letter: ExactMatrix} mapping that
    must bind every letter used by the expression.  A singular constant
    term at some inverse raises DomainError with the path to that node.
    """
    if isinstance(basepoint, Mapping):
        basepoint = BasePoint.from_mapping(basepoint)
    missing = [l for l in e.letters_used() if l not in basepoint.letters]
    if missing:
        raise MissingLetter(f"base point does not bind {sorted(missing)}")
    m = basepoint.m
    minus_one = ExactMatrix.scalar(m, -1)
    one = ExactMatrix.identity(m)

    def walk(node, path):
        if isinstance(node, Const):
            return rep_const(ExactMatrix.scalar(m, node.value), basepoint)
        if isinstance(node, Var):
            return rep_var(node.letter, basepoint)
        if isinstance(node, Add):
            acc = walk(node.children[0], path + (0,))
            for i, child in enumerate(node.children[1:], start=1):
                acc = rep_add(acc, one, walk(child, path + (i,)))
            return acc
        if isinstance(node, Neg):
            zero = rep_const(ExactMatrix.zeros(m, m), basepoint)
            return rep_add(zero, minus_one, walk(node.child, path + (0,)))
        if isinstance(node, Mul):
            acc = walk(node.children[0], path + (0,))
            for i, child in enumerate(node.children[1:], start=1):
                acc = rep_mul(acc, walk(child, path + (i,)))
            return acc
        # Inv
        sub = walk(node.child, path + (0,))
        try:
            return rep_inv(sub)
        except SingularConstantTerm:
            raise DomainError("base point outside dom r", path) from None

    rep = walk(e.node, ())
    return LinRep(basepoint, rep.dim, rep.c, rep.A, rep.b, e.alphabet)


def compile_poly(f: NcPoly, letter_reps: Mapping, basepoint) -> LinRep:
    """Fold a polynomial over given letter representations.

    Every letter of f must be mapped to a LinRep about ``basepoint``
    (typically rep_var for free letters and a resolvent representation for
    eliminated ones).  The result represents f with each letter replaced by
    the series it is bound to.
    """
    if isinstance(basepoint, Mapping):
        basepoint = BasePoint.from_mapping(basepoint)
    m = basepoint.m
    acc = None
    one = ExactMatrix.identity(m)
    for w in f.support():
        coeff = f.terms[w]
        word_rep = rep_const(one, basepoint)
        for letter in w:
            try:
                word_rep = rep_mul(word_rep, letter_reps[letter])
            except KeyError:
                raise MissingLetter(f"no representation bound for {letter}") from None
        if acc is None:
            acc = rep_add(
                rep_const(ExactMatrix.zeros(m, m), basepoint),
                ExactMatrix.scalar(m, coeff),
                word_rep,
            )
        else:
            acc = rep_add(acc, ExactMatrix.scalar(m, coeff), word_rep)
    if acc is None:
        acc = rep_const(ExactMatrix.zeros(m, m), basepoint)
    return acc


# ---------------------------------------------------------------------------
# Scalarization (matrix reduction functor)
# ---------------------------------------------------------------------------


class SparseMatrix:
    """Minimal sparse square matrix over Scalar: {row: {col: value}}."""

    __slots__ = ("n", "rows")

    def __init__(self, n: int):
        self.n = n
        self.rows = {}

    def add_entry(self, i: int, j: int, value: Scalar):
        if not value:
            return
        row = self.rows.setdefault(i, {})
        s = row.get(j, ZERO) + value
        if s:
            row[j] = s
        else:
            del row[j]
            if not row:
                del self.rows[i]

    def vecmat(self, u):
        out = [ZERO] * self.n
        for i, row in self.rows.items():
            x = u[i]
            if not x:
                continue
            for j, val in row.items():
                out[j] = out[j] + x * val
        return out

    def nnz(self) -> int:
        return sum(len(r) for r in self.rows.values())

    def to_exact(self) -> ExactMatrix:
        e = [ZERO] * (self.n * self.n)
        for i, row in self.rows.items():
            for j, val in row.items():
                e[i * self.n + j] = val
        return ExactMatrix(self.n, self.n, e)


@dataclass
class ScalarRep:
    """Image of a LinRep under entrywise matrix reduction.

    A weighted automaton of dimension ``dim`` (= m*n for a fresh
    scalarization) over m^2 * len(letters) scalar letters, with m x m
    output: the coefficient of a scalar word w is C A^w B.
    """

    m: int
    letters: tuple
    dim: int
    C: ExactMatrix  # m x dim
    A: tuple  # SparseMatrix per scalar letter
    B: ExactMatrix  # dim x m
    alphabet: object = None

    def word_value(self, word) -> ExactMatrix:
        """C A^w B for a word of scalar letter indices."""
        rows = [list(self.C.row(r)) for r in range(self.m)]
        for l in word:
            rows = [self.A[l].vecmat(r) for r in rows]
        out = []
        for r in rows:
            for jc in range(self.m):
                acc = ZERO
                for q in range(self.dim):
                    x = r[q]
                    if x:
                        acc = acc + x * self.B[q, jc]
                out.append(acc)
        return ExactMatrix(self.m, self.m, out)


def scalarize(s: LinRep) -> ScalarRep:
    """Apply the matrix reduction isomorphism entry-by-entry."""
    m, n = s.m, s.dim
    D = m * n
    mm = m * m
    C_entries = [ZERO] * (m * D)
    for q in range(n):
        blk = s.c[q]
        for r in range(m):
            for cc in range(m):
                C_entries[r * D + q * m + cc] = blk[r, cc]
    C = ExactMatrix(m, D, C_entries)
    B_entries = [ZERO] * (D * m)
    for q in range(n):
        blk = s.b[q]
        for r in range(m):
            for cc in range(m):
                B_entries[(q * m + r) * m + cc] = blk[r, cc]
    B = ExactMatrix(D, m, B_entries)
    mats = [SparseMatrix(D) for _ in range(mm * len(s.letters))]
    for slot, letter in enumerate(s.letters):
        grid = s.A.get(letter)
        if not grid:
            continue
        for (p, q), elem in grid.items():
            for a, b in elem.terms:
                for i in range(m):
                    for j in range(m):
                        target = mats[slot * mm + i * m + j]
                        # block (p, q) contribution: a[:, i] (x) b[j, :]
                        for r in range(m):
                            ar = a[r, i]
                            if not ar:
                                continue
                            for cc in range(m):
                                bv = b[j, cc]
                                if bv:
                                    target.add_entry(p * m + r, q * m + cc, ar * bv)
    return ScalarRep(m, s.letters, D, C, tuple(mats), B, s.alphabet)


# ---------------------------------------------------------------------------
# Zero testing
# ---------------------------------------------------------------------------


def is_zero(s: LinRep) -> bool:
    """Exact zero test via reachability closure of the scalarized automaton.

    The closure of the column span of B under all scalar-letter matrices
    stabilizes within m*n steps; the series is zero iff C annihilates it.
    """
    return scalar_rep_is_zero(scalarize(s))


def scalar_rep_is_zero(sr: ScalarRep) -> bool:
    """Exact zero test of a scalarized representation: whether C
    annihilates the fraction-free reachability closure of B."""
    _, c_rows = gaussian_rows(_sparse_rows(sr.C))
    m = sr.C.rows

    def observed(row):
        re, im = gaussian_matvec(c_rows, row, m)
        return any(re) or (im is not None and any(im))

    return _closure(sr, stop=observed) is not None


def is_zero_by_enumeration(s: LinRep | ScalarRep) -> bool:
    """Cross-check oracle: test all scalar words of length < dim directly
    (dim = m*n for a scalarized LinRep).

    Exponential in the dimension; intended for dim <= 4 desk checks.
    """
    sr = s if isinstance(s, ScalarRep) else scalarize(s)
    bound = sr.dim

    def dfs(rows, depth):
        for r in rows:
            for jc in range(sr.C.rows):
                acc = ZERO
                for q in range(sr.dim):
                    x = r[q]
                    if x:
                        acc = acc + x * sr.B[q, jc]
                if acc:
                    return False
        if depth + 1 >= bound:
            return True
        for mat in sr.A:
            nxt = [mat.vecmat(r) for r in rows]
            if all(not any(x for x in r) for r in nxt):
                continue
            if not dfs(nxt, depth + 1):
                return False
        return True

    rows = [list(sr.C.row(r)) for r in range(sr.C.rows)]
    return dfs(rows, 0)


# ---------------------------------------------------------------------------
# Coefficients as generalized polynomials
# ---------------------------------------------------------------------------


@dataclass
class GenPoly:
    """A generalized polynomial as an m x m matrix of polynomials in the
    scalarized letters (one block of m^2 scalar letters per base letter)."""

    m: int
    letters: tuple  # the base letters, defining the scalar alphabet layout
    entries: tuple  # m x m grid of NcPoly

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

    def __eq__(self, other):
        if not isinstance(other, GenPoly):
            return NotImplemented
        return (
            self.m == other.m
            and self.letters == other.letters
            and self.entries == other.entries
        )

    def eval(self, point: Sequence) -> "ExactMatrix":
        """Evaluate at matrices of size m*s (one per base letter).

        Constants act as a (x) I_s; the scalar letter for block (i, j) of
        base letter k binds to that block of the k-th point matrix.
        """
        if len(point) != len(self.letters):
            raise DimensionMismatch("one point matrix per base letter required")
        exact = isinstance(point[0], ExactMatrix)
        size = point[0].rows if exact else point[0].shape[0]
        if size % self.m:
            raise DimensionMismatch("point size must be a multiple of m")
        s = size // self.m
        binding = {}
        for slot in range(len(self.letters)):
            blocks = split_blocks(point[slot], self.m)
            for i in range(self.m):
                for j in range(self.m):
                    idx = slot * self.m * self.m + i * self.m + j
                    binding[Letter(idx + 1, False)] = blocks[i][j]
        grid = [
            [p.eval(binding, star_rule="formal") for p in row] for row in self.entries
        ]
        if exact:
            return block_matrix(grid)
        return np.block(grid)

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


def coefficient(s: LinRep, word) -> GenPoly:
    """The exact coefficient [S, w] at a word of base letters."""
    sr = scalarize(s)
    galph = scalar_alphabet(s.m, s.letters, s.alphabet)
    m, D = s.m, sr.dim
    mm = m * m
    slots = []
    for letter in word:
        try:
            slots.append(s.letters.index(letter))
        except ValueError:
            raise MissingLetter(f"letter {letter} not in the representation") from None

    # rows of C as polynomial row vectors, then multiply through the word
    rows = [
        [NcPoly.constant(galph, sr.C[r, q]) for q in range(D)] for r in range(m)
    ]
    for slot in slots:
        new_rows = [[NcPoly.zero(galph) for _ in range(D)] for _ in range(m)]
        for loc in range(mm):
            mat = sr.A[slot * mm + loc]
            if not mat.rows:
                continue
            letter_poly = NcPoly.var(galph, slot * mm + loc + 1)
            for r in range(m):
                row = rows[r]
                for q, arow in mat.rows.items():
                    p = row[q]
                    if p.is_zero():
                        continue
                    moved = p * letter_poly
                    for qq, val in arow.items():
                        new_rows[r][qq] = new_rows[r][qq] + moved.scale(val)
        rows = new_rows
    grid = []
    for r in range(m):
        grid_row = []
        for jc in range(m):
            acc = NcPoly.zero(galph)
            for q in range(D):
                p = rows[r][q]
                if not p.is_zero():
                    acc = acc + p.scale(sr.B[q, jc])
            grid_row.append(acc)
        grid.append(tuple(grid_row))
    return GenPoly(m, s.letters, tuple(grid))


def coefficient_table(s: LinRep, max_len: int):
    """All nonzero coefficients [S, w] with |w| <= max_len, for m = 1.

    Returns {word: Scalar}; the scalar is the coefficient of the monomial
    w itself (for m = 1 every coefficient is a multiple of its word).
    Uses depth-first row propagation with zero pruning.
    """
    if s.m != 1:
        raise DimensionMismatch("coefficient_table requires a scalar base point")
    sr = scalarize(s)
    L = len(s.letters)
    out = {}

    def value_of(row):
        acc = ZERO
        for q in range(sr.dim):
            x = row[q]
            if x:
                acc = acc + x * sr.B[q, 0]
        return acc

    def dfs(row, word):
        v = value_of(row)
        if v:
            out[word] = v
        if len(word) == max_len:
            return
        for slot in range(L):
            mat = sr.A[slot]
            if not mat.rows:
                continue
            nxt = mat.vecmat(row)
            if any(x for x in nxt):
                dfs(nxt, word + (s.letters[slot],))

    dfs(list(sr.C.row(0)), ())
    return out


# ---------------------------------------------------------------------------
# Evaluation of a representation
# ---------------------------------------------------------------------------


def eval_rep(s: LinRep, point) -> ExactMatrix:
    """Evaluate the series at exact matrices of size m*s via the closed form
    c (I - sum_Y A^Y)^{-1} b with Y substituted by point - basepoint."""
    if isinstance(point, Mapping):
        point = tuple(point[l] for l in s.letters)
    if len(point) != len(s.letters):
        raise DimensionMismatch("one point matrix per letter required")
    m, n = s.m, s.dim
    size = point[0].rows
    if size % m:
        raise DimensionMismatch(f"point size {size} is not a multiple of m={m}")
    sfac = size // m
    for mat in point:
        if not mat.is_square or mat.rows != size:
            raise DimensionMismatch("point matrices must be square of equal size")
    shifts = [point[k] - embed(s.basepoint.mats[k], sfac) for k in range(len(s.letters))]
    big = ExactMatrix.identity(n * size)
    blocks = {}
    for slot, letter in enumerate(s.letters):
        grid = s.A.get(letter)
        if not grid:
            continue
        for (p, q), elem in grid.items():
            val = elem.substitute(shifts[slot], sfac)
            key = (p, q)
            blocks[key] = val if key not in blocks else blocks[key] + val
    sub = ExactMatrix.zeros(n * size, n * size)
    entries = list(sub.entries)
    for (p, q), val in blocks.items():
        for i in range(size):
            base = (p * size + i) * (n * size) + q * size
            vrow = i * size
            for j in range(size):
                entries[base + j] = val.entries[vrow + j]
    sub = ExactMatrix(n * size, n * size, entries)
    try:
        core_inv = matrix_inverse(big - sub)
    except SingularMatrixError:
        raise ResolventSingular(
            "structured system matrix singular at this point"
        ) from None
    Cbig = block_matrix([[embed(x, sfac) for x in s.c]])
    Bbig = block_matrix([[embed(x, sfac)] for x in s.b])
    return Cbig * core_inv * Bbig


# ---------------------------------------------------------------------------
# Minimization at the scalar level
# ---------------------------------------------------------------------------


def _sparse_rows(a: ExactMatrix) -> dict:
    """The nonzero entries of a as ``{row: {col: Scalar}}``."""
    out = {}
    for i in range(a.rows):
        row = {j: x for j, x in enumerate(a.row(i)) if x}
        if row:
            out[i] = row
    return out


def _transposed(rows: dict) -> dict:
    out = {}
    for i, row in rows.items():
        for j, x in row.items():
            out.setdefault(j, {})[i] = x
    return out


def _closure(sr: ScalarRep, transpose=False, stop=None, coords=False):
    """Span of the columns of B under the letter matrices of sr or, with
    ``transpose``, of the rows of C under the transposed letter matrices,
    on FractionFreeBasis.

    Each new basis row is first passed to ``stop``; the closure returns
    None as soon as that is true.  Otherwise it returns (basis, found).
    With ``coords``, found[(None, j)] and found[(l, k)] map basis indices to
    the Scalar coordinates of start vector j and of letter l applied to
    basis row k; without, found is empty.  The queue holds (letter, basis
    index) pairs, and a letter matrix is converted to Gaussian-integer rows
    when first popped, so a closure that stops at a start vector converts
    none.
    """
    if transpose:
        starts = [gaussian_vector(sr.C.row(r)) for r in range(sr.C.rows)]
    else:
        starts = [gaussian_vector(sr.B.col(j)) for j in range(sr.B.cols)]
    letters = [l for l, mat in enumerate(sr.A) if mat.rows]
    basis = FractionFreeBasis(sr.dim)
    found, converted = {}, {}
    queue = deque((None, j) for j in range(len(starts)))
    while queue:
        l, k = queue.popleft()
        if l is None:
            d, v = starts[k]
        else:
            if l not in converted:
                rows = sr.A[l].rows
                converted[l] = gaussian_rows(_transposed(rows) if transpose else rows)
            d, rows = converted[l]
            v = gaussian_matvec(rows, basis.vectors[k], sr.dim)
        steps = [] if coords else None
        new = basis.add(v, steps)
        if new is not None:
            if stop is not None and stop(basis.vectors[new]):
                return None
            queue.extend((letter, new) for letter in letters)
        if coords:
            found[(l, k)] = {j: gaussian_scalar(re, im, den * d) for j, re, im, den in steps}
    return basis, found


def _empty_rep(sr: ScalarRep) -> ScalarRep:
    return ScalarRep(
        sr.m,
        sr.letters,
        0,
        ExactMatrix(sr.C.rows, 0, []),
        tuple(SparseMatrix(0) for _ in sr.A),
        ExactMatrix(0, sr.B.cols, []),
        sr.alphabet,
    )


def _letter_matrices(sr: ScalarRep, n: int, found, transpose):
    """One SparseMatrix of size n per letter from closure coordinates:
    entry (j, k) is coordinate j of letter l at basis row k, or entry
    (k, j) with ``transpose``."""
    mats = [SparseMatrix(n) for _ in sr.A]
    for (l, k), coords in found.items():
        if l is None:
            continue
        for j, x in coords.items():
            if transpose:
                mats[l].add_entry(k, j, x)
            else:
                mats[l].add_entry(j, k, x)
    return tuple(mats)


def _times_vectors(a: ExactMatrix, vectors):
    """The Scalar entries of a @ v for each Gaussian-integer vector v."""
    d, rows = gaussian_rows(_sparse_rows(a))
    out = []
    for v in vectors:
        re, im = gaussian_matvec(rows, v, a.rows)
        out.append([gaussian_scalar(x, 0 if im is None else im[i], d) for i, x in enumerate(re)])
    return out


def minimize_scalar(s: LinRep | ScalarRep):
    """Restrict to the reachable then observable subspace.

    Returns (reduced ScalarRep, n_min).  Coefficients are unchanged; the
    result is a minimal scalar-level representation of the series.  Both
    passes run on the fraction-free closure, whose reductions already give
    the coordinates of every A_l v in the basis.  When C annihilates the
    reachable subspace, which is the zero verdict, the empty
    representation is returned at once.
    """
    sr = s if isinstance(s, ScalarRep) else scalarize(s)
    m, cols = sr.C.rows, sr.B.cols

    # reachable pass, basis V: V B1 = B, V A1_l = A_l V, C1 = C V
    reach, found = _closure(sr, coords=True)
    r = len(reach)
    cv = _times_vectors(sr.C, reach.vectors)
    if not any(x for col in cv for x in col):
        return _empty_rep(sr), 0
    C1 = ExactMatrix(m, r, [cv[k][i] for i in range(m) for k in range(r)])
    B1 = ExactMatrix(r, cols, [found[(None, j)].get(k, ZERO) for k in range(r) for j in range(cols)])
    mid = ScalarRep(sr.m, sr.letters, r, C1, _letter_matrices(sr, r, found, False), B1, sr.alphabet)

    # observable pass, basis W (rows): C2 W = C1, A2_l W = W A1_l, B2 = W B1
    obs, found = _closure(mid, transpose=True, coords=True)
    t = len(obs)
    C2 = ExactMatrix(m, t, [found[(None, i)].get(j, ZERO) for i in range(m) for j in range(t)])
    B2 = ExactMatrix(t, cols, [x for row in _times_vectors(B1.transpose(), obs.vectors) for x in row])
    out = ScalarRep(sr.m, sr.letters, t, C2, _letter_matrices(mid, t, found, True), B2, sr.alphabet)
    return out, t
