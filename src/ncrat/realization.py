"""Linear representations of generalized series about matrix base points.

A series about a base point p in M_m(k)^g is a noncommutative series in
the shifts Y = X - p with coefficients in A = M_m(k).  The matrix
reduction isomorphism M_m(k)<Y> = M_m(k<y>) identifies it with an m x m
matrix of series in m^2 g scalar letters y_(l,i,j), one per base letter
l and matrix position (i, j); Y_l is the m x m matrix of its letters.
Such a matrix of series is stored as an ordinary weighted automaton
(ScalarRep): C of size m x D, one sparse D x D matrix A per scalar letter
and B of size D x m, so that the coefficient of a scalar word w is
C A^w B.  D is a multiple m*n of m, and n is the dimension of the
representation.

Rational expressions compile to automata by structural recursion, with
the standard constructions: a sum is block diagonal, a product
S1*S2 is C = [C1, (C1 B1) C2], A = [[A1, (A1 B1) C2], [0, A2]],
B = [0; B2], and an inverse, with a = CB invertible in M_m, is
C' = [-a^-1 C, a^-1], A' = [[A - (A B) a^-1 C, (A B) a^-1], [0, 0]],
B' = [0; I].  Each block of m states is one state of the block form
(c, A, b) with c in A^{1 x n}, b in A^{n x 1}, in which the series is
c (I_n - sum_l A^{Y_l})^{-1} b: block q, entry (r, c) of it is state
q*m + r, and letter (l, i, j) has index slot(l)*m^2 + i*m + j.

The automaton is the only form a LinRep stores, and ``scalarize`` returns
it.  Zero testing is a reachability closure on it, and minimization
restricts it to the reachable and observable subspaces.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, replace
from typing import Mapping, Sequence

from .core import (
    ONE,
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
    SpecError,
)
from .ncpoly import Alphabet, Letter, NcPoly
from .ratexpr import Add, Const, Inv, Mul, Neg, RatExpr, Var


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
            raise SpecError("base point needs at least one letter")
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
# Scalar automata
# ---------------------------------------------------------------------------


class SparseMatrix:
    """Minimal sparse square matrix over Scalar: {row: {col: value}}.

    The letter matrices of a LinRep share row dicts with the operands they
    were built from, and its empty letter matrices are one object, so they
    must not be changed after construction.
    """

    __slots__ = ("n", "rows")

    def __init__(self, n: int, rows=None):
        self.n = n
        self.rows = {} if rows is None else rows

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


@dataclass
class ScalarRep:
    """A weighted automaton of dimension ``dim`` over m^2 * len(letters)
    scalar letters, with m x m output: the coefficient of a scalar word w
    is C A^w B.
    """

    m: int
    letters: tuple
    dim: int
    C: ExactMatrix  # m x dim
    A: tuple  # SparseMatrix per scalar letter
    B: ExactMatrix  # dim x m
    alphabet: object = None

    def read_out(self, row) -> list:
        """The entries of the dense row vector row @ B."""
        out = []
        for jc in range(self.B.cols):
            acc = ZERO
            for q, x in enumerate(row):
                if x:
                    acc = acc + x * self.B[q, jc]
            out.append(acc)
        return out

    def word_value(self, word) -> ExactMatrix:
        """C A^w B for a word of scalar letter indices."""
        rows = [list(self.C.row(r)) for r in range(self.m)]
        for l in word:
            rows = [self.A[l].vecmat(r) for r in rows]
        return ExactMatrix(self.m, self.m, [x for r in rows for x in self.read_out(r)])


def _hstack(parts) -> ExactMatrix:
    entries = []
    for r in range(parts[0].rows):
        for p in parts:
            entries.extend(p.row(r))
    return ExactMatrix(parts[0].rows, sum(p.cols for p in parts), entries)


def _vstack(parts) -> ExactMatrix:
    return ExactMatrix(
        sum(p.rows for p in parts), parts[0].cols, [x for p in parts for x in p.entries]
    )


def _nonzero_rows(a: ExactMatrix, offset: int = 0):
    """Row i of a as a list of (offset + col, value) over its nonzero entries."""
    return [
        [(offset + j, x) for j, x in enumerate(a.row(i)) if x] for i in range(a.rows)
    ]


def _b_rows(x: ScalarRep) -> dict:
    """The nonzero rows of B as {state: [(col, value)]}."""
    return {q: row for q, row in enumerate(_nonzero_rows(x.B)) if row}


def _constant_term(x: ScalarRep, b_rows: dict) -> ExactMatrix:
    """CB, the coefficient of the empty word."""
    m = x.m
    out = [ZERO] * (m * m)
    for q, bq in b_rows.items():
        for i in range(m):
            c = x.C[i, q]
            if c:
                for k, v in bq:
                    out[i * m + k] = out[i * m + k] + c * v
    return ExactMatrix(m, m, out)


def _times_B(row: dict, b_rows: dict, m: int):
    """The row vector row @ B of length m, or None when it is zero;
    ``b_rows`` maps each state to the nonzero entries of its row of B."""
    u = None
    for q, v in row.items():
        bq = b_rows.get(q)
        if bq:
            if u is None:
                u = [None] * m
            for k, x in bq:
                u[k] = v * x if u[k] is None else u[k] + v * x
    if u is None or not any(u):
        return None
    return u


def _add_combination(row: dict, u, c_rows):
    """row += sum_k u[k] * c_rows[k], dropping entries that cancel."""
    for uk, ck in zip(u, c_rows):
        if not uk:
            continue
        for j, x in ck:
            old = row.get(j)
            if old is None:
                row[j] = uk * x
            else:
                s = old + uk * x
                if s:
                    row[j] = s
                else:
                    del row[j]


# ---------------------------------------------------------------------------
# Linear representations
# ---------------------------------------------------------------------------


class LinRep:
    """A series about a base point, stored as its scalar automaton.

    ``dim`` is the dimension n of the block form; the automaton has
    D = m*n states.  Instances are immutable.
    """

    __slots__ = ("basepoint", "automaton")

    def __init__(self, basepoint: BasePoint, automaton: ScalarRep):
        m, D = basepoint.m, automaton.dim
        if (
            automaton.m != m
            or automaton.letters != basepoint.letters
            or D % m
            or (automaton.C.rows, automaton.C.cols) != (m, D)
            or (automaton.B.rows, automaton.B.cols) != (D, m)
            or len(automaton.A) != m * m * len(basepoint.letters)
            or any(a.n != D for a in automaton.A)
        ):
            raise DimensionMismatch("automaton does not fit the base point")
        self.basepoint = basepoint
        self.automaton = automaton

    @property
    def dim(self) -> int:
        return self.automaton.dim // self.basepoint.m

    @property
    def m(self) -> int:
        return self.basepoint.m

    @property
    def letters(self) -> tuple:
        return self.basepoint.letters

    @property
    def alphabet(self):
        return self.automaton.alphabet

    def __repr__(self):
        return f"LinRep(m={self.m}, dim={self.dim}, letters={len(self.letters)})"


def _rep(basepoint: BasePoint, C, mats, B, alphabet) -> LinRep:
    return LinRep(
        basepoint, ScalarRep(basepoint.m, basepoint.letters, C.cols, C, tuple(mats), B, alphabet)
    )


def automaton_rep(basepoint: BasePoint, C: ExactMatrix, entries, B: ExactMatrix, alphabet=None) -> LinRep:
    """A representation given as an automaton: C (m x D), B (D x m) and the
    letter matrices as (letter, i, j, row, col, value) entries of scalar
    letter (letter, i, j); entries at one place add up."""
    m = basepoint.m
    mats = [SparseMatrix(C.cols) for _ in range(m * m * len(basepoint.letters))]
    for letter, i, j, row, col, value in entries:
        mats[basepoint.slot(letter) * m * m + i * m + j].add_entry(row, col, _coerce(value))
    return _rep(basepoint, C, mats, B, alphabet)


def rep_const(a: ExactMatrix, basepoint: BasePoint) -> LinRep:
    """Dimension-1 representation of the constant series a."""
    m = basepoint.m
    if a.rows != m or a.cols != m:
        raise DimensionMismatch("constant must be m x m")
    mats = [SparseMatrix(m)] * (m * m * len(basepoint.letters))
    return _rep(basepoint, a, mats, ExactMatrix.identity(m), None)


def rep_var(letter: Letter, basepoint: BasePoint) -> LinRep:
    """Dimension-2 representation of the series  Y + p  for one letter:
    c = (1, p), b = (0, 1) and A^Y = [[0, Y], [0, 0]]."""
    m = basepoint.m
    slot = basepoint.slot(letter)
    mats = [SparseMatrix(2 * m)] * (m * m * len(basepoint.letters))
    for i in range(m):
        for j in range(m):
            mats[slot * m * m + i * m + j] = SparseMatrix(2 * m, {i: {m + j: ONE}})
    C = _hstack([ExactMatrix.identity(m), basepoint.mats[slot]])
    B = _vstack([ExactMatrix.zeros(m, m), ExactMatrix.identity(m)])
    return _rep(basepoint, C, mats, B, None)


def _sum(terms) -> LinRep:
    """sum_k a_k S_k for (a_k, S_k), a_k an m x m matrix or None for 1: the
    block-diagonal automaton with C = [a_1 C_1, a_2 C_2, ...]."""
    first = terms[0][1]
    for _, s in terms[1:]:
        _check_same_point(first, s)
    autos = [s.automaton for _, s in terms]
    C = _hstack([x.C if a is None else a * x.C for (a, _), x in zip(terms, autos)])
    B = _vstack([x.B for x in autos])
    empty = SparseMatrix(C.cols)
    mats = []
    for letter_mats in zip(*(x.A for x in autos)):
        rows = dict(letter_mats[0].rows)
        offset = autos[0].dim
        for mat, x in zip(letter_mats[1:], autos[1:]):
            for i, row in mat.rows.items():
                rows[offset + i] = {offset + j: v for j, v in row.items()}
            offset += x.dim
        mats.append(SparseMatrix(C.cols, rows) if rows else empty)
    alphabet = next((x.alphabet for x in autos if x.alphabet), None)
    return _rep(first.basepoint, C, mats, B, alphabet)


def rep_add(s1: LinRep, a, s2: LinRep) -> LinRep:
    """Representation of S1 + a*S2 of dimension n1 + n2."""
    if isinstance(a, (int, Scalar)):
        a = ExactMatrix.scalar(s1.m, a)
    return _sum([(None, s1), (a, s2)])


def rep_mul(s1: LinRep, s2: LinRep) -> LinRep:
    """Representation of the product S1*S2 of dimension n1 + n2."""
    _check_same_point(s1, s2)
    x1, x2 = s1.automaton, s2.automaton
    m, D1 = s1.m, x1.dim
    b_rows = _b_rows(x1)
    C = _hstack([x1.C, _constant_term(x1, b_rows) * x2.C])
    B = _vstack([ExactMatrix.zeros(D1, m), x2.B])
    c_rows = _nonzero_rows(x2.C, D1)
    empty = SparseMatrix(C.cols)
    mats = []
    for A1, A2 in zip(x1.A, x2.A):
        rows = {}
        # top-left block A1, top-right block (A1 B1) C2
        for i, row in A1.rows.items():
            u = _times_B(row, b_rows, m)
            if u is not None:
                row = dict(row)
                _add_combination(row, u, c_rows)
            rows[i] = row
        for i, row in A2.rows.items():
            rows[D1 + i] = {D1 + j: v for j, v in row.items()}
        mats.append(SparseMatrix(C.cols, rows) if rows else empty)
    return _rep(s1.basepoint, C, mats, B, x1.alphabet or x2.alphabet)


def rep_inv(s: LinRep) -> LinRep:
    """Representation of S^{-1} of dimension n + 1.

    Requires the constant term a = [S, 1] = CB to be invertible in M_m(k);
    raises SingularConstantTerm otherwise (base point outside the domain
    at this nesting level).
    """
    x = s.automaton
    m, D = s.m, x.dim
    b_rows = _b_rows(x)
    try:
        a_inv = matrix_inverse(_constant_term(x, b_rows))
    except SingularMatrixError:
        raise SingularConstantTerm(
            "constant term of the series is singular"
        ) from None
    ac = a_inv * x.C
    C = _hstack([-ac, a_inv])
    B = _vstack([ExactMatrix.zeros(D, m), ExactMatrix.identity(m)])
    minus_ac = _nonzero_rows(-ac)
    inv_cols = [[(D + k, a_inv[t, k]) for k in range(m) if a_inv[t, k]] for t in range(m)]
    empty = SparseMatrix(D + m)
    mats = []
    for A in x.A:
        # A' = [[A - (A B) a^-1 C, (A B) a^-1], [0, 0]]
        rows = {}
        for i, row in A.rows.items():
            u = _times_B(row, b_rows, m)
            if u is not None:
                row = dict(row)
                _add_combination(row, u, minus_ac)
                _add_combination(row, u, inv_cols)
            if row:
                rows[i] = row
        mats.append(SparseMatrix(D + m, rows) if rows else empty)
    return _rep(s.basepoint, C, mats, B, x.alphabet)


# ---------------------------------------------------------------------------
# Compilation of rational expressions
# ---------------------------------------------------------------------------


def compile_expression(e: RatExpr, basepoint, letter_reps: Mapping | None = None) -> LinRep:
    """Compile a rational expression into a representation of e(p + y).

    ``basepoint`` is a BasePoint or a {Letter: ExactMatrix} mapping.
    ``letter_reps`` optionally binds letters to representations about that
    base point (the resolvent representations of an ideal's eliminated
    letters); every other letter used by the expression must be bound by
    the base point and compiles to one rep_var shared by all its
    occurrences.  A singular constant term at some inverse raises
    DomainError with the path to that node.  A node object that occurs
    several times in the expression is compiled once.
    """
    if isinstance(basepoint, Mapping):
        basepoint = BasePoint.from_mapping(basepoint)
    reps = dict(letter_reps or {})
    for rep in reps.values():
        if rep.basepoint != basepoint:
            raise BasepointMismatch("letter representation about another base point")
    missing = [l for l in e.letters_used() if l not in basepoint.letters and l not in reps]
    if missing:
        raise MissingLetter(f"base point does not bind {sorted(missing)}")
    m = basepoint.m
    minus_one = ExactMatrix.scalar(m, -1)
    shared = _shared_nodes(e.node)
    done = {}  # id(node) -> LinRep for the shared nodes, which stay alive in e

    def walk(node, path):
        rep = done.get(id(node))
        if rep is None:
            rep = compile_node(node, path)
            if id(node) in shared:
                done[id(node)] = rep
        return rep

    def compile_node(node, path):
        if isinstance(node, Const):
            return rep_const(ExactMatrix.scalar(m, node.value), basepoint)
        if isinstance(node, Var):
            rep = reps.get(node.letter)
            if rep is None:
                rep = reps[node.letter] = rep_var(node.letter, basepoint)
            return rep
        if isinstance(node, Add):
            return _sum([(None, walk(child, path + (i,))) for i, child in enumerate(node.children)])
        if isinstance(node, Neg):
            return _sum([(minus_one, walk(node.child, path + (0,)))])
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
    return LinRep(basepoint, replace(rep.automaton, alphabet=e.alphabet))


def _shared_nodes(root) -> set:
    """The ids of the node objects that occur more than once below root."""
    seen, shared = set(), set()
    stack = [root]
    while stack:
        node = stack.pop()
        if id(node) in seen:
            shared.add(id(node))
            continue
        seen.add(id(node))
        if isinstance(node, (Add, Mul)):
            stack.extend(node.children)
        elif isinstance(node, (Neg, Inv)):
            stack.append(node.child)
    return shared


def scalarize(s: LinRep) -> ScalarRep:
    """The automaton of a representation (the image of its block form under
    the matrix reduction isomorphism), which is the form it is stored in."""
    return s.automaton


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
        if any(any(sr.read_out(r)) for r in rows):
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

    def eval(self, point: Sequence) -> ExactMatrix:
        """Evaluate at exact matrices of size m*s (one per base letter).

        Constants act as a (x) I_s; the scalar letter for block (i, j) of
        base letter k binds to that block of the k-th point matrix.
        """
        if len(point) != len(self.letters):
            raise DimensionMismatch("one point matrix per base letter required")
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
        return block_matrix(grid)

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

    def dfs(row, word):
        (v,) = sr.read_out(row)
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

        (C (x) I_s) (I - sum A_(l,i,j) (x) Y_(l,i,j))^{-1} (B (x) I_s),

    where Y_(l,i,j) is block (i, j) of point_l - p_l (x) I_s."""
    if isinstance(point, Mapping):
        point = tuple(point[l] for l in s.letters)
    if len(point) != len(s.letters):
        raise DimensionMismatch("one point matrix per letter required")
    m, sr = s.m, s.automaton
    size = point[0].rows
    if size % m:
        raise DimensionMismatch(f"point size {size} is not a multiple of m={m}")
    sfac = size // m
    for mat in point:
        if not mat.is_square or mat.rows != size:
            raise DimensionMismatch("point matrices must be square of equal size")
    N = sr.dim * sfac
    entries = list(ExactMatrix.identity(N).entries)
    for slot in range(len(s.letters)):
        shift = point[slot] - embed(s.basepoint.mats[slot], sfac)
        blocks = split_blocks(shift, m)
        for i in range(m):
            for j in range(m):
                mat = sr.A[slot * m * m + i * m + j]
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
    return embed(sr.C, sfac) * core_inv * embed(sr.B, sfac)


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


def compile_minimal(e: RatExpr, basepoint: BasePoint) -> LinRep:
    """A minimal representation of e about the base point: the minimized
    compile of e, padded with zero states up to a positive multiple of m
    (a zero series keeps dimension 1).  Raises DomainError like
    compile_expression."""
    sr, t = minimize_scalar(compile_expression(e, basepoint))
    m = basepoint.m
    D = max(1, -(-t // m)) * m
    pad = D - t
    C = _hstack([sr.C, ExactMatrix.zeros(m, pad)])
    B = _vstack([sr.B, ExactMatrix.zeros(pad, m)])
    return _rep(basepoint, C, [SparseMatrix(D, a.rows) for a in sr.A], B, sr.alphabet)
