"""Linear representations of generalized series about matrix base points.

A series about a base point p in M_m(k)^g is a noncommutative series in
the shifts Y = X - p with coefficients in A = M_m(k).  The matrix
reduction isomorphism M_m(k)<Y> = M_m(k<y>) identifies it with an m x m
matrix of series in m^2 g scalar letters y_(l,i,j), one per base letter
l and matrix position (i, j); Y_l is the m x m matrix of its letters.
Such a matrix of series is stored as an ordinary weighted automaton, a
LinRep: C of size m x D, one sparse D x D matrix A per scalar letter and
B of size D x m, so that the coefficient of a scalar word w is C A^w B.
Its dimension is n = max(1, ceil(D/m)).

Rational expressions compile to automata in one fold over the
expression DAG, with the standard constructions: a sum is block
diagonal, a product S1*S2 is C = [C1, (C1 B1) C2],
A = [[A1, (A1 B1) C2], [0, A2]], B = [0; B2], and an inverse, with
a = CB invertible in M_m, is C' = [-a^-1 C, a^-1],
A' = [[A - (A B) a^-1 C, (A B) a^-1], [0, 0]], B' = [0; I].  A compiled
automaton has D = m*n states, and each block of m states is one state
of the block form (c, A, b) with c in A^{1 x n}, b in A^{n x 1}, in
which the series is c (I_n - sum_l A^{Y_l})^{-1} b: block q, entry
(r, c) of it is state q*m + r, and letter (l, i, j) has index
slot(l)*m^2 + i*m + j.

Zero testing is a reachability closure on the automaton, run on the
sparse fraction-free kernel of core.py.  Minimization is one reachable
pass run twice: it restricts the automaton to its reachable space, then
to the reachable space of the transposed automaton (B^T, {A_l^T}, C^T),
which is the observable space.  Coefficients are read by the word walk
of series.py, which lives apart from the closure, shares none of its
arithmetic and so checks it independently.

Sparse data has one format: a vector is ``{index: Scalar}`` over its
nonzeros and a matrix ``{row: {col: Scalar}}`` over its nonzero rows
(``_rows`` of an ExactMatrix, ``SparseMatrix.rows``), and
``_add_combination`` is the one row-times-matrix step.
"""

from __future__ import annotations

from collections import deque
from functools import reduce
from typing import Mapping

from .core import (
    ONE,
    ExactMatrix,
    FractionFreeBasis,
    Frozen,
    Scalar,
    ZERO,
    _coerce,
    gaussian_matvec,
    gaussian_rows,
    gaussian_scalar,
    gaussian_vector,
    matrix_inverse,
)
from .errors import (
    BasepointMismatch,
    DimensionMismatch,
    DomainError,
    MissingLetter,
    SingularConstantTerm,
    SingularMatrixError,
    SpecError,
)
from .ncpoly import Letter
from .ratexpr import Add, Const, Mul, Neg, RatExpr, Var, fold


# ---------------------------------------------------------------------------
# Base points
# ---------------------------------------------------------------------------


_set = object.__setattr__


class BasePoint(Frozen):
    """A tuple of m x m exact matrices indexed by the letters they shift."""

    __slots__ = ("letters", "mats", "m")

    def __init__(self, letters: tuple, mats: tuple, m: int):
        _set(self, "letters", letters)
        _set(self, "mats", mats)
        _set(self, "m", m)

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
    """Sparse square matrix over Scalar: ``rows`` holds its nonzero rows
    as {row: {col: value}}, the one sparse format, which
    ``_add_combination`` multiplies by.

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

    def nnz(self) -> int:
        return sum(len(r) for r in self.rows.values())


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


def _rows(a: ExactMatrix, offset: int = 0) -> dict:
    """The nonzero rows of a as ``{row: {offset + col: Scalar}}``."""
    out = {}
    for i in range(a.rows):
        row = {offset + j: x for j, x in enumerate(a.row(i)) if x}
        if row:
            out[i] = row
    return out


def _constant_term(x: "LinRep", b_rows: dict) -> ExactMatrix:
    """CB, the coefficient of the empty word; ``b_rows`` is _rows(x.B)."""
    m = x.m
    out = [ZERO] * (m * m)
    for q, bq in b_rows.items():
        for i in range(m):
            c = x.C[i, q]
            if c:
                for k, v in bq.items():
                    out[i * m + k] = out[i * m + k] + c * v
    return ExactMatrix(m, m, out)


def _add_combination(row: dict, u: dict, rows: dict) -> dict:
    """row += sum_k u[k] * rows[k], dropping entries that cancel; returns row.

    The one sparse row-times-matrix step: u is a sparse vector
    ``{k: Scalar}`` and rows a sparse matrix ``{k: {j: Scalar}}`` of its
    nonzero rows, so an index of u with no row adds nothing."""
    for k, uk in u.items():
        rk = rows.get(k)
        if rk is None:
            continue
        for j, x in rk.items():
            old = row.get(j)
            if old is None:
                row[j] = uk * x
            else:
                s = old + uk * x
                if s:
                    row[j] = s
                else:
                    del row[j]
    return row


# ---------------------------------------------------------------------------
# Linear representations
# ---------------------------------------------------------------------------


class LinRep:
    """A series about a base point, stored as its scalar automaton: C
    (m x D), one SparseMatrix of size D per scalar letter (``A``) and
    B (D x m), with m and the letters those of the base point.

    ``states`` is D and ``dim`` the dimension n = max(1, ceil(D/m)); a
    compiled representation has D = m*n states, a minimized one any
    number.  Instances are immutable.
    """

    __slots__ = ("basepoint", "C", "A", "B")

    def __init__(self, basepoint: BasePoint, C: ExactMatrix, A, B: ExactMatrix):
        A = tuple(A)
        m, D = basepoint.m, C.cols
        if (
            C.rows != m
            or (B.rows, B.cols) != (D, m)
            or len(A) != m * m * len(basepoint.letters)
            or any(a.n != D for a in A)
        ):
            raise DimensionMismatch("automaton does not fit the base point")
        self.basepoint = basepoint
        self.C = C
        self.A = A
        self.B = B

    @property
    def m(self) -> int:
        return self.basepoint.m

    @property
    def letters(self) -> tuple:
        return self.basepoint.letters

    @property
    def states(self) -> int:
        return self.C.cols

    @property
    def dim(self) -> int:
        return max(1, -(-self.C.cols // self.basepoint.m))

    def __repr__(self):
        return f"LinRep(m={self.m}, dim={self.dim}, letters={len(self.letters)})"


def automaton_rep(basepoint: BasePoint, C: ExactMatrix, entries, B: ExactMatrix) -> LinRep:
    """A representation given as an automaton: C (m x D), B (D x m) and the
    letter matrices as (letter, i, j, row, col, value) entries of scalar
    letter (letter, i, j); entries at one place add up."""
    m = basepoint.m
    mats = [SparseMatrix(C.cols) for _ in range(m * m * len(basepoint.letters))]
    for letter, i, j, row, col, value in entries:
        mats[basepoint.slot(letter) * m * m + i * m + j].add_entry(row, col, _coerce(value))
    return LinRep(basepoint, C, mats, B)


def rep_const(a: ExactMatrix, basepoint: BasePoint) -> LinRep:
    """Dimension-1 representation of the constant series a."""
    m = basepoint.m
    mats = [SparseMatrix(m)] * (m * m * len(basepoint.letters))
    return LinRep(basepoint, a, mats, ExactMatrix.identity(m))


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
    return LinRep(basepoint, C, mats, B)


def _sum(reps) -> LinRep:
    """S_1 + S_2 + ... for a list of reps: the block-diagonal automaton with
    C = [C_1, C_2, ...] and B = [B_1; B_2; ...]."""
    first = reps[0]
    for s in reps[1:]:
        _check_same_point(first, s)
    C = _hstack([x.C for x in reps])
    B = _vstack([x.B for x in reps])
    empty = SparseMatrix(C.cols)
    mats = []
    for letter_mats in zip(*(x.A for x in reps)):
        rows = dict(letter_mats[0].rows)
        offset = first.states
        for mat, x in zip(letter_mats[1:], reps[1:]):
            for i, row in mat.rows.items():
                rows[offset + i] = {offset + j: v for j, v in row.items()}
            offset += x.states
        mats.append(SparseMatrix(C.cols, rows) if rows else empty)
    return LinRep(first.basepoint, C, mats, B)


def _scaled(a: ExactMatrix, s: LinRep) -> LinRep:
    """a*S for an m x m matrix a: C becomes a C, and the letter matrices
    and B are shared with s."""
    return LinRep(s.basepoint, a * s.C, s.A, s.B)


def rep_add(s1: LinRep, a, s2: LinRep) -> LinRep:
    """Representation of S1 + a*S2 of dimension n1 + n2."""
    if isinstance(a, (int, Scalar)):
        a = ExactMatrix.scalar(s1.m, a)
    return _sum([s1, _scaled(a, s2)])


def rep_mul(s1: LinRep, s2: LinRep) -> LinRep:
    """Representation of the product S1*S2 of dimension n1 + n2."""
    _check_same_point(s1, s2)
    m, D1 = s1.m, s1.states
    b_rows = _rows(s1.B)
    C = _hstack([s1.C, _constant_term(s1, b_rows) * s2.C])
    B = _vstack([ExactMatrix.zeros(D1, m), s2.B])
    c_rows = _rows(s2.C, D1)
    empty = SparseMatrix(C.cols)
    mats = []
    for A1, A2 in zip(s1.A, s2.A):
        rows = {}
        # top-left block A1, top-right block (A1 B1) C2
        for i, row in A1.rows.items():
            u = _add_combination({}, row, b_rows)
            if u:
                row = _add_combination(dict(row), u, c_rows)
            rows[i] = row
        for i, row in A2.rows.items():
            rows[D1 + i] = {D1 + j: v for j, v in row.items()}
        mats.append(SparseMatrix(C.cols, rows) if rows else empty)
    return LinRep(s1.basepoint, C, mats, B)


def rep_inv(s: LinRep) -> LinRep:
    """Representation of S^{-1} of dimension n + 1.

    Requires the constant term a = [S, 1] = CB to be invertible in M_m(k);
    raises SingularConstantTerm otherwise (base point outside the domain
    at this nesting level).
    """
    m, D = s.m, s.states
    b_rows = _rows(s.B)
    try:
        a_inv = matrix_inverse(_constant_term(s, b_rows))
    except SingularMatrixError:
        raise SingularConstantTerm(
            "constant term of the series is singular"
        ) from None
    C = _hstack([-(a_inv * s.C), a_inv])
    B = _vstack([ExactMatrix.zeros(D, m), ExactMatrix.identity(m)])
    c_rows = _rows(C)
    empty = SparseMatrix(D + m)
    mats = []
    for A in s.A:
        # A' = [[A - (A B) a^-1 C, (A B) a^-1], [0, 0]]: row i is A_i + (A_i B) C'
        rows = {}
        for i, row in A.rows.items():
            u = _add_combination({}, row, b_rows)
            if u:
                row = _add_combination(dict(row), u, c_rows)
            if row:
                rows[i] = row
        mats.append(SparseMatrix(D + m, rows) if rows else empty)
    return LinRep(s.basepoint, C, mats, B)


# ---------------------------------------------------------------------------
# Compilation of rational expressions
# ---------------------------------------------------------------------------


def compile_expression(e: RatExpr, basepoint: BasePoint, letter_reps: Mapping | None = None) -> LinRep:
    """Compile a rational expression into a representation of e(p + y)
    about the BasePoint p.

    ``letter_reps`` optionally binds letters to representations about that
    base point (the resolvent representations of an ideal's eliminated
    letters); every other letter used by the expression must be bound by
    the base point and compiles to one rep_var shared by all its
    occurrences.  A letter bound by neither raises MissingLetter, from
    BasePoint.slot when the walk reaches it.  A singular constant term at
    some inverse raises DomainError with the path to that node.  The walk
    is one ``ratexpr.fold``: each distinct node object of the expression
    DAG is compiled once, without recursion, whatever its depth.
    """
    reps = dict(letter_reps or {})
    for rep in reps.values():
        if rep.basepoint != basepoint:
            raise BasepointMismatch("letter representation about another base point")
    m = basepoint.m

    def combine(node, kids):
        if isinstance(node, Const):
            return rep_const(ExactMatrix.scalar(m, node.value), basepoint)
        if isinstance(node, Var):
            rep = reps.get(node.letter)
            if rep is None:
                rep = reps[node.letter] = rep_var(node.letter, basepoint)
            return rep
        if isinstance(node, Add):
            return _sum(kids)
        if isinstance(node, Neg):
            return _scaled(ExactMatrix.scalar(m, -1), kids[0])
        if isinstance(node, Mul):
            return reduce(rep_mul, kids)
        try:
            return rep_inv(kids[0])
        except SingularConstantTerm:
            raise DomainError("base point outside dom r") from None

    return fold([e.node], combine)[0]


def scalarize(s: LinRep) -> LinRep:
    """The scalar automaton of a representation, which is the
    representation itself: a LinRep stores nothing else.

    It stays a separate step because perfbench's layer tracer times it
    (``realization.scalarize_s``) and reads the automaton's sizes off its
    result; ``perfbench/test_perfbench.py::test_missing_layer_function_is_absent``
    deletes it and expects ``realization.closure_s`` to remain.
    """
    return s


# ---------------------------------------------------------------------------
# Zero testing
# ---------------------------------------------------------------------------


def is_zero(s: LinRep) -> bool:
    """Exact zero test via reachability closure of the automaton.

    The closure of the column span of B under all scalar-letter matrices
    stabilizes within D steps; the series is zero iff C annihilates it.
    """
    return scalar_rep_is_zero(scalarize(s))


def scalar_rep_is_zero(s: LinRep) -> bool:
    """The closure that is_zero runs: whether C annihilates the
    fraction-free reachability closure of B.

    It stays a function of its own because perfbench's layer tracer times
    it as ``realization.closure_s``, which
    ``perfbench/test_perfbench.py::test_missing_layer_function_is_absent``
    expects to be present when ``scalarize`` is deleted.
    """
    _, c_cols = gaussian_rows(_rows(s.C))

    def observed(row):
        re, im = gaussian_matvec(c_cols, row)
        return bool(re or im)

    return _closure(s, stop=observed) is not None


# ---------------------------------------------------------------------------
# Minimization at the scalar level
# ---------------------------------------------------------------------------


def _transposed(rows: dict) -> dict:
    out = {}
    for i, row in rows.items():
        for j, x in row.items():
            out.setdefault(j, {})[i] = x
    return out


def _closure(s: LinRep, stop=None, coords=False):
    """Span of the columns of B under the letter matrices of s, on
    FractionFreeBasis.

    Each new basis row is first passed to ``stop``; the closure returns
    None as soon as that is true.  Otherwise it returns (basis, found).
    With ``coords``, found[(None, j)] and found[(l, k)] map basis indices to
    the Scalar coordinates of start vector j and of letter l applied to
    basis row k; without, found is empty.  The queue holds (letter, basis
    index) pairs, and a letter matrix is converted to Gaussian-integer
    columns when first popped, so a closure that stops at a start vector
    converts none.  Every vector is sparse: a step costs the nonzeros of
    the basis row and of the columns they select, not D.
    """
    starts = [gaussian_vector(s.B.col(j)) for j in range(s.B.cols)]
    letters = [l for l, mat in enumerate(s.A) if mat.rows]
    basis = FractionFreeBasis(s.states)
    found, converted = {}, {}
    queue = deque((None, j) for j in range(len(starts)))
    while queue:
        l, k = queue.popleft()
        if l is None:
            d, v = starts[k]
        else:
            if l not in converted:
                converted[l] = gaussian_rows(s.A[l].rows)
            d, cols = converted[l]
            v = gaussian_matvec(cols, basis.vectors[k])
        steps = [] if coords else None
        new = basis.add(v, steps)
        if new is not None:
            if stop is not None and stop(basis.vectors[new]):
                return None
            queue.extend((letter, new) for letter in letters)
        if coords:
            found[(l, k)] = {j: gaussian_scalar(re, im, den * d) for j, re, im, den in steps}
    return basis, found


def _times_vectors(a: ExactMatrix, vectors):
    """The Scalar entries of a @ v for each Gaussian-integer vector v."""
    d, cols = gaussian_rows(_rows(a))
    out = []
    for v in vectors:
        re, im = gaussian_matvec(cols, v)
        im = im or {}
        out.append([gaussian_scalar(re.get(i, 0), im.get(i, 0), d) for i in range(a.rows)])
    return out


def _reachable(s: LinRep) -> LinRep:
    """The automaton restricted to its reachable space, the closure of the
    columns of B, with the closure's basis V: B = V B1, A_l V = V A1_l and
    C1 = C V.  The closure's reductions already give the coordinates of B
    and of every A_l v."""
    basis, found = _closure(s, coords=True)
    m, r = s.m, len(basis)
    mats = [SparseMatrix(r) for _ in s.A]
    for (l, k), coords in found.items():
        if l is not None:
            for j, x in coords.items():
                mats[l].add_entry(j, k, x)
    cv = _times_vectors(s.C, basis.vectors)
    C1 = ExactMatrix(m, r, [cv[k][i] for i in range(m) for k in range(r)])
    B1 = ExactMatrix(r, m, [found[(None, j)].get(k, ZERO) for k in range(r) for j in range(m)])
    return LinRep(s.basepoint, C1, mats, B1)


def _transpose(s: LinRep) -> LinRep:
    """The transposed automaton (B^T, {A_l^T}, C^T), which reads every word
    backwards and transposes its coefficient; its reachable space is the
    observable space of s."""
    mats = [SparseMatrix(s.states, _transposed(a.rows)) for a in s.A]
    return LinRep(s.basepoint, s.B.transpose(), mats, s.C.transpose())


def minimize_scalar(s: LinRep):
    """Restrict the automaton to the reachable then observable subspace.

    Returns (reduced LinRep, D_min), D_min its number of states.
    Coefficients are unchanged, and the result is a minimal automaton of
    the series, about the same base point.  When C annihilates the
    reachable subspace, which is the zero verdict, the automaton with no
    states is returned at once.
    """
    mid = _reachable(s)
    if mid.C.is_zero():
        m = s.m
        empty = [SparseMatrix(0)] * len(s.A)
        return LinRep(s.basepoint, ExactMatrix(m, 0, []), empty, ExactMatrix(0, m, [])), 0
    out = _transpose(_reachable(_transpose(mid)))
    return out, out.states
