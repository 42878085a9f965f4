"""Linear representations of generalized series about matrix base points.

A series about a base point p in M_m(k)^g is a noncommutative series in
the shifts Y = X - p with coefficients in A = M_m(k).  The matrix
reduction isomorphism M_m(k)<Y> = M_m(k<y>) identifies it with an m x m
matrix of series in m^2 g scalar letters y_(l,i,j), one per base letter
l and matrix position (i, j); Y_l is the m x m matrix of its letters.
Such a matrix of series is stored as an ordinary weighted automaton, a
LinRep: C of size m x D, one sparse D x D matrix A per scalar letter and
B of size D x m, so that the coefficient of a scalar word w is C A^w B.
C and B are stored as their nonzero rows too, and ``LinRep.C`` and
``LinRep.B`` are dense views built on access.  Its dimension is
n = max(1, ceil(D/m)).

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
slot(l)*m^2 + i*m + j.  Each construction reads and builds the rows of
C, B and the letter matrices directly: C1 B1, (C1 B1) C2, a^-1 C and
a C are _add_combination steps, a block B = [0; B2] is the rows of B2
under shifted keys, no block of zeros is ever built, and a negation
changes the sign of C and shares the rest.

Zero testing is a reachability closure on the automaton, run on the
sparse fraction-free kernel of core.py.  Minimization is one reachable
pass run twice: it restricts the automaton to its reachable space, then
to the reachable space of the transposed automaton (B^T, {A_l^T}, C^T),
which is the observable space; only the minimal automaton is made of
Scalars.  Coefficients are read by the word walk of series.py, which
lives apart from the closure, shares none of its arithmetic and so
checks it independently.

Sparse data has one format: a vector is ``{index: Scalar}`` over its
nonzeros and a matrix ``{row: {col: Scalar}}`` over its nonzero rows
(``_rows`` of an ExactMatrix, ``SparseMatrix.rows``, ``LinRep.c_rows``
and ``LinRep.b_rows``), and ``_add_combination`` is the one
row-times-matrix step.  Every construction builds its LinRep from these
rows with the one constructor, and an automaton given from outside enters
through ``automaton_rep``, which checks its shapes and entries.
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
    gaussian_ratio,
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
from .ncpoly import Alphabet, Letter
from .ratexpr import Add, Const, Mul, Neg, RatExpr, Var, _point_size, fold


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
        if not all(isinstance(mat, ExactMatrix) for mat in mats):
            raise DimensionMismatch("base point matrices must be exact")
        return BasePoint(letters, mats, _point_size(mats))

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
            # a base point has no alphabet: letter k is named Xk
            name = Alphabet.x(letter.index).letter_name(letter)
            raise MissingLetter(f"base point does not bind {name}") from None

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
    ``_add_combination`` multiplies by.  Its size is the ``states`` of the
    LinRep that holds it.

    The letter matrices of a LinRep share row dicts with the operands they
    were built from, and every empty letter matrix is ``_EMPTY``, so they
    must not be changed after construction.
    """

    __slots__ = ("rows",)

    def __init__(self, rows: dict):
        self.rows = rows

    def nnz(self) -> int:
        return sum(len(r) for r in self.rows.values())


_EMPTY = SparseMatrix({})


def _matrix(rows: dict) -> SparseMatrix:
    """The letter matrix with these nonzero rows."""
    return SparseMatrix(rows) if rows else _EMPTY


def _rows(a: ExactMatrix, shape: tuple | None = None) -> dict:
    """The nonzero rows of a as ``{row: {col: Scalar}}``.  With ``shape``,
    a must be shape[0] x shape[1], or DimensionMismatch is raised."""
    if shape is not None and (a.rows, a.cols) != shape:
        raise DimensionMismatch(f"expected a {shape[0]} x {shape[1]} matrix, got {a.rows} x {a.cols}")
    out = {}
    for i in range(a.rows):
        row = {j: x for j, x in enumerate(a.row(i)) if x}
        if row:
            out[i] = row
    return out


def _dense(rows: dict, n_rows: int, n_cols: int) -> ExactMatrix:
    """The n_rows x n_cols ExactMatrix whose nonzero rows are ``rows``."""
    entries = [ZERO] * (n_rows * n_cols)
    for i, row in rows.items():
        for j, x in row.items():
            entries[i * n_cols + j] = x
    return ExactMatrix(n_rows, n_cols, entries)


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
    (m x D), one D x D SparseMatrix per scalar letter (``A``) and
    B (D x m), with m and the letters those of the base point.

    C and B are stored in the one sparse format, as their nonzero rows:
    ``c_rows`` is {i: {state: Scalar}} over the m rows of C and ``b_rows``
    {state: {j: Scalar}} over the D rows of B, with no zero entry and no
    empty row.  ``states`` is D and ``dim`` the dimension
    n = max(1, ceil(D/m)); a compiled representation has D = m*n states,
    a minimized one any number.  ``C`` and ``B`` are dense ExactMatrix
    views, built on each access and never stored.

    The constructor stores what it is given, unchecked: it is the one
    constructor of the constructions, whose rows are built in range.  An
    automaton given from outside enters through ``automaton_rep``, which
    checks it.  Instances are immutable, and share row dicts with the
    operands they were built from.
    """

    __slots__ = ("basepoint", "c_rows", "A", "b_rows", "states")

    def __init__(self, basepoint: BasePoint, c_rows: dict, A, b_rows: dict, states: int):
        self.basepoint, self.A, self.states = basepoint, tuple(A), states
        self.c_rows, self.b_rows = c_rows, b_rows

    @property
    def C(self) -> ExactMatrix:
        return _dense(self.c_rows, self.basepoint.m, self.states)

    @property
    def B(self) -> ExactMatrix:
        return _dense(self.b_rows, self.states, self.basepoint.m)

    @property
    def m(self) -> int:
        return self.basepoint.m

    @property
    def letters(self) -> tuple:
        return self.basepoint.letters

    @property
    def dim(self) -> int:
        return max(1, -(-self.states // self.basepoint.m))

    def __repr__(self):
        return f"LinRep(m={self.m}, dim={self.dim}, letters={len(self.letters)})"


def automaton_rep(basepoint: BasePoint, C: ExactMatrix, entries, B: ExactMatrix) -> LinRep:
    """A representation given as an automaton: C (m x D), B (D x m) and the
    letter matrices as (letter, i, j, row, col, value) entries of scalar
    letter (letter, i, j); entries at one place add up.  C or B of another
    shape, or an entry whose (i, j) lies outside m x m or whose states lie
    outside 0..D-1, raises DimensionMismatch."""
    m, D = basepoint.m, C.cols
    c_rows, b_rows = _rows(C, (m, D)), _rows(B, (D, m))
    sums = {}
    for letter, i, j, row, col, value in entries:
        if not (0 <= i < m and 0 <= j < m and 0 <= row < D and 0 <= col < D):
            raise DimensionMismatch(
                f"entry ({i}, {j}) at states ({row}, {col}) is outside an automaton"
                f" with m = {m} and {D} states"
            )
        key = (basepoint.slot(letter) * m * m + i * m + j, row, col)
        sums[key] = sums.get(key, ZERO) + _coerce(value)
    mats = [{} for _ in range(m * m * len(basepoint.letters))]
    for (l, row, col), x in sums.items():
        if x:
            mats[l].setdefault(row, {})[col] = x
    return LinRep(basepoint, c_rows, [_matrix(a) for a in mats], b_rows, D)


def _identity_rows(m: int, offset: int = 0) -> dict:
    """The rows of B = [0; I_m] below ``offset`` zero rows."""
    return {offset + i: {i: ONE} for i in range(m)}


def rep_const(a: ExactMatrix, basepoint: BasePoint) -> LinRep:
    """Dimension-1 representation of the constant series a."""
    m = basepoint.m
    mats = [_EMPTY] * (m * m * len(basepoint.letters))
    return LinRep(basepoint, _rows(a, (m, m)), mats, _identity_rows(m), m)


def rep_var(letter: Letter, basepoint: BasePoint) -> LinRep:
    """Dimension-2 representation of the series  Y + p  for one letter:
    c = (1, p), b = (0, 1) and A^Y = [[0, Y], [0, 0]]."""
    m = basepoint.m
    slot = basepoint.slot(letter)
    mats = [_EMPTY] * (m * m * len(basepoint.letters))
    for i in range(m):
        for j in range(m):
            mats[slot * m * m + i * m + j] = SparseMatrix({i: {m + j: ONE}})
    p = basepoint.mats[slot]
    c_rows = {i: {i: ONE, **{m + j: x for j, x in enumerate(p.row(i)) if x}} for i in range(m)}
    return LinRep(basepoint, c_rows, mats, _identity_rows(m, m), 2 * m)


def _sum(reps) -> LinRep:
    """S_1 + S_2 + ... for a list of reps: the block-diagonal automaton with
    C = [C_1, C_2, ...] and B = [B_1; B_2; ...]."""
    first = reps[0]
    for s in reps[1:]:
        _check_same_point(first, s)
    c_rows = {i: dict(row) for i, row in first.c_rows.items()}
    b_rows = dict(first.b_rows)
    offset = first.states
    for x in reps[1:]:
        for i, row in x.c_rows.items():
            c_rows.setdefault(i, {}).update((offset + j, v) for j, v in row.items())
        for q, row in x.b_rows.items():
            b_rows[offset + q] = row
        offset += x.states
    D = offset
    mats = []
    for letter_mats in zip(*(x.A for x in reps)):
        rows = dict(letter_mats[0].rows)
        offset = first.states
        for mat, x in zip(letter_mats[1:], reps[1:]):
            for i, row in mat.rows.items():
                rows[offset + i] = {offset + j: v for j, v in row.items()}
            offset += x.states
        mats.append(_matrix(rows))
    return LinRep(first.basepoint, c_rows, mats, b_rows, D)


def _times_rows(a_rows: dict, rows: dict) -> dict:
    """The nonzero rows of a @ M for a sparse m x m matrix a and the rows of
    M: row i is sum_k a[i, k] * M[k], one _add_combination."""
    out = {}
    for i, u in a_rows.items():
        row = _add_combination({}, u, rows)
        if row:
            out[i] = row
    return out


def _scaled(a: ExactMatrix, s: LinRep) -> LinRep:
    """a*S for an m x m matrix a: C becomes a C, and the letter matrices
    and B are shared with s."""
    return LinRep(s.basepoint, _times_rows(_rows(a, (s.m, s.m)), s.c_rows), s.A, s.b_rows, s.states)


def rep_add(s1: LinRep, a, s2: LinRep) -> LinRep:
    """Representation of S1 + a*S2 of dimension n1 + n2."""
    if isinstance(a, (int, Scalar)):
        a = ExactMatrix.scalar(s1.m, a)
    return _sum([s1, _scaled(a, s2)])


def _extended(row: dict, b_rows: dict, c_rows: dict) -> dict:
    """row + (row B) C for the rows of B and of C: row itself when row B
    vanishes, as when row meets no row of B, else a new dict."""
    if b_rows.keys().isdisjoint(row):
        return row
    u = _add_combination({}, row, b_rows)
    return _add_combination(dict(row), u, c_rows) if u else row


def rep_mul(s1: LinRep, s2: LinRep) -> LinRep:
    """Representation of the product S1*S2 of dimension n1 + n2."""
    _check_same_point(s1, s2)
    D1, b1 = s1.states, s1.b_rows
    D = D1 + s2.states
    c2 = {i: {D1 + j: v for j, v in row.items()} for i, row in s2.c_rows.items()}  # [0, C2]
    # C = [C1, (C1 B1) C2], A = [[A1, (A1 B1) C2], [0, A2]] and B = [0; B2]
    c_rows = {i: _extended(row, b1, c2) for i, row in s1.c_rows.items()}
    b_rows = {D1 + q: row for q, row in s2.b_rows.items()}
    mats = []
    for A1, A2 in zip(s1.A, s2.A):
        rows = {i: _extended(row, b1, c2) for i, row in A1.rows.items()}
        for i, row in A2.rows.items():
            rows[D1 + i] = {D1 + j: v for j, v in row.items()}
        mats.append(_matrix(rows))
    return LinRep(s1.basepoint, c_rows, mats, b_rows, D)


def rep_inv(s: LinRep) -> LinRep:
    """Representation of S^{-1} of dimension n + 1.

    Requires the constant term a = [S, 1] = CB to be invertible in M_m(k);
    raises SingularConstantTerm otherwise (base point outside the domain
    at this nesting level).  At m = 1, a is one Scalar, with no row when
    it is zero, and a larger a is inverted by core.matrix_inverse."""
    m, D, b_rows = s.m, s.states, s.b_rows
    a = _times_rows(s.c_rows, b_rows)
    try:
        a_inv = {0: {0: a[0][0].inverse()}} if m == 1 else _rows(matrix_inverse(_dense(a, m, m)))
    except (KeyError, SingularMatrixError):
        raise SingularConstantTerm("constant term of the series is singular") from None
    # C' = [-a^-1 C, a^-1] and B' = [0; I]
    c_rows = {}
    for i, row in a_inv.items():
        out = c_rows[i] = _add_combination({}, {k: -x for k, x in row.items()}, s.c_rows)
        out.update((D + j, x) for j, x in row.items())
    # A' = [[A - (A B) a^-1 C, (A B) a^-1], [0, 0]]: row i is A_i + (A_i B) C'
    mats = [_matrix({i: _extended(row, b_rows, c_rows) for i, row in A.rows.items()}) for A in s.A]
    return LinRep(s.basepoint, c_rows, mats, _identity_rows(m, D), D + m)


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
    occurrences.  A letter bound by neither raises MissingLetter when the
    walk reaches it.  A singular constant term at
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
                if node.letter not in basepoint.letters:
                    raise MissingLetter(f"base point does not bind {e.alphabet.letter_name(node.letter)}")
                rep = reps[node.letter] = rep_var(node.letter, basepoint)
            return rep
        if isinstance(node, Add):
            return _sum(kids)
        if isinstance(node, Neg):  # C changes sign; A, B and the states are shared
            s = kids[0]
            c_rows = {i: {j: -x for j, x in row.items()} for i, row in s.c_rows.items()}
            return LinRep(basepoint, c_rows, s.A, s.b_rows, s.states)
        if isinstance(node, Mul):  # pairwise: a left fold of k factors takes about k^3 steps
            while len(kids) > 1:
                kids = [reduce(rep_mul, kids[i:i + 2]) for i in range(0, len(kids), 2)]
            return kids[0]
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
    _, c_cols = gaussian_rows(s.c_rows)
    # stop at the first basis row that C does not annihilate
    return _closure_of(s, stop=lambda row: any(gaussian_matvec(c_cols, row))) is not None


# ---------------------------------------------------------------------------
# Minimization at the scalar level
# ---------------------------------------------------------------------------


def _transposed(rows: dict) -> dict:
    out = {}
    for i, row in rows.items():
        for j, x in row.items():
            out.setdefault(j, {})[i] = x
    return out


def _closure(n: int, starts: list, letters: dict, stop=None, rows=None, entry=gaussian_scalar):
    """Span of the start vectors, Gaussian-integer vectors (d, v), under
    the letter matrices, on FractionFreeBasis(n).

    ``letters`` maps each letter with a nonzero matrix to its rows, of
    Scalars or GaussianRatios, which gaussian_rows turns into columns when
    the letter is first popped.  Each new basis row is first passed to
    ``stop``; the closure returns None as soon as that is true, and
    otherwise the basis.  ``rows``, when given, is a dict into which the
    closure writes the automaton restricted to its span, transposed, while
    it reduces: rows[l][k] = {i: entry(re, im, den)} over the nonzero
    coordinates i of letter l applied to basis row k (row k of the
    restricted A_l^T), and rows[-1][j] those of start vector j (row j of
    the restricted B^T).  The queue holds (letter, basis index) pairs, -1
    for a start vector.  A step costs the nonzeros it touches, not n."""
    basis = FractionFreeBasis(n)
    converted = {}
    queue = deque((-1, j) for j in range(len(starts)))
    while queue:
        l, k = queue.popleft()
        if l < 0:
            d, v = starts[k]
        else:
            if l not in converted:
                converted[l] = gaussian_rows(letters[l])
            d, cols = converted[l]
            v = gaussian_matvec(cols, basis.vectors[k])
        steps = None if rows is None else []
        new = basis.add(v, steps)
        if new is not None:
            if stop is not None and stop(basis.vectors[new]):
                return None
            queue.extend((letter, new) for letter in letters)
        if steps:
            rows.setdefault(l, {})[k] = {i: entry(re, im, den * d) for i, re, im, den in steps}
    return basis


def _closure_of(s: LinRep, **options):
    """_closure of the columns of B under the letter matrices of s."""
    b_cols = _transposed(s.b_rows)
    starts = [gaussian_vector(b_cols.get(j, {})) for j in range(s.m)]
    return _closure(s.states, starts, {l: a.rows for l, a in enumerate(s.A) if a.rows}, **options)


def minimize_scalar(s: LinRep):
    """Restrict the automaton to the reachable then observable subspace.

    Returns (reduced LinRep, D_min), D_min its number of states.
    Coefficients are unchanged, and the result is a minimal automaton of
    the series, about the same base point.

    The reachable pass, the closure V of the columns of B, writes the
    restricted automaton (C V, {A1_l}, B1) transposed, as GaussianRatios.
    When C V is zero, the zero verdict, the automaton with no states is
    returned before any Scalar is made.  The observable pass is the
    reachable pass of (B1^T, {A1_l^T}, (C V)^T): it starts from the rows
    of C V, reads the rows of A1_l the first pass wrote as the columns of
    A1_l^T, and writes its own restriction transposed, the minimal
    automaton.
    """
    rows = {}
    basis = _closure_of(s, rows=rows, entry=gaussian_ratio)
    d, c_cols = gaussian_rows(s.c_rows)
    cv = [gaussian_matvec(c_cols, v) for v in basis.vectors]  # d * C V, by columns
    cv_re = _transposed(dict(enumerate(re for re, _ in cv)))
    cv_im = _transposed({k: im for k, (_, im) in enumerate(cv) if im})
    if not cv_re and not cv_im:
        return LinRep(s.basepoint, {}, [_EMPTY] * len(s.A), {}, 0), 0
    starts = [(d, (cv_re.get(i, {}), cv_im.get(i))) for i in range(s.m)]
    out = {}
    basis = _closure(len(basis), starts, {l: rows[l] for l in sorted(rows) if l >= 0}, rows=out)
    e, b1_cols = gaussian_rows(rows[-1])  # row k of B is B1^T applied to basis row k
    b_rows = {}
    for k, v in enumerate(basis.vectors):
        re, im = gaussian_matvec(b1_cols, v)
        im = im or {}
        if re or im:
            b_rows[k] = {j: gaussian_scalar(re.get(j, 0), im.get(j, 0), e) for j in re.keys() | im.keys()}
    mats = [_matrix(out.get(l, {})) for l in range(len(s.A))]
    return LinRep(s.basepoint, out.get(-1, {}), mats, b_rows, len(basis)), len(basis)
