"""Dense references over Fractions for the fraction-free kernel and the
sparse word walk.

This is the Krylov closure that ncrat's zero test and minimization ran on
before the Gaussian-integer kernel: every vector is a list of Scalars and
each basis row is normalized to pivot 1.  Tests compare the kernel with it,
rank computations with the Gauss-Jordan ``rref`` below, and word values
C A^w B with ``reference_word_value``.  Its products ``_matvec``,
``_vecmat`` and ``_dot`` are dense and borrow nothing from ncrat but the
data types, and ``hstack``, ``vstack`` and ``dense`` build the block
formulas of the automaton constructions that tests compare ncrat's sparse
rows with.

``reference_minimize`` is the minimization ncrat ran before it kept the
intermediate automaton in the kernel's form: a reachable pass that writes
Scalars, run on the automaton and then on its transpose, with every
transpose built as a LinRep.  It shares the fraction-free kernel with
ncrat, so it picks the same bases, and tests compare the two entry for
entry.
"""

from collections import deque

from ncrat.core import (
    ZERO,
    ExactMatrix,
    FractionFreeBasis,
    gaussian_matvec,
    gaussian_rows,
    gaussian_scalar,
    gaussian_vector,
)
from ncrat.realization import _EMPTY, LinRep, _matrix


def rref(rows):
    """Reduced row echelon form of a list of Scalar rows.

    Returns (new_rows, pivot_columns).  Input rows are not modified.
    """
    work = [list(r) for r in rows]
    nrows = len(work)
    ncols = len(work[0]) if nrows else 0
    pivots = []
    r = 0
    for col in range(ncols):
        piv = None
        for k in range(r, nrows):
            if work[k][col]:
                piv = k
                break
        if piv is None:
            continue
        work[r], work[piv] = work[piv], work[r]
        inv_p = work[r][col].inverse()
        work[r] = [x * inv_p for x in work[r]]
        prow = work[r]
        for k in range(nrows):
            if k != r and work[k][col]:
                f = work[k][col]
                work[k] = [x - f * y for x, y in zip(work[k], prow)]
        pivots.append(col)
        r += 1
        if r == nrows:
            break
    return work, pivots


class EchelonBasis:
    """Incrementally maintained echelon basis of a subspace of Scalar^n."""

    def __init__(self, n: int):
        self.n = n
        self.rows = []  # list of (pivot_index, row list)

    def __len__(self):
        return len(self.rows)

    def reduce(self, vec):
        """Return vec reduced modulo the span (a fresh list)."""
        v = list(vec)
        for piv, row in self.rows:
            f = v[piv]
            if f:
                v = [x - f * y for x, y in zip(v, row)]
        return v

    def add(self, vec):
        """Insert vec; returns the reduced new basis row, or None if dependent."""
        v = self.reduce(vec)
        piv = next((i for i, x in enumerate(v) if x), None)
        if piv is None:
            return None
        inv_p = v[piv].inverse()
        v = [x * inv_p for x in v]
        self.rows.append((piv, v))
        self.rows.sort(key=lambda t: t[0])
        return v

    def basis_vectors(self):
        return [row for _, row in self.rows]


def _matvec(mat, v):
    """A SparseMatrix times a column of Scalars."""
    out = [ZERO] * len(v)
    for i, row in mat.rows.items():
        out[i] = _dot(row.values(), (v[j] for j in row))
    return out


def _vecmat(mat, u):
    """A row of Scalars times a SparseMatrix."""
    out = [ZERO] * len(u)
    for i, row in mat.rows.items():
        x = u[i]
        if x:
            for j, val in row.items():
                out[j] = out[j] + x * val
    return out


def _dot(u, v):
    acc = ZERO
    for x, y in zip(u, v):
        if x and y:
            acc = acc + x * y
    return acc


def reference_word_value(rep, word) -> ExactMatrix:
    """C A^w B for a word of scalar letter indices, by dense products."""
    rows = [list(rep.C.row(r)) for r in range(rep.m)]
    for l in word:
        rows = [_vecmat(rep.A[l], r) for r in rows]
    return ExactMatrix(rep.m, rep.m, [_dot(r, rep.B.col(c)) for r in rows for c in range(rep.m)])


def reference_is_zero(sr) -> bool:
    """C annihilates the closure of B's columns under the letter matrices."""
    basis = EchelonBasis(sr.C.cols)
    queue = deque(list(sr.B.col(j)) for j in range(sr.B.cols))
    while queue:
        red = basis.add(queue.popleft())
        if red is None:
            continue
        if any(_dot(sr.C.row(r), red) for r in range(sr.C.rows)):
            return False
        for mat in sr.A:
            if mat.rows:
                queue.append(_matvec(mat, red))
    return True


def reachable_basis(sr) -> list:
    basis = EchelonBasis(sr.C.cols)
    queue = deque(list(sr.B.col(j)) for j in range(sr.B.cols))
    while queue:
        red = basis.add(queue.popleft())
        if red is not None:
            queue.extend(_matvec(mat, red) for mat in sr.A if mat.rows)
    return basis.basis_vectors()


def observable_basis(sr) -> list:
    basis = EchelonBasis(sr.C.cols)
    queue = deque(list(sr.C.row(r)) for r in range(sr.C.rows))
    while queue:
        red = basis.add(queue.popleft())
        if red is not None:
            queue.extend(_vecmat(mat, red) for mat in sr.A if mat.rows)
    return basis.basis_vectors()


def reference_minimal_dimension(sr) -> int:
    """The rank of the Hankel matrix (C A^u A^v B)_{u,v}, which is the
    dimension of a minimal automaton: rank(O R) for a basis R of the
    reachable space and a basis O of the observable space."""
    reach, obs = reachable_basis(sr), observable_basis(sr)
    if not reach or not obs:
        return 0
    return len(rref([[_dot(o, v) for v in reach] for o in obs])[1])


def hstack(parts) -> ExactMatrix:
    """[P_1, P_2, ...] for matrices with the same number of rows."""
    entries = []
    for r in range(parts[0].rows):
        for p in parts:
            entries.extend(p.row(r))
    return ExactMatrix(parts[0].rows, sum(p.cols for p in parts), entries)


def vstack(parts) -> ExactMatrix:
    """[P_1; P_2; ...] for matrices with the same number of columns."""
    return ExactMatrix(sum(p.rows for p in parts), parts[0].cols, [x for p in parts for x in p.entries])


def dense(mat, n: int) -> ExactMatrix:
    """A SparseMatrix of size n as an n x n ExactMatrix."""
    return ExactMatrix(n, n, [mat.rows.get(i, {}).get(j, ZERO) for i in range(n) for j in range(n)])


def _transposed(rows: dict) -> dict:
    out = {}
    for i, row in rows.items():
        for j, x in row.items():
            out.setdefault(j, {})[i] = x
    return out


def _scalar_closure(s, rows):
    """The closure of B's columns under the letter matrices of s on
    FractionFreeBasis, writing rows[l][i][k] = coordinate i of letter l
    applied to basis row k (rows[-1] for the start vectors) as Scalars."""
    b_cols = _transposed(s.b_rows)
    starts = [gaussian_vector(b_cols.get(j, {})) for j in range(s.m)]
    letters = [l for l, mat in enumerate(s.A) if mat.rows]
    basis = FractionFreeBasis(s.states)
    converted = {}
    queue = deque((-1, j) for j in range(len(starts)))
    while queue:
        l, k = queue.popleft()
        if l < 0:
            d, v = starts[k]
        else:
            if l not in converted:
                converted[l] = gaussian_rows(s.A[l].rows)
            d, cols = converted[l]
            v = gaussian_matvec(cols, basis.vectors[k])
        steps = []
        new = basis.add(v, steps)
        if new is not None:
            queue.extend((letter, new) for letter in letters)
        target = rows[l]
        for i, re, im, den in steps:
            target.setdefault(i, {})[k] = gaussian_scalar(re, im, den * d)
    return basis


def _reachable(s):
    """s restricted to the closure V of B's columns: B = V B1,
    A_l V = V A1_l and C1 = C V."""
    rows = [{} for _ in range(len(s.A) + 1)]
    basis = _scalar_closure(s, rows)
    b_rows = rows.pop()
    d, c_cols = gaussian_rows(s.c_rows)
    c_rows = {}
    for k, v in enumerate(basis.vectors):
        re, im = gaussian_matvec(c_cols, v)
        im = im or {}
        for i in re.keys() | im.keys():
            c_rows.setdefault(i, {})[k] = gaussian_scalar(re.get(i, 0), im.get(i, 0), d)
    return LinRep(s.basepoint, c_rows, [_matrix(a) for a in rows], b_rows, len(basis))


def _transpose(s):
    """(B^T, {A_l^T}, C^T), whose reachable space is the observable space of s."""
    mats = [_matrix(_transposed(a.rows)) for a in s.A]
    return LinRep(s.basepoint, _transposed(s.b_rows), mats, _transposed(s.c_rows), s.states)


def reference_minimize(s):
    """(LinRep, states): s restricted to its reachable, then its
    observable space, or the automaton with no states when C annihilates
    the reachable space."""
    mid = _reachable(s)
    if not mid.c_rows:
        return LinRep(s.basepoint, {}, [_EMPTY] * len(s.A), {}, 0), 0
    out = _transpose(_reachable(_transpose(mid)))
    return out, out.states
