"""Reference closures over Fractions for the fraction-free kernel.

This is the Krylov closure that ncrat's zero test and minimization ran on
before the Gaussian-integer kernel: every vector is a list of Scalars and
each basis row is normalized to pivot 1.  Tests compare the kernel with it,
and rank computations with the Gauss-Jordan ``rref`` below.
"""

from collections import deque

from ncrat.core import ZERO


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
    out = [ZERO] * mat.n
    for i, row in mat.rows.items():
        out[i] = _dot(row.values(), (v[j] for j in row))
    return out


def _dot(u, v):
    acc = ZERO
    for x, y in zip(u, v):
        if x and y:
            acc = acc + x * y
    return acc


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
            queue.extend(mat.vecmat(red) for mat in sr.A if mat.rows)
    return basis.basis_vectors()


def reference_minimal_dimension(sr) -> int:
    """The rank of the Hankel matrix (C A^u A^v B)_{u,v}, which is the
    dimension of a minimal automaton: rank(O R) for a basis R of the
    reachable space and a basis O of the observable space."""
    reach, obs = reachable_basis(sr), observable_basis(sr)
    if not reach or not obs:
        return 0
    return len(rref([[_dot(o, v) for v in reach] for o in obs])[1])
