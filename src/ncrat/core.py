"""Exact scalar field Q(i), dense exact/float matrices, the sparse exact
elimination kernel, and Value and Frozen, the base of the package's
record classes.

The scalar field is the Gaussian rationals.  A Scalar is (a + b*i)/d with
Python ints a, b and one denominator d >= 1, in lowest terms, so its
arithmetic is int arithmetic plus at most one gcd, and the elimination
kernel reads a, b and d as they are.  ``re`` and ``im`` are read-only
views: an int when the part is integral, else a reduced Fraction, and
fractions is imported only to make one.  An integral Scalar has two
slots; only a non-integral one also holds d.
Every symbolic computation in the package runs over this field so that
zero tests are exact decisions.
Every exact elimination (the closures of zero tests and minimization, and
matrix inverses) runs on one fraction-free echelon kernel over the
Gaussian integers Z[i], after denominators are cleared.  Its vectors and
rows are sparse maps {index: int}, and a matrix enters it as columns, so
an elimination step costs the nonzeros it touches, not the dimension.
Float matrices (numpy complex arrays) are used only by the numeric
samplers and falsifiers.  numpy is imported inside the functions, or the
float branches of functions, that compute in floats: exact work never
loads it, which keeps the start-up of exact CLI commands short.
"""

from __future__ import annotations

import re as _re
import sys
from heapq import heapify, heappop, heappush
from math import gcd, inf, isfinite, lcm

from .errors import DimensionMismatch, SingularMatrixError

#: tolerance for all float residual checks (configurable by callers)
FLOAT_TOL = 1e-10


_new = object.__new__


def gaussian_scalar(re: int, im: int, den: int = 1) -> "Scalar":
    """The Scalar (re + im*i) / den, for ints re, im and den > 0."""
    if den != 1:
        g = gcd(re, im, den)
        if g != 1:
            re, im, den = re // g, im // g, den // g
        if den != 1:
            s = _new(_Fractional)
            s.a, s.b, s.d = re, im, den
            return s
    s = _new(Scalar)
    s.a, s.b = re, im
    return s


def _mk(re, im) -> "Scalar":
    # re + im*i from ints, Fractions, or strings and floats that Fraction reads
    if re.__class__ is int and im.__class__ is int:
        return gaussian_scalar(re, im)
    (p, q), (r, s) = _ratio_of(re), _ratio_of(im)
    d = lcm(q, s)
    return gaussian_scalar(p * (d // q), r * (d // s), d)


_INT_RATIO = _re.compile(r"[-+]?[0-9]+(?:/[0-9]*[1-9][0-9]*)?")


def _ratio_of(x) -> tuple:
    """(numerator, denominator >= 1) of an int, a Fraction, or a string or
    float that Fraction reads.  An integer or a ratio of integers with a
    nonzero denominator is read without making a Fraction; anything else
    goes through Fraction, which raises ValueError for what is not a
    rational number and ZeroDivisionError for a zero denominator."""
    if x.__class__ is int:
        return x, 1
    if x.__class__ is str and _INT_RATIO.fullmatch(x):
        num, _, den = x.partition("/")
        return int(num), int(den or 1)
    from fractions import Fraction

    x = Fraction(x)
    return x.numerator, x.denominator


def _is_fraction(x) -> bool:
    # no Fraction exists before fractions is imported
    fractions = sys.modules.get("fractions")
    return fractions is not None and isinstance(x, fractions.Fraction)


def _part(n: int, d: int):
    """The rational n/d as an int when it is integral, else a Fraction."""
    if n % d:
        from fractions import Fraction

        return Fraction(n, d)
    return n // d


def _part_text(n: int, d: int) -> str:
    """str(_part(n, d)), written without making a Fraction."""
    g = gcd(n, d)
    return str(n // g) if g == d else f"{n // g}/{d // g}"


class Scalar:
    """An exact Gaussian rational ``(a + b*i)/d``: ints a, b and d >= 1 with
    gcd(a, b, d) = 1, a canonical form, so equality is structural and d = 1
    exactly when the value is integral.  An integral Scalar has two slots,
    ``a`` and ``b``, and reads d = 1 from the class; only a non-integral
    one has a slot for d.  ``re`` and ``im`` are read-only views: an int
    when the part is integral, else a reduced Fraction.  Immutable.
    """

    __slots__ = ("a", "b")
    d = 1

    def __new__(cls, re=0, im=0):
        return _mk(re, im)

    re = property(lambda s: _part(s.a, s.d))
    im = property(lambda s: _part(s.b, s.d))

    # -- constructors ----------------------------------------------------

    @staticmethod
    def from_json(pair) -> "Scalar":
        """Build from a ``["re", "im"]`` pair of rational strings."""
        return Scalar(str(pair[0]), str(pair[1]))

    # -- queries ----------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.a and not self.b

    def __bool__(self):
        return self.a != 0 or self.b != 0

    # -- arithmetic -------------------------------------------------------

    def __add__(self, other):
        if not isinstance(other, Scalar):
            other = _coerce(other)
        d, e = self.d, other.d
        if d == e:
            return gaussian_scalar(self.a + other.a, self.b + other.b, d)
        return gaussian_scalar(self.a * e + other.a * d, self.b * e + other.b * d, d * e)

    __radd__ = __add__

    def __sub__(self, other):
        if not isinstance(other, Scalar):
            other = _coerce(other)
        d, e = self.d, other.d
        if d == e:
            return gaussian_scalar(self.a - other.a, self.b - other.b, d)
        return gaussian_scalar(self.a * e - other.a * d, self.b * e - other.b * d, d * e)

    def __rsub__(self, other):
        return _coerce(other).__sub__(self)

    def __neg__(self):
        return gaussian_scalar(-self.a, -self.b, self.d)

    def __mul__(self, other):
        if not isinstance(other, Scalar):
            other = _coerce(other)
        a, b, c, e = self.a, self.b, other.a, other.b
        if not b and not e:
            return gaussian_scalar(a * c, 0, self.d * other.d)
        return gaussian_scalar(a * c - b * e, a * e + b * c, self.d * other.d)

    __rmul__ = __mul__

    def inverse(self) -> "Scalar":
        # d / (a + b*i) = d (a - b*i) / (a^2 + b^2)
        a, b, d = self.a, self.b, self.d
        if not a and not b:
            raise ZeroDivisionError("inverse of zero scalar")
        return gaussian_scalar(d * a, -d * b, a * a + b * b)

    def __truediv__(self, other):
        return self * _coerce(other).inverse()

    def __rtruediv__(self, other):
        return _coerce(other) * self.inverse()

    def conjugate(self) -> "Scalar":
        return gaussian_scalar(self.a, -self.b, self.d)

    # -- structure --------------------------------------------------------

    def __eq__(self, other):
        if isinstance(other, Scalar):
            return self.a == other.a and self.b == other.b and self.d == other.d
        if isinstance(other, int) or _is_fraction(other):
            return not self.b and self.re == other
        return NotImplemented

    def __hash__(self):
        return hash((self.re, self.im)) if self.b else hash(self.re)

    def __reduce__(self):
        # copy and pickle rebuild through the canonical constructor
        return gaussian_scalar, (self.a, self.b, self.d)

    def to_complex(self) -> complex:
        """The nearest complex float, the one conversion of an exact value
        to floats; a part beyond the float range rounds to +-inf."""
        return complex(_ratio(self.a, self.d), _ratio(self.b, self.d))

    def to_json(self):
        return [_part_text(self.a, self.d), _part_text(self.b, self.d)]

    def __repr__(self):
        return f"Scalar({_part_text(self.a, self.d)}, {_part_text(self.b, self.d)})"

    def __str__(self):
        a, b, d = self.a, self.b, self.d
        if not b:
            return _part_text(a, d)
        if not a:
            return f"{_part_text(b, d)}i"
        sign = "+" if b > 0 else "-"
        return f"({_part_text(a, d)} {sign} {_part_text(abs(b), d)}i)"


def _ratio(n: int, d: int) -> float:
    # int / int rounds correctly, as float(Fraction) does; d >= 1
    try:
        return n / d
    except OverflowError:
        return inf if n > 0 else -inf


class _Fractional(Scalar):
    # a Scalar whose denominator d is not 1
    __slots__ = ("d",)


def _coerce(x) -> Scalar:
    if isinstance(x, Scalar):
        return x
    if isinstance(x, (int, str)) or _is_fraction(x):
        return _mk(x, 0)
    raise TypeError(f"cannot coerce {type(x).__name__} to Scalar")


ZERO = Scalar(0)
ONE = Scalar(1)
I = Scalar(0, 1)


# ---------------------------------------------------------------------------
# Value classes
# ---------------------------------------------------------------------------


class Value:
    """Base of the package's small record classes.  A subclass lists its
    fields as its own ``__slots__``, in constructor order, and writes its
    ``__init__``.  Equality is field-wise and per class, ``repr`` reads
    ``Name(field=...)``, and copy and pickle rebuild through the
    constructor.  Mutable, so unhashable."""

    __slots__ = ()

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self.__slots__])

    def __eq__(self, other):
        if self is other:
            return True
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    __hash__ = None

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{self.__class__.__qualname__}({fields})"

    def __reduce__(self):
        return self.__class__, self._values()


class Frozen(Value):
    """An immutable Value, hashable over its fields.  Its ``__init__`` sets
    the fields through ``object.__setattr__``; any other assignment raises
    AttributeError."""

    __slots__ = ()

    def __hash__(self):
        return hash(self._values())

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


class ExactMatrix:
    """Dense matrix over the Gaussian rationals, row-major storage.

    Values are immutable after construction; all operations return fresh
    matrices, so instances are safe to share.
    """

    __slots__ = ("rows", "cols", "entries")

    def __init__(self, rows: int, cols: int, entries):
        entries = tuple(entries)
        if rows < 0 or cols < 0 or len(entries) != rows * cols:
            raise DimensionMismatch(
                f"{rows}x{cols} matrix needs {rows * cols} entries, got {len(entries)}"
            )
        self.rows = rows
        self.cols = cols
        self.entries = entries

    # -- constructors -----------------------------------------------------

    @staticmethod
    def from_rows(rows_of_entries) -> "ExactMatrix":
        rows = [[_coerce(x) for x in row] for row in rows_of_entries]
        r = len(rows)
        c = len(rows[0]) if r else 0
        if any(len(row) != c for row in rows):
            raise DimensionMismatch("ragged rows")
        return ExactMatrix(r, c, [x for row in rows for x in row])

    @staticmethod
    def zeros(rows: int, cols: int) -> "ExactMatrix":
        return ExactMatrix(rows, cols, [ZERO] * (rows * cols))

    @staticmethod
    def identity(n: int) -> "ExactMatrix":
        e = [ZERO] * (n * n)
        for i in range(n):
            e[i * n + i] = ONE
        return ExactMatrix(n, n, e)

    @staticmethod
    def scalar(n: int, value) -> "ExactMatrix":
        """value * I_n."""
        v = _coerce(value)
        e = [ZERO] * (n * n)
        for i in range(n):
            e[i * n + i] = v
        return ExactMatrix(n, n, e)

    @staticmethod
    def unit(n: int, i: int, j: int) -> "ExactMatrix":
        """Matrix unit E_ij (0-based) of size n."""
        e = [ZERO] * (n * n)
        e[i * n + j] = ONE
        return ExactMatrix(n, n, e)

    # -- access -----------------------------------------------------------

    def __getitem__(self, ij):
        i, j = ij
        return self.entries[i * self.cols + j]

    def row(self, i):
        return self.entries[i * self.cols : (i + 1) * self.cols]

    def col(self, j):
        return tuple(self.entries[i * self.cols + j] for i in range(self.rows))

    @property
    def is_square(self) -> bool:
        return self.rows == self.cols

    def is_zero(self) -> bool:
        return all(not x for x in self.entries)

    # -- arithmetic -------------------------------------------------------

    def _binop_check(self, other):
        if self.rows != other.rows or self.cols != other.cols:
            raise DimensionMismatch(
                f"{self.rows}x{self.cols} vs {other.rows}x{other.cols}"
            )

    def __add__(self, other):
        self._binop_check(other)
        return ExactMatrix(
            self.rows, self.cols, [a + b for a, b in zip(self.entries, other.entries)]
        )

    def __sub__(self, other):
        self._binop_check(other)
        return ExactMatrix(
            self.rows, self.cols, [a - b for a, b in zip(self.entries, other.entries)]
        )

    def __neg__(self):
        return ExactMatrix(self.rows, self.cols, [-a for a in self.entries])

    def __mul__(self, other):
        if isinstance(other, ExactMatrix):
            return matrix_product(self, other)
        return self.scale(other)

    def __rmul__(self, other):
        # scalar * matrix
        return self.scale(other)

    def scale(self, value) -> "ExactMatrix":
        v = _coerce(value)
        return ExactMatrix(self.rows, self.cols, [v * a for a in self.entries])

    def conjugate_transpose(self) -> "ExactMatrix":
        e = []
        for j in range(self.cols):
            for i in range(self.rows):
                e.append(self.entries[i * self.cols + j].conjugate())
        return ExactMatrix(self.cols, self.rows, e)

    def transpose(self) -> "ExactMatrix":
        e = []
        for j in range(self.cols):
            for i in range(self.rows):
                e.append(self.entries[i * self.cols + j])
        return ExactMatrix(self.cols, self.rows, e)

    def kron(self, other: "ExactMatrix") -> "ExactMatrix":
        """Kronecker product self (x) other."""
        R, C = self.rows * other.rows, self.cols * other.cols
        e = [ZERO] * (R * C)
        for i in range(self.rows):
            for j in range(self.cols):
                a = self.entries[i * self.cols + j]
                if not a:
                    continue
                for k in range(other.rows):
                    base = (i * other.rows + k) * C + j * other.cols
                    orow = k * other.cols
                    for l in range(other.cols):
                        e[base + l] = a * other.entries[orow + l]
        return ExactMatrix(R, C, e)

    # -- structure --------------------------------------------------------

    def __eq__(self, other):
        if not isinstance(other, ExactMatrix):
            return NotImplemented
        return (
            self.rows == other.rows
            and self.cols == other.cols
            and self.entries == other.entries
        )

    def __hash__(self):
        return hash((self.rows, self.cols, self.entries))

    def __repr__(self):
        rows = [
            "[" + ", ".join(str(x) for x in self.row(i)) + "]"
            for i in range(self.rows)
        ]
        return f"ExactMatrix([{', '.join(rows)}])"

    # -- conversion -------------------------------------------------------

    def to_json(self):
        return {
            "rows": self.rows,
            "cols": self.cols,
            "entries": [x.to_json() for x in self.entries],
        }

    @staticmethod
    def from_json(obj) -> "ExactMatrix":
        return ExactMatrix(
            int(obj["rows"]),
            int(obj["cols"]),
            [Scalar.from_json(p) for p in obj["entries"]],
        )


def matrix_product(a: ExactMatrix, b: ExactMatrix) -> ExactMatrix:
    """Exact matrix product; raises DimensionMismatch if a.cols != b.rows."""
    if a.cols != b.rows:
        raise DimensionMismatch(f"{a.rows}x{a.cols} times {b.rows}x{b.cols}")
    n, k, m = a.rows, a.cols, b.cols
    ae, be = a.entries, b.entries
    out = [ZERO] * (n * m)
    for i in range(n):
        arow = i * k
        orow = i * m
        for t in range(k):
            x = ae[arow + t]
            if not x:
                continue
            brow = t * m
            for j in range(m):
                y = be[brow + j]
                if y:
                    out[orow + j] = out[orow + j] + x * y
    return ExactMatrix(n, m, out)


def conjugate_transpose(a):
    """Conjugate transpose of an exact or float matrix."""
    if isinstance(a, ExactMatrix):
        return a.conjugate_transpose()
    import numpy as np

    return np.conj(np.asarray(a)).T


# ---------------------------------------------------------------------------
# Fraction-free elimination over the Gaussian integers
# ---------------------------------------------------------------------------
#
# A Gaussian-integer vector is a pair (re, im) of sparse maps {index: int}
# that hold only the nonzero entries; im is None when every entry is real, so
# real data pays for one map only.  A vector therefore costs its nonzeros,
# not its length.  Scaling a vector or a matrix by a nonzero constant changes
# no span, so callers clear denominators once per vector or matrix and keep
# the scale beside it.


class GaussianRatio:
    """(a + b*i)/d for ints a, b and d > 0, not reduced, as the kernel's
    reductions return a coordinate.  It has no arithmetic: gaussian_rows
    reads its a, b and d as it reads a Scalar's, so a coordinate goes back
    into the kernel without the gcd and the Scalar it would cost."""

    __slots__ = ("a", "b", "d")


def gaussian_ratio(a: int, b: int, d: int) -> GaussianRatio:
    r = _new(GaussianRatio)
    r.a, r.b, r.d = a, b, d
    return r


def _common_denominator(values) -> int:
    return lcm(*{x.d for x in values})


def gaussian_vector(values: dict):
    """(d, v): the least common denominator d > 0 of a sparse vector
    ``{index: Scalar}`` and the sparse Gaussian-integer vector v = d * values."""
    d = _common_denominator(values.values())
    re = {i: x.a * (d // x.d) for i, x in values.items() if x.a}
    im = {i: x.b * (d // x.d) for i, x in values.items() if x.b}
    return d, (re, im or None)


def gaussian_rows(rows):
    """Clear the denominators of a sparse matrix ``{row: {col: x}}`` of
    Scalars or GaussianRatios and turn it into columns.

    Returns (d, cols): d > 0 is the least common denominator, and ``cols``
    maps each nonzero column j of d * the matrix to a pair (re, im) of
    lists of (row, int) pairs, which hold the nonzero real and imaginary
    parts of that column.
    """
    d = _common_denominator([x for row in rows.values() for x in row.values()])
    cols = {}
    for i, row in rows.items():
        for j, x in row.items():
            col = cols.get(j)
            if col is None:
                col = cols[j] = ([], [])
            if x.a:
                col[0].append((i, x.a * (d // x.d)))
            if x.b:
                col[1].append((i, x.b * (d // x.d)))
    return d, cols


def gaussian_matvec(cols, v):
    """The Gaussian-integer vector cols @ v, for ``cols`` from gaussian_rows
    and a Gaussian-integer vector v: only the columns at the nonzero
    coordinates of v are read."""
    vr, vi = v
    out_re, out_im = {}, {}
    get_re, get_im = out_re.get, out_im.get
    if not vi:
        for j, x in vr.items():
            col = cols.get(j)
            if col is not None:
                for i, c in col[0]:
                    out_re[i] = get_re(i, 0) + c * x
                for i, c in col[1]:
                    out_im[i] = get_im(i, 0) + c * x
    else:
        for j in vr.keys() | vi.keys():
            col = cols.get(j)
            if col is not None:
                x, y = vr.get(j, 0), vi.get(j, 0)
                for i, c in col[0]:
                    out_re[i] = get_re(i, 0) + c * x
                    out_im[i] = get_im(i, 0) + c * y
                for i, c in col[1]:
                    out_re[i] = get_re(i, 0) - c * y
                    out_im[i] = get_im(i, 0) + c * x
    out_re = {i: x for i, x in out_re.items() if x}
    out_im = {i: x for i, x in out_im.items() if x}
    return out_re, out_im or None


def _axpy(v: dict, f: int, row: dict):
    """v -= f * row in place, dropping the entries that cancel."""
    for j, y in row.items():
        x = v.get(j, 0) - f * y
        if x:
            v[j] = x
        else:
            del v[j]


class FractionFreeBasis:
    """Echelon basis of a subspace of Q(i)^n kept as Gaussian-integer rows.

    Each row is scaled so that its pivot (first nonzero entry) is a positive
    integer N and its entries have no common factor.  A vector v is reduced
    against a row by cross-multiplication, v <- t*v - f*row with t = N/g,
    f = v[pivot]/g and g = gcd(N, v[pivot]), so no division ever leaves Z[i]
    (Bareiss-style fraction-free elimination).  Rows and vectors are sparse,
    so a reduction costs the nonzeros of the row and of v.
    """

    def __init__(self, n: int):
        self.n = n
        self.vectors = []  # the rows in insertion order
        self.pivots = {}  # pivot -> (N, re, im, index)

    def __len__(self):
        return len(self.vectors)

    def reduce(self, v, coords=None):
        """Return (s, r): r = s*v - sum_k c_k row_k vanishes at every pivot,
        and s is a positive integer.  v is not changed.

        When ``coords`` is a list, one ``(index, re, im, den)`` is appended
        per row used, so that v = r/s + sum (re + im*i)/den * vectors[index].
        The rows are used in increasing pivot order.
        """
        vr, vi = v
        pivots = self.pivots
        todo = [j for j in vr if j in pivots]
        if vi:
            todo.extend(j for j in vi if j in pivots and j not in vr)
        if not todo:
            return 1, v
        heapify(todo)
        vr, vi = dict(vr), dict(vi or ())
        s, last = 1, -1
        while todo:
            # reducing at p changes v only after p, so the pivots of v come
            # off the heap in increasing order; a pivot can be pushed twice
            p = heappop(todo)
            a, b = vr.get(p, 0), vi.get(p, 0)
            if p == last or (not a and not b):
                continue
            last = p
            N, rr, ri, k = pivots[p]
            g = gcd(N, a, b)
            t, a, b = N // g, a // g, b // g
            s *= t
            if coords is not None:
                coords.append((k, a, b, s))
            if t != 1:
                vr = {j: t * x for j, x in vr.items()}
                vi = {j: t * x for j, x in vi.items()}
            # v -= (a + b*i) * (rr + ri*i)
            if a:
                _axpy(vr, a, rr)
            if b:
                _axpy(vi, b, rr)
            if ri:
                if a:
                    _axpy(vi, a, ri)
                if b:
                    _axpy(vr, -b, ri)
                for j in ri:
                    if j > p and j in pivots:
                        heappush(todo, j)
            for j in rr:
                if j > p and j in pivots:
                    heappush(todo, j)
        return s, (vr, vi or None)

    def add(self, v, coords=None):
        """Insert v; return its index in ``vectors``, or None if v lies in
        the span.  ``coords`` as in reduce; the new row, when there is one,
        gets the last entry.  The row may share its maps with v."""
        s, (vr, vi) = self.reduce(v, coords)
        if not vr and not vi:
            return None
        piv = min(vr.keys() | vi.keys()) if vi else min(vr)
        # multiply by u = conj(pivot) (or its sign, if real) to make the pivot
        # a positive integer, then divide by the content c
        a, b = vr.get(piv, 0), (vi.get(piv, 0) if vi else 0)
        if b:
            nr, ni = {}, {}
            for j in vr.keys() | vi.keys():
                x, y = vr.get(j, 0), vi.get(j, 0)
                x, y = a * x + b * y, a * y - b * x
                if x:
                    nr[j] = x
                if y:
                    ni[j] = y
            vr, vi = nr, ni or None
            ua, ub, norm = a, b, a * a + b * b  # conj(u) and |u|^2
        else:
            ua, ub, norm = (1, 0, 1) if a > 0 else (-1, 0, 1)
            if a < 0:
                vr = {j: -x for j, x in vr.items()}
                vi = {j: -y for j, y in vi.items()} if vi else None
        c = gcd(*vr.values(), *vi.values()) if vi else gcd(*vr.values())
        if c != 1:
            vr = {j: x // c for j, x in vr.items()}
            vi = {j: y // c for j, y in vi.items()} if vi else None
        k = len(self.vectors)
        if coords is not None:
            # the residual is row * c / u, i.e. row * c * conj(u) / |u|^2
            coords.append((k, c * ua, c * ub, norm * s))
        self.vectors.append((vr, vi or None))
        self.pivots[piv] = (vr[piv], vr, vi or None, k)
        return k


def matrix_inverse(a: ExactMatrix) -> ExactMatrix:
    """Exact inverse on the fraction-free kernel.

    The rows of [a | I] span {[y a | y]}, so a is singular exactly when a
    pivot of their echelon basis lies at column n or beyond.  Otherwise
    reducing [e_j | 0] leaves (s, [0 | t]) with [s e_j | -t] in the span,
    and row j of a^-1 is -t/s.  Raises SingularMatrixError when no inverse
    exists (e.g. the evaluation point lies outside a domain of regularity).
    """
    if not a.is_square:
        raise DimensionMismatch("inverse of a non-square matrix")
    n = a.rows
    basis = FractionFreeBasis(2 * n)
    for i in range(n):
        row = {j: x for j, x in enumerate(a.row(i)) if x}
        row[n + i] = ONE
        basis.add(gaussian_vector(row)[1])
    if n and max(basis.pivots) >= n:
        raise SingularMatrixError(f"matrix of size {n} is singular")
    out = []
    for j in range(n):
        s, (tr, ti) = basis.reduce(({j: 1}, None))
        ti = ti or {}
        out.extend(gaussian_scalar(-tr.get(q, 0), -ti.get(q, 0), s) for q in range(n, 2 * n))
    return ExactMatrix(n, n, out)


# ---------------------------------------------------------------------------
# Block helpers
# ---------------------------------------------------------------------------


def block_matrix(blocks) -> ExactMatrix:
    """Assemble a matrix from a 2-d grid of ExactMatrix blocks."""
    row_heights = [grid_row[0].rows for grid_row in blocks]
    col_widths = [blk.cols for blk in blocks[0]]
    R, C = sum(row_heights), sum(col_widths)
    out = [ZERO] * (R * C)
    r0 = 0
    for gi, grid_row in enumerate(blocks):
        c0 = 0
        for gj, blk in enumerate(grid_row):
            if blk.rows != row_heights[gi] or blk.cols != col_widths[gj]:
                raise DimensionMismatch("inconsistent block sizes")
            for i in range(blk.rows):
                base = (r0 + i) * C + c0
                brow = i * blk.cols
                for j in range(blk.cols):
                    out[base + j] = blk.entries[brow + j]
            c0 += blk.cols
        r0 += grid_row[0].rows
    return ExactMatrix(R, C, out)


def split_blocks(a: ExactMatrix, m: int):
    """Split an exact (m*s)x(m*s) matrix into an m x m grid of s x s blocks."""
    if not isinstance(a, ExactMatrix):
        raise DimensionMismatch(f"cannot split a {type(a).__name__} into blocks: exact matrices only")
    if a.rows != a.cols or a.rows % m:
        raise DimensionMismatch(f"cannot split {a.rows}x{a.cols} into {m}x{m} blocks")
    s = a.rows // m
    return [
        [
            ExactMatrix(s, s, [a[bi * s + i, bj * s + j] for i in range(s) for j in range(s)])
            for bj in range(m)
        ]
        for bi in range(m)
    ]


def embed(a: ExactMatrix, s: int) -> ExactMatrix:
    """The amplification a -> a (x) I_s used to evaluate at larger sizes."""
    return a.kron(ExactMatrix.identity(s))


# ---------------------------------------------------------------------------
# Float matrix helpers
# ---------------------------------------------------------------------------


def json_float(x: float) -> float | None:
    """x for strict JSON, which has no Infinity or NaN: those become None."""
    return x if isfinite(x) else None


def float_to_json(a) -> dict:
    """A float or exact matrix as json_float pairs ``[re, im]``; an
    ExactMatrix goes through Scalar.to_complex, without numpy."""
    if isinstance(a, ExactMatrix):
        rows, cols, values = a.rows, a.cols, [x.to_complex() for x in a.entries]
    else:
        import numpy as np

        a = np.asarray(a, dtype=complex)
        rows, cols, values = a.shape[0], a.shape[1], a.flatten()
    return {
        "rows": rows,
        "cols": cols,
        "entries": [[json_float(float(z.real)), json_float(float(z.imag))] for z in values],
    }
