"""Answer checking made apart from ncrat.

Nothing here imports ncrat.  Expressions are read by this module's own
parser for the grammar in the project README, evaluated exactly with
``fractions.Fraction`` matrices at exact points of the zero sets (or at
random rational matrices), and witnesses from the CLI are re-evaluated
with numpy.  The zero-set points are built by hand from their defining
relations: Cayley transforms give rational orthogonal matrices for the
unitary and spherical families, and inverses of random integer matrices
give points on the graphs of the resolvents.
"""

from __future__ import annotations

import random
import re
from fractions import Fraction

import numpy as np


ZERO = Fraction(0)
ONE = Fraction(1)


class Singular(ArithmeticError):
    """An inverse was asked of a singular matrix."""


# ---------------------------------------------------------------------------
# Exact rational matrices (lists of rows of Fractions)
# ---------------------------------------------------------------------------


def eye(n):
    return [[ONE if i == j else ZERO for j in range(n)] for i in range(n)]


def zeros(r, c):
    return [[ZERO] * c for _ in range(r)]


def add(a, b):
    return [[x + y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def sub(a, b):
    return [[x - y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def scale(c, a):
    return [[c * x for x in row] for row in a]


def mul(a, b):
    bt = list(zip(*b))
    return [[sum((x * y for x, y in zip(row, col) if x and y), ZERO) for col in bt] for row in a]


def transpose(a):
    return [list(col) for col in zip(*a)]


def is_zero(a):
    return not any(x for row in a for x in row)


def inverse(a):
    n = len(a)
    m = [list(row) + [ONE if i == j else ZERO for j in range(n)] for i, row in enumerate(a)]
    for c in range(n):
        piv = next((r for r in range(c, n) if m[r][c]), None)
        if piv is None:
            raise Singular("singular matrix")
        m[c], m[piv] = m[piv], m[c]
        p = m[c][c]
        m[c] = [x / p for x in m[c]]
        for r in range(n):
            if r != c and m[r][c]:
                f = m[r][c]
                m[r] = [x - f * y for x, y in zip(m[r], m[c])]
    return [row[n:] for row in m]


def block(a, i, j, n):
    """Block (i, j) of size n x n (0-based block indices)."""
    return [row[j * n:(j + 1) * n] for row in a[i * n:(i + 1) * n]]


def random_int_matrix(rng, r, c, span=3):
    return [[Fraction(rng.randint(-span, span)) for _ in range(c)] for _ in range(r)]


def random_invertible(rng, n):
    while True:
        a = random_int_matrix(rng, n, n)
        try:
            inverse(a)
            return a
        except Singular:
            continue


def cayley_orthogonal(rng, n):
    """(I - K)(I + K)^-1 for a random skew-symmetric integer K: a rational
    orthogonal matrix (I + K is invertible because K has imaginary
    spectrum)."""
    k = zeros(n, n)
    for i in range(n):
        for j in range(i + 1, n):
            v = Fraction(rng.randint(-2, 2))
            k[i][j], k[j][i] = v, -v
    return mul(sub(eye(n), k), inverse(add(eye(n), k)))


# ---------------------------------------------------------------------------
# Exact points on the zero sets of the built-in ideals
# ---------------------------------------------------------------------------


def zero_set_point(kind, g, n, rng):
    """An exact real point of size n on the zero set of a built-in ideal:
    a dict letter name -> n x n Fraction matrix.  For the *-ideals the
    adjoint of a letter is its transpose."""
    if kind == "Tprime":
        point = {}
        for j in range(1, g + 1):
            x = random_invertible(rng, n)
            point[f"X{j}"], point[f"Y{j}"] = x, inverse(x)
        return point
    if kind == "Sprime":
        point = {"X1": random_invertible(rng, n)}
        rest = eye(n)
        for j in range(2, g + 1):
            point[f"X{j}"] = random_int_matrix(rng, n, n)
            point[f"Y{j}"] = random_int_matrix(rng, n, n)
            rest = sub(rest, mul(point[f"X{j}"], point[f"Y{j}"]))
        point["Y1"] = mul(inverse(point["X1"]), rest)
        return point
    if kind == "CommInv":
        while True:
            x1, x2 = random_int_matrix(rng, n, n), random_int_matrix(rng, n, n)
            try:
                x3 = inverse(sub(mul(x1, x2), mul(x2, x1)))
            except Singular:
                continue
            return {"X1": x1, "X2": x2, "X3": x3}
    if kind == "T":
        return {f"X{j}": cayley_orthogonal(rng, n) for j in range(1, g + 1)}
    if kind == "S":
        q = cayley_orthogonal(rng, g * n)
        return {f"X{j}": block(q, j - 1, 0, n) for j in range(1, g + 1)}
    if kind == "U":
        q = cayley_orthogonal(rng, g * n)
        return {f"X{i}{j}": block(q, i - 1, j - 1, n) for i in range(1, g + 1) for j in range(1, g + 1)}
    if kind == "Uprime":
        x = random_invertible(rng, g * n)
        y = inverse(x)
        point = {}
        for i in range(1, g + 1):
            for j in range(1, g + 1):
                point[f"X{i}{j}"] = block(x, i - 1, j - 1, n)
                point[f"Y{i}{j}"] = block(y, i - 1, j - 1, n)
        return point
    raise ValueError(f"unknown ideal kind {kind!r}")


# ---------------------------------------------------------------------------
# Parser for the expression grammar
#
#   expr    := ["-"] term (("+"|"-") term)*
#   term    := factor (factor | "*" factor)*
#   factor  := atom postfix*
#   postfix := "^-1" | "^*" | "^" uint
#   atom    := letter | number | "(" expr ")"
#   number  := uint ["/" uint] ["i"]
#
# Nodes are tuples: ("num", re, im), ("var", name), ("add", [..]),
# ("neg", x), ("mul", [..]), ("inv", x), ("star", x), ("pow", x, k).
# ---------------------------------------------------------------------------

_TOKEN = re.compile(r"\s*(?:(\^-1)|(\^\*)|(\^)|([XY]\d+)|(\d+(?:/\d+)?i?)|(.))")


def _tokens(text):
    out = []
    for m in _TOKEN.finditer(text):
        inv, star, caret, letter, number, other = m.groups()
        if inv:
            out.append(("inv", inv))
        elif star:
            out.append(("star", star))
        elif caret:
            out.append(("caret", caret))
        elif letter:
            out.append(("letter", letter))
        elif number:
            out.append(("number", number))
        elif other and not other.isspace():
            out.append(("op", other))
    out.append(("eof", ""))
    return out


class _Parser:
    def __init__(self, text):
        self.toks = _tokens(text)
        self.pos = 0

    def peek(self):
        return self.toks[self.pos]

    def take(self):
        t = self.toks[self.pos]
        self.pos += 1
        return t

    def expr(self):
        terms = []
        sign = 1
        if self.peek() == ("op", "-"):
            self.take()
            sign = -1
        while True:
            t = self.term()
            terms.append(t if sign > 0 else ("neg", t))
            if self.peek() == ("op", "+"):
                sign = 1
            elif self.peek() == ("op", "-"):
                sign = -1
            else:
                break
            self.take()
        return terms[0] if len(terms) == 1 else ("add", terms)

    def _starts_factor(self):
        kind, val = self.peek()
        return kind in ("letter", "number") or (kind, val) == ("op", "(")

    def term(self):
        factors = [self.factor()]
        while True:
            if self.peek() == ("op", "*"):
                self.take()
                factors.append(self.factor())
            elif self._starts_factor():
                factors.append(self.factor())
            else:
                break
        return factors[0] if len(factors) == 1 else ("mul", factors)

    def factor(self):
        node = self.atom()
        while True:
            kind = self.peek()[0]
            if kind == "inv":
                self.take()
                node = ("inv", node)
            elif kind == "star":
                self.take()
                node = ("star", node)
            elif kind == "caret":
                self.take()
                k = self.take()
                if k[0] != "number" or not k[1].isdigit():
                    raise ValueError(f"bad exponent {k[1]!r}")
                node = ("pow", node, int(k[1]))
            else:
                return node

    def atom(self):
        kind, val = self.take()
        if kind == "letter":
            return ("var", val)
        if kind == "number":
            if val.endswith("i"):
                return ("num", ZERO, Fraction(val[:-1]))
            return ("num", Fraction(val), ZERO)
        if (kind, val) == ("op", "("):
            node = self.expr()
            if self.take() != ("op", ")"):
                raise ValueError("missing )")
            return node
        raise ValueError(f"unexpected token {val!r}")


def parse(text):
    p = _Parser(text)
    node = p.expr()
    if p.peek()[0] != "eof":
        raise ValueError(f"trailing input in {text!r}")
    return node


# ---------------------------------------------------------------------------
# Polynomials: dict word -> (re, im), a word a tuple of (name, starred)
# ---------------------------------------------------------------------------


def poly_add(p, q, sign=1):
    out = dict(p)
    for w, (re_, im) in q.items():
        a, b = out.get(w, (ZERO, ZERO))
        a, b = a + sign * re_, b + sign * im
        if a or b:
            out[w] = (a, b)
        else:
            out.pop(w, None)
    return out


def poly_mul(p, q):
    out = {}
    for w1, (a1, b1) in p.items():
        for w2, (a2, b2) in q.items():
            a, b = out.get(w1 + w2, (ZERO, ZERO))
            out[w1 + w2] = (a + a1 * a2 - b1 * b2, b + a1 * b2 + b1 * a2)
    return {w: c for w, c in out.items() if c[0] or c[1]}


def poly_star(p):
    return {
        tuple((name, not st) for name, st in reversed(w)): (a, -b)
        for w, (a, b) in p.items()
    }


def expand(node):
    """The polynomial of an inverse-free expression."""
    kind = node[0]
    if kind == "num":
        return {(): (node[1], node[2])} if (node[1] or node[2]) else {}
    if kind == "var":
        return {((node[1], False),): (ONE, ZERO)}
    if kind == "add":
        out = {}
        for child in node[1]:
            out = poly_add(out, expand(child))
        return out
    if kind == "neg":
        return poly_add({}, expand(node[1]), -1)
    if kind == "mul":
        out = {(): (ONE, ZERO)}
        for child in node[1]:
            out = poly_mul(out, expand(child))
        return out
    if kind == "star":
        return poly_star(expand(node[1]))
    if kind == "pow":
        out = {(): (ONE, ZERO)}
        base = expand(node[1])
        for _ in range(node[2]):
            out = poly_mul(out, base)
        return out
    raise ValueError(f"{kind} in a polynomial")


def poly_from_text(text):
    return expand(parse(text))


def poly_degree_terms(poly):
    return max((len(w) for w in poly), default=0), len(poly)


def poly_vanishes(poly, point):
    """Does the polynomial vanish at an exact real point?  The real and
    imaginary parts of the coefficients are summed separately."""
    n = len(next(iter(point.values())))
    cache = {(): eye(n)}

    def word_value(w):
        if w not in cache:
            name, starred = w[-1]
            m = point[name]
            cache[w] = mul(word_value(w[:-1]), transpose(m) if starred else m)
        return cache[w]

    re_sum, im_sum = zeros(n, n), zeros(n, n)
    for w, (a, b) in poly.items():
        v = word_value(w)
        if a:
            re_sum = add(re_sum, scale(a, v))
        if b:
            im_sum = add(im_sum, scale(b, v))
    return is_zero(re_sum) and is_zero(im_sum)


# ---------------------------------------------------------------------------
# Exact evaluation of rational expressions
# ---------------------------------------------------------------------------


def eval_exact(node, point):
    """Value of a real-coefficient expression at an exact real point;
    raises Singular outside the domain."""
    n = len(next(iter(point.values())))
    kind = node[0]
    if kind == "num":
        if node[2]:
            raise ValueError("exact evaluation handles real coefficients only")
        return scale(node[1], eye(n))
    if kind == "var":
        return point[node[1]]
    if kind == "add":
        out = zeros(n, n)
        for child in node[1]:
            out = add(out, eval_exact(child, point))
        return out
    if kind == "neg":
        return scale(-ONE, eval_exact(node[1], point))
    if kind == "mul":
        out = eye(n)
        for child in node[1]:
            out = mul(out, eval_exact(child, point))
        return out
    if kind == "inv":
        return inverse(eval_exact(node[1], point))
    if kind == "star":
        return transpose(eval_exact(node[1], point))
    if kind == "pow":
        out = eye(n)
        base = eval_exact(node[1], point)
        for _ in range(node[2]):
            out = mul(out, base)
        return out
    raise ValueError(f"unknown node {kind}")


def letters_of(node, out=None):
    out = set() if out is None else out
    if node[0] == "var":
        out.add(node[1])
    elif node[0] in ("add", "mul"):
        for child in node[1]:
            letters_of(child, out)
    elif node[0] in ("neg", "inv", "star", "pow"):
        letters_of(node[1], out)
    return out


def random_points(node, seed, sizes=(2, 3), tries=50):
    """Random integer matrix points, one per size, at which the
    expression is defined (deterministic in the seed)."""
    rng = random.Random(seed)
    names = sorted(letters_of(node))
    for n in sizes:
        for _ in range(tries):
            point = {name: random_int_matrix(rng, n, n) for name in names}
            try:
                yield point, eval_exact(node, point)
                break
            except Singular:
                continue
        else:
            raise Singular(f"no point of size {n} in the domain after {tries} tries")


# ---------------------------------------------------------------------------
# Float evaluation for witnesses
# ---------------------------------------------------------------------------


def eval_float(node, point):
    """Value at a numpy point (dict name -> complex matrix); ^* is the
    conjugate transpose."""
    n = next(iter(point.values())).shape[0]
    kind = node[0]
    if kind == "num":
        return complex(node[1], node[2]) * np.eye(n)
    if kind == "var":
        return point[node[1]]
    if kind == "add":
        return sum((eval_float(c, point) for c in node[1]), np.zeros((n, n), complex))
    if kind == "neg":
        return -eval_float(node[1], point)
    if kind == "mul":
        out = np.eye(n, dtype=complex)
        for c in node[1]:
            out = out @ eval_float(c, point)
        return out
    if kind == "inv":
        return np.linalg.inv(eval_float(node[1], point))
    if kind == "star":
        return eval_float(node[1], point).conj().T
    if kind == "pow":
        return np.linalg.matrix_power(eval_float(node[1], point), node[2])
    raise ValueError(f"unknown node {kind}")


def matrix_from_json(obj):
    r, c = int(obj["rows"]), int(obj["cols"])
    return np.array([complex(p[0], p[1]) for p in obj["entries"]], dtype=complex).reshape(r, c)


def check_witness(witness, names, relations, f_text, tol):
    """Errors in a CLI witness: the point must satisfy every relation to
    ``tol`` and f must exceed ``tol`` there."""
    mats = [matrix_from_json(m) for m in witness["point"]]
    if len(mats) != len(names):
        return [f"witness has {len(mats)} matrices, expected {len(names)}"]
    point = dict(zip(names, mats))
    errors = []
    for rel in relations:
        r = float(np.max(np.abs(eval_float(parse(rel), point))))
        if not r <= tol:
            errors.append(f"witness violates {rel!r} by {r:.3g}")
    value = float(np.max(np.abs(eval_float(parse(f_text), point))))
    if not value > tol:
        errors.append(f"f is {value:.3g} at the witness, not above {tol}")
    return errors
