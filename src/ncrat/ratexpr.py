"""Noncommutative rational expressions: parsing, formatting and passes.

An expression is a finite DAG over Const / Var / Add / Neg / Mul / Inv:
a node object may have several parents (the Schur complements of a
symbolic inverse do), and nothing is simplified.  Every pass -- letters,
height, adjoint, substitution, evaluation, flattening, compilation -- is
one ``fold``, which visits each distinct node once and without recursion,
so sharing costs nothing and depth has no limit.  Only ``_fmt``, which
prints the tree, the recursive-descent parser and the field-wise ``==``
and ``hash`` of the node classes (``core.Frozen``) recurse.  The
concrete grammar (also emitted by the formatter) is

    expr    := ["-"] term (("+"|"-") term)*
    term    := factor (factor | "*" factor)*        juxtaposition = product
    factor  := atom postfix*
    postfix := "^-1" | "^*" | "^" uint
    atom    := letter | number | "(" expr ")"
    letter  := "X" uint | "Y" uint
    number  := uint ["/" uint] ["i"]

plus one lexical convenience: a parenthesized signed scalar such as
``(1/2 + 1i)``, ``(-3)`` or ``(-2i)`` is a single constant atom, which is
what the formatter emits for constants that are not plain nonnegative
rationals.  ``^k`` unfolds into a k-fold product at parse time, and ``^*``
applies the formal adjoint to the subtree it follows.
"""

from __future__ import annotations

import re as _re
from fractions import Fraction
from functools import reduce
from operator import add, matmul, mul
from typing import Mapping, Union

from .core import FLOAT_TOL, ExactMatrix, Frozen, Scalar, _mk, conjugate_transpose, matrix_inverse
from .errors import (
    DomainError,
    MissingLetter,
    NotPolynomial,
    ParseError,
    SingularMatrixError,
    SizeMismatch,
    SpecError,
    UnknownLetter,
)
from .ncpoly import Alphabet, Letter, NcPoly


# ---------------------------------------------------------------------------
# Nodes
# ---------------------------------------------------------------------------


_set = object.__setattr__


class _Unary(Frozen):
    __slots__ = ()

    def __init__(self, child: "Node"):
        _set(self, "child", child)

    @property
    def children(self) -> tuple:
        return (self.child,)


class Const(Frozen):
    __slots__ = ("value",)
    children = ()

    def __init__(self, value: Scalar):
        _set(self, "value", value)


class Var(Frozen):
    __slots__ = ("letter",)
    children = ()

    def __init__(self, letter: Letter):
        _set(self, "letter", letter)


class Add(Frozen):
    __slots__ = ("children",)

    def __init__(self, children: tuple):
        if not children:
            raise ValueError("Add needs at least one child")
        _set(self, "children", children)


class Neg(_Unary):
    __slots__ = ("child",)


class Mul(Frozen):
    __slots__ = ("children",)

    def __init__(self, children: tuple):
        if not children:
            raise ValueError("Mul needs at least one child")
        _set(self, "children", children)


class Inv(_Unary):
    __slots__ = ("child",)


Node = Union[Const, Var, Add, Neg, Mul, Inv]


class RatExpr(Frozen):
    """A rational expression together with its alphabet."""

    __slots__ = ("alphabet", "node")

    def __init__(self, alphabet: Alphabet, node: Node):
        _set(self, "alphabet", alphabet)
        _set(self, "node", node)

    def format(self) -> str:
        return format_expression(self)

    def height(self) -> int:
        return height(self)

    def eval(self, point, star_rule: str = "adjoint"):
        return eval_expression(self, point, star_rule)

    def letters_used(self) -> set:
        out = set()
        fold([self.node], lambda node, _: isinstance(node, Var) and out.add(node.letter))
        return out

    def __str__(self):
        return self.format()


def fold(roots, combine) -> list:
    """The values of the nodes ``roots``, computed bottom-up without recursion.

    ``combine(node, values)`` gets the values of the node's children in
    order and returns the node's value.  Each distinct node object is
    combined once, children before parents, in left-to-right depth-first
    order, and a value is dropped once its last parent has used it.  A
    DomainError from combine is raised again with the path of child
    indices from a root to the node's first visit.
    """
    order, uses = [], {}  # order: (node, children, depth, index in parent)
    stack = [[None, roots, 0]]  # the roots are the children of a frame of their own
    while stack:
        frame = stack[-1]
        node, kids, i = frame
        if i < len(kids):
            frame[2] = i + 1
            child = kids[i]
            if id(child) in uses:
                uses[id(child)] += 1
            else:
                uses[id(child)] = 1
                stack.append([child, child.children, 0])
        else:
            stack.pop()
            if stack:
                order.append((node, kids, len(stack), stack[-1][2] - 1))
    values = {}
    for pos, (node, kids, _, _) in enumerate(order):
        args = []
        for child in kids:
            key = id(child)
            args.append(values[key])
            uses[key] -= 1
            if not uses[key]:
                del values[key]
        try:
            values[id(node)] = combine(node, args)
        except DomainError as exc:
            # its ancestors follow the node in post-order, each the first entry a level up
            path, depth = [], order[pos][2]
            for _, _, d, index in order[pos:]:
                if d == depth and depth > 1:
                    path.append(index)
                    depth -= 1
            raise DomainError(exc.message, path[::-1]) from None
    return [values[id(root)] for root in roots]


def _rebuild(node: Node, kids: list) -> Node:
    """A node of the same type as node over new children."""
    if isinstance(node, (Add, Mul)):
        return type(node)(tuple(kids))
    return type(node)(kids[0])


# ---------------------------------------------------------------------------
# Parsing
# ---------------------------------------------------------------------------

_TOKEN = _re.compile(
    r"(?P<ws>\s+)"
    r"|(?P<name>[XY]\d+)"
    r"|(?P<num>\d+(?:/\d+)?i?)"
    r"|(?P<op>\^|\+|-|\*|\(|\))"
)


def _tokenize(text: str):
    tokens = []  # (kind, value, offset)
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if m is None:
            raise ParseError(f"unexpected character {text[pos]!r}", pos)
        if m.lastgroup == "name":
            tokens.append(("name", m.group(), m.start()))
        elif m.lastgroup == "num":
            tokens.append(("num", m.group(), m.start()))
        elif m.lastgroup == "op":
            tokens.append((m.group(), m.group(), m.start()))
        pos = m.end()
    tokens.append(("eof", "", len(text)))
    return tokens


def _num_value(text: str, offset: int) -> tuple[Fraction, bool]:
    """The value of a number token and whether it ends in i; a zero
    denominator raises ParseError at the token's offset."""
    imag = text.endswith("i")
    if imag:
        text = text[:-1]
    try:
        return Fraction(text), imag
    except ZeroDivisionError:
        raise ParseError(f"zero denominator in {text!r}", offset) from None


class _Parser:
    def __init__(self, text: str, alphabet: Alphabet):
        self.text = text
        self.alphabet = alphabet
        self.tokens = _tokenize(text)
        self.pos = 0

    def peek(self):
        return self.tokens[self.pos]

    def next(self):
        t = self.tokens[self.pos]
        self.pos += 1
        return t

    def expect(self, kind):
        t = self.next()
        if t[0] != kind:
            raise ParseError(f"expected {kind!r}, found {t[1]!r}", t[2])
        return t

    # expr := ["-"] term (("+"|"-") term)*
    def expr(self) -> Node:
        children = []
        if self.peek()[0] == "-":
            self.next()
            children.append(Neg(self.term()))
        else:
            children.append(self.term())
        while self.peek()[0] in ("+", "-"):
            op = self.next()[0]
            t = self.term()
            children.append(Neg(t) if op == "-" else t)
        if len(children) == 1:
            return children[0]
        return Add(tuple(children))

    # term := factor (factor | "*" factor)*
    def term(self) -> Node:
        children = [self.factor()]
        while True:
            k = self.peek()[0]
            if k == "*":
                self.next()
                children.append(self.factor())
            elif k in ("name", "num", "("):
                children.append(self.factor())
            else:
                break
        if len(children) == 1:
            return children[0]
        return Mul(tuple(children))

    # factor := atom postfix*
    def factor(self) -> Node:
        node = self.atom()
        while self.peek()[0] == "^":
            caret = self.next()
            k, v, off = self.peek()
            if k == "-":
                self.next()
                t = self.expect("num")
                if t[1] != "1":
                    raise ParseError("only ^-1 is supported as a negative power", t[2])
                node = Inv(node)
            elif k == "*":
                self.next()
                node = fold([node], _star)[0]
            elif k == "num":
                self.next()
                value, imag = _num_value(v, off)
                if imag or value.denominator != 1:
                    raise ParseError("power must be a nonnegative integer", off)
                node = _power(node, int(value))
            else:
                raise ParseError("expected -1, * or an integer after ^", caret[2])
        return node

    # atom := letter | number | scalar-literal | "(" expr ")"
    def atom(self) -> Node:
        k, v, off = self.peek()
        if k == "name":
            self.next()
            idx = self.alphabet.index_of(v)
            if idx is None:
                raise UnknownLetter(f"letter {v!r} not in alphabet {list(self.alphabet.names)}", off)
            return Var(Letter(idx, False))
        if k == "num":
            self.next()
            value, imag = _num_value(v, off)
            return Const(_mk(0, value) if imag else _mk(value, 0))
        if k == "(":
            lit = self._try_scalar_literal()
            if lit is not None:
                return lit
            self.next()
            node = self.expr()
            self.expect(")")
            return node
        raise ParseError(f"expected an atom, found {v!r}", off)

    def _try_scalar_literal(self):
        """Parse "(" ["-"] num [("+"|"-") imag-num] ")" as a single Const."""
        save = self.pos
        try:
            self.expect("(")
            sign = 1
            if self.peek()[0] == "-":
                self.next()
                sign = -1
            t = self.expect("num")
            v1, imag1 = _num_value(t[1], t[2])
            if self.peek()[0] == ")":
                if sign == 1 and not imag1:
                    # "(3)" is an ordinary parenthesized expression
                    raise ParseError("not a literal", t[2])
                self.next()
                val = _mk(0, sign * v1) if imag1 else _mk(sign * v1, 0)
                return Const(val)
            if self.peek()[0] in ("+", "-") and not imag1:
                s2 = 1 if self.next()[0] == "+" else -1
                t2 = self.expect("num")
                v2, imag2 = _num_value(t2[1], t2[2])
                if not imag2:
                    raise ParseError("not a literal", t2[2])
                self.expect(")")
                return Const(_mk(sign * v1, s2 * v2))
            raise ParseError("not a literal", self.peek()[2])
        except ParseError:
            self.pos = save
            return None


def _power(node: Node, k: int) -> Node:
    if k == 0:
        return Const(Scalar(1))
    if k == 1:
        return node
    return Mul(tuple([node] * k))


def parse_expression(text: str, alphabet: Alphabet | int) -> RatExpr:
    """Parse text into a RatExpr over the given alphabet.

    ``alphabet`` may be an integer g, shorthand for the default alphabet
    X1..Xg.  Raises ParseError (with a byte offset) or UnknownLetter; the
    parser recurses once per level of parentheses, and nesting deeper than
    Python's recursion limit is a ParseError too.
    """
    if isinstance(alphabet, int):
        alphabet = Alphabet.x(alphabet)
    p = _Parser(text, alphabet)
    try:
        node = p.expr()
    except RecursionError:
        raise ParseError("parentheses nested too deeply", p.peek()[2]) from None
    t = p.peek()
    if t[0] != "eof":
        raise ParseError(f"trailing input {t[1]!r}", t[2])
    return RatExpr(alphabet, node)


# ---------------------------------------------------------------------------
# Formatting
# ---------------------------------------------------------------------------

_PREC_ADD, _PREC_MUL, _PREC_POSTFIX, _PREC_ATOM = 1, 2, 3, 4


def _fmt_scalar(s: Scalar) -> str:
    re_, im = s.re, s.im
    if not im:
        return str(re_) if re_ >= 0 else f"(-{-re_})"
    if not re_:
        return f"{im}i" if im > 0 else f"(-{-im}i)"
    sign = "+" if im > 0 else "-"
    return f"({re_} {sign} {abs(im)}i)"


def _fmt(node: Node, alphabet: Alphabet, min_prec: int) -> str:
    if isinstance(node, Const):
        return _fmt_scalar(node.value)
    if isinstance(node, Var):
        return alphabet.letter_name(node.letter)
    if isinstance(node, Add):
        # when the sum itself gets parenthesized, bare numeric parts must be
        # wrapped too, or the result could re-parse as a single scalar literal
        wrap = min_prec > _PREC_ADD

        def part(c):
            inner = c.child if isinstance(c, Neg) else c
            body = _fmt(inner, alphabet, _PREC_MUL)
            if wrap and isinstance(inner, Const) and not body.startswith("("):
                body = f"({body})"
            return ("-", body) if isinstance(c, Neg) else ("+", body)

        sign0, body0 = part(node.children[0])
        parts = [body0 if sign0 == "+" else "-" + body0]
        for c in node.children[1:]:
            sign, body = part(c)
            parts.append(f"{sign} {body}")
        text = " ".join(parts)
        return f"({text})" if wrap else text

    if isinstance(node, Neg):
        body = _fmt(node.child, alphabet, _PREC_MUL)
        if min_prec > _PREC_ADD:
            if isinstance(node.child, Const) and not body.startswith("("):
                body = f"({body})"
            return f"(-{body})"
        return "-" + body
    if isinstance(node, Mul):
        text = "*".join(_fmt(c, alphabet, _PREC_POSTFIX) for c in node.children)
        return f"({text})" if min_prec > _PREC_MUL else text
    if isinstance(node, Inv):
        return _fmt(node.child, alphabet, _PREC_POSTFIX) + "^-1"
    raise TypeError(f"unknown node {node!r}")


def format_expression(e: RatExpr) -> str:
    """Canonical text form; parse(format(e)) is structurally equal to e."""
    return _fmt(e.node, e.alphabet, _PREC_ADD)


# ---------------------------------------------------------------------------
# Structural operations
# ---------------------------------------------------------------------------


def height(e: RatExpr | Node) -> int:
    """Maximal number of nested inverses (0 for polynomials)."""
    node = e.node if isinstance(e, RatExpr) else e
    return fold([node], lambda node, hs: max(hs, default=0) + isinstance(node, Inv))[0]


def _star(node: Node, kids: list) -> Node:
    if isinstance(node, Const):
        return Const(node.value.conjugate())
    if isinstance(node, Var):
        return Var(node.letter.star)
    return _rebuild(node, kids[::-1] if isinstance(node, Mul) else kids)


def star_expression(e: RatExpr) -> RatExpr:
    """Formal adjoint: reverses products, stars letters, conjugates constants."""
    return RatExpr(e.alphabet, fold([e.node], _star)[0])


def substitute_letters(e: RatExpr, mapping: Mapping[Letter, "RatExpr | Node"]) -> RatExpr:
    """Simultaneously replace letters by expressions; unmapped letters stay."""
    table = {l: img.node if isinstance(img, RatExpr) else img for l, img in mapping.items()}

    def combine(node, kids):
        if isinstance(node, Var):
            return table.get(node.letter, node)
        return node if isinstance(node, Const) else _rebuild(node, kids)

    return RatExpr(e.alphabet, fold([e.node], combine)[0])


# ---------------------------------------------------------------------------
# Evaluation
# ---------------------------------------------------------------------------

# How an evaluation point binds a starred letter: to the conjugate transpose
# of its partner, or only to a matrix the point gives for it.
STAR_RULES = ("adjoint", "formal")


def _point_binding(point, star_rule) -> dict:
    """Letter -> matrix for a point tuple (unstarred letters in alphabet
    order) or mapping.  Under the adjoint rule each unstarred letter whose
    starred partner the point does not bind also binds that partner, to
    its conjugate transpose.  A rule outside STAR_RULES raises SpecError."""
    if star_rule not in STAR_RULES:
        raise SpecError(f"unknown star rule {star_rule!r}; choose from {STAR_RULES}")
    if isinstance(point, Mapping):
        binding = dict(point)
    else:
        binding = {Letter(i + 1, False): m for i, m in enumerate(point)}
    if star_rule == "adjoint":
        for l, m in list(binding.items()):
            if not l.starred and l.star not in binding:
                binding[l.star] = conjugate_transpose(m)
    if not binding:
        raise SizeMismatch("empty evaluation point")
    return binding


def _point_size(binding) -> int:
    """The common size n of a binding's matrices, which must all be square
    and either all exact or all float: a point that mixes the two raises
    SpecError, as no arithmetic combines them."""
    if len({isinstance(m, ExactMatrix) for m in binding.values()}) > 1:
        raise SpecError("evaluation point mixes exact and float matrices")
    sizes = set()
    for m in binding.values():
        if isinstance(m, ExactMatrix):
            if not m.is_square:
                raise SizeMismatch("evaluation point matrices must be square")
            sizes.add(m.rows)
        else:
            import numpy as np

            a = np.asarray(m)
            if a.ndim != 2 or a.shape[0] != a.shape[1]:
                raise SizeMismatch("evaluation point matrices must be square")
            sizes.add(a.shape[0])
    if len(sizes) != 1:
        raise SizeMismatch(f"mixed matrix sizes {sorted(sizes)}")
    return sizes.pop()


def _lookup(binding, letter: Letter):
    try:
        return binding[letter]
    except KeyError:
        raise MissingLetter(f"letter {letter} not bound by evaluation point") from None


def eval_expression(e: RatExpr, point, star_rule: str = "adjoint"):
    """Evaluate at a tuple (or Letter mapping) of square matrices.

    Exact matrices give an exact value; numpy arrays evaluate in floats,
    and a point that mixes the two raises SpecError.  A singular inverse
    raises DomainError carrying the path of child indices from the root
    to the offending Inv node.  In floats, an argument whose smallest
    singular value is at most FLOAT_TOL * max(1, largest) counts as
    singular.
    """
    return _evaluate([e.node], point, star_rule)[0]


def _evaluate(roots, point, star_rule: str) -> list:
    """The values of the nodes ``roots`` at a point, in one fold, so a node
    they share is evaluated once."""
    binding = _point_binding(point, star_rule)
    n = _point_size(binding)
    exact = isinstance(next(iter(binding.values())), ExactMatrix)
    if exact:
        ident = ExactMatrix.identity(n)
    else:
        import numpy as np

        ident = np.eye(n, dtype=complex)

    def combine(node, kids):
        if isinstance(node, Const):
            return ident.scale(node.value) if exact else node.value.to_complex() * ident
        if isinstance(node, Var):
            return _lookup(binding, node.letter)
        if isinstance(node, Add):
            return reduce(add, kids)
        if isinstance(node, Neg):
            return -kids[0]
        if isinstance(node, Mul):
            return reduce(mul if exact else matmul, kids)
        if exact:
            try:
                return matrix_inverse(kids[0])
            except SingularMatrixError:
                raise DomainError("singular inverse: point outside dom r") from None
        try:
            sv = np.linalg.svd(kids[0], compute_uv=False)
            singular = not sv[-1] > FLOAT_TOL * max(1.0, sv[0])  # a NaN is singular too
        except np.linalg.LinAlgError:
            singular = True
        if singular:
            raise DomainError("singular inverse: point outside dom r")
        return np.linalg.inv(kids[0])

    return fold(roots, combine)


# ---------------------------------------------------------------------------
# Conversions with the free algebra
# ---------------------------------------------------------------------------


def expression_to_poly(e: RatExpr) -> NcPoly:
    """Flatten an inverse-free expression into an NcPoly."""

    def combine(node, kids):
        if isinstance(node, Const):
            return NcPoly.constant(e.alphabet, node.value)
        if isinstance(node, Var):
            return NcPoly.var(e.alphabet, node.letter.index, node.letter.starred)
        if isinstance(node, Add):
            return reduce(add, kids)
        if isinstance(node, Neg):
            return -kids[0]
        if isinstance(node, Mul):
            return reduce(mul, kids)
        raise NotPolynomial("expression contains an inverse")

    return fold([e.node], combine)[0]


def poly_to_expression(f: NcPoly) -> RatExpr:
    """Canonical expression tree of a polynomial (graded-lex sum of monomials)."""
    terms = []
    for w in f.support():
        c = f.terms[w]
        factors = [Var(l) for l in w]
        if not factors:
            terms.append(Const(c))
        elif c == Scalar(1):
            terms.append(factors[0] if len(factors) == 1 else Mul(tuple(factors)))
        else:
            terms.append(Mul(tuple([Const(c)] + factors)))
    if not terms:
        return RatExpr(f.alphabet, Const(Scalar(0)))
    node = terms[0] if len(terms) == 1 else Add(tuple(terms))
    return RatExpr(f.alphabet, node)


def parse_poly(text: str, alphabet: Alphabet | int) -> NcPoly:
    """Parse an inverse-free expression and flatten it to a polynomial."""
    return expression_to_poly(parse_expression(text, alphabet))
