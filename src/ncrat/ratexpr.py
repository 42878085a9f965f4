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
rationals.  ``^k`` unfolds into a k-fold product at parse time, within
EXPR_LEAF_CAP leaves, and ``^*`` applies the formal adjoint to the subtree
it follows.
"""

from __future__ import annotations

import re as _re
from functools import reduce
from math import prod
from operator import add, matmul, mul
from typing import Mapping, Union

from .core import (
    FLOAT_TOL,
    ExactMatrix,
    Frozen,
    I,
    Scalar,
    conjugate_transpose,
    gaussian_scalar,
    matrix_inverse,
)
from .errors import (
    BudgetExceeded,
    DomainError,
    MissingLetter,
    NotPolynomial,
    ParseError,
    SingularMatrixError,
    SizeMismatch,
    SpecError,
    UnknownLetter,
)
from .ncpoly import LETTER_NAME, Alphabet, Letter, NcPoly, word_count


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

    def eval(self, point):
        return eval_expression(self, point)

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
    rf"|(?P<name>{LETTER_NAME})"
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


def _num_value(text: str, offset: int) -> tuple[Scalar, bool]:
    """The real value of a number token and whether it ends in i; a zero
    denominator raises ParseError at the token's offset."""
    imag = text.endswith("i")
    if imag:
        text = text[:-1]
    num, _, den = text.partition("/")
    den = int(den or 1)
    if not den:
        raise ParseError(f"zero denominator in {text!r}", offset)
    return gaussian_scalar(int(num), 0, den), imag


class _Parser:
    def __init__(self, text: str, alphabet: Alphabet):
        self.text = text
        self.alphabet = alphabet
        self.tokens = _tokenize(text)
        self.pos = 0
        self.leaves = 0  # of the atoms parsed so far, each ^k unfolded

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
                (kind, name, start), (_, _, off) = self.tokens[self.pos - 1], self.next()
                # a file key reads "X1*" as X1's adjoint, so "X1* X2" is refused
                after = self.text[off + 1:off + 2]
                if kind == "name" and start + len(name) == off and after.isspace():
                    raise ParseError(f"'{name}*' before a space: write {name}^* for the adjoint,"
                                     f" or {name}*Y or {name} Y for a product", off)
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
        start = self.leaves
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
                if imag or value.d != 1:
                    raise ParseError("power must be a nonnegative integer", off)
                k = value.a
                self.leaves = start + ((self.leaves - start) * k if k else 1)
                _check_leaves(self.leaves)
                node = _power(node, k)
            else:
                raise ParseError("expected -1, * or an integer after ^", caret[2])
        return node

    # atom := letter | number | scalar-literal | "(" expr ")"
    def atom(self) -> Node:
        k, v, off = self.peek()
        if k == "name":
            self.next()
            letter = self.alphabet.letter(v)
            if letter is None:
                raise UnknownLetter(f"letter {v!r} not in alphabet {list(self.alphabet.names)}", off)
            self.leaves += 1
            return Var(letter)
        if k == "num":
            self.next()
            value, imag = _num_value(v, off)
            self.leaves += 1
            return Const(value * I if imag else value)
        if k == "(":
            lit = self._try_scalar_literal()
            if lit is not None:
                self.leaves += 1
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
                return Const(sign * v1 * I if imag1 else sign * v1)
            if self.peek()[0] in ("+", "-") and not imag1:
                s2 = 1 if self.next()[0] == "+" else -1
                t2 = self.expect("num")
                v2, imag2 = _num_value(t2[1], t2[2])
                if not imag2:
                    raise ParseError("not a literal", t2[2])
                self.expect(")")
                return Const(sign * v1 + s2 * v2 * I)
            raise ParseError("not a literal", self.peek()[2])
        except ParseError:
            self.pos = save
            return None


#: The most leaves (letters and numbers) an expression may have with every
#: ``^k`` unfolded.  The compiled automaton has a few states per leaf, and
#: its closure costs about the cube of its states: parse, compile and
#: minimize of X1^k - X1^k (2k leaves) take about 1.2 s CPU at 400 leaves
#: and 4 s at 600, and ``member --ideal T --g 1`` of X1^k about 1.6 s at
#: 400 leaves and 21 s at 800.
EXPR_LEAF_CAP = 400


def _check_leaves(count: int):
    if count > EXPR_LEAF_CAP:
        raise BudgetExceeded(f"the expression reaches {count} leaves with its powers unfolded,"
                             f" more than {EXPR_LEAF_CAP} (ratexpr.EXPR_LEAF_CAP)")


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
    Python's recursion limit is a ParseError too.  The parser counts the
    leaves as it reads them, each ``^k`` multiplying the count of its base,
    and an expression of more than EXPR_LEAF_CAP leaves raises
    BudgetExceeded; ``^k`` checks the count before it unfolds.
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
    _check_leaves(p.leaves)
    return RatExpr(alphabet, node)


# ---------------------------------------------------------------------------
# Formatting
# ---------------------------------------------------------------------------

_PREC_ADD, _PREC_MUL, _PREC_POSTFIX, _PREC_ATOM = 1, 2, 3, 4


def _fmt_scalar(s: Scalar) -> str:
    # a negative real or imaginary number is parenthesized, as a literal
    text = str(s)
    return f"({text})" if text.startswith("-") else text


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

def _point_binding(point) -> dict:
    """Letter -> matrix for a point tuple (unstarred letters in alphabet
    order) or mapping, as the point gives it.  Read it through ``_bound``
    or ``_lookup``, which also give a starred letter the point leaves
    unbound."""
    if isinstance(point, Mapping):
        binding = dict(point)
    else:
        binding = {Letter(i + 1, False): m for i, m in enumerate(point)}
    if not binding:
        raise SizeMismatch("empty evaluation point")
    return binding


def _point_size(mats) -> int:
    """The common size n of a point's matrices, which must all be square
    (else SizeMismatch) and either all exact or all float: a point that
    mixes the two raises SpecError, as no arithmetic combines them.  This
    is the one check of a point's shape, for series and base points too."""
    if len({isinstance(m, ExactMatrix) for m in mats}) > 1:
        raise SpecError("evaluation point mixes exact and float matrices")
    sizes = set()
    for m in mats:
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


def _bound(binding: dict, letter: Letter):
    """The matrix a ``_point_binding`` gives a letter, or None.  A letter
    the point binds keeps its binding; a starred letter it leaves unbound
    reads the conjugate transpose of its partner's matrix, made on the
    first read and kept in the binding, so a point whose starred letters
    are never read makes none."""
    m = binding.get(letter)
    if m is None and letter.starred:
        partner = binding.get(letter.star)
        if partner is not None:
            m = binding[letter] = conjugate_transpose(partner)
    return m


def _lookup(binding: dict, letter: Letter):
    m = _bound(binding, letter)
    if m is None:
        raise MissingLetter(f"letter {letter} not bound by evaluation point")
    return m


def eval_expression(e: RatExpr, point):
    """Evaluate at a tuple (or Letter mapping) of square matrices.

    A starred letter the point leaves unbound evaluates to the conjugate
    transpose of its partner's matrix.  Exact matrices give an exact value;
    numpy arrays evaluate in floats, and a point that mixes the two raises
    SpecError.  A singular inverse raises DomainError carrying the path of
    child indices from the root to the offending Inv node.  In floats, an
    argument whose smallest singular value is at most
    FLOAT_TOL * max(1, largest) counts as singular.
    """
    return _evaluate([e.node], point)[0]


def _evaluate(roots, point) -> list:
    """The values of the nodes ``roots`` at a point, in one fold, so a node
    they share is evaluated once."""
    binding = _point_binding(point)
    n = _point_size(binding.values())
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


#: The most terms ``expression_to_poly`` may expand to, as bounded before
#: it expands.  ``member --ideal T --g 2`` of (X1 + X2)^k, 2^k terms,
#: takes about 0.9 s CPU at 2,048 terms, 2.2 s at 4,096 and 72 s at 65,536.
POLY_TERM_CAP = 4096


def expression_to_poly(e: RatExpr) -> NcPoly:
    """Flatten an inverse-free expression into an NcPoly.

    One fold first bounds the number of terms of every node: a sum adds
    its parts' bounds and a product multiplies them, and no node has more
    terms than there are words of its degree over the letters e uses.  An
    inverse raises NotPolynomial, and a bound over POLY_TERM_CAP
    BudgetExceeded, before anything is expanded."""
    letters = len(e.letters_used())

    def bound(node, kids):  # (terms, degree)
        if isinstance(node, (Const, Var)):
            return 1, int(isinstance(node, Var))
        if isinstance(node, Neg):
            return kids[0]
        if isinstance(node, Inv):
            raise NotPolynomial("expression contains an inverse")
        if isinstance(node, Add):
            terms, degree = sum(t for t, _ in kids), max(d for _, d in kids)
        else:
            terms, degree = prod(t for t, _ in kids), sum(d for _, d in kids)
        return min(terms, word_count(letters, degree, POLY_TERM_CAP)), degree

    terms = fold([e.node], bound)[0][0]
    if terms > POLY_TERM_CAP:
        raise BudgetExceeded(f"the polynomial may expand to more than {POLY_TERM_CAP} terms"
                             f" (ratexpr.POLY_TERM_CAP)")

    def combine(node, kids):
        if isinstance(node, Const):
            return NcPoly.constant(e.alphabet, node.value)
        if isinstance(node, Var):
            return NcPoly.var(e.alphabet, node.letter.index, node.letter.starred)
        if isinstance(node, Add):
            return reduce(add, kids)
        if isinstance(node, Neg):
            return -kids[0]
        return reduce(mul, kids)

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
