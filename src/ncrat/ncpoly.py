"""Free *-algebra over Q(i): letters, words and noncommutative polynomials.

Letters come in starred/unstarred pairs, so a single polynomial type
serves both plain free algebras (starred letters simply never occur) and
free *-algebras.  Term maps iterate in graded lexicographic order for
reproducible printing and tests.
"""

from __future__ import annotations

from typing import Iterable, Mapping, NamedTuple, Sequence

from .core import Scalar, ZERO, ONE, _coerce
from .errors import (
    AlphabetMismatch,
    GOutOfRange,
    MissingLetter,
    SpecError,
    ZeroPolynomialError,
)


class Letter(NamedTuple):
    index: int  # 1-based position in the alphabet
    starred: bool = False

    @property
    def star(self) -> "Letter":
        return Letter(self.index, not self.starred)


Word = tuple  # tuple of Letter; the empty tuple is the identity word
EMPTY_WORD: Word = ()


def word_star(w: Word) -> Word:
    """Reverse the word and toggle the star on every letter."""
    return tuple(l.star for l in reversed(w))


def grlex_key(w: Word):
    return (len(w), tuple((l.index, l.starred) for l in w))


def words_up_to(letters: Sequence[Letter], d: int) -> list:
    """All words of length <= d over ``letters``, shorter words first and
    words of one length in the order of their letters, which is grlex
    order when ``letters`` is.  A negative d raises SpecError."""
    if d < 0:
        raise SpecError(f"need a word length d >= 0, got {d}")
    words, layer = [()], [()]
    for _ in range(d):
        layer = [w + (l,) for w in layer for l in letters]
        words.extend(layer)
    return words


def word_count(n: int, d: int, cap: int) -> int:
    """sum_{k<=d} n^k, the words of length <= d over n letters, or cap + 1
    once the sum passes cap: about log_n(cap) steps for n >= 2 (cap + 1 for
    n = 1), whatever d is."""
    if d < 0 or not n:
        return int(d >= 0)
    count, layer = 0, 1
    for _ in range(d + 1):
        count += layer
        if count > cap:
            return cap + 1
        layer *= n
    return count


class Alphabet:
    """An ordered list of base letter names, e.g. ("X1", "X2", "Y1", "Y2")."""

    __slots__ = ("names", "_lookup")

    def __init__(self, names: Sequence[str]):
        self.names = tuple(names)
        self._lookup = {n: i + 1 for i, n in enumerate(self.names)}
        if len(self._lookup) != len(self.names):
            raise SpecError("duplicate letter names")

    @property
    def size(self) -> int:
        return len(self.names)

    @staticmethod
    def x(g: int) -> "Alphabet":
        return Alphabet([f"X{j}" for j in range(1, g + 1)])

    @staticmethod
    def xy(g: int) -> "Alphabet":
        """X1..Xg followed by Y1..Yg (2g letters)."""
        return Alphabet(
            [f"X{j}" for j in range(1, g + 1)] + [f"Y{j}" for j in range(1, g + 1)]
        )

    @staticmethod
    def matrix(g: int, with_y: bool = False) -> "Alphabet":
        """Entries of a symbolic g x g matrix: X11, X12, ..., Xgg.

        Letter (i, j) sits at index (i-1)*g + j.  Requires g <= 9 so that
        the name X{i}{j} has a unique reading, and raises GOutOfRange above.
        """
        if g > 9:
            raise GOutOfRange(f"matrix letter names support g <= 9, got {g}")
        names = [f"X{i}{j}" for i in range(1, g + 1) for j in range(1, g + 1)]
        if with_y:
            names += [f"Y{i}{j}" for i in range(1, g + 1) for j in range(1, g + 1)]
        return Alphabet(names)

    def index_of(self, name: str) -> int | None:
        return self._lookup.get(name)

    def letter_name(self, letter: Letter) -> str:
        base = self.names[letter.index - 1]
        return base + "^*" if letter.starred else base

    def __eq__(self, other):
        return isinstance(other, Alphabet) and self.names == other.names

    def __hash__(self):
        return hash(self.names)

    def __repr__(self):
        return f"Alphabet({list(self.names)!r})"


def check_same_alphabet(a: Alphabet, b: Alphabet):
    if a != b:
        raise AlphabetMismatch(f"{a!r} vs {b!r}")


class NcPoly:
    """A noncommutative polynomial: finite map from words to nonzero Scalars."""

    __slots__ = ("alphabet", "terms")

    def __init__(self, alphabet: Alphabet, terms: Mapping[Word, Scalar] | None = None):
        self.alphabet = alphabet
        t = {}
        if terms:
            for w, c in terms.items():
                c = _coerce(c)
                if c:
                    t[tuple(w)] = c
        self.terms = t

    # -- constructors -----------------------------------------------------

    @staticmethod
    def zero(alphabet: Alphabet) -> "NcPoly":
        return NcPoly(alphabet)

    @staticmethod
    def constant(alphabet: Alphabet, value) -> "NcPoly":
        return NcPoly(alphabet, {EMPTY_WORD: _coerce(value)})

    @staticmethod
    def one(alphabet: Alphabet) -> "NcPoly":
        return NcPoly.constant(alphabet, 1)

    @staticmethod
    def var(alphabet: Alphabet, index: int, starred: bool = False) -> "NcPoly":
        if not 1 <= index <= alphabet.size:
            raise MissingLetter(f"letter index {index} outside alphabet")
        return NcPoly(alphabet, {(Letter(index, starred),): ONE})

    @staticmethod
    def monomial(alphabet: Alphabet, coeff, word: Iterable[Letter]) -> "NcPoly":
        return NcPoly(alphabet, {tuple(word): _coerce(coeff)})

    # -- queries ----------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self):
        return bool(self.terms)

    def coeff(self, word: Word) -> Scalar:
        return self.terms.get(tuple(word), ZERO)

    def support(self):
        """Words with nonzero coefficient in graded-lex order."""
        return sorted(self.terms, key=grlex_key)

    def degree_and_terms(self) -> tuple[int, int]:
        """(max word length, number of stored monomials); f must be nonzero."""
        if not self.terms:
            raise ZeroPolynomialError("degree of the zero polynomial")
        return max(len(w) for w in self.terms), len(self.terms)

    # -- arithmetic -------------------------------------------------------

    def __add__(self, other):
        if isinstance(other, (int, Scalar)):
            other = NcPoly.constant(self.alphabet, other)
        check_same_alphabet(self.alphabet, other.alphabet)
        t = dict(self.terms)
        for w, c in other.terms.items():
            s = t.get(w, ZERO) + c
            if s:
                t[w] = s
            else:
                t.pop(w, None)
        out = NcPoly(self.alphabet)
        out.terms = t
        return out

    def __radd__(self, other):
        return self.__add__(other)

    def __sub__(self, other):
        if isinstance(other, (int, Scalar)):
            other = NcPoly.constant(self.alphabet, other)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __neg__(self):
        out = NcPoly(self.alphabet)
        out.terms = {w: -c for w, c in self.terms.items()}
        return out

    def scale(self, value) -> "NcPoly":
        v = _coerce(value)
        if not v:
            return NcPoly.zero(self.alphabet)
        out = NcPoly(self.alphabet)
        out.terms = {w: v * c for w, c in self.terms.items()}
        return out

    def __mul__(self, other):
        if isinstance(other, (int, Scalar)):
            return self.scale(other)
        check_same_alphabet(self.alphabet, other.alphabet)
        t = {}
        for w1, c1 in self.terms.items():
            for w2, c2 in other.terms.items():
                w = w1 + w2
                s = t.get(w, ZERO) + c1 * c2
                if s:
                    t[w] = s
                else:
                    t.pop(w, None)
        out = NcPoly(self.alphabet)
        out.terms = t
        return out

    def __rmul__(self, other):
        if isinstance(other, (int, Scalar)):
            return self.scale(other)
        return NotImplemented

    def star(self) -> "NcPoly":
        """Formal adjoint: reverse words, toggle stars, conjugate coefficients."""
        out = NcPoly(self.alphabet)
        out.terms = {word_star(w): c.conjugate() for w, c in self.terms.items()}
        return out

    # -- evaluation -------------------------------------------------------

    def eval(self, point, star_rule: str = "adjoint"):
        """Evaluate at a tuple of square matrices (exact or float).

        ``point`` binds the unstarred letters in alphabet order; it may also
        be a mapping from Letter to matrix.  Under the adjoint rule a starred
        letter evaluates to the conjugate transpose of its partner; under the
        formal rule every starred letter must be bound explicitly.  The value
        is that of ratexpr.poly_to_expression(self) under eval_expression.
        """
        from .ratexpr import eval_expression, poly_to_expression

        return eval_expression(poly_to_expression(self), point, star_rule)

    # -- structure --------------------------------------------------------

    def __eq__(self, other):
        if not isinstance(other, NcPoly):
            return NotImplemented
        return self.alphabet == other.alphabet and self.terms == other.terms

    def __hash__(self):
        return hash((self.alphabet, frozenset(self.terms.items())))

    def __str__(self):
        if not self.terms:
            return "0"
        chunks = []
        for w in self.support():
            c = self.terms[w]
            negate = not c.im and c.re < 0
            if negate:
                c = -c
            body = "*".join(self.alphabet.letter_name(l) for l in w)
            if not w:
                text = str(c)
            elif c == ONE:
                text = body
            else:
                text = f"{c}*{body}"
            if not chunks:
                chunks.append(("-" if negate else "") + text)
            else:
                chunks.append(("- " if negate else "+ ") + text)
        return " ".join(chunks)

    def __repr__(self):
        return f"NcPoly({self})"
