"""Sum-of-Hermitian-squares certificates: exact verification, Gram
feasibility problems, and numeric positivity probing.

A certificate for f modulo an ideal is data (p_1..p_k, q) with

    f = sum_i p_i^* p_i + q,      q in the ideal.

Verification is exact: the identity is checked in the free *-algebra,
and q is accepted either through explicit two-sided cofactors or through
the membership oracle.  No SDP solver is bundled; searching for
certificates is done externally on the exported Gram problem, whose
Hermitian PSD solutions G correspond exactly to square decompositions
via G = sum_i vec(p_i) vec(p_i)^*.
"""

from __future__ import annotations

import re as _re
from dataclasses import dataclass
from fractions import Fraction

from .core import ExactMatrix, Scalar, ZERO
from .errors import DegreeTooHigh, SpecError
from .ncpoly import Alphabet, Letter, NcPoly, grlex_key, word_star, words_up_to
from .sampler import SampleDomain, check_search, sample_point


@dataclass
class SohsCertificate:
    squares: tuple  # NcPoly p_i
    remainder: NcPoly  # q
    cofactors: tuple | None = None  # ((a_i, generator_index, b_i), ...)

    def __post_init__(self):
        self.squares = tuple(self.squares)
        if self.cofactors is not None:
            self.cofactors = tuple(self.cofactors)


@dataclass
class VerifyResult:
    ok: bool
    identity_ok: bool
    remainder_path: str  # "zero" | "cofactors" | "oracle"
    remainder_ok: bool

    def __bool__(self):
        return self.ok


def verify_certificate(f: NcPoly, cert: SohsCertificate, ideal) -> VerifyResult:
    """Exact check that f = sum p_i^* p_i + q with q in the ideal.

    Returns a truthy result only when the algebra identity holds exactly
    and the remainder is certified (syntactically via cofactors when
    present, otherwise through the ideal's membership oracle).  A square or
    remainder over another alphabet than f's raises AlphabetMismatch, from
    the polynomial arithmetic.
    """
    total = NcPoly.zero(f.alphabet)
    for p in cert.squares:
        total = total + p.star() * p
    identity_ok = (f - total - cert.remainder).is_zero()

    q = cert.remainder
    if q.is_zero():
        path, remainder_ok = "zero", True
    elif cert.cofactors is not None:
        recomposed = NcPoly.zero(f.alphabet)
        for a, j, b in cert.cofactors:
            if not 0 <= j < len(ideal.generators):
                raise SpecError(
                    f"cofactor names generator {j}; the ideal's are 0..{len(ideal.generators) - 1}"
                )
            recomposed = recomposed + a * ideal.generators[j] * b
        path, remainder_ok = "cofactors", (recomposed - q).is_zero()
    else:
        from .ideals import is_member

        path, remainder_ok = "oracle", is_member(q, ideal).member
    return VerifyResult(identity_ok and remainder_ok, identity_ok, path, remainder_ok)


# ---------------------------------------------------------------------------
# Gram feasibility problems
# ---------------------------------------------------------------------------


@dataclass
class GramConstraint:
    word: tuple  # the target word w (of degree <= 2d)
    pairs: tuple  # ((row_index, col_index), ...) with basis[row]^* basis[col] = w
    rhs: Scalar


@dataclass
class GramProblem:
    d: int
    g: int
    alphabet: Alphabet
    basis: tuple  # all words of degree <= d over the 2g letters, graded-lex
    constraints: tuple

    def basis_index(self, word) -> int:
        return self.basis.index(tuple(word))

    def check(self, G: ExactMatrix) -> bool:
        """Does the Hermitian matrix G satisfy every linear constraint?"""
        N = len(self.basis)
        if G.rows != N or G.cols != N:
            return False
        for c in self.constraints:
            acc = ZERO
            for (iu, iv) in c.pairs:
                acc = acc + G[iu, iv]
            if acc != c.rhs:
                return False
        return True

    def gram_of_squares(self, squares) -> ExactMatrix:
        """G = sum_i conj(vec(p_i)) vec(p_i)^T on the word basis."""
        N = len(self.basis)
        index = {w: i for i, w in enumerate(self.basis)}
        entries = [ZERO] * (N * N)
        for p in squares:
            vec = [ZERO] * N
            for w, cf in p.terms.items():
                vec[index[w]] = cf
            for i in range(N):
                ci = vec[i].conjugate()
                if not ci:
                    continue
                for j in range(N):
                    if vec[j]:
                        entries[i * N + j] = entries[i * N + j] + ci * vec[j]
        return ExactMatrix(N, N, entries)


def word_basis(alphabet: Alphabet, d: int) -> tuple:
    """All words of degree <= d over the 2g starred/unstarred letters, in
    grlex order."""
    letters = [Letter(i, s) for i in range(1, alphabet.size + 1) for s in (False, True)]
    return tuple(words_up_to(letters, d))


def gram_constraints(f: NcPoly, d: int, q: NcPoly | None = None) -> GramProblem:
    """The linear system whose Hermitian PSD solutions are exactly the
    Gram matrices of decompositions f - q = sum p_i^* p_i with deg p_i <= d."""
    if q is None:
        q = NcPoly.zero(f.alphabet)
    target = f - q
    if target and target.degree_and_terms()[0] > 2 * d:
        raise DegreeTooHigh(f"deg(f - q) exceeds 2*d = {2 * d}")
    basis = word_basis(f.alphabet, d)
    reachable = {}
    for iu, u in enumerate(basis):
        su = word_star(u)
        for iv, v in enumerate(basis):
            reachable.setdefault(su + v, []).append((iu, iv))
    constraints = []
    for w in sorted(reachable, key=grlex_key):
        constraints.append(
            GramConstraint(w, tuple(reachable[w]), target.coeff(w))
        )
    return GramProblem(d, f.alphabet.size, f.alphabet, basis, tuple(constraints))


# ---------------------------------------------------------------------------
# Text export / import of Gram problems
# ---------------------------------------------------------------------------

_WORD_TOKEN = _re.compile(r"([XY]\d+)(\^\*)?")


def _word_to_text(alphabet: Alphabet, word) -> str:
    if not word:
        return "1"
    return "".join(alphabet.letter_name(l) for l in word)


def _word_from_text(alphabet: Alphabet, text: str):
    if text == "1":
        return ()
    out = []
    pos = 0
    while pos < len(text):
        m = _WORD_TOKEN.match(text, pos)
        if m is None:
            raise SpecError(f"bad word token in {text!r}")
        idx = alphabet.index_of(m.group(1))
        if idx is None:
            raise SpecError(f"unknown letter {m.group(1)!r}")
        out.append(Letter(idx, m.group(2) is not None))
        pos = m.end()
    return tuple(out)


def export_gram(problem: GramProblem, path: str):
    """One line per constraint: target word, rhs, then the G-entries
    (row word, column word, coefficient) taking part in it."""
    with open(path, "w") as fh:
        fh.write(
            f"gram-problem d {problem.d} letters {problem.g} "
            f"basis {len(problem.basis)} constraints {len(problem.constraints)}\n"
        )
        fh.write("alphabet " + " ".join(problem.alphabet.names) + "\n")
        for c in problem.constraints:
            parts = [
                _word_to_text(problem.alphabet, c.word),
                str(c.rhs.re),
                str(c.rhs.im),
                str(len(c.pairs)),
            ]
            for iu, iv in c.pairs:
                parts.append(_word_to_text(problem.alphabet, problem.basis[iu]))
                parts.append(_word_to_text(problem.alphabet, problem.basis[iv]))
                parts.append("1")
                parts.append("0")
            fh.write(" ".join(parts) + "\n")


def import_gram(path: str) -> GramProblem:
    with open(path) as fh:
        lines = [ln.rstrip("\n") for ln in fh if ln.strip()]
    head = lines[0].split()
    if head[0] != "gram-problem":
        raise SpecError("not a gram-problem file")
    d = int(head[head.index("d") + 1])
    g = int(head[head.index("letters") + 1])
    nbasis = int(head[head.index("basis") + 1])
    ncons = int(head[head.index("constraints") + 1])
    alph_line = lines[1].split()
    if alph_line[0] != "alphabet":
        raise SpecError("missing alphabet line")
    alphabet = Alphabet(alph_line[1:])
    basis = word_basis(alphabet, d)
    if len(basis) != nbasis:
        raise SpecError("basis size mismatch")
    index = {w: i for i, w in enumerate(basis)}
    constraints = []
    for ln in lines[2:]:
        parts = ln.split()
        word = _word_from_text(alphabet, parts[0])
        rhs = Scalar(Fraction(parts[1]), Fraction(parts[2]))
        k = int(parts[3])
        pairs = []
        cursor = 4
        for _ in range(k):
            u = _word_from_text(alphabet, parts[cursor])
            v = _word_from_text(alphabet, parts[cursor + 1])
            pairs.append((index[u], index[v]))
            cursor += 4
        constraints.append(GramConstraint(word, tuple(pairs), rhs))
    if len(constraints) != ncons:
        raise SpecError("constraint count mismatch")
    return GramProblem(d, g, alphabet, basis, tuple(constraints))


# ---------------------------------------------------------------------------
# Numeric positivity probing
# ---------------------------------------------------------------------------


@dataclass
class ProbeReport:
    min_eigenvalue: float
    size: int
    trial: int
    samples: int


def positivity_probe(f: NcPoly, domain: SampleDomain, sizes, trials: int, seed: int) -> ProbeReport:
    """Minimum eigenvalue of the Hermitian part of f over seeded samples.

    A certificate for f modulo the matching ideal implies the reported
    minimum is not negative, up to rounding (necessary-condition probe).
    ``trials`` and ``sizes`` go through sampler.check_search before
    anything is sampled.
    """
    sizes = check_search(trials, sizes)
    import numpy as np

    best = None
    count = 0
    for n in sizes:
        for trial in range(trials):
            point = sample_point(domain, n, seed, trial)
            value = f.eval(point, star_rule="adjoint")
            herm = (value + value.conj().T) / 2
            lo = float(np.min(np.linalg.eigvalsh(herm)))
            count += 1
            if best is None or lo < best[0]:
                best = (lo, n, trial)
    return ProbeReport(best[0], best[1], best[2], count)
