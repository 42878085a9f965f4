"""Seeded corpora of the three workloads.

The shape of every corpus is fixed: which ideals, generators, cofactor
words and added monomials, which identities, which CLI invocations.  It
is drawn from a random stream that does not depend on the seed (``shape``
below).  The seed drives a second stream (``values``) that picks the
numbers inside the shape: scalar multipliers and coefficients, base-point
values, witness-search seeds.  So every seed does the same amount of work
and figures from runs on different seeds can be pooled.
"""

from __future__ import annotations

import json
import os
import random
import re
from dataclasses import dataclass, field
from fractions import Fraction


# ---------------------------------------------------------------------------
# The built-in ideals, written out from their definitions (shared with
# the checker, which must not depend on ncrat)
# ---------------------------------------------------------------------------


def letter_names(kind, g):
    """The unstarred letters of a built-in ideal, in alphabet order."""
    if kind in ("Tprime", "Sprime"):
        return [f"X{j}" for j in range(1, g + 1)] + [f"Y{j}" for j in range(1, g + 1)]
    if kind == "CommInv":
        return ["X1", "X2", "X3"]
    if kind in ("T", "S"):
        return [f"X{j}" for j in range(1, g + 1)]
    names = [f"X{i}{j}" for i in range(1, g + 1) for j in range(1, g + 1)]
    if kind == "Uprime":
        names += [f"Y{i}{j}" for i in range(1, g + 1) for j in range(1, g + 1)]
    return names


def is_star_kind(kind):
    return kind in ("T", "S", "U")


def generator_texts(kind, g):
    """The defining relations of a built-in ideal, as expression text."""
    rng = range(1, g + 1)
    if kind == "Tprime":
        return [t for j in rng for t in (f"1 - X{j} Y{j}", f"1 - Y{j} X{j}")]
    if kind == "Sprime":
        return [" + ".join(f"X{j} Y{j}" for j in rng) + " - 1"]
    if kind == "CommInv":
        return ["1 - (X1 X2 - X2 X1) X3"]
    if kind == "T":
        return [t for j in rng for t in (f"1 - X{j}^* X{j}", f"1 - X{j} X{j}^*")]
    if kind == "S":
        return ["1 - " + " - ".join(f"X{j}^* X{j}" for j in rng)]
    if kind == "Uprime":
        left = [" + ".join(f"X{i}{k} Y{k}{j}" for k in rng) + (" - 1" if i == j else "")
                for i in rng for j in rng]
        right = [" + ".join(f"Y{i}{k} X{k}{j}" for k in rng) + (" - 1" if i == j else "")
                 for i in rng for j in rng]
        return left + right
    if kind == "U":
        left = [" + ".join(f"X{i}{k} X{j}{k}^*" for k in rng) + (" - 1" if i == j else "")
                for i in rng for j in rng]
        right = [" + ".join(f"X{k}{i}^* X{k}{j}" for k in rng) + (" - 1" if i == j else "")
                 for i in rng for j in rng]
        return left + right
    raise ValueError(f"unknown ideal kind {kind!r}")


# ---------------------------------------------------------------------------
# member: in-process is_member on built ideals
# ---------------------------------------------------------------------------

# The acceptance criterion-6 set plus Sprime and S at g = 4, 5.
MEMBER_IDEALS = (
    ("Tprime", 2), ("Sprime", 2), ("Sprime", 3), ("Uprime", 2), ("CommInv", 3),
    ("T", 2), ("S", 2), ("U", 2), ("Sprime", 4), ("Sprime", 5), ("S", 4), ("S", 5),
)
# Complexities (max cofactor length, terms) of the random_ideal_element
# skeletons.  They take the seeds 1000, 1001, ... in turn (as acceptance
# criterion 6 does), skipping a seed whose element is zero.
MEMBER_SKELETONS = ((1, 1), (1, 2), (1, 2), (2, 2), (2, 2))
# Gaussian rationals (re, im) for multipliers and added monomials.
SCALARS = (
    (1, 0), (-1, 0), (2, 0), (-3, 0), (Fraction(1, 2), 0), (Fraction(-2, 3), 0),
    (0, 1), (0, -2), (1, 1), (Fraction(3, 2), Fraction(-1, 2)),
)


@dataclass
class MemberItem:
    kind: str
    g: int
    poly: object  # ncrat NcPoly
    member: bool  # the label from construction


def member_corpus(seed, ideals, ncrat):
    """Members alpha * skeleton and non-members alpha * skeleton + gamma * w
    for a monomial w of length 2; ``ideals`` maps (kind, g) to the built
    ideal, ``ncrat`` is the imported package."""
    Scalar, NcPoly, Letter = ncrat.Scalar, ncrat.NcPoly, ncrat.Letter
    items = []
    for kind, g in MEMBER_IDEALS:
        ideal = ideals[(kind, g)]
        shape = random.Random(f"member/{kind}/{g}")
        values = random.Random(f"member/{seed}/{kind}/{g}")
        skeletons = []
        s = 1000
        for complexity in MEMBER_SKELETONS:
            while True:
                f = ncrat.random_ideal_element(ideal, seed=s, complexity=complexity)
                s += 1
                if not f.is_zero():
                    break
            skeletons.append(f)
        for f in skeletons:
            items.append(MemberItem(kind, g, f.scale(Scalar(*values.choice(SCALARS))), True))
        for f in skeletons[1:]:
            word = tuple(
                Letter(shape.randint(1, ideal.alphabet.size), ideal.star and shape.random() < 0.5)
                for _ in range(2)
            )
            extra = NcPoly.monomial(ideal.alphabet, Scalar(*values.choice(SCALARS)), word)
            items.append(MemberItem(kind, g, f.scale(Scalar(*values.choice(SCALARS))) + extra, False))
    return items


# ---------------------------------------------------------------------------
# zero-test: parse, compile, is_zero, minimize_scalar
# ---------------------------------------------------------------------------

# Base values that keep every template defined at scalar base points
# (all positive, and p*q != 1 since p, q > 1).
P_POOL = (Fraction(2), Fraction(3), Fraction(5, 2), Fraction(7, 3))
Q_POOL = (Fraction(3, 2), Fraction(4), Fraction(5, 3), Fraction(9, 4))
# Shifts k for the atom (k + X1) at (E12, E21); any k > 0 keeps the
# templates defined there.
K_POOL = (Fraction(1), Fraction(2), Fraction(3), Fraction(1, 2), Fraction(3, 2), Fraction(2, 3))
GAMMA_POOL = (Fraction(1), Fraction(2), Fraction(1, 3), Fraction(3, 2), Fraction(5))
# The entries of X inv(X) - I used at g = 3; fixed because their cost
# differs by 3x between entries.
G3_ENTRIES = ((1, 2), (3, 2))


def identity_templates(a, b):
    """Known rational identities in atoms a, b (as text)."""
    return (
        ("inverse", f"{a} {a}^-1 - 1"),
        ("hua", f"{a} - ({a}^-1 + ({b}^-1 - {a})^-1)^-1 - {a} {b} {a}"),
        ("push-through", f"{a} (1 + {b} {a})^-1 - (1 + {a} {b})^-1 {a}"),
        ("inverse-of-sum", f"({a} + {b})^-1 - {a}^-1 ({a}^-1 + {b}^-1)^-1 {b}^-1"),
        ("nested-2", f"(1 + (1 + {b})^-1)^-1 - (1 + {b}) (2 + {b})^-1"),
        ("nested-3", f"(1 + (1 + (1 + {b})^-1)^-1)^-1 - (2 + {b}) (3 + 2 {b})^-1"),
    )


@dataclass
class ZeroItem:
    name: str
    text: str
    alphabet: tuple  # ("x", g) or ("matrix", g)
    basepoint: dict  # letter name -> square matrix as rows of Fractions
    zero: bool  # the label from construction


def _fmt(q: Fraction) -> str:
    return str(q) if q >= 0 else f"({q})"


def _perturb(text, letters, shape, values):
    word = " ".join(shape.choice(letters) for _ in range(2))
    return f"{text} + {_fmt(values.choice(GAMMA_POOL))} {word}"


def _letters(text):
    return sorted(set(re.findall(r"X\d+", text)))


def _scalar_bp(values, text):
    return {name: [[values[name]]] for name in _letters(text)}


def zero_test_corpus(seed, matrix_inverse_entries):
    """Every identity template twice at scalar base points, as it is and
    with two perturbations, and twice at (E12, E21), as it is and with one
    perturbation; then entries of X inv(X) - I at g = 2, 3.  The cheap
    scalar perturbations are doubled so that the median of the negative
    answers falls inside one cluster of similar costs.  Every item draws its own base-point values,
    so that a seed's values average out over the corpus.

    ``matrix_inverse_entries(g)`` gives the g x g grid of entry texts of
    the symbolic inverse X^-1 over the letters X11..Xgg."""
    shape, values = random.Random("zero-test"), random.Random(f"zero-test/{seed}")
    items = []
    for _ in range(2):
        for name, text in identity_templates("X1", "X2"):
            for label, t in ((True, text), (False, _perturb(text, ("X1", "X2"), shape, values)),
                             (False, _perturb(text, ("X1", "X2"), shape, values))):
                base = {"X1": values.choice(P_POOL), "X2": values.choice(Q_POOL)}
                items.append(ZeroItem(f"{name}@scalar", t, ("x", 2), _scalar_bp(base, t), label))

    e12 = [[Fraction(0), Fraction(1)], [Fraction(0), Fraction(0)]]
    e21 = [[Fraction(0), Fraction(0)], [Fraction(1), Fraction(0)]]
    for _ in range(2):
        for index in range(len(identity_templates("a", "b"))):
            for label in (True, False):
                k = _fmt(values.choice(K_POOL))
                name, text = identity_templates("(X1 + X2)", f"({k} + X1)")[index]
                t = text if label else _perturb(text, ("X1", "X2"), shape, values)
                bp = {"X1": e12, "X2": e21} if "X2" in t else {"X1": e12}
                items.append(ZeroItem(f"{name}@E12,E21", t, ("x", 2), bp, label))

    for g, entries, perturbed in (
        (2, [(i, j) for i in (1, 2) for j in (1, 2)], {(1, 2), (2, 1)}),
        (3, list(G3_ENTRIES), {(3, 2)}),
    ):
        inv = matrix_inverse_entries(g)
        letters = [f"X{i}{j}" for i in range(1, g + 1) for j in range(1, g + 1)]
        for i, j in entries:
            c = values.choice(P_POOL + Q_POOL)
            base = {f"X{a}{b}": (c if a == b else Fraction(0)) for a in range(1, g + 1) for b in range(1, g + 1)}
            text = " + ".join(f"X{i}{m} ({inv[m - 1][j - 1]})" for m in range(1, g + 1))
            text += " - 1" if i == j else ""
            t = _perturb(text, letters, shape, values) if (i, j) in perturbed else text
            items.append(ZeroItem(f"X inv(X) - I [{i},{j}] g={g}", t, ("matrix", g),
                                  _scalar_bp(base, t), (i, j) not in perturbed))
    return items


# ---------------------------------------------------------------------------
# cli: fresh `python -m ncrat.cli` processes
# ---------------------------------------------------------------------------

CLI_IDEALS = (("Tprime", 2), ("Sprime", 2), ("Uprime", 2), ("CommInv", 3), ("T", 2), ("S", 2), ("U", 2))
# Witness searches: CommInv three times, so that after the one U(g=3)
# invocation the upper decile of a round is a cluster of like costs and
# op_p90_ms does not sit on a gap between unlike invocations.
CLI_WITNESS_IDEALS = CLI_IDEALS + (("CommInv", 3), ("CommInv", 3))
SMALL_COEFFS = ("1", "2", "3", "1/2", "2/3", "(-1)", "(-2)")


def _coeff(values):
    return values.choice(SMALL_COEFFS)


def _word(shape, kind, g, length):
    names = letter_names(kind, g)
    star = is_star_kind(kind)
    return " ".join(
        shape.choice(names) + ("^*" if star and shape.random() < 0.5 else "") for _ in range(length)
    )


def cli_member_text(shape, values, kind, g, terms=2):
    """c1 w1 (gen) v1 + c2 w2 (gen') v2 with cofactor words of length <= 1."""
    gens = generator_texts(kind, g)
    parts = []
    for _ in range(terms):
        w = _word(shape, kind, g, shape.randint(0, 1))
        v = _word(shape, kind, g, shape.randint(0, 1))
        parts.append(" ".join(x for x in (_coeff(values), w, f"({shape.choice(gens)})", v) if x))
    return " + ".join(parts)


def cli_non_member_text(shape, values, kind, g):
    return f"{cli_member_text(shape, values, kind, g)} + {_coeff(values)} {_word(shape, kind, g, 2)}"


@dataclass
class CliItem:
    name: str
    args: list  # arguments after `python -m ncrat.cli`
    exit_code: int  # expected, from construction (0 yes, 1 the negative answer)
    negative: bool
    check: dict = field(default_factory=dict)  # what the checker re-derives


def cli_corpus(seed, workdir):
    """The invocations of one round.  Certificate and base-point files are
    written to ``workdir``."""
    shape, values = random.Random("cli"), random.Random(f"cli/{seed}")
    items = []
    for kind, g in CLI_IDEALS:
        text = cli_member_text(shape, values, kind, g)
        items.append(CliItem(f"member {kind} g={g}",
                             ["member", "--ideal", kind, "--g", str(g), "--poly", text, "--json"],
                             0, False, {"type": "member", "kind": kind, "g": g, "poly": text}))
    for kind, g in CLI_WITNESS_IDEALS:
        text = cli_non_member_text(shape, values, kind, g)
        items.append(CliItem(f"member --witness {kind} g={g}",
                             ["member", "--ideal", kind, "--g", str(g), "--poly", text, "--json",
                              "--witness", "--seed", str(values.randrange(10**6))],
                             1, True, {"type": "member", "kind": kind, "g": g, "poly": text,
                                       "witness": True}))

    p, q = values.choice(P_POOL), values.choice(Q_POOL)
    name, text = identity_templates("X1", "X2")[1]
    items.append(CliItem(f"zero-test {name}@scalar",
                         ["zero-test", "--expr", text, "--g", "2", "--basepoint", f"scalar:{p},{q}", "--json"],
                         0, False, {"type": "zero-test", "expr": text}))
    bp_path = os.path.join(workdir, "basepoint_e12_e21.json")
    with open(bp_path, "w") as fh:
        json.dump([_exact_json([[0, 1], [0, 0]]), _exact_json([[0, 0], [1, 0]])], fh)
    name, text = identity_templates("(X1 + X2)", f"({_fmt(values.choice(K_POOL))} + X1)")[2]
    text = _perturb(text, ("X1", "X2"), shape, values)
    items.append(CliItem(f"zero-test perturbed {name}@E12,E21",
                         ["zero-test", "--expr", text, "--g", "2", "--basepoint", f"file:{bp_path}", "--json"],
                         1, True, {"type": "zero-test", "expr": text}))

    text = cli_member_text(shape, values, "CommInv", 3)
    items.append(CliItem("bound CommInv", ["bound", "--ideal", "CommInv", "--g", "3", "--poly", text, "--json"],
                         0, False, {"type": "bound", "poly": text}))

    c = _coeff(values)
    text = f"{c} X1 X2 - {c} X2 X1"
    items.append(CliItem("falsify commutator on unitaries",
                         ["falsify", "--poly", text, "--domain", "unitaries", "--g", "2", "--sizes", "1..3",
                          "--seed", str(values.randrange(10**6)), "--json"],
                         1, True, {"type": "falsify", "kind": "T", "g": 2, "poly": text}))
    text = f"{c} X1^* X1 + {c} X2^* X2 - {c}"
    items.append(CliItem("falsify sphere relation on spherical tuples",
                         ["falsify", "--poly", text, "--domain", "spherical", "--g", "2", "--sizes", "1..3",
                          "--seed", str(values.randrange(10**6)), "--json"],
                         0, False, {"type": "falsify", "kind": "S", "g": 2, "poly": text}))

    square = f"{_coeff(values)} X1 + {_coeff(values)} X2^*"
    for valid in (True, False):
        make = cli_member_text if valid else cli_non_member_text
        remainder = make(shape, values, "T", 2)
        cert = {"polynomial": f"({square})^* ({square}) + {remainder}",
                "squares": [square], "remainder": remainder}
        path = os.path.join(workdir, f"cert_{'valid' if valid else 'invalid'}.json")
        with open(path, "w") as fh:
            json.dump(cert, fh)
        items.append(CliItem(f"verify-sohs {'valid' if valid else 'invalid'} T g=2",
                             ["verify-sohs", "--cert", path, "--ideal", "T", "--g", "2", "--json"],
                             0 if valid else 1, not valid,
                             {"type": "verify-sohs", "cert": cert, "valid": valid}))

    text = cli_member_text(shape, values, "U", 3)
    items.append(CliItem("member U g=3", ["member", "--ideal", "U", "--g", "3", "--poly", text, "--json"],
                         0, False, {"type": "member", "kind": "U", "g": 3, "poly": text}))
    return items


WARMUP_ARGS = ["zero-test", "--expr", "X1 X1^-1 - 1", "--g", "1", "--basepoint", "scalar:1", "--json"]


def _exact_json(rows):
    return {"rows": len(rows), "cols": len(rows[0]),
            "entries": [[str(x), "0"] for row in rows for x in row]}
