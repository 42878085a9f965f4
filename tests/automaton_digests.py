"""Digests of the automata the benchmark corpora compile and minimize.

    python tests/automaton_digests.py SEED

For the perfbench member and zero-test corpora of SEED (read from
perfbench/corpus.py, unchanged) and for the built-in resolvent
representations, this prints one line per group: the group's name, the
number of automata in it and a SHA-256 digest of all of them, then the
same for every group together.  An automaton enters as its state count
and the exact entries of C, of each letter matrix and of B, so two
checkouts print the same lines exactly when they build the same
automata entry for entry, with the same verdicts.

The groups are the resolvent reps of the built-in ideals, the member
corpus (the oracle rep of each item, its zero verdict and its minimized
automaton), the zero-test identities, and the zero-test entries of
X inv(X) - I, whose text ncrat's symbolic inverse writes, so they change
when it does.  Run it on two checkouts and compare the output; it is a
script, not a test, and pytest does not collect it.
"""

import hashlib
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "perfbench")]

import corpus  # noqa: E402
import ncrat  # noqa: E402

# The ideals of both in-process corpora and the CLI corpus, and the
# larger U and Uprime builds.
RESOLVENT_IDEALS = sorted(
    set(corpus.MEMBER_IDEALS) | set(corpus.CLI_IDEALS) | {("Uprime", 3), ("U", 3), ("U", 4)}
)


def _scalar(x) -> str:
    return f"{x.re},{x.im}"


def automaton_text(rep) -> str:
    """The state count and exact entries of C, each A_l and B."""
    parts = [f"m={rep.m} D={rep.states}", " ".join(_scalar(x) for x in rep.C.entries)]
    for mat in rep.A:
        parts.append(";".join(
            f"{i}:" + " ".join(f"{j}={_scalar(x)}" for j, x in sorted(row.items()))
            for i, row in sorted(mat.rows.items())
        ))
    parts.append(" ".join(_scalar(x) for x in rep.B.entries))
    return "|".join(parts)


class Group:
    def __init__(self, name):
        self.name, self.count, self.hash = name, 0, hashlib.sha256()

    def add(self, rep, *facts):
        self.count += 1
        self.hash.update((automaton_text(rep) + "|" + repr(facts) + "\n").encode())

    def line(self) -> str:
        return f"{self.name}: {self.count} automata, {self.hash.hexdigest()}"


def resolvent_group(ideals) -> Group:
    group = Group("resolvents")
    for key in RESOLVENT_IDEALS:
        ideal = ideals.get(key) or ncrat.builtin_ideal(*key)
        for letter, rep in ideal.resolvent_reps.items():
            group.add(rep, key, letter.index, letter.starred)
    return group


def member_group(seed, ideals) -> Group:
    group = Group("member")
    for item in corpus.member_corpus(seed, ideals, ncrat):
        rep = ideals[(item.kind, item.g)].oracle_rep(item.poly)
        small, d_min = ncrat.minimize_scalar(rep)
        group.add(rep, ncrat.is_zero(rep))
        group.add(small, d_min)
    return group


def zero_test_groups(seed):
    alphabets = {("x", 2): ncrat.Alphabet.x(2), ("matrix", 2): ncrat.Alphabet.matrix(2),
                 ("matrix", 3): ncrat.Alphabet.matrix(3)}

    def inverse_entries(g):
        inv = ncrat.symbolic_matrix_inverse(g, alphabets[("matrix", g)])
        return [[ncrat.format_expression(e) for e in row] for row in inv]

    identities, inverses = Group("zero-test identities"), Group("zero-test X inv(X) - I")
    for item in corpus.zero_test_corpus(seed, inverse_entries):
        alph = alphabets[item.alphabet]
        bp = ncrat.BasePoint.from_mapping({
            alph.letter(name): ncrat.ExactMatrix.from_rows(rows)
            for name, rows in item.basepoint.items()
        })
        rep = ncrat.compile_expression(ncrat.parse_expression(item.text, alph), bp)
        small, d_min = ncrat.minimize_scalar(rep)
        group = inverses if item.name.startswith("X inv(X)") else identities
        group.add(rep, item.name, ncrat.is_zero(rep))
        group.add(small, d_min)
    return [identities, inverses]


def main(argv) -> int:
    if len(argv) != 2 or not argv[1].lstrip("-").isdigit():
        print(__doc__.strip().splitlines()[2].strip(), file=sys.stderr)
        return 2
    seed = int(argv[1])
    ideals = {key: ncrat.builtin_ideal(*key) for key in corpus.MEMBER_IDEALS}
    groups = [resolvent_group(ideals), member_group(seed, ideals), *zero_test_groups(seed)]
    every = hashlib.sha256()
    for group in groups:
        print(group.line())
        every.update(group.line().encode())
    print(f"all: {sum(g.count for g in groups)} automata, {every.hexdigest()}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
