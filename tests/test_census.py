"""Mutation census: which row of ``verify`` catches which single-entry mutation of A(q).

Every nonzero entry of A(q) on the default sweep is mutated three ways,
one entry at a time, and every row of ``cli.ROWS`` runs on each mutant.
The rows handed the operator must also return the very Check, witness
text included, of their PolyMatrix references in ``helpers``.
"""
from collections import Counter

from helpers import reference_operator_rows, sweep_orbits
from minflag.cli import ROWS
from minflag.minrep import quantum_operator

MUTATIONS = {
    "delete": lambda p: {},
    "flip": lambda p: {e: -c for e, c in p.items()},
    "move": lambda p: {1 - e: c for e, c in p.items()},  # q^e <-> q^(1-e)
}

# (mutation, row) -> mutants caught, out of 918 per mutation; the 42
# entries that frobenius misses under each kind are their own
# Poincare-dual partner, so the entry and its dual change together
CENSUS = {
    ("delete", "main-theorem"): 918, ("delete", "frobenius"): 876,
    ("flip", "main-theorem"): 918, ("flip", "frobenius"): 876,
    ("move", "main-theorem"): 918, ("move", "frobenius"): 876, ("move", "grading"): 918,
}

# the rows handed the operator; every other row must ignore it
OPERATOR_ROWS = {"main-theorem", "frobenius", "grading"}


def test_mutation_census(fresh_memos):
    caught = Counter()
    entries = 0
    for orb in sweep_orbits():
        a = quantum_operator(orb)
        reference = reference_operator_rows(orb)
        nonzero = sorted(a.entries.items())
        entries += len(nonzero)
        for kind, mutate in MUTATIONS.items():
            for (i, j), p in nonzero:
                mutant = a.with_entry(i, j, mutate(p))
                for name, row in ROWS:
                    check = row(orb, mutant)
                    if not check:
                        caught[kind, name] += 1
                    if name in reference:
                        assert check == reference[name](mutant), (orb.rs, orb.weight_index, kind, i, j, name)
    assert entries == 918
    assert dict(caught) == CENSUS
    names = {name for name, _row in ROWS}
    assert OPERATOR_ROWS <= names and set(reference) == OPERATOR_ROWS
    assert all(sum(caught[kind, name] for kind in MUTATIONS) for name in OPERATOR_ROWS)
    assert not any(caught[kind, name] for kind in MUTATIONS for name in names - OPERATOR_ROWS)
