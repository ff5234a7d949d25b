"""Weyl orbits of minuscule weights as graded minimal coset representatives.

The orbit of a minuscule fundamental weight carries three structures at
once: the full weight set of the irreducible representation (every
multiplicity is 1), the Schubert basis of the associated flag manifold,
and the crystal graph whose edges lower a weight by one simple root
exactly when the corresponding coroot pairing is 1.

Elements are stored in a canonical order, sorted by (length,
lexicographic pairing vector), so that every matrix built downstream is
reproducible byte for byte.  Each element records a reduced word for
its coset representative, accumulated along the generating BFS; the
word is one of possibly many reduced words, but the represented group
element is unique, which is all the divisor-product oracle needs.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from operator import mul
from typing import Optional, Sequence

from .rootsys import RootSystem, RootVec, Weight, diagram_involution, minuscule_weights


@dataclass(frozen=True)
class OrbitElement:
    """One weight of the orbit with a reduced word for its coset representative.

    word = (j_1, ..., j_r) encodes the element s_{j_r} ... s_{j_1}: the
    reflections apply left to right, outermost last, and r equals the
    Bruhat length.
    """

    weight: Weight
    word: tuple[int, ...]
    length: int


class Orbit:
    """The W-orbit of a minuscule fundamental weight, canonically ordered.

    Immutable after construction; safe to share and memoized by
    ``orbit``.
    """

    def __init__(self, rs: RootSystem, weight_index: int, elements: Sequence[OrbitElement]):
        self.rs = rs
        self.weight_index = weight_index
        self.elements = tuple(elements)
        self.index_of = {el.weight: pos for pos, el in enumerate(self.elements)}
        self.dim_complex = self.elements[-1].length
        self.size = len(self.elements)

    @property
    def highest_weight(self) -> Weight:
        return self.elements[0].weight

    def element(self, mu: Weight) -> OrbitElement:
        pos = self.index_of.get(mu)
        if pos is None:
            raise ValueError(f"{mu} is not a weight of the orbit ({self.rs}, w{self.weight_index})")
        return self.elements[pos]

    def __repr__(self) -> str:
        return f"Orbit({self.rs}, w{self.weight_index}, size={self.size})"


@lru_cache(maxsize=None)
def orbit(rs: RootSystem, i: int, j_order: Optional[tuple[int, ...]] = None) -> Orbit:
    """BFS enumeration of the orbit of the i-th fundamental weight.

    ``j_order`` overrides the exploration order of the simple
    reflections; it changes which reduced word gets recorded for an
    element but nothing else, and exists so tests can demonstrate that.
    """
    if i not in minuscule_weights(rs):
        raise ValueError(f"fundamental weight {i} of {rs} is not minuscule")
    n = rs.rank
    order = tuple(range(1, n + 1)) if j_order is None else j_order
    if sorted(order) != list(range(1, n + 1)):
        raise ValueError("j_order must be a permutation of the simple-root indices")

    alpha_w = rs.simple_root_weights
    current: dict[Weight, tuple[int, ...]] = {rs.fundamental_weight(i): ()}
    seen: set[Weight] = set()
    elements: list[OrbitElement] = []
    depth = 0
    while current:
        for w in sorted(current):
            elements.append(OrbitElement(w, current[w], depth))
        seen.update(current)
        nxt: dict[Weight, tuple[int, ...]] = {}
        for w in sorted(current):
            for j in order:
                if w.pairings[j - 1] == 1:
                    nu = w - alpha_w[j - 1]
                    assert nu not in seen, "lowering must increase length"
                    if nu not in nxt:
                        nxt[nu] = current[w] + (j,)
        current = nxt
        depth += 1
    return Orbit(rs, i, elements)


def length(orb: Orbit, mu: Weight) -> int:
    """Bruhat length of mu's coset representative, measured independently.

    Solves lambda_i - mu in the simple-root basis through the integer
    adjugate and determinant of the Cartan matrix; every coordinate must
    divide exactly and come out nonnegative, and their sum is the
    length.  This deliberately does not consult the BFS words or the
    stored lengths, so it can act as an oracle against them.
    """
    if mu not in orb.index_of:
        raise ValueError(f"{mu} is not in the orbit")
    rs = orb.rs
    det = rs.cartan_det
    diff = [a - b for a, b in zip(orb.highest_weight.pairings, mu.pairings)]
    total = 0
    for row in rs.cartan_adjugate:
        x, r = divmod(sum(map(mul, row, diff)), det)
        if r or x < 0:
            raise AssertionError(
                f"{mu} does not differ from the top weight by a nonnegative root sum"
            )
        total += x
    return total


def crystal_edges(orb: Orbit) -> list[tuple[Weight, int, Weight]]:
    """All lowering edges (mu, j, mu - alpha_j), with (mu, alpha_j^vee) = 1."""
    rs = orb.rs
    edges = []
    for el in orb.elements:
        for j in range(1, rs.rank + 1):
            if el.weight.pairings[j - 1] == 1:
                target = el.weight - rs.simple_root_weights[j - 1]
                assert target in orb.index_of
                edges.append((el.weight, j, target))
    return edges


def apply_word(rs: RootSystem, word: Sequence[int], alpha: RootVec) -> RootVec:
    """Apply the reflections of a stored word (outermost last) to a root."""
    beta = alpha
    for j in word:
        beta = rs.simple_reflect_root(beta, j)
    assert rs.is_root(beta)
    return beta


def apply_word_to_weight(rs: RootSystem, word: Sequence[int], mu: Weight) -> Weight:
    """Same composite reflection as ``apply_word`` acting on a weight."""
    w = mu
    for j in word:
        p = w.pairings[j - 1]
        if p:
            w = w - rs.simple_root_weights[j - 1].scaled(p)
    return w


def poincare_dual(orb: Orbit, mu: Weight) -> Weight:
    """The Poincare-dual weight: the longest Weyl element acting as -theta.

    theta is the diagram involution, so in pairing coordinates the dual
    of m is k -> -m[theta(k)].  Validated downstream by the length
    complementarity and the Frobenius symmetry of the quantum operator.
    """
    if mu not in orb.index_of:
        raise ValueError(f"{mu} is not in the orbit")
    perm = diagram_involution(orb.rs)
    dual = Weight(tuple(-mu.pairings[perm[k] - 1] for k in range(orb.rs.rank)))
    assert dual in orb.index_of
    return dual
