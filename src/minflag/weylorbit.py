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
element is unique.  Two things read the words: the ``orbit`` emitter
writes them out, and the tests check the oracle's own transport against
them.  The divisor-product oracle and ``length`` read none of them.
Each element's Weight is made once, with the key the BFS stepped to.
``lowering_maps`` keeps the latest orbit's E-(0..l), stepped by key
through ``Orbit.lowered``, which the crystal emitters, A(q) and the
bracket row share, and ``dual_positions`` the latest orbit's
Poincare-dual positions, which the Frobenius row and the
``verify --self-test-corrupt`` mutation share.

``expected_orbit_size`` holds the closed-form orbit sizes |W/W_P|, the
one table of them: ``qchev.orbit_size_check``, the ``orbit-size`` row of
``verify``, checks the BFS count against it, and the Satake checks read
the Grassmannian, quadric and spinor sizes from it.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import comb
from operator import add, mul, sub
from typing import Sequence

from .rootsys import (ORBIT_BOUND, LieType, RootSystem, RootVec, Weight, _keyed_weight, _require_int,
                      diagram_involution, node_pairings)


@dataclass(frozen=True, slots=True)
class OrbitElement:
    """One weight of the orbit with a reduced word for its coset representative.

    word = (j_1, ..., j_r) encodes the element s_{j_r} ... s_{j_1}: the
    reflections apply left to right, outermost last, and r equals the
    Bruhat length.  Slotted: every memoized orbit keeps one per element.
    """

    weight: Weight
    word: tuple[int, ...]
    length: int


class Orbit:
    """The W-orbit of a minuscule fundamental weight, canonically ordered.

    ``keys`` holds each element's ``Weight.key`` and ``index_of`` maps
    each key to its position: the one weight-to-position map of the
    package.  Every pairing of every element must lie in
    -ORBIT_BOUND..ORBIT_BOUND, so an element's key plus or minus a
    root's names the target weight exactly; ``position`` confirms a key
    hit on a caller's weight by its pairings.  ``neighbour(pos, sign,
    j)`` steps from the element at pos to mu - alpha_j or mu + alpha_j
    for a node j = 0..l of the extended diagram, alpha_0 = -theta, and
    returns the target's position; it names a missing target.
    ``lowered(pos, j)`` is the unchecked step down by key that the two
    lowering builders take, a miss left to ``neighbour``.  No
    elements, or an element of another rank than rs, raise ValueError.
    Immutable after construction; safe to share and memoized by
    ``orbit``.
    """

    def __init__(self, rs: RootSystem, weight_index: int, elements: Sequence[OrbitElement]):
        self.rs = rs
        self.weight_index = weight_index
        self.elements = tuple(elements)
        if not self.elements:
            raise ValueError(f"an orbit of ({rs}, w{weight_index}) needs at least one element")
        index: dict[int, int] = {}
        for pos, el in enumerate(self.elements):
            w = el.weight.pairings
            if len(w) != rs.rank:
                raise ValueError(f"the orbit weight {el.weight} has {len(w)} pairings, but {rs} has rank {rs.rank}")
            if min(w) < -ORBIT_BOUND or max(w) > ORBIT_BOUND:
                raise AssertionError(f"the orbit weight {el.weight} has a pairing outside "
                                     f"-{ORBIT_BOUND}..{ORBIT_BOUND}: its key would not be exact")
            first = index.setdefault(el.weight.key, pos)
            if first != pos:
                raise AssertionError(f"the orbit weight {el.weight} at position {pos} has the key of "
                                     f"{self.elements[first].weight} at position {first}")
        self.keys = tuple(index)
        self.index_of = index
        self.dim_complex = self.elements[-1].length
        self.size = len(self.elements)

    @property
    def highest_weight(self) -> Weight:
        return self.elements[0].weight

    def neighbour(self, pos: int, sign: str, j: int) -> int:
        """The position of mu - alpha_j or mu + alpha_j, mu the element at pos; the target must be in the orbit.

        sign is "-" or "+"; j is a node 0..rank, node 0 the affine root
        alpha_0 = -theta, so mu - alpha_0 = mu + theta.  Raises ValueError
        naming a position outside 0..size-1 or a node outside 0..rank
        (anything but an int, a bool included, for either) or any other
        sign, and AssertionError naming mu, the root and the target when
        the target is missing.
        """
        rs = self.rs
        if type(pos) is not int or not 0 <= pos < self.size:
            raise ValueError(f"position {pos} out of range for {self}")
        if sign not in ("-", "+"):
            raise ValueError(f"sign must be '-' or '+', not {sign!r}")
        if type(j) is not int or not 0 <= j < len(rs.node_keys):
            raise ValueError(f"simple root index {j} out of range")
        t = self.lowered(pos, j) if sign == "-" else self.index_of.get(self.keys[pos] + rs.node_keys[j])
        if t is None:
            mu = self.elements[pos].weight
            nu = Weight(tuple(map(sub if sign == "-" else add, mu.pairings, rs.node_weights[j].pairings)))
            raise AssertionError(f"{mu} {sign} alpha_{j} = {nu} is not in the orbit")
        return t

    def lowered(self, pos: int, j: int) -> int | None:
        """The position of mu - alpha_j, mu the element at pos, or None if it is not in the orbit.

        Unchecked: pos and j must be in range.  A caller hands a None to
        ``neighbour(pos, "-", j)``, which names the missing target.
        """
        return self.index_of.get(self.keys[pos] - self.rs.node_keys[j])

    def position(self, mu: Weight) -> int:
        """mu's position: the package's one membership test, a ValueError for a foreign weight.

        A key hit is confirmed by the pairings: outside -7..7 two weights
        can share a key.
        """
        pos = self.index_of.get(mu.key)
        if pos is None or self.elements[pos].weight.pairings != mu.pairings:
            raise ValueError(f"{mu} is not a weight of the orbit ({self.rs}, w{self.weight_index})")
        return pos

    def __repr__(self) -> str:
        return f"Orbit({self.rs}, w{self.weight_index}, size={self.size})"


def expected_orbit_size(lt: LieType, i: int) -> int:
    """The closed-form size |W/W_P| of the orbit of lambda_i, an oracle against the BFS count.

    C(n+1, i) for the Grassmannians, 2^n for the B_n spinor variety, 2n
    for the projective space of C_n and the quadric of D_n, 2^(n-1) for
    the D_n spinor varieties, 27 for the Cayley plane and 56 for the
    Freudenthal variety.  Any other case raises ValueError, and an index
    that is not an int, a bool included, TypeError.
    """
    _require_int(i, "fundamental weight index")
    n = lt.rank
    if lt.family == "A" and 1 <= i <= n:
        return comb(n + 1, i)
    if lt.family == "B" and i == n:
        return 2**n
    if lt.family in ("C", "D") and i == 1:
        return 2 * n
    if lt.family == "D" and i in (n - 1, n):
        return 2 ** (n - 1)
    if lt.family == "E" and n == 6 and i in (1, 6):
        return 27
    if lt.family == "E" and n == 7 and i == 1:
        return 56
    raise ValueError(f"no closed-form size for ({lt}, {i})")


@lru_cache(maxsize=None, typed=True)
def orbit(rs: RootSystem, i: int) -> Orbit:
    """BFS enumeration of the orbit of the i-th fundamental weight.

    Each element records the first reduced word the BFS reaches it by,
    simple reflections tried in index order.  The frontier and the seen
    set are keyed by ``Weight.key``, a step down being one subtraction of
    the simple root's key; each level is sorted by pairing tuple, which
    sorts as its Weights do.  A weight's pairing tuple is made once, when
    the BFS first reaches it, and its Weight, given the key the BFS holds
    (exact by linearity), and OrbitElement as its level is recorded.
    The memo is typed, and
    ``RootSystem.minuscule_weight`` raises ValueError for an index that
    is not minuscule and TypeError for one that is not an int, so a bool
    or float index equal to a minuscule one neither shares its entry nor
    makes an orbit.
    """
    alpha = rs.node_weights
    top = rs.minuscule_weight(i)
    # key -> (pairings, word, key): a level sorts by its unique pairings
    current: dict[int, tuple[tuple[int, ...], tuple[int, ...], int]] = {top.key: (top.pairings, (), top.key)}
    seen: set[int] = set()
    elements: list[OrbitElement] = []
    depth = 0
    while current:
        level = sorted(current.values())
        elements.extend(OrbitElement(_keyed_weight(w, key), word, depth) for w, word, key in level)
        seen.update(current)
        nxt: dict[int, tuple[tuple[int, ...], tuple[int, ...], int]] = {}
        for w, word, key in level:
            for j, m in enumerate(w, 1):
                if m == 1:
                    nu = key - alpha[j].key
                    if nu in seen:
                        raise AssertionError(
                            f"lowering {Weight(w)} by alpha_{j} gives {Weight(tuple(map(sub, w, alpha[j].pairings)))}, "
                            "already met: lowering must increase length"
                        )
                    if nu not in nxt:
                        nxt[nu] = (tuple(map(sub, w, alpha[j].pairings)), word + (j,), nu)
        current = nxt
        depth += 1
    return Orbit(rs, i, elements)


def length(orb: Orbit, mu: Weight) -> int:
    """Bruhat length of mu's coset representative, measured independently.

    Solves lambda_i - mu in the simple-root basis through the integer
    adjugate and determinant of the Cartan matrix; every coordinate must
    divide exactly and come out nonnegative, and their sum is the
    length.  This deliberately does not consult the BFS words or the
    stored lengths, so it can act as an oracle against them.  A weight
    outside the orbit raises ``Orbit.position``'s ValueError.
    """
    orb.position(mu)
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


@lru_cache(maxsize=1)
def lowering_maps(orb: Orbit) -> list[dict[int, tuple[int, int]]]:
    """E-(0..l) in one pass, map j for node j: mu -> (mu - alpha_j, 1) exactly when (mu, alpha_j^vee) = 1.

    Map 0 is E_psi, alpha_0 = -theta.  Each source's targets come from
    ``Orbit.lowered``; only a miss calls ``Orbit.neighbour``, for its
    text.  Only the latest orbit's maps are kept, shared by every
    reader: read them, never change them.
    """
    maps: list[dict] = [{} for _ in orb.rs.node_keys]
    for pos, el in enumerate(orb.elements):
        for j, m in enumerate(node_pairings(orb.rs, el.weight)):
            if m == 1:
                t = orb.lowered(pos, j)
                maps[j][pos] = (orb.neighbour(pos, "-", j) if t is None else t, 1)
    return maps


def crystal_edges(orb: Orbit) -> list[tuple[Weight, int, Weight]]:
    """The lowering edges (mu, j, mu - alpha_j) of nodes 1..l by source position, then j: a new list per call."""
    w, maps = orb.elements, lowering_maps(orb)[1:]
    return [(w[c].weight, j, w[m[c][0]].weight) for c in range(orb.size) for j, m in enumerate(maps, 1) if c in m]


def apply_word(rs: RootSystem, word: Sequence[int], alpha: RootVec) -> RootVec:
    """Apply the reflections of a stored word (outermost last) to a root.

    alpha must be a root: anything else raises AssertionError naming the
    word and alpha before any reflection.  A letter outside 1..rank, or
    anything but an int (a bool included), raises ValueError naming it.
    Each step is then a lookup in ``rs.reflection_table``, which maps a
    root to the interned reflected root, so every step stays on a root.
    """
    if not rs.is_root(alpha):
        raise AssertionError(f"word {word} cannot act on {alpha}, which is not a root of {rs}")
    table = rs.reflection_table
    n = len(table)
    for j in word:
        if type(j) is not int or not 0 < j <= n:
            raise ValueError(f"simple root index {j} out of range")
        alpha = table[j - 1][alpha.coeffs]
    return alpha


def poincare_dual(orb: Orbit, mu: Weight) -> Weight:
    """The Poincare-dual weight: the longest Weyl element acting as -theta.

    theta is the diagram involution, so in pairing coordinates the dual
    of m is k -> -m[theta(k)].  Validated downstream by the length
    complementarity and the Frobenius symmetry of the quantum operator.
    A weight outside the orbit raises ``Orbit.position``'s ValueError.
    """
    orb.position(mu)
    perm = diagram_involution(orb.rs)
    dual = Weight(tuple(-mu.pairings[perm[k] - 1] for k in range(orb.rs.rank)))
    if dual.key not in orb.index_of:
        raise AssertionError(f"the dual {dual} of {mu} is not in the orbit")
    return dual


@lru_cache(maxsize=1)
def dual_positions(orb: Orbit) -> tuple[int, ...]:
    """The position of each element's ``poincare_dual``, by canonical index.

    Only the latest orbit's tuple is kept, so ``poincare_dual`` runs
    once per element however often the Frobenius row and the mutation
    helper of one orbit read it.
    """
    return tuple(orb.position(poincare_dual(orb, el.weight)) for el in orb.elements)
