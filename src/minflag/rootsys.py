"""Exact root-system arithmetic for the simple Lie types A through G.

Coordinate conventions, fixed package-wide:

* The invariant form is normalized so that short roots have squared
  length 2.  The symmetrizers d_j = (alpha_j, alpha_j)/2 are then the
  minimal integers: 1 on short roots and on every root of a
  simply-laced type, 2 on long ones (types B, C, F) and 3 on the long
  root of G2.  Adjacent simple roots have inner product -max(d_j, d_k),
  so a[k][j] = -max(d_j, d_k) / d_k, and the Cartan matrix is
  determined by the Dynkin diagram together with the d_j.
* A root is an integer coefficient vector in the simple-root basis
  (RootVec).  A weight is an integer vector of pairings against the
  simple coroots (Weight).  The Cartan matrix is the single bridge
  between the two coordinate systems: cartan[k][j] pairs simple root j
  against simple coroot k, so root -> weight coordinates is the
  matrix-vector product cartan . coeffs.
* Simple-root and fundamental-weight indices are 1-based in the public
  API, matching the usual Dynkin-diagram labels.  Node 0 is the affine
  simple root alpha_0 = -theta, theta the highest root, with coroot
  alpha_0^vee = -theta^vee: the steps of an orbit are indexed by the
  nodes 0..l of the extended diagram, and ``node_pairings`` gives
  (mu, alpha_j^vee) for all of them.

All arithmetic is exact and runs on integers only: each Cartan entry
is one exact integer division of the diagram's symmetrizers, and the
symmetrizability check compares d_k a[k][j] with d_j a[j][k] directly.
Every root stores its coroot in the simple-coroot basis and its pairing
tuple C . coeffs.  Both follow the roots through the reflection
closure, which runs on integer tuples, so the coroots are integral by
construction, and each is checked to pair to 2 with its root.  A
coroot pairing is then an integer dot product.  One fraction-free
elimination gives the integer determinant and adjugate of the Cartan
matrix: the root coordinates of a weight w are (adj . w) / det, one
exact integer division per coordinate.

A weight's key, sum_k p_k 16^k over its pairings p, is set once, when
the Weight is made (the orbit BFS hands over the key it stepped to),
and is linear:
key(mu - beta) = key(mu) - key(beta).  With signed base-16 digits it is
injective on vectors whose pairings all lie in -7..7.  Every root's
pairings lie in -3..3, asserted once per root system, and
``weylorbit.Orbit`` holds its weights to -4..4, so an orbit weight plus
or minus a root is found in an orbit by one addition and one lookup of
its key.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from operator import mul, sub

FAMILIES = ("A", "B", "C", "D", "E", "F", "G")

KEY_BASE = 16
# the largest pairing of a root, and of an orbit weight: their sum stays below KEY_BASE / 2
ROOT_BOUND = 3
ORBIT_BOUND = KEY_BASE // 2 - 1 - ROOT_BOUND


def _require_int(value: int, what: str) -> None:
    """A TypeError naming value, before any arithmetic, when it is not an int (a bool included)."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise TypeError(f"{what} must be an int, not {value!r}")


# (min rank, max rank or None) per family
_RANK_RANGE = {
    "A": (1, None),
    "B": (2, None),
    "C": (2, None),
    "D": (3, None),
    "E": (6, 8),
    "F": (4, 4),
    "G": (2, 2),
}


@dataclass(frozen=True, order=True)
class LieType:
    """A simple Lie type: family letter plus rank."""

    family: str
    rank: int

    def __post_init__(self) -> None:
        if self.family not in FAMILIES:
            raise ValueError(f"unknown family {self.family!r}")
        _require_int(self.rank, "rank")
        lo, hi = _RANK_RANGE[self.family]
        if self.rank < lo or (hi is not None and self.rank > hi):
            raise ValueError(f"rank {self.rank} invalid for family {self.family}")

    def __str__(self) -> str:
        return f"{self.family}{self.rank}"


@dataclass(frozen=True, order=True)
class RootVec:
    """A root, as integer coefficients in the simple-root basis."""

    coeffs: tuple[int, ...]

    @property
    def height(self) -> int:
        return sum(self.coeffs)

    @property
    def is_positive(self) -> bool:
        return any(self.coeffs) and all(c >= 0 for c in self.coeffs)

    def __neg__(self) -> "RootVec":
        return RootVec(tuple(-c for c in self.coeffs))

    def __str__(self) -> str:
        return "(" + ",".join(str(c) for c in self.coeffs) + ")"


@dataclass(frozen=True, order=True, slots=True)
class Weight:
    """A weight, as integer pairings against the simple coroots, and its key.

    key = sum_k pairings[k] * KEY_BASE^k, by Horner once per Weight, or
    given by ``_keyed_weight``: it takes no part in equality, order or
    the text.  Slotted: every memoized orbit keeps one per element.
    """

    pairings: tuple[int, ...]
    key: int = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        key = 0
        for p in reversed(self.pairings):
            key = key * KEY_BASE + p
        object.__setattr__(self, "key", key)

    def __sub__(self, other: "Weight") -> "Weight":
        """The difference; a ValueError naming both weights when their ranks differ, which map would truncate."""
        if len(self.pairings) != len(other.pairings):
            raise ValueError(f"cannot subtract {other} from {self}: their ranks differ")
        return Weight(tuple(map(sub, self.pairings, other.pairings)))

    def __neg__(self) -> "Weight":
        return Weight(tuple(-a for a in self.pairings))

    def scaled(self, c: int) -> "Weight":
        return Weight(tuple(c * a for a in self.pairings))

    def __str__(self) -> str:
        return "(" + ",".join(str(a) for a in self.pairings) + ")"


def _keyed_weight(pairings: tuple[int, ...], key: int) -> Weight:
    """The Weight of pairings with its key given, not computed: key must be their Horner sum."""
    w = object.__new__(Weight)
    object.__setattr__(w, "pairings", pairings)
    object.__setattr__(w, "key", key)
    return w


def _diagram(lie_type: LieType) -> tuple[list[tuple[int, int]], list[int]]:
    """Edge list (1-based node pairs) and integer symmetrizers d_j of the Dynkin diagram.

    The E-series labels put the minuscule node of E7 at position 1; E6
    keeps the two cominuscule ends at 1 and 6 with the branch node
    labelled 2 as usual.
    """
    fam, n = lie_type.family, lie_type.rank
    edges = [(i, i + 1) for i in range(1, n)]
    if fam == "B":
        return edges, [2] * (n - 1) + [1]
    if fam == "C":
        return edges, [1] * (n - 1) + [2]
    if fam == "F":
        return edges, [2, 2, 1, 1]
    if fam == "G":
        # alpha_1 short, alpha_2 long
        return edges, [1, 3]
    if fam == "D":
        edges = [(i, i + 1) for i in range(1, n - 2)] + [(n - 2, n - 1), (n - 2, n)]
    elif fam == "E":
        edges = {6: [(1, 3), (3, 4), (4, 5), (5, 6), (2, 4)],
                 7: [(1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (4, 7)],
                 8: [(1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (6, 7), (3, 8)]}[n]
    # A, D and E are simply laced: every root has d = 1
    return edges, [1] * n


class RootSystem:
    """Root system of a simple Lie type, precomputed and immutable.

    Attributes follow the coordinate conventions of the module
    docstring: ``cartan`` holds the Cartan matrix rows a[k][j] =
    (alpha_j, alpha_k^vee) and ``symmetrizers`` the integer d_j.  The
    coroots and the pairing tuples C . beta are carried along the
    reflection closure that generates the positive roots, and both are
    kept for every root of +-Delta+: ``root_pairings`` maps a root's
    coefficients to its pairings.  ``cartan_det`` and ``cartan_adjugate`` are the
    integer determinant and adjugate of the Cartan matrix, both from one
    fraction-free elimination.  The one lazy attribute is
    ``reflection_table``, filled on first use.  Instances compare by
    identity: ``build`` makes the one instance per LieType that the
    package's memos key on.  ``node_weights`` holds the Weight of
    alpha_j at index j for the nodes j = 0..l, alpha_0 = -theta, and
    ``node_keys`` their keys, the steps of the orbit look-ups; every
    root pairing is asserted to lie in -ROOT_BOUND..ROOT_BOUND, which
    keeps them exact.
    """

    def __init__(self, lie_type: LieType):
        self.lie_type = lie_type
        n = lie_type.rank
        edges, d = _diagram(lie_type)
        rows = [[2 if j == k else 0 for j in range(n)] for k in range(n)]
        for a, b in edges:
            for k, j in ((a, b), (b, a)):
                # adjacent simple roots have (alpha_j, alpha_k) = -max(d_j, d_k)
                top = -max(d[j - 1], d[k - 1])
                rows[k - 1][j - 1], rest = divmod(top, d[k - 1])
                if rest:
                    raise AssertionError(f"Cartan entry a[{k}][{j}] = {top}/{d[k - 1]} of {lie_type} "
                                         "is not an integer")
        cartan = self.cartan = tuple(map(tuple, rows))
        self.symmetrizers = tuple(d)
        self._check_cartan()

        self.positive_roots = self._close_positive_roots()
        pairings = self.root_pairings
        for r in self.positive_roots:
            if max(map(abs, pairings[r.coeffs])) > ROOT_BOUND:
                raise AssertionError(f"the root {r} of {lie_type} has the pairings {Weight(pairings[r.coeffs])}, "
                                     f"outside -{ROOT_BOUND}..{ROOT_BOUND}: weight keys would not be exact")
            co = self._coroot[r.coeffs]
            p = sum(map(mul, co, pairings[r.coeffs]))
            if p != 2:
                raise AssertionError(f"the root {r} of {lie_type} pairs to {p}, not 2, "
                                     f"with its coroot ({','.join(map(str, co))})")
            neg = tuple(-c for c in r.coeffs)
            self._coroot[neg] = neg if co == r.coeffs else tuple(-c for c in co)
            pairings[neg] = tuple(-a for a in pairings[r.coeffs])

        heights = [r.height for r in self.positive_roots]
        top = max(heights)
        if heights.count(top) != 1:
            raise AssertionError(f"{heights.count(top)} positive roots of {lie_type} have the top height {top}: "
                                 "the highest root must be unique")
        self.highest_root = max(self.positive_roots, key=lambda r: r.height)
        self.coxeter_number = 1 + self.highest_root.height
        if 2 * len(self.positive_roots) != n * self.coxeter_number:
            raise AssertionError(f"{lie_type} has {len(self.positive_roots)} positive roots, but rank {n} "
                                 f"times Coxeter number {self.coxeter_number} is {n * self.coxeter_number}")

        theta = self.root_to_weight(self.highest_root)
        if any(p < 0 for p in theta.pairings):
            raise AssertionError(f"the highest root {self.highest_root} of {lie_type} has the "
                                 f"non-dominant weight {theta}")
        self.node_weights = (-theta,) + tuple(Weight(column) for column in zip(*cartan))
        self.node_keys = tuple(w.key for w in self.node_weights)

        self.cartan_det, self.cartan_adjugate = _adjugate(cartan)
        self._minuscule = self._find_minuscule()
        self._involution = self._build_involution()

    # -- construction helpers -------------------------------------------------

    def _check_cartan(self) -> None:
        C, d = self.cartan, self.symmetrizers
        n = self.lie_type.rank
        for k in range(n):
            if C[k][k] != 2:
                raise AssertionError(f"Cartan diagonal entry a[{k + 1}][{k + 1}] = {C[k][k]}, not 2")
            for j in range(n):
                if j != k and C[k][j] not in (0, -1, -2, -3):
                    raise AssertionError(f"Cartan entry a[{k + 1}][{j + 1}] = {C[k][j]} is not 0, -1, -2 or -3")
                if d[k] * C[k][j] != d[j] * C[j][k]:
                    raise AssertionError(
                        f"Cartan matrix not symmetrizable at ({k + 1}, {j + 1}): "
                        f"d_{k + 1} a[{k + 1}][{j + 1}] = {d[k] * C[k][j]} but "
                        f"d_{j + 1} a[{j + 1}][{k + 1}] = {d[j] * C[j][k]}"
                    )

    def _close_positive_roots(self) -> tuple[RootVec, ...]:
        """Generate the positive roots by reflection closure from the simple ones.

        The closure runs on coefficient tuples.  Each root carries its
        pairings C . beta and its coroot: the reflection coefficient
        p = (beta, alpha_j^vee) is pairing j, and s_j moves only
        coordinate j, so s_j beta = beta - p alpha_j is positive iff
        beta_j - p >= 0.  Its pairings are beta's minus p times column j
        of C, and its coroot is beta^vee - (alpha_j, beta^vee) alpha_j^vee,
        so every coroot is integral by construction.  ``self._coroot``
        and ``self.root_pairings`` are filled on the way; the RootVecs
        are made once, at the end, in (height, coeffs) order.
        """
        n = self.lie_type.rank
        columns = tuple(zip(*self.cartan))
        simple = [tuple(1 if j == k else 0 for j in range(n)) for k in range(n)]
        coroot = self._coroot = {c: c for c in simple}
        pairings = self.root_pairings = {c: columns[k] for k, c in enumerate(simple)}
        queue = list(simple)
        while queue:
            beta = queue.pop()
            pb = pairings[beta]
            for j in range(n):
                p = pb[j]
                if p and beta[j] >= p:
                    gamma = beta[:j] + (beta[j] - p,) + beta[j + 1:]
                    if gamma not in coroot:
                        col = columns[j]
                        co = list(coroot[beta])
                        co[j] -= sum(map(mul, col, co))
                        co = tuple(co)
                        # a coroot equal to its root (every root when simply
                        # laced) shares the key's tuple
                        coroot[gamma] = gamma if co == gamma else co
                        pairings[gamma] = tuple([a - p * c for a, c in zip(pb, col)])
                        queue.append(gamma)
        return tuple(RootVec(c) for c in sorted(coroot, key=lambda c: (sum(c), c)))

    def _find_minuscule(self) -> tuple[int, ...]:
        # (lambda_i, alpha^vee) is the i-th coroot coefficient of alpha
        return tuple(
            i for i in range(1, self.lie_type.rank + 1)
            if max(self._coroot[r.coeffs][i - 1] for r in self.positive_roots) == 1
        )

    def _build_involution(self) -> tuple[int, ...]:
        fam, n = self.lie_type.family, self.lie_type.rank
        perm = list(range(1, n + 1))
        if fam == "A":
            perm = list(range(n, 0, -1))
        elif fam == "D" and n % 2 == 1:
            perm[n - 2], perm[n - 1] = n, n - 1
        elif fam == "E" and n == 6:
            perm = [6, 2, 5, 4, 3, 1]
        C = self.cartan
        for k in range(n):
            for j in range(n):
                if C[perm[k] - 1][perm[j] - 1] != C[k][j]:
                    raise AssertionError(
                        f"{tuple(perm)} is not a diagram automorphism of {self.lie_type}: "
                        f"a[{perm[k]}][{perm[j]}] = {C[perm[k] - 1][perm[j] - 1]} but a[{k + 1}][{j + 1}] = {C[k][j]}"
                    )
        return tuple(perm)

    # -- basic queries ---------------------------------------------------------

    @property
    def rank(self) -> int:
        return self.lie_type.rank

    def fundamental_weight(self, i: int) -> Weight:
        n = self.rank
        _require_int(i, "fundamental weight index")
        if not 1 <= i <= n:
            raise ValueError(f"fundamental weight index {i} out of range")
        return Weight(tuple(1 if k == i - 1 else 0 for k in range(n)))

    def minuscule_weight(self, i: int) -> Weight:
        """lambda_i for a minuscule index i, the one home of that rule.

        A ValueError for an index that is not minuscule comes first;
        a bool or float equal to a minuscule index then raises
        ``fundamental_weight``'s TypeError.
        """
        if i not in self._minuscule:
            raise ValueError(f"fundamental weight {i} of {self} is not minuscule")
        return self.fundamental_weight(i)

    def is_root(self, alpha: RootVec) -> bool:
        return alpha.coeffs in self._coroot

    def root_to_weight(self, alpha: RootVec) -> Weight:
        """The pairing coordinates of a root: cartan . coeffs; a ValueError for a vector of another rank."""
        c = alpha.coeffs
        if len(c) != len(self.cartan):
            raise ValueError(f"the root vector {alpha} has {len(c)} coefficients, but {self} has rank {self.rank}")
        return Weight(tuple(sum(map(mul, row, c)) for row in self.cartan))

    @cached_property
    def reflection_table(self) -> tuple[dict[tuple[int, ...], RootVec], ...]:
        """s_j on the roots: entry j - 1 maps the coefficients of every root
        in +-Delta+ to the interned root s_j(beta).

        s_j beta = beta - p alpha_j with p = (beta, alpha_j^vee), entry j of
        ``root_pairings``, so no reflection is computed.  Each table is the
        identity map with the roots of p != 0 overwritten.  Built on first
        use, never by ``build``: ``weylorbit.apply_word`` reads it, and
        ``qchev._root_entries`` reads entry 0 for the interned roots.
        """
        roots = {r.coeffs: r for r in self.positive_roots + tuple(-r for r in self.positive_roots)}
        pairings = self.root_pairings
        return tuple(
            {**roots, **{c: roots[c[:j] + (c[j] - pc[j],) + c[j + 1:]] for c, pc in pairings.items() if pc[j]}}
            for j in range(self.rank)
        )

    def __repr__(self) -> str:
        return f"RootSystem({self.lie_type})"

    def __str__(self) -> str:
        return str(self.lie_type)


def _adjugate(cartan: tuple[tuple[int, ...], ...]) -> tuple[int, tuple[tuple[int, ...], ...]]:
    """(det C, adj C) with C . adj C = det C . I, all in integers.

    One fraction-free (Bareiss) Gauss-Jordan pass takes [C | I] to
    [det . I | adj].  After pivot k every diagonal entry so far is the
    leading (k+1)x(k+1) principal minor, and each division by the
    previous minor is exact.  No row swaps are needed: every leading
    principal minor of a finite-type Cartan matrix is positive, so a
    pivot <= 0 is a fault.  The root coordinates of a weight w are
    (adj . w) / det, each an exact quotient when w is in the root
    lattice.
    """
    n = len(cartan)
    a = [list(row) + [1 if j == k else 0 for j in range(n)] for k, row in enumerate(cartan)]
    prev = 1
    for k in range(n):
        pivot_row = a[k]
        pivot = pivot_row[k]
        if pivot <= 0:
            raise AssertionError(f"the leading {k + 1}x{k + 1} principal minor of the Cartan matrix "
                                 f"{cartan} is {pivot}, not positive")
        for row in a:
            if row is pivot_row:
                continue
            f = row[k]
            for j in range(2 * n):
                num = pivot * row[j] - f * pivot_row[j]
                row[j], rem = divmod(num, prev)
                if rem:
                    raise AssertionError(f"step {k + 1} of the elimination on the Cartan matrix {cartan} "
                                         f"divides {num} by {prev} inexactly")
        prev = pivot
    return prev, tuple(tuple(row[n:]) for row in a)


@lru_cache(maxsize=None)
def build(lie_type: LieType) -> RootSystem:
    """Construct (and memoize) the root system of a simple Lie type."""
    return RootSystem(lie_type)


def pair(rs: RootSystem, mu: Weight, alpha: RootVec) -> int:
    """The coroot pairing (mu, alpha^vee), always an exact integer.

    The integer dot product of alpha's precomputed coroot coefficients
    with the pairing vector of mu; a ValueError for a weight of another
    rank, which the dot product would truncate.
    """
    co = coroot(rs, alpha)
    if len(mu.pairings) != len(co):
        raise ValueError(f"the weight {mu} has {len(mu.pairings)} pairings, but {rs} has rank {len(co)}")
    return sum(map(mul, co, mu.pairings))


def coroot(rs: RootSystem, alpha: RootVec) -> tuple[int, ...]:
    """alpha^vee in simple-coroot coordinates: (mu, alpha^vee) is its dot product with mu's pairings."""
    co = rs._coroot.get(alpha.coeffs)
    if co is None:
        raise ValueError(f"{alpha} is not a root of {rs}")
    return co


def node_pairings(rs: RootSystem, mu: Weight):
    """(mu, alpha_j^vee) for the nodes j = 0..l: (-(mu, theta^vee), mu_1, ..., mu_l), as alpha_0^vee = -theta^vee."""
    return (-pair(rs, mu, rs.highest_root),) + mu.pairings


def reflect(rs: RootSystem, mu: Weight, alpha: RootVec) -> Weight:
    """Reflection of a weight: mu - (mu, alpha^vee) alpha."""
    p = pair(rs, mu, alpha)
    if p == 0:
        return mu
    return mu - rs.root_to_weight(alpha).scaled(p)


def minuscule_weights(rs: RootSystem) -> tuple[int, ...]:
    """Indices i of the fundamental weights with (lambda_i, alpha^vee) <= 1 on all of Delta+."""
    return rs._minuscule


def diagram_involution(rs: RootSystem) -> tuple[int, ...]:
    """The order-at-most-2 diagram symmetry as a 1-based permutation.

    Node reversal for A_n, the fork swap for D_n with n odd, the
    diagram flip for E6, and the identity otherwise (in particular for
    D_n with n even).  This is exactly the diagram automorphism induced
    by the negative of the longest Weyl element.
    """
    return rs._involution
