"""Exact root-system arithmetic for the simple Lie types A through G.

Coordinate conventions, fixed package-wide:

* The invariant form is normalized so that long roots have squared
  length 2.  The symmetrizers d_j = (alpha_j, alpha_j)/2 are then 1 on
  long roots and 1/2 (types B, C, F) or 1/3 (type G) on short ones.
  Under this normalization every pair of adjacent simple roots has
  inner product -1, so the Cartan matrix is determined by the Dynkin
  diagram together with the d_j.
* A root is an integer coefficient vector in the simple-root basis
  (RootVec).  A weight is an integer vector of pairings against the
  simple coroots (Weight).  The Cartan matrix is the single bridge
  between the two coordinate systems: cartan[k][j] pairs simple root j
  against simple coroot k, so root -> weight coordinates is the
  matrix-vector product cartan . coeffs.
* Simple-root and fundamental-weight indices are 1-based in the public
  API, matching the usual Dynkin-diagram labels.

All arithmetic is exact, and the hot paths use integers only.
Fraction enters only while a root system is built, where a symmetrizer
ratio appears.  At that point every root stores its coroot in the
simple-coroot basis, c_j d_j / d_alpha, checked to be integral, so a
coroot pairing is an integer dot product.  The Cartan matrix also
stores its integer adjugate and determinant: the root coordinates of a
weight w are (adj . w) / det, one exact integer division per
coordinate.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from operator import mul
from typing import Sequence

FAMILIES = ("A", "B", "C", "D", "E", "F", "G")

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


@dataclass(frozen=True, order=True)
class Weight:
    """A weight, as integer pairings against the simple coroots."""

    pairings: tuple[int, ...]

    def __add__(self, other: "Weight") -> "Weight":
        return Weight(tuple(a + b for a, b in zip(self.pairings, other.pairings)))

    def __sub__(self, other: "Weight") -> "Weight":
        return Weight(tuple(a - b for a, b in zip(self.pairings, other.pairings)))

    def __neg__(self) -> "Weight":
        return Weight(tuple(-a for a in self.pairings))

    def scaled(self, c: int) -> "Weight":
        return Weight(tuple(c * a for a in self.pairings))

    def __str__(self) -> str:
        return "(" + ",".join(str(a) for a in self.pairings) + ")"


@dataclass(frozen=True)
class CartanData:
    """Cartan matrix rows a[k][j] = (alpha_j, alpha_k^vee) with symmetrizers d_j."""

    cartan: tuple[tuple[int, ...], ...]
    symmetrizers: tuple[Fraction, ...]


def _diagram(lie_type: LieType) -> tuple[list[tuple[int, int]], list[Fraction]]:
    """Edge list (1-based node pairs) and symmetrizers for the Dynkin diagram.

    The E-series labels put the minuscule node of E7 at position 1; E6
    keeps the two cominuscule ends at 1 and 6 with the branch node
    labelled 2 as usual.
    """
    fam, n = lie_type.family, lie_type.rank
    one = Fraction(1)
    path = [(i, i + 1) for i in range(1, n)]
    if fam == "A":
        return path, [one] * n
    if fam == "B":
        return path, [one] * (n - 1) + [Fraction(1, 2)]
    if fam == "C":
        return path, [Fraction(1, 2)] * (n - 1) + [one]
    if fam == "D":
        edges = [(i, i + 1) for i in range(1, n - 2)] + [(n - 2, n - 1), (n - 2, n)]
        return edges, [one] * n
    if fam == "E":
        if n == 6:
            edges = [(1, 3), (3, 4), (4, 5), (5, 6), (2, 4)]
        elif n == 7:
            edges = [(1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (4, 7)]
        else:
            edges = [(1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (6, 7), (3, 8)]
        return edges, [one] * n
    if fam == "F":
        return path, [one, one, Fraction(1, 2), Fraction(1, 2)]
    # G2: alpha_1 short, alpha_2 long
    return [(1, 2)], [Fraction(1, 3), one]


class RootSystem:
    """Root system of a simple Lie type, fully precomputed and immutable.

    Attributes follow the coordinate conventions of the module
    docstring; ``cartan_det`` and ``cartan_adjugate`` are the integer
    determinant and adjugate of the Cartan matrix.  Two instances
    compare equal iff they have the same LieType; everything else is
    determined by it.
    """

    def __init__(self, lie_type: LieType):
        self.lie_type = lie_type
        n = lie_type.rank
        edges, d = _diagram(lie_type)
        adjacency = {k: set() for k in range(1, n + 1)}
        for a, b in edges:
            adjacency[a].add(b)
            adjacency[b].add(a)

        rows = []
        for k in range(1, n + 1):
            row = []
            for j in range(1, n + 1):
                if j == k:
                    row.append(2)
                elif j in adjacency[k]:
                    # adjacent simple roots have (alpha_j, alpha_k) = -max(d_j, d_k)
                    val = -max(d[j - 1], d[k - 1]) / d[k - 1]
                    assert val.denominator == 1
                    row.append(int(val))
                else:
                    row.append(0)
            rows.append(tuple(row))
        cartan = tuple(rows)
        self.cartan_data = CartanData(cartan, tuple(d))
        self._check_cartan()

        self.positive_roots = self._close_positive_roots()
        self._half_norm = {}
        self._coroot = {}
        for r in self.positive_roots:
            dn = self._half_norm_of(r)
            co = self._coroot_of(r, dn)
            self._half_norm[r.coeffs] = dn
            self._half_norm[(-r).coeffs] = dn
            self._coroot[r.coeffs] = co
            self._coroot[(-r).coeffs] = tuple(-c for c in co)

        heights = [r.height for r in self.positive_roots]
        top = max(heights)
        assert heights.count(top) == 1, "highest root must be unique"
        self.highest_root = max(self.positive_roots, key=lambda r: r.height)
        self.coxeter_number = 1 + self.highest_root.height
        assert 2 * len(self.positive_roots) == n * self.coxeter_number

        self.simple_root_weights = tuple(
            Weight(tuple(cartan[k][j] for k in range(n))) for j in range(n)
        )
        self.highest_root_weight = self.root_to_weight(self.highest_root)
        assert all(p >= 0 for p in self.highest_root_weight.pairings)

        self.cartan_det, self.cartan_adjugate = _adjugate(cartan)
        self._minuscule = self._find_minuscule()
        self._involution = self._build_involution()

    # -- construction helpers -------------------------------------------------

    def _check_cartan(self) -> None:
        C = self.cartan_data.cartan
        d = self.cartan_data.symmetrizers
        n = self.lie_type.rank
        for k in range(n):
            assert C[k][k] == 2
            for j in range(n):
                if j != k:
                    assert C[k][j] in (0, -1, -2, -3)
                assert d[k] * C[k][j] == d[j] * C[j][k], "Cartan matrix not symmetrizable"

    def _close_positive_roots(self) -> tuple[RootVec, ...]:
        """Generate the positive roots by reflection closure from the simple ones."""
        n = self.lie_type.rank
        simple = [RootVec(tuple(1 if j == k else 0 for j in range(n))) for k in range(n)]
        found = set(r.coeffs for r in simple)
        queue = list(simple)
        while queue:
            beta = queue.pop()
            for j in range(1, n + 1):
                gamma = self.simple_reflect_root(beta, j)
                if gamma.is_positive and gamma.coeffs not in found:
                    found.add(gamma.coeffs)
                    queue.append(gamma)
        roots = [RootVec(c) for c in found]
        roots.sort(key=lambda r: (r.height, r.coeffs))
        return tuple(roots)

    def _half_norm_of(self, alpha: RootVec) -> Fraction:
        """d_alpha = (alpha, alpha)/2; uses (alpha_j, alpha_k) = d_k a[k][j]."""
        C = self.cartan_data.cartan
        d = self.cartan_data.symmetrizers
        total = Fraction(0)
        c = alpha.coeffs
        n = len(c)
        for j in range(n):
            if not c[j]:
                continue
            for k in range(n):
                if c[k]:
                    total += c[j] * c[k] * d[k] * C[k][j]
        return total / 2

    def _coroot_of(self, alpha: RootVec, d_alpha: Fraction) -> tuple[int, ...]:
        """alpha^vee = sum_j c_j (d_j / d_alpha) alpha_j^vee, integral by theory."""
        d = self.cartan_data.symmetrizers
        out = []
        for c, d_j in zip(alpha.coeffs, d):
            x = c * d_j / d_alpha
            if x.denominator != 1:
                raise AssertionError(f"coroot of {alpha} in {self} has a non-integer coefficient {x}")
            out.append(int(x))
        return tuple(out)

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
        C = self.cartan_data.cartan
        for k in range(n):
            for j in range(n):
                assert C[perm[k] - 1][perm[j] - 1] == C[k][j], "not a diagram automorphism"
        return tuple(perm)

    # -- basic queries ---------------------------------------------------------

    @property
    def rank(self) -> int:
        return self.lie_type.rank

    def simple_root(self, j: int) -> RootVec:
        n = self.rank
        if not 1 <= j <= n:
            raise ValueError(f"simple root index {j} out of range")
        return RootVec(tuple(1 if k == j - 1 else 0 for k in range(n)))

    def fundamental_weight(self, i: int) -> Weight:
        n = self.rank
        if not 1 <= i <= n:
            raise ValueError(f"fundamental weight index {i} out of range")
        return Weight(tuple(1 if k == i - 1 else 0 for k in range(n)))

    def is_root(self, alpha: RootVec) -> bool:
        return alpha.coeffs in self._coroot

    def half_norm(self, alpha: RootVec) -> Fraction:
        if not self.is_root(alpha):
            raise ValueError(f"{alpha} is not a root of {self}")
        return self._half_norm[alpha.coeffs]

    def root_to_weight(self, alpha: RootVec) -> Weight:
        """The pairing coordinates of a root: cartan . coeffs."""
        c = alpha.coeffs
        return Weight(tuple(sum(map(mul, row, c)) for row in self.cartan_data.cartan))

    def simple_reflect_root(self, beta: RootVec, j: int) -> RootVec:
        """s_j acting in root coordinates: beta - (beta, alpha_j^vee) alpha_j."""
        p = sum(map(mul, self.cartan_data.cartan[j - 1], beta.coeffs))
        if p == 0:
            return beta
        out = list(beta.coeffs)
        out[j - 1] -= p
        return RootVec(tuple(out))

    def __eq__(self, other: object) -> bool:
        return isinstance(other, RootSystem) and self.lie_type == other.lie_type

    def __hash__(self) -> int:
        return hash(self.lie_type)

    def __repr__(self) -> str:
        return f"RootSystem({self.lie_type})"

    def __str__(self) -> str:
        return str(self.lie_type)


def _det(m: Sequence[Sequence[int]]) -> int:
    """Exact integer determinant by Bareiss fraction-free elimination."""
    a = [list(row) for row in m]
    n = len(a)
    if n == 0:
        return 1
    sign, prev = 1, 1
    for k in range(n - 1):
        if a[k][k] == 0:
            piv = next((r for r in range(k + 1, n) if a[r][k]), None)
            if piv is None:
                return 0
            a[k], a[piv] = a[piv], a[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                # Bareiss: this division is always exact
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
        prev = a[k][k]
    return sign * a[-1][-1]


def _adjugate(cartan: tuple[tuple[int, ...], ...]) -> tuple[int, tuple[tuple[int, ...], ...]]:
    """(det C, adj C) with C . adj C = det C . I, all in integers.

    adj[k][j] is the (j, k) cofactor, so root coordinates of a weight w
    are (adj . w) / det, each an exact quotient when w is in the root
    lattice.
    """
    n = len(cartan)

    def minor(row: int, col: int) -> list[list[int]]:
        return [[cartan[r][c] for c in range(n) if c != col] for r in range(n) if r != row]

    det = _det(cartan)
    adj = tuple(
        tuple((-1) ** (j + k) * _det(minor(j, k)) for j in range(n)) for k in range(n)
    )
    if det <= 0:
        raise AssertionError(f"Cartan determinant {det} is not positive")
    return det, adj


@lru_cache(maxsize=None)
def build(lie_type: LieType) -> RootSystem:
    """Construct (and memoize) the root system of a simple Lie type."""
    return RootSystem(lie_type)


def pair(rs: RootSystem, mu: Weight, alpha: RootVec) -> int:
    """The coroot pairing (mu, alpha^vee), always an exact integer.

    The integer dot product of alpha's precomputed coroot coefficients
    c_j d_j / d_alpha with the pairing vector of mu.
    """
    coroot = rs._coroot.get(alpha.coeffs)
    if coroot is None:
        raise ValueError(f"{alpha} is not a root of {rs}")
    return sum(map(mul, coroot, mu.pairings))


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
