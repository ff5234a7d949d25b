"""Desk-scale quantum Satake checks.

Type A: the derivation action of the projective-space quantum operator
on a wedge power is, after matching basis vectors by weight, conjugate
to the Grassmannian quantum operator by a diagonal sign matrix.
``sign_similarity`` discovers that diagonal by propagation over the
support graph and then verifies it globally, so a single wrong sign is
caught with an explicit inconsistent cycle.

Two private kernels do the work on a matrix's integer entries
{(row, col): {exponent: coefficient}}, the form ``PolyMatrix.entries``
holds: ``_wedge`` accumulates the Leibniz action straight into the
positions a subset map gives, with the parity twist folded into its
terms, and ``_match_signs`` compares two matrices up to sign, entry by
entry through ``_sign_ratio``, accepting two equal ones with every sign
+1 before any propagation.  ``satake_similarity`` runs them end to end,
building no matrix but the two A(q); ``wedge_matrix`` and
``sign_similarity`` hand the same kernels a PolyMatrix's entries, or
wrap their entries in one, with no conversion either way.

Type D: the endomorphism algebra of a spinor-variety quantum cohomology
matches the even half-wedge of the quadric side at the level of total
dimensions; ``half_wedge_dims`` checks those binomial identities
together with the orbit sizes feeding both sides.  Both the type-A and
the type-D check read their expected orbit sizes from
``weylorbit.expected_orbit_size``.
"""
from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from itertools import combinations
from math import comb
from typing import Mapping, Optional

from .minrep import PolyMatrix, _Entries, poly_text, quantum_operator
from .rootsys import LieType, _require_int, build
from .weylorbit import Orbit, expected_orbit_size, orbit


@dataclass(frozen=True)
class SignDiagonal:
    """A diagonal +-1 change of basis, D = diag(signs), with D a D = b for the matched pair."""

    signs: tuple[int, ...]


class SignSimilarityError(ValueError):
    """Sign-similarity failure, carrying a structured witness.

    kind is "support" (entry magnitudes differ; the message names the
    entry) or "cycle" (no consistent sign assignment; ``cycle`` walks
    the offending loop).
    """

    def __init__(self, kind: str, message: str, cycle: Optional[tuple[int, ...]] = None):
        super().__init__(message)
        self.kind = kind
        self.cycle = cycle


def wedge_subsets(n: int, k: int) -> list[tuple[int, ...]]:
    """All k-subsets of range(n) in lexicographic order."""
    return list(combinations(range(n), k))


def _wedge(m: _Entries, place: Mapping[tuple[int, ...], int], twist: int) -> _Entries:
    """The derivation (Leibniz) action of m on a wedge power, as entries.

    place maps every ascending k-subset of m's indices to the position
    of its basis vector in the k-th wedge power.  Replacing one index and re-sorting contributes
    the usual transposition sign, and every term c q^e of m enters as
    c twist^e q^e (q -> twist q).  Each entry sums its terms as integer
    coefficients per exponent, and terms that cancel leave no entry.
    """
    cols: dict[int, list[tuple[int, list[tuple[int, int]]]]] = {}
    for (r, c), p in m.items():
        cols.setdefault(c, []).append((r, [(e, v * twist**e) for e, v in p.items()]))
    acc: _Entries = {}
    for s, src in place.items():
        for t_idx, i in enumerate(s):
            for r, terms in cols.get(i, ()):
                if r == i:
                    key, sign = (src, src), 1
                elif r in s:
                    continue
                else:
                    rest = s[:t_idx] + s[t_idx + 1:]
                    at = bisect_left(rest, r)
                    key = (place[rest[:at] + (r,) + rest[at:]], src)
                    # sign of moving r into place among the remaining indices
                    sign = -1 if (t_idx + at) % 2 else 1
                coeffs = acc.setdefault(key, {})
                for e, c in terms:
                    total = coeffs.get(e, 0) + sign * c
                    if total:
                        coeffs[e] = total
                    else:
                        del coeffs[e]
    return {key: coeffs for key, coeffs in acc.items() if coeffs}


def wedge_matrix(m: PolyMatrix, k: int) -> PolyMatrix:
    """Derivation (Leibniz) action of m on the k-th wedge power.

    Basis vectors are ascending index tuples in lexicographic order;
    replacing one index and re-sorting contributes the usual
    transposition sign.  Terms that cancel leave no entry.
    """
    _require_int(k, "wedge degree")
    n = m.n
    if not 1 <= k <= n - 1:
        raise ValueError(f"wedge degree k={k} must satisfy 1 <= k <= {n - 1}")
    subsets = wedge_subsets(n, k)
    return PolyMatrix(len(subsets), _wedge(m.entries, {s: p for p, s in enumerate(subsets)}, 1))


def sign_similarity(a: PolyMatrix, b: PolyMatrix) -> SignDiagonal:
    """Find d in {+-1}^n with D a D = b, D = diag(d).

    Requires entrywise equality up to sign.  Equal matrices give every
    sign +1 at once.  Otherwise signs propagate over the support graph
    from a +1 root in each component, then every support entry is
    verified; an inconsistent assignment raises with the closed walk
    that cannot be signed.
    """
    if a.n != b.n:
        raise ValueError("dimension mismatch")
    return SignDiagonal(_match_signs(a.n, a.entries, b.entries))


def _match_signs(n: int, a: _Entries, b: _Entries) -> tuple[int, ...]:
    """``sign_similarity`` on two n x n matrices given as their nonzero entries.

    Equal entry dicts are accepted at once with every sign +1, the
    answer propagation would give: every ratio is +1 and every component
    is rooted at +1.  Otherwise entries are compared in (row, col) order,
    which fixes the order in which signs propagate and so every witness.
    An entry pair that does not agree up to sign is named through
    ``minrep.poly_text``.
    """
    if a == b:
        return (1,) * n
    if a.keys() != b.keys():
        entry = min(a.keys() ^ b.keys())
        raise SignSimilarityError("support", f"supports differ at entry {entry}")
    ratio: dict[tuple[int, int], int] = {}
    for key in sorted(a):
        eps = _sign_ratio(a[key], b[key])
        if not eps:
            raise SignSimilarityError(
                "support", f"entries at {key} do not agree up to sign: {poly_text(a[key])} vs {poly_text(b[key])}"
            )
        ratio[key] = eps

    d = _propagate_signs(n, ratio)
    for (i, j), eps in ratio.items():
        if d[i] * d[j] != eps:
            raise AssertionError(f"d[{i}] d[{j}] = {d[i] * d[j]}, but entry {(i, j)} has sign ratio {eps}")
    return d


def _sign_ratio(a: Mapping[int, int], b: Mapping[int, int]) -> int:
    """Equality up to sign of two polynomials given as {exponent: nonzero coefficient}.

    1 if b equals a, -1 if b is exactly -a, else 0.
    """
    if a == b:
        return 1
    if len(a) == len(b) and all(b.get(e) == -v for e, v in a.items()):
        return -1
    return 0


def _propagate_signs(n: int, ratio: dict[tuple[int, int], int]) -> tuple[int, ...]:
    """Signs d with d[i] d[j] = ratio on every edge met, +1 at the root of each component.

    Raises SignSimilarityError with the loop that cannot be signed.
    """
    adjacency: dict[int, list[tuple[int, int]]] = {v: [] for v in range(n)}
    for (i, j), eps in ratio.items():
        adjacency[i].append((j, eps))
        if i != j:
            adjacency[j].append((i, eps))
    signs: list[Optional[int]] = [None] * n
    parent: dict[int, int] = {}
    for root in range(n):
        if signs[root] is not None:
            continue
        signs[root] = 1
        stack = [root]
        while stack:
            v = stack.pop()
            for w, eps in adjacency[v]:
                want = eps * signs[v]
                if signs[w] is None:
                    signs[w] = want
                    parent[w] = v
                    stack.append(w)
                elif signs[w] != want:
                    raise SignSimilarityError(
                        "cycle",
                        f"inconsistent sign around the loop through edge ({v}, {w})",
                        cycle=_loop_witness(parent, v, w),
                    )
    return tuple(1 if s is None else s for s in signs)


def _loop_witness(parent: dict[int, int], v: int, w: int) -> tuple[int, ...]:
    def chain(x: int) -> list[int]:
        out = [x]
        while out[-1] in parent:
            out.append(parent[out[-1]])
        return out

    cv, cw = chain(v), chain(w)
    common = set(cv) & set(cw)
    lca = next(x for x in cv if x in common)
    up = cv[: cv.index(lca) + 1]
    down = cw[: cw.index(lca)]
    return tuple(up + list(reversed(down)) + [v])


def _aligned_wedge(n: int, k: int) -> tuple[Orbit, _Entries]:
    """The Grassmannian orbit of A_n/w_k and the twisted line-operator wedge in its positions.

    A k-subset of lines sits at the orbit position of the sum of its
    line weights, whose key is the sum of the lines' keys
    (``Orbit.index_of``); since all weights are distinct this is a
    bijection.  The parity twist q -> (-1)^(k-1) q is folded
    into the wedge's terms: the wedge of the k lowest line classes
    reaches the top class through k-1 reorderings, so the q-block of the
    wedge carries that global sign, and only a genuine diagonal sign
    freedom is left for the sign match.  The subset count and the orbit
    size must both equal the Grassmannian size C(n+1, k) of
    ``weylorbit.expected_orbit_size``.
    """
    rs = build(LieType("A", n))
    line = orbit(rs, 1)
    gr = orbit(rs, k)
    subsets = wedge_subsets(n + 1, k)
    size = expected_orbit_size(rs.lie_type, k)
    if not len(subsets) == gr.size == size:
        raise AssertionError(
            f"{len(subsets)} {k}-subsets of {n + 1} lines, {gr.size} weights in the A{n}/w{k} orbit, "
            f"binomial {size}"
        )
    lines = line.keys
    place = {s: gr.index_of[sum(lines[p] for p in s)] for s in subsets}
    return gr, _wedge(quantum_operator(line).entries, place, (-1) ** (k - 1))


def satake_similarity(n: int, k: int) -> SignDiagonal:
    """Full type-A check: wedge the line operator into Grassmannian positions, sign-match.

    ``_aligned_wedge`` against the Grassmannian A(q), matched by the
    kernel of ``sign_similarity`` on integer entries: the two A(q) are
    the only matrices built.  Once the parity twist is folded in, the
    aligned wedge equals the Grassmannian A(q) for every
    1 <= k <= n <= 9 checked, so the equality accept answers without
    sign propagation.
    """
    gr, wedge = _aligned_wedge(n, k)
    return SignDiagonal(_match_signs(gr.size, wedge, quantum_operator(gr).entries))


@dataclass
class HalfWedgeReport:
    """Dimension bookkeeping for one D_n half-wedge identity."""

    n: int
    wedge_total: int
    endo_total: int
    quadric_orbit_size: int
    spinor_orbit_size: int
    ok: bool


def half_wedge_dims(n: int) -> HalfWedgeReport:
    """Check the even half-wedge dimension identity for D_n, n >= 3.

    The sum of binom(2n, 2i) over 2i < n, plus half the middle binomial
    binom(2n, n) when n is even, equals the squared spinor dimension.
    The two sides are cross-checked against the actual orbit sizes of
    the quadric and spinor weights.  The spinor dimension and both
    expected orbit sizes, 2n and 2^(n-1), come from
    ``weylorbit.expected_orbit_size``.  The root system is built
    first, so ``LieType("D", n)``'s TypeError names an n that is not an
    int and its ValueError an n below 3, before any arithmetic.
    """
    rs = build(LieType("D", n))
    two_n = 2 * n
    wedge_total = sum(comb(two_n, 2 * i) for i in range((n + 1) // 2))
    if n % 2 == 0:
        half_mid = comb(two_n, n)
        if half_mid % 2:
            raise AssertionError(f"middle binomial C({two_n}, {n}) = {half_mid} is odd")
        wedge_total += half_mid // 2
    quadric, spinor = orbit(rs, 1).size, orbit(rs, n).size
    want_quadric = expected_orbit_size(rs.lie_type, 1)
    want_spinor = expected_orbit_size(rs.lie_type, n)
    endo_total = want_spinor**2
    ok = wedge_total == endo_total and quadric == want_quadric and spinor == want_spinor
    return HalfWedgeReport(n, wedge_total, endo_total, quadric, spinor, ok)
