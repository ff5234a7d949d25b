"""Shared fixtures-in-plain-functions for the test suite."""
from __future__ import annotations

import random
from fractions import Fraction
from typing import Callable, Sequence

import minflag.minrep as minrep
from minflag import qchev, ttstar, weylorbit
from minflag.cli import SweepConfig, sweep_cases
from minflag.minrep import Check, PolyMatrix, _entry_witness, poly_text
from minflag.rootsys import LieType, RootSystem, RootVec, Weight, build, diagram_involution, minuscule_weights
from minflag.satake import _aligned_wedge, wedge_subsets
from minflag.weylorbit import Orbit, OrbitElement, orbit, poincare_dual

SWEEP = sweep_cases(SweepConfig())

# every per-orbit and per-root-system memo of the package
MEMOS = (
    qchev._root_entries, qchev._oracle_table, qchev._lengths, qchev._oracle_outcome, minrep.quantum_operator,
    weylorbit.lowering_maps, weylorbit.dual_positions, ttstar._toda_data,
)


def clear_memos() -> None:
    for memo in MEMOS:
        memo.cache_clear()


def rs_of(family: str, rank: int) -> RootSystem:
    return build(LieType(family, rank))


def orbit_of(family: str, rank: int, i: int) -> Orbit:
    return orbit(rs_of(family, rank), i)


def position_of(orb: Orbit, pairings: Sequence[int]) -> int:
    """The position of the orbit weight with these pairings: ``Orbit.index_of`` read by its integer key."""
    return orb.index_of[Weight(tuple(pairings)).key]


def simple_root(rs: RootSystem, j: int) -> RootVec:
    """alpha_j as a RootVec: coefficient 1 at j (1-based), 0 elsewhere."""
    return RootVec(tuple(int(k == j) for k in range(1, rs.rank + 1)))


def aligned_pair(n: int, k: int) -> tuple[PolyMatrix, PolyMatrix]:
    """The line operator's wedge aligned to the A_n/w_k orbit, as a PolyMatrix, and that orbit's A(q)."""
    gr, wedge = _aligned_wedge(n, k)
    return PolyMatrix(gr.size, wedge), minrep.quantum_operator(gr)


def sweep_orbits():
    for lt, i in SWEEP:
        yield orbit(build(lt), i)


def apply_word_to_weight(rs: RootSystem, word: Sequence[int], mu: Weight) -> Weight:
    """The composite reflection of a stored word (outermost last) acting on a weight.

    The test-only reference for the words ``orbit`` records: applied to
    the top weight, an element's word must give its weight.
    """
    w = mu
    for j in word:
        p = w.pairings[j - 1]
        if p:
            w = w - rs.node_weights[j].scaled(p)
    return w


def simple_reflect_root(rs: RootSystem, beta: RootVec, j: int) -> RootVec:
    """s_j acting in root coordinates: beta - (beta, alpha_j^vee) alpha_j.

    The test-only reference ``RootSystem.reflection_table`` and the
    reflection closure are checked against: the pairing is a dot product
    with row j of the Cartan matrix, and a new RootVec is built.
    """
    p = sum(a * c for a, c in zip(rs.cartan[j - 1], beta.coeffs))
    if p == 0:
        return beta
    out = list(beta.coeffs)
    out[j - 1] -= p
    return RootVec(tuple(out))


def reference_positive_roots(rs: RootSystem) -> tuple[tuple[RootVec, ...], dict[tuple[int, ...], tuple[int, ...]]]:
    """The positive roots and their coroots by a reflection closure over RootVec objects.

    The test-only reference the tuple closure of ``RootSystem`` is
    compared against: each step reflects a RootVec through
    ``simple_reflect_root`` and tests ``is_positive``; the coroot moves
    as beta^vee - (alpha_j, beta^vee) alpha_j^vee.  Returns the roots in
    (height, coeffs) order and the coroot of each, keyed by coefficients.
    """
    n = rs.rank
    columns = tuple(zip(*rs.cartan))
    simple = [simple_root(rs, k) for k in range(1, n + 1)]
    coroot = {r.coeffs: r.coeffs for r in simple}
    queue = list(simple)
    while queue:
        beta = queue.pop()
        for j in range(1, n + 1):
            gamma = simple_reflect_root(rs, beta, j)
            if gamma.is_positive and gamma.coeffs not in coroot:
                co = list(coroot[beta.coeffs])
                co[j - 1] -= sum(c * x for c, x in zip(columns[j - 1], co))
                coroot[gamma.coeffs] = tuple(co)
                queue.append(gamma)
    roots = sorted((RootVec(c) for c in coroot), key=lambda r: (r.height, r.coeffs))
    return tuple(roots), coroot


def reference_orbit_elements(rs: RootSystem, i: int) -> list[OrbitElement]:
    """The orbit of lambda_i by a BFS over Weight objects, in canonical order.

    The test-only reference the tuple BFS of ``weylorbit.orbit`` is
    compared against: each level is sorted as Weights, and each lowering
    subtracts a Weight; an element keeps the first word that reaches it,
    simple reflections tried in index order.
    """
    assert i in minuscule_weights(rs)
    current: dict[Weight, tuple[int, ...]] = {rs.fundamental_weight(i): ()}
    seen: set[Weight] = set()
    elements: list[OrbitElement] = []
    depth = 0
    while current:
        level = sorted(current)
        elements.extend(OrbitElement(w, current[w], depth) for w in level)
        seen.update(current)
        nxt: dict[Weight, tuple[int, ...]] = {}
        for w in level:
            for j in range(1, rs.rank + 1):
                if w.pairings[j - 1] == 1:
                    nu = w - rs.node_weights[j]
                    assert nu not in seen, (w, j, nu)
                    nxt.setdefault(nu, current[w] + (j,))
        current = nxt
        depth += 1
    return elements


def reference_sigma_fixed(rs: RootSystem, m: Sequence) -> bool:
    """m equals m permuted by the diagram involution.

    The test-only reference ``ttstar._sigma_moved`` is compared against.
    """
    return tuple(m) == tuple(m[k - 1] for k in diagram_involution(rs))


def random_alcove_coords(rs: RootSystem, rng: random.Random) -> tuple[Fraction, ...]:
    """A random rational point of the closed fundamental alcove.

    Draw nonnegative integers a_j, then pick a denominator at least
    sum q_j a_j so the highest-root value lands in [0, 1].
    """
    q = rs.highest_root.coeffs
    a = [rng.randint(0, 20) for _ in range(rs.rank)]
    bound = sum(qj * aj for qj, aj in zip(q, a))
    den = max(bound, 1) + rng.randint(0, 20)
    return tuple(Fraction(aj, den) for aj in a)


# -- polynomial and matrix algebra on {q_power: coefficient} dicts: PolyMatrix is only a container --


def padd(a: dict[int, int], b: dict[int, int]) -> dict[int, int]:
    """a + b, zero terms dropped."""
    c = dict(a)
    for e, v in b.items():
        c[e] = c.get(e, 0) + v
    return {e: v for e, v in c.items() if v}


def pmul(a: dict[int, int], b: dict[int, int]) -> dict[int, int]:
    """a * b, zero terms dropped."""
    c: dict[int, int] = {}
    for e1, v1 in a.items():
        for e2, v2 in b.items():
            c[e1 + e2] = c.get(e1 + e2, 0) + v1 * v2
    return {e: v for e, v in c.items() if v}


def dense_rows(m: PolyMatrix) -> list[list[dict[int, int]]]:
    return [[m.entries.get((i, j), {}) for j in range(m.n)] for i in range(m.n)]


def transpose(m: PolyMatrix) -> PolyMatrix:
    return PolyMatrix(m.n, {(j, i): c for (i, j), c in m.entries.items()})


def identity(n: int) -> PolyMatrix:
    return PolyMatrix(n, {(i, i): {0: 1} for i in range(n)})


def linear_combination(n: int, terms: list[tuple[dict[int, int], PolyMatrix]]) -> PolyMatrix:
    """sum c M over the (c, M) of terms, each M n x n."""
    acc: dict[tuple[int, int], dict[int, int]] = {}
    for c, m in terms:
        assert m.n == n
        for key, p in m.entries.items():
            acc[key] = padd(acc.get(key, {}), pmul(p, c))
    return PolyMatrix(n, acc)


def matmul(a: PolyMatrix, b: PolyMatrix) -> PolyMatrix:
    assert a.n == b.n
    cols_b: dict[int, list[tuple[int, dict[int, int]]]] = {}
    for (k, j), p in b.entries.items():
        cols_b.setdefault(k, []).append((j, p))
    acc: dict[tuple[int, int], dict[int, int]] = {}
    for (i, k), pa in a.entries.items():
        for j, pb in cols_b.get(k, ()):
            acc[(i, j)] = padd(acc.get((i, j), {}), pmul(pa, pb))
    return PolyMatrix(a.n, acc)


def pairing_matrix(orb: Orbit) -> PolyMatrix:
    """The 0/1 Poincare pairing: G[mu][nu] = 1 iff nu is dual to mu.

    The test-only matrix form of what ``qchev.frobenius_check`` checks
    entrywise.
    """
    entries = {}
    for pos, el in enumerate(orb.elements):
        entries[(pos, position_of(orb, poincare_dual(orb, el.weight).pairings))] = {0: 1}
    return PolyMatrix(orb.size, entries)


def commutator(a: PolyMatrix, b: PolyMatrix) -> PolyMatrix:
    return linear_combination(a.n, [({0: 1}, matmul(a, b)), ({0: -1}, matmul(b, a))])


def reference_quantum_operator(orb: Orbit) -> PolyMatrix:
    """A(q) = sum_{j=1..l} E-(j) + q E_psi, summed matrix by matrix.

    The test-only reference the one-pass ``minrep.quantum_operator`` is
    compared against.
    """
    terms = [({0: 1}, minrep.lowering_matrix(orb, j)) for j in range(1, orb.rs.rank + 1)]
    return linear_combination(orb.size, [({1: 1}, minrep.psi_raising_matrix(orb))] + terms)


def reference_operator_rows(orb: Orbit) -> dict[str, Callable[[PolyMatrix], Check]]:
    """The main-theorem, frobenius and grading rows on PolyMatrix entries, by row name.

    The test-only references the integer-entry rows of ``qchev`` are
    compared against.  The routes are the matrices of
    ``quantum_product_matrix`` and ``fw_oracle_matrix``, built once here
    for every operator checked on the orbit; each row walks the
    operator's entries in row order, one entry at a time.
    """
    w = orb.elements
    closed = qchev.quantum_product_matrix(orb)
    try:
        routes = [("closed-form product", closed), ("oracle product", qchev.fw_oracle_matrix(orb))]
    except (AssertionError, ValueError) as exc:
        failed = Check(False, f"oracle route failed: {type(exc).__name__}: {exc}")
        routes = []
    dual = [position_of(orb, poincare_dual(orb, el.weight).pairings) for el in w]
    lengths = qchev._lengths(orb)
    s = orb.rs.coxeter_number

    def main_theorem(operator: PolyMatrix) -> Check:
        if not routes:
            return failed
        for name, route in routes:
            a, b = operator.entries, route.entries
            diff = next((key for key in sorted(a.keys() | b.keys()) if a.get(key, {}) != b.get(key, {})), None)
            if diff:
                i, j = diff
                return Check(False, f"operator vs {name} at ({w[i].weight}, {w[j].weight}): "
                                    f"{poly_text(a.get(diff, {}))} != {poly_text(b.get(diff, {}))}")
        return Check(True, "three routes entrywise equal")

    def frobenius(operator: PolyMatrix) -> Check:
        for (i, j), p in sorted(operator.entries.items()):
            partner = operator.entries.get((dual[j], dual[i]), {})
            if partner != p:
                return Check(False, f"A at ({w[i].weight}, {w[j].weight}) is {poly_text(p)} but at its dual entry "
                                    f"({w[dual[j]].weight}, {w[dual[i]].weight}) is {poly_text(partner)}")
        return Check(True, "A^T G = G A")

    def grading(operator: PolyMatrix) -> Check:
        for (i, j), p in sorted(operator.entries.items()):
            for exp in sorted(p):
                if lengths[i] != lengths[j] + 1 - exp * s:
                    return Check(False, f"q^{exp} at ({w[i].weight}, {w[j].weight}): "
                                        f"length {lengths[i]} != {lengths[j]} + 1 - {exp}*{s}")
        return Check(True, "deg q = s homogeneity")

    return {"main-theorem": main_theorem, "frobenius": frobenius, "grading": grading}


def reference_rep_relations(orb: Orbit) -> Check:
    """``minrep.verify_rep_relations`` in product form: every bracket as XY - YX.

    The test-only reference the index-map check is compared against.  It
    reads E-(j), E+(j) and E_psi = E-(0) from the same map builders,
    ``weylorbit.lowering_maps`` and ``minrep._raising_maps``, through
    their modules, so a test that replaces a map builder there changes
    both checks alike, and H(j) from the weights: the diagonal
    of basis vector mu is its pairing (mu, alpha_j^vee).  Every
    generator entry is a constant, so the products run on integer
    entries.
    """
    n = orb.rs.rank
    C = orb.rs.cartan
    low = dict(enumerate(map(_map_rows, weylorbit.lowering_maps(orb))))
    high = dict(enumerate(map(_map_rows, minrep._raising_maps(orb)), 1))
    pairings = [el.weight.pairings for el in orb.elements]
    diag = {j: {c: {c: p[j - 1]} for c, p in enumerate(pairings) if p[j - 1]} for j in range(1, n + 1)}
    psi_m = low[0]

    def entries(c: int, m: dict[int, dict[int, int]]) -> dict[tuple[int, int], int]:
        """The nonzero entries of c M."""
        return {(i, j): c * v for i, row in m.items() for j, v in row.items()} if c else {}

    def relations():
        for j in range(1, n + 1):
            yield f"[E+({j}), E-({j})] != H({j})", high[j], low[j], entries(1, diag[j])
            for k in range(1, n + 1):
                a = C[j - 1][k - 1]
                if k != j:
                    yield f"[E+({j}), E-({k})] != 0", high[j], low[k], {}
                yield f"[H({j}), E-({k})] != -a[{j}][{k}] E-({k})", diag[j], low[k], entries(-a, low[k])
                yield f"[H({j}), E+({k})] != a[{j}][{k}] E+({k})", diag[j], high[k], entries(a, high[k])
            yield f"[E+({j}), E_psi] != 0", high[j], psi_m, {}

    for checks, (failure, x, y, want) in enumerate(relations(), 1):
        got = _int_commutator(x, y)
        if got != want:
            got_m, want_m = (PolyMatrix(orb.size, {key: {0: v} for key, v in e.items()}) for e in (got, want))
            return Check(False, f"{failure} {_entry_witness(orb, got_m, want_m)}")
    return Check(True, f"{checks} brackets")


def _map_rows(m: dict[int, tuple[int, int]]) -> dict[int, dict[int, int]]:
    """A generator's index map {source: (target, coefficient)} as its nonzero entries by row: {target: {source: v}}."""
    rows: dict[int, dict[int, int]] = {}
    for c, (t, v) in m.items():
        if v:
            rows.setdefault(t, {})[c] = v
    return rows


def _int_commutator(a: dict[int, dict[int, int]], b: dict[int, dict[int, int]]) -> dict[tuple[int, int], int]:
    """The nonzero entries of AB - BA, for A and B given by their integer rows."""
    acc: dict[tuple[int, int], int] = {}
    for x, y, sign in ((a, b, 1), (b, a, -1)):
        for i, row in x.items():
            for k, u in row.items():
                for j, v in y.get(k, {}).items():
                    acc[(i, j)] = acc.get((i, j), 0) + sign * u * v
    return {key: v for key, v in acc.items() if v}


def reference_wedge_matrix(m: PolyMatrix, k: int) -> PolyMatrix:
    """``satake.wedge_matrix`` summed term by term, one polynomial at a time.

    The test-only reference the integer accumulation is compared
    against: every Leibniz term is added through ``padd`` and the target
    subset is found by sorting.
    """
    n = m.n
    if not 1 <= k <= n - 1:
        raise ValueError(f"wedge degree k={k} must satisfy 1 <= k <= {n - 1}")
    subsets = wedge_subsets(n, k)
    index = {s: p for p, s in enumerate(subsets)}
    entries: dict[tuple[int, int], dict[int, int]] = {}
    cols: dict[int, list[tuple[int, dict[int, int]]]] = {}
    for (r, c), p in sorted(m.entries.items()):
        cols.setdefault(c, []).append((r, p))
    for src_pos, s in enumerate(subsets):
        members = set(s)
        for t_idx, i in enumerate(s):
            for r, p in cols.get(i, ()):
                if r == i:
                    tgt, sign = s, 1
                else:
                    if r in members:
                        continue
                    rest = s[:t_idx] + s[t_idx + 1:]
                    tgt = tuple(sorted(rest + (r,)))
                    sign = (-1) ** (t_idx + tgt.index(r))
                key = (index[tgt], src_pos)
                entries[key] = padd(entries.get(key, {}), pmul(p, {0: sign}))
    return PolyMatrix(len(subsets), entries)


def reference_char_poly(m: PolyMatrix) -> tuple[dict[int, int], ...]:
    """det(xI - M) by the Berkowitz method run directly over polynomial entries.

    The test-only reference ``minrep.char_poly`` is compared against:
    slow, but it shares no code with the graded integer kernel.
    """
    return tuple(_berkowitz(dense_rows(m)))


def _berkowitz(rows: list[list[dict[int, int]]]) -> list[dict[int, int]]:
    n = len(rows)
    one, minus_one = {0: 1}, {0: -1}
    if n == 0:
        return [one]
    if n == 1:
        return [one, pmul(minus_one, rows[0][0])]
    a = rows[0][0]
    r_vec = rows[0][1:]
    c_vec = [rows[k][0] for k in range(1, n)]
    sub = [row[1:] for row in rows[1:]]

    def dot(u: list[dict[int, int]], v: list[dict[int, int]]) -> dict[int, int]:
        acc: dict[int, int] = {}
        for x, y in zip(u, v):
            acc = padd(acc, pmul(x, y))
        return acc

    items = [one, pmul(minus_one, a)]
    v = r_vec
    for _ in range(n - 1):
        items.append(pmul(minus_one, dot(v, c_vec)))
        v = [dot(v, [row[j] for row in sub]) for j in range(n - 1)]

    prev = _berkowitz(sub)
    out = []
    for r in range(n + 1):
        acc: dict[int, int] = {}
        for c in range(n):
            k = r - c
            if 0 <= k <= n:
                acc = padd(acc, pmul(items[k], prev[c]))
        out.append(acc)
    return out
