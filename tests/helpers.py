"""Shared fixtures-in-plain-functions for the test suite."""
from __future__ import annotations

import random
from fractions import Fraction
from typing import Callable, Sequence

import minflag.minrep as minrep
from minflag import qchev, ttstar, weylorbit
from minflag.cli import SweepConfig, sweep_cases
from minflag.minrep import ONE, Q, ZERO, Check, Poly, PolyLike, PolyMatrix, _entry_witness
from minflag.rootsys import LieType, RootSystem, RootVec, Weight, build, diagram_involution, minuscule_weights
from minflag.satake import wedge_subsets
from minflag.weylorbit import Orbit, OrbitElement, orbit, poincare_dual

SWEEP = sweep_cases(SweepConfig())

# every per-orbit and per-root-system memo of the package
MEMOS = (
    qchev._oracle_table, qchev._lengths, qchev._oracle_outcome, qchev.quantum_product_matrix,
    minrep.quantum_operator, minrep._psi_map, minrep._simple_root_maps, weylorbit.crystal_edges,
    weylorbit.dual_positions, ttstar._toda_data,
)


def clear_memos() -> None:
    for memo in MEMOS:
        memo.cache_clear()


def rs_of(family: str, rank: int) -> RootSystem:
    return build(LieType(family, rank))


def orbit_of(family: str, rank: int, i: int) -> Orbit:
    return orbit(rs_of(family, rank), i)


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
            w = w - rs.simple_root_weights[j - 1].scaled(p)
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
    simple = [rs.simple_root(k) for k in range(1, n + 1)]
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
                    nu = w - rs.simple_root_weights[j - 1]
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


# -- matrix algebra over nonzero(): PolyMatrix itself is only a container ---------


def dense_rows(m: PolyMatrix) -> list[list[Poly]]:
    return [[m.entry(i, j) for j in range(m.n)] for i in range(m.n)]


def transpose(m: PolyMatrix) -> PolyMatrix:
    return PolyMatrix(m.n, {(j, i): p for i, j, p in m.nonzero()})


def identity(n: int) -> PolyMatrix:
    return PolyMatrix(n, {(i, i): 1 for i in range(n)})


def linear_combination(n: int, terms: list[tuple[PolyLike, PolyMatrix]]) -> PolyMatrix:
    """sum c M over the (c, M) of terms, each M n x n."""
    acc: dict[tuple[int, int], Poly] = {}
    for c, m in terms:
        assert m.n == n
        for i, j, p in m.nonzero():
            acc[(i, j)] = acc.get((i, j), ZERO) + p * c
    return PolyMatrix(n, acc)


def matmul(a: PolyMatrix, b: PolyMatrix) -> PolyMatrix:
    assert a.n == b.n
    cols_b: dict[int, list[tuple[int, Poly]]] = {}
    for k, j, p in b.nonzero():
        cols_b.setdefault(k, []).append((j, p))
    acc: dict[tuple[int, int], Poly] = {}
    for i, k, pa in a.nonzero():
        for j, pb in cols_b.get(k, ()):
            acc[(i, j)] = acc.get((i, j), ZERO) + pa * pb
    return PolyMatrix(a.n, acc)


def pairing_matrix(orb: Orbit) -> PolyMatrix:
    """The 0/1 Poincare pairing: G[mu][nu] = 1 iff nu is dual to mu.

    The test-only matrix form of what ``qchev.frobenius_check`` checks
    entrywise.
    """
    entries = {}
    for pos, el in enumerate(orb.elements):
        entries[(pos, orb.index_of[poincare_dual(orb, el.weight).pairings])] = 1
    return PolyMatrix(orb.size, entries)


def commutator(a: PolyMatrix, b: PolyMatrix) -> PolyMatrix:
    return linear_combination(a.n, [(ONE, matmul(a, b)), (-ONE, matmul(b, a))])


def reference_quantum_operator(orb: Orbit) -> PolyMatrix:
    """A(q) = sum_j E-(j) + q E_psi, summed matrix by matrix.

    The test-only reference the one-pass ``minrep.quantum_operator`` is
    compared against.
    """
    terms = [(ONE, minrep.lowering_matrix(orb, j)) for j in range(1, orb.rs.rank + 1)]
    return linear_combination(orb.size, [(Q, minrep.psi_raising_matrix(orb))] + terms)


def reference_operator_rows(orb: Orbit) -> dict[str, Callable[[PolyMatrix], Check]]:
    """The main-theorem, frobenius and grading rows on PolyMatrix entries, by row name.

    The test-only references the integer-entry rows of ``qchev`` are
    compared against.  The routes are the matrices of
    ``quantum_product_matrix`` and ``fw_oracle_matrix``, built once here
    for every operator checked on the orbit; each row compares Poly
    entries and walks the operator's ``nonzero()`` in row order.
    """
    w = orb.elements
    closed = qchev.quantum_product_matrix(orb)
    try:
        routes = [("closed-form product", closed), ("oracle product", qchev.fw_oracle_matrix(orb))]
    except (AssertionError, ValueError) as exc:
        failed = Check(False, f"oracle route failed: {type(exc).__name__}: {exc}")
        routes = []
    dual = [orb.index_of[poincare_dual(orb, el.weight).pairings] for el in w]
    lengths = qchev._lengths(orb)
    s = orb.rs.coxeter_number

    def main_theorem(operator: PolyMatrix) -> Check:
        if not routes:
            return failed
        for name, route in routes:
            keys = sorted({(i, j) for m in (operator, route) for i, j, _p in m.nonzero()})
            diff = next(((i, j) for i, j in keys if operator.entry(i, j) != route.entry(i, j)), None)
            if diff:
                i, j = diff
                return Check(False, f"operator vs {name} at ({w[i].weight}, {w[j].weight}): "
                                    f"{operator.entry(i, j)} != {route.entry(i, j)}")
        return Check(True, "three routes entrywise equal")

    def frobenius(operator: PolyMatrix) -> Check:
        for i, j, p in operator.nonzero():
            if operator.entry(dual[j], dual[i]) != p:
                return Check(False, f"A at ({w[i].weight}, {w[j].weight}) is {p} but at its dual entry "
                                    f"({w[dual[j]].weight}, {w[dual[i]].weight}) is {operator.entry(dual[j], dual[i])}")
        return Check(True, "A^T G = G A")

    def grading(operator: PolyMatrix) -> Check:
        for i, j, p in operator.nonzero():
            for exp, _coeff in p.items():
                if lengths[i] != lengths[j] + 1 - exp * s:
                    return Check(False, f"q^{exp} at ({w[i].weight}, {w[j].weight}): "
                                        f"length {lengths[i]} != {lengths[j]} + 1 - {exp}*{s}")
        return Check(True, "deg q = s homogeneity")

    return {"main-theorem": main_theorem, "frobenius": frobenius, "grading": grading}


def reference_rep_relations(orb: Orbit) -> Check:
    """``minrep.verify_rep_relations`` in product form: every bracket as XY - YX.

    The test-only reference the index-map check is compared against.  It
    reads the generators through the public ``minrep`` builders, which
    view the private map builders, so a test that replaces a map builder
    there changes both checks alike.  Every generator entry is a
    constant, so the products run on integer entries.
    """
    n = orb.rs.rank
    C = orb.rs.cartan
    low = {j: _constant_rows(minrep.lowering_matrix(orb, j)) for j in range(1, n + 1)}
    high = {j: _constant_rows(minrep.raising_matrix(orb, j)) for j in range(1, n + 1)}
    diag = {j: _constant_rows(minrep.cartan_action(orb, j)) for j in range(1, n + 1)}
    psi_m = _constant_rows(minrep.psi_raising_matrix(orb))

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
            witness = _entry_witness(orb, PolyMatrix(orb.size, got), PolyMatrix(orb.size, want))
            return Check(False, f"{failure} {witness}")
    return Check(True, f"{checks} brackets")


def _constant_rows(m: PolyMatrix) -> dict[int, dict[int, int]]:
    """The nonzero entries of a matrix of constants, as integers by row: {i: {j: m_ij}}."""
    rows: dict[int, dict[int, int]] = {}
    for i, j, p in m.nonzero():
        assert p.degree == 0, (i, j, p)
        rows.setdefault(i, {})[j] = p.coeff(0)
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
    """``satake.wedge_matrix`` summed term by term as Poly values.

    The test-only reference the integer accumulation is compared
    against: every Leibniz term is added as a Poly and the target
    subset is found by sorting.
    """
    n = m.n
    if not 1 <= k <= n - 1:
        raise ValueError(f"wedge degree k={k} must satisfy 1 <= k <= {n - 1}")
    subsets = wedge_subsets(n, k)
    index = {s: p for p, s in enumerate(subsets)}
    entries: dict[tuple[int, int], Poly] = {}
    cols: dict[int, list[tuple[int, Poly]]] = {}
    for (r, c, p) in m.nonzero():
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
                term = p if sign == 1 else p * (-1)
                entries[key] = entries.get(key, Poly()) + term
    return PolyMatrix(len(subsets), entries)


def reference_char_poly(m: PolyMatrix) -> tuple[Poly, ...]:
    """det(xI - M) by the Berkowitz method run directly over Poly entries.

    The test-only reference ``minrep.char_poly`` is compared against:
    slow, but it shares no code with the graded integer kernel.
    """
    return tuple(_berkowitz(dense_rows(m)))


def _berkowitz(rows: list[list[Poly]]) -> list[Poly]:
    n = len(rows)
    if n == 0:
        return [ONE]
    if n == 1:
        return [ONE, -rows[0][0]]
    a = rows[0][0]
    r_vec = rows[0][1:]
    c_vec = [rows[k][0] for k in range(1, n)]
    sub = [row[1:] for row in rows[1:]]

    items = [ONE, -a]
    v = r_vec
    for _ in range(n - 1):
        items.append(-sum((vi * ci for vi, ci in zip(v, c_vec)), ZERO))
        v = [sum((vi * sub[k][j] for k, vi in enumerate(v)), ZERO) for j in range(n - 1)]

    prev = _berkowitz(sub)
    out = []
    for r in range(n + 1):
        acc = ZERO
        for c in range(n):
            k = r - c
            if 0 <= k <= n:
                acc = acc + items[k] * prev[c]
        out.append(acc)
    return out
