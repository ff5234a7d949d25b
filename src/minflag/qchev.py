"""Quantum multiplication by the Schubert divisor class, three ways.

Route 1, the closed form: lower by each simple root whose coroot
pairing with the class's weight is 1, and add one q-weighted term
raising by the highest root exactly when the highest-coroot pairing
is -1.

Route 2, the oracle: the divisor product as a sum over all positive
roots outside the parabolic, with candidate terms kept or discarded by
the independent length function alone.  Along the way the oracle
asserts the structural facts that make the closed form work: every
surviving classical reflection transports to a simple root, every
surviving quantum one to the negative of the highest root, and all
coefficients are 1.

Route 3 lives in minrep: the canonical-basis operator A(q).

``verify_main_theorem`` checks the three routes agree entrywise as
integer polynomials in q.  Frobenius symmetry with respect to the
Poincare pairing and q-grading homogeneity give two further
cross-checks that detect single-entry corruption.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Optional, Sequence

from .minrep import Poly, PolyMatrix, quantum_operator
from .rootsys import RootSystem, RootVec, Weight, pair, reflect
from .weylorbit import Orbit, apply_word, length, poincare_dual


@dataclass(frozen=True)
class SchubertClass:
    """A Schubert basis class, indexed by its orbit weight."""

    weight: Weight


@dataclass(frozen=True)
class QProductTerm:
    """One term of a divisor product: coefficient * q^q_power * target."""

    target: SchubertClass
    q_power: int
    coefficient: int


def divisor_complement(orb: Orbit) -> list[RootVec]:
    """Positive roots outside the parabolic: those pairing to 1 with lambda_i.

    Their number equals the complex dimension of the flag manifold.
    """
    rs = orb.rs
    lam = orb.highest_weight
    out = [alpha for alpha in rs.positive_roots if pair(rs, lam, alpha) == 1]
    assert len(out) == orb.dim_complex
    return out


def chevalley_closed(orb: Orbit, u: SchubertClass) -> list[QProductTerm]:
    """Closed-form divisor product on sigma_u, classical terms first."""
    rs = orb.rs
    mu = u.weight
    if mu not in orb.index_of:
        raise ValueError(f"{mu} is not a Schubert class of this orbit")
    terms = []
    for j in range(1, rs.rank + 1):
        if mu.pairings[j - 1] == 1:
            terms.append(QProductTerm(SchubertClass(mu - rs.simple_root_weights[j - 1]), 0, 1))
    if pair(rs, mu, rs.highest_root) == -1:
        terms.append(QProductTerm(SchubertClass(mu + rs.highest_root_weight), 1, 1))
    return terms


def chevalley_fw_oracle(orb: Orbit, u: SchubertClass) -> list[QProductTerm]:
    """Divisor product summed over the whole divisor complement.

    For each candidate root alpha, transport it by the stored reduced
    word to beta = u(alpha) and form the candidate target
    u(lambda_i) - beta.  Keep a classical term iff the independent
    length jumps by +1 and a q-term iff it jumps by -(s-1); everything
    else is discarded.  Raises AssertionError if a surviving term
    violates the simple-root / highest-root classification.
    """
    rs = orb.rs
    mu = u.weight
    el = orb.element(mu)
    s = rs.coxeter_number
    base_len = length(orb, mu)
    terms = []
    for alpha in divisor_complement(orb):
        beta = apply_word(rs, el.word, alpha)
        target = mu - rs.root_to_weight(beta)
        jump = length(orb, target) - base_len
        if jump != beta.height:
            raise AssertionError("length jump must equal the transported height")
        if jump == 1:
            if not (beta.is_positive and beta.height == 1):
                raise AssertionError("surviving classical root must be simple")
            if pair(rs, mu, beta) != 1:
                raise AssertionError(f"surviving simple root {beta} must pair to 1 with {mu}")
            terms.append(QProductTerm(SchubertClass(target), 0, 1))
        elif jump == -(s - 1):
            if -beta != rs.highest_root:
                raise AssertionError("surviving quantum root must be the negated highest root")
            if pair(rs, mu, rs.highest_root) != -1:
                raise AssertionError(f"quantum term at {mu} needs highest-coroot pairing -1")
            terms.append(QProductTerm(SchubertClass(target), 1, 1))
    terms.sort(key=lambda t: (t.q_power, orb.index_of[t.target.weight]))
    return terms


def n_alpha(rs: RootSystem, i: int, alpha: RootVec) -> int:
    """Pairing of the divisor-complement root sum against alpha^vee.

    Defined for alpha in the divisor complement of lambda_i; equals the
    Coxeter number for every such alpha.
    """
    lam = rs.fundamental_weight(i)
    if not (rs.is_root(alpha) and alpha.is_positive and pair(rs, lam, alpha) == 1):
        raise ValueError(f"{alpha} is not in the divisor complement of weight {i}")
    return pair(rs, _complement_sum(rs, i), alpha)


@lru_cache(maxsize=None)
def _complement_sum(rs: RootSystem, i: int) -> Weight:
    """The sum of the positive roots pairing to 1 with lambda_i, as a weight."""
    lam = rs.fundamental_weight(i)
    total = [0] * rs.rank
    for gamma in rs.positive_roots:
        if pair(rs, lam, gamma) == 1:
            for k, c in enumerate(gamma.coeffs):
                total[k] += c
    return rs.root_to_weight(RootVec(tuple(total)))


def quantum_product_matrix(orb: Orbit) -> PolyMatrix:
    """Matrix of the divisor product, columns from the closed form."""
    return _columns_matrix(
        orb, [chevalley_closed(orb, SchubertClass(el.weight)) for el in orb.elements]
    )


@dataclass
class OracleSurvivorStats:
    """Classification counts from one full oracle sweep over an orbit."""

    candidates: int
    classical: int
    quantum: int
    discarded: int


def _survivor_stats(n_cand: int, terms: list[QProductTerm]) -> OracleSurvivorStats:
    classical = sum(1 for t in terms if t.q_power == 0)
    quantum = sum(1 for t in terms if t.q_power == 1)
    return OracleSurvivorStats(n_cand, classical, quantum, n_cand - classical - quantum)


def fw_oracle_pass(orb: Orbit) -> tuple[PolyMatrix, list[OracleSurvivorStats]]:
    """One oracle run over every class: the matrix and the survivor counts.

    Calls ``chevalley_fw_oracle`` once per class; the k-th survivor
    count belongs to the k-th orbit element, in canonical order.
    """
    n_cand = len(divisor_complement(orb))
    columns = [chevalley_fw_oracle(orb, SchubertClass(el.weight)) for el in orb.elements]
    return _columns_matrix(orb, columns), [_survivor_stats(n_cand, terms) for terms in columns]


def fw_oracle_matrix(orb: Orbit) -> PolyMatrix:
    """Matrix of the divisor product, columns from the oracle route."""
    return fw_oracle_pass(orb)[0]


def oracle_survivors(orb: Orbit, u: SchubertClass) -> OracleSurvivorStats:
    """Candidate bookkeeping for one class: how many roots survive each way."""
    return _survivor_stats(len(divisor_complement(orb)), chevalley_fw_oracle(orb, u))


def _columns_matrix(orb: Orbit, columns: list[list[QProductTerm]]) -> PolyMatrix:
    """The matrix whose column k holds the terms of the k-th class's product."""
    entries: dict[tuple[int, int], Poly] = {}
    for src, terms in enumerate(columns):
        for t in terms:
            key = (orb.index_of[t.target.weight], src)
            term = Poly.term(t.coefficient, t.q_power)
            entries[key] = entries.get(key, Poly()) + term
    return PolyMatrix(orb.size, entries, tuple(e.weight for e in orb.elements))


@dataclass
class TheoremReport:
    """Outcome of the three-route entrywise comparison on one orbit."""

    ok: bool
    size: int
    mismatch: Optional[str] = None


def verify_main_theorem(orb: Orbit) -> TheoremReport:
    """Entrywise equality of the canonical operator and both product routes."""
    mismatch = first_mismatch(
        orb,
        quantum_operator(orb),
        (("closed-form product", quantum_product_matrix(orb)), ("oracle product", fw_oracle_matrix(orb))),
    )
    return TheoremReport(mismatch is None, orb.size, mismatch)


def first_mismatch(
    orb: Orbit, operator: PolyMatrix, routes: Sequence[tuple[str, PolyMatrix]]
) -> Optional[str]:
    """The first entry where a route differs from the operator, or None.

    Routes are compared in the order given and entries row by row; the
    witness names the route, the (target, source) weights and both
    values.
    """
    for name, other in routes:
        if operator == other:
            continue
        for i in range(orb.size):
            for j in range(orb.size):
                if operator.entry(i, j) != other.entry(i, j):
                    tgt = orb.elements[i].weight
                    src = orb.elements[j].weight
                    return (
                        f"operator vs {name} at ({tgt}, {src}): "
                        f"{operator.entry(i, j)} != {other.entry(i, j)}"
                    )
    return None


def pairing_matrix(orb: Orbit) -> PolyMatrix:
    """The 0/1 Poincare pairing: G[mu][nu] = 1 iff nu is dual to mu."""
    entries = {}
    for pos, el in enumerate(orb.elements):
        entries[(pos, orb.index_of[poincare_dual(orb, el.weight)])] = 1
    return PolyMatrix(orb.size, entries, tuple(e.weight for e in orb.elements))


def frobenius_check(orb: Orbit, operator: Optional[PolyMatrix] = None) -> bool:
    """A(q)^T G = G A(q) as polynomial matrices, G the Poincare pairing."""
    a = quantum_operator(orb) if operator is None else operator
    g = pairing_matrix(orb)
    return a.transpose() * g == g * a


def grading_check(orb: Orbit, operator: Optional[PolyMatrix] = None) -> bool:
    """Every entry is homogeneous: length(target) = length(source) + 1 - p*s."""
    a = quantum_operator(orb) if operator is None else operator
    s = orb.rs.coxeter_number
    lengths = [length(orb, el.weight) for el in orb.elements]
    for i, j, p in a.nonzero():
        for exp, _coeff in p.items():
            if lengths[i] != lengths[j] + 1 - exp * s:
                return False
    return True


def trichotomy_check(orb: Orbit) -> bool:
    """For every (weight, simple root) exactly one of three situations holds.

    Pairing 1 with the length of the lowered weight one higher, pairing
    0 with the weight fixed by the reflection, or pairing -1 with the
    length of the raised weight one lower; lengths measured by the
    independent oracle.
    """
    rs = orb.rs
    for el in orb.elements:
        base = length(orb, el.weight)
        for j in range(1, rs.rank + 1):
            m = el.weight.pairings[j - 1]
            alpha_w = rs.simple_root_weights[j - 1]
            if m == 1:
                nu = el.weight - alpha_w
                if nu not in orb.index_of or length(orb, nu) != base + 1:
                    return False
            elif m == -1:
                nu = el.weight + alpha_w
                if nu not in orb.index_of or length(orb, nu) != base - 1:
                    return False
            elif m == 0:
                if reflect(rs, el.weight, rs.simple_root(j)) != el.weight:
                    return False
            else:
                return False
    return True
