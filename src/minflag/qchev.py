"""Quantum multiplication by the Schubert divisor class, three ways.

Route 1, the closed form: lower by each simple root whose coroot
pairing with the class's weight is 1, and add one q-weighted term
lowering by the affine root alpha_0 = -theta, that is raising by the
highest root theta, exactly when the highest-coroot pairing is -1.

Route 2, the oracle: the divisor product as a sum over all positive
roots outside the parabolic, with candidate terms kept or discarded by
the independent length function alone.  Each class's coset
representative, which transports the candidate roots, is found from the
weights alone: a class is its raised neighbour reflected by one simple
root.  The oracle reads neither the stored BFS words nor the stored
lengths.  It keeps one table for the current orbit, ``_oracle_table``:
each class's transported roots as (root, key, height) entries, by
canonical index, each read from ``_root_entries``, one interned entry
per root of the root system.  Its lengths come from ``_lengths``, the
one per-orbit list of ``length`` values, which the grading and
trichotomy checks read too, so ``length`` runs once per element.  A
candidate target is the class's weight key minus the root's, looked up
in ``Orbit.index_of``, and only survivors are kept.  Along the way the
oracle asserts the structural facts that make the closed form work:
every surviving classical reflection transports to a simple root, and
every surviving quantum one to the negative of the highest root.

Both routes return a product as a list of (q_power, position) pairs,
position indexing ``orb.elements``: one column of A(q).  No pair
carries a coefficient: each is (lambda_i, alpha^vee) = 1.
``_columns_matrix`` sums the columns into a PolyMatrix: the closed
route's is ``quantum_product_matrix``, built anew per call, and the
oracle's comes from ``fw_oracle_pass`` with its survivor counts.

Route 3 lives in minrep: the canonical-basis operator A(q).

``main_theorem_check`` compares the operator with each route's matrix
in one ``==``, and ``survivor_check`` checks that the oracle's
survivors classify as the closed form predicts; both read one oracle
pass per orbit, ``_oracle_outcome``.  Frobenius symmetry and q-grading
homogeneity each accept in one pass over the operator's integer
entries (``PolyMatrix.entries``); the Frobenius row reads the orbit's
Poincare-dual positions from ``weylorbit.dual_positions``.
These three checks are handed the operator they check, A(q) or a
corrupted copy, and never build A(q); ``_sized`` fails one of another
size before any entry is read.  ``orbit_size_check`` compares the BFS
orbit size with ``weylorbit.expected_orbit_size``.  Every check returns
one ``minrep.Check`` whose detail names a failure's witness, the first
in row order, printed by ``minrep.poly_text``; ``cli.ROWS`` runs each as
a ``verify`` row.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache, wraps
from operator import add, mul

from .minrep import Check, PolyMatrix, _entry_witness, _Entries, poly_text
from .rootsys import RootSystem, RootVec, Weight, coroot, pair
from .weylorbit import Orbit, apply_word, dual_positions, expected_orbit_size, length


def divisor_complement(orb: Orbit) -> tuple[RootVec, ...]:
    """Positive roots outside the parabolic: those pairing to 1 with lambda_i.

    Their number must equal the complex dimension of the flag manifold;
    AssertionError otherwise.  The roots come from ``_complement``,
    keyed by the orbit's own top weight: the one filter over the
    positive roots, run once per root system and top weight, whose
    tuple ``n_alpha``'s root sum reads too.
    """
    out = _complement(orb.rs, orb.highest_weight.pairings)
    if len(out) != orb.dim_complex:
        raise AssertionError(f"{len(out)} complement roots for orbit dimension {orb.dim_complex}")
    return out


@lru_cache(maxsize=None)
def _complement(rs: RootSystem, top: tuple[int, ...]) -> tuple[RootVec, ...]:
    """The positive roots pairing to 1 with the weight of pairings top, once per (root system, top)."""
    lam = Weight(top)
    return tuple(alpha for alpha in rs.positive_roots if pair(rs, lam, alpha) == 1)


def chevalley_closed(orb: Orbit, mu: Weight) -> list[tuple[int, int]]:
    """Closed-form divisor product on the class of the weight mu, as (q_power, position) pairs.

    The classical pairs (0, position of mu - alpha_j) come first, in j
    order, then the one quantum pair (1, position of mu - alpha_0 =
    mu + theta) if any.  The targets come from ``Orbit.lowered``; only
    a miss calls ``Orbit.neighbour``.
    Raises ValueError if mu is not in the orbit (``Orbit.position``, the
    one membership test and its one text), and ``neighbour``'s
    AssertionError naming mu, the root and the target if a target is not.
    """
    rs = orb.rs
    pos = orb.position(mu)
    steps = [(0, j) for j, m in enumerate(mu.pairings, 1) if m == 1]
    if pair(rs, mu, rs.highest_root) == -1:
        steps.append((1, 0))
    terms = []
    for q_power, j in steps:
        t = orb.lowered(pos, j)
        terms.append((q_power, orb.neighbour(pos, "-", j) if t is None else t))
    return terms


def chevalley_fw_oracle(orb: Orbit, mu: Weight) -> list[tuple[int, int]]:
    """Divisor product on the class of mu, summed over the whole divisor complement.

    Each candidate root alpha is transported to beta = u(alpha), u the
    minimal coset representative with u(lambda_i) = mu, and forms the
    candidate target mu - beta.  The transport comes from the weights
    alone (``_oracle_table``), never from the stored BFS words, and the
    lengths from ``_lengths``.  Keep a classical term iff the independent
    length jumps by +1 and a q-term iff it jumps by -(s-1); everything
    else is discarded.  A candidate is mu's weight key minus beta's,
    looked up in ``Orbit.index_of``: exact, since mu is confirmed an
    orbit weight (``Orbit.position``) and beta is a root.  The survivors
    are returned as sorted (q_power, position) pairs, classical first.
    Raises AssertionError if a surviving term violates the simple-root /
    highest-root classification, and ValueError naming mu, beta and the
    target if mu or a target is not in the orbit.
    """
    rs = orb.rs
    rows, lengths = _oracle_table(orb), _lengths(orb)
    index = orb.index_of
    k = orb.position(mu)
    quantum_jump = 1 - rs.coxeter_number
    mp, mkey = mu.pairings, orb.keys[k]
    base_len = lengths[k]
    kept = []
    for beta, beta_key, height in rows[k]:
        t = index.get(mkey - beta_key)
        if t is None:
            raise ValueError(f"{mu} - {beta} = {mu - rs.root_to_weight(beta)} is not in the orbit")
        jump = lengths[t] - base_len
        if jump != height:
            raise AssertionError("length jump must equal the transported height")
        if jump == 1:
            if not (beta.is_positive and height == 1):
                raise AssertionError("surviving classical root must be simple")
            # beta = alpha_j, whose coroot pairing with mu is mu's j-th entry
            if mp[beta.coeffs.index(1)] != 1:
                raise AssertionError(f"surviving simple root {beta} must pair to 1 with {mu}")
            kept.append((0, t))
        elif jump == quantum_jump:
            if -beta != rs.highest_root:
                raise AssertionError("surviving quantum root must be the negated highest root")
            if pair(rs, mu, rs.highest_root) != -1:
                raise AssertionError(f"quantum term at {mu} needs highest-coroot pairing -1")
            kept.append((1, t))
    kept.sort()
    return kept


# (root, its weight key, its height): one interned entry per root
_Entry = tuple[RootVec, int, int]


@lru_cache(maxsize=None)
def _root_entries(rs: RootSystem) -> dict[tuple[int, ...], _Entry]:
    """Every root's oracle entry by its coefficients, built once per root system.

    The roots are the reflection table's own RootVecs (each s_j permutes
    the roots, so the values of s_1's table are all of them), the ones
    ``apply_word`` returns.
    """
    pairings = rs.root_pairings
    return {r.coeffs: (r, Weight(pairings[r.coeffs]).key, r.height) for r in rs.reflection_table[0].values()}


@lru_cache(maxsize=1)
def _oracle_table(orb: Orbit) -> list[tuple[_Entry, ...]]:
    """The oracle's per-orbit memo: each class's transported complement, by canonical index.

    The top weight transports the divisor complement by the identity.
    Any other mu has a first simple root alpha_j with pairing -1, and
    nu = mu + alpha_j has u_mu = s_j u_nu, so mu's transported
    complement is s_j applied to nu's, entry by entry: one single-letter
    ``apply_word`` call per (class, root), whose root's entry is read
    from ``_root_entries``.  Only the most recent orbit's table is kept.
    """
    rs = orb.rs
    top = orb.highest_weight
    raise_by = [a.pairings for a in rs.node_weights]
    entries = _root_entries(rs)
    transport = {top.pairings: tuple(entries[alpha.coeffs] for alpha in divisor_complement(orb))}
    for el in orb.elements:
        chain = []
        mu = el.weight.pairings
        while mu not in transport:
            j = next((k for k, p in enumerate(mu, 1) if p == -1), None)
            if j is None:
                raise AssertionError(f"{Weight(mu)} has no raising simple root but is not the top weight {top}")
            chain.append((mu, j))
            mu = tuple(map(add, mu, raise_by[j]))
        for lowered, j in reversed(chain):
            word = (j,)
            transport[lowered] = tuple(entries[apply_word(rs, word, beta).coeffs] for beta, _, _ in transport[mu])
            mu = lowered
    return [transport[el.weight.pairings] for el in orb.elements]


@lru_cache(maxsize=1)
def _lengths(orb: Orbit) -> list[int]:
    """``length`` of every element, by canonical index: one list per orbit.

    The oracle and the grading and trichotomy checks all read this list,
    so ``length`` runs once per element of the orbit.  It comes from
    ``length`` alone, never from the stored words or lengths.  Only the
    most recent orbit's list is kept; a test that replaces ``length``
    clears it.
    """
    return [length(orb, el.weight) for el in orb.elements]


_EXPECTED_COXETER = {
    "A": lambda n: n + 1,
    "B": lambda n: 2 * n,
    "C": lambda n: 2 * n,
    "D": lambda n: 2 * n - 2,
    "E": lambda n: {6: 12, 7: 18, 8: 30}[n],
}


def orbit_size_check(orb: Orbit) -> Check:
    """The BFS orbit size equals the closed form of ``weylorbit.expected_orbit_size``."""
    want = expected_orbit_size(orb.rs.lie_type, orb.weight_index)
    return Check(orb.size == want, f"{orb.size} vs {want}")


def coxeter_check(orb: Orbit) -> Check:
    """s is the tabulated Coxeter number and n_alpha = s on the divisor complement."""
    rs, lt = orb.rs, orb.rs.lie_type
    s, expect = rs.coxeter_number, _EXPECTED_COXETER[lt.family](lt.rank)
    if s != expect:
        return Check(False, f"s = {s}, but {lt} has Coxeter number {expect}")
    for alpha in divisor_complement(orb):
        n = n_alpha(rs, orb.weight_index, alpha)
        if n != s:
            return Check(False, f"n_alpha = {n} != s = {s} at alpha = {alpha}")
    return Check(True, f"n_alpha = s = {s}")


def n_alpha(rs: RootSystem, i: int, alpha: RootVec) -> int:
    """Pairing of the divisor-complement root sum against alpha^vee.

    Defined for alpha in the divisor complement of lambda_i; equals the
    Coxeter number for every such alpha.
    """
    total = _complement_sum(rs, i)  # rs.fundamental_weight(i) checks the range of i
    # (lambda_i, alpha^vee) is coroot coefficient i of alpha
    co = coroot(rs, alpha) if rs.is_root(alpha) and alpha.is_positive else None
    if co is None or co[i - 1] != 1:
        raise ValueError(f"{alpha} is not in the divisor complement of weight {i}")
    return sum(map(mul, co, total))


@lru_cache(maxsize=None, typed=True)
def _complement_sum(rs: RootSystem, i: int) -> tuple[int, ...]:
    """The pairings of the sum of the divisor complement of lambda_i (``_complement``).

    The memo is typed, as ``weylorbit.orbit``'s is: a bool index equal
    to an int one (True == 1) does not read the int's entry, so its own
    call runs and ``fundamental_weight`` raises TypeError.
    """
    columns = zip(*(gamma.coeffs for gamma in _complement(rs, rs.fundamental_weight(i).pairings)))
    return rs.root_to_weight(RootVec(tuple(map(sum, columns)))).pairings


def quantum_product_matrix(orb: Orbit) -> PolyMatrix:
    """Matrix of the divisor product, columns from the closed form: a new matrix per call."""
    return _columns_matrix(orb, [chevalley_closed(orb, el.weight) for el in orb.elements])


@dataclass
class OracleSurvivorStats:
    """Classification counts from one full oracle sweep over an orbit."""

    candidates: int
    classical: int
    quantum: int
    discarded: int


def _survivor_stats(n_cand: int, terms: list[tuple[int, int]]) -> OracleSurvivorStats:
    classical = sum(1 for q_power, _ in terms if q_power == 0)
    quantum = sum(1 for q_power, _ in terms if q_power == 1)
    return OracleSurvivorStats(n_cand, classical, quantum, n_cand - classical - quantum)


def fw_oracle_pass(orb: Orbit) -> tuple[PolyMatrix, list[OracleSurvivorStats]]:
    """One oracle run over every class: the matrix and the survivor counts.

    Calls ``chevalley_fw_oracle`` once per class; the k-th survivor
    count belongs to the k-th orbit element, in canonical order, and its
    candidates are the entries the oracle read from that class's row of
    ``_oracle_table``.
    """
    columns = [chevalley_fw_oracle(orb, el.weight) for el in orb.elements]
    stats = [_survivor_stats(len(row), terms) for row, terms in zip(_oracle_table(orb), columns)]
    return _columns_matrix(orb, columns), stats


@lru_cache(maxsize=1)
def _oracle_outcome(orb: Orbit) -> tuple[PolyMatrix, list[OracleSurvivorStats]] | Check:
    """``fw_oracle_pass(orb)``, or the failed Check its AssertionError or ValueError makes.

    The main-theorem and survivor rows both read this memo, so the
    oracle runs once per orbit, also when it raises.  Only the most
    recent orbit's outcome is kept.
    """
    try:
        return fw_oracle_pass(orb)
    except (AssertionError, ValueError) as exc:
        return Check(False, f"oracle route failed: {type(exc).__name__}: {exc}")


def _sized(check):
    """The check, failed before any entry is read for an operator whose size is not the orbit's."""
    def checked(orb: Orbit, operator: PolyMatrix) -> Check:
        if operator.n != orb.size:
            return Check(False, f"operator of size {operator.n} for an orbit of size {orb.size}")
        return check(orb, operator)
    return wraps(check)(checked)


@_sized
def main_theorem_check(orb: Orbit, operator: PolyMatrix) -> Check:
    """The operator, A(q) or a corrupted copy, equals both product routes entrywise.

    The matrices are compared in one ``==`` per route.  A failure names
    the first differing route, closed form before oracle, and its first
    differing entry in row order (``_entry_witness``); a raising oracle
    fails the row with its text.
    """
    closed = quantum_product_matrix(orb)
    outcome = _oracle_outcome(orb)
    if isinstance(outcome, Check):
        return outcome
    for name, route in (("closed-form product", closed), ("oracle product", outcome[0])):
        witness = _entry_witness(orb, operator, route)
        if witness:
            return Check(False, f"operator vs {name} {witness}")
    return Check(True, "three routes entrywise equal")


def survivor_check(orb: Orbit) -> Check:
    """Every class sees the whole complement and keeps at most one q-term.

    Reads the oracle pass of ``_oracle_outcome``; a raising oracle fails
    the row with its text.
    """
    outcome = _oracle_outcome(orb)
    if isinstance(outcome, Check):
        return outcome
    for el, stats in zip(orb.elements, outcome[1]):
        if stats.candidates != orb.dim_complex or stats.quantum > 1:
            return Check(False, f"unexpected survivor counts at {el.weight}: {stats}")
    return Check(True, "classification holds")


def fw_oracle_matrix(orb: Orbit) -> PolyMatrix:
    """Matrix of the divisor product, columns from the oracle route."""
    return fw_oracle_pass(orb)[0]


def oracle_survivors(orb: Orbit, mu: Weight) -> OracleSurvivorStats:
    """Candidate bookkeeping for the class of mu: how many of the roots the oracle read survive each way."""
    terms = chevalley_fw_oracle(orb, mu)
    return _survivor_stats(len(_oracle_table(orb)[orb.position(mu)]), terms)


def _columns_matrix(orb: Orbit, columns: list[list[tuple[int, int]]]) -> PolyMatrix:
    """The matrix whose column k holds the (q_power, position) pairs of the k-th class's product.

    Each pair adds 1 to the q^q_power coefficient at (position, k).
    """
    coeffs: _Entries = {}
    for src, terms in enumerate(columns):
        for q_power, t in terms:
            entry = coeffs.setdefault((t, src), {})
            entry[q_power] = entry.get(q_power, 0) + 1
    return PolyMatrix(orb.size, coeffs)


@_sized
def frobenius_check(orb: Orbit, operator: PolyMatrix) -> Check:
    """A^T G = G A for the operator A, G the Poincare pairing.

    Entrywise: A at (mu, nu) equals A at (nu*, mu*), * the Poincare dual.
    One pass over the integer entries; a failure names the first in row order.
    """
    dual, entries = dual_positions(orb), operator.entries
    bad = [(i, j) for (i, j), c in entries.items() if entries.get((dual[j], dual[i])) != c]
    if bad:
        i, j = min(bad)
        w = [el.weight for el in orb.elements]
        return Check(False, f"A at ({w[i]}, {w[j]}) is {poly_text(entries[(i, j)])} but at its dual entry "
                            f"({w[dual[j]]}, {w[dual[i]]}) is {poly_text(entries.get((dual[j], dual[i]), {}))}")
    return Check(True, "A^T G = G A")


@_sized
def grading_check(orb: Orbit, operator: PolyMatrix) -> Check:
    """Every entry of the operator is homogeneous: length(target) = length(source) + 1 - p*s.

    One pass over the integer entries; a failure names the first entry in
    row order and its lowest failing exponent.
    """
    s = orb.rs.coxeter_number
    lengths = _lengths(orb)
    bad = [(i, j, exp) for (i, j), c in operator.entries.items() for exp in c
           if lengths[i] != lengths[j] + 1 - exp * s]
    if bad:
        i, j, exp = min(bad)
        w = orb.elements
        return Check(False, f"q^{exp} at ({w[i].weight}, {w[j].weight}): "
                            f"length {lengths[i]} != {lengths[j]} + 1 - {exp}*{s}")
    return Check(True, "deg q = s homogeneity")


def trichotomy_check(orb: Orbit) -> Check:
    """For every (weight, simple root) exactly one of three situations holds.

    Pairing 1 with the length of the lowered weight one higher, pairing
    0 (the reflection fixes the weight by definition, so nothing is
    measured), or pairing -1 with the length of the raised weight one
    lower; lengths measured by the independent oracle.  A neighbour is
    the weight's key minus pairing times alpha_j's, looked up in
    ``Orbit.index_of``.  A failure names the weight, the simple root and
    what went wrong.
    """
    rs = orb.rs
    lengths = _lengths(orb)
    alpha_keys = rs.node_keys

    def fail(why: str) -> Check:
        return Check(False, f"at {el.weight}, alpha_{j}: pairing {m}, {why}")

    for el, key, base in zip(orb.elements, orb.keys, lengths):
        for j, m in enumerate(el.weight.pairings, 1):
            if m == 0:
                continue  # s_j fixes a weight of pairing 0 by definition: nothing to measure
            if m not in (1, -1):
                return fail("outside -1, 0, 1")
            k = orb.index_of.get(key - m * alpha_keys[j])
            if k is None or lengths[k] != base + m:
                nu = el.weight - rs.node_weights[j].scaled(m)
                return fail(f"but {nu} is not in the orbit" if k is None
                            else f"but {nu} has length {lengths[k]}, not {base + m}")
    return Check(True, "pairing/length cases")
