import pytest
from dataclasses import FrozenInstanceError
from fractions import Fraction
from functools import lru_cache

from hypothesis import given, settings, strategies as st

import minflag.minrep as minrep
import minflag.weylorbit as weylorbit
from minflag.satake import _sign_ratio
from helpers import (
    commutator,
    linear_combination,
    matmul,
    orbit_of,
    padd,
    pmul,
    reference_char_poly,
    reference_quantum_operator,
    reference_rep_relations,
    sweep_orbits,
    transpose,
)
from minflag.minrep import (
    Check,
    PolyMatrix,
    _entry_witness,
    char_poly,
    lowering_matrix,
    poly_text,
    psi_raising_matrix,
    quantum_operator,
    verify_rep_relations,
)
from minflag.rootsys import pair
from minflag.weylorbit import Orbit, length


def _m(rows):
    """The PolyMatrix of dense rows of {q_power: coeff} dicts, a plain int v read as {0: v}."""
    n = len(rows)
    return PolyMatrix(n, {(i, j): {0: v} if type(v) is int else v
                          for i, row in enumerate(rows) for j, v in enumerate(row)})


def _raising(orb, j):
    """E+(j) as a PolyMatrix, straight from its index map."""
    return PolyMatrix(orb.size, {(t, c): {0: v} for c, (t, v) in minrep._raising_maps(orb)[j - 1].items()})


def _cartan(orb, j):
    """H(j) as a PolyMatrix: diagonal, basis vector mu scaled by its pairing (mu, alpha_j^vee)."""
    return PolyMatrix(orb.size, {(c, c): {0: el.weight.pairings[j - 1]} for c, el in enumerate(orb.elements)})


Q = {1: 1}  # q itself
# polynomials in their one form: {q_power: nonzero coefficient}
polys = st.dictionaries(st.integers(0, 5), st.integers(-9, 9).filter(bool), max_size=4)


@st.composite
def small_poly_matrices(draw):
    """n <= 6, entries of degree <= 3 with coefficients in [-3, 3]."""
    n = draw(st.integers(0, 6))
    if not n:
        return PolyMatrix(0)
    cell = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
    entry = st.dictionaries(st.integers(0, 3), st.integers(-3, 3), min_size=1, max_size=2)
    return PolyMatrix(n, draw(st.dictionaries(cell, entry, max_size=n * n)))


# -- polynomials as {q_power: coefficient} dicts ---------------------------------


def test_poly_basics():
    table = [
        ({}, "0"),
        ({0: 1}, "1"),
        ({0: -5}, "-5"),
        ({1: 1}, "q"),
        ({1: -1}, "-q"),
        ({1: -1, 0: 2}, "-q + 2"),
        ({0: 1, 2: 3}, "3*q^2 + 1"),
        ({3: -2, 1: 1, 0: -1}, "-2*q^3 + q - 1"),
        ({2: 1, 0: -1}, "q^2 - 1"),
    ]
    for coeffs, text in table:
        assert poly_text(coeffs) == text, coeffs


@settings(max_examples=100, deadline=None)
@given(a=polys, b=polys)
def test_sign_against_is_the_ratio_of_equal_or_negated_polys(a, b):
    # the sign ratio lives in satake, its only user, on coefficient dicts
    minus_a = pmul(a, {0: -1})
    want = 1 if b == a else -1 if b == minus_a else 0
    assert _sign_ratio(a, b) == want
    assert _sign_ratio(a, a) == 1 and _sign_ratio(a, minus_a) == (1 if not a else -1)


def test_sign_against_needs_every_term_negated():
    p = {0: 1, 1: 1}
    assert _sign_ratio(p, {0: -1, 1: -1}) == -1
    assert _sign_ratio(p, {0: 1, 1: -1}) == 0
    assert _sign_ratio(p, {0: -1}) == 0
    assert _sign_ratio(p, {0: -1, 1: -1, 2: 1}) == 0


def test_poly_rejects_negative_exponents():
    # a zero coefficient is dropped, but its exponent is checked first
    for coeffs in ({-1: 1}, {-1: 0}, {0: 1, -2: 0}):
        for make in (lambda c: PolyMatrix(1, {(0, 0): c}), lambda c: PolyMatrix(1).with_entry(0, 0, c)):
            with pytest.raises(ValueError, match="^negative exponents not supported$"):
                make(coeffs)


@pytest.mark.parametrize("bad", [True, False, 2.5, 0.0, Fraction(1, 2)], ids=["True", "False", "2.5", "0.0", "Fraction"])
def test_poly_rejects_a_coefficient_that_is_not_an_int(bad):
    # a bool or float would be written as "True" or "2.5", not as a decimal integer
    for make in (lambda: PolyMatrix(1, {(0, 0): {0: bad}}), lambda: PolyMatrix(1).with_entry(0, 0, {1: bad}),
                 lambda: PolyMatrix(1, {(0, 0): {0: 1, 2: bad}})):
        with pytest.raises(TypeError, match="^coefficients must be int, not "):
            make()


@pytest.mark.parametrize("bad", [True, 0.5, Fraction(1)], ids=["True", "0.5", "Fraction"])
def test_poly_rejects_an_exponent_that_is_not_an_int(bad):
    # a bool or float exponent would be written as "True" or "0.5"
    for make in (lambda: PolyMatrix(1, {(0, 0): {bad: 3}}), lambda: PolyMatrix(1).with_entry(0, 0, {bad: 0})):
        with pytest.raises(TypeError, match="^exponents must be int, not "):
            make()


def test_poly_matrix_stores_its_entries_without_zero_terms():
    # zero terms leave no entry, and {} deletes one
    m = PolyMatrix(2, {(0, 0): {0: 1, 2: 0}, (0, 1): {0: 3}, (1, 0): {1: -2, 0: 0}, (1, 1): {0: 0}})
    assert m.entries == {(0, 0): {0: 1}, (0, 1): {0: 3}, (1, 0): {1: -2}}
    assert PolyMatrix(2, {(0, 1): {0: 0}}) == PolyMatrix(2, {(0, 1): {}}) == PolyMatrix(2)
    assert m.with_entry(0, 1, {}).with_entry(0, 0, {0: 0}).with_entry(1, 0, {}) == PolyMatrix(2)
    assert m.with_entry(1, 1, {3: 4}).entries == {**m.entries, (1, 1): {3: 4}}
    assert m.entries == {(0, 0): {0: 1}, (0, 1): {0: 3}, (1, 0): {1: -2}}  # with_entry leaves m as it was
    # the entries are shared, not copied: A(q)'s memo hands out one dict
    orb = orbit_of("A", 2, 1)
    assert quantum_operator(orb).entries is quantum_operator(orb).entries


@settings(max_examples=100, deadline=None)
@given(a=polys, b=polys, c=polys)
def test_poly_ring_laws(a, b, c):
    # padd and pmul carry every reference in helpers, so they must form the ring Z[q]
    assert padd(a, b) == padd(b, a)
    assert pmul(a, b) == pmul(b, a)
    assert padd(padd(a, b), c) == padd(a, padd(b, c))
    assert pmul(pmul(a, b), c) == pmul(a, pmul(b, c))
    assert pmul(a, padd(b, c)) == padd(pmul(a, b), pmul(a, c))
    assert padd(a, {}) == a and pmul(a, {}) == {}
    assert pmul(a, {0: 1}) == a
    assert padd(a, pmul(a, {0: -1})) == {}
    assert all(v for v in pmul(a, b).values()) and all(v for v in padd(a, b).values())


# -- generator matrices --------------------------------------------------------


def test_lowering_a1():
    assert lowering_matrix(orbit_of("A", 1, 1), 1) == _m([[0, 0], [1, 0]])


def test_lowering_sum_is_chain_shift_on_a2():
    orb = orbit_of("A", 2, 1)
    total = linear_combination(3, [({0: 1}, lowering_matrix(orb, 1)), ({0: 1}, lowering_matrix(orb, 2))])
    assert total == _m([[0, 0, 0], [1, 0, 0], [0, 1, 0]])


def test_lowering_matrices_are_nilpotent_of_order_two():
    for orb in sweep_orbits():
        for j in range(1, orb.rs.rank + 1):
            e = lowering_matrix(orb, j)
            assert matmul(e, e) == PolyMatrix(orb.size)


def test_raising_a1():
    assert minrep._raising_maps(orbit_of("A", 1, 1)) == [{1: (0, 1)}]
    assert _raising(orbit_of("A", 1, 1), 1) == _m([[0, 1], [0, 0]])


def test_raising_is_transpose_of_lowering():
    for orb in sweep_orbits():
        for j in range(1, orb.rs.rank + 1):
            assert _raising(orb, j) == transpose(lowering_matrix(orb, j))


def test_raising_kills_highest_weight_vector():
    for orb in sweep_orbits():
        # the highest weight vector is the orbit's first element
        assert all(0 not in m for m in minrep._raising_maps(orb))


def test_cartan_action_a1():
    # H(1) is read off the weights: (1) and (-1) in canonical order
    assert [el.weight.pairings for el in orbit_of("A", 1, 1).elements] == [(1,), (-1,)]
    assert _cartan(orbit_of("A", 1, 1), 1) == _m([[1, 0], [0, -1]])


def test_cartan_action_traceless_on_a2():
    orb = orbit_of("A", 2, 1)
    for j in range(orb.rs.rank):
        assert sum(el.weight.pairings[j] for el in orb.elements) == 0


def test_generator_entries_are_zero_or_one():
    for orb in sweep_orbits():
        mats = [psi_raising_matrix(orb)] + [lowering_matrix(orb, j) for j in range(1, orb.rs.rank + 1)]
        for m in mats:
            assert all(p == {0: 1} for p in m.entries.values())
        assert all(v == 1 for m in minrep._raising_maps(orb) for _t, v in m.values())
        assert {p for el in orb.elements for p in el.weight.pairings} <= {-1, 0, 1}


@pytest.mark.parametrize("build", [lowering_matrix, lambda orb, j: orb.neighbour(orb.size - 1, "+", j)],
                         ids=["lowering_matrix", "raising_matrix"])
def test_generator_builders_reject_an_out_of_range_index(build):
    # E-(j) is read for the nodes j = 0..l; E+(j) steps by Orbit.neighbour,
    # which checks the same node range
    orb = orbit_of("A", 2, 1)
    for j in (-1, 3):
        with pytest.raises(ValueError, match=f"simple root index {j} out of range"):
            build(orb, j)


@pytest.mark.parametrize("j", [True, False, 1.0], ids=["True", "False", "1.0"])
def test_lowering_matrix_rejects_a_node_that_is_not_an_int(j):
    # True returned E-(1) and False would return E_psi; 1.0 failed on a list index
    with pytest.raises(ValueError, match=f"^simple root index {j} out of range$"):
        lowering_matrix(orbit_of("A", 3, 1), j)


def test_public_builders_are_views_of_the_index_maps():
    for orb in sweep_orbits():
        low, high = weylorbit.lowering_maps(orb), minrep._raising_maps(orb)
        assert (len(low), len(high)) == (orb.rs.rank + 1, orb.rs.rank)
        for j, m in enumerate(low):
            assert lowering_matrix(orb, j) == PolyMatrix(orb.size, {(t, c): {0: v} for c, (t, v) in m.items()})
        assert psi_raising_matrix(orb) == lowering_matrix(orb, 0)


def test_every_lowering_edge_steps_by_its_node_weight_and_key():
    # E-(j) for the nodes j = 0..l: an edge c -> t lowers by alpha_j, alpha_0 = -theta
    for orb in sweep_orbits():
        rs, w = orb.rs, orb.elements
        for j, m in enumerate(weylorbit.lowering_maps(orb)):
            for c, (t, v) in m.items():
                assert v == 1 and w[c].weight - rs.node_weights[j] == w[t].weight, (orb, j, c)
                assert orb.keys[c] - rs.node_keys[j] == orb.keys[t], (orb, j, c)


def test_node_zero_map_is_the_brute_force_list_of_psi_edges():
    # mu -> mu + theta exactly where (mu, theta^vee) = -1, found by pairing
    # and Weight subtraction alone: no Orbit.neighbour, no key
    for orb in sweep_orbits():
        rs = orb.rs
        alpha_0 = -rs.root_to_weight(rs.highest_root)
        position = {el.weight: pos for pos, el in enumerate(orb.elements)}
        brute = {pos: (position[el.weight - alpha_0], 1) for pos, el in enumerate(orb.elements)
                 if pair(rs, el.weight, rs.highest_root) == -1}
        assert weylorbit.lowering_maps(orb)[0] == brute, orb


def test_psi_raising_a1():
    assert psi_raising_matrix(orbit_of("A", 1, 1)) == _m([[0, 1], [0, 0]])


def test_psi_raising_a2_single_edge_lowest_to_highest():
    orb = orbit_of("A", 2, 1)
    m = psi_raising_matrix(orb)
    assert m.entries == {(0, 2): {0: 1}}


def test_psi_raising_rejects_an_orbit_without_its_top():
    orb = orbit_of("A", 2, 1)
    topless = Orbit(orb.rs, orb.weight_index, orb.elements[1:])
    with pytest.raises(AssertionError, match=r"\(0,-1\) - alpha_0 = \(1,0\) is not in the orbit"):
        psi_raising_matrix(topless)


# A2/w1 is (1,0) -> (-1,1) -> (0,-1); dropping an end element strands the edge into it
_WITHOUT_BOTTOM = (slice(None, -1), r"\(-1,1\) - alpha_2 = \(0,-1\) is not in the orbit")
_WITHOUT_TOP = (slice(1, None), r"\(-1,1\) \+ alpha_1 = \(1,0\) is not in the orbit")


@pytest.mark.parametrize("build,truncation", [
    (lambda orb: lowering_matrix(orb, 2), _WITHOUT_BOTTOM),
    (minrep._raising_maps, _WITHOUT_TOP),
    (quantum_operator, _WITHOUT_BOTTOM),
    (verify_rep_relations, _WITHOUT_BOTTOM),
], ids=["lowering", "raising", "quantum-operator", "rep-relations"])
def test_truncated_orbit_names_the_missing_target(build, truncation):
    orb = orbit_of("A", 2, 1)
    kept, witness = truncation
    with pytest.raises(AssertionError, match=witness):
        build(Orbit(orb.rs, orb.weight_index, orb.elements[kept]))


def test_psi_raising_d4_has_two_edges():
    # brute force over the 8 vector-representation weights: the highest
    # coroot pairs to -1 at lengths 5 and 6, so the quadric gets two
    # q-edges (lengths jump by -(s-1) = -5 in both)
    orb = orbit_of("D", 4, 1)
    rs = orb.rs
    brute = [el.weight for el in orb.elements if pair(rs, el.weight, rs.highest_root) == -1]
    assert len(brute) == 2
    m = psi_raising_matrix(orb)
    assert len(m.entries) == 2
    assert sorted(length(orb, w) for w in brute) == [5, 6]


def test_operator_support_counts_a3_k2():
    orb = orbit_of("A", 3, 2)
    assert len(quantum_operator(orb).entries) == 8  # 6 classical + 2 quantum


def test_grading_shifts_of_generators():
    for orb in sweep_orbits():
        s = orb.rs.coxeter_number
        lengths = [length(orb, el.weight) for el in orb.elements]
        for j in range(1, orb.rs.rank + 1):
            for (i, k) in lowering_matrix(orb, j).entries:
                assert lengths[i] == lengths[k] + 1
        for (i, k) in psi_raising_matrix(orb).entries:
            assert lengths[i] == lengths[k] - (s - 1)


def test_quantum_operator_a1():
    assert quantum_operator(orbit_of("A", 1, 1)) == _m([[0, Q], [1, 0]])


@pytest.mark.parametrize("case", ["sweep", ("D", 8, 8), ("B", 8, 8), ("A", 9, 5)])
def test_one_pass_quantum_operator_equals_the_summed_generators(case):
    orbs = list(sweep_orbits()) if case == "sweep" else [orbit_of(*case)]
    for orb in orbs:
        a, want = quantum_operator(orb), reference_quantum_operator(orb)
        assert a == want
        assert all(a.entries.values())


def test_quantum_operator_adds_coinciding_entries(monkeypatch, fresh_memos):
    # with E_psi = E-(0) moved onto a lowering edge, that entry must become 1 + q
    orb = orbit_of("A", 2, 1)
    i, j = min(key for key, p in reference_quantum_operator(orb).entries.items() if p == {0: 1})
    real = weylorbit.lowering_maps
    monkeypatch.setattr(weylorbit, "lowering_maps", lambda orb: [{j: (i, 1)}] + real(orb)[1:])
    a = quantum_operator(orb)
    assert a.entries[(i, j)] == {0: 1, 1: 1}
    assert len(a.entries) == 2  # the other lowering edge and the merged entry


def test_quantum_operator_scales_its_terms_by_the_map_coefficients(monkeypatch, fresh_memos):
    # E-(1) with coefficient -1 on its edge cancels the q-free part of a coinciding E_psi entry
    orb = orbit_of("A", 2, 1)
    monkeypatch.setattr(weylorbit, "lowering_maps", lambda orb: [{0: (1, -1)}, {0: (1, -1)}, {1: (2, 2)}])
    assert quantum_operator(orb) == _m([[0, 0, 0], [{0: -1, 1: -1}, 0, 0], [0, 2, 0]])


def test_quantum_operator_reads_the_maps_not_the_public_builders(monkeypatch, fresh_memos):
    calls = []
    want = {orb: reference_quantum_operator(orb) for orb in sweep_orbits()}
    for name in ("lowering_matrix", "psi_raising_matrix"):
        monkeypatch.setattr(minrep, name, lambda *args, name=name: calls.append(name))
    for orb, a in want.items():
        assert quantum_operator(orb) == a
    assert calls == []


# -- characteristic polynomial ---------------------------------------------------


def test_char_poly_known_small_matrices():
    assert char_poly(_m([[2]])) == ({0: 1}, {0: -2})
    # diagonal: (x - 1)(x - 2) = x^2 - 3x + 2
    assert char_poly(_m([[1, 0], [0, 2]])) == ({0: 1}, {0: -3}, {0: 2})
    # nilpotent 3-chain: x^3
    assert char_poly(_m([[0, 0, 0], [1, 0, 0], [0, 1, 0]])) == ({0: 1}, {}, {}, {})
    assert char_poly(_m([[0, Q], [1, 0]])) == ({0: 1}, {}, {1: -1})
    assert char_poly(PolyMatrix(0)) == ({0: 1},)


@pytest.mark.parametrize("n", range(1, 7))
def test_char_poly_projective_series(n):
    cp = char_poly(quantum_operator(orbit_of("A", n, 1)))
    assert cp == ({0: 1},) + ({},) * n + ({1: -1},)


@pytest.mark.parametrize("n", range(2, 6))
def test_char_poly_long_chain_series(n):
    cp = char_poly(quantum_operator(orbit_of("C", n, 1)))
    assert cp == ({0: 1},) + ({},) * (2 * n - 1) + ({1: -1},)


# The coefficients of det(x - A(q)) as {power of x: (integer, power of q)}:
# E6 and E7 written out by hand, A6/w3 and D6/w6 frozen from the Berkowitz
# method over polynomial entries.
GOLDEN_CHAR_POLYS = {
    ("E", 6, 1): {27: (1, 0), 15: (-270, 1), 3: (-27, 2)},
    ("E", 7, 1): {56: (1, 0), 38: (-29496, 1), 20: (401808, 2), 2: (-64, 3)},
    ("A", 6, 3): {35: (1, 0), 28: (-302, 1), 21: (3828, 2), 14: (-36250, 3), 7: (-7309, 4), 0: (128, 5)},
    ("D", 6, 6): {32: (1, 0), 22: (-496, 1), 12: (1984, 2), 2: (-64, 3)},
}


@pytest.mark.parametrize("case", GOLDEN_CHAR_POLYS)
def test_char_poly_golden_values(case):
    cp = char_poly(quantum_operator(orbit_of(*case)))
    n = len(cp) - 1
    assert {n - k: (c, e) for k, p in enumerate(cp) for e, c in p.items()} == GOLDEN_CHAR_POLYS[case]


def _q_power_moved(a: PolyMatrix) -> PolyMatrix:
    """A(q) with its first entry, a q-term, multiplied by q."""
    (i, j), p = min(a.entries.items())
    assert p == Q
    return a.with_entry(i, j, pmul(p, Q))


def test_char_poly_matches_the_reference_on_small_sweep_orbits():
    checked = 0
    for orb in sweep_orbits():
        if orb.size <= 20:
            a = quantum_operator(orb)
            assert char_poly(a) == reference_char_poly(a), orb
            moved = _q_power_moved(a)
            assert char_poly(moved) == reference_char_poly(moved), orb
            checked += 1
    assert checked >= 30


@settings(max_examples=200, deadline=None)
@given(m=small_poly_matrices())
def test_char_poly_matches_the_reference_on_random_matrices(m):
    assert char_poly(m) == reference_char_poly(m)


def test_grading_degree_is_the_coxeter_number():
    for orb in sweep_orbits():
        a = quantum_operator(orb)
        s = orb.rs.coxeter_number
        assert minrep._grading_degree(a) == s, orb
        # With q^2 on the only q-entry every cycle's q-degree doubles, so
        # deg q = s/2 when that is an integer; with more q-entries, the
        # cycles through the others still ask for s and no grading fits.
        single = sum(1 for p in a.entries.values() if p == Q) == 1
        want = s // 2 if single and s % 2 == 0 else None
        assert minrep._grading_degree(_q_power_moved(a)) == want, orb


def test_grading_degree_rejects_what_no_grading_fits():
    assert minrep._grading_degree(_m([[2]])) is None  # deg x = 1 on a constant
    assert minrep._grading_degree(_m([[{0: 1, 1: 1}]])) is None  # not a monomial
    assert minrep._grading_degree(_m([[Q]])) == 1
    assert minrep._grading_degree(_m([[0, 0], [1, 0]])) == 1  # no cycle: nilpotent
    assert minrep._grading_degree(PolyMatrix(0)) == 1


def test_char_poly_runs_the_integer_kernel_once_when_graded(monkeypatch):
    calls = []
    real = minrep._berkowitz_int

    def counted(n, entries):
        calls.append(n)
        return real(n, entries)

    monkeypatch.setattr(minrep, "_berkowitz_int", counted)
    char_poly(quantum_operator(orbit_of("E", 6, 1)))
    assert calls == [27]
    # not graded: one kernel call per q = 0..D, D the sum of the row degrees
    calls.clear()
    char_poly(_q_power_moved(quantum_operator(orbit_of("A", 2, 1))))
    assert calls == [3] * 3
    calls.clear()
    char_poly(_m([[{0: 1, 1: 1}, Q], [1, {2: 1}]]))
    assert calls == [2] * 4


def test_char_poly_interpolates_without_a_grading():
    # (x - q - 1)(x - q^2) - q = x^2 - (q^2 + q + 1) x + q^3 + q^2 - q
    m = _m([[{0: 1, 1: 1}, Q], [1, {2: 1}]])
    assert char_poly(m) == ({0: 1}, {2: -1, 1: -1, 0: -1}, {3: 1, 2: 1, 1: -1})
    # a zero coefficient is {}: (x - q)(x + q) = x^2 - q^2
    assert char_poly(_m([[Q, 0], [0, {1: -1}]])) == ({0: 1}, {}, {2: -1})


# -- structural relations ----------------------------------------------------------


@pytest.mark.parametrize("case", [("A", 1, 1), ("E", 6, 1), ("B", 4, 4)])
def test_rep_relations_explicit_cases(case):
    report = verify_rep_relations(orbit_of(*case))
    assert report.ok, report.detail
    assert int(report.detail.split()[0]) > 0


def test_rep_relations_brackets_spotcheck():
    orb = orbit_of("A", 3, 2)
    for j in (1, 2, 3):
        assert commutator(_raising(orb, j), lowering_matrix(orb, j)) == _cartan(orb, j)


# -- check results -------------------------------------------------------------------


def test_check_is_truthy_exactly_when_it_passed():
    assert Check(True, "fine") and not Check(False, "witness")
    with pytest.raises(FrozenInstanceError):
        Check(True, "fine").ok = False


def test_rep_relations_broken_bracket_names_the_entry(monkeypatch):
    real = minrep._raising_maps
    monkeypatch.setattr(minrep, "_raising_maps",
                        lambda orb: [{c: (t, 2 * v) for c, (t, v) in m.items()} for m in real(orb)])
    check = verify_rep_relations(orbit_of("A", 1, 1))
    assert not check
    assert check.detail == "[E+(1), E-(1)] != H(1) at ((1), (1)): 2 != 1"


def test_rep_relations_build_no_poly_matrix(monkeypatch):
    built = []
    real = PolyMatrix.__init__

    def counted(self, *args, **kwargs):
        built.append(args)
        real(self, *args, **kwargs)

    monkeypatch.setattr(PolyMatrix, "__init__", counted)
    for orb in sweep_orbits():
        assert verify_rep_relations(orb), orb
    assert built == []


def test_lowering_maps_are_built_once_per_orbit(monkeypatch, fresh_memos):
    # A(q) then the bracket row, or the l + 1 public views, run the
    # lowering_maps body once: the maps are a latest-orbit memo
    orb = orbit_of("E", 6, 1)
    runs = []
    body = weylorbit.lowering_maps.__wrapped__
    memo = lru_cache(maxsize=1)(lambda o: runs.append(o) or body(o))
    monkeypatch.setattr(weylorbit, "lowering_maps", memo)
    for use in (lambda: quantum_operator(orb) and verify_rep_relations(orb),
                lambda: [lowering_matrix(orb, j) for j in range(orb.rs.rank + 1)]):
        memo.cache_clear()
        runs.clear()
        assert use()
        assert runs == [orb]
    assert memo.cache_info().misses == 1


# each map builder by its module and first node: E-(0..l) and E+(1..l)
GENERATOR_MAPS = {"lowering_maps": (weylorbit, 0), "_raising_maps": (minrep, 1)}


def _patch_one_generator(monkeypatch, name, j, mutated):
    """Make the map builder ``name`` give ``mutated`` as the map of node j."""
    module, first = GENERATOR_MAPS[name]
    real = getattr(module, name)
    i = j - first

    def patched(orb):
        maps = real(orb)
        return maps[:i] + [mutated] + maps[i + 1:]

    monkeypatch.setattr(module, name, patched)


def _single_entry_mutations(orb):
    """(map builder, index, mutated map): each entry dropped, its coefficient set to a stored 0, 2 or -1,
    or its target moved to the next basis vector."""
    for name, (module, first) in GENERATOR_MAPS.items():
        for j, m in enumerate(getattr(module, name)(orb), first):
            for c, (t, v) in m.items():
                for value in (None, 0, 2, -1):
                    if v != value:
                        mutated = dict(m)
                        if value is None:
                            del mutated[c]
                        else:
                            mutated[c] = (t, value)
                        yield name, j, mutated
                yield name, j, {**m, c: ((t + 1) % orb.size, v)}


def test_rep_relations_match_the_product_form_on_the_sweep():
    for orb in sweep_orbits():
        check = verify_rep_relations(orb)
        assert check and check == reference_rep_relations(orb), orb


@pytest.mark.parametrize("case", [("A", 3, 2), ("D", 4, 1), ("E", 6, 1), ("B", 3, 3)])
def test_rep_relations_match_the_product_form_on_every_single_entry_mutation(case, fresh_memos):
    orb = orbit_of(*case)
    mutations = list(_single_entry_mutations(orb))
    for name, j, mutated in mutations:
        with pytest.MonkeyPatch.context() as mp:
            _patch_one_generator(mp, name, j, mutated)
            check = verify_rep_relations(orb)
            assert not check and check == reference_rep_relations(orb), (name, j, mutated)
    assert {name for name, _j, _m in mutations} == set(GENERATOR_MAPS)


def test_rep_relations_read_a_stored_zero_as_a_dropped_entry(monkeypatch, fresh_memos):
    # E-(2) of A3/w2 with its first entry's coefficient stored as 0: the
    # check fails as for the dropped entry, with a witness, not a bare error
    orb = orbit_of("A", 3, 2)
    first = next(iter(weylorbit.lowering_maps(orb)[2]))
    checks = []
    for change in (lambda m: m.update({first: (m[first][0], 0)}), lambda m: m.pop(first)):
        m = dict(weylorbit.lowering_maps(orb)[2])
        change(m)
        with pytest.MonkeyPatch.context() as mp:
            _patch_one_generator(mp, "lowering_maps", 2, m)
            checks.append(verify_rep_relations(orb))
    assert checks[0] == checks[1] == Check(False, "[E+(2), E-(2)] != H(2) at ((0,1,0), (0,1,0)): 0 != 1")


@pytest.mark.parametrize("name,j,change,detail", [
    ("_raising_maps", 1, lambda m: {**m, 1: (0, -1)}, "[E+(1), E-(1)] != H(1) at ((1,0), (1,0)): -1 != 1"),
    ("_raising_maps", 1, lambda m: {**m, 2: (0, 1)}, "[E+(1), E-(1)] != H(1) at ((-1,1), (0,-1)): -1 != 0"),
    ("_raising_maps", 2, lambda m: {**m, 0: (1, 1)},
     "[H(1), E+(2)] != a[1][2] E+(2) at ((-1,1), (1,0)): -2 != -1"),
    ("lowering_maps", 0, lambda m: {**m, 1: (0, 1)}, "[E+(2), E_psi] != 0 at ((1,0), (0,-1)): -1 != 0"),
], ids=["H-diagonal", "H-off-diagonal", "H-step", "E_psi"])
def test_rep_relations_name_the_exact_entry_of_each_kind_of_failure(monkeypatch, fresh_memos, name, j, change, detail):
    # one entry of A2/w1's E+(1), E+(2) or E_psi changed: the sign of an edge,
    # an edge from (0,-1) that E-(1) never enters (so the sl2 diagonal still
    # holds), an edge breaking the weight step, or an extra E_psi edge.  No
    # single E+ entry can make [E+(j), E_psi] the first failure: any change
    # breaks [E+(j), E-(j)] or an [H, E+] step, which come earlier in the walk
    orb = orbit_of("A", 2, 1)
    module, first = GENERATOR_MAPS[name]
    _patch_one_generator(monkeypatch, name, j, change(getattr(module, name)(orb)[j - first]))
    assert verify_rep_relations(orb) == Check(False, detail)


def test_entry_witness_names_the_first_differing_entry():
    orb = orbit_of("A", 2, 1)
    a = quantum_operator(orb)
    assert _entry_witness(orb, a, a) is None
    b = a.with_entry(2, 0, Q).with_entry(2, 1, {})
    assert _entry_witness(orb, a, b) == "at ((0,-1), (1,0)): 0 != q"


def test_poly_matrix_rejects_an_entry_outside_the_matrix():
    with pytest.raises(ValueError, match=r"^entry \(2,0\) outside a 2x2 matrix$"):
        PolyMatrix(2, {(2, 0): {0: 1}})
    with pytest.raises(ValueError, match=r"^entry \(0,-1\) outside a 2x2 matrix$"):
        PolyMatrix(2).with_entry(0, -1, {})


@pytest.mark.parametrize("make,error,message", [
    (lambda: PolyMatrix(True), TypeError, "matrix size must be int, not bool"),
    (lambda: PolyMatrix(2.0), TypeError, "matrix size must be int, not float"),
    (lambda: PolyMatrix(-1), ValueError, "matrix size must be nonnegative, not -1"),
    (lambda: PolyMatrix(2, {(0.5, 1): {0: 1}}), TypeError, "entry positions must be int, not float"),
    (lambda: PolyMatrix(2, {(True, 0): {0: 1}}), TypeError, "entry positions must be int, not bool"),
    (lambda: PolyMatrix(2, {(0, False): {}}), TypeError, "entry positions must be int, not bool"),
    (lambda: PolyMatrix(2).with_entry(1, 1.0, {0: 1}), TypeError, "entry positions must be int, not float"),
    (lambda: PolyMatrix(2, {(0, 1): 1}), TypeError, "entries must be dict, not int"),
    (lambda: PolyMatrix(2, {(0, 1): [(0, 1)]}), TypeError, "entries must be dict, not list"),
    (lambda: PolyMatrix(2).with_entry(0, 0, 0), TypeError, "entries must be dict, not int"),
], ids=["size-bool", "size-float", "size-negative", "position-float", "position-bool", "position-bool-empty",
        "with-entry-position-float", "entry-int", "entry-list", "with-entry-int"])
def test_poly_matrix_rejects_a_size_position_or_entry_of_the_wrong_kind(make, error, message):
    with pytest.raises(error, match=f"^{message}$"):
        make()


def test_char_poly_rejects_a_grading_its_matrix_breaks(monkeypatch):
    # A(1) of A2/w1 has characteristic polynomial x^3 - 1: its constant
    # term sits at degree 3, which a q-degree of 2 cannot reach
    monkeypatch.setattr(minrep, "_grading_degree", lambda m: 2)
    with pytest.raises(AssertionError, match="^graded with deg q = 2, yet x\\^0 has coefficient -1 at q = 1$"):
        char_poly(quantum_operator(orbit_of("A", 2, 1)))


def test_interpolation_rejects_values_of_no_integer_polynomial():
    # 0, 0, 1 at q = 0, 1, 2 is q(q - 1)/2
    with pytest.raises(AssertionError, match="^divided difference of order 2 at q = 2 is not an integer$"):
        minrep._interpolate([0, 0, 1])
