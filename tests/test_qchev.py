import pytest

from helpers import SWEEP, orbit_of, sweep_orbits
from minflag.minrep import Poly, quantum_operator
from minflag.qchev import (
    SchubertClass,
    chevalley_closed,
    chevalley_fw_oracle,
    _complement_sum,
    divisor_complement,
    first_mismatch,
    frobenius_check,
    fw_oracle_matrix,
    fw_oracle_pass,
    grading_check,
    n_alpha,
    oracle_survivors,
    pairing_matrix,
    quantum_product_matrix,
    trichotomy_check,
    verify_main_theorem,
)
from minflag.rootsys import LieType, RootVec, Weight, build, pair
from minflag.weylorbit import orbit


def _terms_as_set(terms, orb):
    return {(orb.index_of[t.target.weight], t.q_power, t.coefficient) for t in terms}


# -- closed form -------------------------------------------------------------


def test_projective_plane_top_class_product():
    # the divisor times the point class of the projective plane is q times
    # the identity class: x * x^2 = q
    orb = orbit_of("A", 2, 1)
    lowest = orb.elements[-1].weight
    terms = chevalley_closed(orb, SchubertClass(lowest))
    assert [(t.target.weight, t.q_power, t.coefficient) for t in terms] == [
        (Weight((1, 0)), 1, 1)
    ]


def test_gr24_divisor_squared_has_two_classical_terms():
    orb = orbit_of("A", 3, 2)
    u = orb.elements[1].weight  # the unique length-1 class
    terms = chevalley_closed(orb, SchubertClass(u))
    assert all(t.q_power == 0 and t.coefficient == 1 for t in terms)
    assert {t.target.weight for t in terms} == {
        orb.elements[2].weight,
        orb.elements[3].weight,
    }


def test_divisor_times_identity_is_the_divisor_class():
    for orb in sweep_orbits():
        terms = chevalley_closed(orb, SchubertClass(orb.highest_weight))
        i = orb.weight_index
        expected = orb.highest_weight - orb.rs.simple_root_weights[i - 1]
        assert [(t.target.weight, t.q_power) for t in terms] == [(expected, 0)]


def test_closed_form_rejects_foreign_weight():
    orb = orbit_of("A", 2, 1)
    with pytest.raises(ValueError):
        chevalley_closed(orb, SchubertClass(Weight((5, 5))))


# -- oracle ---------------------------------------------------------------------


def test_oracle_projective_plane_quantum_term():
    orb = orbit_of("A", 2, 1)
    lowest = orb.elements[-1].weight
    terms = chevalley_fw_oracle(orb, SchubertClass(lowest))
    assert _terms_as_set(terms, orb) == {(0, 1, 1)}


def test_oracle_equals_closed_form_on_gr24():
    orb = orbit_of("A", 3, 2)
    for el in orb.elements:
        u = SchubertClass(el.weight)
        assert _terms_as_set(chevalley_fw_oracle(orb, u), orb) == _terms_as_set(
            chevalley_closed(orb, u), orb
        )


def test_oracle_top_class_of_gr24():
    orb = orbit_of("A", 3, 2)
    top = SchubertClass(orb.elements[-1].weight)
    terms = chevalley_fw_oracle(orb, top)
    assert _terms_as_set(terms, orb) == {(1, 1, 1)}


def test_oracle_discard_counts_e6_identity():
    # 16 candidate roots pair to 1 with the minuscule weight (the complex
    # dimension of the orbit); at the identity exactly one survives as a
    # classical term and none as quantum, so 15 are discarded
    orb = orbit_of("E", 6, 1)
    stats = oracle_survivors(orb, SchubertClass(orb.highest_weight))
    assert stats.candidates == 16 == orb.dim_complex
    assert stats.classical == 1
    assert stats.quantum == 0
    assert stats.discarded == 15


def test_oracle_survivor_classification_sweepwide():
    for orb in sweep_orbits():
        for el in orb.elements:
            stats = oracle_survivors(orb, SchubertClass(el.weight))
            assert stats.candidates == orb.dim_complex
            assert stats.quantum in (0, 1, 2)
            assert stats.classical + stats.quantum + stats.discarded == stats.candidates


def test_oracle_pass_matches_per_class_routes():
    for case in [("A", 3, 2), ("D", 5, 5), ("E", 6, 1)]:
        orb = orbit_of(*case)
        matrix, survivors = fw_oracle_pass(orb)
        assert matrix == fw_oracle_matrix(orb) == quantum_product_matrix(orb)
        assert len(survivors) == orb.size
        for el, stats in zip(orb.elements, survivors):
            assert stats == oracle_survivors(orb, SchubertClass(el.weight))


# -- coxeter identity -------------------------------------------------------------


def test_n_alpha_values():
    a2 = build(LieType("A", 2))
    assert n_alpha(a2, 1, a2.highest_root) == 3
    d4 = build(LieType("D", 4))
    lam = d4.fundamental_weight(1)
    vals = {n_alpha(d4, 1, a) for a in d4.positive_roots if pair(d4, lam, a) == 1}
    assert vals == {6}
    e6 = build(LieType("E", 6))
    assert n_alpha(e6, 1, e6.highest_root) == 12


def test_n_alpha_equals_coxeter_number_everywhere():
    for orb in sweep_orbits():
        s = orb.rs.coxeter_number
        for alpha in divisor_complement(orb):
            assert n_alpha(orb.rs, orb.weight_index, alpha) == s


def test_n_alpha_sums_the_complement_once_per_weight():
    rs = build(LieType("D", 5))
    lam = rs.fundamental_weight(5)
    complement = [a for a in rs.positive_roots if pair(rs, lam, a) == 1]
    _complement_sum.cache_clear()
    assert {n_alpha(rs, 5, a) for a in complement} == {rs.coxeter_number}
    info = _complement_sum.cache_info()
    assert (info.misses, info.hits) == (1, len(complement) - 1)


def test_n_alpha_rejects_parabolic_and_foreign_roots():
    rs = build(LieType("A", 3))
    with pytest.raises(ValueError):
        n_alpha(rs, 1, rs.simple_root(2))  # pairs to 0 with lambda_1
    with pytest.raises(ValueError):
        n_alpha(rs, 1, RootVec((2, 0, 0)))


# -- matrices and the main equality ------------------------------------------------


def test_quantum_product_matrix_a1():
    orb = orbit_of("A", 1, 1)
    m = quantum_product_matrix(orb)
    assert m.entry(1, 0) == 1 and m.entry(0, 1) == Poly({1: 1})


@pytest.mark.parametrize("case", [("A", 1, 1), ("E", 7, 1), ("B", 5, 5)])
def test_main_theorem_explicit_cases(case):
    report = verify_main_theorem(orbit_of(*case))
    assert report.ok, report.mismatch


def test_main_theorem_full_sweep():
    for lt, i in SWEEP:
        report = verify_main_theorem(orbit(build(lt), i))
        assert report.ok, (lt, i, report.mismatch)


def test_main_theorem_reports_first_mismatch():
    orb = orbit_of("A", 2, 1)
    # puncture the operator at (target (-1,1), source (1,0)): the first
    # differing entry in row order names both weights and both values
    op = quantum_operator(orb).with_entry(1, 0, 0)
    closed = quantum_product_matrix(orb)
    assert op != closed
    assert first_mismatch(orb, op, [("closed-form product", closed)]) == (
        "operator vs closed-form product at ((-1,1), (1,0)): 0 != 1"
    )
    assert first_mismatch(orb, quantum_operator(orb), [("closed-form product", closed)]) is None


# -- frobenius, grading, trichotomy -------------------------------------------------


def test_frobenius_a1_by_hand():
    orb = orbit_of("A", 1, 1)
    a = quantum_operator(orb)
    g = pairing_matrix(orb)
    assert a.transpose() * g == g * a
    assert frobenius_check(orb)


def test_frobenius_sweep():
    for orb in sweep_orbits():
        assert frobenius_check(orb)


def test_frobenius_detects_deleted_edge():
    orb = orbit_of("A", 2, 1)
    mutated = quantum_operator(orb).with_entry(1, 0, 0)
    assert not frobenius_check(orb, mutated)


def test_grading_a1_by_hand():
    # the single q-entry maps length 1 to length 0 = 1 + 1 - 2
    assert grading_check(orbit_of("A", 1, 1))


def test_grading_sweep():
    for orb in sweep_orbits():
        assert grading_check(orb)


def test_grading_detects_wrong_q_power():
    orb = orbit_of("A", 2, 1)
    a = quantum_operator(orb)
    i, j, p = a.nonzero()[0]
    mutated = a.with_entry(i, j, p * Poly({1: 1}))
    assert not grading_check(orb, mutated)


def test_trichotomy_sweep():
    for orb in sweep_orbits():
        assert trichotomy_check(orb)


def test_pairing_matrix_is_a_permutation():
    for orb in sweep_orbits():
        g = pairing_matrix(orb)
        nz = g.nonzero()
        assert len(nz) == orb.size
        assert g * g == g.__class__.identity(orb.size)


def test_word_choice_invariance_of_the_oracle_matrix():
    # the oracle consumes reduced words; two BFS exploration orders give
    # different words but identical matrices
    rs = build(LieType("A", 3))
    m1 = fw_oracle_matrix(orbit(rs, 2))
    m2 = fw_oracle_matrix(orbit(rs, 2, j_order=(3, 2, 1)))
    assert m1 == m2
    rs_d = build(LieType("D", 4))
    assert fw_oracle_matrix(orbit(rs_d, 4)) == fw_oracle_matrix(
        orbit(rs_d, 4, j_order=(4, 3, 2, 1))
    )
