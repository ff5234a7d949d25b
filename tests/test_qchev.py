import sys

import pytest

import helpers
from minflag import qchev, rootsys, weylorbit
from helpers import (
    SWEEP,
    identity,
    matmul,
    orbit_of,
    padd,
    pairing_matrix,
    simple_reflect_root,
    simple_root,
    sweep_orbits,
    transpose,
)
from minflag.cli import delete_detectable_edge
from minflag.minrep import Check, PolyMatrix, quantum_operator
from minflag.qchev import (
    chevalley_closed,
    chevalley_fw_oracle,
    _complement_sum,
    coxeter_check,
    divisor_complement,
    frobenius_check,
    fw_oracle_matrix,
    fw_oracle_pass,
    grading_check,
    main_theorem_check,
    n_alpha,
    oracle_survivors,
    quantum_product_matrix,
    survivor_check,
    trichotomy_check,
)
from minflag.rootsys import LieType, RootSystem, RootVec, Weight, build, pair
from minflag.weylorbit import Orbit, OrbitElement, apply_word, length, orbit, poincare_dual


# -- closed form -------------------------------------------------------------
# Both routes return (q_power, position) pairs, position indexing
# orb.elements; every coefficient is 1.


def test_projective_plane_top_class_product():
    # the divisor times the point class of the projective plane is q times
    # the identity class (1,0), at position 0: x * x^2 = q
    orb = orbit_of("A", 2, 1)
    lowest = orb.elements[-1].weight
    assert orb.elements[0].weight == Weight((1, 0))
    assert chevalley_closed(orb, lowest) == [(1, 0)]


def test_gr24_divisor_squared_has_two_classical_terms():
    # u = (1,-1,1) lowers by alpha_1 to (-1,0,1) and by alpha_3 to (1,0,-1),
    # the two length-2 classes at positions 2 and 3, in j order
    orb = orbit_of("A", 3, 2)
    u = orb.elements[1].weight  # the unique length-1 class
    assert [orb.elements[t].weight for t in (2, 3)] == [Weight((-1, 0, 1)), Weight((1, 0, -1))]
    assert chevalley_closed(orb, u) == [(0, 2), (0, 3)]


def test_divisor_times_identity_is_the_divisor_class():
    for orb in sweep_orbits():
        i = orb.weight_index
        expected = orb.highest_weight - orb.rs.node_weights[i]
        assert chevalley_closed(orb, orb.highest_weight) == [(0, helpers.position_of(orb, expected.pairings))]


def test_closed_form_rejects_foreign_weight():
    orb = orbit_of("A", 2, 1)
    with pytest.raises(ValueError):
        chevalley_closed(orb, Weight((5, 5)))


# -- oracle ---------------------------------------------------------------------


def test_oracle_projective_plane_quantum_term():
    orb = orbit_of("A", 2, 1)
    lowest = orb.elements[-1].weight
    assert chevalley_fw_oracle(orb, lowest) == [(1, 0)]


def test_oracle_equals_closed_form_on_gr24():
    # the oracle sorts its pairs; the closed form lists them in j order
    orb = orbit_of("A", 3, 2)
    for el in orb.elements:
        assert chevalley_fw_oracle(orb, el.weight) == sorted(chevalley_closed(orb, el.weight))


def test_oracle_terms_come_classical_first_in_canonical_order():
    for orb in sweep_orbits():
        for el in orb.elements:
            terms = chevalley_fw_oracle(orb, el.weight)
            assert terms == sorted(set(terms)), (orb, el)


def test_oracle_top_class_of_gr24():
    orb = orbit_of("A", 3, 2)
    assert chevalley_fw_oracle(orb, orb.elements[-1].weight) == [(1, 1)]


def test_oracle_discard_counts_e6_identity():
    # 16 candidate roots pair to 1 with the minuscule weight (the complex
    # dimension of the orbit); at the identity exactly one survives as a
    # classical term and none as quantum, so 15 are discarded
    orb = orbit_of("E", 6, 1)
    stats = oracle_survivors(orb, orb.highest_weight)
    assert stats.candidates == 16 == orb.dim_complex
    assert stats.classical == 1
    assert stats.quantum == 0
    assert stats.discarded == 15


def test_oracle_survivor_classification_sweepwide():
    for orb in sweep_orbits():
        for el in orb.elements:
            stats = oracle_survivors(orb, el.weight)
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
            assert stats == oracle_survivors(orb, el.weight)


def test_columns_matrix_sums_repeated_terms_and_drops_cancelled_ones():
    orb = orbit_of("A", 2, 1)
    # every pair adds 1, so a repeated pair sums; a class with no pairs
    # leaves its column empty
    m = qchev._columns_matrix(orb, [[(0, 1), (1, 1), (1, 1), (0, 1)], [], []])
    assert m.entries == {(1, 0): {0: 2, 1: 2}}


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
        n_alpha(rs, 1, simple_root(rs, 2))  # pairs to 0 with lambda_1
    with pytest.raises(ValueError):
        n_alpha(rs, 1, RootVec((2, 0, 0)))


@pytest.mark.parametrize("first", ["int-first", "bool-first"])
def test_n_alpha_rejects_a_bool_index_whatever_the_memo_holds(first):
    # True == 1 with one hash: an untyped memo answered n_alpha(rs, True, alpha)
    # with the sum an int call had left in it
    rs = build(LieType("A", 3))
    alpha = RootVec((1, 0, 0))
    _complement_sum.cache_clear()
    if first == "int-first":
        assert n_alpha(rs, 1, alpha) == 4
    with pytest.raises(TypeError, match="^fundamental weight index must be an int, not True$"):
        n_alpha(rs, True, alpha)
    assert n_alpha(rs, 1, alpha) == 4


# -- matrices and the main equality ------------------------------------------------


def test_quantum_product_matrix_a1():
    orb = orbit_of("A", 1, 1)
    m = quantum_product_matrix(orb)
    assert m.entries == {(1, 0): {0: 1}, (0, 1): {1: 1}}


@pytest.mark.parametrize("case", [("A", 1, 1), ("E", 7, 1), ("B", 5, 5)])
def test_main_theorem_explicit_cases(case):
    orb = orbit_of(*case)
    report = main_theorem_check(orb, quantum_operator(orb))
    assert report.ok, report.detail


def test_main_theorem_full_sweep():
    for lt, i in SWEEP:
        orb = orbit(build(lt), i)
        report = main_theorem_check(orb, quantum_operator(orb))
        assert report.ok, (lt, i, report.detail)


def test_main_theorem_reports_first_mismatch():
    orb = orbit_of("A", 2, 1)
    # puncture the operator at (target (-1,1), source (1,0)): the first
    # differing entry in row order names both weights and both values
    op = quantum_operator(orb).with_entry(1, 0, {})
    assert op != quantum_product_matrix(orb)
    assert main_theorem_check(orb, op).detail == "operator vs closed-form product at ((-1,1), (1,0)): 0 != 1"
    assert main_theorem_check(orb, quantum_operator(orb)).detail == "three routes entrywise equal"


# -- frobenius, grading, trichotomy -------------------------------------------------


def test_frobenius_a1_by_hand():
    orb = orbit_of("A", 1, 1)
    a = quantum_operator(orb)
    g = pairing_matrix(orb)
    assert matmul(transpose(a), g) == matmul(g, a)
    assert frobenius_check(orb, a)


def test_frobenius_sweep():
    for orb in sweep_orbits():
        assert frobenius_check(orb, quantum_operator(orb))


def test_frobenius_detects_deleted_edge():
    orb = orbit_of("A", 2, 1)
    mutated = quantum_operator(orb).with_entry(1, 0, {})
    assert not frobenius_check(orb, mutated)


def test_the_frobenius_row_and_the_deleted_edge_find_each_dual_once_per_orbit(monkeypatch, fresh_memos):
    # the dual positions are one latest-orbit memo, weylorbit.dual_positions,
    # so poincare_dual runs once per element however many mutants are checked
    real = weylorbit.poincare_dual
    calls = []
    monkeypatch.setattr(weylorbit, "poincare_dual", lambda orb, mu: calls.append(mu) or real(orb, mu))
    orb = orbit_of("D", 5, 5)
    a = quantum_operator(orb)
    mutants = [(i, j, a.with_entry(i, j, {})) for i, j in sorted(a.entries)[:6]]
    outcomes = [bool(frobenius_check(orb, m)) for _i, _j, m in mutants]
    assert frobenius_check(orb, a)
    assert delete_detectable_edge(orb, a) != a
    assert len(calls) == orb.size
    dual = [helpers.position_of(orb, real(orb, el.weight).pairings) for el in orb.elements]
    assert outcomes == [(dual[j], dual[i]) == (i, j) for i, j, _m in mutants]
    assert not all(outcomes)


def test_grading_a1_by_hand():
    # the single q-entry maps length 1 to length 0 = 1 + 1 - 2
    orb = orbit_of("A", 1, 1)
    assert grading_check(orb, quantum_operator(orb))


def test_grading_sweep():
    for orb in sweep_orbits():
        assert grading_check(orb, quantum_operator(orb))


def test_grading_detects_wrong_q_power():
    orb = orbit_of("A", 2, 1)
    a = quantum_operator(orb)
    (i, j), p = min(a.entries.items())
    mutated = a.with_entry(i, j, {e + 1: v for e, v in p.items()})
    assert not grading_check(orb, mutated)


def test_trichotomy_sweep():
    for orb in sweep_orbits():
        assert trichotomy_check(orb)


def test_pairing_matrix_is_a_permutation():
    for orb in sweep_orbits():
        g = pairing_matrix(orb)
        assert len(g.entries) == orb.size
        assert matmul(g, g) == identity(orb.size)


# -- check witnesses and the oracle path --------------------------------------------


def _truncated(orb):
    """The orbit with its lowest weight dropped: the stored dimension shrinks."""
    return Orbit(orb.rs, orb.weight_index, orb.elements[:-1])


def test_frobenius_deleted_edge_names_the_entry_and_its_dual():
    orb = orbit_of("A", 2, 1)
    check = frobenius_check(orb, quantum_operator(orb).with_entry(1, 0, {}))
    assert check.detail == "A at ((0,-1), (-1,1)) is 1 but at its dual entry ((-1,1), (1,0)) is 0"
    assert frobenius_check(orb, quantum_operator(orb)).detail == "A^T G = G A"


def test_grading_moved_q_power_names_the_entry():
    orb = orbit_of("A", 2, 1)
    a = quantum_operator(orb)
    (i, j), p = min(a.entries.items())
    check = grading_check(orb, a.with_entry(i, j, {e + 1: v for e, v in p.items()}))
    assert not check
    # the first entry is the q-term from the lowest class back to the top
    assert (i, j, p) == (0, 2, {1: 1})
    assert check.detail == "q^2 at ((1,0), (0,-1)): length 0 != 2 + 1 - 2*3"


def test_grading_names_the_first_failing_entry_and_its_lowest_exponent():
    # two failing entries, the first with two failing exponents: the witness
    # is the first entry in row order at its lowest failing exponent
    orb = orbit_of("A", 2, 1)
    a = quantum_operator(orb)
    (i, j), (k, l) = min(a.entries), max(a.entries)
    mutated = a.with_entry(k, l, {2: 1}).with_entry(i, j, {3: 1, 2: 1})
    check = grading_check(orb, mutated)
    assert check == helpers.reference_operator_rows(orb)["grading"](mutated)
    assert check.detail == "q^2 at ((1,0), (0,-1)): length 0 != 2 + 1 - 2*3"


def _resized(a, n, extra):
    """A(q)'s entries that fit an n x n matrix, plus (3, 0) = 1 when extra, as an n x n PolyMatrix."""
    entries = {k: p for k, p in a.entries.items() if max(k) < n}
    return PolyMatrix(n, {**entries, (3, 0): {0: 1}} if extra else entries)


@pytest.mark.parametrize("n,extra", [(4, False), (4, True), (2, False)], ids=["n4", "n4-extra-entry", "n2"])
@pytest.mark.parametrize("check", [main_theorem_check, frobenius_check, grading_check], ids=lambda f: f.__name__)
def test_operator_rows_fail_an_operator_of_another_size_naming_both_sizes(check, n, extra):
    # A2/w1 has 3 elements: its A(q) as a 4x4 matrix raised StopIteration in
    # the main-theorem row and passed the other two, an extra (3, 0) entry
    # raised IndexError in all three, and the 2x2 corner passed grading
    orb = orbit_of("A", 2, 1)
    operator = _resized(quantum_operator(orb), n, extra)
    assert check(orb, operator) == Check(False, f"operator of size {n} for an orbit of size 3")


def test_trichotomy_tampered_orbit_names_weight_and_root():
    check = trichotomy_check(_truncated(orbit_of("A", 2, 1)))
    assert not check
    assert check.detail == "at (-1,1), alpha_2: pairing 1, but (0,-1) is not in the orbit"


def test_trichotomy_pairing_outside_the_three_cases_names_weight_and_root():
    rs = build(LieType("A", 2))
    check = trichotomy_check(Orbit(rs, 1, [OrbitElement(Weight((2, -1)), (), 0)]))
    assert not check
    assert check.detail == "at (2,-1), alpha_1: pairing 2, outside -1, 0, 1"


def test_trichotomy_calls_reflect_zero_times():
    # a zero pairing is its own classification: s_j fixes such a weight by
    # definition, so reflecting it would only recompute the same pairing.
    # The profile hook counts calls of rootsys.reflect under any binding.
    code = rootsys.reflect.__code__
    calls = []

    def profile(frame, event, arg):
        if event == "call" and frame.f_code is code:
            calls.append(frame)

    orbs = list(sweep_orbits())
    sys.setprofile(profile)
    try:
        for orb in orbs:
            assert trichotomy_check(orb)
        assert calls == []
        # the hook does see a call of reflect
        orb = orbs[0]
        rootsys.reflect(orb.rs, orb.elements[0].weight, simple_root(orb.rs, 1))
    finally:
        sys.setprofile(None)
    assert len(calls) == 1
    assert not hasattr(qchev, "reflect")


def test_trichotomy_reads_one_oracle_length_per_element(monkeypatch, fresh_memos):
    calls = []
    real = qchev.length

    def counting(orb, mu):
        calls.append(mu)
        return real(orb, mu)

    monkeypatch.setattr(qchev, "length", counting)
    for orb in sweep_orbits():
        qchev._lengths.cache_clear()
        calls.clear()
        assert trichotomy_check(orb)
        assert sorted(calls) == sorted(el.weight for el in orb.elements)


def test_trichotomy_wrong_oracle_length_names_the_lowered_weight(monkeypatch, fresh_memos):
    orb = orbit_of("A", 2, 1)
    real = qchev.length
    top = orb.elements[0].weight
    monkeypatch.setattr(qchev, "length", lambda o, mu: real(o, mu) + (mu == top))
    check = trichotomy_check(orb)
    assert check.detail == "at (1,0), alpha_1: pairing 1, but (-1,1) has length 1, not 2"


def test_coxeter_check_wrong_n_alpha_names_the_root(monkeypatch):
    orb = orbit_of("A", 2, 1)
    assert coxeter_check(orb).detail == "n_alpha = s = 3"
    real = qchev.n_alpha
    monkeypatch.setattr(
        qchev, "n_alpha", lambda rs, i, alpha: real(rs, i, alpha) + (alpha == rs.highest_root)
    )
    check = coxeter_check(orb)
    assert not check
    assert check.detail == "n_alpha = 4 != s = 3 at alpha = (1,1)"


def test_oracle_checks_pass_and_corrupted_operator():
    orb = orbit_of("A", 2, 1)
    main, survivors = main_theorem_check(orb, quantum_operator(orb)), survivor_check(orb)
    assert (main, survivors) == (
        qchev.Check(True, "three routes entrywise equal"),
        qchev.Check(True, "classification holds"),
    )
    main, survivors = main_theorem_check(orb, quantum_operator(orb).with_entry(1, 0, {})), survivor_check(orb)
    assert main.detail == "operator vs closed-form product at ((-1,1), (1,0)): 0 != 1"
    assert survivors


@pytest.mark.parametrize("exc_type", [AssertionError, ValueError])
def test_raising_oracle_fails_both_checks(monkeypatch, exc_type, fresh_memos):
    def broken(orb, mu):
        raise exc_type("surviving classical root must be simple")

    monkeypatch.setattr(qchev, "chevalley_fw_oracle", broken)
    orb = orbit_of("A", 2, 1)
    main, survivors = main_theorem_check(orb, quantum_operator(orb)), survivor_check(orb)
    want = f"oracle route failed: {exc_type.__name__}: surviving classical root must be simple"
    assert not main and not survivors
    assert main.detail == survivors.detail == want


def test_oracle_survivor_check_names_the_class(monkeypatch, fresh_memos):
    orb = orbit_of("A", 2, 1)
    real = qchev.fw_oracle_pass

    def two_quantum_terms(orb):
        matrix, stats = real(orb)
        stats[-1] = qchev.OracleSurvivorStats(stats[-1].candidates, 0, 2, stats[-1].candidates - 2)
        return matrix, stats

    monkeypatch.setattr(qchev, "fw_oracle_pass", two_quantum_terms)
    main, survivors = main_theorem_check(orb, quantum_operator(orb)), survivor_check(orb)
    assert main and not survivors
    assert survivors.detail == (
        "unexpected survivor counts at (0,-1): "
        "OracleSurvivorStats(candidates=2, classical=0, quantum=2, discarded=0)"
    )


def test_oracle_survivor_check_counts_the_candidates_the_oracle_read(fresh_memos):
    # the top class of A2/w1 discards alpha_1 + alpha_2 (length jump 2); a
    # transport row that loses it changes no product term, only the count
    orb = orbit_of("A", 2, 1)
    rows = qchev._oracle_table(orb)
    top = helpers.position_of(orb, orb.highest_weight.pairings)
    rows[top] = tuple(e for e in rows[top] if e[0].coeffs != (1, 1))
    assert len(rows[top]) == orb.dim_complex - 1
    main, survivors = main_theorem_check(orb, quantum_operator(orb)), survivor_check(orb)
    assert main and not survivors
    assert survivors.detail == (
        "unexpected survivor counts at (1,0): "
        "OracleSurvivorStats(candidates=1, classical=1, quantum=0, discarded=0)"
    )
    assert oracle_survivors(orb, orb.highest_weight).candidates == 1


def test_divisor_complement_is_computed_once_per_orbit():
    orb = orbit_of("E", 6, 1)
    qchev._complement.cache_clear()
    _complement_sum.cache_clear()
    qchev._oracle_table.cache_clear()
    qchev._oracle_outcome.cache_clear()
    main_theorem_check(orb, quantum_operator(orb))
    coxeter_check(orb)
    info = qchev._complement.cache_info()
    # one filter for the oracle's transport table; the Coxeter row's
    # divisor_complement and n_alpha's root sum read it back
    assert (info.misses, info.hits) == (1, 2)
    assert isinstance(divisor_complement(orb), tuple)


def test_closed_form_on_a_truncated_orbit_names_the_missing_target():
    with pytest.raises(AssertionError, match=r"\(-1,1\) - alpha_2 = \(0,-1\) is not in the orbit"):
        quantum_product_matrix(_truncated(orbit_of("A", 2, 1)))


def test_closed_form_q_term_on_a_truncated_orbit_names_the_missing_target():
    orb = orbit_of("A", 2, 1)
    topless = Orbit(orb.rs, orb.weight_index, orb.elements[1:])
    with pytest.raises(AssertionError, match=r"\(0,-1\) - alpha_0 = \(1,0\) is not in the orbit"):
        chevalley_closed(topless, Weight((0, -1)))


def test_divisor_complement_count_check_raises():
    with pytest.raises(AssertionError, match="2 complement roots for orbit dimension 1"):
        divisor_complement(_truncated(orbit_of("A", 2, 1)))


def test_entrywise_frobenius_agrees_with_the_matrix_identity():
    # every single-entry mutation: the check passes iff A^T G = G A
    for case in [("A", 3, 2), ("D", 4, 1), ("C", 3, 1)]:
        orb = orbit_of(*case)
        a, g = quantum_operator(orb), pairing_matrix(orb)
        for i in range(orb.size):
            for j in range(orb.size):
                m = a.with_entry(i, j, padd(a.entries.get((i, j), {}), {1: 1}))
                assert bool(frobenius_check(orb, m)) == (matmul(transpose(m), g) == matmul(g, m)), (case, i, j)



# -- the oracle's transport table ---------------------------------------------------


def test_oracle_needs_no_stored_words_or_lengths():
    # every stored word emptied and every stored length set to the orbit
    # dimension (Orbit.dim_complex reads it from the last element), so no
    # stored value tells one class from another
    for orb in sweep_orbits():
        blank = Orbit(
            orb.rs, orb.weight_index,
            [OrbitElement(el.weight, (), orb.dim_complex) for el in orb.elements],
        )
        main, survivors = main_theorem_check(blank, quantum_operator(orb)), survivor_check(blank)
        assert main.ok and survivors.ok, (orb, main.detail, survivors.detail)
        assert fw_oracle_matrix(blank) == fw_oracle_matrix(orb)


TRANSPORT_EXTRA_CASES = [("D", 8, 8), ("B", 8, 8), ("A", 9, 5), ("E", 7, 1)]


def _transport_cases():
    yield from sweep_orbits()
    for case in TRANSPORT_EXTRA_CASES:
        yield orbit_of(*case)


def test_transport_table_equals_the_stored_words():
    for orb in _transport_cases():
        rs = orb.rs
        rows, lengths = qchev._oracle_table(orb), qchev._lengths(orb)
        complement = divisor_complement(orb)
        assert orb.index_of == {el.weight.key: k for k, el in enumerate(orb.elements)}, orb
        assert orb.keys == tuple(orb.index_of), orb
        assert len(rows) == len(lengths) == orb.size, orb
        for el, row, got_length in zip(orb.elements, rows, lengths):
            assert [beta for beta, _, _ in row] == [apply_word(rs, el.word, a) for a in complement], (orb, el)
            assert all(key == rs.root_to_weight(beta).key for beta, key, _ in row), (orb, el)
            assert all(h == beta.height for beta, _, h in row), (orb, el)
            assert got_length == el.length, (orb, el)


def test_transport_table_holds_one_entry_per_root():
    # the transported roots are interned by their coefficients: every row
    # points at one shared (root, key, height) entry per root, whose
    # root is the reflection table's own RootVec
    orb = orbit_of("B", 8, 8)
    rows = qchev._oracle_table(orb)
    entries = [e for row in rows for e in row]
    assert len(entries) == orb.size * orb.dim_complex
    roots = {e[0].coeffs for e in entries}
    assert len({id(e) for e in entries}) == len({id(e[0]) for e in entries}) == len(roots)
    assert {id(e[0]) for e in entries} <= {id(r) for r in orb.rs.reflection_table[0].values()}
    assert len(roots) <= 2 * len(orb.rs.positive_roots)


def test_transport_table_keeps_only_the_latest_orbit():
    for orb in (orbit_of("A", 3, 2), orbit_of("D", 5, 5)):
        fw_oracle_pass(orb)
    assert qchev._oracle_table.cache_info().currsize == 1


def test_oracle_pass_reads_one_length_per_element(monkeypatch, fresh_memos):
    calls = []
    real = qchev.length

    def counting(orb, mu):
        calls.append(mu)
        return real(orb, mu)

    monkeypatch.setattr(qchev, "length", counting)
    for orb in sweep_orbits():
        qchev._lengths.cache_clear()
        qchev._oracle_table.cache_clear()
        calls.clear()
        fw_oracle_pass(orb)
        # one read per element, in canonical order: the orbit's length list
        assert calls == [el.weight for el in orb.elements]
        assert qchev._lengths(orb) == [el.length for el in orb.elements]


def test_oracle_grading_and_trichotomy_share_one_length_list(monkeypatch, fresh_memos):
    calls = []
    real = qchev.length
    monkeypatch.setattr(qchev, "length", lambda orb, mu: calls.append(mu) or real(orb, mu))
    for orb in (orbit_of("E", 6, 1), orbit_of("D", 5, 5)):
        calls.clear()
        a = quantum_operator(orb)
        main, survivors = main_theorem_check(orb, a), survivor_check(orb)
        assert main and survivors and grading_check(orb, a) and trichotomy_check(orb)
        assert calls == [el.weight for el in orb.elements]
    assert qchev._lengths.cache_info().currsize == 1


def test_oracle_pass_makes_one_single_letter_apply_word_call_per_transported_root(monkeypatch, fresh_memos):
    # perfbench's qchev.oracle.kept_ratio counts the candidates the
    # oracle examined as the apply_word calls made directly inside
    # chevalley_fw_oracle.  It relies on this count: one single-letter call
    # per (non-top class, complement root), all inside the first
    # chevalley_fw_oracle call of the orbit, where the table is built.
    words, inside = [], []
    real_apply, real_oracle = qchev.apply_word, qchev.chevalley_fw_oracle

    def counting(rs, word, alpha):
        assert inside, "apply_word called outside chevalley_fw_oracle"
        words.append(tuple(word))
        return real_apply(rs, word, alpha)

    def oracle(orb, mu):
        inside.append(mu)
        try:
            return real_oracle(orb, mu)
        finally:
            inside.pop()

    monkeypatch.setattr(qchev, "apply_word", counting)
    monkeypatch.setattr(qchev, "chevalley_fw_oracle", oracle)
    for orb in _transport_cases():
        qchev._oracle_table.cache_clear()
        words.clear()
        fw_oracle_pass(orb)
        assert len(words) == (orb.size - 1) * orb.dim_complex, orb
        assert all(len(w) == 1 for w in words), orb


def test_reflection_table_equals_simple_reflect_root():
    # s_j beta = beta - p_j alpha_j is read off root_pairings; the reference
    # reflects through a Cartan row
    extra = {build(LieType(*t)) for t in (("E", 8), ("F", 4), ("G", 2), ("B", 5))}
    for rs in {orb.rs for orb in _transport_cases()} | extra:
        table = rs.reflection_table
        roots = list(rs.positive_roots) + [-r for r in rs.positive_roots]
        assert len(table) == rs.rank, rs
        for j in range(1, rs.rank + 1):
            assert set(table[j - 1]) == {r.coeffs for r in roots}, (rs, j)
            for beta in roots:
                assert table[j - 1][beta.coeffs] == simple_reflect_root(rs, beta, j), (rs, j, beta)


def test_reflection_table_is_built_on_first_use_not_by_build():
    rs = RootSystem(LieType("D", 5))
    assert "reflection_table" not in vars(rs)
    apply_word(rs, (1,), simple_root(rs, 2))
    assert "reflection_table" in vars(rs)
    # interned: every value is the one RootVec of its root
    values = [beta for step in rs.reflection_table for beta in step.values()]
    assert len({id(beta) for beta in values}) == len({beta.coeffs for beta in values}) == 2 * len(rs.positive_roots)


@pytest.mark.parametrize("lie_type", [LieType("E", 8), LieType("F", 4), LieType("G", 2), LieType("B", 5)], ids=str)
def test_reflection_table_is_filled_without_simple_reflect_root(monkeypatch, lie_type):
    # s_j beta = beta - p_j alpha_j is read off root_pairings; no reflection
    # is computed: the reference is never called, and the only RootVecs
    # built while the table is filled are the negatives of Delta+
    calls = []
    real = helpers.simple_reflect_root
    monkeypatch.setattr(helpers, "simple_reflect_root", lambda rs, beta, j: calls.append(j) or real(rs, beta, j))
    rs = RootSystem(lie_type)
    built = []
    init = RootVec.__init__
    monkeypatch.setattr(RootVec, "__init__", lambda self, coeffs: built.append(coeffs) or init(self, coeffs))
    assert len(rs.reflection_table) == rs.rank
    assert calls == []
    assert sorted(built) == sorted(tuple(-c for c in r.coeffs) for r in rs.positive_roots)


def test_oracle_rejects_foreign_class():
    orb = orbit_of("A", 2, 1)
    with pytest.raises(ValueError, match=r"\(5,5\) is not a weight of the orbit"):
        chevalley_fw_oracle(orb, Weight((5, 5)))


def test_a_foreign_weight_raises_one_value_error_everywhere():
    # Orbit.position is the one membership test: every reader of a class
    # rejects a weight outside the orbit with its text
    orb = orbit_of("A", 2, 1)
    for call in (lambda mu: length(orb, mu), lambda mu: poincare_dual(orb, mu),
                 lambda mu: chevalley_closed(orb, mu), lambda mu: chevalley_fw_oracle(orb, mu)):
        with pytest.raises(ValueError, match=r"^\(5,5\) is not a weight of the orbit \(A2, w1\)$"):
            call(Weight((5, 5)))


COLLIDING_ENTRY_POINTS = {
    "position": lambda orb, mu: orb.position(mu),
    "length": length,
    "poincare_dual": poincare_dual,
    "chevalley_closed": chevalley_closed,
    "chevalley_fw_oracle": chevalley_fw_oracle,
    "oracle_survivors": oracle_survivors,
}


@pytest.mark.parametrize("entry", COLLIDING_ENTRY_POINTS)
def test_a_foreign_weight_with_an_orbit_weights_key_is_rejected(entry, fresh_memos):
    # (17,-1) has pairing 17, outside -7..7, where the key stops being
    # injective: 17 - 16 = 1 is the key of the top weight (1,0) of A2/w1,
    # so a key hit alone would take it for (1,0)
    orb = orbit_of("A", 2, 1)
    foreign = Weight((17, -1))
    assert foreign.key == orb.highest_weight.key
    with pytest.raises(ValueError, match=r"^\(17,-1\) is not a weight of the orbit \(A2, w1\)$"):
        COLLIDING_ENTRY_POINTS[entry](orb, foreign)


def test_oracle_on_a_truncated_orbit_names_the_class_root_and_foreign_target():
    # without (-1,1), the top class's candidate alpha_1 leads out of the orbit
    orb = orbit_of("A", 2, 1)
    middleless = Orbit(orb.rs, orb.weight_index, orb.elements[:1] + orb.elements[2:])
    with pytest.raises(ValueError, match=r"^\(1,0\) - \(1,0\) = \(-1,1\) is not in the orbit$"):
        chevalley_fw_oracle(middleless, Weight((1, 0)))


def test_oracle_on_a_flipped_orbit_names_the_stranded_dominant_weight():
    # with the lowest weight on top the complement is empty, so the count
    # check passes; raising any other weight ends at the true top weight
    orb = orbit_of("A", 3, 2)
    flipped = Orbit(orb.rs, orb.weight_index, tuple(reversed(orb.elements)))
    main, survivors = main_theorem_check(flipped, quantum_operator(orb)), survivor_check(flipped)
    want = ("oracle route failed: AssertionError: (0,1,0) has no raising simple root "
            "but is not the top weight (0,-1,0)")
    assert main.detail == survivors.detail == want


# -- oracle guards ------------------------------------------------------------
# A2/w1: classes (1,0), (-1,1), (0,-1) of lengths 0, 1, 2; s = 3, so a
# q-term jumps by -2.  alpha_1 pairs to (2,-1), theta to (1,1).


@pytest.mark.parametrize("k,entry,message", [
    (0, (RootVec((-1, 0)), Weight((2, -1)).key, 1), "^surviving classical root must be simple$"),
    (0, (RootVec((0, 1)), Weight((2, -1)).key, 1), r"^surviving simple root \(0,1\) must pair to 1 with \(1,0\)$"),
    (2, (RootVec((-1, 0)), Weight((-1, -1)).key, -2), "^surviving quantum root must be the negated highest root$"),
], ids=["classical-negative", "classical-unpaired", "quantum-not-theta"])
def test_oracle_rejects_a_survivor_the_closed_form_forbids(k, entry, message, fresh_memos):
    orb = orbit_of("A", 2, 1)
    qchev._oracle_table(orb)[k] = (entry,)
    with pytest.raises(AssertionError, match=message):
        chevalley_fw_oracle(orb, orb.elements[k].weight)


def test_oracle_rejects_a_length_jump_off_the_transported_height(monkeypatch, fresh_memos):
    orb = orbit_of("A", 2, 1)
    monkeypatch.setattr(qchev, "length", lambda o, mu: 0)
    with pytest.raises(AssertionError, match="^length jump must equal the transported height$"):
        chevalley_fw_oracle(orb, orb.highest_weight)


def test_oracle_quantum_term_needs_highest_coroot_pairing_minus_one(monkeypatch, fresh_memos):
    orb = orbit_of("A", 2, 1)
    divisor_complement(orb)  # the complement filter reads pair before it is replaced
    monkeypatch.setattr(qchev, "pair", lambda rs, mu, alpha: 0)
    with pytest.raises(AssertionError, match=r"^quantum term at \(0,-1\) needs highest-coroot pairing -1$"):
        chevalley_fw_oracle(orb, orb.elements[-1].weight)


def test_coxeter_check_names_a_coxeter_number_off_its_table(monkeypatch):
    monkeypatch.setitem(qchev._EXPECTED_COXETER, "A", lambda n: n + 2)
    check = coxeter_check(orbit_of("A", 2, 1))
    assert not check
    assert check.detail == "s = 3, but A2 has Coxeter number 4"
