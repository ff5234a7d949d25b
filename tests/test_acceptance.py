"""Acceptance suite: one test per criterion, one printed line per criterion.

Run with ``pytest tests/test_acceptance.py -s`` to see the lines.  The
timed criteria clear the library caches first so the measurements are
honest; everything else is exact arithmetic with zero tolerance.
"""
import random
import time
from math import comb

import minflag.rootsys as rootsys
import minflag.weylorbit as weylorbit
from helpers import SWEEP, aligned_pair, random_alcove_coords
from minflag.cli import delete_detectable_edge
from minflag.minrep import char_poly, quantum_operator, verify_rep_relations
from minflag.qchev import (
    divisor_complement,
    frobenius_check,
    fw_oracle_matrix,
    grading_check,
    n_alpha,
    oracle_survivors,
    quantum_product_matrix,
    trichotomy_check,
)
from minflag.rootsys import LieType, build
from minflag.satake import SignSimilarityError, half_wedge_dims, satake_similarity, sign_similarity
from minflag.ttstar import alcove_to_asymptotic, asymptotic_to_alcove, dpw_exponents, minus_h0
from minflag.weylorbit import expected_orbit_size, orbit

EXPECTED_S = {"A": lambda n: n + 1, "B": lambda n: 2 * n, "C": lambda n: 2 * n,
              "D": lambda n: 2 * n - 2, "E": lambda n: {6: 12, 7: 18}[n]}


def _report(num: int, name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {num:02d} {name}: {status}" + (f" ({detail})" if detail else ""))
    assert ok, f"criterion {num} ({name}) failed: {detail}"


def _fresh_caches() -> None:
    rootsys.build.cache_clear()
    weylorbit.orbit.cache_clear()


def test_criterion_1_orbit_size_table():
    _fresh_caches()
    t0 = time.perf_counter()
    for lt, i in SWEEP:
        orb = orbit(build(lt), i)
        assert orb.size == expected_orbit_size(lt, i), (lt, i)
    elapsed = time.perf_counter() - t0
    _report(1, "orbit-size-table", elapsed < 5.0, f"{len(SWEEP)} cases in {elapsed:.2f}s")


def test_criterion_2_main_theorem_triple_equality():
    _fresh_caches()
    t0 = time.perf_counter()
    checked = 0
    for lt, i in SWEEP:
        orb = orbit(build(lt), i)
        operator = quantum_operator(orb)
        assert operator == quantum_product_matrix(orb), (lt, i)
        assert operator == fw_oracle_matrix(orb), (lt, i)
        checked += 1
        if lt == LieType("E", 7):
            assert operator.n == 56
    elapsed = time.perf_counter() - t0
    _report(2, "main-theorem-triple-equality", elapsed < 30.0, f"{checked} cases in {elapsed:.2f}s")


def test_criterion_3_coxeter_identities():
    for lt, i in SWEEP:
        rs = build(lt)
        orb = orbit(rs, i)
        s = rs.coxeter_number
        assert s == EXPECTED_S[lt.family](lt.rank), lt
        for alpha in divisor_complement(orb):
            assert n_alpha(rs, i, alpha) == s, (lt, i, alpha)
    _report(3, "coxeter-identities", True, "n_alpha = s on every swept case")


def test_criterion_4_trichotomy_and_survivor_classification():
    violations = 0
    for lt, i in SWEEP:
        orb = orbit(build(lt), i)
        if not trichotomy_check(orb):
            violations += 1
        for el in orb.elements:
            stats = oracle_survivors(orb, el.weight)
            if stats.candidates != orb.dim_complex:
                violations += 1
    _report(4, "trichotomy-and-oracle-classification", violations == 0, "exhaustive, zero violations")


def test_criterion_5_toda_dictionary():
    rng = random.Random(5)
    types = sorted({lt for lt, _i in SWEEP})
    for lt in types:
        rs = build(lt)
        m = minus_h0(rs)
        x = asymptotic_to_alcove(rs, m)
        assert all(c == 0 for c in x), lt
        k = dpw_exponents(rs, m)
        assert k[0] == 0 and all(v == -1 for v in k[1:]), lt
        for _ in range(100):
            pt = random_alcove_coords(rs, rng)
            back = asymptotic_to_alcove(rs, alcove_to_asymptotic(rs, pt))
            assert back == pt, lt
    _report(5, "toda-dictionary", True, f"{len(types)} types, 100 round trips each")


def test_criterion_6_structure_constants():
    for lt, i in SWEEP:
        report = verify_rep_relations(orbit(build(lt), i))
        assert report.ok, (lt, i, report.detail)
    _report(6, "structure-constants", True, "all brackets exact")


def test_criterion_7_characteristic_polynomials():
    for n in range(1, 7):
        cp = char_poly(quantum_operator(orbit(build(LieType("A", n)), 1)))
        assert cp == ({0: 1},) + ({},) * n + ({1: -1},), f"A{n}"
    for n in range(2, 6):
        cp = char_poly(quantum_operator(orbit(build(LieType("C", n)), 1)))
        assert cp == ({0: 1},) + ({},) * (2 * n - 1) + ({1: -1},), f"C{n}"
    _report(7, "characteristic-polynomials", True, "x^(n+1)-q and x^(2n)-q")


def test_criterion_8_quantum_satake():
    for n, k in [(2, 1), (3, 2), (4, 2), (5, 3)]:
        diag = satake_similarity(n, k)
        assert len(diag.signs) == comb(n + 1, k), (n, k)
    for n in (3, 4, 5, 6):
        assert half_wedge_dims(n).ok, n
    _report(8, "quantum-satake", True, "type A pairs and D dimension identities")


def test_criterion_9_invariants_and_mutation_detection():
    for lt, i in SWEEP:
        orb = orbit(build(lt), i)
        a = quantum_operator(orb)
        assert frobenius_check(orb, a), (lt, i)
        assert grading_check(orb, a), (lt, i)

    # deleted edge: pick one whose dual partner entry differs, so the
    # Frobenius symmetry must notice
    orb = orbit(build(LieType("A", 2)), 1)
    operator = quantum_operator(orb)
    deleted = delete_detectable_edge(orb, operator)
    assert deleted != operator and not frobenius_check(orb, deleted)
    assert deleted != quantum_product_matrix(orb)

    # moved q-power: grading homogeneity must notice
    (r, c), p = min(operator.entries.items())
    assert not grading_check(orb, operator.with_entry(r, c, {e + 1: v for e, v in p.items()}))

    # flipped sign: the sign-similarity propagation must produce a witness
    aligned, grassmannian = aligned_pair(3, 2)
    caught = False
    for (r, c), p in sorted(grassmannian.entries.items()):
        try:
            sign_similarity(aligned, grassmannian.with_entry(r, c, {e: -v for e, v in p.items()}))
        except SignSimilarityError as exc:
            if exc.kind == "cycle" and exc.cycle:
                caught = True
                break
    assert caught
    _report(9, "invariants-and-mutations", True, "frobenius, grading, mutations detected")
