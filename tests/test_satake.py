import hashlib
import json
from collections import Counter
from math import comb

import pytest
from hypothesis import given, settings, strategies as st

import minflag.minrep as minrep
import minflag.weylorbit as weylorbit
import minflag.satake as satake
from helpers import (aligned_pair, commutator, dense_rows, matmul, orbit_of, pmul, position_of,
                     reference_wedge_matrix)
from minflag.minrep import PolyMatrix, lowering_matrix, poly_text, quantum_operator
from minflag.satake import (
    SignDiagonal,
    SignSimilarityError,
    half_wedge_dims,
    satake_similarity,
    sign_similarity,
    wedge_matrix,
    wedge_subsets,
)
from minflag.weylorbit import Orbit


def test_wedge_degree_one_is_the_matrix_itself():
    m = quantum_operator(orbit_of("A", 3, 1))
    w = wedge_matrix(m, 1)
    assert dense_rows(w) == dense_rows(m)


def test_wedge_rejects_out_of_range_degree():
    m = quantum_operator(orbit_of("A", 3, 1))
    with pytest.raises(ValueError):
        wedge_matrix(m, 0)
    with pytest.raises(ValueError):
        wedge_matrix(m, 4)  # k = n + 1 collapses to the trace line


@pytest.mark.parametrize("k", [True, 1.0], ids=repr)
def test_wedge_rejects_a_degree_that_is_not_an_int(k):
    m = quantum_operator(orbit_of("A", 3, 1))
    with pytest.raises(TypeError, match=rf"^wedge degree must be an int, not {k!r}$"):
        wedge_matrix(m, k)


@pytest.mark.parametrize("n", [4.0, True], ids=repr)
def test_half_wedge_dims_rejects_a_rank_that_is_not_an_int(n):
    with pytest.raises(TypeError, match=rf"^rank must be an int, not {n!r}$"):
        half_wedge_dims(n)


def test_wedge_a3_k2_entries_and_size():
    w = wedge_matrix(quantum_operator(orbit_of("A", 3, 1)), 2)
    assert w.n == 6
    entries = {poly_text(p) for p in w.entries.values()}
    assert entries <= {"1", "-1", "q", "-q"}
    assert "q" in entries or "-q" in entries


# small coefficients, so that diagonal sums often cancel
_wedge_entries = st.dictionaries(st.integers(0, 3), st.integers(-2, 2), max_size=3)


@st.composite
def _dense_poly_matrices(draw):
    n = draw(st.integers(2, 6))
    cells = draw(st.lists(_wedge_entries, min_size=n * n, max_size=n * n))
    return PolyMatrix(n, {(i, j): cells[i * n + j] for i in range(n) for j in range(n)})


@settings(max_examples=80, deadline=None)
@given(m=_dense_poly_matrices())
def test_wedge_matches_the_poly_reference_for_every_degree(m):
    for k in range(1, m.n):
        w = wedge_matrix(m, k)
        assert w == reference_wedge_matrix(m, k)
        assert all(w.entries.values())


def test_wedge_drops_diagonal_terms_that_cancel():
    # the diagonal entry of {0, 1} is m00 + m11 = (1 + 2q) + (-1 - 2q) = 0
    m = PolyMatrix(3, {
        (0, 0): {0: 1, 1: 2}, (1, 1): {0: -1, 1: -2}, (2, 2): {0: 3, 2: 1},
        (1, 0): {1: 5}, (2, 0): {0: 7},
    })
    w = wedge_matrix(m, 2)
    assert w == reference_wedge_matrix(m, 2)
    assert (0, 0) not in w.entries
    assert w.entries[(1, 1)] == {0: 4, 1: 2, 2: 1}  # m00 + m22, three exponents
    assert w.entries[(2, 2)] == {0: 2, 1: -2, 2: 1}  # m11 + m22
    assert w.entries[(2, 1)] == {1: 5}  # e0 ^ e2 -> e1 ^ e2 keeps its order
    assert w.entries[(2, 0)] == {0: -7}  # e0 ^ e1 -> e2 ^ e1 = -e1 ^ e2


@pytest.mark.parametrize("n", range(1, 8))
def test_wedge_of_the_line_operator_matches_the_poly_reference(n):
    m = quantum_operator(orbit_of("A", n, 1))
    for k in range(1, n + 1):
        assert wedge_matrix(m, k) == reference_wedge_matrix(m, k)


def test_sign_similarity_identity_case():
    m = quantum_operator(orbit_of("A", 3, 2))
    assert sign_similarity(m, m).signs == (1,) * 6


def _conjugated(d: SignDiagonal, m: PolyMatrix) -> PolyMatrix:
    """D m D for D = diag(d.signs), as a product of matrices."""
    diag = PolyMatrix(m.n, {(i, i): {0: s} for i, s in enumerate(d.signs)})
    return matmul(matmul(diag, m), diag)


def test_sign_similarity_recovers_a_planted_diagonal():
    m = quantum_operator(orbit_of("A", 3, 2))
    planted = SignDiagonal((1, -1, 1, -1, -1, 1))
    twisted = _conjugated(planted, m)
    found = sign_similarity(twisted, m)
    assert _conjugated(found, twisted) == m


def test_satake_a3_k2():
    diag = satake_similarity(3, 2)
    aligned, grassmannian = aligned_pair(3, 2)
    # conjugating by the discovered diagonal gives entrywise equality
    assert _conjugated(diag, aligned) == grassmannian


@pytest.mark.parametrize("n,k", [(2, 1), (3, 2), (4, 2), (5, 3)])
def test_satake_pairs(n, k):
    diag = satake_similarity(n, k)
    assert len(diag.signs) == comb(n + 1, k)


@pytest.mark.parametrize("n", range(1, 10))
def test_satake_similarity_matches_the_polymatrix_route(n):
    for k in range(1, n + 1):
        assert satake_similarity(n, k).signs == sign_similarity(*aligned_pair(n, k)).signs


@pytest.mark.parametrize("n", range(1, 7))
def test_aligned_wedge_matches_the_permuted_and_twisted_poly_reference(n):
    # the wedge accumulated straight into Grassmannian positions with the
    # parity twist folded in equals the reference wedge in subset order,
    # moved to the positions of the summed line weights, with q -> (-1)^(k-1) q
    line = orbit_of("A", n, 1)
    lines = [el.weight.pairings for el in line.elements]
    for k in range(1, n + 1):
        gr = orbit_of("A", n, k)
        ref = reference_wedge_matrix(quantum_operator(line), k)
        perm = [position_of(gr, map(sum, zip(*(lines[p] for p in s)))) for s in wedge_subsets(n + 1, k)]
        twist = (-1) ** (k - 1)
        want = PolyMatrix(ref.n, {(perm[i], perm[j]): {e: v * twist**e for e, v in p.items()}
                                  for (i, j), p in ref.entries.items()})
        aligned, grassmannian = aligned_pair(n, k)
        assert aligned == want
        assert grassmannian == quantum_operator(gr)


def _outcome(route):
    """A route's signs, or the kind, message and cycle of its SignSimilarityError."""
    try:
        return "ok", route().signs
    except SignSimilarityError as exc:
        return exc.kind, str(exc), exc.cycle


# sha256 of the json.dumps of every outcome below, in site order: the
# signs, or the kind, message and cycle of each failure, as the
# PolyMatrix route gave them before the integer route existed
MUTATION_OUTCOMES_SHA256 = {
    (3, 2): "3bd0144193602f888354d9882cd1b0527ca2cae70c3b2afb875a0217a836da97",
    (4, 2): "3aa62db6242f2db81f0951d18a09e476b78036e00d3f90639ea5b5a168c545d0",
    (5, 3): "d5262b7677ebf14b7448d259d951f7ebed8ec0980c7e287b75db36e7f231292b",
}


@pytest.mark.parametrize("n,k", sorted(MUTATION_OUTCOMES_SHA256))
def test_satake_similarity_fails_as_the_polymatrix_route_on_every_single_entry_mutation(monkeypatch, fresh_memos, n, k):
    # every entry of the Grassmannian's E-(j) and E_psi = E-(0) maps, negated,
    # stored as 0 (a support mismatch) or doubled, E_psi's last; the line
    # operator stays intact
    real_low = weylorbit.lowering_maps
    gr = orbit_of("A", n, k)
    low = real_low(gr)
    sites = [(j, c) for j in [*range(1, len(low)), 0] for c in low[j]]
    seen, outcomes = Counter(), []
    for j, c in sites:
        for scale in (-1, 0, 2):
            def changed(m, c=c, scale=scale):
                t, v = m[c]
                return {**m, c: (t, scale * v)}

            def mutated(orb, j=j, changed=changed):
                maps = real_low(orb)
                return [changed(m) if orb.weight_index == k and i == j else m for i, m in enumerate(maps)]

            monkeypatch.setattr(weylorbit, "lowering_maps", mutated)
            got = _outcome(lambda: satake_similarity(n, k))
            assert got == _outcome(lambda: sign_similarity(*aligned_pair(n, k)))
            outcomes.append(got)
            seen[got[0] if got[0] != "support" else got[1].split(" at ")[0]] += 1
    assert seen["cycle"] and seen["supports differ"] and seen["entries"]
    assert seen["ok"] + seen["cycle"] == len(sites)  # a negated entry is absorbed or closes a bad loop
    assert hashlib.sha256(json.dumps(outcomes).encode()).hexdigest() == MUTATION_OUTCOMES_SHA256[n, k]


def test_satake_similarity_check_names_the_entry_its_signs_miss(monkeypatch):
    # equal sides are accepted before propagation, so the check is reached
    # through the Grassmannian side conjugated by a sign on basis vector 5
    aligned, grassmannian = aligned_pair(3, 2)
    flipped = _conjugated(SignDiagonal((1, 1, 1, 1, 1, -1)), grassmannian)
    assert sign_similarity(aligned, flipped).signs == (1, 1, 1, 1, 1, -1)
    monkeypatch.setattr(satake, "_propagate_signs", lambda n, ratio: (-1,) + (1,) * (n - 1))
    assert satake_similarity(3, 2).signs == (1,) * 6
    message = r"d\[0\] d\[4\] = -1, but entry \(0, 4\) has sign ratio 1"
    with pytest.raises(AssertionError, match=message):
        sign_similarity(aligned, flipped)


def test_satake_pairs_are_equal_after_alignment_and_never_propagate_signs(monkeypatch):
    # every 1 <= k <= n <= 9: the benchmark's 44 pairs and (1, 1)
    def no_propagation(n, ratio):
        raise AssertionError("signs propagated")

    monkeypatch.setattr(satake, "_propagate_signs", no_propagation)
    for n in range(1, 10):
        for k in range(1, n + 1):
            assert satake_similarity(n, k).signs == (1,) * comb(n + 1, k), (n, k)


def test_satake_similarity_builds_only_the_two_operators(monkeypatch, fresh_memos):
    # the wedge and the sign match run on integer entries: the two A(q) are
    # the only matrices, and no other PolyMatrix is made along the way
    counts = Counter()

    def counted(cls, name):
        real = getattr(cls, name)

        def wrapper(*args, **kwargs):
            counts[f"{cls.__name__}.{name}"] += 1
            return real(*args, **kwargs)

        monkeypatch.setattr(cls, name, wrapper)

    counted(PolyMatrix, "__init__")
    for n, k in [(3, 2), (6, 3), (9, 5)]:
        counts.clear()
        satake_similarity(n, k)
        assert counts == {"PolyMatrix.__init__": 2}
    counts.clear()
    aligned_pair(3, 2)  # one PolyMatrix wraps the aligned wedge's entries
    assert counts == {"PolyMatrix.__init__": 3}


def test_sign_similarity_flipped_sign_gives_cycle_witness():
    aligned, grassmannian = aligned_pair(3, 2)
    witnessed = False
    for (i, j), p in sorted(grassmannian.entries.items()):
        mutated = grassmannian.with_entry(i, j, pmul(p, {0: -1}))
        try:
            sign_similarity(aligned, mutated)
        except SignSimilarityError as exc:
            if exc.kind == "cycle":
                assert exc.cycle is not None and len(exc.cycle) >= 3
                assert exc.cycle[0] == exc.cycle[-1]
                witnessed = True
                break
    assert witnessed


def test_sign_similarity_support_mismatch():
    aligned, grassmannian = aligned_pair(3, 2)
    with pytest.raises(SignSimilarityError) as err:
        sign_similarity(aligned, grassmannian.with_entry(0, 0, {0: 1}))
    assert err.value.kind == "support"


def test_sign_similarity_support_witness_names_the_entry():
    aligned, grassmannian = aligned_pair(3, 2)
    with pytest.raises(SignSimilarityError) as err:
        sign_similarity(aligned, grassmannian.with_entry(0, 0, {0: 1}))
    assert str(err.value) == "supports differ at entry (0, 0)"
    assert err.value.cycle is None


Q1 = {0: 1, 1: 1}  # 1 + q


def test_sign_similarity_matches_a_negated_multi_term_entry():
    a = PolyMatrix(2, {(0, 1): Q1, (1, 1): Q1})
    b = PolyMatrix(2, {(0, 1): {0: -1, 1: -1}, (1, 1): Q1})
    assert sign_similarity(a, b).signs == (1, -1)


@pytest.mark.parametrize("p,q,text", [
    (Q1, {0: 1, 1: -1}, "q + 1 vs -q + 1"),
    (Q1, {0: -1, 1: 1}, "q + 1 vs q - 1"),
    (Q1, {0: 1}, "q + 1 vs 1"),
    ({0: 2}, {0: 1}, "2 vs 1"),
])
def test_sign_similarity_entry_witness_names_both_entries(p, q, text):
    a = PolyMatrix(2, {(0, 0): {0: 1}, (0, 1): p})
    b = PolyMatrix(2, {(0, 0): {0: 1}, (0, 1): q})
    with pytest.raises(SignSimilarityError) as err:
        sign_similarity(a, b)
    assert err.value.kind == "support"
    assert str(err.value) == f"entries at (0, 1) do not agree up to sign: {text}"


def test_sign_similarity_dimension_mismatch():
    a = quantum_operator(orbit_of("A", 1, 1))
    b = quantum_operator(orbit_of("A", 2, 1))
    with pytest.raises(ValueError):
        sign_similarity(a, b)


def test_wedge_respects_brackets():
    # the derivation action is a Lie homomorphism; spot-check on the
    # sl2 triples of the 4-dimensional representation at k = 2
    orb = orbit_of("A", 3, 1)
    for j in (1, 2, 3):
        x = PolyMatrix(orb.size, {(t, c): {0: v} for c, (t, v) in minrep._raising_maps(orb)[j - 1].items()})
        y = lowering_matrix(orb, j)
        assert wedge_matrix(commutator(x, y), 2) == commutator(
            wedge_matrix(x, 2), wedge_matrix(y, 2)
        )


def test_subset_count_matches_orbit_size():
    for n, k in [(3, 2), (4, 2), (5, 3), (6, 3)]:
        assert len(wedge_subsets(n + 1, k)) == comb(n + 1, k) == orbit_of("A", n, k).size


@pytest.mark.parametrize(
    "n,total", [(3, 16), (4, 64), (5, 256), (6, 1024)]
)
def test_half_wedge_dimension_identities(n, total):
    report = half_wedge_dims(n)
    assert report.ok
    assert report.wedge_total == report.endo_total == total
    assert report.quadric_orbit_size == 2 * n
    assert report.spinor_orbit_size == 2 ** (n - 1)


def test_half_wedge_rejects_small_rank():
    with pytest.raises(ValueError, match="^rank 2 invalid for family D$"):
        half_wedge_dims(2)


# -- the internal checks raise with their witness (they must survive python -O) --


def test_sign_similarity_check_names_the_entry_its_signs_miss(monkeypatch):
    a = lowering_matrix(orbit_of("A", 2, 1), 1)
    b = a.with_entry(1, 0, {0: -1})
    assert sign_similarity(a, b).signs == (1, -1, 1)
    monkeypatch.setattr(satake, "_propagate_signs", lambda n, ratio: (1,) * n)
    with pytest.raises(AssertionError, match=r"d\[1\] d\[0\] = 1, but entry \(1, 0\) has sign ratio -1"):
        sign_similarity(a, b)


def test_wedge_alignment_check_names_the_three_counts(monkeypatch):
    real = satake.orbit

    def short_grassmannian(rs, i):
        orb = real(rs, i)
        return Orbit(rs, i, orb.elements[:-1]) if i == 2 else orb

    monkeypatch.setattr(satake, "orbit", short_grassmannian)
    with pytest.raises(AssertionError, match=r"6 2-subsets of 4 lines, 5 weights in the A3/w2 orbit, binomial 6"):
        satake._aligned_wedge(3, 2)


def test_half_wedge_check_names_the_odd_middle_binomial(monkeypatch):
    monkeypatch.setattr(satake, "comb", lambda a, b: comb(a, b) + 1)
    with pytest.raises(AssertionError, match=r"middle binomial C\(8, 4\) = 71 is odd"):
        half_wedge_dims(4)
