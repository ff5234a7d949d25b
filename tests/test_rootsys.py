import pytest
from fractions import Fraction
from hypothesis import given, settings, strategies as st

from minflag.rootsys import (
    LieType,
    RootVec,
    Weight,
    build,
    diagram_involution,
    minuscule_weights,
    pair,
    reflect,
)

ALL_TYPES = (
    [("A", n) for n in range(1, 7)]
    + [("B", n) for n in range(2, 6)]
    + [("C", n) for n in range(2, 6)]
    + [("D", n) for n in range(3, 7)]
    + [("E", 6), ("E", 7), ("E", 8), ("F", 4), ("G", 2)]
)

# hand-counted / classical positive-root counts, kept as an oracle table
# against the reflection-closure construction
EXPECTED_NPOS = {
    ("A", 1): 1, ("A", 2): 3, ("A", 3): 6, ("A", 4): 10, ("A", 5): 15, ("A", 6): 21,
    ("B", 2): 4, ("B", 3): 9, ("B", 4): 16, ("B", 5): 25,
    ("C", 2): 4, ("C", 3): 9, ("C", 4): 16, ("C", 5): 25,
    ("D", 3): 6, ("D", 4): 12, ("D", 5): 20, ("D", 6): 30,
    ("E", 6): 36, ("E", 7): 63, ("E", 8): 120,
    ("F", 4): 24, ("G", 2): 6,
}


def test_a1_smallest_case():
    rs = build(LieType("A", 1))
    assert rs.positive_roots == (RootVec((1,)),)
    assert rs.highest_root == RootVec((1,))
    assert rs.coxeter_number == 2


def test_a2_closure_by_hand():
    rs = build(LieType("A", 2))
    assert {r.coeffs for r in rs.positive_roots} == {(1, 0), (0, 1), (1, 1)}
    assert rs.highest_root.coeffs == (1, 1)
    assert rs.coxeter_number == 3


def test_e7_coxeter_number_and_count():
    rs = build(LieType("E", 7))
    assert rs.coxeter_number == 18
    assert len(rs.positive_roots) == 7 * 18 // 2 == 63


@pytest.mark.parametrize("fam,rank", ALL_TYPES)
def test_positive_root_count_table(fam, rank):
    rs = build(LieType(fam, rank))
    assert len(rs.positive_roots) == EXPECTED_NPOS[(fam, rank)]
    assert 2 * len(rs.positive_roots) == rank * rs.coxeter_number


@pytest.mark.parametrize("fam,rank", ALL_TYPES)
def test_cartan_invariants(fam, rank):
    rs = build(LieType(fam, rank))
    C = rs.cartan_data.cartan
    d = rs.cartan_data.symmetrizers
    for k in range(rank):
        assert C[k][k] == 2
        for j in range(rank):
            if j != k:
                assert C[k][j] in (0, -1, -2, -3)
            assert d[k] * C[k][j] == d[j] * C[j][k]
    assert max(d) == 1  # long roots have d = 1


@pytest.mark.parametrize("fam,rank", ALL_TYPES)
def test_highest_root_dominant_and_unique(fam, rank):
    rs = build(LieType(fam, rank))
    psi = rs.highest_root
    assert all(p >= 0 for p in rs.root_to_weight(psi).pairings)
    heights = [r.height for r in rs.positive_roots]
    assert heights.count(psi.height) == 1


@pytest.mark.parametrize("fam,rank", ALL_TYPES)
def test_roots_closed_under_simple_reflections(fam, rank):
    rs = build(LieType(fam, rank))
    for r in rs.positive_roots:
        assert all(c >= 0 for c in r.coeffs)
        for j in range(1, rank + 1):
            assert rs.is_root(rs.simple_reflect_root(r, j))


@pytest.mark.parametrize("fam,rank", [("A", 3), ("B", 3), ("G", 2)])
def test_pair_fundamental_vs_simple_is_delta(fam, rank):
    rs = build(LieType(fam, rank))
    for i in range(1, rank + 1):
        lam = rs.fundamental_weight(i)
        for j in range(1, rank + 1):
            assert pair(rs, lam, rs.simple_root(j)) == (1 if i == j else 0)


def test_pair_a2_highest_coroot():
    # psi^vee = alpha_1^vee + alpha_2^vee in A2, so (lambda_1, psi^vee) = 1
    rs = build(LieType("A", 2))
    assert pair(rs, rs.fundamental_weight(1), rs.highest_root) == 1


def test_pair_a2_after_two_reflections():
    # lambda_1 -> s_1 -> (-1, 1) -> s_2 -> (0, -1), which kills alpha_1^vee
    rs = build(LieType("A", 2))
    w = reflect(rs, rs.fundamental_weight(1), rs.simple_root(1))
    w = reflect(rs, w, rs.simple_root(2))
    assert w == Weight((0, -1))
    assert pair(rs, w, rs.simple_root(1)) == 0


# The integer kernel against the symmetrizer formula it replaces.
PAIR_KERNEL_TYPES = (
    [("A", n) for n in range(1, 5)]
    + [("B", n) for n in range(2, 6)]
    + [("C", n) for n in range(2, 6)]
    + [("D", n) for n in range(3, 7)]
    + [("E", 6), ("E", 7), ("E", 8), ("F", 4), ("G", 2)]
)


def _fraction_pair(rs, mu, alpha):
    """(mu, alpha^vee) = sum_j c_j d_j m_j / d_alpha, in exact rationals."""
    d = rs.cartan_data.symmetrizers
    total = sum(
        (Fraction(c) * d[j] * mu.pairings[j] for j, c in enumerate(alpha.coeffs)), Fraction(0)
    )
    val = total / rs.half_norm(alpha)
    assert val.denominator == 1
    return int(val)


@pytest.mark.parametrize("fam,rank", PAIR_KERNEL_TYPES)
def test_integer_pair_matches_fraction_formula(fam, rank):
    rs = build(LieType(fam, rank))
    weights = [rs.fundamental_weight(i) for i in range(1, rank + 1)] + list(rs.simple_root_weights)
    roots = list(rs.positive_roots) + [-r for r in rs.positive_roots]
    for alpha in roots:
        for mu in weights:
            got = pair(rs, mu, alpha)
            assert type(got) is int
            assert got == _fraction_pair(rs, mu, alpha), (alpha, mu)


@pytest.mark.parametrize("fam,rank", ALL_TYPES)
def test_cartan_adjugate_inverts_cartan(fam, rank):
    rs = build(LieType(fam, rank))
    C, adj, det = rs.cartan_data.cartan, rs.cartan_adjugate, rs.cartan_det
    assert det > 0
    for i in range(rank):
        for j in range(rank):
            assert sum(C[i][k] * adj[k][j] for k in range(rank)) == (det if i == j else 0)


def test_pair_rejects_non_root():
    rs = build(LieType("A", 2))
    with pytest.raises(ValueError):
        pair(rs, rs.fundamental_weight(1), RootVec((2, 0)))


def test_reflect_fixed_point():
    rs = build(LieType("A", 2))
    lam = rs.fundamental_weight(1)
    assert reflect(rs, lam, rs.simple_root(2)) == lam


def test_reflect_lambda1_by_alpha1():
    rs = build(LieType("A", 2))
    assert reflect(rs, rs.fundamental_weight(1), rs.simple_root(1)) == Weight((-1, 1))


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_reflect_is_involution(data):
    fam, rank = data.draw(st.sampled_from(ALL_TYPES))
    rs = build(LieType(fam, rank))
    mu = Weight(tuple(data.draw(st.integers(-3, 3)) for _ in range(rank)))
    alpha = data.draw(st.sampled_from(rs.positive_roots))
    assert reflect(rs, reflect(rs, mu, alpha), alpha) == mu


def test_minuscule_weights_per_family():
    assert minuscule_weights(build(LieType("A", 5))) == (1, 2, 3, 4, 5)
    assert minuscule_weights(build(LieType("B", 4))) == (4,)
    assert minuscule_weights(build(LieType("C", 4))) == (1,)
    assert minuscule_weights(build(LieType("D", 5))) == (1, 4, 5)
    assert minuscule_weights(build(LieType("E", 6))) == (1, 6)
    assert minuscule_weights(build(LieType("E", 7))) == (1,)
    for fam, rank in [("E", 8), ("F", 4), ("G", 2)]:
        assert minuscule_weights(build(LieType(fam, rank))) == ()


@pytest.mark.parametrize("fam,rank", ALL_TYPES)
def test_minuscule_indices_are_fundamental(fam, rank):
    rs = build(LieType(fam, rank))
    assert all(1 <= i <= rank for i in minuscule_weights(rs))


def test_diagram_involution_values():
    assert diagram_involution(build(LieType("A", 3))) == (3, 2, 1)
    assert diagram_involution(build(LieType("D", 4))) == (1, 2, 3, 4)
    assert diagram_involution(build(LieType("D", 5))) == (1, 2, 3, 5, 4)
    assert diagram_involution(build(LieType("B", 4))) == (1, 2, 3, 4)
    assert diagram_involution(build(LieType("E", 6))) == (6, 2, 5, 4, 3, 1)
    assert diagram_involution(build(LieType("E", 7))) == tuple(range(1, 8))


@pytest.mark.parametrize("fam,rank", ALL_TYPES)
def test_diagram_involution_is_cartan_automorphism(fam, rank):
    rs = build(LieType(fam, rank))
    perm = diagram_involution(rs)
    assert sorted(perm) == list(range(1, rank + 1))
    C = rs.cartan_data.cartan
    for k in range(rank):
        assert perm[perm[k] - 1] == k + 1
        for j in range(rank):
            assert C[perm[k] - 1][perm[j] - 1] == C[k][j]


@pytest.mark.parametrize(
    "fam,rank", [("A", 0), ("B", 1), ("C", 1), ("D", 2), ("E", 5), ("E", 9), ("F", 3), ("G", 4), ("H", 2)]
)
def test_invalid_type_rejected(fam, rank):
    with pytest.raises(ValueError):
        LieType(fam, rank)


def test_symmetrizer_values():
    assert build(LieType("G", 2)).cartan_data.symmetrizers == (Fraction(1, 3), Fraction(1))
    assert build(LieType("B", 3)).cartan_data.symmetrizers == (1, 1, Fraction(1, 2))
    assert build(LieType("C", 3)).cartan_data.symmetrizers == (Fraction(1, 2), Fraction(1, 2), 1)
