import re

import pytest
from fractions import Fraction
from hypothesis import given, settings, strategies as st

from helpers import reference_positive_roots, simple_reflect_root, simple_root
from minflag import rootsys
from minflag.rootsys import (
    LieType,
    RootSystem,
    RootVec,
    Weight,
    build,
    coroot,
    diagram_involution,
    minuscule_weights,
    node_pairings,
    pair,
    reflect,
)
from minflag.weylorbit import orbit

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


# the types the tuple closure is compared against its RootVec reference on
CLOSURE_TYPES = (
    [("A", n) for n in range(1, 13)]
    + [("B", n) for n in range(2, 11)]
    + [("C", n) for n in range(2, 11)]
    + [("D", n) for n in range(3, 13)]
    + [("E", 6), ("E", 7), ("E", 8), ("F", 4), ("G", 2)]
)


@pytest.mark.parametrize("fam,rank", CLOSURE_TYPES, ids=[f"{f}{n}" for f, n in CLOSURE_TYPES])
def test_tuple_closure_matches_the_rootvec_reference(fam, rank):
    rs = build(LieType(fam, rank))
    roots, coroots = reference_positive_roots(rs)
    assert rs.positive_roots == roots
    for r in roots:
        assert rs._coroot[r.coeffs] == coroots[r.coeffs], r
        assert rs._coroot[(-r).coeffs] == tuple(-c for c in coroots[r.coeffs]), r
    # the carried pairings are kept for every root of +-Delta+
    assert len(rs.root_pairings) == 2 * len(roots)
    for r in roots + tuple(-r for r in roots):
        assert rs.root_pairings[r.coeffs] == rs.root_to_weight(r).pairings, r


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
    C, d = rs.cartan, rs.symmetrizers
    for k in range(rank):
        assert C[k][k] == 2
        for j in range(rank):
            if j != k:
                assert C[k][j] in (0, -1, -2, -3)
            assert d[k] * C[k][j] == d[j] * C[j][k]
    assert min(d) == 1  # short roots have d = 1
    assert all(type(x) is int for x in d)


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
            assert rs.is_root(simple_reflect_root(rs, r, j))


@pytest.mark.parametrize("fam,rank", [("A", 3), ("B", 3), ("G", 2)])
def test_pair_fundamental_vs_simple_is_delta(fam, rank):
    rs = build(LieType(fam, rank))
    for i in range(1, rank + 1):
        lam = rs.fundamental_weight(i)
        for j in range(1, rank + 1):
            assert pair(rs, lam, simple_root(rs, j)) == (1 if i == j else 0)


def test_pair_a2_highest_coroot():
    # psi^vee = alpha_1^vee + alpha_2^vee in A2, so (lambda_1, psi^vee) = 1
    rs = build(LieType("A", 2))
    assert pair(rs, rs.fundamental_weight(1), rs.highest_root) == 1


def test_pair_a2_after_two_reflections():
    # lambda_1 -> s_1 -> (-1, 1) -> s_2 -> (0, -1), which kills alpha_1^vee
    rs = build(LieType("A", 2))
    w = reflect(rs, rs.fundamental_weight(1), simple_root(rs, 1))
    w = reflect(rs, w, simple_root(rs, 2))
    assert w == Weight((0, -1))
    assert pair(rs, w, simple_root(rs, 1)) == 0


# The integer kernel against the symmetrizer formula it replaces.
PAIR_KERNEL_TYPES = (
    [("A", n) for n in range(1, 5)]
    + [("B", n) for n in range(2, 6)]
    + [("C", n) for n in range(2, 6)]
    + [("D", n) for n in range(3, 7)]
    + [("E", 6), ("E", 7), ("E", 8), ("F", 4), ("G", 2)]
)


def _fraction_pair(rs, mu, alpha):
    """(mu, alpha^vee) = sum_j c_j d_j m_j / d_alpha, in exact rationals, d_alpha from the double sum."""
    d = rs.symmetrizers
    total = sum(
        (Fraction(c) * d[j] * mu.pairings[j] for j, c in enumerate(alpha.coeffs)), Fraction(0)
    )
    val = total / _double_sum_half_norm(rs, alpha)
    assert val.denominator == 1
    return int(val)


@pytest.mark.parametrize("fam,rank", PAIR_KERNEL_TYPES)
def test_integer_pair_matches_fraction_formula(fam, rank):
    rs = build(LieType(fam, rank))
    weights = [rs.fundamental_weight(i) for i in range(1, rank + 1)] + list(rs.node_weights)
    roots = list(rs.positive_roots) + [-r for r in rs.positive_roots]
    for alpha in roots:
        for mu in weights:
            got = pair(rs, mu, alpha)
            assert type(got) is int
            assert got == _fraction_pair(rs, mu, alpha), (alpha, mu)


# every type the benchmark builds, up to B10 and D11
REFERENCE_TYPES = (
    [("A", n) for n in range(1, 11)]
    + [("B", n) for n in range(2, 11)]
    + [("C", n) for n in range(2, 11)]
    + [("D", n) for n in range(3, 12)]
    + [("E", 6), ("E", 7), ("E", 8), ("F", 4), ("G", 2)]
)


@pytest.mark.parametrize("fam,rank", REFERENCE_TYPES)
def test_cartan_adjugate_inverts_cartan(fam, rank):
    rs = build(LieType(fam, rank))
    C, adj, det = rs.cartan, rs.cartan_adjugate, rs.cartan_det
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
    assert reflect(rs, lam, simple_root(rs, 2)) == lam


def test_reflect_lambda1_by_alpha1():
    rs = build(LieType("A", 2))
    assert reflect(rs, rs.fundamental_weight(1), simple_root(rs, 1)) == Weight((-1, 1))


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
    C = rs.cartan
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


@pytest.mark.parametrize("rank", [True, 2.0], ids=["True", "2.0"])
def test_lie_type_rejects_a_rank_that_is_not_an_int(rank):
    # a bool or float rank would print as "ATrue" or "A2.0" and fail late in build
    with pytest.raises(TypeError, match=f"^rank must be an int, not {rank!r}$"):
        LieType("A", rank)


def test_symmetrizer_values():
    # the minimal integers d_j = (alpha_j, alpha_j)/2, short roots of squared length 2
    assert build(LieType("G", 2)).symmetrizers == (1, 3)
    assert build(LieType("B", 3)).symmetrizers == (2, 2, 1)
    assert build(LieType("C", 3)).symmetrizers == (1, 1, 2)
    assert build(LieType("F", 4)).symmetrizers == (2, 2, 1, 1)
    for lt in (LieType("A", 4), LieType("D", 5), LieType("E", 6), LieType("E", 7), LieType("E", 8)):
        assert build(lt).symmetrizers == (1,) * lt.rank


HALF_NORM_TYPES = (
    [("A", n) for n in range(1, 9)]
    + [("B", n) for n in range(2, 9)]
    + [("C", n) for n in range(2, 9)]
    + [("D", n) for n in range(3, 9)]
    + [("E", 6), ("E", 7), ("E", 8), ("F", 4), ("G", 2)]
)


def _double_sum_half_norm(rs, alpha):
    """(alpha, alpha)/2 = 1/2 sum_{j,k} c_j c_k d_k a[k][j], independent of the stored coroots."""
    C, d, c = rs.cartan, rs.symmetrizers, alpha.coeffs
    n = rs.rank
    return sum((c[j] * c[k] * d[k] * C[k][j] for j in range(n) for k in range(n)), Fraction(0)) / 2


@pytest.mark.parametrize("fam,rank", HALF_NORM_TYPES)
def test_half_norm_matches_the_double_sum(fam, rank):
    # the half norm d_alpha of every root, from the double sum, is one of the
    # integer symmetrizers, and the stored coroot is alpha scaled by it:
    # d_alpha (alpha^vee)_j = c_j d_j for every j
    rs = build(LieType(fam, rank))
    d = rs.symmetrizers
    for alpha in list(rs.positive_roots) + [-r for r in rs.positive_roots]:
        d_alpha = _double_sum_half_norm(rs, alpha)
        assert d_alpha in d, alpha
        co = coroot(rs, alpha)
        assert [d_alpha * x for x in co] == [c * d_j for c, d_j in zip(alpha.coeffs, d)], alpha


@pytest.mark.parametrize("fam,rank", REFERENCE_TYPES)
def test_coroots_match_the_rational_formula(fam, rank):
    # alpha^vee = sum_j c_j (d_j / d_alpha) alpha_j^vee, with d_alpha from
    # the double sum; (lambda_j, alpha^vee) reads coordinate j of alpha^vee
    rs = build(LieType(fam, rank))
    d = rs.symmetrizers
    weights = [rs.fundamental_weight(j) for j in range(1, rank + 1)]
    for alpha in list(rs.positive_roots) + [-r for r in rs.positive_roots]:
        d_alpha = _double_sum_half_norm(rs, alpha)
        want = [c * d_j / d_alpha for c, d_j in zip(alpha.coeffs, d)]
        assert [pair(rs, lam, alpha) for lam in weights] == want, alpha


# -- construction checks raise with their witness -------------------------------


def _tampered(lie_type, cartan, symmetrizers):
    """A bare RootSystem carrying the given Cartan data, for the construction checks."""
    rs = object.__new__(RootSystem)
    rs.lie_type = lie_type
    rs.cartan, rs.symmetrizers = cartan, symmetrizers
    return rs


def test_non_integer_cartan_entry_names_the_entry(monkeypatch):
    # with d = (3, 2) the entry a[2][1] = -max(3, 2) / 2 = -3/2
    monkeypatch.setattr(rootsys, "_diagram", lambda lt: ([(1, 2)], [3, 2]))
    with pytest.raises(AssertionError, match=r"^Cartan entry a\[2\]\[1\] = -3/2 of A2 is not an integer$"):
        RootSystem(LieType("A", 2))


def test_cartan_diagonal_must_be_two():
    rs = _tampered(LieType("A", 2), ((3, -1), (-1, 2)), (1, 1))
    with pytest.raises(AssertionError, match=r"^Cartan diagonal entry a\[1\]\[1\] = 3, not 2$"):
        rs._check_cartan()


def test_cartan_off_diagonal_entry_out_of_range():
    rs = _tampered(LieType("A", 2), ((2, -4), (-1, 2)), (1, 1))
    with pytest.raises(AssertionError, match=r"^Cartan entry a\[1\]\[2\] = -4 is not 0, -1, -2 or -3$"):
        rs._check_cartan()


def test_non_symmetrizable_cartan_names_the_pair():
    rs = _tampered(LieType("A", 2), ((2, -1), (-2, 2)), (1, 1))
    with pytest.raises(
        AssertionError,
        match=r"^Cartan matrix not symmetrizable at \(1, 2\): d_1 a\[1\]\[2\] = -1 but d_2 a\[2\]\[1\] = -2$",
    ):
        rs._check_cartan()


def test_non_symmetrizable_cartan_with_fractional_symmetrizers_names_the_pair():
    # the B2 matrix with rational symmetrizers swapped: the products are
    # compared directly, so the check is exact for any numbers
    rs = _tampered(LieType("B", 2), ((2, -1), (-2, 2)), (Fraction(1, 2), Fraction(1)))
    with pytest.raises(
        AssertionError,
        match=r"^Cartan matrix not symmetrizable at \(1, 2\): d_1 a\[1\]\[2\] = -1/2 but d_2 a\[2\]\[1\] = -2$",
    ):
        rs._check_cartan()
    _tampered(LieType("B", 2), ((2, -1), (-2, 2)), (Fraction(1), Fraction(1, 2)))._check_cartan()
    _tampered(LieType("B", 2), ((2, -1), (-2, 2)), (2, 1))._check_cartan()
    _tampered(LieType("G", 2), ((2, -3), (-1, 2)), (1, 3))._check_cartan()
    with pytest.raises(AssertionError, match=r"d_1 a\[1\]\[2\] = -1 but d_2 a\[2\]\[1\] = -4$"):
        _tampered(LieType("B", 2), ((2, -1), (-2, 2)), (1, 2))._check_cartan()


def test_involution_that_is_no_automorphism_names_the_entry():
    # node reversal, the A3 involution, is no symmetry of the B3 diagram
    b3 = build(LieType("B", 3))
    rs = _tampered(LieType("A", 3), b3.cartan, b3.symmetrizers)
    with pytest.raises(
        AssertionError,
        match=r"^\(3, 2, 1\) is not a diagram automorphism of A3: a\[3\]\[2\] = -2 but a\[1\]\[2\] = -1$",
    ):
        rs._build_involution()


def test_coroot_that_does_not_pair_to_two_names_the_root(monkeypatch):
    real = RootSystem._close_positive_roots

    def corrupted(self):
        roots = real(self)
        self._coroot[(1, 1, 0)] = (1, 2, 0)
        return roots

    monkeypatch.setattr(RootSystem, "_close_positive_roots", corrupted)
    with pytest.raises(
        AssertionError, match=r"^the root \(1,1,0\) of A3 pairs to 3, not 2, with its coroot \(1,2,0\)$"
    ):
        RootSystem(LieType("A", 3))


@pytest.mark.parametrize("cartan,k,minor", [(((0, -1), (-1, 2)), 1, 0), (((2, -2), (-2, 2)), 2, 0),
                                            (((2, -3), (-3, 2)), 2, -5)])
def test_non_positive_leading_minor_names_the_minor(cartan, k, minor):
    with pytest.raises(
        AssertionError,
        match=rf"^the leading {k}x{k} principal minor of the Cartan matrix "
              rf"{re.escape(str(cartan))} is {minor}, not positive$",
    ):
        rootsys._adjugate(cartan)


def test_inexact_elimination_step_names_the_division():
    # integer matrices always divide exactly; a non-integral entry need not
    cartan = ((2, Fraction(1, 2)), (0, 2))
    with pytest.raises(
        AssertionError,
        match=rf"^step 2 of the elimination on the Cartan matrix {re.escape(str(cartan))} "
              r"divides -1 by 2 inexactly$",
    ):
        rootsys._adjugate(cartan)


def test_second_root_of_top_height_is_rejected(monkeypatch):
    real = RootSystem._close_positive_roots
    monkeypatch.setattr(RootSystem, "_close_positive_roots", lambda self: real(self) + real(self)[-1:])
    with pytest.raises(
        AssertionError, match="^2 positive roots of A3 have the top height 3: the highest root must be unique$"
    ):
        RootSystem(LieType("A", 3))


def test_root_count_must_match_rank_times_coxeter_number(monkeypatch):
    real = RootSystem._close_positive_roots
    # drop (1,1,0): the top height, and so the Coxeter number, stays 4
    monkeypatch.setattr(
        RootSystem, "_close_positive_roots",
        lambda self: tuple(r for r in real(self) if r.coeffs != (1, 1, 0)),
    )
    with pytest.raises(
        AssertionError, match="^A3 has 5 positive roots, but rank 3 times Coxeter number 4 is 12$"
    ):
        RootSystem(LieType("A", 3))


def test_root_pairing_outside_the_key_bound_names_the_root(monkeypatch):
    # a root pairing of 4 would let an orbit weight minus the root reach
    # pairing -5 and beyond, where two weights could share a key
    real = RootSystem._close_positive_roots

    def tampered(self):
        roots = real(self)
        self.root_pairings[(0, 1, 0)] = (-1, 4, -1)
        return roots

    monkeypatch.setattr(RootSystem, "_close_positive_roots", tampered)
    with pytest.raises(AssertionError, match=r"^the root \(0,1,0\) of A3 has the pairings \(-1,4,-1\), "
                                             "outside -3..3: weight keys would not be exact$"):
        RootSystem(LieType("A", 3))


@pytest.mark.parametrize("fam,rank", ALL_TYPES)
def test_root_pairings_and_keys_stay_inside_the_key_bound(fam, rank):
    rs = build(LieType(fam, rank))
    assert max(abs(p) for pairings in rs.root_pairings.values() for p in pairings) <= 3
    assert rs.node_keys == tuple(w.key for w in rs.node_weights)
    assert rs.node_weights[0] == -rs.root_to_weight(rs.highest_root)


def test_weight_key_is_the_base_16_value_of_the_pairings_and_linear():
    mu, nu = Weight((1, -2, 3)), Weight((-1, 0, 7))
    assert mu.key == 1 - 2 * 16 + 3 * 16**2
    assert (mu - nu).key == mu.key - nu.key and (-mu).key == -mu.key and mu.scaled(3).key == 3 * mu.key
    # the key takes no part in equality, order, hashing or the text
    assert repr(mu) == "Weight(pairings=(1, -2, 3))" and str(mu) == "(1,-2,3)"
    assert Weight((1, -2, 3)) == mu and hash(Weight((1, -2, 3))) == hash(mu) and nu < mu


def test_non_dominant_highest_root_weight_is_rejected(monkeypatch):
    real = RootSystem.root_to_weight
    monkeypatch.setattr(RootSystem, "root_to_weight", lambda self, alpha: -real(self, alpha))
    with pytest.raises(
        AssertionError, match=r"^the highest root \(1,1,1\) of A3 has the non-dominant weight \(-1,0,-1\)$"
    ):
        RootSystem(LieType("A", 3))


def test_simple_root_and_fundamental_weight_reject_index_zero():
    # simple-root indices are checked where they are read: Orbit.neighbour,
    # apply_word and the generator views (tests of their modules)
    rs = build(LieType("A", 2))
    with pytest.raises(ValueError, match="^fundamental weight index 0 out of range$"):
        rs.fundamental_weight(0)


# A1-A8, B2-B8, C2-C8, D3-D8 and the exceptional types
AFFINE_TYPES = (
    [("A", n) for n in range(1, 9)]
    + [("B", n) for n in range(2, 9)]
    + [("C", n) for n in range(2, 9)]
    + [("D", n) for n in range(3, 9)]
    + [("E", 6), ("E", 7), ("E", 8), ("F", 4), ("G", 2)]
)


@pytest.mark.parametrize("fam,rank", AFFINE_TYPES)
def test_affine_node_closes_the_highest_root_relation(fam, rank):
    # alpha_0 = -theta and theta = sum_j theta_j alpha_j, so the keys, being
    # linear, satisfy key(alpha_0) + sum_j theta_j key(alpha_j) = 0
    rs = build(LieType(fam, rank))
    assert len(rs.node_keys) == rank + 1
    keys = rs.node_keys
    assert keys[0] + sum(t * k for t, k in zip(rs.highest_root.coeffs, keys[1:])) == 0
    assert keys[0] == rs.node_weights[0].key == -rs.root_to_weight(rs.highest_root).key


# a weight of another rank: the dot product with a coroot would truncate it
FOREIGN_RANK_WEIGHTS = {
    "pair-short": (lambda rs: pair(rs, Weight((1, 0)), RootVec((1, 0, 0))), "(1,0)", 2),
    "pair-long": (lambda rs: pair(rs, Weight((1, 0, 0, 5)), RootVec((1, 0, 0))), "(1,0,0,5)", 4),
    "node_pairings": (lambda rs: node_pairings(rs, Weight((1, 0))), "(1,0)", 2),
    "reflect": (lambda rs: reflect(rs, Weight((1, 0)), RootVec((1, 0, 0))), "(1,0)", 2),
}


@pytest.mark.parametrize("entry", FOREIGN_RANK_WEIGHTS)
def test_a_weight_of_another_rank_names_itself_and_the_rank(entry):
    call, text, size = FOREIGN_RANK_WEIGHTS[entry]
    with pytest.raises(ValueError, match=rf"^the weight {re.escape(text)} has {size} pairings, but A3 has rank 3$"):
        call(build(LieType("A", 3)))


@pytest.mark.parametrize("a,b", [((1, 0), (1, 0, 0)), ((1, 0, 0), (1, 0))], ids=["shorter-first", "longer-first"])
def test_weight_subtraction_names_both_weights_of_different_ranks(a, b):
    # map would truncate to the shorter weight: (1,0) - (1,0,0) was (0,0)
    text = f"cannot subtract {Weight(b)} from {Weight(a)}: their ranks differ"
    with pytest.raises(ValueError, match=f"^{re.escape(text)}$"):
        Weight(a) - Weight(b)


@pytest.mark.parametrize("coeffs", [(1, 0), (1, 0, 0, 0)], ids=str)
def test_root_to_weight_names_a_vector_of_another_rank(coeffs):
    text = rf"^the root vector {re.escape(str(RootVec(coeffs)))} has {len(coeffs)} coefficients, but A3 has rank 3$"
    with pytest.raises(ValueError, match=text):
        build(LieType("A", 3)).root_to_weight(RootVec(coeffs))


def test_a_root_system_made_directly_is_a_memo_key_of_its_own():
    # root systems compare by identity: one made directly is not build's,
    # so the orbit memo hands it an orbit of its own
    lt = LieType("A", 3)
    other = RootSystem(lt)
    assert other != build(lt)
    assert orbit(other, 1).rs is other
    assert orbit(build(lt), 1).rs is build(lt)
