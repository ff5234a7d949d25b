import inspect
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from helpers import SWEEP, orbit_of, random_alcove_coords, reference_sigma_fixed, rs_of
import minflag.ttstar as ttstar
from minflag.minrep import quantum_operator
from minflag.qchev import quantum_product_matrix
from minflag.rootsys import build, diagram_involution, minuscule_weights
from minflag.cli import emit_payload
from minflag.ttstar import (
    alcove_to_asymptotic,
    asymptotic_to_alcove,
    distinguished_solution,
    dpw_exponents,
    dubrovin_form,
    in_alcove,
    in_asymptotic_set,
    minus_h0,
    psi_value,
)

TYPES = sorted({lt for lt, _i in SWEEP})


def test_minus_h0_sits_on_the_boundary():
    for lt in TYPES:
        rs = build(lt)
        m = minus_h0(rs)
        assert in_asymptotic_set(rs, m)
        # the affine value saturates nothing: alpha_0(-h0) = s - 1 > -1,
        # while every simple face is tight at -1
        assert -psi_value(rs, m) == rs.coxeter_number - 1


def test_zero_is_interior():
    for lt in TYPES:
        rs = build(lt)
        assert in_asymptotic_set(rs, [0] * rs.rank)


def test_single_face_violation():
    rs = rs_of("A", 3)
    bad = [-2, 0, 0]
    assert not in_asymptotic_set(rs, bad)
    with pytest.raises(ValueError):
        asymptotic_to_alcove(rs, bad)


def test_affine_face_violation():
    rs = rs_of("A", 2)
    # psi(m) = m_1 + m_2 > 1 breaks only the affine condition
    bad = [1, 1]
    assert all(v >= -1 for v in bad)
    assert not in_asymptotic_set(rs, bad)


def test_minus_h0_maps_to_the_origin():
    for lt in TYPES:
        rs = build(lt)
        x = asymptotic_to_alcove(rs, minus_h0(rs))
        assert all(c == 0 for c in x)


def test_zero_maps_to_the_barycentric_point():
    for lt in TYPES:
        rs = build(lt)
        s = rs.coxeter_number
        x = asymptotic_to_alcove(rs, [0] * rs.rank)
        assert all(c == Fraction(1, s) for c in x)
        assert psi_value(rs, x) == Fraction(s - 1, s)


def test_wall_maps_to_wall():
    rs = rs_of("A", 3)
    x = asymptotic_to_alcove(rs, [-1, 0, 2])
    assert x[0] == 0


def test_round_trip_on_seeded_random_points():
    rng = random.Random(20260808)
    for lt in TYPES:
        rs = build(lt)
        for _ in range(25):
            x = random_alcove_coords(rs, rng)
            assert in_alcove(rs, x)
            m = alcove_to_asymptotic(rs, x)
            assert asymptotic_to_alcove(rs, m) == x


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_round_trip_property(data):
    lt = data.draw(st.sampled_from(TYPES))
    rs = build(lt)
    seed = data.draw(st.integers(0, 10**6))
    x = random_alcove_coords(rs, random.Random(seed))
    m = alcove_to_asymptotic(rs, x)
    assert asymptotic_to_alcove(rs, m) == x
    assert alcove_to_asymptotic(rs, asymptotic_to_alcove(rs, m)) == m


def test_alcove_rejects_outside_points():
    rs = rs_of("A", 2)
    with pytest.raises(ValueError):
        alcove_to_asymptotic(rs, [-Fraction(1, 2), 0])
    with pytest.raises(ValueError):
        alcove_to_asymptotic(rs, [1, 1])  # psi value 2 > 1


def test_dpw_exponents_at_minus_h0():
    for lt in TYPES:
        rs = build(lt)
        k = dpw_exponents(rs, minus_h0(rs))
        assert k[0] == 0
        assert all(v == -1 for v in k[1:])


def test_dpw_exponents_at_zero():
    for lt in TYPES:
        rs = build(lt)
        s = rs.coxeter_number
        k = dpw_exponents(rs, [0] * rs.rank)
        assert all(v == Fraction(1, s) - 1 for v in k)


def test_dpw_exponents_admissible_on_random_data():
    rng = random.Random(8)
    for lt in TYPES:
        rs = build(lt)
        for _ in range(10):
            x = random_alcove_coords(rs, rng)
            m = alcove_to_asymptotic(rs, x)
            k = dpw_exponents(rs, m)
            assert all(v >= -1 for v in k)


def test_dpw_exponents_are_the_alcove_point_minus_one():
    # k_j + 1 = x_j on the nodes j = 0..l, x_0 = 1 - psi(x): the exponents
    # are read off asymptotic_to_alcove's point
    rng = random.Random(33)
    for lt in TYPES:
        rs = build(lt)
        for _ in range(10):
            m = alcove_to_asymptotic(rs, random_alcove_coords(rs, rng))
            x = asymptotic_to_alcove(rs, m)
            assert dpw_exponents(rs, m) == (-psi_value(rs, x),) + tuple(c - 1 for c in x), (lt, m)


def test_dpw_rejects_inadmissible_data():
    rs = rs_of("B", 2)
    with pytest.raises(ValueError):
        dpw_exponents(rs, [-3, 0])


def _assert_sigma_moved_matches_the_reference(rs, m):
    # None exactly for a fixed m; otherwise the first j whose value sigma moves
    moved = ttstar._sigma_moved(rs, m)
    if reference_sigma_fixed(rs, m):
        assert moved is None, (rs, m)
        return
    perm = diagram_involution(rs)
    j, k = moved
    assert k == perm[j - 1] and m[k - 1] != m[j - 1], (rs, m, moved)
    assert all(m[perm[i - 1] - 1] == m[i - 1] for i in range(1, j)), (rs, m, moved)


SIGMA_CASES = [
    (("A", 3), minus_h0(rs_of("A", 3)), None),
    (("A", 3), (0, -1, 1), (1, 3)),
    (("A", 3), (1, -1, 1), None),
    # trivial involution: every vector is fixed
    (("B", 4), (3, 1, -1, 7), None),
]


def test_sigma_fixed_cases():
    for family_rank, m, moved in SIGMA_CASES:
        rs = rs_of(*family_rank)
        assert ttstar._sigma_moved(rs, m) == moved
        _assert_sigma_moved_matches_the_reference(rs, m)


def test_sigma_moved_matches_the_reference_on_random_points():
    rng = random.Random(7)
    fixed = moved = 0
    for lt in TYPES:
        rs = build(lt)
        perm = diagram_involution(rs)
        for n in range(20):
            m = [Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(rs.rank)]
            if n % 2:
                # every other point is made sigma-fixed: each value copied from min(j, sigma(j))
                m = [m[min(j, perm[j] - 1)] for j in range(rs.rank)]
            _assert_sigma_moved_matches_the_reference(rs, m)
            if reference_sigma_fixed(rs, m):
                fixed += 1
            else:
                moved += 1
    assert fixed and moved


def test_sigma_fixed_commutes_with_the_alcove_map():
    rng = random.Random(99)
    for lt in TYPES:
        rs = build(lt)
        for _ in range(10):
            x = random_alcove_coords(rs, rng)
            m = alcove_to_asymptotic(rs, x)
            _assert_sigma_moved_matches_the_reference(rs, m)
            assert (ttstar._sigma_moved(rs, m) is None) == (ttstar._sigma_moved(rs, x) is None)


def test_distinguished_solution_a1():
    m, alcove, dpw = distinguished_solution(rs_of("A", 1), 1)
    assert m == (Fraction(-1),)
    assert dpw == (Fraction(0), Fraction(-1))
    assert alcove == (Fraction(0),)


def test_distinguished_solution_e7():
    _m, _alcove, dpw = distinguished_solution(rs_of("E", 7), 1)
    assert dpw == (Fraction(0),) + (Fraction(-1),) * 7


def test_distinguished_solution_shared_across_e6_weights():
    rs = rs_of("E", 6)
    # the entry depends on the root system alone: both weights read one memoized triple
    assert distinguished_solution(rs, 1) is distinguished_solution(rs, 6)


def test_distinguished_solution_rejects_non_minuscule():
    with pytest.raises(ValueError):
        distinguished_solution(rs_of("E", 7), 2)


def test_distinguished_solution_operator_is_the_divisor_product():
    # the entry holds no A(q): the ttstar document reads the orbit's one quantum_operator
    orb = orbit_of("D", 4, 1)
    matrix = emit_payload(orb, "ttstar")["matrix"]
    assert matrix is quantum_operator(orb)
    assert matrix == quantum_product_matrix(orb)


def test_dubrovin_form_descriptor():
    assert dubrovin_form() == {"connection_form": "(1/lambda) A(q) dq/q", "variable_change": "t = s z^(1/s), q = z"}


def test_distinguished_solution_holds_only_the_dictionary_entry():
    sol = distinguished_solution(rs_of("A", 2), 1)
    assert sol == ((-1, -1), (0, 0), (0, -1, -1))
    assert all(type(part) is tuple for part in sol)
    assert {type(v) for part in sol for v in part} == {Fraction}



# the public functions that take coordinates; minus_h0 and distinguished_solution
# take a root system (and a weight index) alone, and dubrovin_form takes nothing
COORDINATE_FUNCTIONS = {
    "psi_value": psi_value,
    "in_asymptotic_set": in_asymptotic_set,
    "in_alcove": in_alcove,
    "asymptotic_to_alcove": asymptotic_to_alcove,
    "alcove_to_asymptotic": alcove_to_asymptotic,
    "dpw_exponents": dpw_exponents,
}


def test_coordinate_functions_are_every_public_function_but_three():
    public = {
        name for name, f in vars(ttstar).items()
        if inspect.isfunction(f) and f.__module__ == ttstar.__name__ and not name.startswith("_")
    }
    assert public == set(COORDINATE_FUNCTIONS) | {"minus_h0", "distinguished_solution", "dubrovin_form"}


@pytest.mark.parametrize("name", sorted(COORDINATE_FUNCTIONS))
@pytest.mark.parametrize("bad", [0.5, 0.0, True, "1"], ids=["0.5", "0.0", "True", "str"])
def test_coordinates_must_be_exact(name, bad):
    # Fraction would take a float, a bool or a numeric string silently, so
    # 0.1 would become 3602879701896397/36028797018963968 and 0.5 a float point
    rs = rs_of("A", 2)
    with pytest.raises(TypeError, match=f"coordinates must be int or Fraction, not {type(bad).__name__}$"):
        COORDINATE_FUNCTIONS[name](rs, [Fraction(0), bad])


@pytest.mark.parametrize("name", sorted(COORDINATE_FUNCTIONS))
def test_a_wrong_length_is_a_wrong_rank(name):
    with pytest.raises(ValueError, match="has the wrong rank"):
        COORDINATE_FUNCTIONS[name](rs_of("A", 2), [0, 0, 0])


def test_exact_input_gives_exact_tuples():
    rs = rs_of("A", 2)
    x = asymptotic_to_alcove(rs, (Fraction(1, 2), Fraction(1, 10)))
    assert x == (Fraction(1, 2), Fraction(11, 30))
    assert type(x) is tuple and {type(c) for c in x} == {Fraction}
    # int input comes back as Fraction too, also where the value is whole
    for out in (alcove_to_asymptotic(rs, (0, 0)), dpw_exponents(rs, [0, 0]), minus_h0(rs)):
        assert type(out) is tuple and {type(v) for v in out} == {Fraction}
    assert type(psi_value(rs, [1, 1])) is Fraction


# -- the internal checks raise with their witness (they must survive python -O) --


def test_asymptotic_to_alcove_check_names_the_point(monkeypatch, fresh_memos):
    rs = rs_of("A", 2)
    monkeypatch.setattr(ttstar, "in_alcove", lambda rs, x: False)
    with pytest.raises(AssertionError, match=r"admissible \(0, 1\) maps to \(1/3, 2/3\), outside the alcove"):
        asymptotic_to_alcove(rs, [0, 1])


def test_alcove_to_asymptotic_check_names_the_data(monkeypatch, fresh_memos):
    rs = rs_of("A", 2)
    monkeypatch.setattr(ttstar, "in_asymptotic_set", lambda rs, m: False)
    with pytest.raises(AssertionError, match=r"alcove point \(0, 1/3\) maps to inadmissible \(-1, 0\)"):
        alcove_to_asymptotic(rs, [0, Fraction(1, 3)])


def test_dpw_exponents_check_names_the_exponent(monkeypatch, fresh_memos):
    # k_1 = x_1 - 1 = -2 < -1: the exponents' bound is the alcove check, which names x_1 = -1
    rs = rs_of("A", 3)
    monkeypatch.setattr(ttstar, "in_asymptotic_set", lambda rs, m: True)
    with pytest.raises(AssertionError, match=r"admissible \(-5, 0, 0\) maps to \(-1, 1/4, 1/4\), outside the alcove"):
        dpw_exponents(rs, [-5, 0, 0])


def test_distinguished_solution_check_names_the_moved_value(monkeypatch, fresh_memos):
    rs = rs_of("A", 3)
    monkeypatch.setattr(ttstar, "minus_h0", lambda rs: (-1, 0, 0))
    with pytest.raises(AssertionError, match=r"alpha_1\(m\) = -1 moves onto alpha_3\(m\) = 0"):
        distinguished_solution(rs, 1)


def test_toda_data_is_computed_once_per_root_system(fresh_memos):
    # D5 has three minuscule weights and D6 three more: two root systems, two computations
    for rank in (5, 6):
        rs = rs_of("D", rank)
        for i in minuscule_weights(rs):
            assert distinguished_solution(rs, i) == (minus_h0(rs), (0,) * rank, dpw_exponents(rs, minus_h0(rs)))
    info = ttstar._toda_data.cache_info()
    assert (info.misses, info.hits, info.currsize) == (2, 4, 2)
