import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from helpers import SWEEP, orbit_of, random_alcove_coords, rs_of
import minflag.ttstar as ttstar
from minflag.minrep import quantum_operator
from minflag.qchev import quantum_product_matrix
from minflag.rootsys import build, minuscule_weights
from minflag.ttstar import (
    alcove_point,
    alcove_to_asymptotic,
    asymptotic_data,
    asymptotic_to_alcove,
    distinguished_solution,
    dpw_exponents,
    dubrovin_form,
    in_alcove,
    in_asymptotic_set,
    minus_h0,
    psi_value,
    sigma_fixed,
)

TYPES = sorted({lt for lt, _i in SWEEP})


def test_minus_h0_sits_on_the_boundary():
    for lt in TYPES:
        rs = build(lt)
        m = minus_h0(rs)
        assert in_asymptotic_set(rs, m)
        # the affine value saturates nothing: alpha_0(-h0) = s - 1 > -1,
        # while every simple face is tight at -1
        assert -psi_value(rs, m.values) == rs.coxeter_number - 1


def test_zero_is_interior():
    for lt in TYPES:
        rs = build(lt)
        assert in_asymptotic_set(rs, asymptotic_data([0] * rs.rank))


def test_single_face_violation():
    rs = rs_of("A", 3)
    bad = asymptotic_data([-2, 0, 0])
    assert not in_asymptotic_set(rs, bad)
    with pytest.raises(ValueError):
        asymptotic_to_alcove(rs, bad)


def test_affine_face_violation():
    rs = rs_of("A", 2)
    # psi(m) = m_1 + m_2 > 1 breaks only the affine condition
    bad = asymptotic_data([1, 1])
    assert all(v >= -1 for v in bad.values)
    assert not in_asymptotic_set(rs, bad)


def test_minus_h0_maps_to_the_origin():
    for lt in TYPES:
        rs = build(lt)
        x = asymptotic_to_alcove(rs, minus_h0(rs))
        assert all(c == 0 for c in x.coords)


def test_zero_maps_to_the_barycentric_point():
    for lt in TYPES:
        rs = build(lt)
        s = rs.coxeter_number
        x = asymptotic_to_alcove(rs, asymptotic_data([0] * rs.rank))
        assert all(c == Fraction(1, s) for c in x.coords)
        assert psi_value(rs, x.coords) == Fraction(s - 1, s)


def test_wall_maps_to_wall():
    rs = rs_of("A", 3)
    m = asymptotic_data([-1, 0, 2])
    x = asymptotic_to_alcove(rs, m)
    assert x.coords[0] == 0


def test_round_trip_on_seeded_random_points():
    rng = random.Random(20260808)
    for lt in TYPES:
        rs = build(lt)
        for _ in range(25):
            x = alcove_point(random_alcove_coords(rs, rng))
            assert in_alcove(rs, x)
            m = alcove_to_asymptotic(rs, x)
            assert asymptotic_to_alcove(rs, m) == x


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_round_trip_property(data):
    lt = data.draw(st.sampled_from(TYPES))
    rs = build(lt)
    seed = data.draw(st.integers(0, 10**6))
    x = alcove_point(random_alcove_coords(rs, random.Random(seed)))
    m = alcove_to_asymptotic(rs, x)
    assert asymptotic_to_alcove(rs, m) == x
    assert alcove_to_asymptotic(rs, asymptotic_to_alcove(rs, m)) == m


def test_alcove_rejects_outside_points():
    rs = rs_of("A", 2)
    with pytest.raises(ValueError):
        alcove_to_asymptotic(rs, alcove_point([-Fraction(1, 2), 0]))
    with pytest.raises(ValueError):
        alcove_to_asymptotic(rs, alcove_point([1, 1]))  # psi value 2 > 1


def test_dpw_exponents_at_minus_h0():
    for lt in TYPES:
        rs = build(lt)
        k = dpw_exponents(rs, minus_h0(rs))
        assert k.k[0] == 0
        assert all(v == -1 for v in k.k[1:])


def test_dpw_exponents_at_zero():
    for lt in TYPES:
        rs = build(lt)
        s = rs.coxeter_number
        k = dpw_exponents(rs, asymptotic_data([0] * rs.rank))
        assert all(v == Fraction(1, s) - 1 for v in k.k)


def test_dpw_exponents_admissible_on_random_data():
    rng = random.Random(8)
    for lt in TYPES:
        rs = build(lt)
        for _ in range(10):
            x = alcove_point(random_alcove_coords(rs, rng))
            m = alcove_to_asymptotic(rs, x)
            k = dpw_exponents(rs, m)
            assert all(v >= -1 for v in k.k)


def test_dpw_rejects_inadmissible_data():
    rs = rs_of("B", 2)
    with pytest.raises(ValueError):
        dpw_exponents(rs, asymptotic_data([-3, 0]))


def test_sigma_fixed_cases():
    assert sigma_fixed(rs_of("A", 3), minus_h0(rs_of("A", 3)))
    assert not sigma_fixed(rs_of("A", 3), asymptotic_data([0, -1, 1]))
    assert sigma_fixed(rs_of("A", 3), asymptotic_data([1, -1, 1]))
    # trivial involution: every vector is fixed
    rs = rs_of("B", 4)
    assert sigma_fixed(rs, asymptotic_data([3, 1, -1, 7]))


def test_sigma_fixed_commutes_with_the_alcove_map():
    rng = random.Random(99)
    for lt in TYPES:
        rs = build(lt)
        for _ in range(10):
            x = alcove_point(random_alcove_coords(rs, rng))
            m = alcove_to_asymptotic(rs, x)
            fixed_m = sigma_fixed(rs, m)
            fixed_x = sigma_fixed(rs, asymptotic_data(x.coords))
            assert fixed_m == fixed_x


def test_distinguished_solution_a1():
    sol = distinguished_solution(rs_of("A", 1), 1)
    assert sol.m.values == (Fraction(-1),)
    assert sol.dpw.k == (Fraction(0), Fraction(-1))
    assert sol.operator.entry(1, 0) == 1
    assert sol.alcove.coords == (Fraction(0),)


def test_distinguished_solution_e7():
    sol = distinguished_solution(rs_of("E", 7), 1)
    assert sol.operator.n == 56
    assert sol.dpw.k == (Fraction(0),) + (Fraction(-1),) * 7


def test_distinguished_solution_shared_across_e6_weights():
    rs = rs_of("E", 6)
    s1 = distinguished_solution(rs, 1)
    s6 = distinguished_solution(rs, 6)
    assert s1.m == s6.m
    assert s1.alcove == s6.alcove
    assert s1.dpw == s6.dpw
    assert s1.operator.n == s6.operator.n == 27


def test_distinguished_solution_rejects_non_minuscule():
    with pytest.raises(ValueError):
        distinguished_solution(rs_of("E", 7), 2)


def test_distinguished_solution_operator_is_the_divisor_product():
    sol = distinguished_solution(rs_of("D", 4), 1)
    assert sol.operator == quantum_operator(orbit_of("D", 4, 1)) == quantum_product_matrix(orbit_of("D", 4, 1))


def test_dubrovin_form_descriptor():
    form = dubrovin_form(orbit_of("A", 1, 1))
    assert form == {"connection_form": "(1/lambda) A(q) dq/q", "variable_change": "t = s z^(1/s), q = z"}
    assert dubrovin_form(orbit_of("D", 4, 1)) == form


def test_distinguished_solution_holds_only_the_dictionary_entry():
    sol = distinguished_solution(rs_of("A", 2), 1)
    assert list(vars(sol)) == ["m", "alcove", "dpw", "operator"]


# -- the internal checks raise with their witness (they must survive python -O) --


def test_asymptotic_to_alcove_check_names_the_point(monkeypatch, fresh_memos):
    rs = rs_of("A", 2)
    monkeypatch.setattr(ttstar, "in_alcove", lambda rs, x: False)
    with pytest.raises(AssertionError, match=r"admissible \(0, 1\) maps to \(1/3, 2/3\), outside the alcove"):
        asymptotic_to_alcove(rs, asymptotic_data([0, 1]))


def test_alcove_to_asymptotic_check_names_the_data(monkeypatch, fresh_memos):
    rs = rs_of("A", 2)
    monkeypatch.setattr(ttstar, "in_asymptotic_set", lambda rs, m: False)
    with pytest.raises(AssertionError, match=r"alcove point \(0, 1/3\) maps to inadmissible \(-1, 0\)"):
        alcove_to_asymptotic(rs, alcove_point([0, Fraction(1, 3)]))


def test_dpw_exponents_check_names_the_exponent(monkeypatch, fresh_memos):
    rs = rs_of("A", 3)
    monkeypatch.setattr(ttstar, "in_asymptotic_set", lambda rs, m: True)
    with pytest.raises(AssertionError, match=r"exponent k_1 = -2 < -1 for \(-5, 0, 0\)"):
        dpw_exponents(rs, asymptotic_data([-5, 0, 0]))


def test_distinguished_solution_check_names_the_moved_value(monkeypatch, fresh_memos):
    rs = rs_of("A", 3)
    monkeypatch.setattr(ttstar, "minus_h0", lambda rs: asymptotic_data([-1, 0, 0]))
    with pytest.raises(AssertionError, match=r"alpha_1\(m\) = -1 moves onto alpha_3\(m\) = 0"):
        distinguished_solution(rs, 1)


def test_toda_data_is_computed_once_per_root_system(fresh_memos):
    # D5 has three minuscule weights and D6 three more: two root systems, two computations
    for rank in (5, 6):
        rs = rs_of("D", rank)
        for i in minuscule_weights(rs):
            sol = distinguished_solution(rs, i)
            assert (sol.m, sol.alcove, sol.dpw) == (minus_h0(rs), alcove_point([0] * rank), dpw_exponents(rs, minus_h0(rs)))
    info = ttstar._toda_data.cache_info()
    assert (info.misses, info.hits, info.currsize) == (2, 4, 2)
