import pytest
from math import comb

from helpers import SWEEP, orbit_of, sweep_orbits
from minflag.cli import expected_orbit_size
from minflag.rootsys import LieType, RootVec, Weight, build, pair
from minflag.weylorbit import (
    Orbit,
    OrbitElement,
    apply_word,
    apply_word_to_weight,
    crystal_edges,
    length,
    orbit,
    poincare_dual,
)


def test_a1_orbit():
    orb = orbit_of("A", 1, 1)
    assert [el.weight for el in orb.elements] == [Weight((1,)), Weight((-1,))]
    assert [el.length for el in orb.elements] == [0, 1]


def test_a3_middle_orbit_has_six_elements():
    assert orbit_of("A", 3, 2).size == 6 == comb(4, 2)


def test_e7_orbit_has_56_elements():
    orb = orbit_of("E", 7, 1)
    assert orb.size == 56
    assert orb.dim_complex == 27


def test_orbit_sizes_match_closed_form():
    for lt, i in SWEEP:
        orb = orbit(build(lt), i)
        assert orb.size == expected_orbit_size(lt, i), (lt, i)


def test_orbit_rejects_non_minuscule():
    with pytest.raises(ValueError):
        orbit(build(LieType("A", 3)), 0)
    with pytest.raises(ValueError):
        orbit(build(LieType("B", 3)), 1)


def test_lengths_are_consistent_three_ways():
    # BFS depth, word length and the height-deficiency oracle must agree
    for orb in sweep_orbits():
        for el in orb.elements:
            assert el.length == len(el.word) == length(orb, el.weight)


def test_length_examples():
    assert length(orbit_of("A", 2, 1), Weight((1, 0))) == 0
    assert length(orbit_of("A", 2, 1), Weight((0, -1))) == 2
    orb = orbit_of("E", 6, 1)
    lowest = orb.elements[-1].weight
    assert length(orb, lowest) == 16 == orb.dim_complex


def test_length_rejects_foreign_weight():
    orb = orbit_of("A", 2, 1)
    with pytest.raises(ValueError):
        length(orb, Weight((2, 2)))


def test_length_rejects_orbit_with_reversed_elements():
    # with the lowest weight on top, lambda - mu is a negative root sum
    orb = orbit_of("A", 3, 2)
    flipped = Orbit(orb.rs, orb.weight_index, tuple(reversed(orb.elements)))
    with pytest.raises(AssertionError, match="nonnegative root sum"):
        length(flipped, orb.elements[0].weight)


def test_length_ignores_stored_words_and_lengths():
    orb = orbit_of("D", 4, 1)
    blank = Orbit(
        orb.rs, orb.weight_index, [OrbitElement(el.weight, (), 0) for el in orb.elements]
    )
    assert [length(blank, el.weight) for el in orb.elements] == [el.length for el in orb.elements]


def test_crystal_edges_a1():
    assert crystal_edges(orbit_of("A", 1, 1)) == [(Weight((1,)), 1, Weight((-1,)))]


def test_crystal_edges_a2_path():
    edges = crystal_edges(orbit_of("A", 2, 1))
    assert edges == [
        (Weight((1, 0)), 1, Weight((-1, 1))),
        (Weight((-1, 1)), 2, Weight((0, -1))),
    ]


def test_crystal_edges_a3_k2_counts():
    # six lowering edges; together with the two q-edges the operator
    # support has eight entries (checked in the minrep tests)
    orb = orbit_of("A", 3, 2)
    edges = crystal_edges(orb)
    assert len(edges) == 6
    brute = sum(
        1
        for el in orb.elements
        for j in range(1, 4)
        if el.weight.pairings[j - 1] == 1
    )
    assert brute == 6


def test_crystal_graph_graded_and_single_source_sink():
    for orb in sweep_orbits():
        edges = crystal_edges(orb)
        for a, _j, b in edges:
            assert length(orb, b) == length(orb, a) + 1
        sources = {el.weight for el in orb.elements} - {b for _a, _j, b in edges}
        sinks = {el.weight for el in orb.elements} - {a for a, _j, _b in edges}
        assert sources == {orb.elements[0].weight}
        assert sinks == {orb.elements[-1].weight}


def test_apply_word_examples():
    rs = build(LieType("A", 2))
    a1, a2 = rs.simple_root(1), rs.simple_root(2)
    assert apply_word(rs, (), a1) == a1
    assert apply_word(rs, (1,), a1) == -a1
    assert apply_word(rs, (1,), a2) == RootVec((1, 1))


def test_apply_word_matches_weight_action():
    for orb in sweep_orbits():
        rs = orb.rs
        for el in orb.elements[:: max(1, orb.size // 8)]:
            assert apply_word_to_weight(rs, el.word, orb.highest_weight) == el.weight


def test_poincare_dual_a1():
    orb = orbit_of("A", 1, 1)
    assert poincare_dual(orb, Weight((1,))) == Weight((-1,))
    assert poincare_dual(orb, Weight((-1,))) == Weight((1,))


def test_poincare_dual_a2_chain():
    orb = orbit_of("A", 2, 1)
    assert poincare_dual(orb, Weight((1, 0))) == Weight((0, -1))
    assert poincare_dual(orb, Weight((-1, 1))) == Weight((-1, 1))


def test_poincare_dual_involution_and_complementarity():
    for orb in sweep_orbits():
        for el in orb.elements:
            dual = poincare_dual(orb, el.weight)
            assert poincare_dual(orb, dual) == el.weight
            assert length(orb, dual) + el.length == orb.dim_complex


def test_pairings_with_simple_coroots_in_range():
    for orb in sweep_orbits():
        for el in orb.elements:
            assert all(p in (-1, 0, 1) for p in el.weight.pairings)


def test_pairings_with_all_positive_coroots_in_range():
    for orb in sweep_orbits():
        rs = orb.rs
        for el in orb.elements:
            for alpha in rs.positive_roots:
                assert pair(rs, el.weight, alpha) in (-1, 0, 1)


def test_canonical_order():
    for orb in sweep_orbits():
        keys = [(el.length, el.weight.pairings) for el in orb.elements]
        assert keys == sorted(keys)
        assert len({el.weight for el in orb.elements}) == orb.size


def test_word_choice_does_not_change_the_orbit():
    rs = build(LieType("A", 3))
    default = orbit(rs, 2)
    reversed_order = orbit(rs, 2, j_order=(3, 2, 1))
    assert [el.weight for el in default.elements] == [el.weight for el in reversed_order.elements]
    # words may differ, coset representatives may not
    for a, b in zip(default.elements, reversed_order.elements):
        assert apply_word_to_weight(rs, a.word, default.highest_weight) == apply_word_to_weight(
            rs, b.word, default.highest_weight
        )
