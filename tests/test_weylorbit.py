import copy
import io
import json
import re
import pytest
from functools import partial
from math import comb

from helpers import (SWEEP, apply_word_to_weight, orbit_of, position_of, reference_orbit_elements, simple_root,
                     sweep_orbits)
from minflag.cli import SweepConfig, cmd_emit, sweep_cases
from minflag.rootsys import LieType, RootSystem, RootVec, Weight, build, node_pairings, pair
from minflag.weylorbit import (
    Orbit,
    OrbitElement,
    apply_word,
    crystal_edges,
    dual_positions,
    expected_orbit_size,
    length,
    lowering_maps,
    orbit,
    poincare_dual,
)
from minflag.qchev import chevalley_closed
from minflag.ttstar import distinguished_solution

# every minuscule orbit of the rank-10 sweep
RANK10_SWEEP = sweep_cases(SweepConfig(max_rank={"A": 10, "B": 9, "C": 9, "D": 10}))


@pytest.mark.parametrize("lt,i", RANK10_SWEEP, ids=[f"{lt}w{i}" for lt, i in RANK10_SWEEP])
def test_tuple_bfs_matches_the_weight_reference(lt, i):
    # weights, words, lengths and order
    rs = build(lt)
    assert list(orbit(rs, i).elements) == reference_orbit_elements(rs, i)


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
    a1, a2 = simple_root(rs, 1), simple_root(rs, 2)
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
        positions = dual_positions(orb)
        for el in orb.elements:
            dual = poincare_dual(orb, el.weight)
            assert poincare_dual(orb, dual) == el.weight
            assert length(orb, dual) + el.length == orb.dim_complex
            assert orb.elements[positions[position_of(orb, el.weight.pairings)]].weight == dual
        assert dual_positions(orb) is positions  # the latest orbit's tuple is kept


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


def test_apply_word_rejects_a_non_root():
    rs = build(LieType("A", 2))
    with pytest.raises(AssertionError, match=r"^word \(1,\) cannot act on \(2,0\), which is not a root of A2$"):
        apply_word(rs, (1,), RootVec((2, 0)))
    with pytest.raises(AssertionError, match=r"^word \(1, 2\) cannot act on \(2,0\), which is not a root of A2$"):
        apply_word(rs, (1, 2), RootVec((2, 0)))
    # the empty word reflects nothing, but its input is checked all the same
    with pytest.raises(AssertionError, match=r"^word \(\) cannot act on \(2,0\), which is not a root of A2$"):
        apply_word(rs, (), RootVec((2, 0)))


def test_apply_word_checks_is_root_once_before_its_loop(monkeypatch):
    # the input is checked once; the reflection table's values are
    # interned roots, so no step after it needs a check
    rs = build(LieType("A", 2))
    checked = []
    real = RootSystem.is_root
    monkeypatch.setattr(RootSystem, "is_root", lambda self, alpha: checked.append(alpha) or real(self, alpha))
    assert apply_word(rs, (1, 2, 1), simple_root(rs, 1)) == RootVec((0, -1))
    assert apply_word(rs, (2,), rs.highest_root) == RootVec((1, 0))
    assert checked == [simple_root(rs, 1), rs.highest_root]
    checked.clear()
    with pytest.raises(AssertionError, match=r"^word \(1, 2\) cannot act on \(2,0\)"):
        apply_word(rs, (1, 2), RootVec((2, 0)))
    assert checked == [RootVec((2, 0))]


@pytest.mark.parametrize("letter", [0, -1, 4])
def test_apply_word_rejects_a_letter_out_of_range(letter):
    # 0 and -1 would apply s_3 and s_2 from the end, 4 is past A3's rank
    rs = build(LieType("A", 3))
    with pytest.raises(ValueError, match=rf"^simple root index {letter} out of range$"):
        apply_word(rs, (1, letter), simple_root(rs, 3))


@pytest.mark.parametrize("letter", [True, 1.0], ids=["True", "1.0"])
def test_apply_word_rejects_a_letter_that_is_not_an_int(letter):
    # True applied s_1, and 1.0 raised TypeError on a tuple index
    rs = build(LieType("A", 3))
    with pytest.raises(ValueError, match=rf"^simple root index {letter} out of range$"):
        apply_word(rs, (letter,), simple_root(rs, 3))


def test_neighbour_steps_by_the_named_root():
    # node j = 0..l, alpha_0 = -theta: (mu, alpha_0^vee) = -(mu, theta^vee)
    for orb in sweep_orbits():
        rs = orb.rs
        for pos, el in enumerate(orb.elements):
            mu = el.weight
            for j, (alpha_w, m) in enumerate(zip(rs.node_weights, node_pairings(rs, mu))):
                if m == 1:
                    assert orb.elements[orb.neighbour(pos, "-", j)].weight == mu - alpha_w, (orb, mu, j)
                if m == -1:
                    assert orb.elements[orb.neighbour(pos, "+", j)].weight - alpha_w == mu, (orb, mu, j)


@pytest.mark.parametrize("root", [-1, 4, True, 1.0, "psi", "theta"])
def test_neighbour_rejects_a_simple_root_index_out_of_range(root):
    # -1 would index the last node from the end, 4 is past A3's rank, True
    # would pass as 1 and print as alpha_True, and 1.0, "psi" and "theta"
    # raised TypeError; node 0 is the affine root alpha_0
    orb = orbit_of("A", 3, 2)
    with pytest.raises(ValueError, match=rf"^simple root index {root} out of range$"):
        orb.neighbour(0, "-", root)


@pytest.mark.parametrize("pos", [-1, 6, True, 1.0])
def test_neighbour_rejects_a_position_outside_the_orbit(pos):
    # -1 would step from the last element, True from position 1, and 1.0 raised TypeError
    orb = orbit_of("A", 3, 2)
    with pytest.raises(ValueError, match=rf"^position {pos} out of range for Orbit\(A3, w2, size=6\)$"):
        orb.neighbour(pos, "-", 2)


@pytest.mark.parametrize("sign,root", [("x", 2), ("", 2), (None, 0)], ids=["x", "empty", "None"])
def test_neighbour_rejects_a_sign_other_than_minus_or_plus(sign, root):
    # any sign but "-" used to raise: from A3/w2's lowest weight (0,-1,0),
    # + alpha_2 and - alpha_0 are in the orbit, so these returned a position
    orb = orbit_of("A", 3, 2)
    assert orb.elements[-1].weight == Weight((0, -1, 0))
    message = "sign must be '-' or '+', not " + repr(sign)
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        orb.neighbour(orb.size - 1, sign, root)


@pytest.mark.parametrize("bad", [True, 1.0], ids=["True", "1.0"])
@pytest.mark.parametrize("entry", ["fundamental_weight", "orbit", "distinguished_solution"])
@pytest.mark.parametrize("first", ["int-first", "bad-first"])
def test_a_bool_or_float_weight_index_raises_and_leaves_the_orbit_memo_to_ints(first, entry, bad):
    # True == 1.0 == 1 with one hash: an untyped memo answered orbit(rs, True)
    # with the int's orbit, or kept an Orbit(A3, wTrue) for the next int call
    rs = build(LieType("A", 3))
    if first == "int-first":
        orbit(rs, 1)
    else:
        orbit.cache_clear()
    call = {"fundamental_weight": rs.fundamental_weight, "orbit": partial(orbit, rs),
            "distinguished_solution": partial(distinguished_solution, rs)}[entry]
    with pytest.raises(TypeError, match=f"^fundamental weight index must be an int, not {bad!r}$"):
        call(bad)
    assert type(orbit(rs, 1).weight_index) is int
    out = io.StringIO()
    assert cmd_emit("A", 3, 1, "orbit", "json", out) == 0
    assert type(json.loads(out.getvalue())["weight_index"]) is int


def test_crystal_edges_rejects_a_truncated_orbit():
    orb = orbit_of("A", 2, 1)
    truncated = Orbit(orb.rs, orb.weight_index, orb.elements[:-1])
    with pytest.raises(AssertionError, match=r"\(-1,1\) - alpha_2 = \(0,-1\) is not in the orbit"):
        crystal_edges(truncated)


def test_poincare_dual_rejects_a_truncated_orbit():
    orb = orbit_of("A", 2, 1)
    truncated = Orbit(orb.rs, orb.weight_index, orb.elements[:-1])
    with pytest.raises(AssertionError, match=r"the dual \(0,-1\) of \(1,0\) is not in the orbit"):
        poincare_dual(truncated, Weight((1, 0)))


def test_orbit_bfs_check_names_a_lowering_that_goes_back():
    # with alpha_1 tampered to the zero weight, lowering by it stays put
    rs = copy.copy(build(LieType("A", 2)))
    rs.node_weights = rs.node_weights[:1] + (Weight((0, 0)),) + rs.node_weights[2:]
    with pytest.raises(AssertionError, match=r"lowering \(1,0\) by alpha_1 gives \(1,0\), already met"):
        orbit.__wrapped__(rs, 1)


def test_expected_orbit_size_has_no_closed_form_off_the_minuscule_cases():
    with pytest.raises(ValueError, match=r"^no closed-form size for \(B3, 1\)$"):
        expected_orbit_size(LieType("B", 3), 1)


@pytest.mark.parametrize("lt", [LieType("A", 3), LieType("D", 4)], ids=str)
@pytest.mark.parametrize("i", [True])
def test_expected_orbit_size_rejects_a_bool_index(i, lt):
    # True == 1 passed 1 <= i <= n, so A3 answered 4 and D4 answered 8
    with pytest.raises(TypeError, match="^fundamental weight index must be an int, not True$"):
        expected_orbit_size(lt, i)


@pytest.mark.parametrize("pairings", [(5, -1), (0, -5)], ids=["5", "-5"])
def test_orbit_rejects_a_weight_whose_key_would_not_be_exact(pairings):
    # an orbit weight plus or minus a root (pairings up to 3) must stay
    # inside -7..7, where the key names one weight
    rs = build(LieType("A", 2))
    with pytest.raises(AssertionError, match=rf"^the orbit weight \({pairings[0]},{pairings[1]}\) has a pairing "
                                             r"outside -4..4: its key would not be exact$"):
        Orbit(rs, 1, [OrbitElement(Weight(pairings), (), 0)])


def test_orbit_rejects_two_elements_with_one_key():
    orb = orbit_of("A", 2, 1)
    with pytest.raises(AssertionError, match=r"^the orbit weight \(1,0\) at position 2 has the key of "
                                             r"\(1,0\) at position 0$"):
        Orbit(orb.rs, 1, orb.elements[:2] + orb.elements[:1])


def test_orbit_rejects_an_element_of_another_rank():
    rs = build(LieType("A", 3))
    with pytest.raises(ValueError, match=r"^the orbit weight \(1,0\) has 2 pairings, but A3 has rank 3$"):
        Orbit(rs, 1, orbit_of("A", 2, 1).elements)


# A3/w1 is (1,0,0), (-1,1,0), (0,-1,1), (0,0,-1); each list holds several
# offending elements, and the first one, checked for rank, then bounds,
# then its key, is named
_A3 = [el.weight.pairings for el in orbit_of("A", 3, 1).elements]
MIXED_FAULTS = {
    "bound-before-rank": ([_A3[0], (5, 0, -1), _A3[1], (1, 0)], AssertionError,
                          "the orbit weight (5,0,-1) has a pairing outside -4..4: its key would not be exact"),
    "rank-before-key": ([_A3[0], _A3[1], (1, 0), _A3[0]], ValueError,
                        "the orbit weight (1,0) has 2 pairings, but A3 has rank 3"),
    "key-before-bound": ([_A3[0], _A3[1], _A3[1], (0, 0, -6)], AssertionError,
                         "the orbit weight (-1,1,0) at position 2 has the key of (-1,1,0) at position 1"),
    "rank-at-the-end": ([*_A3, (0, 0, -1, 0)], ValueError,
                        "the orbit weight (0,0,-1,0) has 4 pairings, but A3 has rank 3"),
    "bound-at-the-end": ([*_A3, (-5, 0, 0)], AssertionError,
                         "the orbit weight (-5,0,0) has a pairing outside -4..4: its key would not be exact"),
}


@pytest.mark.parametrize("case", MIXED_FAULTS)
def test_orbit_names_its_first_offending_element(case):
    pairings, error, text = MIXED_FAULTS[case]
    with pytest.raises(error, match=f"^{re.escape(text)}$"):
        Orbit(build(LieType("A", 3)), 1, [OrbitElement(Weight(p), (), 0) for p in pairings])


KEYED_CASES = SWEEP + [(LieType("D", 11), 11), (LieType("B", 8), 8), (LieType("A", 9), 5)]


@pytest.mark.parametrize("lt,i", KEYED_CASES, ids=[f"{lt}w{i}" for lt, i in KEYED_CASES])
def test_every_bfs_key_is_the_horner_key_of_its_pairings(lt, i):
    # the BFS hands each Weight the key it stepped to; it must be the key
    # Weight computes from the pairings
    for el in orbit(build(lt), i).elements:
        assert el.weight.key == Weight(el.weight.pairings).key, el


@pytest.mark.parametrize("case", [("A", 2, 1), ("E", 6, 1), ("D", 5, 5)], ids=str)
def test_key_stepped_edges_into_a_missing_element_name_it(case, fresh_memos):
    # without an interior element, the first edge onto it misses in
    # Orbit.index_of, and Orbit.neighbour names the source, root and target
    orb = orbit_of(*case)
    gone = orb.size // 2
    lost = orb.elements[gone].weight
    holed = Orbit(orb.rs, orb.weight_index, orb.elements[:gone] + orb.elements[gone + 1:])
    mu, j = next((el.weight, j) for el in holed.elements for j, m in enumerate(node_pairings(orb.rs, el.weight))
                 if m == 1 and el.weight - orb.rs.node_weights[j] == lost)
    assert holed.lowered(holed.position(mu), j) is None
    text = f"^{re.escape(f'{mu} - alpha_{j} = {lost} is not in the orbit')}$"
    with pytest.raises(AssertionError, match=text):
        lowering_maps(holed)
    with pytest.raises(AssertionError, match=text):
        chevalley_closed(holed, mu)


def test_lowered_steps_down_as_neighbour_does():
    for orb in sweep_orbits():
        for pos, el in enumerate(orb.elements):
            for j, m in enumerate(node_pairings(orb.rs, el.weight)):
                if m == 1:
                    assert orb.lowered(pos, j) == orb.neighbour(pos, "-", j), (orb, el, j)


def test_orbit_rejects_an_empty_element_list():
    with pytest.raises(ValueError, match=r"^an orbit of \(A3, w1\) needs at least one element$"):
        Orbit(build(LieType("A", 3)), 1, [])


def test_orbit_keys_index_the_elements_and_steps_add_root_keys():
    for orb in sweep_orbits():
        assert orb.keys == tuple(el.weight.key for el in orb.elements), orb
        assert orb.index_of == {key: pos for pos, key in enumerate(orb.keys)}, orb
        assert [orb.position(el.weight) for el in orb.elements] == list(range(orb.size)), orb
        for lowered, j, target in crystal_edges(orb):
            assert lowered.key - orb.rs.node_keys[j] == target.key, (orb, lowered, j)


@pytest.mark.parametrize("i", [0, 4, -1, 7])
def test_expected_orbit_size_of_family_a_needs_an_index_from_1_to_n(i):
    with pytest.raises(ValueError, match=rf"^no closed-form size for \(A3, {i}\)$"):
        expected_orbit_size(LieType("A", 3), i)
