import hashlib
import io
import json
import os
import re
import subprocess
import sys
from collections import Counter
from fractions import Fraction
from functools import lru_cache

import pytest
from hypothesis import given, settings, strategies as st

from minflag import cli, minrep, qchev, satake, ttstar, weylorbit
from minflag.cli import (
    ConfigError,
    SweepConfig,
    cmd_emit,
    delete_detectable_edge,
    cmd_satake,
    cmd_verify,
    emit_payload,
    json_text,
    main,
    sweep_cases,
)
from minflag.minrep import PolyMatrix
from minflag.rootsys import LieType, Weight, build
from minflag.weylorbit import Orbit, expected_orbit_size, orbit
from helpers import SWEEP, clear_memos, simple_root


SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")

SMALL = SweepConfig(max_rank={"A": 2, "B": 2, "C": 2, "D": 3}, include_exceptional=False)


def _emit(*args, **kwargs) -> str:
    buf = io.StringIO()
    rc = cmd_emit(*args, **kwargs, out=buf)
    assert rc == 0
    return buf.getvalue()


def test_sweep_case_list_default():
    cases = sweep_cases(SweepConfig())
    assert (LieType("A", 1), 1) in cases
    assert (LieType("E", 7), 1) in cases
    assert (LieType("E", 6), 6) in cases
    assert len(cases) == 44
    for lt, i in cases:
        assert expected_orbit_size(lt, i) >= 2


def test_verify_small_sweep_passes():
    buf = io.StringIO()
    rc = cmd_verify(SMALL, out=buf)
    assert rc == 0
    assert "0 failures" in buf.getvalue()


def test_verify_default_sweep_passes():
    buf = io.StringIO()
    rc = cmd_verify(SweepConfig(), out=buf)
    assert rc == 0
    out = buf.getvalue()
    assert "44 cases" in out and "0 failures" in out


def test_verify_self_test_corrupt_exits_one():
    buf = io.StringIO()
    rc = cmd_verify(SMALL, corrupt=True, out=buf)
    assert rc == 1
    assert "FAIL" in buf.getvalue()


def test_verify_corrupt_main_theorem_row_names_the_witness():
    buf = io.StringIO()
    cmd_verify(SMALL, corrupt=True, out=buf)
    rows = [l for l in buf.getvalue().splitlines() if l.split()[1:3] == ["main-theorem", "FAIL"]]
    assert rows
    for row in rows:
        assert "operator vs closed-form product at (" in row and " != " in row


def test_verify_runs_the_oracle_once_per_class(monkeypatch):
    calls = []
    real = qchev.chevalley_fw_oracle

    def counting(orb, mu):
        calls.append((orb.rs.lie_type, orb.weight_index, mu))
        return real(orb, mu)

    monkeypatch.setattr(qchev, "chevalley_fw_oracle", counting)
    assert cmd_verify(SMALL, out=io.StringIO()) == 0
    classes = [
        (lt, i, el.weight) for lt, i in sweep_cases(SMALL) for el in orbit(build(lt), i).elements
    ]
    assert calls == classes


@pytest.mark.parametrize("corrupt", [False, True], ids=["default", "corrupt"])
def test_verify_runs_each_route_once_per_class(monkeypatch, fresh_memos, corrupt):
    # no memo keeps a route's matrix: the main-theorem row runs the closed
    # route and the oracle pass the oracle once per class of every case
    calls = {"chevalley_closed": [], "chevalley_fw_oracle": []}
    for name, seen in calls.items():
        real = getattr(qchev, name)
        monkeypatch.setattr(qchev, name, lambda orb, mu, real=real, seen=seen: (
            seen.append((orb.rs.lie_type, orb.weight_index, mu)) or real(orb, mu)))
    assert cmd_verify(SweepConfig(), corrupt=corrupt, out=io.StringIO()) == int(corrupt)
    classes = [(lt, i, el.weight) for lt, i in SWEEP for el in orbit(build(lt), i).elements]
    assert len(classes) == 594
    assert calls == {name: classes for name in calls}


def _first_entry_dropped(m: dict) -> dict:
    return {c: x for c, x in m.items() if c != min(m)}


@pytest.mark.parametrize("builder,change", [
    ("_raising_maps", _first_entry_dropped),
], ids=["E+(1)-dropped"])
def test_verify_generator_map_mutation_fails_only_its_row(monkeypatch, builder, change):
    # E+(1) does not enter A(q), so the rep-relations row is the only one to fail
    real = getattr(minrep, builder)
    monkeypatch.setattr(minrep, builder, lambda orb: [change(m) if j == 0 else m for j, m in enumerate(real(orb))])
    buf = io.StringIO()
    assert cmd_verify(SMALL, out=buf) == 1
    failed = [l for l in buf.getvalue().splitlines() if " FAIL " in l]
    assert len(failed) == len(sweep_cases(SMALL))
    for row in failed:
        assert row.split()[1] == "rep-relations" and "[E+(1), E-(1)] != H(1) at (" in row


def test_verify_stored_zero_generator_entry_fails_its_row_without_a_traceback(monkeypatch, fresh_memos):
    # E-(2) of A3/w2 with its first entry's coefficient stored as 0: the
    # rep-relations row names the entry, and cmd_verify raises nothing
    real = weylorbit.lowering_maps

    def patched(orb):
        maps = real(orb)
        if (orb.rs.lie_type, orb.weight_index) == (LieType("A", 3), 2):
            m = dict(maps[2])
            first = next(iter(m))
            m[first] = (m[first][0], 0)
            maps = maps[:2] + [m] + maps[3:]
        return maps

    monkeypatch.setattr(weylorbit, "lowering_maps", patched)
    buf = io.StringIO()
    assert cmd_verify(SweepConfig(max_rank={"A": 3, "B": 2, "C": 2, "D": 3}, include_exceptional=False), out=buf) == 1
    rows = [l.split(None, 3) for l in buf.getvalue().splitlines() if l.startswith("A3/w2 ")]
    assert ["A3/w2", "rep-relations", "FAIL", "[E+(2), E-(2)] != H(2) at ((0,1,0), (0,1,0)): 0 != 1"] in rows


def test_verify_calls_no_public_generator_builder(monkeypatch):
    calls = []
    for name in ("lowering_matrix", "psi_raising_matrix"):
        monkeypatch.setattr(minrep, name, lambda *args, name=name: calls.append(name))
    assert cmd_verify(SweepConfig(), out=io.StringIO()) == 0
    assert calls == []


def test_verify_reads_one_length_per_element(monkeypatch, fresh_memos):
    # the oracle, grading and trichotomy rows share one length list per orbit
    calls = []
    real = qchev.length
    monkeypatch.setattr(qchev, "length", lambda orb, mu: calls.append((orb, mu)) or real(orb, mu))
    assert cmd_verify(SweepConfig(), out=io.StringIO()) == 0
    orbits = {orb for orb, _mu in calls}
    read = {(id(orb), mu.pairings) for orb, mu in calls}
    assert len(orbits) == len(SWEEP)
    assert len(calls) == len(read) == 594
    assert read == {(id(orb), el.weight.pairings) for orb in orbits for el in orb.elements}


def test_verify_oracle_failure_fails_both_oracle_rows(monkeypatch):
    def broken(orb, mu):
        raise AssertionError("surviving classical root must be simple")

    monkeypatch.setattr(qchev, "chevalley_fw_oracle", broken)
    buf = io.StringIO()
    assert cmd_verify(SMALL, out=buf) == 1
    failed = {l.split()[1] for l in buf.getvalue().splitlines() if " FAIL " in l}
    assert failed == {"main-theorem", "oracle-survivors"}
    assert "oracle route failed: AssertionError: surviving classical root must be simple" in buf.getvalue()


def test_verify_oracle_on_a_truncated_orbit_names_the_foreign_target(monkeypatch):
    # the oracle alone sees each orbit without its length-1 class, so the
    # top class lambda_i's surviving target lambda_i - alpha_i is foreign;
    # the stored dimension is kept except on A1, whose truncation leaves
    # only the top class
    real = qchev.chevalley_fw_oracle
    truncated = {}

    def on_truncated(orb, mu):
        if orb not in truncated:
            truncated[orb] = Orbit(orb.rs, orb.weight_index, orb.elements[:1] + orb.elements[2:])
        return real(truncated[orb], mu)

    monkeypatch.setattr(qchev, "chevalley_fw_oracle", on_truncated)
    buf = io.StringIO()
    assert cmd_verify(SMALL, out=buf) == 1  # a row verdict, not a traceback
    rows = [line.split(None, 3) for line in buf.getvalue().splitlines()[:-1]]
    assert {row[1] for row in rows if row[2] == "FAIL"} == {"main-theorem", "oracle-survivors"}
    for lt, i in sweep_cases(SMALL):
        orb = orbit(build(lt), i)
        if orb.size == 2:
            want = "oracle route failed: AssertionError: 1 complement roots for orbit dimension 0"
        else:
            top, alpha = orb.elements[0].weight, simple_root(orb.rs, i)
            want = f"oracle route failed: ValueError: {top} - {alpha} = {orb.elements[1].weight} is not in the orbit"
        failed = [row for row in rows if row[0] == f"{lt}/w{i}" and row[2] == "FAIL"]
        assert [(row[1], row[3]) for row in failed] == [("main-theorem", want), ("oracle-survivors", want)]


_SMALL_ARGS = ["--max-rank-A", "2", "--max-rank-B", "2", "--max-rank-C", "2", "--max-rank-D", "3",
               "--skip-exceptional"]


def _run_optimized(*args: str, flag: str = "-O") -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=SRC + os.pathsep + os.environ.get("PYTHONPATH", ""))
    return subprocess.run([sys.executable, flag, *args], capture_output=True, text=True, env=env, timeout=120)


def test_checks_survive_python_optimize_flag():
    code = (
        "from minflag.rootsys import LieType, build\n"
        "from minflag.weylorbit import Orbit, length, orbit\n"
        "assert False, 'asserts must be stripped under -O'\n"
        "orb = orbit(build(LieType('A', 3)), 2)\n"
        "flipped = Orbit(orb.rs, 2, tuple(reversed(orb.elements)))\n"
        "try:\n"
        "    length(flipped, orb.elements[0].weight)\n"
        "except AssertionError:\n"
        "    print('length check raised')\n"
        "from minflag.minrep import psi_raising_matrix\n"
        "try:\n"
        "    psi_raising_matrix(Orbit(orb.rs, 2, orb.elements[1:]))\n"
        "except AssertionError:\n"
        "    print('psi check raised')\n"
        "from minflag.minrep import quantum_operator\n"
        "from minflag.qchev import quantum_product_matrix\n"
        "for build in (quantum_operator, quantum_product_matrix):\n"
        "    try:\n"
        "        build(Orbit(orb.rs, 2, orb.elements[:-1]))\n"
        "    except AssertionError:\n"
        "        print('missing target raised')\n"
        "import minflag.ttstar as t\n"
        "t.in_asymptotic_set = lambda rs, m: True\n"
        "try:\n"
        "    t.dpw_exponents(orb.rs, [-5, 0, 0])\n"
        "except AssertionError:\n"
        "    print('dpw check raised')\n"
        "import minflag.satake as s\n"
        "s.comb = lambda a, b: 3\n"
        "try:\n"
        "    s.half_wedge_dims(4)\n"
        "except AssertionError:\n"
        "    print('half-wedge check raised')\n"
        "from math import comb\n"
        "s.comb = comb\n"
        "from minflag.minrep import PolyMatrix\n"
        "gr, wedge = s._aligned_wedge(3, 2)\n"
        "aligned = PolyMatrix(gr.size, wedge)\n"
        "# the aligned wedge conjugated by a sign on basis vector 5\n"
        "flipped = PolyMatrix(6, {(i, j): {e: -v if (i == 5) != (j == 5) else v for e, v in c.items()}\n"
        "                         for (i, j), c in wedge.items()})\n"
        "s._propagate_signs = lambda n, ratio: (-1,) + (1,) * (n - 1)\n"
        "try:\n"
        "    s.sign_similarity(aligned, flipped)\n"
        "except AssertionError as exc:\n"
        "    print(f'satake sign check raised: {exc}')\n"
        "import minflag.rootsys as r\n"
        "r._diagram = lambda lt: ([(1, 2)], [3, 2])\n"
        "try:\n"
        "    r.RootSystem(LieType('A', 2))\n"
        "except AssertionError:\n"
        "    print('cartan check raised')\n"
        "try:\n"
        "    r._adjugate(((2, -2), (-2, 2)))\n"
        "except AssertionError:\n"
        "    print('pivot check raised')\n"
    )
    proc = _run_optimized("-c", code)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == [
        "length check raised", "psi check raised", "missing target raised", "missing target raised",
        "dpw check raised", "half-wedge check raised",
        "satake sign check raised: d[0] d[4] = -1, but entry (0, 4) has sign ratio 1", "cartan check raised",
        "pivot check raised",
    ]

    proc = _run_optimized("-m", "minflag.cli", "verify", "--self-test-corrupt", *_SMALL_ARGS)
    assert proc.returncode == 1, proc.stderr
    assert "FAIL" in proc.stdout and "Traceback" not in proc.stderr


def test_verify_config_file(tmp_path):
    cfg = tmp_path / "sweep.cfg"
    cfg.write_text("max-rank-A=3\nmax-rank-B=2\nmax-rank-C=2\nmax-rank-D=3\ninclude-exceptional=false\n")
    rc = main(["verify", "--config", str(cfg)])
    assert rc == 0


def test_verify_bad_config_key(tmp_path, capsys):
    cfg = tmp_path / "sweep.cfg"
    cfg.write_text("max-rank-Z=3\n")
    assert main(["verify", "--config", str(cfg)]) == 2
    assert capsys.readouterr().err == "config error: unknown sweep family 'Z'\n"


@pytest.mark.parametrize("line,message", [
    ("max-rank-A 3", "bad config line 'max-rank-A 3'"),
    ("include-exceptional=maybe", "include-exceptional must be true or false, got 'maybe'"),
    ("colour=red", "unknown config key 'colour'"),
], ids=["no-equals", "bad-bool", "unknown-key"])
def test_verify_config_input_errors(tmp_path, capsys, line, message):
    cfg = tmp_path / "sweep.cfg"
    cfg.write_text(line + "\n")
    assert main(["verify", "--config", str(cfg)]) == 2
    assert capsys.readouterr().err == f"config error: {message}\n"


def test_verify_missing_config_file_is_config_error(tmp_path, capsys):
    assert main(["verify", "--config", str(tmp_path / "missing.cfg")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and "missing.cfg" in err


def test_verify_rank_below_minimum_is_config_error():
    assert main(["verify", "--max-rank-D", "2"]) == 2


def test_sweep_config_without_a_family_is_config_error():
    config = SweepConfig(max_rank={"A": 3})
    with pytest.raises(ConfigError, match="max rank for B is missing"):
        sweep_cases(config)
    buf = io.StringIO()
    with pytest.raises(ConfigError, match="max rank for B is missing"):
        cmd_verify(config, out=buf)
    assert buf.getvalue() == ""


@pytest.mark.parametrize("flag", ["false", 0, 1, None], ids=["str", "zero", "one", "None"])
def test_sweep_config_with_a_non_bool_include_exceptional_is_config_error(flag):
    config = SweepConfig(include_exceptional=flag)
    want = rf"^include_exceptional must be a bool, got {re.escape(repr(flag))}$"
    with pytest.raises(ConfigError, match=want):
        sweep_cases(config)
    buf = io.StringIO()
    with pytest.raises(ConfigError, match=want):
        cmd_verify(config, out=buf)
    assert buf.getvalue() == ""


@pytest.mark.parametrize("rank", ["3", 2.5, None, True], ids=["str", "float", "None", "bool"])
def test_sweep_config_with_a_non_integer_rank_is_config_error(rank):
    config = SweepConfig(max_rank={"A": rank, "B": 2, "C": 2, "D": 3})
    with pytest.raises(ConfigError, match=rf"^max rank for A must be an integer, got {re.escape(repr(rank))}$"):
        sweep_cases(config)


def test_emit_a1_amatrix_schema():
    doc = json.loads(_emit("A", 1, 1, "amatrix", "json"))
    assert doc["family"] == "A" and doc["rank"] == 1 and doc["weight_index"] == 1
    assert doc["s"] == 2 and doc["orbit_size"] == 2
    assert doc["basis"] == [[1], [-1]]
    # polynomials as [exponent, coefficient-string] pairs
    assert doc["matrix"] == [[[], [[1, "1"]]], [[[0, "1"]], []]]


def test_emit_orbit_words_and_lengths():
    doc = json.loads(_emit("A", 2, 1, "orbit", "json"))
    assert doc["dim_complex"] == 2
    assert doc["elements"][0] == {"weight": [1, 0], "length": 0, "word": []}
    assert doc["elements"][-1]["length"] == 2


def test_emit_e6_crystal_dot():
    text = _emit("E", 6, 1, "crystal", "dot")
    node_lines = [l for l in text.splitlines() if "[label=" in l and "->" not in l]
    assert len(node_lines) == 27
    assert text.startswith("digraph crystal_E6_w1")
    assert 'style=dashed' in text


def test_emit_crystal_json_edge_counts():
    doc = json.loads(_emit("A", 3, 2, "crystal", "json"))
    assert len(doc["edges"]) == 6
    assert len(doc["psi_edges"]) == 2


def test_emit_ttstar_d4():
    doc = json.loads(_emit("D", 4, 1, "ttstar", "json"))
    assert doc["s"] == 6
    assert doc["dpw_k"][0] == "0"
    assert set(doc["dpw_k"][1:]) == {"-1"}
    assert set(doc["m"]) == {"-1"}
    assert set(doc["alcove"]) == {"0"}
    assert doc["sigma_fixed"] is True
    assert "lambda" in doc["connection_form"]


def test_ttstar_emit_of_a_moved_minus_h0_raises_and_writes_nothing(monkeypatch, fresh_memos):
    # the document writes "sigma_fixed": true because distinguished_solution
    # returns only after _toda_data has proved -h_0 fixed
    monkeypatch.setattr(ttstar, "_sigma_moved", lambda rs, m: (1, 3))
    out = io.StringIO()
    with pytest.raises(AssertionError, match=r"alpha_1\(m\) = -1 moves onto alpha_3\(m\) = -1$"):
        cmd_emit("A", 3, 1, "ttstar", "json", out=out)
    assert out.getvalue() == ""


def test_emit_qtable_keys_follow_canonical_order():
    doc = json.loads(_emit("A", 2, 1, "qtable", "json"))
    assert list(doc["table"].keys()) == ["1,0", "-1,1", "0,-1"]
    assert doc["table"]["0,-1"] == [
        {"target": [1, 0], "q_power": 1, "coefficient": "1"}
    ]


def test_emit_byte_determinism():
    for what, fmt in [("orbit", "json"), ("crystal", "dot"), ("amatrix", "json"), ("qtable", "json"), ("ttstar", "json")]:
        assert _emit("D", 4, 1, what, fmt) == _emit("D", 4, 1, what, fmt)


# sha256 of the emitted A(q) and multiplication-table documents, the same
# hashes the benchmark's reference holds
EMIT_SHA256 = {
    ("A", 1, 1, "amatrix"): "f237e4f5bfbaaf6d8889b07336288b5984f1ebed53ea6043877bf6f59a42a8a3",
    ("A", 1, 1, "ttstar"): "22e1864694de3a777abba43c1efa763787fb5cd59fb590d2e2a51d31a62a58e9",
    ("D", 4, 1, "amatrix"): "d5d02a84ee1c751bb0350740e96b963775afc0ebb33d0965394c5e6c93b92ffa",
    ("D", 4, 1, "ttstar"): "5006223f6baf2f36802b82548d38b7660af85f95e670a514f97fd94c3df11f04",
    ("E", 6, 1, "amatrix"): "fb812f547957f90d665798319662d2c4b17ed08bdf324d3c8e4bdedb8a966cf9",
    ("E", 6, 1, "ttstar"): "1be7a4a3a722458949d494885c40618409cbc99d6629a6af8567c7c1771785dc",
    ("E", 7, 1, "amatrix"): "e6766ce9f3a4ec4931801fff467ea3396083e5a65b45c42007aad6689875772d",
    ("E", 7, 1, "ttstar"): "d6cca5cb086ecb23a20c5495971c6a9c06d4af3d8f9cf035c40f1afecb8e9681",
    ("D", 8, 8, "amatrix"): "5f3a211bd2f6535a280587b86667a6bd50e57f504e4d6da7305db273bfdbcbb5",
    ("D", 8, 8, "ttstar"): "99e49e34b839a080ec246ced542219d6337487cedc8c2e0a8c60bc51ae400445",
    ("B", 8, 8, "amatrix"): "b6b3a0e7ee4b4a732ab007a5450b66a273df1c07a5cc64948f992efab5d04050",
    ("B", 8, 8, "ttstar"): "6b7cf5d5d41b48987b37061606503f136dec7b8c182d5ad95b74d67cfa34b08d",
    ("A", 1, 1, "qtable"): "0e5bfdd458dba598778a16cb55f727c1dd798c5f55bacf75ffdef1a96ab93c3e",
    ("D", 4, 1, "qtable"): "ab176cebdb68f0860ef8b23d31d47544ef016f34eb108700410c0b4a5ef07556",
    ("E", 6, 1, "qtable"): "b09596dd9b8e8be2729c73687c5793e170c9d769f2c4bbbaaf8bcd166b4f1fa2",
    ("E", 7, 1, "qtable"): "2a6e39cea8f14c03d14cbd5f9c3055ce273569cefea51060858ac78b27daa712",
    ("D", 8, 8, "qtable"): "79b0581eb943b31feb36af1a56819c8726cd5c5ad9caf4a9e664c821017e9714",
    ("B", 8, 8, "qtable"): "ddc2683727dcf3b88791ee7404ad81f77d7e7636042766c9f0a32ead59ac7088",
}


@pytest.mark.parametrize("case", sorted(EMIT_SHA256), ids="{0[0]}{0[1]}w{0[2]}-{0[3]}".format)
def test_emitted_operator_bytes_are_pinned(case):
    family, rank, weight, what = case
    text = _emit(family, rank, weight, what, "json")
    assert hashlib.sha256(text.encode()).hexdigest() == EMIT_SHA256[case]


# sha256 of what the orbit BFS writes: its words and order (orbit JSON)
# and its edges (crystal JSON and DOT); the same hashes the benchmark's
# reference holds
BFS_EMIT_SHA256 = {
    ("E", 7, 1, "orbit", "json"): "8369af6173e82f86aa649dd2b2acffdb01843000b5b6d8463c11bdd04a5b873c",
    ("E", 7, 1, "crystal", "json"): "cf690c7413a39c2f9d6c712e08fe28d16b084592c9370be9940edda0c9a6b61f",
    ("E", 7, 1, "crystal", "dot"): "038064ba99bc38fc68afe5977d58dfe11be298ea32d60c883eb96205c16ca1fc",
    ("D", 8, 8, "orbit", "json"): "580dd285b3abd545e3fb4a3e40667caee0dc1fdf5bfd03e29ab06acd3981dfe9",
    ("D", 8, 8, "crystal", "json"): "319ab4ae3a1c2b482e92853d3d5af530bafea47d86fef4d27387be9bf463c874",
    ("D", 8, 8, "crystal", "dot"): "e9303f3101c959e69a18288482f22a67699cb1971aaa8862fd4e8419dcd4f5c2",
    ("B", 8, 8, "orbit", "json"): "e93eb764a7913ac7d8e459fa20f46862d991ee81b0037bd993a46e7f30bd214f",
    ("B", 8, 8, "crystal", "json"): "404b5edd2fc43149508d572e4fc01f19db9a2ba3be1a5abb8c9953f768727eb9",
    ("B", 8, 8, "crystal", "dot"): "1182e06e3c8a1918aef51c208bc884845e3918b8cb3da852785d481b4d2726c3",
    ("A", 9, 5, "orbit", "json"): "6a7a2335c18ad47038faf31f3f25716a3081e18fbc05df67118be38956340f84",
    ("A", 9, 5, "crystal", "json"): "054f900af5efd5175a3d273fdf7f5c71ea0626bd1a86382666ed2c9d1cb3402d",
    ("A", 9, 5, "crystal", "dot"): "833c0283f8f1f8fdf2a7c779074725bbdf6158748e91b2cd4d411c7f176778c5",
}


@pytest.mark.parametrize("case", sorted(BFS_EMIT_SHA256), ids="{0[0]}{0[1]}w{0[2]}-{0[3]}.{0[4]}".format)
def test_emitted_orbit_and_crystal_bytes_are_pinned(case):
    family, rank, weight, what, fmt = case
    text = _emit(family, rank, weight, what, fmt)
    assert hashlib.sha256(text.encode()).hexdigest() == BFS_EMIT_SHA256[case]


def test_crystal_emit_reads_the_psi_map_and_formats_each_key_once(monkeypatch):
    # the psi edges come from E-(0) of weylorbit.lowering_maps, with no PolyMatrix built;
    # DOT formats each weight's key once per element
    calls = Counter()
    real_key, real_init = cli._weight_key, PolyMatrix.__init__

    def key(w):
        calls["key"] += 1
        return real_key(w)

    def init(m, *args):
        calls["PolyMatrix"] += 1
        real_init(m, *args)

    monkeypatch.setattr(cli, "_weight_key", key)
    monkeypatch.setattr(PolyMatrix, "__init__", init)
    monkeypatch.setattr(minrep, "psi_raising_matrix", lambda orb: calls.update(["psi_raising_matrix"]))
    for family, rank, weight in [("E", 7, 1), ("D", 8, 8), ("A", 9, 5)]:
        orb = orbit(build(LieType(family, rank)), weight)
        calls.clear()
        cli.emit_dot(orb)
        assert calls == {"key": orb.size}
        calls.clear()
        emit_payload(orb, "crystal")
        assert calls == {}


_EMIT_TARGETS = [
    ("orbit", "json"), ("crystal", "json"), ("crystal", "dot"),
    ("amatrix", "json"), ("qtable", "json"), ("ttstar", "json"),
]


def test_orbit_memos_keep_only_the_latest_orbit(fresh_memos):
    # every target of one orbit reads the lowering maps built on its first read
    memos = (minrep.quantum_operator, weylorbit.lowering_maps)
    assert [memo.cache_info().maxsize for memo in memos] == [1, 1]
    for n, case in enumerate([("E", 6, 1), ("D", 5, 5)], 1):
        for what, fmt in _EMIT_TARGETS:
            _emit(*case, what, fmt)
        assert weylorbit.lowering_maps.cache_info().misses == n
    assert [memo.cache_info().currsize for memo in memos] == [1, 1]


def test_interleaved_emits_match_fresh_runs(fresh_memos):
    # orbits A, B, A: the second visit of A finds every orbit memo holding B,
    # once orbit by orbit and once target by target
    cases = [("E", 6, 1), ("D", 5, 5), ("E", 6, 1)]
    by_orbit = [(case, target) for case in cases for target in _EMIT_TARGETS]
    by_target = [(case, target) for target in _EMIT_TARGETS for case in cases]
    for order in (by_orbit, by_target):
        shared = [_emit(*case, *target) for case, target in order]
        fresh = []
        for case, target in order:
            clear_memos()
            fresh.append(_emit(*case, *target))
        assert shared == fresh


def test_amatrix_then_ttstar_builds_a_q_once(fresh_memos):
    orb = orbit(build(LieType("E", 7)), 1)
    amatrix = emit_payload(orb, "amatrix")["matrix"]
    assert emit_payload(orb, "ttstar")["matrix"] is amatrix
    info = minrep.quantum_operator.cache_info()
    assert (info.misses, info.hits) == (1, 1)


def test_crystal_json_then_dot_computes_the_edges_once(fresh_memos):
    # the crystal JSON reads the maps twice (edges and psi edges), the DOT
    # twice and A(q) once; ttstar reads the A(q) amatrix built
    for what, fmt in [("crystal", "json"), ("crystal", "dot"), ("amatrix", "json"), ("ttstar", "json")]:
        _emit("E", 7, 1, what, fmt)
    info = weylorbit.lowering_maps.cache_info()
    assert (info.misses, info.hits) == (1, 4)
    orb = orbit(build(LieType("E", 7)), 1)
    assert weylorbit.crystal_edges(orb) is not weylorbit.crystal_edges(orb)


def test_crystal_and_a_q_emits_step_once_along_each_lowering_edge(monkeypatch, fresh_memos):
    # crystal JSON, crystal DOT, amatrix and ttstar of E7/w1 run the
    # lowering_maps body once, which steps down the 96 E-(0..l) edges; a
    # second edge builder made 180 steps
    runs = []
    body = weylorbit.lowering_maps.__wrapped__
    memo = lru_cache(maxsize=1)(lambda orb: runs.append(orb) or body(orb))
    monkeypatch.setattr(weylorbit, "lowering_maps", memo)
    for what, fmt in [("crystal", "json"), ("crystal", "dot"), ("amatrix", "json"), ("ttstar", "json")]:
        _emit("E", 7, 1, what, fmt)
    orb = orbit(build(LieType("E", 7)), 1)
    assert runs == [orb] and sum(map(len, memo(orb))) == 96


_coeffs = st.one_of(st.integers(-9, 9), st.integers(-(2**200), 2**200), st.integers(2**64, 2**80))
_entries = st.dictionaries(st.integers(0, 6), _coeffs, max_size=4)


@st.composite
def _poly_matrices(draw):
    n = draw(st.integers(0, 6))
    if not n:
        return PolyMatrix(0)
    keys = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
    return PolyMatrix(n, draw(st.dictionaries(keys, _entries, max_size=n * n)))


def _densified(v):
    """v with every PolyMatrix replaced by its dense array of [exponent, coefficient-string] lists.

    A Weight becomes its pairings list.
    """
    if isinstance(v, Weight):
        return list(v.pairings)
    if isinstance(v, PolyMatrix):
        return [[[[e, str(c)] for e, c in sorted(v.entries.get((i, j), {}).items())] for j in range(v.n)]
                for i in range(v.n)]
    if isinstance(v, dict):
        return {k: _densified(x) for k, x in v.items()}
    if isinstance(v, list):
        return [_densified(x) for x in v]
    return v


# quotes, backslashes, control and non-ASCII characters on top of arbitrary text
_awkward = st.sampled_from('"\\\x00\x1f\x7f\n\t\u00e9\u2028\u20ac\U0001F600')
_texts = st.text(st.one_of(st.characters(), _awkward), max_size=8)
# (16,0) and (0,1) share the key 16: the writer must tell them apart by their pairings
_weights = st.one_of(st.lists(st.integers(-20, 20), max_size=4).map(lambda p: Weight(tuple(p))),
                     st.sampled_from([Weight((16, 0)), Weight((0, 1))]))
_leaves = st.one_of(
    _weights,
    _texts,
    st.integers(),
    st.integers(2**64, 2**200),
    st.integers(-(2**200), -(2**64)),
    st.booleans(),
    st.none(),
    _poly_matrices(),
)
_documents = st.recursive(
    _leaves,
    lambda inner: st.one_of(st.lists(inner, max_size=4), st.dictionaries(_texts, inner, max_size=4)),
    max_leaves=30,
)


@st.composite
def _matrix_documents(draw):
    """An amatrix-shaped document: a top-level "matrix", then maybe a tail after it."""
    m = draw(_poly_matrices())
    doc = {"family": "A", "basis": [[1, -1]] * m.n, "matrix": m}
    if draw(st.booleans()):
        doc["after"] = ["matrix", 0]
    return doc


@settings(max_examples=150, deadline=None)
@given(doc=_documents, emitted=_matrix_documents())
def test_writer_matches_json_dumps_of_the_densified_document(doc, emitted):
    for d in (doc, emitted):
        assert json_text(d) == json.dumps(_densified(d), indent=2)


def test_writer_writes_one_weight_at_two_depths_and_colliding_keys_apart():
    w, a, b = Weight((1, -2, 3)), Weight((16, 0)), Weight((0, 1))
    assert a.key == b.key
    doc = {"w": w, "deep": [{"w": w, "pair": [a, b, a]}, w], "empty": Weight(()), "b": b}
    text = json_text(doc)
    assert text == json.dumps(_densified(doc), indent=2)
    assert json.loads(text)["deep"][0]["pair"] == [[16, 0], [0, 1], [16, 0]]


@pytest.mark.parametrize("bad", [1.5, Fraction(1, 3), (1, 2), {1: "one"}], ids=["float", "Fraction", "tuple", "int-key"])
def test_writer_rejects_what_is_not_plain_json(bad):
    with pytest.raises(TypeError):
        json_text(bad)
    with pytest.raises(TypeError):
        json_text({"basis": [[1, 2], {"deep": [bad]}], "matrix": PolyMatrix(1, {(0, 0): {0: 1}})})


_JSON_TARGETS = ["orbit", "crystal", "amatrix", "qtable", "ttstar"]


@pytest.mark.parametrize("case", SWEEP, ids=[f"{lt}w{i}" for lt, i in SWEEP])
def test_every_emitted_document_matches_json_dumps(case):
    lt, i = case
    orb = orbit(build(lt), i)
    for what in _JSON_TARGETS:
        doc = emit_payload(orb, what)
        assert json_text(doc) == json.dumps(_densified(doc), indent=2), what


def test_emit_rejects_non_minuscule_weight(capsys):
    for family, rank, weight in (("A", 3, 0), ("E", 7, 2), ("G", 2, 1)):
        assert main(["emit", "--family", family, "--rank", str(rank), "--weight", str(weight), "--what", "orbit"]) == 2
        assert capsys.readouterr() == ("", f"config error: fundamental weight {weight} of {family}{rank} "
                                           "is not minuscule\n")


def test_emit_rejects_dot_for_non_crystal():
    assert main(["emit", "--family", "A", "--rank", "1", "--weight", "1", "--what", "amatrix", "--format", "dot"]) == 2


def test_emit_rejects_bad_rank(capsys):
    assert main(["emit", "--family", "E", "--rank", "9", "--weight", "1", "--what", "orbit"]) == 2
    assert capsys.readouterr() == ("", "config error: rank 9 invalid for family E\n")


def test_satake_command_pairs():
    buf = io.StringIO()
    rc = cmd_satake(3, 2, out=buf)
    assert rc == 0
    out = buf.getvalue()
    assert "PASS" in out and "sign vector:" in out
    assert len(out.split("sign vector: ")[1].split("\n")[0].split()) == 6

    buf = io.StringIO()
    assert cmd_satake(1, 1, out=buf) == 0


def test_satake_command_d_family():
    buf = io.StringIO()
    rc = cmd_satake(family="D", rank=4, out=buf)
    assert rc == 0
    assert "64" in buf.getvalue()


def test_satake_command_json_reports():
    buf = io.StringIO()
    assert cmd_satake(3, 2, fmt="json", out=buf) == 0
    doc = json.loads(buf.getvalue())
    assert doc["kind"] == "wedge-similarity"
    assert doc["pass"] is True and len(doc["signs"]) == 6

    buf = io.StringIO()
    assert cmd_satake(family="D", rank=5, fmt="json", out=buf) == 0
    doc = json.loads(buf.getvalue())
    assert doc["kind"] == "half-wedge-dims"
    assert doc["wedge_total"] == doc["endo_total"] == 256
    assert doc["pass"] is True


def test_satake_command_failure_reports_the_cycle(monkeypatch):
    message = "inconsistent sign around the loop through edge (2, 1)"

    def broken(n, k):
        raise satake.SignSimilarityError("cycle", message, cycle=(1, 0, 2, 1))

    monkeypatch.setattr(satake, "satake_similarity", broken)
    buf = io.StringIO()
    assert cmd_satake(3, 2, out=buf) == 1
    assert buf.getvalue() == f"FAIL: {message}\n"

    buf = io.StringIO()
    assert cmd_satake(3, 2, fmt="json", out=buf) == 1
    assert json.loads(buf.getvalue()) == {
        "kind": "wedge-similarity",
        "n": 3, "k": 2,
        "pass": False,
        "failure": message,
        "witness_kind": "cycle",
        "witness_cycle": [1, 0, 2, 1],
    }


# sha256 of the three `satake --format json` documents: pass (n=3, k=2),
# half-wedge (D5) and the cycle failure above
SATAKE_JSON_SHA256 = {
    "pass": "3b3623919aa54a5d3128fe4818059ebe9b2da379d78ab2b37f9b6e14f059728c",
    "half-wedge": "202e29aa8ef6b390510c458920d3968074092fafd3e83c11ca12a72fa1842ce5",
    "failure": "f2784786e8fa7bf6cd180e1261c37c0c599e6e3612d773755029b9fb067344fc",
}


# sha256 of the three `satake` text outputs: pass (n=3, k=2), half-wedge
# (D4) and the same cycle failure
SATAKE_TEXT_SHA256 = {
    "pass": "8ed9dbff5c3e1da3085a47558ef8e3a1fc1a65d101502cffa6f5fe94d37a7cd7",
    "half-wedge": "7e52649fca63277afc82d3f76fdca28791d7c0ff62dc0db017c9d30ddfb82ba5",
    "failure": "a96232eb635d7019c5e63d66c2b7299b28fb6d8b6f8f5482773ebd982cb54a8b",
}


def _satake_output(monkeypatch, kind: str, fmt: str) -> tuple[int, str]:
    if kind == "failure":
        def broken(n, k):
            raise satake.SignSimilarityError(
                "cycle", "inconsistent sign around the loop through edge (2, 1)", cycle=(1, 0, 2, 1)
            )

        monkeypatch.setattr(satake, "satake_similarity", broken)
    if kind == "half-wedge":
        args = {"family": "D", "rank": 5 if fmt == "json" else 4}
    else:
        args = {"n": 3, "k": 2}
    buf = io.StringIO()
    rc = cmd_satake(**args, fmt=fmt, out=buf)
    return rc, buf.getvalue()


@pytest.mark.parametrize("kind", sorted(SATAKE_JSON_SHA256))
def test_satake_json_documents_are_pinned(monkeypatch, kind):
    rc, text = _satake_output(monkeypatch, kind, "json")
    assert rc == (1 if kind == "failure" else 0)
    assert hashlib.sha256(text.encode()).hexdigest() == SATAKE_JSON_SHA256[kind]


@pytest.mark.parametrize("kind", sorted(SATAKE_TEXT_SHA256))
def test_satake_text_outputs_are_pinned(monkeypatch, kind):
    rc, text = _satake_output(monkeypatch, kind, "text")
    assert rc == (1 if kind == "failure" else 0)
    assert hashlib.sha256(text.encode()).hexdigest() == SATAKE_TEXT_SHA256[kind]


# sha256 of json.dumps(list(signs)) for every Satake pair the benchmark
# checks; the same hashes the benchmark's reference holds
SATAKE_SIGNS_SHA256 = {
    (2, 1): "7c82990faec1bff4c63b2c808c53957a4a8846428de5f0f648a2550d7f22a6de",
    (2, 2): "7c82990faec1bff4c63b2c808c53957a4a8846428de5f0f648a2550d7f22a6de",
    (3, 1): "7112a20f8224a851d514a98ae70e2c7f46192ad025cd04b6ad42ef9b030b10da",
    (3, 2): "9ded6c7e637f3673222edc081cebf4aa576a6b10ab9a150351fa7042d3073863",
    (3, 3): "7112a20f8224a851d514a98ae70e2c7f46192ad025cd04b6ad42ef9b030b10da",
    (4, 1): "15d67f715f212612b8580a17f63fc55a144b702d599697ba0a27208688740df3",
    (4, 2): "a212041b1c5b8f4f23496a241bc5c6e65bcee584f8d6e03c47a69c1aa8dfb1bc",
    (4, 3): "a212041b1c5b8f4f23496a241bc5c6e65bcee584f8d6e03c47a69c1aa8dfb1bc",
    (4, 4): "15d67f715f212612b8580a17f63fc55a144b702d599697ba0a27208688740df3",
    (5, 1): "9ded6c7e637f3673222edc081cebf4aa576a6b10ab9a150351fa7042d3073863",
    (5, 2): "66918302b73bef56be9c45bb50a00c0db75bef111109918adf3c0d9d2f4efa66",
    (5, 3): "c4d2dce18fe96ce034d9a7ad851d1d0075fba70b4d42aea11e66624a08fbf15d",
    (5, 4): "66918302b73bef56be9c45bb50a00c0db75bef111109918adf3c0d9d2f4efa66",
    (5, 5): "9ded6c7e637f3673222edc081cebf4aa576a6b10ab9a150351fa7042d3073863",
    (6, 1): "006f7ef5e274e100ed6291c9ffe9c1d484b6041daa559c90cb1ba0d1804c6682",
    (6, 2): "1f710291865027877a609b43cf05efeefebe5db6bd3b807716409aa6e5353f0b",
    (6, 3): "6eeb74f5f5735e2b51adf61e816e53d560b301acd770db71ddd6d64d70f32e6d",
    (6, 4): "6eeb74f5f5735e2b51adf61e816e53d560b301acd770db71ddd6d64d70f32e6d",
    (6, 5): "1f710291865027877a609b43cf05efeefebe5db6bd3b807716409aa6e5353f0b",
    (6, 6): "006f7ef5e274e100ed6291c9ffe9c1d484b6041daa559c90cb1ba0d1804c6682",
    (7, 1): "fc67e5cbb4b98b43e009205e284ce0d8454a29a4f6a663c6fcc9724efa926904",
    (7, 2): "e650fc4580997c84be48e8984fe604f57d0dcf6f11fbf5d3a924b71fa8deb515",
    (7, 3): "7443caa85695020129166b6abba2eff02c454dbf60b25cdf767e0fbb31c92eb4",
    (7, 4): "e4bed3a117c8b33f48cb41ab882a758faae4993a1df4a8ea95b6a0fb240ee2b0",
    (7, 5): "7443caa85695020129166b6abba2eff02c454dbf60b25cdf767e0fbb31c92eb4",
    (7, 6): "e650fc4580997c84be48e8984fe604f57d0dcf6f11fbf5d3a924b71fa8deb515",
    (7, 7): "fc67e5cbb4b98b43e009205e284ce0d8454a29a4f6a663c6fcc9724efa926904",
    (8, 1): "d05eb4fbff95c5ce6af369e8248eb289510e9c060a7a812f42e1bd94f9835cbc",
    (8, 2): "4c372dc61d5827cc46b7c57964025f498281d3a37cd59574d438ce38f11b3b15",
    (8, 3): "944bb9c149583832358d6243195d007588cc307ff7487983560c43d0730dc8b9",
    (8, 4): "43774b7177817043308fbe00a7efb7b12085309e1e9db05f00710231544f3c2b",
    (8, 5): "43774b7177817043308fbe00a7efb7b12085309e1e9db05f00710231544f3c2b",
    (8, 6): "944bb9c149583832358d6243195d007588cc307ff7487983560c43d0730dc8b9",
    (8, 7): "4c372dc61d5827cc46b7c57964025f498281d3a37cd59574d438ce38f11b3b15",
    (8, 8): "d05eb4fbff95c5ce6af369e8248eb289510e9c060a7a812f42e1bd94f9835cbc",
    (9, 1): "a212041b1c5b8f4f23496a241bc5c6e65bcee584f8d6e03c47a69c1aa8dfb1bc",
    (9, 2): "1272315ffacca4e9afcf39c495e74be4becf856b61283d533815ff975286abc7",
    (9, 3): "e66fa58eb8ac934d760bcca7f44dc3839d80e24269c0fdf4367b57536555ec76",
    (9, 4): "9b22dcb46aa657c53e06132e20f970c056dddbcef4376a9234d666d9be2d8c8f",
    (9, 5): "6a96e866564de626600daac8a30b1ed4ce095b59c0f3936753a334b8272e2917",
    (9, 6): "9b22dcb46aa657c53e06132e20f970c056dddbcef4376a9234d666d9be2d8c8f",
    (9, 7): "e66fa58eb8ac934d760bcca7f44dc3839d80e24269c0fdf4367b57536555ec76",
    (9, 8): "1272315ffacca4e9afcf39c495e74be4becf856b61283d533815ff975286abc7",
    (9, 9): "a212041b1c5b8f4f23496a241bc5c6e65bcee584f8d6e03c47a69c1aa8dfb1bc",
}


@pytest.mark.parametrize("pair", sorted(SATAKE_SIGNS_SHA256), ids="A{0[0]}k{0[1]}".format)
def test_satake_sign_vectors_are_pinned(pair):
    signs = satake.satake_similarity(*pair).signs
    assert hashlib.sha256(json.dumps(list(signs)).encode()).hexdigest() == SATAKE_SIGNS_SHA256[pair]


def test_satake_command_argument_errors():
    assert main(["satake", "--n", "3", "--k", "5"]) == 2
    # --n/--k beside --family would be ignored, so an invalid k > n must not pass unseen
    assert main(["satake", "--family", "D", "--rank", "3", "--n", "2", "--k", "5"]) == 2
    assert main(["satake", "--family", "D", "--rank", "4", "--n", "3"]) == 2
    assert main(["satake", "--family", "D", "--rank", "4", "--k", "2"]) == 2
    with pytest.raises(ConfigError, match="--n and --k do not combine with --family"):
        cmd_satake(3, 2, family="D", rank=4, out=io.StringIO())
    assert main(["satake", "--family", "D", "--rank", "2"]) == 2
    assert main(["satake"]) == 2
    # --rank beside --n/--k would be ignored, as --n/--k beside --family would be
    assert main(["satake", "--n", "3", "--k", "2", "--rank", "5"]) == 2
    with pytest.raises(ConfigError, match="^--rank only combines with --family D$"):
        cmd_satake(3, 2, rank=5, out=io.StringIO())
    # LieType names a float or bool rank before math.comb reads it; a rank
    # test of the CLI's own once called True a rank below 3
    for rank in (4.0, True):
        with pytest.raises(TypeError, match=f"^{re.escape(f'rank must be an int, not {rank!r}')}$"):
            cmd_satake(family="D", rank=rank, out=io.StringIO())


def test_satake_family_d_without_a_rank_names_the_flag(capsys):
    assert main(["satake", "--family", "D"]) == 2
    assert capsys.readouterr() == ("", "config error: family D needs --rank N\n")


# satake input errors come from the library: LieType's rank rules and
# RootSystem.minuscule_weight's weight rule, worded as emit words them
SATAKE_INPUT_ERRORS = {
    "k-above-n": (["--n", "3", "--k", "5"], "fundamental weight 5 of A3 is not minuscule"),
    "k-zero": (["--n", "3", "--k", "0"], "fundamental weight 0 of A3 is not minuscule"),
    "n-zero": (["--n", "0", "--k", "1"], "rank 0 invalid for family A"),
    "d-rank-2": (["--family", "D", "--rank", "2"], "rank 2 invalid for family D"),
}


@pytest.mark.parametrize("case", SATAKE_INPUT_ERRORS)
def test_satake_input_errors_are_the_librarys(case, capsys):
    args, message = SATAKE_INPUT_ERRORS[case]
    assert main(["satake", *args]) == 2
    assert capsys.readouterr() == ("", f"config error: {message}\n")


def test_satake_and_emit_name_a_non_minuscule_weight_alike(capsys):
    assert main(["satake", "--n", "3", "--k", "5"]) == 2
    satake_err = capsys.readouterr()
    assert main(["emit", "--family", "A", "--rank", "3", "--weight", "5", "--what", "orbit"]) == 2
    assert capsys.readouterr() == satake_err


@pytest.mark.parametrize("check", ["satake_similarity", "half_wedge_dims"])
def test_value_error_inside_a_satake_check_is_not_a_config_error(monkeypatch, check):
    # only the input is turned into a ConfigError: a ValueError the check
    # itself raises is a bug, and ends in a traceback
    def broken(*args):
        raise ValueError("internal bug")

    monkeypatch.setattr(satake, check, broken)
    args = ["--n", "3", "--k", "2"] if check == "satake_similarity" else ["--family", "D", "--rank", "4"]
    with pytest.raises(ValueError, match="^internal bug$") as info:
        main(["satake", *args])
    assert type(info.value) is ValueError


def test_main_verify_small():
    assert main(["verify", "--max-rank-A", "2", "--max-rank-B", "2", "--max-rank-C", "2", "--max-rank-D", "3", "--skip-exceptional"]) == 0


# sha256 of the default `verify` stdout; every passing row's text is frozen here
DEFAULT_VERIFY_SHA256 = "0fca2fd0635dd8ddac2f02dfa48ead9cad67b01e4e9610144f39afbbb50c8dc9"


def test_default_verify_output_is_pinned():
    buf = io.StringIO()
    assert cmd_verify(SweepConfig(), out=buf) == 0
    assert hashlib.sha256(buf.getvalue().encode()).hexdigest() == DEFAULT_VERIFY_SHA256


def test_default_verify_output_is_pinned_under_python_optimize_flag():
    # -OO strips the docstrings too, which the -O pins below keep
    proc = _run_optimized("-m", "minflag.cli", "verify", flag="-OO")
    assert proc.returncode == 0, proc.stderr
    assert hashlib.sha256(proc.stdout.encode()).hexdigest() == DEFAULT_VERIFY_SHA256


# sha256 of the `verify --self-test-corrupt` stdout on the default sweep
CORRUPT_VERIFY_SHA256 = "7e9d39a1813804bd723f587816e2fa30438ce13c2e8945af76e52e443256e0b1"


def test_corrupt_verify_output_is_pinned():
    buf = io.StringIO()
    assert cmd_verify(SweepConfig(), corrupt=True, out=buf) == 1
    assert hashlib.sha256(buf.getvalue().encode()).hexdigest() == CORRUPT_VERIFY_SHA256


# sha256 of the `verify` stdout on the 69-case sweep
# --max-rank-A 8 --max-rank-B 7 --max-rank-C 7 --max-rank-D 8
LARGE_VERIFY_SHA256 = "d167c160b56ae6bef0301ffd75d61a1f9beb5eea60c88a0b33c73c04f58aebd4"


def test_large_verify_output_is_pinned():
    config = SweepConfig(max_rank={"A": 8, "B": 7, "C": 7, "D": 8})
    assert len(sweep_cases(config)) == 69
    buf = io.StringIO()
    assert cmd_verify(config, out=buf) == 0
    assert hashlib.sha256(buf.getvalue().encode()).hexdigest() == LARGE_VERIFY_SHA256


@pytest.mark.parametrize("args,sha256,rc", [
    ((), DEFAULT_VERIFY_SHA256, 0),
    (("--max-rank-A", "8", "--max-rank-B", "7", "--max-rank-C", "7", "--max-rank-D", "8"), LARGE_VERIFY_SHA256, 0),
    (("--self-test-corrupt",), CORRUPT_VERIFY_SHA256, 1),
], ids=["default", "large", "self-test-corrupt"])
def test_verify_output_is_pinned_under_python_optimize_flag(args, sha256, rc):
    proc = _run_optimized("-m", "minflag.cli", "verify", *args)
    assert proc.returncode == rc, proc.stderr
    assert hashlib.sha256(proc.stdout.encode()).hexdigest() == sha256


def test_verify_non_integer_rank_in_config_is_config_error(tmp_path, capsys):
    cfg = tmp_path / "sweep.cfg"
    cfg.write_text("max-rank-A=three\n")
    assert main(["verify", "--config", str(cfg)]) == 2
    assert capsys.readouterr().err.startswith("config error: max-rank-A must be an integer")


def test_verify_non_utf8_config_is_config_error(tmp_path, capsys):
    cfg = tmp_path / "sweep.cfg"
    cfg.write_bytes(b"max-rank-A=3\n\xff\xfe\n")
    assert main(["verify", "--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and "not UTF-8" in err


def test_value_error_inside_a_check_is_not_a_config_error(monkeypatch):
    def broken(orb, operator):
        raise ValueError("internal bug")

    monkeypatch.setattr(qchev, "frobenius_check", broken)
    with pytest.raises(ValueError, match="internal bug"):
        main(["verify", *_SMALL_ARGS])


def test_oracle_path_checks_survive_python_optimize_flag():
    code = (
        "from minflag.qchev import divisor_complement\n"
        "from minflag.rootsys import LieType, RootVec, build\n"
        "from minflag.weylorbit import Orbit, apply_word, orbit\n"
        "assert False, 'asserts must be stripped under -O'\n"
        "from minflag.qchev import _oracle_table\n"
        "orb = orbit(build(LieType('A', 2)), 1)\n"
        "for call in (lambda: divisor_complement(Orbit(orb.rs, 1, orb.elements[:-1])),\n"
        "             lambda: apply_word(orb.rs, (1,), RootVec((2, 0))),\n"
        "             lambda: _oracle_table(Orbit(orb.rs, 1, orb.elements[::-1]))):\n"
        "    try:\n"
        "        call()\n"
        "    except AssertionError:\n"
        "        print('raised')\n"
    )
    proc = _run_optimized("-c", code)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["raised", "raised", "raised"]


def test_delete_detectable_edge_breaks_frobenius_symmetry():
    for lt, i in sweep_cases(SMALL):
        orb = orbit(build(lt), i)
        operator = minrep.quantum_operator(orb)
        deleted = delete_detectable_edge(orb, operator)
        assert len(deleted.entries) == len(operator.entries) - 1
        # A1 has only self-dual entries; everywhere else Frobenius must trip
        assert bool(qchev.frobenius_check(orb, deleted)) == (lt == LieType("A", 1))


def test_emit_rejects_an_unknown_target_and_format():
    orb = orbit(build(LieType("A", 2)), 1)
    with pytest.raises(ConfigError, match="^unknown emission target 'matrix'$"):
        emit_payload(orb, "matrix")
    with pytest.raises(ConfigError, match="^unsupported format 'xml'$"):
        cmd_emit("A", 2, 1, "orbit", "xml", out=io.StringIO())


def test_satake_rejects_an_unknown_format_and_a_family_other_than_d():
    with pytest.raises(ConfigError, match="^unsupported format 'xml'$"):
        cmd_satake(3, 2, fmt="xml", out=io.StringIO())
    with pytest.raises(ConfigError, match="^dimension identities are only defined for family D$"):
        cmd_satake(family="A", rank=4, out=io.StringIO())
