import io
import json
import os
import subprocess
import sys

from minflag import qchev
from minflag.cli import (
    SweepConfig,
    cmd_emit,
    cmd_satake,
    cmd_verify,
    expected_orbit_size,
    main,
    sweep_cases,
)
from minflag.rootsys import LieType, build
from minflag.weylorbit import orbit


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

    def counting(orb, u):
        calls.append((orb.rs.lie_type, orb.weight_index, u.weight))
        return real(orb, u)

    monkeypatch.setattr(qchev, "chevalley_fw_oracle", counting)
    assert cmd_verify(SMALL, out=io.StringIO()) == 0
    classes = [
        (lt, i, el.weight) for lt, i in sweep_cases(SMALL) for el in orbit(build(lt), i).elements
    ]
    assert calls == classes


def test_verify_oracle_failure_fails_both_oracle_rows(monkeypatch):
    def broken(orb, u):
        raise AssertionError("surviving classical root must be simple")

    monkeypatch.setattr(qchev, "chevalley_fw_oracle", broken)
    buf = io.StringIO()
    assert cmd_verify(SMALL, out=buf) == 1
    failed = {l.split()[1] for l in buf.getvalue().splitlines() if " FAIL " in l}
    assert failed == {"main-theorem", "oracle-survivors"}
    assert "oracle route failed: AssertionError: surviving classical root must be simple" in buf.getvalue()


_SMALL_ARGS = ["--max-rank-A", "2", "--max-rank-B", "2", "--max-rank-C", "2", "--max-rank-D", "3",
               "--skip-exceptional"]


def _run_optimized(*args: str) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=SRC + os.pathsep + os.environ.get("PYTHONPATH", ""))
    return subprocess.run([sys.executable, "-O", *args], capture_output=True, text=True, env=env, timeout=120)


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
    )
    proc = _run_optimized("-c", code)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "length check raised"

    proc = _run_optimized("-m", "minflag.cli", "verify", "--self-test-corrupt", *_SMALL_ARGS)
    assert proc.returncode == 1, proc.stderr
    assert "FAIL" in proc.stdout and "Traceback" not in proc.stderr


def test_verify_config_file(tmp_path):
    cfg = tmp_path / "sweep.cfg"
    cfg.write_text("max-rank-A=3\nmax-rank-B=2\nmax-rank-C=2\nmax-rank-D=3\ninclude-exceptional=false\n")
    rc = main(["verify", "--config", str(cfg)])
    assert rc == 0


def test_verify_bad_config_key(tmp_path):
    cfg = tmp_path / "sweep.cfg"
    cfg.write_text("max-rank-Z=3\n")
    assert main(["verify", "--config", str(cfg)]) == 2


def test_verify_missing_config_file_is_config_error(tmp_path, capsys):
    assert main(["verify", "--config", str(tmp_path / "missing.cfg")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and "missing.cfg" in err


def test_verify_rank_below_minimum_is_config_error():
    assert main(["verify", "--max-rank-D", "2"]) == 2


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


def test_emit_qtable_keys_follow_canonical_order():
    doc = json.loads(_emit("A", 2, 1, "qtable", "json"))
    assert list(doc["table"].keys()) == ["1,0", "-1,1", "0,-1"]
    assert doc["table"]["0,-1"] == [
        {"target": [1, 0], "q_power": 1, "coefficient": "1"}
    ]


def test_emit_byte_determinism():
    for what, fmt in [("orbit", "json"), ("crystal", "dot"), ("amatrix", "json"), ("qtable", "json"), ("ttstar", "json")]:
        assert _emit("D", 4, 1, what, fmt) == _emit("D", 4, 1, what, fmt)


def test_emit_rejects_non_minuscule_weight():
    assert main(["emit", "--family", "A", "--rank", "3", "--weight", "0", "--what", "orbit"]) == 2
    assert main(["emit", "--family", "E", "--rank", "7", "--weight", "2", "--what", "orbit"]) == 2
    assert main(["emit", "--family", "G", "--rank", "2", "--weight", "1", "--what", "orbit"]) == 2


def test_emit_rejects_dot_for_non_crystal():
    assert main(["emit", "--family", "A", "--rank", "1", "--weight", "1", "--what", "amatrix", "--format", "dot"]) == 2


def test_emit_rejects_bad_rank():
    assert main(["emit", "--family", "E", "--rank", "9", "--weight", "1", "--what", "orbit"]) == 2


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


def test_satake_command_argument_errors():
    assert main(["satake", "--n", "3", "--k", "5"]) == 2
    assert main(["satake", "--family", "D", "--rank", "2"]) == 2
    assert main(["satake"]) == 2


def test_main_verify_small():
    assert main(["verify", "--max-rank-A", "2", "--max-rank-B", "2", "--max-rank-C", "2", "--max-rank-D", "3", "--skip-exceptional"]) == 0
