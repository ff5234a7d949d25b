"""One benchmark sample, run in a fresh interpreter by ``run.py``.

Usage: python3 worker.py <mode> <payload-json>

Modes:

* ``setup``  imports minflag, builds the input list, reports the CPU
  time the process has used up to where the timed region would start,
  and exits;
* ``sample`` does the same, then runs one timed pass of the workload;
* ``trace``  runs one timed pass with the outside-in tracer installed;
* ``guard``  runs the mutation self-test of ``verify`` (untimed).

The payload carries the workload name and the inputs the parent drew
from the seed.  The worker prints one JSON object on its last line:
set-up CPU time, pass wall and CPU time, peak RSS, and the outputs the
parent checks against the reference.  The ``build``/``orbit`` caches
start cold in every sample, as they do for every CLI invocation.
"""
from __future__ import annotations

import hashlib
import io
import json
import os
import resource
import sys
import time
from dataclasses import asdict

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

from minflag import cli, minrep, rootsys, satake, weylorbit  # noqa: E402  (needs the src path)
from minflag.rootsys import LieType  # noqa: E402
from workloads import EMIT_TARGETS, GUARD_MAX_RANK, LAYERS  # noqa: E402


def _lie_case(name: str) -> tuple[LieType, int]:
    """'E7/w1' -> (LieType('E', 7), 1)."""
    lt, w = name.split("/w")
    return LieType(lt[0], int(lt[1:])), int(w)


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def build_inputs(payload: dict):
    workload = payload["workload"]
    if workload == "verify-sweep":
        return cli.SweepConfig()
    if workload == "charpoly-artifacts":
        return {
            "charpoly": [(name, *_lie_case(name)) for name in payload["charpoly"]],
            "emit": [(name, *_lie_case(name)) for name in payload["cases"]],
            "satake": [tuple(nk) for nk in payload["satake"]],
            "half_wedge": list(payload["half_wedge"]),
        }
    raise SystemExit(f"unknown workload {workload!r}")


def _verify_rows(text: str) -> list[list[str]]:
    rows = []
    for line in text.splitlines():
        if line.startswith(("SUMMARY:", "self-test:")):
            continue
        case, check, status = line.split()[:3]
        rows.append([case, check, status])
    return rows


def run_pass(workload: str, inputs) -> dict:
    """One pass of the workload; returns the outputs to check.

    Calls go through module attributes, so the tracer's wrappers see them.
    """
    if workload == "verify-sweep":
        buf = io.StringIO()
        rc = cli.cmd_verify(inputs, out=buf)
        return {"rc": rc, "text": buf.getvalue()}  # parsed after the timed region
    if workload == "charpoly-artifacts":
        polys = {}
        for name, lt, i in inputs["charpoly"]:
            coeffs = minrep.char_poly(minrep.quantum_operator(weylorbit.orbit(rootsys.build(lt), i)))
            n = len(coeffs) - 1
            polys[name] = [[n - k, e, c] for k, p in enumerate(coeffs) for e, c in p.items()]
        out = {}
        for name, lt, i in inputs["emit"]:
            for what, fmt in EMIT_TARGETS:
                buf = io.StringIO()
                rc = cli.cmd_emit(lt.family, lt.rank, i, what, fmt, out=buf)
                out[f"{name}:{what}.{fmt}"] = _sha(buf.getvalue()) if rc == 0 else f"rc={rc}"
        for n, k in inputs["satake"]:
            signs = satake.satake_similarity(n, k).signs
            out[f"satake:{n},{k}"] = _sha(json.dumps(list(signs)))
        for n in inputs["half_wedge"]:
            out[f"half_wedge:{n}"] = _sha(json.dumps(asdict(satake.half_wedge_dims(n)), sort_keys=True))
        return {"charpoly": polys, "hashes": out}
    raise SystemExit(f"unknown workload {workload!r}")


def guard() -> dict:
    """The mutation self-test: a corrupted operator must trip a check."""
    config = cli.SweepConfig(max_rank=dict(GUARD_MAX_RANK), include_exceptional=False)
    buf = io.StringIO()
    rc = cli.cmd_verify(config, corrupt=True, out=buf)
    fails = sum(1 for _, _, status in _verify_rows(buf.getvalue()) if status == "FAIL")
    return {"rc": rc, "fail_rows": fails}


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def main(argv: list[str]) -> int:
    mode, payload = argv[0], json.loads(argv[1])
    workload = payload["workload"]
    if mode == "guard":
        print(json.dumps({"guard": guard()}))
        return 0
    inputs = build_inputs(payload)
    tracer = None
    if mode == "trace":
        from tracer import Tracer

        tracer = Tracer()
        kept: list[int] = []
        tracer.observe("qchev.chevalley_fw_oracle", lambda args, result: kept.append(len(result)))
        tracer.install("minflag", LAYERS)
    setup_cpu = time.process_time()
    if mode == "setup":
        print(json.dumps({"setup_cpu_s": setup_cpu}))
        return 0
    t0 = time.perf_counter()
    outputs = run_pass(workload, inputs)
    wall = time.perf_counter() - t0
    cpu = time.process_time() - setup_cpu
    result = {
        "setup_cpu_s": setup_cpu,
        "wall_s": wall,
        "pass_cpu_s": cpu,
        "peak_rss_mb": _peak_rss_mb(),
    }
    if "text" in outputs:
        outputs["rows"] = _verify_rows(outputs.pop("text"))
    result.update(outputs)
    if tracer is not None:
        result["trace"] = tracer.summary()
        # The oracle transports each candidate root it examines with one
        # apply_word call, so its direct apply_word children count the
        # candidates it actually looked at.
        result["trace"]["oracle"] = {
            "kept": sum(kept),
            "examined": tracer.child_calls("qchev.chevalley_fw_oracle", "weylorbit.apply_word"),
        }
        if payload.get("spans_out"):
            tracer.write(payload["spans_out"])
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
