"""Outside-in benchmark for minflag.

Usage (from the repository root):

    python3 perfbench/run.py --workload verify-sweep --seed 1 --seconds 55 --trace 0

The parent process draws the inputs from the seed and runs one child
interpreter at a time (``worker.py``), so every sample starts with cold
``build``/``orbit`` caches, as a CLI user does.  It launches another
sample while that one is expected to end within ``--seconds``, checks
every output against ``reference.json``, and prints a report line (inputs,
environment, sample counts and values, error rate) followed by one JSON
result line.

With ``--trace 0`` the result holds the end-to-end metrics, each the
median over the run's samples:

* ``pass_s``      CPU time of one pass of the workload in the child;
* ``setup_s``     CPU time from child launch to the start of the timed
  region (interpreter start, ``import minflag``, building the input
  list), measured on children that exit there, ten per timed sample;
* ``peak_rss_mb`` peak resident memory of the child.

Both times are in reference seconds: every process of the run is pinned
to one CPU, which it shares with the host-speed gauge of
``calibrator.py``, and each time is scaled by the gauge's speed over the
window it was taken in.  minflag is one single-threaded process that
computes and never waits, so its CPU time is its wall time on an idle
CPU.  The report line also carries
the unscaled CPU times and the gauge's unit times.

With ``--trace 1`` it alternates untraced and traced samples and reports
the per-layer metrics of the traced ones: calls and self time of every
public function in ``workloads.LAYERS``, self time per module, the
oracle's kept/examined ratio, the time outside every wrapped call, and
traced over untraced wall time.  The spans of the first traced sample
are written to ``perfbench/out/``.

An operation fails when it raises, when its verdict is FAIL, or when its
output differs from the reference; ``failed / attempted`` is the error
rate.  The operations are each (case, check) row of verify and its exit
code, each ``char_poly`` call, each emitted artifact, each Satake call,
and, on ``verify-sweep``, the untimed mutation guard, which must see
``cmd_verify(..., corrupt=True)`` fail.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

from calibrator import REFERENCE_UNIT_S, Calibrator, pin_to_one_cpu
from workloads import LAYERS, WORKLOADS, artifact_keys, make_payload

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
REFERENCE = os.path.join(HERE, "reference.json")
SPANS_DIR = os.path.join(HERE, "out")

# Setup-only children launched before each timed sample.  setup_s is
# the median over these alone, so it comes from one population of
# children that do nothing but set up, spread over the whole run.
SETUP_CHILDREN_PER_SAMPLE = 10

# Every child must end inside this budget, counted from the run's start,
# so that the whole run exits within 180 seconds.
HARD_LIMIT_S = 165.0


def per_layer_names() -> list[str]:
    names = []
    for module, functions in LAYERS.items():
        for func in functions:
            names += [f"{module}.{func}.calls", f"{module}.{func}.self_s"]
    names += [f"{module}.self_s" for module in LAYERS]
    names += ["qchev.oracle.kept_ratio", "trace.uncovered_s", "trace.overhead"]
    return names


def unit_of(name: str) -> str:
    if name.endswith(".calls"):
        return "count"
    if name.endswith("_s"):
        return "s"
    if name.endswith("_mb"):
        return "MB"
    return "ratio"


class Run:
    """One benchmark run: launches children and tallies operations."""

    def __init__(self, workload: str, seed: int, seconds: float, reference: dict):
        self.workload = workload
        self.seconds = seconds
        self.payload = make_payload(workload, seed)
        self.reference = reference
        self.start = time.monotonic()
        self.attempted = 0
        self.failed = 0

    def elapsed(self) -> float:
        return time.monotonic() - self.start

    def launch(self, mode: str, payload: dict) -> dict | None:
        """Run one child to completion; None if it failed or ran out of time."""
        budget = HARD_LIMIT_S - self.elapsed()
        if budget <= 0:
            return None
        try:
            proc = subprocess.run(
                [sys.executable, WORKER, mode, json.dumps(payload)],
                cwd=ROOT, capture_output=True, text=True, timeout=budget,
            )
        except subprocess.TimeoutExpired:
            print(f"child {mode} timed out", file=sys.stderr)
            return None
        if proc.returncode != 0:
            print(f"child {mode} exited {proc.returncode}:\n{proc.stderr}", file=sys.stderr)
            return None
        return json.loads(proc.stdout.strip().splitlines()[-1])

    def sample(self, mode: str, payload: dict) -> dict | None:
        out = self.launch(mode, payload)
        attempted, failed = check(self.workload, self.payload, out or {}, self.reference)
        self.attempted += attempted
        self.failed += failed
        return out

    def guard(self) -> None:
        """The mutation guard counts as one operation and is not timed."""
        out = self.launch("guard", {"workload": self.workload})
        g = (out or {}).get("guard", {})
        self.attempted += 1
        self.failed += not (g.get("rc") == 1 and g.get("fail_rows", 0) >= 1)

    def more(self, costs: list[float]) -> bool:
        """Start another sample only if it should end within --seconds."""
        return not costs or self.elapsed() + statistics.median(costs) <= self.seconds


def check(workload: str, payload: dict, out: dict, reference: dict) -> tuple[int, int]:
    """(attempted, failed) operations of one pass; a missing output fails."""
    if workload == "verify-sweep":
        want = {(case, name): status for case, name, status in map(str.split, reference["verify"])}
        got = {(case, name): status for case, name, status in out.get("rows", [])}
        keys = set(want) | set(got)
        failed = sum(1 for k in keys if not got.get(k) == want.get(k) == "ok")
        return len(keys) + 1, failed + (out.get("rc") != 0)
    polys = out.get("charpoly", {})
    failed = sum(
        1 for name in payload["charpoly"]
        if name not in polys or sorted(polys[name]) != sorted(reference["charpoly"].get(name, []))
    )
    keys = artifact_keys(payload)
    hashes = out.get("hashes", {})
    want = reference["artifacts"]
    failed += sum(1 for k in keys if k not in want or hashes.get(k) != want[k])
    return len(payload["charpoly"]) + len(keys), failed


def untraced(run: Run) -> tuple[dict, dict]:
    """Scaled samples of the end-to-end metrics, and the raw ones."""
    samples: dict[str, list[float]] = {"pass_s": [], "setup_s": [], "peak_rss_mb": []}
    raw: dict[str, list[float]] = {"pass_cpu_s": [], "setup_cpu_s": [], "unit_s": []}
    costs: list[float] = []
    with Calibrator() as gauge:
        while run.more(costs):
            began = time.monotonic()
            mark = gauge.mark()
            setups = [out["setup_cpu_s"] for out in (
                run.launch("setup", run.payload) for _ in range(SETUP_CHILDREN_PER_SAMPLE)
            ) if out]
            setup_unit = gauge.unit_s(mark)
            mark = gauge.mark()
            out = run.sample("sample", run.payload)
            if out is None:
                break
            pass_unit = gauge.unit_s(mark)
            costs.append(time.monotonic() - began)
            raw["setup_cpu_s"] += setups
            raw["pass_cpu_s"].append(out["pass_cpu_s"])
            raw["unit_s"] += [setup_unit, pass_unit]
            samples["setup_s"] += [t * REFERENCE_UNIT_S / setup_unit for t in setups]
            samples["pass_s"].append(out["pass_cpu_s"] * REFERENCE_UNIT_S / pass_unit)
            samples["peak_rss_mb"].append(out["peak_rss_mb"])
    return {name: values for name, values in samples.items() if values}, raw


def traced(run: Run) -> dict:
    os.makedirs(SPANS_DIR, exist_ok=True)
    spans_out = os.path.join(SPANS_DIR, f"spans-{run.workload}.json.gz")
    plain, layered, costs = [], [], []
    while run.more(costs):
        began = time.monotonic()
        out = run.sample("sample", run.payload)
        if out is None:
            break
        plain.append(out["wall_s"])
        payload = dict(run.payload, spans_out=spans_out if not layered else None)
        out = run.sample("trace", payload)
        if out is None:
            break
        layered.append(out)
        costs.append(time.monotonic() - began)
    if not layered:
        return {}
    samples: dict[str, list[float]] = {name: [] for name in per_layer_names()}
    for out in layered:
        tr = out["trace"]
        module_self = dict.fromkeys(LAYERS, 0.0)
        for module, functions in LAYERS.items():
            for func in functions:
                name = f"{module}.{func}"
                samples[f"{name}.calls"].append(tr["calls"].get(name, 0))
                self_s = tr["self_s"].get(name, 0.0)
                samples[f"{name}.self_s"].append(self_s)
                module_self[module] += self_s
        for module, total in module_self.items():
            samples[f"{module}.self_s"].append(total)
        oracle = tr["oracle"]
        kept = oracle["kept"] / oracle["examined"] if oracle["examined"] else 0.0
        samples["qchev.oracle.kept_ratio"].append(kept)
        samples["trace.uncovered_s"].append(out["wall_s"] - tr["covered_s"])
        samples["trace.overhead"].append(out["wall_s"] / statistics.median(plain))
    return samples


def environment() -> dict:
    return {
        "python": f"{platform.python_implementation()} {platform.python_version()}",
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "pinned_cpu": sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "git_sha": _git_sha(),
    }


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_sha() -> str | None:
    """The checked-out commit, or None outside a git repository."""
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
    except OSError:
        return None
    return proc.stdout.strip() or None


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "minflag", "__init__.py")):
        print(f"no minflag sources under {ROOT}/src", file=sys.stderr)
        return 2
    with open(REFERENCE, encoding="utf-8") as fh:
        reference = json.load(fh)

    pin_to_one_cpu()
    run = Run(args.workload, args.seed, args.seconds, reference)
    if args.workload == "verify-sweep":
        run.guard()
    if args.trace:
        samples, raw = traced(run), {}
    else:
        samples, raw = untraced(run)
    expected = per_layer_names() if args.trace else ["pass_s", "setup_s", "peak_rss_mb"]
    if run.attempted == 0 or any(name not in samples for name in expected):
        print("no complete sample; no result", file=sys.stderr)
        return 1

    metrics = {
        name: {"value": statistics.median(samples[name]), "unit": unit_of(name)}
        for name in expected
    }
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "inputs": run.payload,
        "environment": environment(),
        "samples": {name: len(samples[name]) for name in expected},
        "values": {name: samples[name] for name in expected},
        "raw_values": raw,
        "error_rate": run.failed / run.attempted,
        "elapsed_s": run.elapsed(),
    }
    print(json.dumps({"report": report}))
    print(json.dumps({
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
