"""What each benchmark workload is made of.

The case lists are fixed: they define the workloads and are not tuned.
The seed only permutes the order in which ``charpoly-artifacts`` visits
its cases.  This module imports nothing from minflag, so the parent
process can draw the inputs without loading the package.

Why these workloads:

* ``verify-sweep`` is what users run: ``cmd_verify`` on the default
  sweep.  The oracle route, ``length`` and ``pair`` do almost all the
  work and ``char_poly`` never runs.
* ``charpoly-artifacts`` is the library work outside verification, and
  never calls the oracle or ``length``.  It takes ``char_poly`` of A(q)
  on four orbits, where Berkowitz over polynomial entries does most of
  the work.  It then emits every artifact of every default-sweep case
  plus three large orbits and runs the Satake checks, which share
  ``build``, ``pair``, A(q) and the closed route with ``verify-sweep``.
  Work moved into ``build``/``orbit`` or into serialization shows here.
  The two parts are one workload, not two, because the emit part alone
  (about 2 s a pass) is memory-bound and its run medians swung by 1.7x
  between runs on the 2-core host the benchmark was tuned on, beyond
  any bound the benchmark can fix.
"""
from __future__ import annotations

import random

WORKLOADS = ("verify-sweep", "charpoly-artifacts")

# The 44 cases of the default SweepConfig, in sweep order.
SWEEP_CASES = (
    [f"A{n}/w{i}" for n in range(1, 7) for i in range(1, n + 1)]
    + [f"B{n}/w{n}" for n in range(2, 6)]
    + [f"C{n}/w1" for n in range(2, 6)]
    + ["D3/w1", "D3/w2", "D3/w3"]
    + [f"D{n}/w{i}" for n in range(4, 7) for i in (1, n - 1, n)]
    + ["E6/w1", "E6/w6", "E7/w1"]
)

CHARPOLY_CASES = ["A6/w3", "D6/w6", "E6/w1", "E7/w1"]

ARTIFACT_CASES = SWEEP_CASES + ["D8/w8", "B8/w8", "A9/w5"]

# The emit targets, as (what, format).
EMIT_TARGETS = [
    ("orbit", "json"), ("crystal", "json"), ("crystal", "dot"),
    ("amatrix", "json"), ("qtable", "json"), ("ttstar", "json"),
]

SATAKE_PAIRS = [[n, k] for n in range(2, 10) for k in range(1, n + 1)]

HALF_WEDGE_RANKS = list(range(3, 12))

# The small sweep the mutation guard corrupts.
GUARD_MAX_RANK = {"A": 2, "B": 2, "C": 2, "D": 3}

# The layers the trace reports: the package's modules and their public
# functions.
LAYERS = {
    "rootsys": ["build", "pair", "reflect"],
    "weylorbit": ["orbit", "length", "apply_word", "poincare_dual", "crystal_edges"],
    "minrep": [
        "quantum_operator", "lowering_matrix", "psi_raising_matrix",
        "verify_rep_relations", "char_poly",
    ],
    "qchev": [
        "chevalley_fw_oracle", "fw_oracle_matrix", "oracle_survivors",
        "quantum_product_matrix", "chevalley_closed", "divisor_complement",
        "n_alpha", "frobenius_check", "grading_check", "trichotomy_check",
    ],
    "satake": ["wedge_matrix", "sign_similarity", "satake_similarity", "half_wedge_dims"],
    "ttstar": ["distinguished_solution", "dubrovin_form"],
    "cli": ["cmd_verify", "cmd_emit", "emit_payload", "emit_dot"],
}


def make_payload(workload: str, seed: int) -> dict:
    """The inputs of one run, drawn from the seed."""
    rng = random.Random(seed)

    def shuffled(items: list) -> list:
        items = list(items)
        rng.shuffle(items)
        return items

    if workload == "verify-sweep":
        return {"workload": workload}
    if workload == "charpoly-artifacts":
        return {
            "workload": workload,
            "charpoly": shuffled(CHARPOLY_CASES),
            "cases": shuffled(ARTIFACT_CASES),
            "satake": shuffled(SATAKE_PAIRS),
            "half_wedge": shuffled(HALF_WEDGE_RANKS),
        }
    raise ValueError(f"unknown workload {workload!r}")


def artifact_keys(payload: dict) -> list[str]:
    """The name of every artifact and Satake output a pass must produce."""
    keys = [f"{name}:{what}.{fmt}" for name in payload["cases"] for what, fmt in EMIT_TARGETS]
    keys += [f"satake:{n},{k}" for n, k in payload["satake"]]
    keys += [f"half_wedge:{n}" for n in payload["half_wedge"]]
    return keys
