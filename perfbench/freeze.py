"""Regenerate the frozen entries of ``reference.json`` from the current code.

Usage (from the repository root): python3 perfbench/freeze.py

The characteristic polynomials of E6/w1 and E7/w1 are written by hand
below and are never taken from the program; every other entry is the
program's own output at the commit this runs on.  Rerun only when an
output is meant to change, and review the diff of reference.json.
"""
from __future__ import annotations

import json
import sys

from run import REFERENCE, Run
from workloads import CHARPOLY_CASES, WORKLOADS

# det(x - A(q)) as [x exponent, q exponent, coefficient] terms.
HAND_WRITTEN_CHARPOLY = {
    # x^27 - 270 q x^15 - 27 q^2 x^3
    "E6/w1": [[27, 0, 1], [15, 1, -270], [3, 2, -27]],
    # x^56 - 29496 q x^38 + 401808 q^2 x^20 - 64 q^3 x^2
    "E7/w1": [[56, 0, 1], [38, 1, -29496], [20, 2, 401808], [2, 3, -64]],
}


def main() -> int:
    outputs = {}
    for workload in WORKLOADS:
        run = Run(workload, 0, 0, reference={})
        out = run.launch("sample", run.payload)
        if out is None:
            return 1
        outputs[workload] = out
    charpoly = {
        name: sorted(terms, reverse=True)
        for name, terms in outputs["charpoly-artifacts"]["charpoly"].items()
        if name not in HAND_WRITTEN_CHARPOLY
    }
    charpoly.update(HAND_WRITTEN_CHARPOLY)
    reference = {
        "verify": [" ".join(row) for row in outputs["verify-sweep"]["rows"]],
        "charpoly": {name: charpoly[name] for name in CHARPOLY_CASES},
        "artifacts": dict(sorted(outputs["charpoly-artifacts"]["hashes"].items())),
    }
    with open(REFERENCE, "w", encoding="utf-8") as fh:
        json.dump(reference, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
