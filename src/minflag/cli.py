"""Command-line front end: verification sweeps and artifact emission.

Subcommands:

* ``verify``  runs the full battery of structural checks over every
  minuscule case in the configured sweep and prints a pass/fail table.
  Exit 0 iff everything passes, 1 on any failed check, 2 on a
  configuration error.
* ``emit``    writes one artifact (orbit, crystal graph, quantum
  operator, multiplication table, or Toda dictionary bundle) as JSON,
  or the crystal graph as DOT.  Output is byte-deterministic.
* ``satake``  runs the type-A wedge similarity for (n, k), printing the
  discovered sign vector, or the D-family half-wedge dimension check.

JSON schema notes: polynomials are arrays of [exponent, coefficient]
pairs with the coefficient as a decimal string (arbitrary precision
survives any JSON reader); weights are integer arrays; rationals are
strings like "-1" or "1/3"; every top-level object carries family,
rank, weight_index, s and orbit_size.
"""
from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass, field
from fractions import Fraction
from math import comb
from typing import Optional, Sequence, TextIO

from . import minrep, qchev, satake, ttstar
from .minrep import Poly, PolyMatrix
from .rootsys import LieType, Weight, build, minuscule_weights
from .weylorbit import Orbit, crystal_edges, orbit

_MIN_SWEEP_RANK = {"A": 1, "B": 2, "C": 2, "D": 3}


@dataclass
class SweepConfig:
    """Which classical ranks to sweep, and whether E6/E7 join in."""

    max_rank: dict[str, int] = field(
        default_factory=lambda: {"A": 6, "B": 5, "C": 5, "D": 6}
    )
    include_exceptional: bool = True

    def validate(self) -> None:
        for fam, lo in _MIN_SWEEP_RANK.items():
            if self.max_rank.get(fam, lo) < lo:
                raise ConfigError(f"max rank for {fam} must be at least {lo}")
        for fam in self.max_rank:
            if fam not in _MIN_SWEEP_RANK:
                raise ConfigError(f"unknown sweep family {fam!r}")


class ConfigError(ValueError):
    pass


def sweep_cases(config: Optional[SweepConfig] = None) -> list[tuple[LieType, int]]:
    """All minuscule (type, weight index) pairs of the configured sweep."""
    config = config or SweepConfig()
    config.validate()
    cases: list[tuple[LieType, int]] = []
    types: list[LieType] = []
    for fam in ("A", "B", "C", "D"):
        lo = _MIN_SWEEP_RANK[fam]
        for rank in range(lo, config.max_rank[fam] + 1):
            types.append(LieType(fam, rank))
    if config.include_exceptional:
        types.append(LieType("E", 6))
        types.append(LieType("E", 7))
    for lt in types:
        rs = build(lt)
        for i in minuscule_weights(rs):
            cases.append((lt, i))
    return cases


def expected_orbit_size(lt: LieType, i: int) -> int:
    """Closed-form orbit sizes, kept as an oracle against the BFS count."""
    n = lt.rank
    if lt.family == "A":
        return comb(n + 1, i)
    if lt.family == "B" and i == n:
        return 2**n
    if lt.family == "C" and i == 1:
        return 2 * n
    if lt.family == "D":
        if i == 1:
            return 2 * n
        if i in (n - 1, n):
            return 2 ** (n - 1)
    if lt.family == "E" and n == 6 and i in (1, 6):
        return 27
    if lt.family == "E" and n == 7 and i == 1:
        return 56
    raise ValueError(f"no closed-form size for ({lt}, {i})")


_EXPECTED_COXETER = {
    "A": lambda n: n + 1,
    "B": lambda n: 2 * n,
    "C": lambda n: 2 * n,
    "D": lambda n: 2 * n - 2,
    "E": lambda n: {6: 12, 7: 18, 8: 30}[n],
}


# -- verification sweep --------------------------------------------------------


def _case_checks(orb: Orbit, corrupt: bool) -> list[tuple[str, bool, str]]:
    """All per-case checks as (name, ok, detail) rows."""
    rs = orb.rs
    lt = rs.lie_type
    rows: list[tuple[str, bool, str]] = []

    want = expected_orbit_size(lt, orb.weight_index)
    rows.append(("orbit-size", orb.size == want, f"{orb.size} vs {want}"))

    rep = minrep.verify_rep_relations(orb)
    rows.append(("rep-relations", rep.ok, rep.failure or f"{rep.checks} brackets"))

    operator = minrep.quantum_operator(orb)
    if corrupt:
        operator = _corrupted(orb, operator)
    closed = qchev.quantum_product_matrix(orb)
    # One oracle pass feeds both the main-theorem and the survivor rows.
    # The oracle reports a broken classification by raising
    # AssertionError, and a target outside the orbit by ValueError.
    try:
        oracle, survivors = qchev.fw_oracle_pass(orb)
    except (AssertionError, ValueError) as exc:
        oracle_error = f"oracle route failed: {type(exc).__name__}: {exc}"
        oracle = survivors = None
    if oracle is None:
        rows.append(("main-theorem", False, oracle_error))
    else:
        mismatch = qchev.first_mismatch(
            orb, operator, (("closed-form product", closed), ("oracle product", oracle))
        )
        rows.append(("main-theorem", mismatch is None, mismatch or "three routes entrywise equal"))

    rows.append(("frobenius", qchev.frobenius_check(orb, operator), "A^T G = G A"))
    rows.append(("grading", qchev.grading_check(orb, operator), "deg q = s homogeneity"))

    s = rs.coxeter_number
    expect_s = _EXPECTED_COXETER[lt.family](lt.rank)
    cox_ok = s == expect_s and all(
        qchev.n_alpha(rs, orb.weight_index, alpha) == s
        for alpha in qchev.divisor_complement(orb)
    )
    rows.append(("coxeter-identity", cox_ok, f"n_alpha = s = {s}"))

    rows.append(("trichotomy", qchev.trichotomy_check(orb), "pairing/length cases"))

    if survivors is None:
        survivors_ok, detail = False, oracle_error
    else:
        survivors_ok, detail = True, "classification holds"
        for el, stats in zip(orb.elements, survivors):
            if stats.candidates != orb.dim_complex or stats.quantum > 1:
                survivors_ok, detail = False, f"unexpected survivor counts at {el.weight}"
                break
    rows.append(("oracle-survivors", survivors_ok, detail))
    return rows


def _corrupted(orb: Orbit, operator: PolyMatrix) -> PolyMatrix:
    """Delete one detectable edge: the mutation self-test must trip the checks."""
    from .weylorbit import poincare_dual

    for (i, j, p) in operator.nonzero():
        di = orb.index_of[poincare_dual(orb, orb.elements[j].weight)]
        dj = orb.index_of[poincare_dual(orb, orb.elements[i].weight)]
        if (di, dj) != (i, j):
            return operator.with_entry(i, j, 0)
    return operator.with_entry(*next(iter((i, j) for i, j, _ in operator.nonzero())), 0)


def cmd_verify(config: SweepConfig, corrupt: bool = False, out: TextIO = sys.stdout) -> int:
    cases = sweep_cases(config)
    failures = 0
    total = 0
    width = max(len(f"{lt}/w{i}") for lt, i in cases) + 2
    for lt, i in cases:
        orb = orbit(build(lt), i)
        for name, ok, detail in _case_checks(orb, corrupt):
            total += 1
            if not ok:
                failures += 1
            status = "ok" if ok else "FAIL"
            print(f"{str(lt) + '/w' + str(i):<{width}} {name:<18} {status:<5} {detail}", file=out)
    print(
        f"SUMMARY: {len(cases)} cases, {total} checks, {failures} failures",
        file=out,
    )
    if corrupt:
        print("self-test: corruption injected, failures above are expected", file=out)
    return 1 if failures else 0


# -- emission -------------------------------------------------------------------


def _frac(x: Fraction) -> str:
    return str(x)


def _poly_json(p: Poly) -> list:
    return [[e, str(c)] for e, c in p.items()]


def _matrix_json(m: PolyMatrix) -> list:
    return [[_poly_json(p) for p in row] for row in m.rows()]


def _weight_json(w: Weight) -> list[int]:
    return list(w.pairings)


def _weight_key(w: Weight) -> str:
    return ",".join(str(p) for p in w.pairings)


def _header(orb: Orbit) -> dict:
    lt = orb.rs.lie_type
    return {
        "family": lt.family,
        "rank": lt.rank,
        "weight_index": orb.weight_index,
        "s": orb.rs.coxeter_number,
        "orbit_size": orb.size,
    }


def _psi_edges(orb: Orbit) -> list[tuple[Weight, Weight]]:
    out = []
    for (i, j, _p) in minrep.psi_raising_matrix(orb).nonzero():
        out.append((orb.elements[j].weight, orb.elements[i].weight))
    return out


def emit_payload(orb: Orbit, what: str) -> dict:
    doc = _header(orb)
    if what == "orbit":
        doc["dim_complex"] = orb.dim_complex
        doc["elements"] = [
            {"weight": _weight_json(el.weight), "length": el.length, "word": list(el.word)}
            for el in orb.elements
        ]
    elif what == "crystal":
        doc["edges"] = [
            {"source": _weight_json(a), "label": j, "target": _weight_json(b)}
            for a, j, b in crystal_edges(orb)
        ]
        doc["psi_edges"] = [
            {"source": _weight_json(a), "target": _weight_json(b)}
            for a, b in _psi_edges(orb)
        ]
    elif what == "amatrix":
        doc["basis"] = [_weight_json(el.weight) for el in orb.elements]
        doc["matrix"] = _matrix_json(minrep.quantum_operator(orb))
    elif what == "qtable":
        table = {}
        for el in orb.elements:
            terms = qchev.chevalley_closed(orb, qchev.SchubertClass(el.weight))
            table[_weight_key(el.weight)] = [
                {
                    "target": _weight_json(t.target.weight),
                    "q_power": t.q_power,
                    "coefficient": str(t.coefficient),
                }
                for t in terms
            ]
        doc["table"] = table
    elif what == "ttstar":
        sol = ttstar.distinguished_solution(orb.rs, orb.weight_index)
        doc["m"] = [_frac(v) for v in sol.m.values]
        doc["alcove"] = [_frac(c) for c in sol.alcove.coords]
        doc["dpw_k"] = [_frac(k) for k in sol.dpw.k]
        doc["sigma_fixed"] = ttstar.sigma_fixed(orb.rs, sol.m)
        form = ttstar.dubrovin_form(orb)
        doc["connection_form"] = form.connection_form
        doc["variable_change"] = form.variable_change
        doc["basis"] = [_weight_json(el.weight) for el in orb.elements]
        doc["matrix"] = _matrix_json(sol.operator)
    else:
        raise ConfigError(f"unknown emission target {what!r}")
    return doc


def emit_dot(orb: Orbit) -> str:
    lines = [f"digraph crystal_{orb.rs.lie_type}_w{orb.weight_index} {{"]
    for el in orb.elements:
        key = _weight_key(el.weight)
        lines.append(f'  "{key}" [label="({key})"];')
    for a, j, b in crystal_edges(orb):
        lines.append(f'  "{_weight_key(a)}" -> "{_weight_key(b)}" [label="{j}"];')
    for a, b in _psi_edges(orb):
        lines.append(f'  "{_weight_key(a)}" -> "{_weight_key(b)}" [label="psi", style=dashed];')
    lines.append("}")
    return "\n".join(lines) + "\n"


def cmd_emit(
    family: str, rank: int, weight: int, what: str, fmt: str, out: TextIO = sys.stdout
) -> int:
    try:
        lt = LieType(family, rank)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    rs = build(lt)
    if weight not in minuscule_weights(rs):
        raise ConfigError(f"fundamental weight {weight} of {lt} is not minuscule")
    orb = orbit(rs, weight)
    if fmt == "dot":
        if what != "crystal":
            raise ConfigError("dot output is only available for the crystal graph")
        out.write(emit_dot(orb))
    elif fmt == "json":
        out.write(json.dumps(emit_payload(orb, what), indent=2) + "\n")
    else:
        raise ConfigError(f"unsupported format {fmt!r}")
    return 0


# -- satake ----------------------------------------------------------------------


def cmd_satake(
    n: Optional[int] = None,
    k: Optional[int] = None,
    family: Optional[str] = None,
    rank: Optional[int] = None,
    fmt: str = "text",
    out: TextIO = sys.stdout,
) -> int:
    if fmt not in ("text", "json"):
        raise ConfigError(f"unsupported format {fmt!r}")
    if family is not None:
        if family != "D":
            raise ConfigError("dimension identities are only defined for family D")
        if rank is None or rank < 3:
            raise ConfigError("family D needs a rank of at least 3")
        rep = satake.half_wedge_dims(rank)
        if fmt == "json":
            out.write(json.dumps({
                "kind": "half-wedge-dims",
                "rank": rep.n,
                "wedge_total": rep.wedge_total,
                "endo_total": rep.endo_total,
                "quadric_orbit_size": rep.quadric_orbit_size,
                "spinor_orbit_size": rep.spinor_orbit_size,
                "pass": rep.ok,
            }, indent=2) + "\n")
        else:
            print(
                f"half-wedge D{rep.n}: wedge_total={rep.wedge_total} "
                f"endo_total={rep.endo_total} quadric_orbit={rep.quadric_orbit_size} "
                f"spinor_orbit={rep.spinor_orbit_size}",
                file=out,
            )
            print("PASS" if rep.ok else "FAIL", file=out)
        return 0 if rep.ok else 1
    if n is None or k is None:
        raise ConfigError("either --n and --k, or --family D --rank N, are required")
    if not 1 <= k <= n:
        raise ConfigError(f"need 1 <= k <= n, got n={n} k={k}")
    try:
        diag = satake.satake_similarity(n, k)
    except satake.SignSimilarityError as exc:
        if fmt == "json":
            out.write(json.dumps({
                "kind": "wedge-similarity",
                "n": n, "k": k,
                "pass": False,
                "failure": str(exc),
                "witness_kind": exc.kind,
                "witness_cycle": list(exc.cycle) if exc.cycle else None,
            }, indent=2) + "\n")
        else:
            print(f"FAIL: {exc}", file=out)
        return 1
    if fmt == "json":
        out.write(json.dumps({
            "kind": "wedge-similarity",
            "n": n, "k": k,
            "dimension": len(diag.signs),
            "signs": list(diag.signs),
            "pass": True,
        }, indent=2) + "\n")
    else:
        print(f"wedge similarity A{n}, k={k}: dimension {len(diag.signs)}", file=out)
        print("sign vector: " + " ".join("+1" if s > 0 else "-1" for s in diag.signs), file=out)
        print("PASS", file=out)
    return 0


# -- argument parsing --------------------------------------------------------------


def _load_config_file(path: str) -> dict[str, str]:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.read().splitlines()
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path!r}: {exc.strerror or exc}") from exc
    values: dict[str, str] = {}
    for raw in lines:
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"bad config line {line!r}")
        key, _, val = line.partition("=")
        values[key.strip()] = val.strip()
    return values


def _sweep_config(args: argparse.Namespace) -> SweepConfig:
    config = SweepConfig()
    if args.config:
        for key, val in _load_config_file(args.config).items():
            if key.startswith("max-rank-"):
                fam = key[len("max-rank-"):]
                if fam not in _MIN_SWEEP_RANK:
                    raise ConfigError(f"unknown config key {key!r}")
                config.max_rank[fam] = int(val)
            elif key == "include-exceptional":
                if val.lower() not in ("true", "false"):
                    raise ConfigError(f"include-exceptional must be true or false, got {val!r}")
                config.include_exceptional = val.lower() == "true"
            else:
                raise ConfigError(f"unknown config key {key!r}")
    for fam in _MIN_SWEEP_RANK:
        flag = getattr(args, f"max_rank_{fam}")
        if flag is not None:
            config.max_rank[fam] = flag
    if args.skip_exceptional:
        config.include_exceptional = False
    config.validate()
    return config


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="minflag",
        description="Exact quantum Chevalley calculus on minuscule flag manifolds",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_verify = sub.add_parser("verify", help="run the verification sweep")
    for fam in ("A", "B", "C", "D"):
        p_verify.add_argument(f"--max-rank-{fam}", type=int, default=None, dest=f"max_rank_{fam}")
    p_verify.add_argument("--skip-exceptional", action="store_true")
    p_verify.add_argument("--config", type=str, default=None, help="key=value config file")
    p_verify.add_argument(
        "--self-test-corrupt",
        action="store_true",
        help="inject a deleted edge and demonstrate that the checks catch it",
    )

    p_emit = sub.add_parser("emit", help="emit one artifact to stdout")
    p_emit.add_argument("--family", required=True, choices=list("ABCDEFG"))
    p_emit.add_argument("--rank", required=True, type=int)
    p_emit.add_argument("--weight", required=True, type=int)
    p_emit.add_argument(
        "--what", required=True, choices=["orbit", "crystal", "amatrix", "qtable", "ttstar"]
    )
    p_emit.add_argument("--format", default="json", choices=["json", "dot"])

    p_satake = sub.add_parser("satake", help="wedge similarity or half-wedge dimensions")
    p_satake.add_argument("--n", type=int, default=None)
    p_satake.add_argument("--k", type=int, default=None)
    p_satake.add_argument("--family", type=str, default=None, choices=["D"])
    p_satake.add_argument("--rank", type=int, default=None)
    p_satake.add_argument("--format", default="text", choices=["text", "json"])
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "verify":
            config = _sweep_config(args)
            return cmd_verify(config, corrupt=args.self_test_corrupt)
        if args.command == "emit":
            return cmd_emit(args.family, args.rank, args.weight, args.what, args.format)
        if args.command == "satake":
            return cmd_satake(args.n, args.k, args.family, args.rank, fmt=args.format)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    raise AssertionError("unreachable")


if __name__ == "__main__":
    sys.exit(main())
