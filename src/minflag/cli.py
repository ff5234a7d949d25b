"""Command-line front end: verification sweeps and artifact emission.

Subcommands:

* ``verify``  builds A(q) once for every minuscule case in the
  configured sweep, runs every row of ``ROWS`` on it (one library
  check each, returning one ``minrep.Check``) and prints a pass/fail
  table.  Exit 0 iff everything passes, 1 on any failed check, 2 on a
  configuration error.
* ``emit``    writes one artifact (orbit, crystal graph, quantum
  operator, multiplication table, or Toda dictionary bundle) as JSON,
  or the crystal graph as DOT.
* ``satake``  runs the type-A wedge similarity for (n, k), printing the
  discovered sign vector, or the D-family half-wedge dimension check.

Every JSON document the CLI prints comes from one writer, ``json_text``:
byte for byte the text ``json.dumps(..., indent=2)`` makes of the
document, each Weight as its pairings list, and the dense A(q) array
of ``amatrix`` and ``ttstar`` written from the matrix's nonzero
entries, each distinct entry formatted once.

JSON schema notes: polynomials are arrays of [exponent, coefficient]
pairs with the coefficient as a decimal string (arbitrary precision
survives any JSON reader); weights are integer arrays; rationals are
strings like "-1" or "1/3"; a matrix is the dense n x n array of
polynomials in basis order, zero entries as []; every top-level object
carries family, rank, weight_index, s and orbit_size.
"""
from __future__ import annotations

import argparse
import sys
from dataclasses import dataclass, field
from json.encoder import encode_basestring_ascii
from typing import Optional, Sequence, TextIO

from . import minrep, qchev, satake, ttstar, weylorbit
from .minrep import Check, PolyMatrix
from .rootsys import FAMILIES, LieType, Weight, build, minuscule_weights
from .weylorbit import Orbit, crystal_edges, dual_positions, expected_orbit_size, orbit

_MIN_SWEEP_RANK = {"A": 1, "B": 2, "C": 2, "D": 3}


@dataclass
class SweepConfig:
    """Which classical ranks to sweep, and whether E6/E7 join in."""

    max_rank: dict[str, int] = field(
        default_factory=lambda: {"A": 6, "B": 5, "C": 5, "D": 6}
    )
    include_exceptional: bool = True

    def validate(self) -> None:
        for fam in self.max_rank:
            if fam not in _MIN_SWEEP_RANK:
                raise ConfigError(f"unknown sweep family {fam!r}")
        for fam, lo in _MIN_SWEEP_RANK.items():
            if fam not in self.max_rank:
                raise ConfigError(f"max rank for {fam} is missing")
            rank = self.max_rank[fam]
            if not isinstance(rank, int) or isinstance(rank, bool):
                raise ConfigError(f"max rank for {fam} must be an integer, got {rank!r}")
            if rank < lo:
                raise ConfigError(f"max rank for {fam} must be at least {lo}")
        if not isinstance(self.include_exceptional, bool):
            raise ConfigError(f"include_exceptional must be a bool, got {self.include_exceptional!r}")


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


# -- verification sweep --------------------------------------------------------


def _orbit_size_check(orb: Orbit) -> Check:
    """The BFS orbit size equals the closed form of ``weylorbit.expected_orbit_size``."""
    want = expected_orbit_size(orb.rs.lie_type, orb.weight_index)
    return Check(orb.size == want, f"{orb.size} vs {want}")


# The rows of ``verify`` in print order, as (name, check(orb, operator) -> Check).
# Each entry looks its check up in the module at call time, so a replaced
# module attribute, such as a test's monkeypatch or a tracer's wrapper, is
# the one that runs.
ROWS = (
    ("orbit-size", lambda orb, a: _orbit_size_check(orb)),
    ("rep-relations", lambda orb, a: minrep.verify_rep_relations(orb)),
    ("main-theorem", lambda orb, a: qchev.main_theorem_check(orb, a)),
    ("frobenius", lambda orb, a: qchev.frobenius_check(orb, a)),
    ("grading", lambda orb, a: qchev.grading_check(orb, a)),
    ("coxeter-identity", lambda orb, a: qchev.coxeter_check(orb)),
    ("trichotomy", lambda orb, a: qchev.trichotomy_check(orb)),
    ("oracle-survivors", lambda orb, a: qchev.survivor_check(orb)),
)


def delete_detectable_edge(orb: Orbit, operator: PolyMatrix) -> PolyMatrix:
    """Delete the first edge in row order whose Poincare-dual partner is another entry, else the first."""
    dual = dual_positions(orb)
    keys = sorted(operator.entries)
    i, j = next(((i, j) for i, j in keys if (dual[j], dual[i]) != (i, j)), keys[0])
    return operator.with_entry(i, j, {})


def cmd_verify(config: SweepConfig, corrupt: bool = False, out: TextIO = sys.stdout) -> int:
    """Run every row of ``ROWS`` on each case's A(q), or on its corrupted copy."""
    cases = sweep_cases(config)
    failures = 0
    width = max(len(f"{lt}/w{i}") for lt, i in cases) + 2
    for lt, i in cases:
        orb = orbit(build(lt), i)
        operator = minrep.quantum_operator(orb)
        if corrupt:
            operator = delete_detectable_edge(orb, operator)
        for name, row in ROWS:
            check = row(orb, operator)
            if not check:
                failures += 1
            status = "ok" if check else "FAIL"
            print(f"{str(lt) + '/w' + str(i):<{width}} {name:<18} {status:<5} {check.detail}", file=out)
    print(
        f"SUMMARY: {len(cases)} cases, {len(cases) * len(ROWS)} checks, {failures} failures",
        file=out,
    )
    if corrupt:
        print("self-test: corruption injected, failures above are expected", file=out)
    return 1 if failures else 0


# -- emission -------------------------------------------------------------------


def json_text(doc: dict) -> str:
    """The ``json.dumps(doc, indent=2)`` text of a plain document.

    Values are dicts with ``str`` keys, lists, ``str``, ``int``, ``bool``
    and ``None``.  A Weight is written as its pairings list; a PolyMatrix
    as its dense n x n array of [exponent, coefficient-string] pair lists,
    zero entries as ``[]``.  Anything else, a non-``str`` key included,
    raises ``TypeError``.
    """
    return _value_text(doc, "")


_JUST_INT = {int}


def _value_text(v: object, pad: str) -> str:
    """The indent=2 JSON text of v, for a value whose line is indented by pad."""
    t = type(v)
    if t is str:
        return encode_basestring_ascii(v)
    if t is int:
        return int.__repr__(v)
    inner = pad + "  "
    if t is Weight:  # int pairings
        if not v.pairings:
            return "[]"
        body = f",\n{inner}".join(map(int.__repr__, v.pairings))
        return f"[\n{inner}{body}\n{pad}]"
    if t is dict:
        if not v:
            return "{}"
        items = []
        for key, x in v.items():
            if type(key) is not str:
                raise TypeError(f"keys must be str, not {type(key).__name__}")
            items.append(f"{inner}{encode_basestring_ascii(key)}: {_value_text(x, inner)}")
        body = ",\n".join(items)
        del items  # dropped before the braces go on, so the text is held at most twice
        return f"{{\n{body}\n{pad}}}"
    if t is list:
        if not v:
            return "[]"
        if {*map(type, v)} == _JUST_INT:
            body = f",\n{inner}".join(map(int.__repr__, v))
            return f"[\n{inner}{body}\n{pad}]"
        body = ",\n".join(inner + _value_text(x, inner) for x in v)
        return f"[\n{body}\n{pad}]"
    if v is True:
        return "true"
    if v is False:
        return "false"
    if v is None:
        return "null"
    if t is PolyMatrix:
        return _matrix_text(v, pad)
    raise TypeError(f"Object of type {t.__name__} is not JSON serializable")


def _matrix_text(m: PolyMatrix, pad: str) -> str:
    """The indent=2 JSON text of m's dense rows, for a value whose line is indented by pad.

    Each distinct entry is formatted once and its text reused in every
    cell that holds it (A(q) has two: 1 and q).
    """
    if not m.n:
        return "[]"
    row_pad, cell_pad = pad + "  ", pad + "    "
    pair_pad, item_pad = cell_pad + "  ", cell_pad + "    "
    zero = cell_pad + "[]"
    rows = [[zero] * m.n for _ in range(m.n)]
    texts: dict[tuple[tuple[int, int], ...], str] = {}
    for (i, j), coeffs in m.entries.items():
        key = tuple(sorted(coeffs.items()))
        text = texts.get(key)
        if text is None:
            pairs = ",\n".join(f'{pair_pad}[\n{item_pad}{e},\n{item_pad}"{c}"\n{pair_pad}]' for e, c in key)
            text = texts[key] = f"{cell_pad}[\n{pairs}\n{cell_pad}]"
        rows[i][j] = text
    # each row's cells give way to its text as it is made, and the row
    # texts go before the brackets go on: the text is held at most twice
    for i, cells in enumerate(rows):
        rows[i] = f"{row_pad}[\n" + ",\n".join(cells) + f"\n{row_pad}]"
    body = ",\n".join(rows)
    del rows
    return f"[\n{body}\n{pad}]"


def _weight_key(w: Weight) -> str:
    return ",".join(map(str, w.pairings))


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
    """The E_psi = E-(0) edges (source, target), in (target, source) order."""
    w, psi = orb.elements, weylorbit.lowering_maps(orb)[0]
    return [(w[c].weight, w[t].weight) for t, c in sorted((t, c) for c, (t, _v) in psi.items())]


def emit_payload(orb: Orbit, what: str) -> dict:
    """The document of one emission target; ``json_text`` writes it.

    Every value is plain JSON data except the orbit's Weights and
    "matrix", which ``amatrix`` and ``ttstar`` read from
    ``minrep.quantum_operator(orb)``: the PolyMatrix A(q) itself, the one
    object kept for the orbit; read it, do not change it.  The rest of
    ``ttstar`` comes from the plain tuples of
    ``ttstar.distinguished_solution``.
    """
    doc = _header(orb)
    if what == "orbit":
        doc["dim_complex"] = orb.dim_complex
        doc["elements"] = [
            {"weight": el.weight, "length": el.length, "word": list(el.word)}
            for el in orb.elements
        ]
    elif what == "crystal":
        doc["edges"] = [
            {"source": a, "label": j, "target": b}
            for a, j, b in crystal_edges(orb)
        ]
        doc["psi_edges"] = [
            {"source": a, "target": b}
            for a, b in _psi_edges(orb)
        ]
    elif what == "qtable":
        table = {}
        for el in orb.elements:
            # every divisor-product coefficient is (lambda_i, alpha^vee) = 1
            table[_weight_key(el.weight)] = [
                {"target": orb.elements[t].weight, "q_power": q_power, "coefficient": "1"}
                for q_power, t in qchev.chevalley_closed(orb, el.weight)
            ]
        doc["table"] = table
    elif what in ("amatrix", "ttstar"):
        if what == "ttstar":
            m, alcove, dpw = ttstar.distinguished_solution(orb.rs, orb.weight_index)
            doc["m"] = [str(v) for v in m]
            doc["alcove"] = [str(c) for c in alcove]
            doc["dpw_k"] = [str(k) for k in dpw]
            doc["sigma_fixed"] = True  # distinguished_solution returns only a sigma-fixed m
            doc.update(ttstar.dubrovin_form())
        doc["basis"] = [el.weight for el in orb.elements]
        doc["matrix"] = minrep.quantum_operator(orb)
    else:
        raise ConfigError(f"unknown emission target {what!r}")
    return doc


def emit_dot(orb: Orbit) -> str:
    lines = [f"digraph crystal_{orb.rs.lie_type}_w{orb.weight_index} {{"]
    key = {el.weight.pairings: _weight_key(el.weight) for el in orb.elements}
    lines += [f'  "{k}" [label="({k})"];' for k in key.values()]
    for a, j, b in crystal_edges(orb):
        lines.append(f'  "{key[a.pairings]}" -> "{key[b.pairings]}" [label="{j}"];')
    for a, b in _psi_edges(orb):
        lines.append(f'  "{key[a.pairings]}" -> "{key[b.pairings]}" [label="psi", style=dashed];')
    lines.append("}")
    return "\n".join(lines) + "\n"


def _input_orbit(family: str, rank: int, weight: int) -> Orbit:
    """The orbit a command's input names, with the library's ValueError about that input as a ConfigError.

    Only the input is wrapped: ``LieType`` holds the rank rules and
    ``RootSystem.minuscule_weight`` the weight rules, and a ValueError
    from a check run later still ends in a traceback.
    """
    try:
        return orbit(build(LieType(family, rank)), weight)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def cmd_emit(
    family: str, rank: int, weight: int, what: str, fmt: str, out: TextIO = sys.stdout
) -> int:
    orb = _input_orbit(family, rank, weight)
    if fmt == "dot":
        if what != "crystal":
            raise ConfigError("dot output is only available for the crystal graph")
        out.write(emit_dot(orb))
    elif fmt == "json":
        print(json_text(emit_payload(orb, what)), file=out)
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
        if n is not None or k is not None:
            raise ConfigError("--n and --k do not combine with --family")
        if family != "D":
            raise ConfigError("dimension identities are only defined for family D")
        if rank is None:
            raise ConfigError("family D needs --rank N")
        _input_orbit("D", rank, 1)  # the quadric orbit, which half_wedge_dims reads too
        rep = satake.half_wedge_dims(rank)
        doc = {
            "kind": "half-wedge-dims",
            "rank": rep.n,
            "wedge_total": rep.wedge_total,
            "endo_total": rep.endo_total,
            "quadric_orbit_size": rep.quadric_orbit_size,
            "spinor_orbit_size": rep.spinor_orbit_size,
            "pass": rep.ok,
        }
        text = (
            f"half-wedge D{rep.n}: wedge_total={rep.wedge_total} endo_total={rep.endo_total} "
            f"quadric_orbit={rep.quadric_orbit_size} spinor_orbit={rep.spinor_orbit_size}\n"
            + ("PASS" if rep.ok else "FAIL")
        )
    else:
        if n is None or k is None:
            raise ConfigError("either --n and --k, or --family D --rank N, are required")
        if rank is not None:
            raise ConfigError("--rank only combines with --family D")
        _input_orbit("A", n, k)
        doc = {"kind": "wedge-similarity", "n": n, "k": k}
        try:
            signs = satake.satake_similarity(n, k).signs
        except satake.SignSimilarityError as exc:
            cycle = list(exc.cycle) if exc.cycle else None
            doc.update({"pass": False, "failure": str(exc), "witness_kind": exc.kind, "witness_cycle": cycle})
            text = f"FAIL: {exc}"
        else:
            doc.update({"dimension": len(signs), "signs": list(signs), "pass": True})
            text = (
                f"wedge similarity A{n}, k={k}: dimension {len(signs)}\n"
                "sign vector: " + " ".join("+1" if s > 0 else "-1" for s in signs) + "\nPASS"
            )
    print(json_text(doc) if fmt == "json" else text, file=out)
    return 0 if doc["pass"] else 1


# -- argument parsing --------------------------------------------------------------


def _load_config_file(path: str) -> dict[str, str]:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.read().splitlines()
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path!r}: {exc.strerror or exc}") from exc
    except UnicodeDecodeError as exc:
        raise ConfigError(f"config file {path!r} is not UTF-8 text: {exc.reason}") from exc
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
                try:
                    config.max_rank[fam] = int(val)
                except ValueError as exc:
                    raise ConfigError(f"{key} must be an integer, got {val!r}") from exc
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
    p_emit.add_argument("--family", required=True, choices=FAMILIES)
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
        return cmd_satake(args.n, args.k, args.family, args.rank, fmt=args.format)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
