"""Command-line front end: verification sweeps and artifact emission.

Subcommands:

* ``verify``  builds A(q) once for every minuscule case in the
  configured sweep, runs every row of ``ROWS`` on it (one library
  check each, returning one ``minrep.Check``) and prints a pass/fail
  table.  Exit 0 iff everything passes, 1 on any failed check, 2 on a
  configuration error; every command exits 141 (128 + SIGPIPE), with
  nothing on stderr, when its reader closes stdout early.
* ``emit``    writes one artifact (orbit, crystal graph, quantum
  operator, multiplication table, or Toda dictionary bundle) as JSON,
  or the crystal graph as DOT.
* ``satake``  runs the type-A wedge similarity for (n, k), printing the
  discovered sign vector, or the D-family half-wedge dimension check.

Each command prints to its ``out`` argument, or to ``sys.stdout`` as it
is when the command runs, so a redirect of ``sys.stdout`` catches it.

Every JSON document the CLI prints comes from one writer, ``json_text``:
byte for byte the text ``json.dumps(..., indent=2)`` makes of the
document, each Weight as its pairings list, and the dense A(q) array
of ``amatrix`` and ``ttstar`` written from the matrix's nonzero
entries, each distinct entry formatted once and the zero cells between
them cut as runs from one row of zero-cell text.  Each ``json_text``
call makes one ``%``-format per int-run shape (a Weight's pairings or a
list of ints, by length and indent) and one per dict shape (by indent,
keys, value kinds and Weight lengths), each key's ``%`` escaped, and
holds the text at most twice.

JSON schema notes: polynomials are arrays of [exponent, coefficient]
pairs with the coefficient as a decimal string (arbitrary precision
survives any JSON reader); weights are integer arrays; rationals are
strings like "-1" or "1/3"; a matrix is the dense n x n array of
polynomials in basis order, zero entries as []; every top-level object
carries family, rank, weight_index, s and orbit_size.
"""
from __future__ import annotations

import argparse
import os
import sys
from dataclasses import dataclass, field
from json.encoder import encode_basestring_ascii
from typing import Optional, Sequence, TextIO

from . import minrep, qchev, satake, ttstar, weylorbit
from .minrep import PolyMatrix
from .rootsys import _RANK_RANGE, FAMILIES, LieType, Weight, build, minuscule_weights
from .weylorbit import Orbit, crystal_edges, dual_positions, orbit

_SWEEP_FAMILIES = ("A", "B", "C", "D")


@dataclass
class SweepConfig:
    """Which classical ranks to sweep, and whether E6/E7 join in."""

    max_rank: dict[str, int] = field(
        default_factory=lambda: {"A": 6, "B": 5, "C": 5, "D": 6}
    )
    include_exceptional: bool = True

    def validate(self) -> None:
        """ConfigError for a family outside the sweep, a missing one, or a max rank ``LieType`` rejects."""
        for fam in self.max_rank:
            if fam not in _SWEEP_FAMILIES:
                raise ConfigError(f"unknown sweep family {fam!r}")
        for fam in _SWEEP_FAMILIES:
            if fam not in self.max_rank:
                raise ConfigError(f"max rank for {fam} is missing")
            try:
                LieType(fam, self.max_rank[fam])
            except (TypeError, ValueError) as exc:
                raise ConfigError(f"max rank for {fam}: {exc}") from exc
        if not isinstance(self.include_exceptional, bool):
            raise ConfigError(f"include_exceptional must be a bool, got {self.include_exceptional!r}")


class ConfigError(ValueError):
    pass


def sweep_cases(config: SweepConfig) -> list[tuple[LieType, int]]:
    """All minuscule (type, weight index) pairs of the configured sweep, each family from its least rank."""
    config.validate()
    cases: list[tuple[LieType, int]] = []
    types: list[LieType] = []
    for fam in _SWEEP_FAMILIES:
        for rank in range(_RANK_RANGE[fam][0], config.max_rank[fam] + 1):
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


# The rows of ``verify`` in print order, as (name, check(orb, operator) -> Check).
# Each entry looks its check up in the module at call time, so a replaced
# module attribute, such as a test's monkeypatch or a tracer's wrapper, is
# the one that runs.
ROWS = (
    ("orbit-size", lambda orb, a: qchev.orbit_size_check(orb)),
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


def cmd_verify(config: SweepConfig, corrupt: bool = False, out: Optional[TextIO] = None) -> int:
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

    Each call keeps its own ``%`` formats, made once per shape it meets:
    one per int run (a Weight's pairings or a list of plain ints) of one
    length and indent, and one per dict shape: its indent, key tuple and
    one kind per value (an int, a str, a Weight of one length inlined as
    its int run, or any other value, written as its own text), each
    key's text with its ``%`` escaped.  A matrix's zero cells are cut as
    runs from one row of zero-cell text.  The text is held at most
    twice.
    """
    return _value_text(doc, "", {})


_JUST_INT = {int}


def _value_text(v: object, pad: str, forms: dict) -> str:
    """The indent=2 JSON text of v, for a value whose line is indented by pad."""
    t = type(v)
    if t is dict:
        return _dict_text(v, pad, forms) if v else "{}"
    if t is str:
        return encode_basestring_ascii(v)
    if t is int:
        return int.__repr__(v)
    if t is Weight:
        return _run_form(len(v.pairings), pad, forms) % v.pairings
    if t is list:
        if {*map(type, v)} <= _JUST_INT:
            return _run_form(len(v), pad, forms) % tuple(v)
        inner = pad + "  "
        body = f",\n{inner}".join([_value_text(x, inner, forms) for x in v])
        return f"[\n{inner}{body}\n{pad}]"
    if v is True:
        return "true"
    if v is False:
        return "false"
    if v is None:
        return "null"
    if t is PolyMatrix:
        return _matrix_text(v, pad)
    raise TypeError(f"Object of type {t.__name__} is not JSON serializable")


def _run_form(length: int, pad: str, forms: dict) -> str:
    """The %-format of a list of length ints, for a value whose line is indented by pad."""
    form = forms.get((length, pad))
    if form is None:
        inner = pad + "  "
        body = f",\n{inner}".join(["%d"] * length)
        form = forms[length, pad] = f"[\n{inner}{body}\n{pad}]" if length else "[]"
    return form


def _dict_text(d: dict, pad: str, forms: dict) -> str:
    """The indent=2 JSON text of a non-empty dict d, for a value whose line is indented by pad.

    Its shape is the indent, the key tuple, then each value's kind: the
    length of a Weight, inlined as its int run, -1 an int, -2 a str, -3
    any other value, which goes in as its own text.
    """
    inner = pad + "  "
    shape = [pad, tuple(d)]
    args = []
    for x in d.values():
        t = type(x)
        if t is Weight:
            shape.append(len(x.pairings))
            args += x.pairings
        elif t is int:
            shape.append(-1)
            args.append(x)
        elif t is str:
            shape.append(-2)
            args.append(encode_basestring_ascii(x))
        else:
            shape.append(-3)
            args.append(_value_text(x, inner, forms))
    shape = tuple(shape)
    form = forms.get(shape)
    if form is None:
        lines = []
        for key, kind in zip(shape[1], shape[2:]):
            if type(key) is not str:
                raise TypeError(f"keys must be str, not {type(key).__name__}")
            value = "%d" if kind == -1 else "%s" if kind < -1 else _run_form(kind, inner, forms)
            lines.append(f"{inner}{encode_basestring_ascii(key).replace('%', '%%')}: {value}")
        body = ",\n".join(lines)
        form = forms[shape] = f"{{\n{body}\n{pad}}}"
    return form % tuple(args)


def _matrix_text(m: PolyMatrix, pad: str) -> str:
    """The indent=2 JSON text of m's dense rows, for a value whose line is indented by pad.

    Each distinct entry is formatted once and its text reused in every
    cell that holds it (A(q) has two: 1 and q).  Every run of zero cells
    is one slice of a row of zero-cell texts, and the matrix is joined
    once: the text is held at most twice, as its parts and as itself.
    """
    n = m.n
    if not n:
        return "[]"
    row_pad, cell_pad = pad + "  ", pad + "    "
    pair_pad, item_pad = cell_pad + "  ", cell_pad + "    "
    # n zero cells, each after its ",\n"; the text between columns a and b
    # of one row (a = -1 at the row's start, b = n at its end) is
    # zeros[2 * (a < 0):w * (b - a - 1) + 2 * (b < n)]
    zeros = f",\n{cell_pad}[]" * n
    w = len(zeros) // n
    next_row = f"\n{row_pad}],\n{row_pad}[\n"
    parts = [f"[\n{row_pad}[\n"]
    texts: dict[tuple[tuple[int, int], ...], str] = {}
    row, col = 0, -1  # the row being written and its last written column
    entries = m.entries
    for i, j in sorted(entries):
        while row < i:
            parts += zeros[2 * (col < 0):w * (n - col - 1)], next_row
            row, col = row + 1, -1
        coeffs = entries[i, j]
        # a one-term entry, as every entry of A(q) is, needs no sort
        key = tuple(sorted(coeffs.items()) if len(coeffs) > 1 else coeffs.items())
        text = texts.get(key)
        if text is None:
            pairs = ",\n".join(f'{pair_pad}[\n{item_pad}{e},\n{item_pad}"{c}"\n{pair_pad}]' for e, c in key)
            text = texts[key] = f"{cell_pad}[\n{pairs}\n{cell_pad}]"
        parts += zeros[2 * (col < 0):w * (j - col - 1) + 2], text
        col = j
    while row < n - 1:
        parts += zeros[2 * (col < 0):w * (n - col - 1)], next_row
        row, col = row + 1, -1
    parts += zeros[2 * (col < 0):w * (n - col - 1)], f"\n{row_pad}]\n{pad}]"
    return "".join(parts)


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
    family: str, rank: int, weight: int, what: str, fmt: str, out: Optional[TextIO] = None
) -> int:
    orb = _input_orbit(family, rank, weight)
    if fmt == "dot":
        if what != "crystal":
            raise ConfigError("dot output is only available for the crystal graph")
        print(emit_dot(orb), end="", file=out)
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
    out: Optional[TextIO] = None,
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
        with open(path, "r", encoding="utf-8-sig") as fh:
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
    for fam in _SWEEP_FAMILIES:
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
    for fam in _SWEEP_FAMILIES:
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
            rc = cmd_verify(_sweep_config(args), corrupt=args.self_test_corrupt)
        elif args.command == "emit":
            rc = cmd_emit(args.family, args.rank, args.weight, args.what, args.format)
        else:
            rc = cmd_satake(args.n, args.k, args.family, args.rank, fmt=args.format)
        sys.stdout.flush()  # a stdout closed early shows here, not in the flush at exit
        return rc
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # the reader closed stdout, which is no failed check: fd 1 goes to
        # the null device, so the flush at exit does not raise again
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, 1)
        os.close(devnull)
        return 141  # 128 + SIGPIPE


if __name__ == "__main__":
    sys.exit(main())
