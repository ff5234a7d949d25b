"""Source-level guards on the package itself."""
import ast
import glob
import json
import os
import subprocess
import sys

import pytest

from helpers import MEMOS

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src", "minflag")


def test_no_assert_statement_in_the_package():
    # python -O strips assert statements, and every check must survive it:
    # the package raises AssertionError explicitly instead
    files = sorted(glob.glob(os.path.join(SRC, "*.py")))
    assert files
    found = []
    for path in files:
        with open(path, encoding="utf-8") as fh:
            tree = ast.parse(fh.read(), filename=path)
        found += [f"{os.path.basename(path)}:{node.lineno}" for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert not found, f"assert statements vanish under python -O: {found}"


def test_only_ttstar_imports_fractions():
    # every module but the Toda dictionary runs on integers alone: rootsys
    # included, whose symmetrizers are the minimal integers d_j
    allowed = {"ttstar.py"}
    files = sorted(glob.glob(os.path.join(SRC, "*.py")))
    assert files
    found = []
    for path in files:
        name = os.path.basename(path)
        if name in allowed:
            continue
        with open(path, encoding="utf-8") as fh:
            tree = ast.parse(fh.read(), filename=path)
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                modules = [node.module or ""]
            else:
                continue
            if any(m.split(".")[0] == "fractions" for m in modules):
                found.append(f"{name}:{node.lineno}")
    assert not found, f"fractions imported outside ttstar: {found}"


def _keys_by_weight(key: ast.expr) -> bool:
    """True for a key ``<x>.weight`` or ``<x>.weight.pairings``."""
    if isinstance(key, ast.Attribute) and key.attr == "pairings":
        key = key.value
    return isinstance(key, ast.Attribute) and key.attr == "weight"


def _enumerates_elements(gen: ast.comprehension) -> bool:
    """True for ``for ... in enumerate(<x>.elements)``."""
    it = gen.iter
    return (
        isinstance(it, ast.Call)
        and isinstance(it.func, ast.Name)
        and it.func.id == "enumerate"
        and len(it.args) == 1
        and isinstance(it.args[0], ast.Attribute)
        and it.args[0].attr == "elements"
    )


def _bare_keys(node: ast.AST) -> bool:
    """True if node reads ``<x>.keys`` other than as a call (``d.keys()``)."""
    called = {id(n.func) for n in ast.walk(node) if isinstance(n, ast.Call)}
    return any(isinstance(n, ast.Attribute) and n.attr == "keys" and id(n) not in called for n in ast.walk(node))


def _is_weight_key(key: ast.expr, names: set[str]) -> bool:
    """True for ``<x>.key``, ``<x>.keys`` or ``<x>.keys[...]``, or a name in names."""
    if isinstance(key, ast.Subscript):
        key = key.value
    return (isinstance(key, ast.Attribute) and key.attr in ("key", "keys")) or (
        isinstance(key, ast.Name) and key.id in names
    )


def _weight_position_maps(tree: ast.AST) -> list[int]:
    """Lines that build a map keyed by orbit weights or by weight keys.

    A comprehension keyed by ``<x>.weight`` or ``<x>.weight.pairings``
    over ``enumerate(<x>.elements)``; a comprehension, dict display or
    item assignment keyed by a weight key (``<x>.key``, ``<x>.keys[i]``,
    or a name a comprehension binds from ``<x>.keys``); or a ``dict(...)``
    call that reads ``<x>.keys``.
    """
    lines = []
    for node in ast.walk(tree):
        if isinstance(node, ast.DictComp):
            names = {n.id for g in node.generators if _bare_keys(g.iter)
                     for n in ast.walk(g.target) if isinstance(n, ast.Name)}
            if _is_weight_key(node.key, names) or (
                _keys_by_weight(node.key) and any(_enumerates_elements(g) for g in node.generators)
            ):
                lines.append(node.lineno)
        elif isinstance(node, ast.Dict) and any(k is not None and _is_weight_key(k, set()) for k in node.keys):
            lines.append(node.lineno)
        elif isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Subscript) and _is_weight_key(t.slice, set()) for t in node.targets
        ):
            lines.append(node.lineno)
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "dict"
              and any(_bare_keys(a) for a in node.args)):
            lines.append(node.lineno)
    return lines


def test_only_weylorbit_maps_orbit_weights_to_positions():
    # Orbit.index_of is the one weight -> position map: a module that
    # builds its own from an orbit's elements, or a dict keyed by weight
    # keys, duplicates it
    files = sorted(glob.glob(os.path.join(SRC, "*.py")))
    assert files
    found = []
    for path in files:
        name = os.path.basename(path)
        if name == "weylorbit.py":
            continue
        with open(path, encoding="utf-8") as fh:
            tree = ast.parse(fh.read(), filename=path)
        found += [f"{name}:{line}" for line in _weight_position_maps(tree)]
    assert not found, f"weight -> position maps outside Orbit.index_of: {found}"


@pytest.mark.parametrize("code,flagged", [
    ("{el.weight.pairings: k for k, el in enumerate(orb.elements)}", True),
    ("{el.weight: k for k, el in enumerate(orb.elements)}", True),
    ("{el.weight.key: k for k, el in enumerate(orb.elements)}", True),
    ("{key: k for k, key in enumerate(orb.keys)}", True),
    ("{orb.keys[k]: k for k in range(orb.size)}", True),
    ("dict(zip(orb.keys, range(orb.size)))", True),
    ("{top.key: 0}", True),
    ("place[mu.key] = 0", True),
    ("{s: gr.index_of[sum(lines[p] for p in s)] for s in subsets}", False),
    ("{r.coeffs: (r, Weight(p[r.coeffs]).key, r.height) for r in roots}", False),
    ("{k: v for k, v in zip(d.keys(), d.values())}", False),
    ("{el.weight.pairings: label(el.weight) for el in orb.elements}", False),
], ids=["pairings", "weight", "key", "enumerated-keys", "indexed-keys", "dict-zip", "display", "item",
        "key-sum-value", "key-in-value", "dict-keys-call", "labels"])
def test_the_weight_map_guard_flags_each_form(code, flagged):
    assert bool(_weight_position_maps(ast.parse(code))) == flagged



def test_only_poly_matrix_reads_its_stored_entries():
    # a PolyMatrix holds one form, its integer entries, which everything else
    # reads through ``entries``: reaching into ``_e`` would bring back a
    # bridge between two forms
    found = []
    for path in sorted(glob.glob(os.path.join(SRC, "*.py"))):
        with open(path, encoding="utf-8") as fh:
            tree = ast.parse(fh.read(), filename=path)
        inside = {id(n) for c in ast.walk(tree) if isinstance(c, ast.ClassDef) and c.name == "PolyMatrix"
                  for n in ast.walk(c)}
        found += [f"{os.path.basename(path)}:{n.lineno}" for n in ast.walk(tree)
                  if isinstance(n, ast.Attribute) and n.attr == "_e" and id(n) not in inside]
    assert not found, f"stored entries read outside PolyMatrix: {found}"


def test_no_class_in_the_package_adds_or_multiplies():
    # a polynomial is a {q_power: coefficient} dict and a PolyMatrix is a
    # container: a class with ring operators would bring back a second form
    found = []
    for path in sorted(glob.glob(os.path.join(SRC, "*.py"))):
        with open(path, encoding="utf-8") as fh:
            tree = ast.parse(fh.read(), filename=path)
        for cls in (n for n in ast.walk(tree) if isinstance(n, ast.ClassDef)):
            for node in ast.walk(cls):
                # a method, or a name bound in the class body (``__radd__ = __add__``)
                name = (node.name if isinstance(node, ast.FunctionDef)
                        else node.id if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store) else None)
                if name in ("__add__", "__radd__", "__mul__", "__rmul__"):
                    found.append(f"{os.path.basename(path)}:{node.lineno} {cls.name}.{name}")
    assert not found, f"ring operators in the package: {found}"


_GENERATOR_NAMES = {"lowering_matrix", "psi_raising_matrix", "PolyMatrix"}


def test_rep_relations_and_a_q_read_the_index_maps():
    # the bracket row and A(q) read the generators' index maps: naming a public
    # builder or PolyMatrix for a generator would bring back the matrix round trip
    path = os.path.join(SRC, "minrep.py")
    with open(path, encoding="utf-8") as fh:
        tree = ast.parse(fh.read(), filename=path)
    seen, found = set(), []
    for fn in tree.body:
        if not isinstance(fn, ast.FunctionDef) or fn.name not in ("verify_rep_relations", "quantum_operator"):
            continue
        seen.add(fn.name)
        body = fn.body
        if fn.name == "quantum_operator":
            # A(q) itself leaves as one PolyMatrix: the closing ``return PolyMatrix(...)``
            last = body[-1]
            assert isinstance(last, ast.Return) and isinstance(last.value, ast.Call), "quantum_operator:last"
            assert isinstance(last.value.func, ast.Name) and last.value.func.id == "PolyMatrix"
            body = body[:-1] + list(last.value.args)
        for stmt in body:
            for n in ast.walk(stmt):
                name = n.id if isinstance(n, ast.Name) else n.attr if isinstance(n, ast.Attribute) else None
                if name in _GENERATOR_NAMES:
                    found.append(f"minrep.py:{n.lineno} {fn.name} names {name}")
    assert seen == {"verify_rep_relations", "quantum_operator"}
    assert not found, f"generator matrices where the index maps serve: {found}"


def test_only_the_lowering_maps_and_the_closed_route_step_down():
    # weylorbit.lowering_maps is the one builder of E-(0..l), and the closed
    # route keeps its own steps: a second caller of neighbour(..., "-", ...)
    # would be a second lowering builder
    callers = set()
    for path in sorted(glob.glob(os.path.join(SRC, "*.py"))):
        with open(path, encoding="utf-8") as fh:
            tree = ast.parse(fh.read(), filename=path)
        for top in tree.body:
            for n in ast.walk(top):
                if (isinstance(n, ast.Call) and isinstance(n.func, ast.Attribute) and n.func.attr == "neighbour"
                        and len(n.args) > 1 and isinstance(n.args[1], ast.Constant) and n.args[1].value == "-"):
                    callers.add(f"{os.path.basename(path)[:-3]}.{top.name}")
    assert callers == {"weylorbit.lowering_maps", "qchev.chevalley_closed"}


def test_only_the_length_memo_calls_length_in_qchev():
    # the oracle, grading and trichotomy rows read one per-orbit length
    # list, qchev._lengths; a second caller would measure lengths again
    path = os.path.join(SRC, "qchev.py")
    with open(path, encoding="utf-8") as fh:
        tree = ast.parse(fh.read(), filename=path)
    callers = []
    for fn in ast.walk(tree):
        if isinstance(fn, ast.FunctionDef):
            for n in ast.walk(fn):
                if isinstance(n, ast.Call) and isinstance(n.func, ast.Name) and n.func.id == "length":
                    callers.append(fn.name)
    assert callers == ["_lengths"], f"qchev functions calling length: {callers}"


_IMPORT_EACH_MODULE = """
import importlib, json, sys

def forget():
    for key in [k for k in sys.modules if k == "minflag" or k.startswith("minflag.")]:
        del sys.modules[key]

imported = []
for name in sys.argv[1:]:
    forget()
    importlib.import_module("minflag." + name)
    imported.append(name)
forget()
import minflag
print(json.dumps({"imported": imported, "root": sorted(n for n in vars(minflag) if not n.startswith("_"))}))
"""


def test_each_module_imports_on_its_own_and_the_root_binds_no_name():
    # names are imported from their modules: the package root re-exports
    # nothing, so no module may lean on the root having imported another
    modules = sorted(os.path.basename(p)[:-3] for p in glob.glob(os.path.join(SRC, "*.py")))
    modules.remove("__init__")
    assert modules
    env = dict(os.environ, PYTHONPATH=os.path.dirname(SRC) + os.pathsep + os.environ.get("PYTHONPATH", ""))
    proc = subprocess.run([sys.executable, "-c", _IMPORT_EACH_MODULE, *modules],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == {"imported": modules, "root": []}


_OPERATOR_CHECKS = ("main_theorem_check", "frobenius_check", "grading_check")


def test_qchev_checks_are_handed_the_operator_they_check():
    # a check that could build A(q) itself would read a clean operator
    # and miss the corruption that ``verify --self-test-corrupt`` hands it
    path = os.path.join(SRC, "qchev.py")
    with open(path, encoding="utf-8") as fh:
        tree = ast.parse(fh.read(), filename=path)
    found = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            found += [f"qchev.py:{node.lineno} imports {a.name}" for a in node.names if a.name == "quantum_operator"]
        elif isinstance(node, (ast.Name, ast.Attribute)):
            name = node.id if isinstance(node, ast.Name) else node.attr
            if name == "quantum_operator":
                found.append(f"qchev.py:{node.lineno} names quantum_operator")
        elif isinstance(node, ast.FunctionDef):
            args = node.args
            positional = args.posonlyargs + args.args
            defaulted = positional[len(positional) - len(args.defaults):] if args.defaults else []
            defaulted += [a for a, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None]
            found += [f"qchev.py:{node.lineno} {node.name} defaults operator" for a in defaulted if a.arg == "operator"]
    checks = {fn.name: fn for fn in tree.body if isinstance(fn, ast.FunctionDef) and fn.name in _OPERATOR_CHECKS}
    assert set(checks) == set(_OPERATOR_CHECKS)
    assert all("operator" in [a.arg for a in fn.args.args] for fn in checks.values())
    assert not found, f"qchev checks that can build their own A(q): {found}"


def test_every_check_of_qchev_and_minrep_is_a_verify_row():
    # a library check that returns a Check but is missing from cli.ROWS
    # would run in no verify sweep and in no mutation census
    with open(os.path.join(SRC, "cli.py"), encoding="utf-8") as fh:
        tree = ast.parse(fh.read())
    rows = [n.value for n in tree.body
            if isinstance(n, ast.Assign) and [getattr(t, "id", None) for t in n.targets] == ["ROWS"]]
    assert len(rows) == 1
    named = {n.id if isinstance(n, ast.Name) else n.attr
             for n in ast.walk(rows[0]) if isinstance(n, (ast.Name, ast.Attribute))}
    checks = []
    for name in ("qchev.py", "minrep.py"):
        with open(os.path.join(SRC, name), encoding="utf-8") as fh:
            tree = ast.parse(fh.read())
        checks += [(name, fn) for fn in tree.body
                   if isinstance(fn, ast.FunctionDef) and getattr(fn.returns, "id", None) == "Check"]
    assert len(checks) >= 7
    missing = [f"{name}:{fn.lineno} {fn.name}" for name, fn in checks if fn.name not in named]
    assert not missing, f"Check-returning functions outside cli.ROWS: {missing}"


def test_ttstar_reads_no_orbit_and_no_a_q():
    # the dictionary entry depends on the root system alone; the ttstar
    # document reads A(q) from minrep.quantum_operator as amatrix does,
    # and no orbit is read, so neither module is imported
    path = os.path.join(SRC, "ttstar.py")
    with open(path, encoding="utf-8") as fh:
        tree = ast.parse(fh.read(), filename=path)
    found = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            # `from .minrep import x`, `from . import minrep` and `import minflag.minrep` alike
            names = [a.name for a in node.names] + [getattr(node, "module", None) or ""]
            for module in ("minrep", "weylorbit"):
                if any(n.split(".")[-1] == module for n in names):
                    found.append(f"ttstar.py:{node.lineno} imports {module}")
        elif isinstance(node, ast.Call):
            f = node.func
            name = f.id if isinstance(f, ast.Name) else f.attr if isinstance(f, ast.Attribute) else None
            if name in ("orbit", "quantum_operator"):
                found.append(f"ttstar.py:{node.lineno} calls {name}")
    assert not found, f"ttstar builds what the emitter reads: {found}"


def _raises_with(tree: ast.AST, text: str) -> list[int]:
    """Lines of the raise statements whose exception's string literals hold text."""
    return [n.lineno for n in ast.walk(tree) if isinstance(n, ast.Raise) and n.exc is not None
            and any(isinstance(c, ast.Constant) and isinstance(c.value, str) and text in c.value
                    for c in ast.walk(n.exc))]


@pytest.mark.parametrize("text", ["must be an int, not", "is not minuscule"])
def test_each_input_rule_is_raised_in_one_place(text):
    # rootsys._require_int and RootSystem.minuscule_weight are the homes of
    # these rules: a second raise would be a copy that can drift from them
    found = []
    for path in sorted(glob.glob(os.path.join(SRC, "*.py"))):
        with open(path, encoding="utf-8") as fh:
            tree = ast.parse(fh.read(), filename=path)
        found += [f"{os.path.basename(path)}:{line}" for line in _raises_with(tree, text)]
    assert len(found) == 1, f"{text!r} raised from {found}"


# memos whose result depends on their arguments alone, kept for the whole run;
# every other memo is in helpers.MEMOS, which ``fresh_memos`` clears
_WHOLE_RUN_MEMOS = {
    "rootsys.build", "rootsys.RootSystem.reflection_table", "weylorbit.orbit",
    "qchev._complement", "qchev._complement_sum",
}


def _is_memo(decorator: ast.expr) -> bool:
    if isinstance(decorator, ast.Call):
        decorator = decorator.func
    name = decorator.attr if isinstance(decorator, ast.Attribute) else getattr(decorator, "id", None)
    return name in {"lru_cache", "cache", "cached_property"}


def test_every_memo_is_cleared_between_tests_or_kept_for_the_run():
    # a memo missing from both lists could carry a result made under one
    # test's monkeypatch into the next test
    found = set()
    for path in sorted(glob.glob(os.path.join(SRC, "*.py"))):
        with open(path, encoding="utf-8") as fh:
            tree = ast.parse(fh.read(), filename=path)
        owner = {id(f): c.name + "." for c in ast.walk(tree) if isinstance(c, ast.ClassDef) for f in c.body}
        found |= {
            f"{os.path.basename(path)[:-3]}.{owner.get(id(fn), '')}{fn.name}"
            for fn in ast.walk(tree)
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)) and any(map(_is_memo, fn.decorator_list))
        }
    cleared = {f"{m.__module__.removeprefix('minflag.')}.{m.__qualname__}" for m in MEMOS}
    assert not cleared & _WHOLE_RUN_MEMOS
    assert found == cleared | _WHOLE_RUN_MEMOS
