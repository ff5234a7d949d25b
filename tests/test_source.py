"""Source-level guards on the package itself."""
import ast
import glob
import os

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


def test_only_rootsys_and_ttstar_import_fractions():
    # the hot paths (weylorbit, minrep, qchev, satake, cli) run on integers alone
    allowed = {"rootsys.py", "ttstar.py"}
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
    assert not found, f"fractions imported outside rootsys and ttstar: {found}"


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


def test_only_weylorbit_maps_orbit_weights_to_positions():
    # Orbit.index_of is the one weight -> position map: a module that
    # builds its own from an orbit's elements duplicates it
    files = sorted(glob.glob(os.path.join(SRC, "*.py")))
    assert files
    found = []
    for path in files:
        name = os.path.basename(path)
        if name == "weylorbit.py":
            continue
        with open(path, encoding="utf-8") as fh:
            tree = ast.parse(fh.read(), filename=path)
        for node in ast.walk(tree):
            if (
                isinstance(node, ast.DictComp)
                and _keys_by_weight(node.key)
                and any(_enumerates_elements(g) for g in node.generators)
            ):
                found.append(f"{name}:{node.lineno}")
    assert not found, f"weight -> position maps outside Orbit.index_of: {found}"



_GENERATOR_NAMES = {"lowering_matrix", "raising_matrix", "cartan_action", "psi_raising_matrix", "PolyMatrix"}


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
