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
