"""Static checks on the package source: every imported name is used, and
every function parameter is read.

Lambdas and parameters whose names start with "_" are exempt from the
parameter check.  UNREAD_PARAMETERS lists the known exceptions as
(module, function, parameter); an entry that no longer applies fails too,
so the list stays exact.
"""

import ast
import pathlib

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "vanvisc"

# callers outside the package pass it positionally (perfbench's corpus)
UNREAD_PARAMETERS = {("front_tracking", "init_front_tracking", "epsilon_prime")}


def _modules():
    for path in sorted(SRC.glob("*.py")):
        yield path.stem, ast.parse(path.read_text(), filename=str(path))


def _loaded_names(nodes):
    return {n.id for node in nodes for n in ast.walk(node)
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}


def unused_imports():
    found = []
    for mod, tree in _modules():
        if mod == "__init__":       # its imports are the package's exports
            continue
        used = _loaded_names([tree])
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    name = (alias.asname or alias.name).split(".")[0]
                    if name not in used:
                        found.append((mod, name))
    return found


def unread_parameters():
    found = set()
    for mod, tree in _modules():
        for node in ast.walk(tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            a = node.args
            params = [p.arg for p in a.posonlyargs + a.args + a.kwonlyargs]
            params += [p.arg for p in (a.vararg, a.kwarg) if p is not None]
            read = _loaded_names(node.body)
            for p in params:
                if not p.startswith("_") and p not in read:
                    found.add((mod, node.name, p))
    return found


def test_every_import_is_used():
    assert unused_imports() == []


def test_every_parameter_is_read():
    assert unread_parameters() == UNREAD_PARAMETERS
