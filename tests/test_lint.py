"""Static checks on the package source: every imported name is used, every
function parameter is read, and every dataclass field is read somewhere.

Lambdas and parameters whose names start with "_" are exempt from the
parameter check.  UNREAD_PARAMETERS lists the known exceptions as
(module, function, parameter); an entry that no longer applies fails too,
so the list stays exact.
"""

import ast
import pathlib

ROOT = pathlib.Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "vanvisc"
# every directory whose code may read a field of the package's dataclasses
READERS = ("src", "tests", "demos", "perfbench")

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


def _is_dataclass(decorator):
    if isinstance(decorator, ast.Call):
        decorator = decorator.func
    return getattr(decorator, "id", getattr(decorator, "attr", None)) == "dataclass"


def unread_dataclass_fields():
    """(module, class, field) for each field of a dataclass in src/ whose
    name is never read as an attribute (x.field) in READERS.

    The match is by name only: a field counts as read when any attribute of
    that name is read anywhere.  So it cannot see a field whose name other
    classes share, such as the echoes of q_hat's arguments that
    FunctionalSnapshot once carried (t, constants, epsilon, rho)."""
    read = set()
    for d in READERS:
        for path in (ROOT / d).rglob("*.py"):
            read.update(n.attr for n in ast.walk(ast.parse(path.read_text()))
                        if isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load))
    found = []
    for mod, tree in _modules():
        for node in ast.walk(tree):
            if isinstance(node, ast.ClassDef) and any(map(_is_dataclass, node.decorator_list)):
                found += [(mod, node.name, st.target.id) for st in node.body
                          if isinstance(st, ast.AnnAssign) and isinstance(st.target, ast.Name)
                          and st.target.id not in read]
    return found


def test_every_import_is_used():
    assert unused_imports() == []


def test_every_parameter_is_read():
    assert unread_parameters() == UNREAD_PARAMETERS


def test_every_dataclass_field_is_read():
    assert unread_dataclass_fields() == []
