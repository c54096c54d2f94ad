"""Static checks on the package source: every imported name is used, every
function parameter is read, every dataclass field is read somewhere, every
optional parameter is set by some caller outside the tests, and every
public function and method has a caller outside the tests.

Lambdas and parameters whose names start with "_" are exempt from the
parameter check.  UNREAD_PARAMETERS and TEST_ONLY_OPTIONS list the known
exceptions as (module, function, parameter), and TEST_ONLY_FUNCTIONS as
(module, function); an entry that no longer applies fails too, so the lists
stay exact.
"""

import ast
import math
import pathlib

ROOT = pathlib.Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "vanvisc"
# every directory whose code may read a field of the package's dataclasses
READERS = ("src", "tests", "demos", "perfbench")

# every directory whose calls count as setting an option (files named
# test_*.py excluded)
CALLERS = ("src", "demos", "perfbench")

# callers outside the package pass it positionally (perfbench's corpus)
UNREAD_PARAMETERS = {("front_tracking", "init_front_tracking", "epsilon_prime")}

# optional parameters that only tests set, each with the reason it stays
TEST_ONLY_OPTIONS = {
    ("hybrid", "residual", "check"):
        "the residual's own resolution check, which a test turns on",
    ("viscous", "ShockProfile.ode_residual", "samples"):
        "a check of the shooting orbit; tests run it on a coarser base grid",
    ("system", "check_genuine_nonlinearity", "samples"):
        "a check of a model; tests choose how many states it samples",
    ("harness", "main", "argv"):
        "the console entry point reads sys.argv; tests pass the arguments",
}

# public functions and methods that only tests call, each with the reason it
# stays: a lemma the tests check, or an oracle for what the package computes
TEST_ONLY_FUNCTIONS = {
    ("hybrid", "mollify"):
        "the exact convolution u * phi_delta, the oracle of a hybrid without tracks",
    ("hybrid", "mollification_l1_error"):
        "checks the lemma ||u * phi_delta - u||_L1 <= delta TV(u)",
    ("hybrid", "oscillation_weighted_tv"):
        "checks that the far-field residual is bounded by the oscillation-weighted TV",
    ("measures", "sup_mass"):
        "the oracle of odd_rearrangement: v-hat(x) = sup_{meas(A) <= 2x} mu(A) / 2",
    ("piecewise", "PiecewiseConstant.l1_distance"):
        "the exact L1 distance of two profiles, which checks front tracking's finite speed",
    ("system", "check_genuine_nonlinearity"):
        "checks that a model is genuinely nonlinear; tests run it on the presets",
    ("viscous", "ShockProfile.ode_residual"):
        "re-steps a shooting orbit by RK4, the oracle of a profile's accuracy",
}


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


def _functions(tree):
    """(qualified name, call name, def node, is_method) for every function
    in a module.  A method is named Class.method, and its calls are matched
    by the method name, or by the class name for __init__."""
    out = []

    def visit(node, prefix, in_class):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                visit(child, prefix + child.name + ".", True)
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                static = any(getattr(d, "id", None) == "staticmethod"
                             for d in child.decorator_list)
                call_name = prefix.split(".")[-2] if child.name == "__init__" else child.name
                out.append((prefix + child.name, call_name, child, in_class and not static))
                visit(child, prefix + child.name + ".", False)

    visit(tree, "", False)
    return out


def optional_parameters():
    """(module, qualified function, parameter, call name, index) for every
    parameter with a default value of a function in src/.  index is the
    parameter's position in a call, which skips a method's self, or None
    for a keyword-only parameter."""
    found = []
    for mod, tree in _modules():
        for qual, name, fn, method in _functions(tree):
            a = fn.args
            pos = a.posonlyargs + a.args
            found += [(mod, qual, p.arg, name, i - method) for i, p in enumerate(pos)
                      if i >= len(pos) - len(a.defaults)]
            found += [(mod, qual, p.arg, name, None)
                      for p, d in zip(a.kwonlyargs, a.kw_defaults) if d is not None]
    return found


def unset_options():
    """(module, function, parameter) for each optional parameter of a src/
    function that no call in CALLERS sets, by keyword or by position.

    Calls are matched by the callee's name only, like the other checks.  A
    call with *args sets every position and one with **kwargs every
    keyword."""
    calls = {}
    for d in CALLERS:
        for path in (ROOT / d).rglob("*.py"):
            if path.name.startswith("test_"):
                continue
            for n in ast.walk(ast.parse(path.read_text())):
                if isinstance(n, ast.Call):
                    name = getattr(n.func, "id", getattr(n.func, "attr", None))
                    n_pos = (math.inf if any(isinstance(x, ast.Starred) for x in n.args)
                             else len(n.args))
                    calls.setdefault(name, []).append((n_pos, {k.arg for k in n.keywords}))
    return {(mod, qual, p) for mod, qual, p, name, index in optional_parameters()
            if not any(p in keys or None in keys or (index is not None and n_pos > index)
                       for n_pos, keys in calls.get(name, []))}


def uncalled_functions():
    """(module, function) for each public module-level function or method
    of a module-level class in src/ whose name no code in CALLERS loads,
    by a call or a reference (files named test_*.py excluded).

    Dunder methods, which Python calls, are exempt, and so are properties,
    which are read like fields.  The match is by name only, like the other
    checks: a method counts as called when any function or attribute of its
    name is.  So it cannot see a test-only method whose name a called one
    shares, such as GridSolution.total_variation, which only a test called
    while PiecewiseConstant.total_variation has callers."""
    loaded = set()
    for d in CALLERS:
        for path in (ROOT / d).rglob("*.py"):
            if path.name.startswith("test_"):
                continue
            for n in ast.walk(ast.parse(path.read_text())):
                if isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load):
                    loaded.add(n.attr)
                elif isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load):
                    loaded.add(n.id)
    found = set()
    for mod, tree in _modules():
        for node in tree.body:
            if isinstance(node, ast.FunctionDef):
                defs = [(node.name, node)]
            elif isinstance(node, ast.ClassDef):
                defs = [(f"{node.name}.{fn.name}", fn) for fn in node.body
                        if isinstance(fn, ast.FunctionDef)
                        and not any(getattr(d, "id", None) in ("property", "cached_property")
                                    for d in fn.decorator_list)]
            else:
                continue
            found |= {(mod, qual) for qual, fn in defs
                      if not fn.name.startswith("_") and fn.name not in loaded}
    return found


def test_every_import_is_used():
    assert unused_imports() == []


def test_every_parameter_is_read():
    assert unread_parameters() == UNREAD_PARAMETERS


def test_every_dataclass_field_is_read():
    assert unread_dataclass_fields() == []


def test_every_option_is_set_outside_the_tests():
    assert unset_options() == set(TEST_ONLY_OPTIONS)


def test_every_public_function_is_called_outside_the_tests():
    assert uncalled_functions() == set(TEST_ONLY_FUNCTIONS)
