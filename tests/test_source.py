"""Source-level rules for the qcl package."""

import ast
import importlib.util
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "qcl"


def test_no_assert_statements():
    """`python -O` strips assert statements, so no check may be one."""
    modules = sorted(SRC.glob("*.py"))
    assert modules
    found = [f"{path.name}:{node.lineno}"
             for path in modules
             for node in ast.walk(ast.parse(path.read_text(), str(path)))
             if isinstance(node, ast.Assert)]
    assert found == []


def _banned_imports(tree, banned=("mpmath", "sympy", "dataclasses")):
    """Lines of the absolute imports of a banned top-level module."""
    out = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [a.name for a in node.names]
        elif isinstance(node, ast.ImportFrom) and not node.level:
            names = [node.module]
        else:
            continue
        out += [node.lineno for n in names if n.split(".")[0] in banned]
    return out


def test_no_runtime_mpmath_or_dataclasses():
    """mpmath and sympy are test dependencies only, and the records are
    namedtuples: no module in src/qcl imports any of the three, at any
    depth, so no request loads them."""
    sample = ast.parse("import math\n"
                       "def f():\n"
                       "    import mpmath.libmp\n"
                       "from dataclasses import dataclass\n"
                       "from .delta import ghat\n"
                       "from sympy.polys.matrices import DomainMatrix\n")
    assert sorted(_banned_imports(sample)) == [3, 4, 6]
    found = [(path.name, line) for path in sorted(SRC.glob("*.py"))
             for line in _banned_imports(ast.parse(path.read_text(),
                                                   str(path)))]
    assert found == []


_DEFERRED = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)


def _import_time_nodes(node):
    """`node` and every node under it that runs when it runs: a def or a
    lambda runs its decorators and default values, not its body; a class
    body runs with the class statement."""
    yield node
    if isinstance(node, _DEFERRED):
        children = [*getattr(node, "decorator_list", ()), node.args]
    else:
        children = ast.iter_child_nodes(node)
    for child in children:
        yield from _import_time_nodes(child)


def _import_time_numpy_calls(tree):
    """Lines of the calls through a module-level numpy import that run
    when the module is imported."""
    numpy = set()
    for stmt in tree.body:
        if isinstance(stmt, ast.Import):
            numpy.update((a.asname or a.name).split(".")[0] for a in stmt.names
                         if a.name.split(".")[0] == "numpy")
        elif isinstance(stmt, ast.ImportFrom) and not stmt.level \
                and stmt.module.split(".")[0] == "numpy":
            numpy.update(a.asname or a.name for a in stmt.names)
    out = []
    for stmt in tree.body:
        for node in _import_time_nodes(stmt):
            if not isinstance(node, ast.Call):
                continue
            root = node.func
            while isinstance(root, ast.Attribute):
                root = root.value
            if isinstance(root, ast.Name) and root.id in numpy:
                out.append(node.lineno)
    return out


def test_no_numpy_work_at_import():
    """Every request pays for what its imports run, and the benchmark times
    the imports of every workload: no module in src/qcl calls numpy when
    it is imported, so a table is built by the call that first reads it."""
    sample = ast.parse("import numpy as np\n"
                       "from numpy import arange\n"
                       "TABLE = np.arange(4).sum()\n"
                       "def f(x=arange(2)):\n"
                       "    return np.zeros(x)\n"
                       "g = lambda: np.eye(2)\n"
                       "class C:\n"
                       "    ONES = np.ones(3)\n"
                       "    def m(self):\n"
                       "        return np.ones(1)\n"
                       "DTYPE = np.int32\n"
                       "import math\n"
                       "ROOT = math.sqrt(2)\n")
    assert _import_time_numpy_calls(sample) == [3, 4, 8]
    found = [(path.name, line) for path in sorted(SRC.glob("*.py"))
             for line in _import_time_numpy_calls(ast.parse(path.read_text(),
                                                            str(path)))]
    assert found == []


ROOT_MODULES = ("cli", "audits", "errors", "__init__")
SCRIPTS = SRC.parents[1] / "scripts"


def _top_level_names(stmt):
    if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [stmt.name]
    if isinstance(stmt, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
        targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
        return [n.id for t in targets for n in ast.walk(t)
                if isinstance(n, ast.Name)]
    if isinstance(stmt, (ast.Import, ast.ImportFrom)):
        return [(a.asname or a.name).split(".")[0] for a in stmt.names]
    return []


def _referenced_names(node):
    out = set()
    for n in ast.walk(node):
        if isinstance(n, ast.Name):
            out.add(n.id)
        elif isinstance(n, ast.Attribute):
            out.add(n.attr)
        elif isinstance(n, ast.ImportFrom):
            out.update(a.name for a in n.names)
    return out


def test_every_definition_is_reached():
    """Every top-level definition in src/qcl is reached by name from the CLI,
    the audit suites, the error types or the scripts.

    Matching by bare name over-approximates what is reachable, so live code
    never fails this rule; a definition that only tests use does."""
    defs = {}       # "module.name" -> statements that bind it
    by_name = {}    # bare name -> {"module.name", ...}
    plain = []      # module-level statements that bind nothing
    for path in sorted(SRC.glob("*.py")):
        for stmt in ast.parse(path.read_text(), str(path)).body:
            names = _top_level_names(stmt)
            if not names:
                plain.append(stmt)
            for name in names:
                key = f"{path.stem}.{name}"
                defs.setdefault(key, []).append(stmt)
                by_name.setdefault(name, set()).add(key)

    todo = [k for k in defs if k.split(".")[0] in ROOT_MODULES]
    for path in sorted(SCRIPTS.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("qcl"):
                todo.extend(k for a in node.names for k in by_name.get(a.name, ()))
    for stmt in plain:
        todo.extend(k for n in _referenced_names(stmt) for k in by_name.get(n, ()))

    reached = set()
    while todo:
        key = todo.pop()
        if key in reached:
            continue
        reached.add(key)
        for stmt in defs[key]:
            for n in _referenced_names(stmt):
                todo.extend(by_name.get(n, ()))

    unreached = {k for k, stmts in defs.items() if k not in reached
                 and not all(isinstance(s, (ast.Import, ast.ImportFrom))
                             for s in stmts)}
    assert unreached == set()


def _defaulted_params(fn):
    args = fn.args
    positional = args.posonlyargs + args.args
    named = positional[len(positional) - len(args.defaults):]
    named += [a for a, d in zip(args.kwonlyargs, args.kw_defaults)
              if d is not None]
    return {a.arg for a in named}


def _budget_guards(tree):
    """(function, node) of each BudgetError guard: an `if` whose body
    raises BudgetError."""
    for fn in ast.walk(tree):
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        for node in ast.walk(fn):
            if isinstance(node, ast.If) and any(
                    isinstance(s, ast.Raise) and s.exc is not None
                    and "BudgetError" in _referenced_names(s.exc)
                    for s in node.body):
                yield fn, node


def _knob_guards(tree):
    """(line, function, parameters) of each BudgetError guard whose test
    reads a parameter of its function that has a default value."""
    out = []
    for fn, node in _budget_guards(tree):
        read = _defaulted_params(fn) & {n.id for n in ast.walk(node.test)
                                        if isinstance(n, ast.Name)}
        if read:
            out.append((node.lineno, fn.name, sorted(read)))
    return out


_ORDERINGS = (ast.Lt, ast.LtE, ast.Gt, ast.GtE)


def _unnamed_caps(tree):
    """(line, function) of each ordering comparison in a BudgetError guard
    with no name assigned at module level among its operands."""
    constants = {n for stmt in tree.body
                 if isinstance(stmt, (ast.Assign, ast.AnnAssign))
                 for n in _top_level_names(stmt)}
    return [(cmp.lineno, fn.name) for fn, node in _budget_guards(tree)
            for cmp in ast.walk(node.test)
            if isinstance(cmp, ast.Compare)
            and any(isinstance(op, _ORDERINGS) for op in cmp.ops)
            and not any(isinstance(o, ast.Name) and o.id in constants
                        for o in [cmp.left, *cmp.comparators])]


def test_caps_are_not_per_call_knobs():
    """A budget cap is a module constant read at call time: no BudgetError
    guard in src/qcl reads a parameter that has a default value."""
    knob = ast.parse("def f(q, budget=10):\n"
                     "    if q > budget:\n"
                     "        raise BudgetError('over')\n")
    assert _knob_guards(knob) == [(2, "f", ["budget"])]
    found = [(path.name, *guard)
             for path in sorted(SRC.glob("*.py"))
             for guard in _knob_guards(ast.parse(path.read_text(), str(path)))]
    assert found == []


def test_caps_are_named_module_constants():
    """Every ordering comparison in a BudgetError guard in src/qcl compares
    against a module-level name, so each cap is defined, documented and
    found in one place."""
    sample = ast.parse("CAP = 10\n"
                       "def f(q, n):\n"
                       "    if q > 10 ** 7 or n not in (1, 2):\n"
                       "        raise BudgetError('over')\n"
                       "    if q * n >= CAP:\n"
                       "        raise BudgetError('over')\n")
    assert _unnamed_caps(sample) == [(3, "f")]
    found = [(path.name, *cap)
             for path in sorted(SRC.glob("*.py"))
             for cap in _unnamed_caps(ast.parse(path.read_text(), str(path)))]
    assert found == []


def test_traced_names_resolve():
    """Every function that perfbench/qcl_traced.py wraps still exists under
    its name, so a rename in src/qcl cannot drop a layer from the trace.

    The launcher is loaded by path, without calling its install()."""
    path = SRC.parents[1] / "perfbench" / "qcl_traced.py"
    spec = importlib.util.spec_from_file_location("qcl_traced", path)
    launcher = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(launcher)
    for mod in launcher.MODULES:
        importlib.import_module(f"qcl.{mod}")
    missing = []
    for mod, names in launcher.TRACED.items():
        for name in names:
            obj = importlib.import_module(f"qcl.{mod}")
            for part in name.split("."):
                obj = getattr(obj, part, None)
            if not callable(obj):
                missing.append(f"{mod}.{name}")
    assert missing == []
    assert set(launcher.WORK) <= {f"{mod}.{name}" for mod, names
                                  in launcher.TRACED.items() for name in names}
