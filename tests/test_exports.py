import ast
import importlib
import os
import subprocess
import sys
from pathlib import Path

import dropsed

# every module of the package, so a new one cannot escape these checks
MODULES = tuple(sorted(path.stem for path in Path(dropsed.__file__).parent.glob("*.py")
                       if path.stem != "__init__"))


def test_every_exported_name_resolves():
    assert "cli" in MODULES
    for name in MODULES:
        module = importlib.import_module(f"dropsed.{name}")
        assert getattr(dropsed, name) is module, f"dropsed does not load {name} on first use"
        missing = [attr for attr in module.__all__ if not hasattr(module, attr)]
        assert missing == [], f"dropsed.{name}.__all__ lists undefined names {missing}"
        namespace = {}
        exec(f"from dropsed.{name} import *", namespace)
        assert set(module.__all__) <= namespace.keys()


def _own_nodes(scope):
    """The nodes of a scope, without descending into the functions it defines."""
    stack = list(ast.iter_child_nodes(scope))
    while stack:
        node = stack.pop()
        yield node
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            stack.extend(ast.iter_child_nodes(node))


def _unused_imports(tree):
    """Names a module or function imports and never reads (nested functions may read them)."""
    unused = []
    functions = [n for n in ast.walk(tree) if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef))]
    for scope in (tree, *functions):
        used = {n.id for n in ast.walk(scope) if isinstance(n, ast.Name)}
        for node in _own_nodes(scope):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    bound = alias.asname or alias.name.split(".")[0]
                    if bound not in used:
                        unused.append(f"{bound} (line {node.lineno})")
    return unused


def test_no_module_imports_an_unused_name():
    package = Path(dropsed.__file__).parent
    found = {path.name: _unused_imports(ast.parse(path.read_text()))
             for path in sorted(package.glob("*.py"))}
    assert {name: names for name, names in found.items() if names} == {}


def _unread_private_names(tree):
    """Module-level private functions, classes and constants that the module never reads."""
    defined = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            defined[node.name] = node.lineno
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            defined.update((n.id, node.lineno) for target in targets for n in ast.walk(target)
                           if isinstance(n, ast.Name))
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
    return [f"{name} (line {line})" for name, line in defined.items()
            if name.startswith("_") and not name.startswith("__") and name not in read]


def test_every_private_helper_is_read_in_its_module():
    assert _unread_private_names(ast.parse("_A = 1\ndef _f():\n    return _A\n")) == ["_f (line 2)"]
    package = Path(dropsed.__file__).parent
    found = {path.name: _unread_private_names(ast.parse(path.read_text()))
             for path in sorted(package.glob("*.py"))}
    assert {name: names for name, names in found.items() if names} == {}


def _unread_parameters(tree):
    """``function.parameter`` for each parameter, but ``self`` and ``cls``, never read."""
    unread = []
    for fn in ast.walk(tree):
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        a = fn.args
        params = [p.arg for p in (*a.posonlyargs, *a.args, *a.kwonlyargs, a.vararg, a.kwarg) if p]
        body = fn.body if isinstance(fn.body, list) else [fn.body]
        read = {n.id for stmt in body for n in ast.walk(stmt)
                if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
        unread += [f"{getattr(fn, 'name', '<lambda>')}.{name}" for name in params
                   if name not in read and name not in ("self", "cls")]
    return sorted(unread)


# parameters that change no value and stay only because the benchmark binds them,
# each with the bench/child.py line that does
BENCHMARK_BOUND_PARAMETERS = {
    "assemble_galerkin.n_phi",  # trace hook reads a["n_phi"] (line 170)
    "linearized_evolve.phi_grid",  # linear_body passes PhiGrid.uniform(2 * n) (line 86)
    "advection_and_source.phi_grid",  # trace hook reads a["phi_grid"].n_phi (line 180)
}


def test_every_parameter_is_read():
    toy = ast.parse("def f(self, a, b, *c, d, **e):\n    return a + d + (lambda g: b)(1)\n"
                    "class K:\n    def m(cls, x):\n        return cls\n")
    assert _unread_parameters(toy) == ["<lambda>.g", "f.c", "f.e", "m.x"]
    package = Path(dropsed.__file__).parent
    found = [name for path in sorted(package.glob("*.py"))
             for name in _unread_parameters(ast.parse(path.read_text()))]
    assert sorted(found) == sorted(BENCHMARK_BOUND_PARAMETERS)


def _reads(node):
    """Names a node reads: loaded names and attributes, and names imported from a module."""
    read = set()
    for n in ast.walk(node):
        if isinstance(n, (ast.Name, ast.Attribute)) and isinstance(n.ctx, ast.Load):
            read.add(n.id if isinstance(n, ast.Name) else n.attr)
        elif isinstance(n, ast.ImportFrom):
            read.update(alias.name for alias in n.names)
    return read


def _unread_public_names(package_trees, reader_trees):
    """``__all__`` names of the package that no reader and no package module reads.

    A package module's read of a name counts unless it is inside that name's
    own top-level definition.
    """
    readers = set().union(*map(_reads, reader_trees))
    unread = []
    for module, tree in package_trees.items():
        others = set().union(*(_reads(t) for m, t in package_trees.items() if m != module))
        exported = next((ast.literal_eval(s.value) for s in tree.body if isinstance(s, ast.Assign)
                         and any(getattr(t, "id", None) == "__all__" for t in s.targets)), [])
        for name in exported:
            inside = set().union(*(_reads(s) for s in tree.body if getattr(s, "name", None) != name))
            if name not in readers | others | inside:
                unread.append(f"{module}.{name}")
    return unread


def test_every_public_name_is_read_by_the_package_the_benchmark_or_the_gate():
    toy = {"m": ast.parse("__all__ = ['f', 'g']\ndef f():\n    return f\ndef g():\n    return 1\n")}
    assert _unread_public_names(toy, [ast.parse("from m import g")]) == ["m.f"]
    package = Path(dropsed.__file__).parent
    root = Path(__file__).resolve().parent.parent
    readers = [*sorted((root / "bench").glob("*.py")), root / "tests" / "test_acceptance.py"]
    assert len(readers) > 1
    package_trees = {path.stem: ast.parse(path.read_text()) for path in sorted(package.glob("*.py"))}
    reader_trees = [ast.parse(path.read_text()) for path in readers]
    assert _unread_public_names(package_trees, reader_trees) == []


def test_package_imports_neither_scipy_nor_package_metadata():
    # a fresh interpreter: this test process has scipy loaded for the oracles
    script = (
        "import sys\n"
        "import dropsed.cli\n"
        f"for name in {MODULES!r}:\n"
        "    __import__(f'dropsed.{name}')\n"
        "print(sorted(m for m in sys.modules\n"
        "             if m.split('.')[0] == 'scipy' or m.startswith('importlib.metadata')))\n"
    )
    src = str(Path(dropsed.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["[]"]


def _name(node):
    """The name a node ends in: ``x`` for ``x`` and for ``a.b.x``, else None."""
    return getattr(node, "attr", getattr(node, "id", None))


def _polar_linspace_lines(tree):
    """Lines that call ``linspace`` with pi as the stop: a polar grid built by hand."""
    lines = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and _name(node.func) == "linspace":
            stops = [*node.args[1:2], *(k.value for k in node.keywords if k.arg == "stop")]
            if any(_name(stop) == "pi" for stop in stops):
                lines.append(node.lineno)
    return sorted(lines)


def test_only_quadrature_builds_the_polar_grid():
    toy = ast.parse("a = np.linspace(0.0, np.pi, 5)\nb = linspace(0, stop=pi)\n"
                    "c = np.linspace(0.0, 1.0)\nd = np.linspace(math.pi, 0.0)\n")
    assert _polar_linspace_lines(toy) == [1, 2]
    package = Path(dropsed.__file__).parent
    found = {path.name: _polar_linspace_lines(ast.parse(path.read_text()))
             for path in sorted(package.glob("*.py")) if path.name != "quadrature.py"}
    assert {name: lines for name, lines in found.items() if lines} == {}
