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
