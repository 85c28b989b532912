import ast
import importlib
from pathlib import Path

import dropsed

MODULES = ("cli", "kernels", "linear_stability", "micro_sim", "patch_waves", "quadrature",
           "surface_evolution")


def test_every_exported_name_resolves():
    for name in MODULES:
        module = importlib.import_module(f"dropsed.{name}")
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
