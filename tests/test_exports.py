import ast
import dataclasses
import importlib
import os
import subprocess
import sys
from pathlib import Path

import dropsed

import code_lines

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
# each with the bench/child.py function that does
BENCHMARK_BOUND_PARAMETERS = {
    "assemble_galerkin.n_phi",  # the assembly trace hook reads a["n_phi"]
    "linearized_evolve.phi_grid",  # linear_body passes PhiGrid.uniform(2 * n)
    "advection_and_source.phi_grid",  # the quadrature trace hook reads a["phi_grid"].n_phi
}


def test_every_parameter_is_read():
    toy = ast.parse("def f(self, a, b, *c, d, **e):\n    return a + d + (lambda g: b)(1)\n"
                    "class K:\n    def m(cls, x):\n        return cls\n")
    assert _unread_parameters(toy) == ["<lambda>.g", "f.c", "f.e", "m.x"]
    package = Path(dropsed.__file__).parent
    found = [name for path in sorted(package.glob("*.py"))
             for name in _unread_parameters(ast.parse(path.read_text()))]
    assert sorted(found) == sorted(BENCHMARK_BOUND_PARAMETERS)


def _config_keys_read(tree):
    """The constant keys ``k`` of every ``cfg[k]`` the tree reads."""
    return {n.slice.value for n in ast.walk(tree)
            if isinstance(n, ast.Subscript) and isinstance(n.ctx, ast.Load)
            and isinstance(n.value, ast.Name) and n.value.id == "cfg"
            and isinstance(n.slice, ast.Constant)}


def test_every_config_option_is_read():
    # an option that no runner reads would be accepted, recorded and ignored
    toy = ast.parse("def run(cfg, other):\n    cfg['b'] = other['c']\n    return cfg['a']\n")
    assert _config_keys_read(toy) == {"a"}
    cli = importlib.import_module("dropsed.cli")
    read = _config_keys_read(ast.parse(Path(cli.__file__).read_text()))
    unread = [f"{name}.{f.name}" for name, config in cli._CONFIG_TYPES.items()
              for f in dataclasses.fields(config) if f.name not in read]
    assert unread == []


CODE_LINES_TOY = '''"""Module docstring
on two lines."""

import os  # a trailing comment

# a comment line
X = """a string that is
not a docstring"""


class K:
    """Class docstring."""

    def f(self):
        \'\'\'Function
        docstring.\'\'\'
        """a second string statement
        is no docstring"""
        return (os.sep +
                X)
'''


def test_code_lines_skip_blanks_comments_and_docstrings(tmp_path, capsys):
    # import 1, X 2, class 1, def 1, the second string 2, return 2
    assert code_lines.code_lines(CODE_LINES_TOY) == 9
    (tmp_path / "toy.py").write_text(CODE_LINES_TOY)
    (tmp_path / "one.py").write_text("A = 1\n\n")
    assert code_lines.main([str(tmp_path)]) == 0
    assert capsys.readouterr().out.split() == ["1", "one.py", "9", "toy.py", "10", "total"]


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


def _fresh_interpreter_modules(script: str, *args: str) -> list[str]:
    """The names a fresh interpreter prints on its last line after running ``script``.

    Only a fresh interpreter shows what the package loads: this test process
    has scipy and numpy.random loaded for the oracles.
    """
    src = str(Path(dropsed.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run([sys.executable, "-c", script, *args], env=env, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()[-1].split()


# modules no import of the package may load: scipy is only the tests' oracle,
# and numpy.random (with secrets and hashlib, which load OpenSSL) is only the
# tests' source of clouds; the CLI samples from a SplitMix64 stream
_LOADED_ON_DEMAND = ("scipy", "importlib.metadata", "numpy.random", "secrets", "hashlib")


def test_package_imports_neither_scipy_nor_package_metadata(tmp_path):
    script = (
        "import sys\n"
        "import dropsed.cli\n"
        f"for name in {MODULES!r}:\n"
        "    __import__(f'dropsed.{name}')\n"
        f"print(*sorted(m for m in sys.modules if m.startswith({_LOADED_ON_DEMAND!r})))\n"
    )
    assert _fresh_interpreter_modules(script) == []
    # the patch runner computes on Python floats and loads no numpy at all
    script = (
        "import sys\n"
        "import dropsed.cli\n"
        "assert dropsed.cli.main(['patch', '--steps', '4', '--out', sys.argv[1]]) == 0\n"
        "print(*sorted(m for m in sys.modules if m.split('.')[0] == 'numpy'))\n"
    )
    assert _fresh_interpreter_modules(script, str(tmp_path / "patch")) == []
    assert (tmp_path / "patch" / "patch.csv").read_text().count("\n") == 6
    # a micro run loads none of them either: it samples its cloud without numpy.random
    script = (
        "import sys\n"
        "import dropsed.cli\n"
        "assert dropsed.cli.main(['micro', '--N', '20', '--T', '0.02', '--dt', '0.01',\n"
        "                         '--seed', '5', '--out', sys.argv[1]]) == 0\n"
        f"print(*sorted(m for m in sys.modules if m.startswith({_LOADED_ON_DEMAND!r})))\n"
    )
    assert _fresh_interpreter_modules(script, str(tmp_path / "micro")) == []
    assert (tmp_path / "micro" / "frame_0000.csv").read_text().count("\n") == 21


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


def _stored_index_range_lines(tree):
    """Lines of ``for`` loops over a ``range`` bounded by an enclosing loop's stored indices.

    A stored index is a target of an enclosing ``for`` that walks a list, not
    a ``range``: today's ``for k in range(k0 + 1, k1 + 1)`` inside
    ``for k0, k1 in zip(stored, stored[1:])``, the walk ``march`` runs.
    """
    lines = []

    def visit(node, indices):
        if isinstance(node, ast.For):
            if isinstance(node.iter, ast.Call) and _name(node.iter.func) == "range":
                bounds = {n.id for arg in node.iter.args for n in ast.walk(arg)
                          if isinstance(n, ast.Name)}
                if bounds & indices:
                    lines.append(node.lineno)
            else:
                indices = indices | {n.id for n in ast.walk(node.target) if isinstance(n, ast.Name)}
        for child in ast.iter_child_nodes(node):
            visit(child, indices)

    visit(tree, frozenset())
    return sorted(lines)


def test_only_quadrature_marches_time():
    toy = ast.parse("for k0, k1 in zip(stored, stored[1:]):\n"
                    "    for k in range(k0 + 1, k1 + 1):\n        pass\n"
                    "for i0 in range(0, n, b):\n"
                    "    for j0 in range(i0, n, b):\n        pass\n"
                    "for k1 in stored:\n"
                    "    for k in range(k1):\n        pass\n"
                    "for lo, hi in blocks:\n"
                    "    rows = range(lo, hi)\n")
    assert _stored_index_range_lines(toy) == [2, 8]
    package = Path(dropsed.__file__).parent
    found = {path.name: _stored_index_range_lines(ast.parse(path.read_text()))
             for path in sorted(package.glob("*.py"))}
    assert len(found.pop("quadrature.py")) == 1  # march's own walk, so the scan sees one
    assert {name: lines for name, lines in found.items() if lines} == {}


def _number(node):
    """The magnitude of a numeric literal, with or without a minus sign, else None."""
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub):
        node = node.operand
    if isinstance(node, ast.Constant) and type(node.value) in (int, float):
        return node.value
    return None


def _fall_speed_law_lines(tree):
    """Lines that write a fall-speed law's constant, by law.

    ``"ball"``: 4/15 or 5 pi, the constants of a uniform ball's fall speed;
    ``"drag"``: 6 pi, the constant of a single sphere's Stokes drag.
    """
    lines = {"ball": [], "drag": []}
    for node in ast.walk(tree):
        if not isinstance(node, ast.BinOp):
            continue
        numbers = (_number(node.left), _number(node.right))
        times_pi = (isinstance(node.op, ast.Mult)
                    and "pi" in (_name(node.left), _name(node.right)))
        if isinstance(node.op, ast.Div) and numbers == (4, 15) or times_pi and 5 in numbers:
            lines["ball"].append(node.lineno)
        elif times_pi and 6 in numbers:
            lines["drag"].append(node.lineno)
    return {law: sorted(found) for law, found in lines.items()}


def _law_lines_outside_its_module(law, module):
    """Lines of package modules other than ``module`` that write ``law``, by file name.

    ``module`` itself must write it, so a scan that matches nothing cannot pass.
    """
    package = Path(dropsed.__file__).parent
    assert _fall_speed_law_lines(ast.parse((package / module).read_text()))[law]
    found = {path.name: _fall_speed_law_lines(ast.parse(path.read_text()))[law]
             for path in sorted(package.glob("*.py")) if path.name != module}
    return {name: lines for name, lines in found.items() if lines}


def test_only_patch_waves_writes_the_fall_speed_law():
    toy = ast.parse("a = -4.0 / 15.0\nb = 5.0 * math.pi\nc = np.pi * 5\nd = 4.0 / 3.0\n"
                    "e = 8.0 * math.pi\nf = 15.0 / 4.0\ng = 5 * x\n")
    assert _fall_speed_law_lines(toy)["ball"] == [1, 2, 3]
    assert _law_lines_outside_its_module("ball", "patch_waves.py") == {}


def test_only_kernels_writes_the_stokes_drag_law():
    toy = ast.parse("a = 6.0 * math.pi * r\nb = np.pi * 6\nc = 6 * x\nd = 5.0 * math.pi\n"
                    "e = 6.0 / math.pi\n")
    assert _fall_speed_law_lines(toy)["drag"] == [1, 2]
    assert _law_lines_outside_its_module("drag", "kernels.py") == {}
