"""Checks of the source: every module-level import of the package and of
the tests is used, the package exports what its modules export, the PDE
solver imports nothing of the inversion layer it checks, and only the
two writers open files for writing.

The package namespace is the union of its modules' ``__all__`` lists
(``cli`` is the entry point, not a library module), so a public name is
declared in one place.  The package imports are its only dependencies
on other modules, so an import that nothing references is dead weight
at start-up and a stale pointer for the reader; in a test module it is
a stale pointer too.
``__init__.py`` is exempt: its imports are the package's public
namespace.  Every output file is a table written by
``environment.write_csv`` or a sidecar written by ``cli._sidecar``, so
one CSV convention holds as long as nothing else writes.  ``pde`` is the
finite-difference oracle for the effective Hamiltonian that ``effective``
computes, so it takes that prediction as an input and shares no code
with it, nor with the shooting layer ``corrector`` that ``effective``
rests on: it imports only ``environment`` and ``errors``.  ``corrector``
is the shooting layer alone, and the sub/supersolution probes built on it
live in ``probe``, which only the command line runs.
"""

import ast
import importlib
from pathlib import Path
from types import ModuleType

import hjlab

TESTS = Path(__file__).resolve().parent
SRC = TESTS.parent / "src" / "hjlab"


def _unused_imports(tree: ast.Module) -> list[str]:
    bound = {}
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                name = alias.asname or alias.name.partition(".")[0]
                bound[name] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    # names listed in __all__ count as used: they are re-exported
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__"
                for t in node.targets):
            used |= {c.value for c in ast.walk(node.value)
                     if isinstance(c, ast.Constant)}
    return [f"line {line}: {name}" for name, line in sorted(bound.items())
            if name not in used]


def test_module_imports_are_used():
    # the check itself sees an unused name beside a used one
    probe = ast.parse("import io\nfrom math import pi, tau\nx = tau\n")
    assert _unused_imports(probe) == ["line 1: io", "line 2: pi"]
    unused = {}
    for path in sorted(SRC.glob("*.py")) + sorted(TESTS.glob("*.py")):
        if path == SRC / "__init__.py":
            continue
        found = _unused_imports(ast.parse(path.read_text(), filename=str(path)))
        if found:
            unused[f"{path.parent.name}/{path.name}"] = found
    assert unused == {}


def test_package_namespace_is_the_union_of_the_module_exports():
    # every module lists its public names in __all__, and the package
    # re-exports exactly those
    exports = set()
    for path in sorted(SRC.glob("*.py")):
        if path.stem in ("__init__", "cli"):
            continue
        module = importlib.import_module(f"hjlab.{path.stem}")
        assert hasattr(module, "__all__"), path.name
        exports |= set(module.__all__)
    namespace = {name for name, value in vars(hjlab).items()
                 if not name.startswith("_")
                 and not isinstance(value, ModuleType)}
    assert namespace == exports


def _package_imports(tree: ast.Module) -> set[str]:
    """The package modules that ``tree`` imports from, at any depth."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            found |= ({node.module.partition(".")[0]} if node.module
                      else {alias.name for alias in node.names})
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            if node.module == "hjlab":
                found |= {alias.name for alias in node.names}
            elif node.module.startswith("hjlab."):
                found.add(node.module.split(".")[1])
        elif isinstance(node, ast.Import):
            found |= {alias.name.split(".")[1] for alias in node.names
                      if alias.name.startswith("hjlab.")}
    return found


def test_pde_imports_nothing_from_effective():
    # the check itself sees each way of importing a package module
    probe = ast.parse("from .corrector import a\nfrom . import errors\n"
                      "import hjlab.hamiltonian\nimport numpy\n"
                      "def f():\n    from hjlab.effective import b\n"
                      "    from hjlab import environment\n")
    assert _package_imports(probe) == {"corrector", "errors", "hamiltonian",
                                       "effective", "environment"}
    pde = SRC / "pde.py"
    assert "effective" not in _package_imports(
        ast.parse(pde.read_text(), filename=str(pde)))


def _imports_of(module: str) -> set[str]:
    path = SRC / f"{module}.py"
    return _package_imports(ast.parse(path.read_text(), filename=str(path)))


def test_pde_imports_only_environment_and_errors():
    assert _imports_of("pde") == {"environment", "errors"}


def test_corrector_imports_no_solver_inversion_or_probe():
    assert _imports_of("corrector") & {"pde", "effective", "probe"} == set()


def test_only_cli_imports_probe():
    # __init__ re-exports the probe names as the package namespace
    importers = [path.stem for path in sorted(SRC.glob("*.py"))
                 if "probe" in _imports_of(path.stem)]
    assert importers == ["__init__", "cli"]


# the two functions that write files: every table goes through write_csv,
# every JSON sidecar through cli._sidecar
WRITERS = ["cli._sidecar", "environment.write_csv"]
_WRITE_CALLS = ("write_text", "write_bytes", "savetxt", "save", "savez",
                "savez_compressed", "tofile")


def _opens_for_writing(call: ast.Call) -> bool:
    func = call.func
    name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", "")
    if name in _WRITE_CALLS:
        return True
    if name != "open":
        return False
    # builtin open(path, mode) takes the mode second, Path.open(mode) first
    pos = 1 if isinstance(func, ast.Name) else 0
    mode = next((kw.value for kw in call.keywords if kw.arg == "mode"),
                call.args[pos] if len(call.args) > pos else None)
    if mode is None:
        return False
    # a mode that is not a literal may write
    return not (isinstance(mode, ast.Constant) and isinstance(mode.value, str)
                and not set(mode.value) & set("wax+"))


def _file_writers(tree: ast.Module, module: str) -> list[str]:
    """Qualified names of the functions in ``tree`` that open a file for
    writing; a write outside any function is listed as ``<module>``."""
    found = set()

    def visit(node, owner):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            owner = node.name if owner is None else f"{owner}.{node.name}"
        elif isinstance(node, ast.Call) and _opens_for_writing(node):
            found.add(f"{module}.{owner or '<module>'}")
        for child in ast.iter_child_nodes(node):
            visit(child, owner)

    visit(tree, None)
    return sorted(found)


def test_only_the_writers_open_files_for_writing():
    # the check itself sees each way of writing, and passes reads
    probe = ast.parse(
        "def a(p):\n    open(p, 'w')\n"
        "def b(p):\n    open(p)\n    open(p, mode='rb')\n    p.open()\n"
        "def c(p, m):\n    open(p, m)\n"
        "class D:\n    def e(self, p):\n        p.open(mode='a')\n"
        "def f(p):\n    p.write_text('x')\n"
        "np.savetxt('g', [])\n")
    assert _file_writers(probe, "m") == ["m.<module>", "m.D.e", "m.a",
                                         "m.c", "m.f"]
    writers = []
    for path in sorted(SRC.glob("*.py")):
        writers += _file_writers(ast.parse(path.read_text(),
                                           filename=str(path)), path.stem)
    assert writers == WRITERS
