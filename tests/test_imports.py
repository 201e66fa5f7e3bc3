"""Static checks of the package source: every module-level import is used.

The package imports are its only dependencies on other modules, so an
import that nothing references is dead weight at start-up and a stale
pointer for the reader.  ``__init__.py`` is exempt: its imports are the
package's public namespace.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "hjlab"


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
    for path in sorted(SRC.glob("*.py")):
        if path.name == "__init__.py":
            continue
        found = _unused_imports(ast.parse(path.read_text(), filename=str(path)))
        if found:
            unused[path.name] = found
    assert unused == {}
