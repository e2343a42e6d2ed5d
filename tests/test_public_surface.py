"""Every name that ``taukit/__init__.py`` exports has a user outside the
tests: code in ``src/taukit`` other than the name's own definition, README.md,
a demo, or the benchmark harness in ``perfbench/``, whose ops call
``rational_r_decomposition`` and ``det_rep_derivatives`` and whose tracer
wraps functions by their names.  An import is not a use."""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "taukit"


def exported_names() -> list[str]:
    tree = ast.parse((PACKAGE / "__init__.py").read_text())
    return [alias.asname or alias.name
            for node in tree.body if isinstance(node, ast.ImportFrom) for alias in node.names]


def python_uses(path: Path) -> set[str]:
    """The names, attributes and whole-string constants a module reads,
    leaving out imports and each top-level definition's mentions of itself."""
    used: set[str] = set()

    def visit(node, own):
        if isinstance(node, ast.Name):
            word = node.id
        elif isinstance(node, ast.Attribute):
            word = node.attr
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            word = node.value
        else:
            word = None
        if word is not None and word != own:
            used.add(word)
        for child in ast.iter_child_nodes(node):
            visit(child, own)

    for node in ast.parse(path.read_text()).body:
        own = node.name if isinstance(node, (ast.FunctionDef, ast.ClassDef)) else None
        visit(node, own)
    return used


def test_every_export_has_a_user_outside_the_tests():
    used: set[str] = set()
    sources = [p for p in PACKAGE.glob("*.py") if p.name != "__init__.py"]
    for path in sources + sorted((ROOT / "demos").glob("*.py")) + sorted((ROOT / "perfbench").glob("*.py")):
        used |= python_uses(path)
    readme = set(re.findall(r"\w+", (ROOT / "README.md").read_text()))
    unused = [name for name in exported_names() if name not in used | readme]
    assert not unused, f"exported but used only by the tests: {unused}"
