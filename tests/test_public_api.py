"""Every name the package exports has a use outside the unit tests."""

import ast
import re
from pathlib import Path

import tnad

ROOT = Path(__file__).resolve().parent.parent


def _uses(path: Path) -> str:
    """The file's source without its import lines, ``__all__`` lists, def/class
    lines and the names its module-level assignments bind: a binding is no use."""
    lines = path.read_text().splitlines()
    tree = ast.parse("\n".join(lines))
    for node in tree.body:
        targets = getattr(node, "targets", [getattr(node, "target", None)])
        for name in (t for t in targets if isinstance(t, ast.Name)):
            line = lines[name.lineno - 1]
            lines[name.lineno - 1] = line[: name.col_offset] + line[name.end_col_offset :]
    skipped = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)) or (
            isinstance(node, ast.Assign)
            and any(getattr(t, "id", None) == "__all__" for t in node.targets)
        ):
            skipped.update(range(node.lineno, node.end_lineno + 1))
        elif isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            skipped.add(node.lineno)
    return "\n".join(line for i, line in enumerate(lines, 1) if i not in skipped)


def _acceptance_imports() -> set[str]:
    tree = ast.parse((ROOT / "tests" / "test_acceptance.py").read_text())
    return {
        alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("tnad")
        for alias in node.names
    }


def test_every_export_has_a_use_outside_the_unit_tests():
    files = [
        *(p for p in (ROOT / "src" / "tnad").glob("*.py") if p.name != "__init__.py"),
        *(ROOT / "demos").glob("*.py"),
        *(ROOT / "perfbench").glob("*.py"),
    ]
    text = "\n".join(_uses(p) for p in files)
    imported = _acceptance_imports()
    unused = [
        name
        for name in tnad.__all__
        if name not in imported and not re.search(rf"\b{re.escape(name)}\b", text)
    ]
    assert not unused, f"exported but used only by the unit tests: {unused}"
