"""Every public name in maee has a caller outside the tests.

Public names are the top-level functions and classes of each module and the
public methods, classmethods and properties of each public class.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "maee"


def _caller_sources() -> dict[Path, str]:
    files = [*PACKAGE.glob("*.py"), *(ROOT / "demos").glob("*.py"),
             *(ROOT / "benchmarks").glob("*.py"), ROOT / "pyproject.toml"]
    return {path: path.read_text() for path in files}


def _public_definitions(tree: ast.Module):
    """(qualified name, node) of each public top-level definition and class member."""
    for node in tree.body:
        if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) or node.name.startswith("_"):
            continue
        yield node.name, node
        if isinstance(node, ast.ClassDef):
            for member in node.body:
                if isinstance(member, ast.FunctionDef) and not member.name.startswith("_"):
                    yield f"{node.name}.{member.name}", member


def test_every_public_name_has_a_caller_outside_tests():
    sources = _caller_sources()
    unused = []
    for module in sorted(PACKAGE.glob("*.py")):
        if module.name == "__init__.py":
            continue
        for qualname, node in _public_definitions(ast.parse(sources[module])):
            word = re.compile(rf"\b{node.name}\b")
            first = min([node.lineno, *(d.lineno for d in node.decorator_list)])
            for path, text in sources.items():
                if path == module:
                    lines = text.splitlines()
                    text = "\n".join(lines[:first - 1] + lines[node.end_lineno:])
                if word.search(text):
                    break
            else:
                unused.append(f"{module.stem}.{qualname}")
    assert not unused, f"public names with no caller outside tests: {unused}"
