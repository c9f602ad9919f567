"""Every public top-level name in maee has a caller outside the tests."""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "maee"


def _caller_sources() -> dict[Path, str]:
    files = [*PACKAGE.glob("*.py"), *(ROOT / "demos").glob("*.py"),
             *(ROOT / "benchmarks").glob("*.py"), ROOT / "pyproject.toml"]
    return {path: path.read_text() for path in files}


def test_every_public_name_has_a_caller_outside_tests():
    sources = _caller_sources()
    unused = []
    for module in sorted(PACKAGE.glob("*.py")):
        if module.name == "__init__.py":
            continue
        for node in ast.parse(sources[module]).body:
            if (not isinstance(node, (ast.FunctionDef, ast.ClassDef))
                    or node.name.startswith("_")):
                continue
            word = re.compile(rf"\b{node.name}\b")
            first = min([node.lineno, *(d.lineno for d in node.decorator_list)])
            for path, text in sources.items():
                if path == module:
                    lines = text.splitlines()
                    text = "\n".join(lines[:first - 1] + lines[node.end_lineno:])
                if word.search(text):
                    break
            else:
                unused.append(f"{module.stem}.{node.name}")
    assert not unused, f"public names with no caller outside tests: {unused}"
