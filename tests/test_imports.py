"""Every name a module of the package or of scripts/ imports is used in it.

A deletion that leaves an import behind fails here, with the standard
library's ``ast`` only.
"""

import ast
import pathlib

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
MODULES = sorted([*(ROOT / "src" / "lenardlab").glob("*.py"), *(ROOT / "scripts").glob("*.py")])


def unused_imports(source: str) -> list[str]:
    """The names ``source`` binds by an import and never reads."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.partition(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"line {line}: {name}" for name, line in imported.items() if name not in used]


def test_the_scan_sees_an_unused_import():
    assert unused_imports("import os\nfrom math import pi, tau\nprint(tau)\n") == [
        "line 1: os", "line 2: pi"]
    assert unused_imports("import os.path\nos.path.join('a')\n") == []


@pytest.mark.parametrize("path", MODULES, ids=[p.relative_to(ROOT).as_posix() for p in MODULES])
def test_module_uses_every_name_it_imports(path):
    assert unused_imports(path.read_text()) == []
