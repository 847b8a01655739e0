"""The names that benchmarks/ and demos/ import from relaylab still resolve.

Those scripts are not part of the test suite, so a renamed or removed
public name would otherwise only show when they are next run.
"""

import ast
import importlib
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SCRIPTS = sorted((ROOT / "benchmarks").glob("*.py")) + sorted((ROOT / "demos").glob("*.py"))


def _relaylab_imports(path: Path) -> list[tuple[str, str | None]]:
    """(module, name) for each ``from relaylab... import name`` and
    (module, None) for each ``import relaylab...`` in one script."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.ImportFrom) and node.level == 0 and node.module:
            if node.module.split(".")[0] == "relaylab":
                found.extend((node.module, alias.name) for alias in node.names)
        elif isinstance(node, ast.Import):
            found.extend((alias.name, None) for alias in node.names if alias.name.split(".")[0] == "relaylab")
    return found


def test_scripts_found():
    assert any(p.parent.name == "benchmarks" for p in SCRIPTS)
    assert any(p.parent.name == "demos" for p in SCRIPTS)


@pytest.mark.parametrize("path", SCRIPTS, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_imported_names_resolve(path):
    missing = []
    for module_name, name in _relaylab_imports(path):
        module = importlib.import_module(module_name)
        if name is None or hasattr(module, name):
            continue
        try:
            importlib.import_module(f"{module_name}.{name}")
        except ModuleNotFoundError:
            missing.append(f"{module_name}.{name}")
    assert not missing, f"{path.name} imports names relaylab no longer has: {missing}"
