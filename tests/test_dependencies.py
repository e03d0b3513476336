"""The runtime is standard-library only: every absolute import in the
package names a standard-library module (relative imports stay inside
the package)."""

import ast
import pathlib
import sys

import pytest

PACKAGE = pathlib.Path(__file__).resolve().parents[1] / "src" / "postlie"


def _absolute_imports(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_every_absolute_import_is_standard_library(path):
    outside = sorted(
        {name for name in _absolute_imports(path) if name.split(".")[0] not in sys.stdlib_module_names}
    )
    assert not outside, f"{path.name} imports {outside}"


def test_the_package_has_modules_to_check():
    assert len(list(PACKAGE.glob("*.py"))) >= 10
