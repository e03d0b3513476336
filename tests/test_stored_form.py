"""Brackets and products are stored only as their canonical cells: no
module of the package reads the dense ``brackets`` or ``tensor`` views,
which exist for tests and output."""

import ast
import pathlib

import pytest

PACKAGE = pathlib.Path(__file__).resolve().parents[1] / "src" / "postlie"
DENSE_VIEWS = {"brackets", "tensor"}


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_no_module_reads_a_dense_view(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    reads = sorted(
        (node.lineno, node.attr)
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and node.attr in DENSE_VIEWS
    )
    assert not reads, f"{path.name} reads {reads}"
