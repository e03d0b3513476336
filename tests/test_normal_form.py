"""Every exact scalar has one normal form: an ``int`` when the value is
integral, else a ``Fraction`` whose denominator is greater than 1.  The
kernels store only normal-form values, and the one exact division is
``linalg.reciprocal``: in ``int`` arithmetic ``1 / 2`` is the float 0.5."""

import ast
import json
import pathlib
from fractions import Fraction

import pytest

from postlie import cli, interchange, linalg, table
from postlie.catalog import catalog_ids, get_algebra, get_entry
from postlie.liealg import LieAlgebra
from postlie.search import pa_search
from postlie.sl2 import SL2_TABLE
from postlie.structures import PAProduct, RBOperator, negation_partner, pa_from_rb, rb_from_decomposition
from postlie.subspace import Subspace

ROOT = pathlib.Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "postlie"
SEARCH_PAIRS = ROOT / "perfbench" / "data" / "search_pairs.json"
DIVISION = ("linalg.py", "reciprocal")


def _divisions(tree, where=None):
    """``(line, enclosing function)`` of each true division in ``tree``."""
    for node in ast.iter_child_nodes(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield from _divisions(node, node.name)
            continue
        if isinstance(node, ast.Div):
            yield tree.lineno, where
        yield from _divisions(node, where)


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_no_module_divides_outside_the_one_reciprocal(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    found = [(line, fn) for line, fn in _divisions(tree) if (path.name, fn) != DIVISION]
    assert not found, f"{path.name} divides at {found}"


def test_the_division_guard_sees_every_true_division():
    tree = ast.parse("a = 1 / 2\ndef f(x):\n    x /= 3\n    return x // 2\n")
    assert list(_divisions(tree)) == [(1, None), (3, "f")]


def _off_form(scalars):
    """The scalars that are not an ``int`` or a non-integral ``Fraction``."""
    return [
        x
        for x in scalars
        if not (type(x) is int or (type(x) is Fraction and x.denominator > 1))
    ]


def _cell_scalars(cells):
    return (c for plane in cells for cell in plane for _, c in cell)


def _row_scalars(space):
    return (x for row in space.rows for _, x in row)


def test_cells_summed_to_an_integer_are_stored_as_int():
    # both orders of one pair add 1/2 + 1/2 to the entry of [e_1, e_2]
    alg = LieAlgebra.from_table(2, {(0, 1): {1: Fraction(1, 2)}, (1, 0): {1: Fraction(-1, 2)}})
    assert alg.cells[0][1] == ((1, 1),)
    assert not _off_form(_cell_scalars(alg.cells))


def test_kernels_store_an_integral_result_of_fractions_as_int():
    rows = {}
    linalg.add_entry(rows, "eq", 0, Fraction(1, 2))
    linalg.add_entry(rows, "eq", 0, Fraction(1, 2))
    assert not _off_form(rows["eq"].values())
    # sl2 with every structure constant halved: its Killing form is a
    # quarter of sl2's, whose entries are all multiples of 4
    half = LieAlgebra.from_table(
        3, {ij: {k: Fraction(c, 2) for k, c in entry.items()} for ij, entry in SL2_TABLE.items()}
    )
    assert half._killing == tuple(tuple(x // 4 for x in row) for row in get_algebra("sl2")._killing)
    assert not _off_form(x for row in half._killing for x in row)
    row = half._bracket_row(((0, 2),), ((1, 1),))  # [2 e_1, e_2] = e_3
    assert row == {2: 1} and not _off_form(row.values())


def test_documents_and_flags_enter_in_normal_form():
    doc = {
        "kind": "operator",
        "name": "R",
        "dim": 2,
        "basis": ["e1", "e2"],
        "matrix": [["1", "-1/2"], ["0", "2"]],
        "weight": "1",
    }
    op = interchange.parse_document(doc).value
    assert op.matrix == ((1, Fraction(-1, 2)), (0, 2))
    assert not _off_form([op.weight, *(x for row in op.matrix for x in row)])
    assert not _off_form([cli._rational_flag(text) for text in ("1", "2/2", "-4/2", "1/2")])


BUILDABLE = [i for i in catalog_ids() if get_entry(i).kind != "stub"]


@pytest.mark.parametrize("entry_id", BUILDABLE)
def test_catalog_invariants_hold_normal_form_scalars(entry_id):
    alg = get_algebra(entry_id)
    places = {
        "cells": _cell_scalars(alg.cells),
        "_derivations": (x for der in alg._derivations for x in der.values()),
        "_derivation_constants": (c for terms in alg._derivation_constants for _, c in terms),
        "_killing": (x for row in alg._killing for x in row),
        "_derived": _row_scalars(alg._derived),
        "_center": _row_scalars(alg._center),
        "_radical": _row_scalars(alg._radical),
    }
    off = {place: _off_form(scalars) for place, scalars in places.items()}
    assert not any(off.values()), off


def test_search_witnesses_hold_normal_form_scalars():
    pairs = json.loads(SEARCH_PAIRS.read_text(encoding="utf-8"))
    assert len(pairs) == 44
    witnesses = 0
    for pair in pairs:
        g = interchange.parse_document(pair["g"]).value
        n = interchange.parse_document(pair["n"]).value
        cert = pa_search(g, n, budget=pair["budget"])
        if cert.witness is not None:
            witnesses += 1
            assert not _off_form(_cell_scalars(cert.witness.cells)), (g.name, n.name)
    assert witnesses == 22


def _operator_scalars(op):
    return [op.weight, *(x for row in op.matrix for x in row)]


def test_grid_witness_operators_hold_normal_form_scalars():
    operators = 0
    for key, witness in table._EXISTS.items():
        op = witness.materialize()[3]
        if op is not None:
            operators += 1
            assert not _off_form(_operator_scalars(op)), key
    assert operators == 10


def test_operator_builders_store_an_integral_result_of_fractions_as_int():
    half = Fraction(1, 2)
    partner = negation_partner(RBOperator.from_rows(((half, 0), (0, half)), weight=half))
    assert partner.matrix == ((-1, 0), (0, -1))
    assert not _off_form(_operator_scalars(partner))
    # minus the projection onto the span of (1/2, 1/3) along (1/2, 1/2)
    first = Subspace.from_vectors(2, [(half, half)])
    second = Subspace.from_vectors(2, [(half, Fraction(1, 3))])
    op = rb_from_decomposition(LieAlgebra.abelian(2), first, second)
    assert op.matrix == ((-3, 3), (-2, 2))
    assert not _off_form(_operator_scalars(op))


def test_an_operator_product_stores_an_integral_sum_of_fractions_as_int():
    half = Fraction(1, 2)
    op = RBOperator.from_rows(((half, half, 0), (3 * half, half, 0), (0, 0, Fraction(1, 3))))
    product = pa_from_rb(get_algebra("sl2"), op)
    scalars = list(_cell_scalars(product.cells))
    assert -1 in scalars and 3 in scalars and 1 in scalars
    assert not _off_form(scalars)


def test_dense_matrix_helpers_return_an_integral_result_of_fractions_as_int():
    half = Fraction(1, 2)
    m = ((half, half), (3 * half, half))
    square = linalg.matmul(m, m)
    assert square == ((1, half), (3 * half, 1))
    image = linalg.matvec(m, (1, 1))
    assert image == (1, 2)
    bracket = linalg.commutator(m, ((half, 0), (0, -half)))
    assert bracket == ((0, -half), (3 * half, 0))  # 1/4 - 1/4 on the diagonal
    assert not _off_form([*(x for row in square + bracket for x in row), *image])


def test_dense_brackets_and_products_return_an_integral_result_of_fractions_as_int():
    half = Fraction(1, 2)
    bracket = get_algebra("sl2").bracket((half, 0, 0), (0, 2, 0))
    assert bracket == (0, 0, 1)  # [e_1 / 2, 2 e_2] = e_3
    product = PAProduct.from_table(2, {(0, 0): {1: half}, (0, 1): {1: half}})
    applied = product.apply((1, 1), (2, 0))
    assert applied == (0, 1)
    left = product.left_mult((2, 0))
    assert left == ((0, 0), (1, 1))
    assert not _off_form([*bracket, *applied, *(x for row in left for x in row)])
