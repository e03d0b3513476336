"""The 8x8 class-pair existence grid: frozen verdict layout, full
re-verification, and tamper detection."""

from fractions import Fraction

import pytest

import postlie.table as table_module
from postlie.catalog import get_algebra
from postlie.rules import rule_by_id
from postlie.table import (
    CLASSES,
    TableVerificationError,
    Witness,
    classify,
    existence_table,
)

# annotation grid frozen after machine re-verification of every cell;
# rows and columns both follow CLASSES order
GOLDEN_GRID = (
    ("✓", "✓", "✓", "− R6", "− R6", "?", "✓", "− R6"),
    ("✓", "✓", "✓", "− R7", "− R7", "?", "✓", "− R7"),
    ("✓", "✓", "✓", "✓", "✓", "✓", "✓", "✓"),
    ("− R1", "− R2", "− R3", "✓", "?", "?", "− R5", "− R8"),
    ("− R1", "− R2", "− R3", "?", "✓", "− R4", "− R3", "− R8"),
    ("✓", "✓", "✓", "?", "?", "✓", "✓", "✓"),
    ("✓", "✓", "✓", "✓", "✓", "✓", "✓", "✓"),
    ("− R1", "?", "− R3", "?", "?", "✓", "− R5", "✓"),
)


@pytest.fixture(scope="module")
def verified_table():
    return existence_table()


def test_class_axes():
    assert CLASSES == (
        "abelian",
        "nilpotent",
        "solvable",
        "simple",
        "semisimple",
        "reductive",
        "complete",
        "perfect",
    )


def test_classify_oracles():
    assert classify(get_algebra("abelian_3")) == ("abelian",)
    assert classify(get_algebra("n3")) == ("nilpotent",)
    assert classify(get_algebra("sl2")) == ("simple",)
    assert classify(get_algebra("sl2_plus_sl2")) == ("semisimple",)
    assert classify(get_algebra("gl2")) == ("reductive",)
    assert classify(get_algebra("L5_1")) == ("perfect",)
    # the solvable/complete overlap is real: these satisfy both predicates
    assert classify(get_algebra("r2")) == ("solvable", "complete")
    assert classify(get_algebra("b3")) == ("solvable", "complete")


def test_first_six_classes_are_pairwise_disjoint():
    first_six = CLASSES[:6]
    for entry_id in (
        "abelian_3",
        "n3",
        "r2",
        "sl2",
        "sl2_plus_sl2",
        "gl2",
        "L5_1",
        "f23",
        "sl2_plus_C2",
    ):
        hits = [
            c for c in classify(get_algebra(entry_id)) if c in first_six
        ]
        assert len(hits) <= 1, entry_id


def test_counts(verified_table):
    assert verified_table.counts == {"exists": 34, "not_exists": 20, "unknown": 10}
    assert len(verified_table.cells) == 64


def test_golden_grid(verified_table):
    grid = tuple(
        tuple(verified_table.cell(row, col).annotation for col in CLASSES)
        for row in CLASSES
    )
    assert grid == GOLDEN_GRID


def test_the_undecided_cells(verified_table):
    open_cells = {
        (c.row, c.col) for c in verified_table.cells if c.status == "unknown"
    }
    # four undecided by the source analysis ...
    assert {
        ("reductive", "semisimple"),
        ("perfect", "nilpotent"),
        ("perfect", "simple"),
        ("perfect", "semisimple"),
    } <= open_cells
    # ... plus six with neither witness nor applicable rule
    assert open_cells == {
        ("abelian", "reductive"),
        ("nilpotent", "reductive"),
        ("simple", "semisimple"),
        ("simple", "reductive"),
        ("semisimple", "simple"),
        ("reductive", "simple"),
        ("reductive", "semisimple"),
        ("perfect", "nilpotent"),
        ("perfect", "simple"),
        ("perfect", "semisimple"),
    }


def test_spot_check_specific_cells(verified_table):
    sol_nil = verified_table.cell("solvable", "nilpotent")
    assert sol_nil.status == "exists"
    assert (sol_nil.g_id, sol_nil.n_id) == ("r2_plus_C", "n3")

    sem_com = verified_table.cell("semisimple", "complete")
    assert sem_com.status == "not_exists"
    assert sem_com.rule_id == "R3"

    per_com = verified_table.cell("perfect", "complete")
    assert per_com.rule_id == "R5"
    assert (per_com.g_id, per_com.n_id) == ("L8_21", "b3_plus_sl2")

    assert verified_table.cell("perfect", "perfect").status == "exists"


def test_every_cell_is_fully_annotated(verified_table):
    for c in verified_table.cells:
        if c.status == "exists":
            assert c.g_id and c.n_id and c.witness_kind
            assert c.rule_id is None
        elif c.status == "not_exists":
            assert c.g_id and c.n_id and c.rule_id
            assert c.witness_kind is None
        else:
            assert c.rule_id is None and c.witness_kind is None


def test_as_dict_and_render(verified_table):
    doc = verified_table.as_dict()
    assert doc["counts"] == {"exists": 34, "not_exists": 20, "unknown": 10}
    assert len(doc["cells"]) == 64
    text = verified_table.render()
    assert "g \\ n" in text
    assert "witnessed cells" in text
    assert text.count("✓") >= 34
    assert verified_table.cell("abelian", "abelian").annotation == "✓"


def test_unknown_cell_lookup_raises(verified_table):
    with pytest.raises(KeyError):
        verified_table.cell("abelian", "banana")


def test_tampered_rule_is_caught(monkeypatch):
    # claim an abelian-target rule on a pair whose target is not abelian
    _, g_id, n_id = table_module._NOT_EXISTS[("semisimple", "complete")]
    monkeypatch.setitem(
        table_module._NOT_EXISTS, ("semisimple", "complete"), ("R1", g_id, n_id)
    )
    with pytest.raises(TableVerificationError):
        existence_table()


def test_tampered_witness_is_caught(monkeypatch):
    # a zero product on n3 induces n3 itself: wrong class for this row and
    # the wrong fingerprint for the declared source algebra
    monkeypatch.setitem(
        table_module._EXISTS,
        ("solvable", "nilpotent"),
        Witness(kind="zero", g_id="r2_plus_C", n_id="n3"),
    )
    with pytest.raises(TableVerificationError):
        existence_table()


def _plain(value):
    return isinstance(value, (int, Fraction)) or (
        isinstance(value, tuple) and all(map(_plain, value))
    )


def test_every_witness_is_declared_as_plain_data():
    for key, witness in table_module._EXISTS.items():
        assert _plain(witness.data), key
        hash(witness)


def test_the_grid_checks_each_operator_witness_by_its_identity_alone(monkeypatch):
    # the induced bracket of an operator witness's product {Rx, y} is the
    # operator's descendent bracket by construction, so the grid builds no
    # descendent and checks only the weight-one identity, once per witness
    import postlie.structures as structures_module

    def refuse(n, op, name=""):
        raise AssertionError("the grid built a descendent bracket")

    expected = sorted(
        (n.name, op.matrix)
        for _, n, _, op in (witness.materialize() for witness in table_module._EXISTS.values())
        if op is not None
    )
    original, checked = table_module.verify_rb, []

    def counting(n, op):
        checked.append((n.name, op.matrix))
        return original(n, op)

    monkeypatch.setattr(structures_module, "descendent_bracket", refuse)
    monkeypatch.setattr(table_module, "verify_rb", counting)
    assert not hasattr(table_module, "descendent_bracket")
    existence_table()
    assert len(expected) == 10
    assert sorted(checked) == expected


# One tampered registry entry per cell check, with the exact message the
# grid build raises.  No check compares an operator witness's descendent
# bracket with its product: the product of an operator witness is
# ``{Rx, y}``, so its induced bracket is the descendent bracket by
# construction, and the weight-one identity is the operator's one check.
_EXISTS_TAMPERS = {
    "witness product fails the axioms": (
        ("abelian", "solvable"),
        Witness("product", "abelian_2", "r2", (((0, 0), ((0, 1),)),)),
        "cell (abelian, solvable): witness product fails the axioms",
    ),
    # R e2 = e2 is central in n3: the product {Rx, y} is zero, but
    # {R e0, R e1} = 0 differs from R [e0, e1]_R = e2
    "operator fails the weight-one identity": (
        ("nilpotent", "nilpotent"),
        Witness("operator", "n3", "n3", ((0, 0, 0), (0, 0, 0), (0, 0, 1))),
        "cell (nilpotent, nilpotent): witness operator fails the weight-one identity",
    ),
    "induced algebra out of its class": (
        ("solvable", "nilpotent"),
        Witness("zero", "r2_plus_C", "n3"),
        "cell (solvable, nilpotent): induced algebra is not in class 'solvable'",
    ),
    "second algebra out of its class": (
        ("abelian", "nilpotent"),
        Witness("zero", "abelian_1", "abelian_1"),
        "cell (abelian, nilpotent): second algebra is not in class 'nilpotent'",
    ),
    "fingerprint mismatch": (
        ("abelian", "abelian"),
        Witness("zero", "abelian_3", "abelian_1"),
        "cell (abelian, abelian): induced algebra does not match the "
        "registered catalog fingerprint 'abelian_3'",
    ),
}

_NOT_EXISTS_TAMPERS = {
    "representative g out of its class": (
        ("semisimple", "complete"),
        ("R3", "sl2", "r2_plus_r2_plus_r2"),
        "cell (semisimple, complete): representative 'sl2' not in class 'semisimple'",
    ),
    "representative n out of its class": (
        ("semisimple", "complete"),
        ("R3", "sl2_plus_sl2", "abelian_6"),
        "cell (semisimple, complete): representative 'abelian_6' not in class 'complete'",
    ),
    "no rule fires": (
        ("abelian", "reductive"),
        ("R6", "abelian_4", "gl2"),
        "cell (abelian, reductive): no rule fires on (abelian_4, gl2)",
    ),
    "another rule fires": (
        ("semisimple", "complete"),
        ("R1", "sl2_plus_sl2", "r2_plus_r2_plus_r2"),
        "cell (semisimple, complete): expected R1, got R3",
    ),
}


@pytest.mark.parametrize("case", sorted(_EXISTS_TAMPERS))
def test_each_witness_check_reports_its_cell(monkeypatch, case):
    key, witness, message = _EXISTS_TAMPERS[case]
    monkeypatch.setitem(table_module._EXISTS, key, witness)
    with pytest.raises(TableVerificationError) as info:
        existence_table()
    assert str(info.value) == message


@pytest.mark.parametrize("case", sorted(_NOT_EXISTS_TAMPERS))
def test_each_representative_check_reports_its_cell(monkeypatch, case):
    key, entry, message = _NOT_EXISTS_TAMPERS[case]
    monkeypatch.setitem(table_module._NOT_EXISTS, key, entry)
    with pytest.raises(TableVerificationError) as info:
        existence_table()
    assert str(info.value) == message


def test_a_rule_firing_on_a_witness_pair_is_reported(monkeypatch):
    # a sound rule never fires on a pair that carries a product, so only a
    # tampered rule set reaches this check
    original = table_module.applicable_rule

    def r6_on_abelian_1(g, n):
        if g.dim == 1:
            return rule_by_id("R6"), ()
        return original(g, n)

    monkeypatch.setattr(table_module, "applicable_rule", r6_on_abelian_1)
    with pytest.raises(TableVerificationError) as info:
        existence_table()
    assert str(info.value) == "cell (abelian, abelian): rule R6 fires on a witness pair"
