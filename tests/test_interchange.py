"""Interchange format: canonical serialization, strict parsing with located
errors, and freshness + integrity of every shipped fixture."""

import json
import pathlib
import subprocess
import sys
from fractions import Fraction

import pytest

from postlie import interchange
from postlie.catalog import catalog_ids, get_algebra, get_entry
from postlie.interchange import (
    InterchangeError,
    default_basis,
    format_rational,
    parse_file,
    parse_text,
    serialize,
)
from postlie.liealg import LieAlgebra
from postlie.samples import get_sample, sample_ids
from postlie.structures import (
    DoubleEmbedding,
    PAProduct,
    RBOperator,
    induced_bracket,
    verify_pa,
    verify_rb,
)
from postlie import linalg

PKG_ROOT = pathlib.Path(interchange.__file__).resolve().parent
DATA_DIR = PKG_ROOT / "data"
REPO_ROOT = PKG_ROOT.parent.parent

F = Fraction


# ----------------------------------------------------------------------
# canonical rationals
# ----------------------------------------------------------------------


def test_format_rational():
    assert format_rational(F(3)) == "3"
    assert format_rational(F(-7, 3)) == "-7/3"
    assert format_rational(F(2, 4)) == "1/2"
    assert format_rational(F(0)) == "0"


@pytest.mark.parametrize("good", ["0", "3", "-3", "1/2", "-7/3", "41/152263"])
def test_rational_strings_round_trip(good):
    doc = {
        "kind": "operator",
        "dim": 1,
        "weight": good,
        "matrix": [["0"]],
    }
    parsed = parse_text(serialize(doc))
    assert format_rational(parsed.value.weight) == str(F(good))


@pytest.mark.parametrize("bad", ["2/4", "1.5", "+3", "-0", "1/1", "03", "1/-2", ""])
def test_noncanonical_rationals_rejected(bad):
    doc = {"kind": "operator", "dim": 1, "weight": bad, "matrix": [["0"]]}
    with pytest.raises(InterchangeError):
        parse_text(serialize(doc))


# ----------------------------------------------------------------------
# round trips
# ----------------------------------------------------------------------


def test_algebra_round_trip_and_stability():
    alg = get_algebra("L5_1")
    text = serialize(alg, name="L5_1")
    parsed = parse_text(text)
    assert parsed.kind == "algebra"
    assert parsed.dim == 5
    assert parsed.basis == default_basis(5)
    assert parsed.value == alg
    assert serialize(parsed.value, name=parsed.name) == text


def test_product_and_operator_round_trip():
    sample = get_sample("solvable_over_perfect")
    for obj in (sample.product, sample.operator):
        parsed = parse_text(serialize(obj))
        assert parsed.value == obj


def test_embedding_round_trip():
    emb = DoubleEmbedding.from_rows(linalg.identity(3), linalg.zero_matrix(3, 3))
    # an embedding carries no name, so ``name=None`` writes "" as it does by default
    for kwargs, name in (({}, ""), ({"name": None}, ""), ({"name": "phi"}, "phi")):
        parsed = parse_text(serialize(emb, **kwargs))
        assert parsed.kind == "embedding"
        assert parsed.value == emb
        assert parsed.name == name


def test_metadata_subspaces_round_trip():
    alg = get_algebra("n3")
    meta = {"subspaces": {"center": [["0", "0", "1"]]}}
    text = serialize(alg, name="n3", metadata=meta)
    parsed = parse_text(text)
    assert parsed.subspaces == {"center": ((F(0), F(0), F(1)),)}
    assert serialize(parsed.value, name="n3", metadata=meta) == text
    # a float coefficient is refused, not written as its binary expansion
    with pytest.raises(TypeError, match="expected an exact rational, got float"):
        serialize(alg, metadata={"subspaces": {"s": [[0.1, 1, 0]]}})


def test_serialization_is_byte_deterministic():
    alg = get_algebra("L9_59")
    assert serialize(alg, name="x") == serialize(alg, name="x")


# ----------------------------------------------------------------------
# strict parsing failures, with located diagnostics
# ----------------------------------------------------------------------


def _minimal_algebra(**overrides):
    doc = {
        "kind": "algebra",
        "dim": 2,
        "entries": [{"i": 1, "j": 2, "k": 1, "coeff": "1"}],
    }
    doc.update(overrides)
    return doc


def test_malformed_json_reports_line_and_column():
    with pytest.raises(InterchangeError) as err:
        parse_text('{"kind": "algebra",\n  "dim": }\n')
    assert "line 2" in str(err.value)


def test_deeply_nested_json_is_a_malformed_document():
    with pytest.raises(InterchangeError) as err:
        parse_text("[" * 200_000 + "]" * 200_000, filename="deep.json")
    assert str(err.value) == "deep.json: invalid JSON: nested too deeply"


def test_non_utf8_file_is_a_malformed_document(tmp_path):
    path = tmp_path / "latin1.json"
    path.write_bytes(b'{"kind": "algebra", "name": "caf\xe9", "dim": 1, "entries": []}')
    with pytest.raises(InterchangeError) as err:
        parse_file(path)
    assert err.value.where == "byte 32"
    assert "not UTF-8 text" in str(err.value)


def test_unknown_kind_rejected():
    with pytest.raises(InterchangeError) as err:
        parse_text(serialize({"kind": "poset", "dim": 1, "entries": []}))
    assert "kind" in str(err.value)


def test_unknown_and_missing_fields_rejected():
    with pytest.raises(InterchangeError) as err:
        parse_text(serialize(_minimal_algebra(extra=1)))
    assert "extra" in str(err.value)
    doc = _minimal_algebra()
    del doc["dim"]
    with pytest.raises(InterchangeError) as err:
        parse_text(serialize(doc))
    assert "dim" in str(err.value)


def test_entry_validation():
    # upper-triangle requirement for algebra tables
    bad = _minimal_algebra(entries=[{"i": 2, "j": 1, "k": 1, "coeff": "1"}])
    with pytest.raises(InterchangeError) as err:
        parse_text(serialize(bad))
    assert "entries[0]" in str(err.value)
    # out-of-range index
    bad = _minimal_algebra(entries=[{"i": 1, "j": 3, "k": 1, "coeff": "1"}])
    with pytest.raises(InterchangeError):
        parse_text(serialize(bad))
    # zero coefficient must be omitted, not written
    bad = _minimal_algebra(entries=[{"i": 1, "j": 2, "k": 1, "coeff": "0"}])
    with pytest.raises(InterchangeError):
        parse_text(serialize(bad))
    # duplicates
    bad = _minimal_algebra(
        entries=[
            {"i": 1, "j": 2, "k": 1, "coeff": "1"},
            {"i": 1, "j": 2, "k": 1, "coeff": "2"},
        ]
    )
    with pytest.raises(InterchangeError):
        parse_text(serialize(bad))


def test_basis_and_dim_validation():
    with pytest.raises(InterchangeError):
        parse_text(serialize(_minimal_algebra(dim=0, entries=[])))
    with pytest.raises(InterchangeError):
        parse_text(serialize(_minimal_algebra(basis=["a"])))  # wrong length
    with pytest.raises(InterchangeError):
        parse_text(serialize(_minimal_algebra(basis=["a", "a"])))  # repeated
    with pytest.raises(InterchangeError):
        parse_text(serialize(_minimal_algebra(dim=True, entries=[])))


def _entry(**changes):
    """A one-entry algebra whose entry has ``changes`` applied (``None``
    drops a field)."""
    entry = {"i": 1, "j": 2, "k": 1, "coeff": "1", **changes}
    return _minimal_algebra(entries=[{f: v for f, v in entry.items() if v is not None}])


def _operator(**overrides):
    identity = [["1", "0"], ["0", "1"]]
    return {"kind": "operator", "dim": 2, "matrix": identity, "weight": "1", **overrides}


_KINDS = "['algebra', 'product', 'operator', 'embedding']"

# one malformed document per check of the parser, with the ``where`` and the
# ``str`` of the error that parse_document raises without a file name
DIAGNOSTICS = {
    "top-level-list": ([], "", "top level must be a JSON object"),
    "kind-unknown": (
        {"kind": "poset", "dim": 1},
        "kind",
        f"kind: kind must be one of {_KINDS}, got 'poset'",
    ),
    "kind-missing": (
        {"dim": 1, "entries": []},
        "kind",
        f"kind: kind must be one of {_KINDS}, got None",
    ),
    "top-unknown-field": (
        _minimal_algebra(extra=1),
        "",
        "unknown fields ['extra'] for kind 'algebra'",
    ),
    "top-missing-field": (
        {"kind": "algebra", "dim": 2},
        "",
        "missing fields ['entries'] for kind 'algebra'",
    ),
    "operator-missing-weight": (
        {"kind": "operator", "dim": 1, "matrix": [["0"]]},
        "",
        "missing fields ['weight'] for kind 'operator'",
    ),
    "embedding-missing-second": (
        {"kind": "embedding", "dim": 1, "first": [["1"]]},
        "",
        "missing fields ['second'] for kind 'embedding'",
    ),
    "dim-bool": (_minimal_algebra(dim=True), "dim", "dim: expected an integer, got True"),
    "dim-string": (_minimal_algebra(dim="2"), "dim", "dim: expected an integer, got '2'"),
    "dim-zero": (
        _minimal_algebra(dim=0, entries=[]),
        "dim",
        "dim: dim must be between 1 and 64, got 0",
    ),
    "dim-above-cap": (
        _minimal_algebra(dim=65, entries=[]),
        "dim",
        "dim: dim must be between 1 and 64, got 65",
    ),
    "name-not-string": (_minimal_algebra(name=5), "name", "name: must be a string"),
    "basis-short": (
        _minimal_algebra(basis=["a"]),
        "basis",
        "basis: must be 2 distinct nonempty labels",
    ),
    "basis-repeated": (
        _minimal_algebra(basis=["a", "a"]),
        "basis",
        "basis: must be 2 distinct nonempty labels",
    ),
    "basis-empty-label": (
        _minimal_algebra(basis=["a", ""]),
        "basis",
        "basis: must be 2 distinct nonempty labels",
    ),
    "entries-not-list": (_minimal_algebra(entries={}), "entries", "entries: must be a list"),
    "entry-not-object": (
        _minimal_algebra(entries=[[1, 2, 1, "1"]]),
        "entries[0]",
        "entries[0]: must be an object",
    ),
    "entry-unknown-field": (_entry(x=0), "entries[0]", "entries[0]: unknown fields ['x']"),
    "entry-missing-field": (
        _entry(coeff=None),
        "entries[0]",
        "entries[0]: missing fields ['coeff']",
    ),
    "entry-index-bool": (
        _entry(i=True),
        "entries[0].i",
        "entries[0].i: expected an integer, got True",
    ),
    "entry-index-range": (
        _entry(j=3),
        "entries[0].j",
        "entries[0].j: index 3 out of range 1..2",
    ),
    "product-index-range": (
        {"kind": "product", "dim": 2, "entries": [{"i": 2, "j": 1, "k": 0, "coeff": "1"}]},
        "entries[0].k",
        "entries[0].k: index 0 out of range 1..2",
    ),
    "entry-i-not-below-j": (
        _entry(i=2, j=1),
        "entries[0]",
        "entries[0]: bracket entries need i < j (got i=2, j=1); "
        "the (j, i) value is implied by antisymmetry",
    ),
    "entry-zero-coeff": (
        _entry(coeff="0"),
        "entries[0].coeff",
        "entries[0].coeff: zero coefficients must be omitted",
    ),
    "entry-duplicate": (
        _minimal_algebra(
            entries=[
                {"i": 1, "j": 2, "k": 1, "coeff": "1"},
                {"i": 1, "j": 2, "k": 1, "coeff": "2"},
            ]
        ),
        "entries[1]",
        "entries[1]: duplicate entry for (i=1, j=2, k=1)",
    ),
    "coeff-non-canonical": (
        _entry(coeff="2/4"),
        "entries[0].coeff",
        "entries[0].coeff: non-canonical rational '2/4' (expected '1/2')",
    ),
    "coeff-invalid": (
        _entry(coeff="1/0"),
        "entries[0].coeff",
        "entries[0].coeff: invalid rational '1/0'",
    ),
    "coeff-json-number": (
        _entry(coeff=1),
        "entries[0].coeff",
        "entries[0].coeff: coefficients must be rational strings, not JSON numbers",
    ),
    "matrix-row-count": (
        _operator(matrix=[["1", "0"]]),
        "matrix",
        "matrix: must be a list of 2 rows",
    ),
    "matrix-row-length": (
        _operator(matrix=[["1", "0"], ["0"]]),
        "matrix[1]",
        "matrix[1]: must be a list of 2 rational strings",
    ),
    "matrix-entry": (
        _operator(matrix=[["1", "0"], ["0", "+1"]]),
        "matrix[1][1]",
        "matrix[1][1]: non-canonical rational '+1' (expected '1')",
    ),
    "weight-json-number": (
        _operator(weight=1),
        "weight",
        "weight: coefficients must be rational strings, not JSON numbers",
    ),
    "embedding-block": (
        {"kind": "embedding", "dim": 1, "first": [["1"]], "second": "0"},
        "second",
        "second: must be a list of 1 rows",
    ),
    "metadata-not-object": (
        _minimal_algebra(metadata=[]),
        "metadata",
        "metadata: must be an object",
    ),
    "metadata-unknown-field": (
        _minimal_algebra(metadata={"color": "red"}),
        "metadata",
        "metadata: unknown fields ['color']",
    ),
    "subspaces-not-object": (
        _minimal_algebra(metadata={"subspaces": []}),
        "metadata.subspaces",
        "metadata.subspaces: must be an object",
    ),
    "subspace-not-list": (
        _minimal_algebra(metadata={"subspaces": {"v": "e1"}}),
        "metadata.subspaces.v",
        "metadata.subspaces.v: must be a list of rows",
    ),
    "subspace-vector-length": (
        _minimal_algebra(metadata={"subspaces": {"v": [["1"]]}}),
        "metadata.subspaces.v[0]",
        "metadata.subspaces.v[0]: must be a list of 2 rational strings",
    ),
    "subspace-component": (
        _minimal_algebra(metadata={"subspaces": {"v": [["1", 0]]}}),
        "metadata.subspaces.v[0][1]",
        "metadata.subspaces.v[0][1]: coefficients must be rational strings, not JSON numbers",
    ),
}


@pytest.mark.parametrize("doc, where, message", DIAGNOSTICS.values(), ids=list(DIAGNOSTICS))
def test_each_check_has_a_pinned_diagnostic(doc, where, message):
    with pytest.raises(InterchangeError) as err:
        interchange.parse_document(doc)
    assert (err.value.where, str(err.value), err.value.filename) == (where, message, "")
    with pytest.raises(InterchangeError) as err:
        parse_text(json.dumps(doc), filename="f.json")
    assert (err.value.where, str(err.value)) == (where, f"f.json: {message}")
    assert err.value.filename == "f.json"


# documents that fail before they are decoded: (text, where, str of the error)
TEXT_DIAGNOSTICS = {
    "json-syntax": (
        "{",
        "line 1, column 2",
        "f.json: line 1, column 2: invalid JSON: "
        "Expecting property name enclosed in double quotes",
    ),
    "duplicate-key": (
        '{"kind": "algebra", "dim": 2, "dim": 3, "entries": []}',
        "",
        "f.json: invalid JSON: duplicate key 'dim'",
    ),
    "nested-duplicate-key": (
        '{"kind": "algebra", "dim": 2, "entries": [{"i": 1, "i": 1, "j": 2}]}',
        "",
        "f.json: invalid JSON: duplicate key 'i'",
    ),
}


@pytest.mark.parametrize(
    "text, where, message", TEXT_DIAGNOSTICS.values(), ids=list(TEXT_DIAGNOSTICS)
)
def test_each_text_check_has_a_pinned_diagnostic(text, where, message):
    with pytest.raises(InterchangeError) as err:
        parse_text(text, filename="f.json")
    assert (err.value.where, str(err.value), err.value.filename) == (where, message, "f.json")


OVERSIZED = '{"kind":"algebra","dim":100000,"entries":[]}\n'


def _limit_memory():
    # if the cap ever stops working, the child fails on a 1 GB address-space
    # limit instead of allocating a dim**3 tensor (10**15 entries here)
    import resource

    resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))


def test_oversized_document_fails_before_allocating():
    assert len(OVERSIZED.encode("utf-8")) == 45
    script = (
        "import sys\n"
        "from postlie.interchange import InterchangeError, parse_text\n"
        "try:\n"
        "    parse_text(sys.argv[1])\n"
        "except InterchangeError as exc:\n"
        "    print(exc.where, exc)\n"
    )
    result = subprocess.run(
        [sys.executable, "-c", script, OVERSIZED],
        capture_output=True,
        text=True,
        preexec_fn=_limit_memory,
        timeout=60,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.startswith("dim ") and str(interchange.MAX_DIM) in result.stdout


def test_dim_above_the_cap_is_rejected_for_every_kind():
    fields = {
        "algebra": {"entries": []},
        "product": {"entries": []},
        "operator": {"matrix": [], "weight": "1"},
        "embedding": {"first": [], "second": []},
    }
    for kind, rest in fields.items():
        with pytest.raises(InterchangeError) as err:
            interchange.parse_document({"kind": kind, "dim": interchange.MAX_DIM + 1, **rest})
        assert err.value.where == "dim", kind
    schema = json.loads((DATA_DIR / "interchange.schema.json").read_text(encoding="utf-8"))
    for branch in schema["oneOf"]:
        assert branch["properties"]["dim"]["maximum"] == interchange.MAX_DIM


def test_dim_at_the_cap_is_accepted():
    doc = {"kind": "algebra", "dim": interchange.MAX_DIM, "entries": []}
    assert interchange.parse_document(doc).value.dim == interchange.MAX_DIM


def test_matrix_validation():
    doc = {"kind": "operator", "dim": 2, "weight": "1", "matrix": [["1", "0"]]}
    with pytest.raises(InterchangeError) as err:
        parse_text(serialize(doc))
    assert "matrix" in str(err.value)


def test_metadata_validation():
    with pytest.raises(InterchangeError):
        parse_text(serialize(_minimal_algebra(metadata={"color": "red"})))
    with pytest.raises(InterchangeError):
        parse_text(
            serialize(
                _minimal_algebra(metadata={"subspaces": {"v": [["1"]]}})
            )
        )  # wrong vector length


@pytest.mark.parametrize(
    "kwargs, message",
    [
        ({"basis": ["a", "a", "b"]}, "3 distinct nonempty strings"),
        ({"metadata": {"subspaces": {"x": [[1, 2]]}}}, "subspace x: each vector needs 3"),
        ({"metadata": {"other": 1}}, r"unknown metadata fields \['other'\]"),
        ({"name": 5}, "name must be a string, got int"),
    ],
)
def test_serialize_refuses_what_the_parser_refuses(kwargs, message):
    with pytest.raises(ValueError, match=message):
        serialize(get_algebra("sl2"), **kwargs)


def test_filename_appears_in_error(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{", encoding="utf-8")
    with pytest.raises(InterchangeError) as err:
        parse_file(path)
    assert "broken.json" in str(err.value)


# ----------------------------------------------------------------------
# shipped fixtures
# ----------------------------------------------------------------------


def test_fixture_freshness_via_regen_tool():
    result = subprocess.run(
        [sys.executable, str(REPO_ROOT / "tools" / "regen_fixtures.py"), "--check"],
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0, result.stdout + result.stderr


def test_catalog_fixture_count_and_integrity():
    files = sorted((DATA_DIR / "catalog").glob("*.json"))
    buildable = [i for i in catalog_ids() if get_entry(i).kind != "stub"]
    assert len(files) == len(buildable) == 60
    for path in files:
        parsed = parse_file(path)
        assert parsed.kind == "algebra"
        alg = parsed.value
        assert isinstance(alg, LieAlgebra)
        assert alg.is_lie(), path.name
        assert alg == get_algebra(path.stem), path.name
        assert serialize(alg, name=parsed.name) == path.read_text(encoding="utf-8")


def test_sample_fixtures_verify_as_shipped():
    base = DATA_DIR / "samples"
    assert len(list(base.glob("*.json"))) == 10
    for sample_id in sample_ids():
        sample = get_sample(sample_id)
        n = sample.n()
        product = parse_file(base / f"{sample_id}_product.json").value
        g = parse_file(base / f"{sample_id}_g.json").value
        assert isinstance(product, PAProduct)
        assert product == sample.product
        assert g == induced_bracket(n, product)
        assert verify_pa(g, n, product).ok
        op_path = base / f"{sample_id}_operator.json"
        if sample.operator is not None:
            op = parse_file(op_path).value
            assert isinstance(op, RBOperator)
            assert op == sample.operator
            assert verify_rb(n, op).ok
        else:
            assert not op_path.exists()


def test_schema_file_is_valid_json_and_covers_all_kinds():
    schema_path = DATA_DIR / "interchange.schema.json"
    schema = json.loads(schema_path.read_text(encoding="utf-8"))
    assert schema["$schema"].endswith("2020-12/schema")
    kinds = {
        branch["properties"]["kind"]["const"] for branch in schema["oneOf"]
    }
    assert kinds == {"algebra", "product", "operator", "embedding"}
    pattern = schema["$defs"]["rational"]["pattern"]
    import re

    for text in ("3", "-7/3", "0", "123/456789"):
        assert re.fullmatch(pattern, text), text
    for text in ("1.5", "+3", "-0", "1/-2", "03", ""):
        assert not re.fullmatch(pattern, text), text
