"""Strict JSON interchange for algebras, products, operators and embeddings.

One document describes one object.  The format is deliberately rigid so
that files are unambiguous and machine-diffable:

* ``kind`` is one of ``algebra``, ``product``, ``operator``, ``embedding``.
* ``dim`` is mandatory, between 1 and ``MAX_DIM`` (64); indices in files
  are 1-based (``e1 .. eN``).
* every coefficient is a canonical rational string: ``"p"`` or ``"p/q"``
  in lowest terms with ``q > 1`` and the sign on the numerator
  (``"3"``, ``"-1/2"``; never ``"2/4"``, ``"1.5"``, ``"+3"`` or ``"1/1"``).
  JSON numbers are rejected for coefficients so exactness is guaranteed.
* unknown fields are rejected everywhere.

Kinds and their fields (``name``, ``basis`` and ``metadata`` optional):

``algebra``
    ``entries``: list of ``{"i", "j", "k", "coeff"}`` with ``i < j``
    giving the structure constants ``[e_i, e_j] = sum_k coeff e_k``;
    antisymmetry is implicit, zero coefficients are omitted.
``product``
    same entry shape with arbitrary ``(i, j)``: ``e_i . e_j = sum_k coeff e_k``.
``operator``
    ``matrix``: dim x dim rational strings (rows), plus a rational
    ``weight``.
``embedding``
    ``first`` and ``second``: two dim x dim block matrices of a map
    ``v -> (first v, second v)``.

``metadata`` may carry named subspaces:
``{"subspaces": {"<name>": [[...rational strings...], ...]}}``.

One builder, :func:`document_for`, writes every kind: the header
(``kind``, ``name``, ``dim``, ``basis``), the kind's fields, then the
metadata.  Serialization is canonical (fixed key order, entries sorted by
(i, j, k), subspace names sorted) so that identical objects always produce
identical bytes, and parsing a serialized document returns an equal object.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional, Sequence

from . import linalg
from .liealg import LieAlgebra
from .structures import DoubleEmbedding, PAProduct, RBOperator

__all__ = [
    "InterchangeError",
    "ParsedDocument",
    "KINDS",
    "MAX_DIM",
    "algebra_document",
    "document_for",
    "serialize",
    "parse_document",
    "parse_text",
    "parse_file",
    "default_basis",
]

KINDS = ("algebra", "product", "operator", "embedding")

# Largest accepted ``dim``: search builds S1's system in the dim**3 product
# coefficients and steps S3 on a flat dim**3 grid, so the cap bounds memory
# before anything is built.
MAX_DIM = 64


class InterchangeError(ValueError):
    """A document violates the interchange format.

    ``where`` locates the problem: a 1-based line number for JSON syntax
    errors, a field path (``entries[3].coeff``) for semantic ones.
    """

    def __init__(self, message: str, *, where: str = "", filename: str = ""):
        self.where = where
        self.filename = filename
        parts = []
        if filename:
            parts.append(filename)
        if where:
            parts.append(where)
        prefix = ": ".join(parts)
        super().__init__(f"{prefix}: {message}" if prefix else message)


# ----------------------------------------------------------------------
# rational strings
# ----------------------------------------------------------------------


def format_rational(value) -> str:
    """Canonical string of an exact rational (:func:`linalg.frac`: a float
    raises ``TypeError``): ``p`` or ``p/q`` in lowest terms."""
    return str(linalg.frac(value))


def _parse_rational(text: object, where: str, filename: str) -> Fraction:
    if not isinstance(text, str):
        raise InterchangeError(
            "coefficients must be rational strings, not JSON numbers",
            where=where,
            filename=filename,
        )
    try:
        value = Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise InterchangeError(
            f"invalid rational {text!r}", where=where, filename=filename
        ) from None
    if str(value) != text:
        raise InterchangeError(
            f"non-canonical rational {text!r} (expected {str(value)!r})",
            where=where,
            filename=filename,
        )
    return value


# ----------------------------------------------------------------------
# document construction (objects -> plain dicts)
# ----------------------------------------------------------------------


def default_basis(dim: int) -> tuple[str, ...]:
    return tuple(f"e{i}" for i in range(1, dim + 1))


def _entry_list(sparse: dict) -> list[dict]:
    entries = []
    for (i, j) in sorted(sparse):
        components = sparse[(i, j)]
        for k in sorted(components):
            coeff = components[k]
            if coeff == 0:
                continue
            entries.append(
                {"i": i + 1, "j": j + 1, "k": k + 1, "coeff": format_rational(coeff)}
            )
    return entries


def _matrix_strings(matrix: Sequence[Sequence[Fraction]]) -> list[list[str]]:
    return [[format_rational(x) for x in row] for row in matrix]


def document_for(
    obj: object,
    *,
    name: Optional[str] = None,
    basis: Optional[Sequence[str]] = None,
    metadata: Optional[dict] = None,
) -> dict:
    """The document of an algebra, product, operator or embedding: the
    header, the kind's body, then the metadata block if there is one.
    ``name=None`` writes the object's own name (an embedding has none)."""
    if isinstance(obj, LieAlgebra):
        kind, body = "algebra", {"entries": _entry_list(obj.sparse_table())}
    elif isinstance(obj, PAProduct):
        kind, body = "product", {"entries": _entry_list(obj.sparse_table())}
    elif isinstance(obj, RBOperator):
        kind = "operator"
        body = {"matrix": _matrix_strings(obj.matrix), "weight": format_rational(obj.weight)}
    elif isinstance(obj, DoubleEmbedding):
        kind = "embedding"
        body = {"first": _matrix_strings(obj.j1), "second": _matrix_strings(obj.j2)}
    else:
        raise TypeError(f"cannot serialize {type(obj).__name__}")
    labels = tuple(basis) if basis is not None else default_basis(obj.dim)
    if len(labels) != obj.dim:
        raise ValueError(f"need {obj.dim} basis labels, got {len(labels)}")
    if len(set(labels)) != obj.dim or not all(isinstance(b, str) and b for b in labels):
        raise ValueError(f"basis labels must be {obj.dim} distinct nonempty strings")
    if name is None:
        name = getattr(obj, "name", "")
    doc = {"kind": kind, "name": name, "dim": obj.dim, "basis": list(labels), **body}
    if metadata:
        extra = sorted(set(metadata) - {"subspaces"})
        if extra:
            raise ValueError(f"unknown metadata fields {extra}")
        spaces = {}
        for label, vectors in sorted((metadata.get("subspaces") or {}).items()):
            if any(len(vec) != obj.dim for vec in vectors):
                raise ValueError(f"subspace {label}: each vector needs {obj.dim} components")
            spaces[label] = [[format_rational(x) for x in vec] for vec in vectors]
        doc["metadata"] = {"subspaces": spaces}
    return doc


def algebra_document(alg: LieAlgebra, **kwargs) -> dict:
    """:func:`document_for` of an algebra, under the name the benchmark's
    recorder (``perfbench/record.py``) calls."""
    return document_for(alg, **kwargs)


def serialize(obj: object, **kwargs) -> str:
    """Canonical JSON text (stable bytes) for an object or prepared dict."""
    doc = obj if isinstance(obj, dict) else document_for(obj, **kwargs)
    return json.dumps(doc, indent=2, ensure_ascii=False) + "\n"


# ----------------------------------------------------------------------
# parsing (plain dicts -> objects), strict
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class ParsedDocument:
    """A validated document: its header fields plus the decoded object."""

    kind: str
    name: str
    dim: int
    basis: tuple[str, ...]
    value: object
    metadata: dict = field(default_factory=dict)

    @property
    def subspaces(self) -> dict:
        return self.metadata.get("subspaces", {})


_REQUIRED_FIELDS = {
    "algebra": ("kind", "dim", "entries"),
    "product": ("kind", "dim", "entries"),
    "operator": ("kind", "dim", "matrix", "weight"),
    "embedding": ("kind", "dim", "first", "second"),
}

_ALLOWED_FIELDS = {
    kind: set(required) | {"name", "basis", "metadata"}
    for kind, required in _REQUIRED_FIELDS.items()
}


def _require_int(value: object, where: str, filename: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise InterchangeError(
            f"expected an integer, got {value!r}", where=where, filename=filename
        )
    return value


def _parse_entries(
    raw: object, dim: int, *, antisymmetric: bool, filename: str
) -> dict:
    if not isinstance(raw, list):
        raise InterchangeError("must be a list", where="entries", filename=filename)
    table: dict = {}
    seen: set = set()
    for pos, entry in enumerate(raw):
        where = f"entries[{pos}]"
        if not isinstance(entry, dict):
            raise InterchangeError("must be an object", where=where, filename=filename)
        extra = set(entry) - {"i", "j", "k", "coeff"}
        if extra:
            raise InterchangeError(
                f"unknown fields {sorted(extra)}", where=where, filename=filename
            )
        missing = {"i", "j", "k", "coeff"} - set(entry)
        if missing:
            raise InterchangeError(
                f"missing fields {sorted(missing)}", where=where, filename=filename
            )
        i = _require_int(entry["i"], f"{where}.i", filename)
        j = _require_int(entry["j"], f"{where}.j", filename)
        k = _require_int(entry["k"], f"{where}.k", filename)
        for label, idx in (("i", i), ("j", j), ("k", k)):
            if not 1 <= idx <= dim:
                raise InterchangeError(
                    f"index {idx} out of range 1..{dim}",
                    where=f"{where}.{label}",
                    filename=filename,
                )
        if antisymmetric and not i < j:
            raise InterchangeError(
                f"bracket entries need i < j (got i={i}, j={j}); "
                "the (j, i) value is implied by antisymmetry",
                where=where,
                filename=filename,
            )
        coeff = _parse_rational(entry["coeff"], f"{where}.coeff", filename)
        if coeff == 0:
            raise InterchangeError(
                "zero coefficients must be omitted",
                where=f"{where}.coeff",
                filename=filename,
            )
        key = (i - 1, j - 1, k - 1)
        if key in seen:
            raise InterchangeError(
                f"duplicate entry for (i={i}, j={j}, k={k})",
                where=where,
                filename=filename,
            )
        seen.add(key)
        table.setdefault((i - 1, j - 1), {})[k - 1] = coeff
    return table


def _parse_matrix(raw: object, dim: int, where: str, filename: str) -> tuple:
    if not isinstance(raw, list) or len(raw) != dim:
        raise InterchangeError(
            f"must be a list of {dim} rows", where=where, filename=filename
        )
    rows = []
    for r, row in enumerate(raw):
        if not isinstance(row, list) or len(row) != dim:
            raise InterchangeError(
                f"must be a list of {dim} rational strings",
                where=f"{where}[{r}]",
                filename=filename,
            )
        rows.append(
            tuple(
                _parse_rational(x, f"{where}[{r}][{c}]", filename)
                for c, x in enumerate(row)
            )
        )
    return tuple(rows)


def _parse_metadata(raw: object, dim: int, filename: str) -> dict:
    if not isinstance(raw, dict):
        raise InterchangeError("must be an object", where="metadata", filename=filename)
    extra = set(raw) - {"subspaces"}
    if extra:
        raise InterchangeError(
            f"unknown fields {sorted(extra)}", where="metadata", filename=filename
        )
    out: dict = {}
    if "subspaces" in raw:
        spaces = raw["subspaces"]
        if not isinstance(spaces, dict):
            raise InterchangeError(
                "must be an object", where="metadata.subspaces", filename=filename
            )
        parsed = {}
        for name, vectors in spaces.items():
            where = f"metadata.subspaces.{name}"
            if not isinstance(vectors, list):
                raise InterchangeError(
                    "must be a list of vectors", where=where, filename=filename
                )
            vecs = []
            for v, vec in enumerate(vectors):
                if not isinstance(vec, list) or len(vec) != dim:
                    raise InterchangeError(
                        f"vector must have {dim} components",
                        where=f"{where}[{v}]",
                        filename=filename,
                    )
                vecs.append(
                    tuple(
                        _parse_rational(x, f"{where}[{v}][{c}]", filename)
                        for c, x in enumerate(vec)
                    )
                )
            parsed[name] = tuple(vecs)
        out["subspaces"] = parsed
    return out


def parse_document(doc: object, *, filename: str = "") -> ParsedDocument:
    """Validate a decoded JSON document and build the described object."""
    if not isinstance(doc, dict):
        raise InterchangeError(
            "top level must be a JSON object", where="", filename=filename
        )
    kind = doc.get("kind")
    if kind not in KINDS:
        raise InterchangeError(
            f"kind must be one of {list(KINDS)}, got {kind!r}",
            where="kind",
            filename=filename,
        )
    extra = set(doc) - _ALLOWED_FIELDS[kind]
    if extra:
        raise InterchangeError(
            f"unknown fields {sorted(extra)} for kind {kind!r}",
            where="",
            filename=filename,
        )
    missing = set(_REQUIRED_FIELDS[kind]) - set(doc)
    if missing:
        raise InterchangeError(
            f"missing fields {sorted(missing)} for kind {kind!r}",
            where="",
            filename=filename,
        )
    dim = _require_int(doc["dim"], "dim", filename)
    if not 1 <= dim <= MAX_DIM:
        raise InterchangeError(
            f"dim must be between 1 and {MAX_DIM}, got {dim}",
            where="dim",
            filename=filename,
        )
    name = doc.get("name", "")
    if not isinstance(name, str):
        raise InterchangeError("must be a string", where="name", filename=filename)
    raw_basis = doc.get("basis")
    if raw_basis is None:
        basis = default_basis(dim)
    else:
        if (
            not isinstance(raw_basis, list)
            or len(raw_basis) != dim
            or not all(isinstance(b, str) and b for b in raw_basis)
            or len(set(raw_basis)) != dim
        ):
            raise InterchangeError(
                f"must be {dim} distinct nonempty labels",
                where="basis",
                filename=filename,
            )
        basis = tuple(raw_basis)
    metadata = (
        _parse_metadata(doc["metadata"], dim, filename) if "metadata" in doc else {}
    )

    value: object
    if kind == "algebra":
        table = _parse_entries(doc["entries"], dim, antisymmetric=True, filename=filename)
        value = LieAlgebra.from_table(dim, table, name=name)
    elif kind == "product":
        table = _parse_entries(doc["entries"], dim, antisymmetric=False, filename=filename)
        value = PAProduct.from_table(dim, table, name=name)
    elif kind == "operator":
        matrix = _parse_matrix(doc["matrix"], dim, "matrix", filename)
        weight = _parse_rational(doc["weight"], "weight", filename)
        value = RBOperator(dim=dim, matrix=matrix, weight=weight, name=name)
    else:
        first = _parse_matrix(doc["first"], dim, "first", filename)
        second = _parse_matrix(doc["second"], dim, "second", filename)
        value = DoubleEmbedding(dim=dim, j1=first, j2=second)

    return ParsedDocument(
        kind=kind, name=name, dim=dim, basis=basis, value=value, metadata=metadata
    )


def parse_text(text: str, *, filename: str = "") -> ParsedDocument:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise InterchangeError(
            f"invalid JSON: {exc.msg}",
            where=f"line {exc.lineno}, column {exc.colno}",
            filename=filename,
        ) from None
    return parse_document(doc, filename=filename)


def parse_file(path: object) -> ParsedDocument:
    with open(path, "r", encoding="utf-8") as handle:
        text = handle.read()
    return parse_text(text, filename=str(path))
