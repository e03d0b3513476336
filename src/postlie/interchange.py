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
* unknown fields are rejected everywhere, and so is a key repeated in
  one object; an integer too long for Python to convert is invalid JSON.

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

Parsing states each rule once (one shape check for every object, one reader
for rows of rationals); its helpers locate an error by field path only, and
:func:`parse_document` and :func:`parse_text` add the file name.
"""

from __future__ import annotations

import json
from collections import Counter
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

# Largest accepted ``dim``: search solves S1 and steps S3's grid points in the
# dim * dim Der(n) derivation coordinates (at most dim**3 of them, integers
# in S3), so the cap bounds memory before anything is built.
MAX_DIM = 64


class InterchangeError(ValueError):
    """A document violates the interchange format.

    ``where`` locates the problem: a 1-based line number for JSON syntax
    errors, a field path (``entries[3].coeff``) for semantic ones.  The
    string is ``filename: where: message``, without the empty parts.
    """

    def __init__(self, message: str, *, where: str = "", filename: str = ""):
        self.message = message
        self.where = where
        self.filename = filename
        super().__init__(": ".join(part for part in (filename, where, message) if part))


# ----------------------------------------------------------------------
# rational strings
# ----------------------------------------------------------------------


def format_rational(value) -> str:
    """Canonical string of an exact rational (:func:`linalg.frac`: a float
    raises ``TypeError``): ``p`` or ``p/q`` in lowest terms."""
    return str(linalg.frac(value))


def _rational(text: object, where: str) -> linalg.Scalar:
    if not isinstance(text, str):
        raise InterchangeError(
            "coefficients must be rational strings, not JSON numbers", where=where
        )
    try:
        value = Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise InterchangeError(f"invalid rational {text!r}", where=where) from None
    if str(value) != text:
        raise InterchangeError(
            f"non-canonical rational {text!r} (expected {str(value)!r})", where=where
        )
    return linalg.frac(value)


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


def _matrix_strings(matrix: Sequence[Sequence[linalg.Scalar]]) -> list[list[str]]:
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
    if not isinstance(name, str):
        raise ValueError(f"name must be a string, got {type(name).__name__}")
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
    "algebra": {"kind", "dim", "entries"},
    "product": {"kind", "dim", "entries"},
    "operator": {"kind", "dim", "matrix", "weight"},
    "embedding": {"kind", "dim", "first", "second"},
}
_OPTIONAL_FIELDS = {"name", "basis", "metadata"}
_ENTRY_FIELDS = frozenset({"i", "j", "k", "coeff"})


def _fields(raw: object, where: str, allowed, required, suffix: str = "") -> None:
    """Refuse a non-object, a field outside ``allowed`` and a missing one of
    ``required``; ``suffix`` ends the two field messages."""
    if not isinstance(raw, dict):
        raise InterchangeError("must be an object", where=where)
    extra = raw.keys() - allowed
    if extra:
        raise InterchangeError(f"unknown fields {sorted(extra)}{suffix}", where=where)
    missing = required - raw.keys()
    if missing:
        raise InterchangeError(f"missing fields {sorted(missing)}{suffix}", where=where)


def _integer(value: object, where: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise InterchangeError(f"expected an integer, got {value!r}", where=where)
    return value


def _entries(raw: object, dim: int, antisymmetric: bool) -> dict:
    if not isinstance(raw, list):
        raise InterchangeError("must be a list", where="entries")
    table: dict = {}
    for pos, entry in enumerate(raw):
        where = f"entries[{pos}]"
        # one comparison on a well-formed entry, the diagnostic otherwise
        if not isinstance(entry, dict) or entry.keys() != _ENTRY_FIELDS:
            _fields(entry, where, _ENTRY_FIELDS, _ENTRY_FIELDS)
        i, j, k = (_integer(entry[label], f"{where}.{label}") for label in "ijk")
        for label, idx in (("i", i), ("j", j), ("k", k)):
            if not 1 <= idx <= dim:
                raise InterchangeError(
                    f"index {idx} out of range 1..{dim}", where=f"{where}.{label}"
                )
        if antisymmetric and not i < j:
            raise InterchangeError(
                f"bracket entries need i < j (got i={i}, j={j}); "
                "the (j, i) value is implied by antisymmetry",
                where=where,
            )
        coeff = _rational(entry["coeff"], f"{where}.coeff")
        if coeff == 0:
            raise InterchangeError("zero coefficients must be omitted", where=f"{where}.coeff")
        cell = table.setdefault((i - 1, j - 1), {})
        if k - 1 in cell:
            raise InterchangeError(f"duplicate entry for (i={i}, j={j}, k={k})", where=where)
        cell[k - 1] = coeff
    return table


def _rows(raw: object, dim: int, where: str, count: Optional[int] = None) -> tuple:
    """Rows of ``dim`` rational strings: exactly ``count`` of them if given."""
    if not isinstance(raw, list) or count is not None and len(raw) != count:
        rows = "rows" if count is None else f"{count} rows"
        raise InterchangeError(f"must be a list of {rows}", where=where)
    out = []
    for r, row in enumerate(raw):
        if not isinstance(row, list) or len(row) != dim:
            raise InterchangeError(
                f"must be a list of {dim} rational strings", where=f"{where}[{r}]"
            )
        out.append(tuple(_rational(x, f"{where}[{r}][{c}]") for c, x in enumerate(row)))
    return tuple(out)


def _metadata(raw: object, dim: int) -> dict:
    _fields(raw, "metadata", {"subspaces"}, set())
    where = "metadata.subspaces"
    spaces = raw.get("subspaces", {})
    if not isinstance(spaces, dict):
        raise InterchangeError("must be an object", where=where)
    parsed = {name: _rows(vectors, dim, f"{where}.{name}") for name, vectors in spaces.items()}
    return {"subspaces": parsed} if "subspaces" in raw else {}


def _document(doc: object) -> ParsedDocument:
    if not isinstance(doc, dict):
        raise InterchangeError("top level must be a JSON object")
    kind = doc.get("kind")
    if kind not in KINDS:
        raise InterchangeError(f"kind must be one of {list(KINDS)}, got {kind!r}", where="kind")
    required = _REQUIRED_FIELDS[kind]
    _fields(doc, "", required | _OPTIONAL_FIELDS, required, f" for kind {kind!r}")
    dim = _integer(doc["dim"], "dim")
    if not 1 <= dim <= MAX_DIM:
        raise InterchangeError(f"dim must be between 1 and {MAX_DIM}, got {dim}", where="dim")
    name = doc.get("name", "")
    if not isinstance(name, str):
        raise InterchangeError("must be a string", where="name")
    basis = doc.get("basis")
    if basis is None:
        basis = default_basis(dim)
    elif (
        not isinstance(basis, list)
        or len(basis) != dim
        or not all(isinstance(b, str) and b for b in basis)
        or len(set(basis)) != dim
    ):
        raise InterchangeError(f"must be {dim} distinct nonempty labels", where="basis")
    metadata = _metadata(doc["metadata"], dim) if "metadata" in doc else {}

    value: object
    if kind in ("algebra", "product"):
        table = _entries(doc["entries"], dim, antisymmetric=kind == "algebra")
        builder = LieAlgebra if kind == "algebra" else PAProduct
        value = builder.from_table(dim, table, name=name)
    elif kind == "operator":
        matrix = _rows(doc["matrix"], dim, "matrix", dim)
        weight = _rational(doc["weight"], "weight")
        value = RBOperator(dim=dim, matrix=matrix, weight=weight, name=name)
    else:
        first = _rows(doc["first"], dim, "first", dim)
        second = _rows(doc["second"], dim, "second", dim)
        value = DoubleEmbedding(dim=dim, j1=first, j2=second)
    return ParsedDocument(
        kind=kind, name=name, dim=dim, basis=tuple(basis), value=value, metadata=metadata
    )


def parse_document(doc: object, *, filename: str = "") -> ParsedDocument:
    """Validate a decoded JSON document and build the described object; a
    diagnostic gains ``filename`` here."""
    try:
        return _document(doc)
    except InterchangeError as exc:
        if not filename:
            raise
        raise InterchangeError(exc.message, where=exc.where, filename=filename) from None


def _unique_keys(pairs: list) -> dict:
    """``json.loads`` object hook: a repeated key makes a document ambiguous."""
    obj = dict(pairs)
    if len(obj) < len(pairs):
        key = next(k for k, n in Counter(k for k, _ in pairs).items() if n > 1)
        raise ValueError(f"duplicate key {key!r}")
    return obj


def parse_text(text: str, *, filename: str = "") -> ParsedDocument:
    try:
        doc = json.loads(text, object_pairs_hook=_unique_keys)
    except json.JSONDecodeError as exc:
        message, where = exc.msg, f"line {exc.lineno}, column {exc.colno}"
    except RecursionError:
        message, where = "nested too deeply", ""
    except ValueError as exc:
        # a repeated key, or an integer too long to convert
        message, where = str(exc), ""
    else:
        return parse_document(doc, filename=filename)
    raise InterchangeError(f"invalid JSON: {message}", where=where, filename=filename)


def parse_file(path: object) -> ParsedDocument:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            text = handle.read()
    except UnicodeDecodeError as exc:
        # one read() decodes the whole file, so ``start`` is a file offset
        raise InterchangeError(
            f"not UTF-8 text: {exc.reason}", where=f"byte {exc.start}", filename=str(path)
        ) from None
    return parse_text(text, filename=str(path))
