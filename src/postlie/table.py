"""The 8x8 existence grid over structural classes of Lie algebra pairs.

Rows classify the first bracket ``g``, columns the second bracket ``n``,
both over the eight pairwise-refined classes

    abelian, nilpotent (non-abelian), solvable (non-nilpotent), simple,
    semisimple (non-simple), reductive (non-semisimple),
    complete (non-perfect), perfect (non-semisimple).

A cell answers: *is there some pair* ``(g, n)`` *with these two class
memberships carrying a product structure?*  Three outcomes:

* ``exists`` — a registered witness pair, re-verified on every call: the
  witness product satisfies all three axioms exactly, the induced first
  bracket lies in the row class and matches the registered catalog algebra
  by invariant fingerprint, the second algebra lies in the column class,
  and no non-existence rule fires on the witness pair;
* ``not_exists`` — a registered representative pair on which one of the
  structural rules fires, re-checked on every call, with the expected rule
  identifier pinned;
* ``unknown`` — no witness is registered and no encoded rule applies; the
  cell is honestly left open (this covers both genuinely open questions
  and class pairs whose known obstructions lie outside the encoded rules).

Each witness is declared once, as plain data, in ``_EXISTS``: a
:class:`Witness` names one of six recipes (``zero``, ``product``,
``operator``, ``coordinate_split``, ``general_split``, ``left_action``) and
holds its data as a tuple.  ``_NOT_EXISTS`` holds each excluded cell's
``(rule, g, n)``.  Any discrepancy during re-verification raises
:class:`TableVerificationError`, worded ``cell (row, col): ...``, instead of
producing a wrong table.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Optional

from . import catalog, linalg
from .liealg import LieAlgebra, fingerprint
from .subspace import Subspace
from .structures import (
    PAProduct,
    RBOperator,
    induced_bracket,
    pa_from_rb,
    product_from_left_action,
    rb_from_coordinate_split,
    rb_from_decomposition,
    verify_pa,
    verify_rb,
)
from .rules import applicable_rule, rule_by_id
from .samples import get_sample


class TableVerificationError(RuntimeError):
    """A registered cell failed its re-verification."""


# ----------------------------------------------------------------------
# the eight classes
# ----------------------------------------------------------------------

CLASSES: tuple[str, ...] = (
    "abelian",
    "nilpotent",
    "solvable",
    "simple",
    "semisimple",
    "reductive",
    "complete",
    "perfect",
)

# The grid's eight classes.  The first six are pairwise disjoint refinements
# (nilpotent excludes abelian, and so on); "reductive" additionally excludes
# abelian algebras (which are trivially reductive) so that it means "nonzero
# semisimple part and nonzero center".  "complete" genuinely overlaps
# "solvable" (e.g. the nonabelian 2-dimensional algebra is both), which is
# harmless: a cell verdict quantifies over its row and column classes.
CLASS_PREDICATES: dict[str, Callable[[LieAlgebra], bool]] = {
    "abelian": lambda a: a.is_abelian(),
    "nilpotent": lambda a: a.is_nilpotent() and not a.is_abelian(),
    "solvable": lambda a: a.is_solvable() and not a.is_nilpotent(),
    "simple": lambda a: a.is_simple(),
    "semisimple": lambda a: a.is_semisimple() and not a.is_simple(),
    "reductive": lambda a: a.is_reductive()
    and not a.is_semisimple()
    and not a.is_abelian(),
    "complete": lambda a: a.is_complete() and not a.is_perfect(),
    "perfect": lambda a: a.is_perfect() and not a.is_semisimple(),
}


def classify(alg: LieAlgebra) -> tuple[str, ...]:
    """All classes of the grid the algebra belongs to (may overlap)."""
    return tuple(c for c in CLASSES if CLASS_PREDICATES[c](alg))


# ----------------------------------------------------------------------
# witness material
# ----------------------------------------------------------------------


def _dense(size: int, entries: tuple) -> tuple:
    rows = [[linalg.ZERO] * size for _ in range(size)]
    for r, c, v in entries:
        rows[r][c] = linalg.frac(v)
    return tuple(tuple(row) for row in rows)


@dataclass(frozen=True)
class Witness:
    """Recipe for one existence witness, declared as plain data and
    materialized on demand.

    ``kind`` selects the recipe, and ``data`` is a tuple:

    * ``zero`` — the zero product on ``n``, no data (so the induced bracket
      is ``n`` itself; used on diagonal-style cells where one algebra lies
      in both classes);
    * ``product`` — an explicit sparse product table on ``n``: the pairs
      ``((i, j), ((k, c), ...))`` of ``e_i . e_j = sum c e_k``;
    * ``operator`` — an explicit weight-one operator matrix on ``n``, by rows;
    * ``coordinate_split`` — minus the projection onto the complement of
      the listed coordinates (both sides must be subalgebras);
    * ``general_split`` — the same with an explicit second subalgebra that
      is not coordinate-aligned: ``(coordinates, spanning vectors)``;
    * ``left_action`` — a graph basis of ``n |x Der(n)``: one pair
      ``(v, ((r, c, x), ...))`` per basis vector, a vector of ``n`` and the
      nonzero entries of a derivation, defining ``x . y = L(x) y`` with
      ``L(v) = D``.

    Every operator recipe induces its product as ``x . y = {Rx, y}``.
    """

    kind: str
    g_id: str
    n_id: str
    data: tuple = ()

    def materialize(self):
        """Return ``(induced_g, n, product, operator_or_None)``."""
        n_alg = catalog.get_algebra(self.n_id)
        d = n_alg.dim
        op: Optional[RBOperator] = None
        if self.kind in ("zero", "product"):
            product = PAProduct.from_table(d, {key: dict(val) for key, val in self.data})
        elif self.kind == "left_action":
            pairs = tuple((linalg.vec(v), _dense(d, entries)) for v, entries in self.data)
            product = product_from_left_action(n_alg, pairs)
        else:
            if self.kind == "operator":
                op = RBOperator.from_rows(self.data, weight=1)
            elif self.kind == "coordinate_split":
                op = rb_from_coordinate_split(n_alg, self.data)
            elif self.kind == "general_split":
                coords, second_vectors = self.data
                first = Subspace.spanned_by_coordinates(d, coords)
                second = Subspace.from_vectors(d, second_vectors)
                op = rb_from_decomposition(n_alg, first, second)
            else:  # pragma: no cover
                raise ValueError(f"unknown witness kind {self.kind!r}")
            product = pa_from_rb(n_alg, op)
        induced = induced_bracket(n_alg, product, name=self.g_id)
        return induced, n_alg, product, op


def _sample_witness(kind: str, sample_id: str) -> Witness:
    """The product (``kind="product"``) or the operator (``"operator"``) of
    a shipped sample, as witness data."""
    sample = get_sample(sample_id)
    if kind == "product":
        data = tuple(
            (key, tuple(sorted(col.items())))
            for key, col in sorted(sample.product.sparse_table().items())
        )
    else:
        data = sample.operator.matrix
    return Witness(kind, sample.g_class_id, sample.n_id, data)


_EXISTS: dict[tuple[str, str], Witness] = {
    # row: g abelian
    ("abelian", "abelian"): Witness("zero", "abelian_1", "abelian_1"),
    ("abelian", "nilpotent"): Witness(
        "product", "abelian_3", "n3", (((1, 0), ((2, 1),)),)
    ),
    ("abelian", "solvable"): Witness(
        "product", "abelian_2", "r2", (((1, 0), ((0, 1),)),)
    ),
    ("abelian", "complete"): Witness(
        "product", "abelian_2", "r2", (((1, 0), ((0, 1),)),)
    ),
    # row: g nilpotent non-abelian
    ("nilpotent", "abelian"): Witness(
        "product", "n3", "abelian_3", (((0, 1), ((2, 1),)),)
    ),
    ("nilpotent", "nilpotent"): Witness("zero", "n3", "n3"),
    ("nilpotent", "solvable"): Witness(
        "product", "n3", "r2_plus_C", (((0, 1), ((2, 1),)), ((1, 0), ((0, 1),)))
    ),
    ("nilpotent", "complete"): Witness(
        "coordinate_split", "n3_plus_C2", "b3", (2, 3, 4)
    ),
    # row: g solvable non-nilpotent
    ("solvable", "abelian"): Witness(
        "product", "r2", "abelian_2", (((1, 0), ((0, -1),)), ((1, 1), ((1, -1),)))
    ),
    ("solvable", "nilpotent"): Witness(
        "product", "r2_plus_C", "n3", (((1, 0), ((0, -1), (2, 1))), ((1, 1), ((1, 1),)))
    ),
    ("solvable", "solvable"): Witness("zero", "r2", "r2"),
    ("solvable", "simple"): Witness("coordinate_split", "r2_plus_C", "sl2", (0, 2)),
    ("solvable", "semisimple"): Witness(
        "coordinate_split", "r2_plus_r2_plus_C2", "sl2_plus_sl2", (0, 2, 3, 5)
    ),
    ("solvable", "reductive"): Witness(
        "coordinate_split", "r2_plus_C2", "sl2_plus_C", (0, 2, 3)
    ),
    ("solvable", "complete"): Witness("zero", "r2_plus_r2", "r2_plus_r2"),
    ("solvable", "perfect"): _sample_witness("operator", "solvable_over_perfect"),
    # row: g simple
    ("simple", "simple"): Witness("zero", "sl2", "sl2"),
    # row: g semisimple non-simple
    ("semisimple", "semisimple"): Witness(
        "zero", "sl2_plus_sl2", "sl2_plus_sl2"
    ),
    # row: g reductive non-semisimple
    # left multiplication of the 2x2 matrix units on themselves
    ("reductive", "abelian"): Witness(
        "product",
        "gl2",
        "abelian_4",
        (
            ((0, 0), ((0, 1),)),
            ((0, 1), ((1, 1),)),
            ((1, 2), ((0, 1),)),
            ((1, 3), ((1, 1),)),
            ((2, 0), ((2, 1),)),
            ((2, 1), ((3, 1),)),
            ((3, 2), ((2, 1),)),
            ((3, 3), ((3, 1),)),
        ),
    ),
    ("reductive", "nilpotent"): Witness(
        "left_action",
        "sl2_plus_C2",
        "n3_plus_C2",
        (
            ((1, 0, Fraction(1, 2), 1, 0), ((0, 1, 1), (3, 4, 1))),
            ((0, 1, Fraction(-1, 2), 0, 0), ((1, 0, 1), (4, 3, 1))),
            ((1, -1, 1, 0, -1), ((0, 0, 1), (1, 1, -1), (3, 3, 1), (4, 4, -1))),
            ((0, 0, 1, 0, 0), ()),
            ((0, 0, 0, 1, 0), ((3, 0, 1), (4, 1, 1), (3, 3, -1), (4, 4, -1))),
        ),
    ),
    # the first three matrices are sl2 (e, f, h) acting on two copies of its
    # 2-dimensional module, spanned by the first four coordinates
    ("reductive", "solvable"): Witness(
        "left_action",
        "sl2_plus_C2",
        "scaling5",
        (
            ((0, 0, -1, 0, 0), ((0, 1, 1), (2, 3, 1))),
            ((0, -1, 0, 0, 0), ((1, 0, 1), (3, 2, 1))),
            ((-1, 0, 0, 1, 0), ((0, 0, 1), (1, 1, -1), (2, 2, 1), (3, 3, -1))),
            ((-1, 0, 0, -1, 1), ()),
            ((-1, 0, 0, 0, 0), ((0, 0, 1), (1, 1, 1))),
        ),
    ),
    ("reductive", "reductive"): Witness("zero", "gl2", "gl2"),
    ("reductive", "complete"): Witness(
        "coordinate_split", "sl2_plus_C2", "sl2_plus_r2", (0, 1, 2, 3)
    ),
    ("reductive", "perfect"): _sample_witness("operator", "reductive_over_perfect"),
    # row: g complete non-perfect
    ("complete", "abelian"): Witness(
        "product", "r2", "abelian_2", (((1, 0), ((0, -1),)), ((1, 1), ((1, -1),)))
    ),
    ("complete", "nilpotent"): Witness(
        "left_action",
        "r2_plus_r2",
        "n3_plus_C",
        (
            ((0, 0, 1, 0), ((0, 0, 1), (2, 2, 1))),
            ((0, 1, 0, 0), ((2, 0, 1), (3, 3, 1))),
            ((1, 0, 0, 0), ()),
            ((0, 0, 0, 1), ()),
        ),
    ),
    ("complete", "solvable"): Witness("zero", "r2_plus_r2", "r2_plus_r2"),
    ("complete", "simple"): Witness(
        "general_split",
        "b3_plus_sl2",
        "sl3",
        (
            (0, 1, 2, 3, 4),
            (
                (0, 0, 1, 0, 0, -1, 0, 0),
                (0, 0, 0, 1, 0, 0, -1, 0),
                (0, 0, 0, 0, 1, 0, 0, -1),
            ),
        ),
    ),
    ("complete", "semisimple"): Witness(
        "general_split",
        "r2_plus_r2_plus_r2",
        "sl2_plus_sl2",
        (
            (0, 2, 3, 5),
            ((0, 1, 0, 0, 0, 0), (0, 0, 1, 0, 2, 0)),
        ),
    ),
    ("complete", "reductive"): Witness(
        "general_split",
        "r2_plus_r2",
        "sl2_plus_C",
        (
            (0, 2),
            ((0, 1, 0, 0), (0, 0, 1, 1)),
        ),
    ),
    ("complete", "complete"): Witness("zero", "r2_plus_r2", "r2_plus_r2"),
    ("complete", "perfect"): _sample_witness("product", "complete_over_perfect"),
    # row: g perfect non-semisimple
    ("perfect", "reductive"): _sample_witness("product", "perfect_over_reductive"),
    ("perfect", "perfect"): Witness("zero", "L5_1", "L5_1"),
}

_NOT_EXISTS: dict[tuple[str, str], tuple[str, str, str]] = {
    # (row, col): (expected rule, g representative, n representative)
    ("abelian", "simple"): ("R6", "abelian_3", "sl2"),
    ("abelian", "semisimple"): ("R6", "abelian_6", "sl2_plus_sl2"),
    ("abelian", "perfect"): ("R6", "abelian_5", "L5_1"),
    ("nilpotent", "simple"): ("R7", "n3", "sl2"),
    ("nilpotent", "semisimple"): ("R7", "n3_plus_n3", "sl2_plus_sl2"),
    ("nilpotent", "perfect"): ("R7", "n3_plus_C2", "L5_1"),
    ("simple", "abelian"): ("R1", "sl2", "abelian_3"),
    ("simple", "nilpotent"): ("R2", "sl2", "n3"),
    ("simple", "solvable"): ("R3", "sl2", "r2_plus_C"),
    ("simple", "complete"): ("R5", "sl3", "b3_plus_sl2"),
    ("simple", "perfect"): ("R8", "sl3", "L8_21"),
    ("semisimple", "abelian"): ("R1", "sl2_plus_sl2", "abelian_6"),
    ("semisimple", "nilpotent"): ("R2", "sl2_plus_sl2", "n3_plus_n3"),
    ("semisimple", "solvable"): ("R3", "sl2_plus_sl2", "r2_plus_r2_plus_r2"),
    ("semisimple", "reductive"): ("R4", "sl2_plus_sl2_plus_sl2", "sl3_plus_C"),
    ("semisimple", "complete"): ("R3", "sl2_plus_sl2", "r2_plus_r2_plus_r2"),
    ("semisimple", "perfect"): ("R8", "sl2_plus_sl2", "L6_2"),
    ("perfect", "abelian"): ("R1", "L5_1", "abelian_5"),
    ("perfect", "solvable"): ("R3", "L5_1", "n3_plus_r2"),
    ("perfect", "complete"): ("R5", "L8_21", "b3_plus_sl2"),
}

_UNKNOWN: tuple[tuple[str, str], ...] = (
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
)


# ----------------------------------------------------------------------
# table construction with re-verification
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class Cell:
    row: str
    col: str
    status: str  # "exists" | "not_exists" | "unknown"
    g_id: Optional[str] = None
    n_id: Optional[str] = None
    rule_id: Optional[str] = None
    witness_kind: Optional[str] = None

    @property
    def annotation(self) -> str:
        if self.status == "exists":
            return "✓"
        if self.status == "not_exists":
            return f"− {self.rule_id}"
        return "?"

    def as_dict(self) -> dict:
        doc: dict = {"g_class": self.row, "n_class": self.col, "status": self.status}
        if self.g_id is not None:
            doc["g"] = self.g_id
        if self.n_id is not None:
            doc["n"] = self.n_id
        if self.rule_id is not None:
            doc["rule"] = self.rule_id
        if self.witness_kind is not None:
            doc["witness_kind"] = self.witness_kind
        return doc


@dataclass(frozen=True)
class ExistenceTable:
    cells: tuple

    def cell(self, row: str, col: str) -> Cell:
        for c in self.cells:
            if c.row == row and c.col == col:
                return c
        raise KeyError((row, col))

    @property
    def counts(self) -> dict:
        out = {"exists": 0, "not_exists": 0, "unknown": 0}
        for c in self.cells:
            out[c.status] += 1
        return out

    def as_dict(self) -> dict:
        return {
            "classes": list(CLASSES),
            "cells": [c.as_dict() for c in self.cells],
            "counts": self.counts,
        }

    def render(self) -> str:
        width = 7
        lines = []
        header = "g \\ n".ljust(width) + "".join(
            c[:3].center(width) for c in CLASSES
        )
        lines.append(header)
        lines.append("-" * len(header))
        for row in CLASSES:
            parts = [row[:3].ljust(width)]
            for col in CLASSES:
                parts.append(self.cell(row, col).annotation.center(width))
            lines.append("".join(parts))
        lines.append("")
        lines.append("witnessed cells (g over n, re-verified):")
        for c in self.cells:
            if c.status == "exists":
                lines.append(
                    f"  ({c.row[:3]}, {c.col[:3]}): {c.g_id} over {c.n_id}"
                    f" [{c.witness_kind}]"
                )
        lines.append("excluded cells (rule applied to a representative pair):")
        for c in self.cells:
            if c.status == "not_exists":
                lines.append(
                    f"  ({c.row[:3]}, {c.col[:3]}): {c.rule_id}"
                    f" on ({c.g_id}, {c.n_id})"
                )
        lines.append("open cells: " + ", ".join(
            f"({c.row[:3]}, {c.col[:3]})"
            for c in self.cells
            if c.status == "unknown"
        ))
        return "\n".join(lines)


def _require(holds: bool, row: str, col: str, message) -> None:
    """Raise the cell's :class:`TableVerificationError` unless ``holds``.
    ``message`` is the text, or a function giving it when the text reads a
    value that exists only on failure."""
    if not holds:
        text = message() if callable(message) else message
        raise TableVerificationError(f"cell ({row}, {col}): {text}")


def _verify_exists_cell(row: str, col: str, witness: Witness) -> Cell:
    induced, n_alg, product, op = witness.materialize()
    _require(verify_pa(induced, n_alg, product).ok, row, col, "witness product fails the axioms")
    if op is not None:
        _require(
            verify_rb(n_alg, op).ok, row, col, "witness operator fails the weight-one identity"
        )
    _require(CLASS_PREDICATES[row](induced), row, col, f"induced algebra is not in class {row!r}")
    _require(CLASS_PREDICATES[col](n_alg), row, col, f"second algebra is not in class {col!r}")
    _require(
        fingerprint(induced) == fingerprint(catalog.get_algebra(witness.g_id)),
        row,
        col,
        f"induced algebra does not match the registered catalog fingerprint {witness.g_id!r}",
    )
    fired = applicable_rule(induced, n_alg)
    _require(fired is None, row, col, lambda: f"rule {fired[0].rule_id} fires on a witness pair")
    return Cell(row, col, "exists", witness.g_id, witness.n_id, witness_kind=witness.kind)


def _verify_not_exists_cell(
    row: str, col: str, expected_rule: str, g_id: str, n_id: str
) -> Cell:
    rule_by_id(expected_rule)  # unknown ids fail loudly
    g = catalog.get_algebra(g_id)
    n_alg = catalog.get_algebra(n_id)
    _require(CLASS_PREDICATES[row](g), row, col, f"representative {g_id!r} not in class {row!r}")
    _require(
        CLASS_PREDICATES[col](n_alg), row, col, f"representative {n_id!r} not in class {col!r}"
    )
    fired = applicable_rule(g, n_alg)
    _require(fired is not None, row, col, f"no rule fires on ({g_id}, {n_id})")
    got = fired[0].rule_id
    _require(got == expected_rule, row, col, f"expected {expected_rule}, got {got}")
    return Cell(row, col, "not_exists", g_id, n_id, rule_id=expected_rule)


def existence_table() -> ExistenceTable:
    """Build the full 8x8 grid, re-verifying every registered cell."""
    cells = []
    for row in CLASSES:
        for col in CLASSES:
            key = (row, col)
            if key in _EXISTS:
                cells.append(_verify_exists_cell(row, col, _EXISTS[key]))
            elif key in _NOT_EXISTS:
                rule_id, g_id, n_id = _NOT_EXISTS[key]
                cells.append(_verify_not_exists_cell(row, col, rule_id, g_id, n_id))
            else:
                if key not in _UNKNOWN:  # pragma: no cover - registry audit
                    raise TableVerificationError(f"cell {key} is unregistered")
                cells.append(Cell(row=row, col=col, status="unknown"))
    return ExistenceTable(cells=tuple(cells))
