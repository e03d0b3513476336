"""Machine-checkable verdicts about product structures on a pair.

A :class:`Certificate` records one of three verdicts about the existence of
a product structure on the literal pair ``(g, n)``, the two brackets exactly
as given on one shared basis:

* ``exists`` — carries a concrete witness, a :class:`~postlie.structures.PAProduct`
  that verifies on the two named brackets (and, when it came from a
  splitting, the weight-one operator it was derived from), together with
  the evidence trail that produced it;
* ``not_exists`` — carries the identifier of the structural rule whose
  hypotheses were verified computationally, plus a self-contained
  mathematical justification of why those hypotheses exclude a product;
* ``unknown`` — the methods available here neither found a witness nor
  applied a rule within the configured budget.

Producers (:func:`~postlie.search.pa_search`,
:func:`~postlie.rules.nonexistence_certificate`) build the dataclass
directly.  Certificates never assert more than what was actually computed:
every ``exists`` witness is re-verified with ``verify_pa(g, n, witness)``
on the caller's two brackets before the certificate is built, and every
``not_exists`` rule application lists the structural predicates that were
checked, so a reader can replay the decision from the trace alone.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .interchange import _entry_list, _matrix_strings
from .structures import PAProduct, RBOperator

EXISTS = "exists"
NOT_EXISTS = "not_exists"
UNKNOWN = "unknown"


@dataclass(frozen=True)
class Certificate:
    """Outcome of a search or rule application on a pair ``(g, n)``."""

    verdict: str
    g_name: str
    n_name: str
    witness: Optional[PAProduct] = None
    operator: Optional[RBOperator] = None
    rule_id: Optional[str] = None
    justification: Optional[str] = None
    trace: tuple = ()
    subsets_checked: int = 0
    points_checked: int = 0
    linear_dimension: Optional[int] = None

    @property
    def exit_code(self) -> int:
        """Process exit convention: 0 witness, 1 verified-negative, 2 unknown."""
        return {EXISTS: 0, NOT_EXISTS: 1, UNKNOWN: 2}[self.verdict]

    def as_dict(self) -> dict:
        doc: dict = {
            "verdict": self.verdict,
            "g": self.g_name,
            "n": self.n_name,
            "trace": list(self.trace),
        }
        if self.witness is not None:
            doc["witness_product"] = {
                "dim": self.witness.dim,
                "entries": _entry_list(self.witness.sparse_table()),
            }
        if self.operator is not None:
            doc["witness_operator"] = {
                "dim": self.operator.dim,
                "weight": str(self.operator.weight),
                "matrix": _matrix_strings(self.operator.matrix),
            }
        if self.rule_id is not None:
            doc["rule_id"] = self.rule_id
        if self.justification is not None:
            doc["justification"] = self.justification
        if self.subsets_checked:
            doc["subsets_checked"] = self.subsets_checked
        if self.points_checked:
            doc["points_checked"] = self.points_checked
        if self.linear_dimension is not None:
            doc["linear_dimension"] = self.linear_dimension
        return doc
