"""Bundled sample structures.

Four worked post-Lie products on five-dimensional pairs, two of which are
realized by weight-one Rota-Baxter operators.  Together they exercise every
verifier in the package, and they ship as JSON documents under
``data/samples`` so the CLI can be demonstrated without writing files by
hand.

Each sample is named after the class pair it witnesses (isomorphism class
of the induced bracket over the class of the base algebra):

``perfect_over_reductive``
    g = 5-dim perfect ``L5_1`` acting on n = ``sl2_plus_C2``.
``solvable_over_perfect``
    g isomorphic to ``n3_plus_r2`` acting on n = ``L5_1``; equals the
    product of the Rota-Baxter operator ``-proj`` onto coordinates 2,3.
``reductive_over_perfect``
    g = ``sl2_plus_C2`` acting on n = ``L5_1``; equals the product of the
    Rota-Baxter operator ``-proj`` onto coordinates 4,5.
``complete_over_perfect``
    g = ``sl2_plus_r2`` acting on n = ``L5_1``; not of operator form.

The induced bracket of each sample is taken literally (no basis change),
so ``g_bracket()`` returns the exact tables these products determine.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .catalog import get_algebra
from .liealg import LieAlgebra
from .structures import PAProduct, RBOperator, induced_bracket

__all__ = ["SamplePair", "SAMPLES", "sample_ids", "get_sample"]


@dataclass(frozen=True)
class SamplePair:
    """A shipped post-Lie product with the catalog ids of its two algebras.

    ``g_class_id`` names the catalog entry the induced bracket is
    isomorphic to; the induced bracket itself may use a different basis.
    """

    sample_id: str
    g_class_id: str
    n_id: str
    product: PAProduct
    operator: Optional[RBOperator] = None

    def n(self) -> LieAlgebra:
        return get_algebra(self.n_id)

    def g_bracket(self) -> LieAlgebra:
        return induced_bracket(self.n(), self.product, name=self.sample_id + "_g")


_PERFECT_OVER_REDUCTIVE = SamplePair(
    sample_id="perfect_over_reductive",
    g_class_id="L5_1",
    n_id="sl2_plus_C2",
    product=PAProduct.from_table(
        5,
        {
            (0, 4): {3: 1},
            (1, 3): {4: 1},
            (2, 3): {3: 1},
            (2, 4): {4: -1},
        },
        "perfect_over_reductive",
    ),
)

_SOLVABLE_OVER_PERFECT = SamplePair(
    sample_id="solvable_over_perfect",
    g_class_id="n3_plus_r2",
    n_id="L5_1",
    product=PAProduct.from_table(
        5,
        {
            (1, 0): {2: 1},
            (1, 2): {1: -2},
            (1, 3): {4: -1},
            (2, 0): {0: -2},
            (2, 1): {1: 2},
            (2, 3): {3: -1},
            (2, 4): {4: 1},
        },
        "solvable_over_perfect",
    ),
    operator=RBOperator.from_rows(
        (
            (0, 0, 0, 0, 0),
            (0, -1, 0, 0, 0),
            (0, 0, -1, 0, 0),
            (0, 0, 0, 0, 0),
            (0, 0, 0, 0, 0),
        ),
        weight=1,
        name="solvable_over_perfect_R",
    ),
)

_REDUCTIVE_OVER_PERFECT = SamplePair(
    sample_id="reductive_over_perfect",
    g_class_id="sl2_plus_C2",
    n_id="L5_1",
    product=PAProduct.from_table(
        5,
        {
            (3, 1): {4: 1},
            (3, 2): {3: 1},
            (4, 0): {3: 1},
            (4, 2): {4: -1},
        },
        "reductive_over_perfect",
    ),
    operator=RBOperator.from_rows(
        (
            (0, 0, 0, 0, 0),
            (0, 0, 0, 0, 0),
            (0, 0, 0, 0, 0),
            (0, 0, 0, -1, 0),
            (0, 0, 0, 0, -1),
        ),
        weight=1,
        name="reductive_over_perfect_R",
    ),
)

_COMPLETE_OVER_PERFECT = SamplePair(
    sample_id="complete_over_perfect",
    g_class_id="sl2_plus_r2",
    n_id="L5_1",
    product=PAProduct.from_table(
        5,
        {
            (3, 1): {4: 1},
            (3, 2): {3: 1},
            (4, 0): {3: 1},
            (4, 2): {4: -1},
            (4, 3): {3: -1},
            (4, 4): {4: -1},
        },
        "complete_over_perfect",
    ),
)

SAMPLES: dict[str, SamplePair] = {
    s.sample_id: s
    for s in (
        _PERFECT_OVER_REDUCTIVE,
        _SOLVABLE_OVER_PERFECT,
        _REDUCTIVE_OVER_PERFECT,
        _COMPLETE_OVER_PERFECT,
    )
}


def sample_ids() -> tuple[str, ...]:
    return tuple(SAMPLES)


def get_sample(sample_id: str) -> SamplePair:
    try:
        return SAMPLES[sample_id]
    except KeyError:
        raise KeyError(f"unknown sample id {sample_id!r}") from None
