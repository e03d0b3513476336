"""The split three-dimensional simple algebra and its finite modules.

Convention used everywhere in this package: sl2 has basis (e1, e2, e3) with

    [e1, e2] = e3,   [e1, e3] = -2 e1,   [e2, e3] = 2 e2,

so e1 raises weights, e2 lowers them and e3 is the semisimple element
([e3, e1] = 2 e1, [e3, e2] = -2 e2).

The irreducible module of dimension m has basis w_0, ..., w_{m-1} with

    e3 · w_j = (m - 1 - 2 j) w_j,
    e2 · w_j = w_{j+1}           (0 for j = m - 1),
    e1 · w_j = j (m - j) w_{j-1} (0 for j = 0),

which keeps every matrix integral.  ``module_action`` block-sums these over
a partition, and ``semidirect`` builds sl2 ⋉ (module with optional bracket),
checked by the Jacobi identity in :func:`liealg.semidirect_product`.
"""

from __future__ import annotations

from typing import Mapping, Sequence

from .linalg import Matrix, ZERO
from .liealg import BracketTable, LieAlgebra, semidirect_product

SL2_TABLE: BracketTable = {
    (0, 1): {2: 1},
    (0, 2): {0: -2},
    (1, 2): {1: 2},
}


def sl2(name: str = "sl2") -> LieAlgebra:
    return LieAlgebra.from_table(3, SL2_TABLE, name)


def irreducible_action(m: int) -> tuple[Matrix, Matrix, Matrix]:
    """Action matrices (for e1, e2, e3) on the m-dimensional irreducible."""
    if m < 1:
        raise ValueError("module dimension must be positive")
    raise_m = [[ZERO] * m for _ in range(m)]
    lower_m = [[ZERO] * m for _ in range(m)]
    diag_m = [[ZERO] * m for _ in range(m)]
    for j in range(m):
        diag_m[j][j] = m - 1 - 2 * j
        if j + 1 < m:
            lower_m[j + 1][j] = 1
        if j > 0:
            raise_m[j - 1][j] = j * (m - j)
    freeze = lambda rows: tuple(tuple(row) for row in rows)
    return freeze(raise_m), freeze(lower_m), freeze(diag_m)


def module_action(partition: Sequence[int]) -> tuple[Matrix, Matrix, Matrix]:
    """Block-diagonal action on the direct sum of irreducibles."""
    total = sum(partition)
    mats = [[[ZERO] * total for _ in range(total)] for _ in range(3)]
    offset = 0
    for m in partition:
        blocks = irreducible_action(m)
        for which in range(3):
            for r in range(m):
                for c in range(m):
                    mats[which][offset + r][offset + c] = blocks[which][r][c]
        offset += m
    return tuple(tuple(tuple(row) for row in mat) for mat in mats)


def semidirect(
    partition: Sequence[int],
    module_table: Mapping[tuple[int, int], Mapping[int, object]] | None = None,
    name: str = "",
) -> LieAlgebra:
    """sl2 ⋉ (⊕ irreducibles of the given dimensions, with optional bracket).

    ``module_table`` is a sparse bracket table on the module coordinates
    (0-based within the module); it must be an sl2-equivariant Lie
    bracket, which the underlying construction verifies.
    """
    action = module_action(partition)
    return semidirect_product(sl2(), sum(partition), action, module_table, name)
