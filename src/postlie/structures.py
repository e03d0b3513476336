"""Products and operators coupling two Lie brackets on one space.

A *product structure* here is a bilinear product ``x . y`` on the underlying
space of a pair of Lie algebras ``(g, n)`` of equal dimension satisfying

1. ``x . y - y . x = [x, y]_g - {x, y}_n``
2. ``[x, y]_g . z = x . (y . z) - y . (x . z)``
3. ``x . {y, z}_n = {x . y, z}_n + {y, x . z}_n``

(``[.,.]_g`` is the bracket of ``g``, ``{.,.}_n`` the bracket of ``n``).
Axiom 3 says each left multiplication ``L(x): y -> x . y`` is a derivation
of ``n``; axiom 2 says ``L`` is a homomorphism from ``g`` into those
derivations; axiom 1 ties the two brackets together through the product.

A *weighted operator* on a single algebra ``n`` is a linear map ``R`` with

    {Rx, Ry} = R({Rx, y} + {x, Ry} + w {x, y})

for a scalar weight ``w``.  For weight one, ``x . y = {Rx, y}`` is always a
product structure on ``(g, n)`` where ``g`` carries the descendent bracket
``{Rx,y} + {x,Ry} + {x,y}``; this correspondence is exact when ``n`` has
trivial center and surjective inner-derivation map among complete algebras,
and the two notions diverge in general.

A :class:`PAProduct` stores the canonical cells of its tensor as an
algebra does (:func:`~postlie.liealg.canonical_cells`; the dense ``tensor``
is a view for tests and output), and every product, residual and operator
product runs on those cells through the one kernel
:func:`~postlie.liealg.add_bilinear`.  One skew-plus,
``t[i][j] - t[j][i] + w {e_i, e_j}`` on the cells of ``t``, is the
induced bracket of a product (``w = 1``), with ``g``'s cell taken off the
axiom-1 residual, and, for ``t[i][j] = {R e_i, e_j}`` (the product of a
weight-one operator), the descendent bracket; the operator identity
compares ``{R e_i, R e_j}`` with ``R`` applied to that descendent cell,
``R`` acting as the one-row table of its sparse columns.

Everything is exact rational arithmetic; all verification functions return
complete residual listings rather than booleans alone.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from typing import Iterable, Mapping, Sequence

from . import linalg
from .linalg import Matrix, Vector, frac
from .liealg import MINUS_ONE, LieAlgebra, add_bilinear, canonical_cells, dense_tensor, nonzero, unit
from .subspace import Subspace, coordinate_set

ProductTable = Mapping[tuple[int, int], Mapping[int, object]]


def _vec_str(v: Sequence[Fraction]) -> list[str]:
    return [str(x) for x in v]


# ----------------------------------------------------------------------
# product structures
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class PAProduct:
    """Bilinear product stored as the canonical cells of ``e_i . e_j``."""

    dim: int
    cells: tuple  # cells[i][j]: the nonzero (k, c) of e_i . e_j, ascending k
    name: str = field(default="", compare=False)

    @staticmethod
    def from_table(dim: int, table: ProductTable, name: str = "") -> "PAProduct":
        """Build from a sparse 0-based table ``{(i, j): {k: coeff}}``.

        Unlike a bracket table the product is not antisymmetrized: the
        entry for ``(i, j)`` defines ``e_i . e_j`` only.
        """
        entries = {}
        for (i, j), components in table.items():
            if not (0 <= i < dim and 0 <= j < dim):
                raise ValueError(f"product index ({i}, {j}) out of range")
            for k, coeff in components.items():
                if not 0 <= k < dim:
                    raise ValueError(f"product target {k} out of range")
                entries[i, j, k] = frac(coeff)
        return PAProduct(dim, canonical_cells(dim, entries), name)

    @staticmethod
    def zero(dim: int, name: str = "") -> "PAProduct":
        return PAProduct.from_table(dim, {}, name)

    @cached_property
    def tensor(self) -> tuple:
        """``tensor[i][j]``: the dense coordinate vector of ``e_i . e_j``."""
        return dense_tensor(self.dim, self.cells)

    def apply(self, x: Sequence[Fraction], y: Sequence[Fraction]) -> Vector:
        return tuple(add_bilinear([linalg.ZERO] * self.dim, self.cells, nonzero(x), nonzero(y)))

    def left_mult(self, x: Sequence[Fraction]) -> Matrix:
        """Matrix of ``L(x): y -> x . y`` (columns are ``x . e_j``)."""
        xs = nonzero(x)
        cols = [
            add_bilinear([linalg.ZERO] * self.dim, self.cells, xs, unit(j))
            for j in range(self.dim)
        ]
        return linalg.transpose(cols)

    def sparse_table(self) -> dict[tuple[int, int], dict[int, Fraction]]:
        return {
            (i, j): dict(cell)
            for i, plane in enumerate(self.cells)
            for j, cell in enumerate(plane)
            if cell
        }

    def is_zero(self) -> bool:
        return not any(any(plane) for plane in self.cells)


def induced_bracket(n: LieAlgebra, product: PAProduct, name: str = "") -> LieAlgebra:
    """The unique ``g``-bracket satisfying axiom 1 for the given product:
    ``[x, y] = x . y - y . x + {x, y}_n``.  The result is antisymmetric by
    construction but need not satisfy the Jacobi identity unless the
    product actually is a product structure.
    """
    if product.dim != n.dim:
        raise ValueError("product and algebra dimensions differ")
    cells = _skew_plus(product.cells, n, 1)
    return LieAlgebra.from_table(
        n.dim, {ij: dict(nonzero(cell)) for ij, cell in cells}, name or f"induced({n.name})"
    )


def _skew_plus(t, n: LieAlgebra, w):
    """``((i, j), r)`` for each ``i < j`` in lexicographic order, ``r`` the
    coordinate list of ``t[i][j] - t[j][i] + w {e_i, e_j}`` for the cells
    ``t`` (see the module docstring for its four uses)."""
    d = n.dim
    plus, minus, _ = _units(d)
    for i in range(d):
        for j in range(i + 1, d):
            res = add_bilinear([linalg.ZERO] * d, t, plus[i], plus[j])
            add_bilinear(res, t, minus[j], plus[i])
            yield (i, j), add_bilinear(res, n.cells, unit(i, w), plus[j])


@dataclass(frozen=True)
class PAVerification:
    """Complete residual listing for the three product axioms.

    ``axiom1`` holds pairs ``((i, j), residual)`` with ``i < j``; ``axiom2``
    and ``axiom3`` hold triples ``((i, j, k), residual)``.  Only nonzero
    residuals are stored, so the verification succeeds exactly when all
    three tuples are empty and both brackets satisfy Jacobi.
    """

    g_jacobi_ok: bool
    n_jacobi_ok: bool
    axiom1: tuple
    axiom2: tuple
    axiom3: tuple

    @property
    def ok(self) -> bool:
        return (
            self.g_jacobi_ok
            and self.n_jacobi_ok
            and not self.axiom1
            and not self.axiom2
            and not self.axiom3
        )

    def as_dict(self) -> dict:
        return {
            "ok": self.ok,
            "g_jacobi_ok": self.g_jacobi_ok,
            "n_jacobi_ok": self.n_jacobi_ok,
            "axiom1_ok": not self.axiom1,
            "axiom2_ok": not self.axiom2,
            "axiom3_ok": not self.axiom3,
            "left_multiplication_is_representation": not self.axiom2,
            "left_multiplication_acts_by_derivations": not self.axiom3,
            "axiom1_violations": [
                {"i": i + 1, "j": j + 1, "residual": _vec_str(res)}
                for (i, j), res in self.axiom1
            ],
            "axiom2_violations": [
                {"i": i + 1, "j": j + 1, "k": k + 1, "residual": _vec_str(res)}
                for (i, j, k), res in self.axiom2
            ],
            "axiom3_violations": [
                {"i": i + 1, "j": j + 1, "k": k + 1, "residual": _vec_str(res)}
                for (i, j, k), res in self.axiom3
            ],
        }


def _units(d: int, one=linalg.ONE) -> tuple[list, list, object]:
    """``e_k`` and ``-e_k`` as ``(index, coefficient)`` pairs, for each ``k``,
    and the zero coefficient: over the rationals by default, over the
    integers for ``one=1``."""
    minus_one = MINUS_ONE if one is linalg.ONE else -one
    return [unit(k, one) for k in range(d)], [unit(k, minus_one) for k in range(d)], one - one


def axiom2_residuals(g: LieAlgebra, product: PAProduct):
    """Nonzero residuals ``((i, j, k), r)`` of axiom 2 on basis vectors,
    ``r = [e_i, e_j]_g . e_k - e_i . (e_j . e_k) + e_j . (e_i . e_k)``,
    generated lazily for ``i < j`` and every ``k`` in lexicographic order.
    """
    return axiom2_kernel(g.cells, product.cells, _units(g.dim))


def axiom2_kernel(cg, p, units):
    """:func:`axiom2_residuals` on cells: ``cg`` of the bracket of
    ``g``, ``p`` of the product, and ``units`` from :func:`_units` in the
    same coefficient ring.

    Each residual is homogeneous of degree two in the pair of tensors, so
    scaling both by ``s`` scales it by ``s**2``: integer multiples of
    rational tensors have the same zero residuals.
    """
    plus, minus, zero = units
    d = len(plus)
    for i in range(d):
        for j in range(i + 1, d):
            for k in range(d):
                res = [zero] * d
                add_bilinear(res, p, cg[i][j], plus[k])
                add_bilinear(res, p, minus[i], p[j][k])
                add_bilinear(res, p, plus[j], p[i][k])
                if any(res):
                    yield (i, j, k), tuple(res)


def axiom3_residuals(n: LieAlgebra, product: PAProduct):
    """Nonzero residuals ``((i, j, k), r)`` of axiom 3 on basis vectors,
    ``r = e_i . {e_j, e_k} - {e_i . e_j, e_k} - {e_j, e_i . e_k}``, for
    every ``i`` and ``j < k`` in lexicographic order.
    """
    d = n.dim
    p, cn = product.cells, n.cells
    plus, minus, _ = _units(d)
    for i in range(d):
        for j in range(d):
            for k in range(j + 1, d):
                res = [linalg.ZERO] * d
                add_bilinear(res, p, plus[i], cn[j][k])
                add_bilinear(res, cn, p[i][j], minus[k])
                add_bilinear(res, cn, minus[j], p[i][k])
                if any(res):
                    yield (i, j, k), tuple(res)


def verify_pa(g: LieAlgebra, n: LieAlgebra, product: PAProduct) -> PAVerification:
    """Exactly verify the three axioms plus Jacobi for both brackets."""
    if not (g.dim == n.dim == product.dim):
        raise ValueError("g, n and the product must share one dimension")
    plus, minus, _ = _units(n.dim)
    axiom1 = []
    for (i, j), res in _skew_plus(product.cells, n, 1):
        add_bilinear(res, g.cells, minus[i], plus[j])
        if any(res):
            axiom1.append(((i, j), tuple(res)))

    return PAVerification(
        g_jacobi_ok=g.is_lie(),
        n_jacobi_ok=n.is_lie(),
        axiom1=tuple(axiom1),
        axiom2=tuple(axiom2_residuals(g, product)),
        axiom3=tuple(axiom3_residuals(n, product)),
    )


# ----------------------------------------------------------------------
# weighted operators
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class RBOperator:
    """Linear operator with a weight, stored as a matrix acting on columns."""

    dim: int
    matrix: Matrix
    weight: Fraction
    name: str = field(default="", compare=False)

    @staticmethod
    def from_rows(rows: Sequence[Sequence[object]], weight: object = 1, name: str = "") -> "RBOperator":
        m = tuple(tuple(frac(x) for x in row) for row in rows)
        dim = len(m)
        if any(len(row) != dim for row in m):
            raise ValueError("operator matrix must be square")
        return RBOperator(dim=dim, matrix=m, weight=frac(weight), name=name)

    @staticmethod
    def zero(dim: int, weight: object = 1, name: str = "") -> "RBOperator":
        return RBOperator(dim, linalg.zero_matrix(dim, dim), frac(weight), name)

    def apply(self, x: Sequence[Fraction]) -> Vector:
        return linalg.matvec(self.matrix, x)


@dataclass(frozen=True)
class RBVerification:
    n_jacobi_ok: bool
    weight: Fraction
    residuals: tuple  # ((i, j), residual vector) with i < j, nonzero only

    @property
    def ok(self) -> bool:
        return self.n_jacobi_ok and not self.residuals

    def as_dict(self) -> dict:
        return {
            "ok": self.ok,
            "n_jacobi_ok": self.n_jacobi_ok,
            "weight": str(self.weight),
            "violations": [
                {"i": i + 1, "j": j + 1, "residual": _vec_str(res)}
                for (i, j), res in self.residuals
            ],
        }


def _operator_products(n: LieAlgebra, op: RBOperator) -> tuple[list, tuple]:
    """``R e_i`` as ``(index, coefficient)`` pairs, for each ``i``, and the
    canonical cells of ``t[i][j] = {R e_i, e_j}`` that the operator functions
    share.  As the one-row table ``(columns,)`` the kernel applies ``R`` to
    a vector."""
    if op.dim != n.dim:
        raise ValueError("operator and algebra dimensions differ")
    d = n.dim
    cols = [nonzero(col) for col in linalg.transpose(op.matrix)]
    return cols, tuple(
        tuple(nonzero(add_bilinear([linalg.ZERO] * d, n.cells, col, unit(j))) for j in range(d))
        for col in cols
    )


def verify_rb(n: LieAlgebra, op: RBOperator) -> RBVerification:
    """Check ``{Rx, Ry} = R({Rx, y} + {x, Ry} + w {x, y})`` on basis pairs,
    from the operator's sparse columns and the descendent's cells as
    :func:`_skew_plus` gives them; no algebra is built."""
    cols, t = _operator_products(n, op)
    residuals = []
    for (i, j), cell in _skew_plus(t, n, op.weight):
        res = add_bilinear([linalg.ZERO] * n.dim, n.cells, cols[i], cols[j])
        add_bilinear(res, (cols,), unit(0, MINUS_ONE), nonzero(cell))
        if any(res):
            residuals.append(((i, j), tuple(res)))
    return RBVerification(
        n_jacobi_ok=n.is_lie(), weight=op.weight, residuals=tuple(residuals)
    )


def descendent_bracket(n: LieAlgebra, op: RBOperator, name: str = "") -> LieAlgebra:
    """``[x, y] = {Rx, y} + {x, Ry} + w {x, y}`` -- a Lie bracket whenever
    the operator verifies.  On basis vectors ``{e_i, R e_j} = -t[j][i]``
    for ``t[i][j] = {R e_i, e_j}``."""
    cells = _skew_plus(_operator_products(n, op)[1], n, op.weight)
    return LieAlgebra.from_table(
        n.dim, {ij: dict(nonzero(cell)) for ij, cell in cells}, name or f"descendent({n.name})"
    )


def pa_from_rb(n: LieAlgebra, op: RBOperator, name: str = "") -> PAProduct:
    """The product ``x . y = {Rx, y}`` induced by a weight-one operator.

    Together with the descendent bracket as ``g`` this always satisfies
    the product axioms when the operator verifies.
    """
    if op.weight != 1:
        raise ValueError("only weight-one operators induce a product this way")
    return PAProduct(n.dim, _operator_products(n, op)[1], name or f"op-product({n.name})")


def solve_rb_form(n: LieAlgebra, product: PAProduct) -> RBOperator | None:
    """Find an operator with ``x . y = {Rx, y}`` if one exists (weight one).

    Returns None when the product is not of that form; products on centered
    algebras frequently are not, which separates the two notions.
    """
    if product.dim != n.dim:
        raise ValueError("product and algebra dimensions differ")
    d = n.dim
    # x . y = {Rx, y}: a[i][j][k] = sum_r R[r][i] c[r][j][k], unknowns
    # R[r][i] at column r*d + i and the right-hand side at column d*d
    rows: dict = {}
    for r, plane in enumerate(n.cells):
        for j, cell in enumerate(plane):
            for k, c in cell:
                for i in range(d):
                    linalg.add_entry(rows, (i, j, k), r * d + i, c)
    for i, plane in enumerate(product.cells):
        for j, cell in enumerate(plane):
            for k, a in cell:
                linalg.add_entry(rows, (i, j, k), d * d, a)
    solved = linalg.solve_affine(rows.values(), d * d)
    if solved is None:
        return None
    solution = linalg.to_dense(solved[0], d * d)
    matrix = tuple(solution[r * d : r * d + d] for r in range(d))
    return RBOperator(dim=d, matrix=matrix, weight=Fraction(1))


def negation_partner(op: RBOperator) -> RBOperator:
    """``R -> -(R + w id)``: verifies exactly when the original does."""
    d = op.dim
    m = tuple(
        tuple(
            -(op.matrix[r][c] + (op.weight if r == c else linalg.ZERO))
            for c in range(d)
        )
        for r in range(d)
    )
    return RBOperator(dim=d, matrix=m, weight=op.weight, name=f"negation({op.name})")


def rb_kernels(n: LieAlgebra, op: RBOperator) -> tuple[Subspace, Subspace]:
    """Kernels of ``R`` and of ``R + w id`` (each a subalgebra when the
    operator verifies and its weight is nonzero)."""
    if op.dim != n.dim:
        raise ValueError("operator and algebra dimensions differ")
    rows = [dict(enumerate(row)) for row in op.matrix]
    shifted = [{**row, r: row[r] + op.weight} for r, row in enumerate(rows)]
    return Subspace.kernel(op.dim, rows), Subspace.kernel(op.dim, shifted)


def rb_from_decomposition(n: LieAlgebra, first: Subspace, second: Subspace) -> RBOperator:
    """Weight-one operator from a decomposition into complementary
    subalgebras: ``R`` is minus the projection onto ``second`` along
    ``first``.  Its descendent is isomorphic to the direct sum of the two
    pieces even when ``n`` itself is far from a direct sum.
    """
    if first.ambient_dim != n.dim or second.ambient_dim != n.dim:
        raise ValueError("subspace ambient dimension differs from the algebra")
    if first.dim + second.dim != n.dim or first.intersection(second).dim != 0:
        raise ValueError("subspaces are not complementary")
    for part, label in ((first, "first"), (second, "second")):
        if not n.is_subalgebra(part):
            raise ValueError(f"{label} subspace is not a subalgebra")
    # R e_c is minus the second part of e_c: the rows of ``second`` weighted
    # by their coefficients in e_c, as a one-row table applied to -e_0
    k = first.dim
    seconds = (second.rows,)
    units = ({c: linalg.ONE} for c in range(n.dim))
    cols = []
    for coeffs in linalg.coordinates(first._rows() + second._rows(), units, n.dim):
        weights = [(a - k, x) for a, x in coeffs.items() if a >= k]
        cols.append(add_bilinear([linalg.ZERO] * n.dim, seconds, unit(0, MINUS_ONE), weights))
    return RBOperator(dim=n.dim, matrix=linalg.transpose(cols), weight=Fraction(1))


def rb_from_coordinate_split(n: LieAlgebra, coords: Iterable[int]) -> RBOperator:
    """:func:`rb_from_decomposition` on the spans of ``coords`` and of the
    other coordinates: -1 on the diagonal outside ``coords``, 0 elsewhere."""
    chosen = coordinate_set(n.dim, coords)
    for part, label in ((chosen, "first"), (set(range(n.dim)) - chosen, "second")):
        if any(k not in part for i in part for j in part for k, _ in n.cells[i][j]):
            raise ValueError(f"{label} subspace is not a subalgebra")
    matrix = tuple(
        tuple(MINUS_ONE if r == c and r not in chosen else linalg.ZERO for c in range(n.dim))
        for r in range(n.dim)
    )
    return RBOperator(dim=n.dim, matrix=matrix, weight=Fraction(1))


# ----------------------------------------------------------------------
# graph constructions inside n |x Der(n)
# ----------------------------------------------------------------------

Pair = tuple[Vector, Matrix]


def product_from_left_action(n: LieAlgebra, pairs: Sequence[Pair], name: str = "") -> PAProduct:
    """Product from a graph basis ``(v_a, D_a)`` of a candidate subalgebra
    of ``n |x Der(n)`` whose first components form a basis of ``n``.

    The product is ``x . y = L(x) y`` where ``L(v_a) = D_a`` extended
    linearly.  Axiom 3 holds by construction (each ``D_a`` is checked to be
    a derivation); axioms 1 and 2 hold exactly when the pairs span a
    subalgebra, which `verify_pa` on the induced bracket confirms.
    """
    d = n.dim
    if len(pairs) != d:
        raise ValueError("need exactly dim pairs")
    for idx, (v, der) in enumerate(pairs):
        if len(v) != d:
            raise ValueError(f"first component of pair {idx} does not have length {d}")
        if not n.is_derivation(der):
            raise ValueError(f"matrix in pair {idx} is not a derivation")
    basis = [dict(enumerate(v)) for v, _ in pairs]
    coords = linalg.coordinates(basis, ({i: linalg.ONE} for i in range(d)), d)
    if None in coords:
        raise ValueError("first components of the pairs do not span")
    # e_i . e_j = L(e_i) e_j, column j of sum_a c_a D_a
    table: dict = {}
    for i, coeffs in enumerate(coords):
        for a, c in coeffs.items():
            for k, row in enumerate(pairs[a][1]):
                for j, x in enumerate(row):
                    if x:
                        linalg.add_entry(table, (i, j), k, c * x)
    return PAProduct.from_table(d, table, name)


# ----------------------------------------------------------------------
# paired embeddings into a doubled algebra
# ----------------------------------------------------------------------


class NotSemisimpleError(ValueError):
    """The paired-embedding criterion only applies over a semisimple target."""


@dataclass(frozen=True)
class DoubleEmbedding:
    """A linear map ``x -> (j1 x, j2 x)`` into the direct sum ``n (+) n``.

    Both blocks are ``dim x dim`` matrices over the rationals, acting on
    coordinate columns of the source algebra.
    """

    dim: int
    j1: Matrix
    j2: Matrix

    @staticmethod
    def from_rows(rows1: Sequence[Sequence[object]], rows2: Sequence[Sequence[object]]) -> "DoubleEmbedding":
        m1 = linalg.mat(rows1)
        m2 = linalg.mat(rows2)
        d = len(m1)
        if len(m2) != d or any(len(r) != d for r in m1 + m2):
            raise ValueError("both blocks must be square of equal size")
        return DoubleEmbedding(dim=d, j1=m1, j2=m2)

    def apply(self, v: Vector) -> tuple[Vector, Vector]:
        return linalg.matvec(self.j1, v), linalg.matvec(self.j2, v)


def verify_double_embedding(phi: DoubleEmbedding, g: LieAlgebra, n: LieAlgebra) -> bool:
    """Decide whether ``phi`` certifies a product structure on ``(g, n)``
    for semisimple ``n``.

    For semisimple ``n``, products on ``(g, n)`` correspond exactly to
    injective homomorphisms ``phi = (j1, j2): g -> n (+) n`` such that
    ``j1 - j2`` is bijective (the product is then recovered from the two
    component projections).  The check below verifies that both component
    maps are homomorphisms from ``g`` into ``n`` and that ``j1 - j2`` is
    invertible.  That makes the stacked map injective too, since a vector
    that both ``j1`` and ``j2`` kill is killed by their difference.

    Raises :class:`NotSemisimpleError` when ``n`` is not semisimple, since
    the correspondence is only a theorem under that hypothesis.
    """
    if g.dim != n.dim or phi.dim != g.dim:
        raise ValueError("phi, g and n must share one dimension")
    if not n.is_semisimple():
        raise NotSemisimpleError(
            "the paired-embedding criterion requires a semisimple target"
        )
    d = g.dim
    for block in (phi.j1, phi.j2):
        cols = [nonzero(col) for col in linalg.transpose(block)]
        for i in range(d):
            for j in range(i + 1, d):
                image = add_bilinear([linalg.ZERO] * d, (cols,), unit(0), g.cells[i][j])
                if image != add_bilinear([linalg.ZERO] * d, n.cells, cols[i], cols[j]):
                    return False
    diff = tuple(
        tuple(a - b for a, b in zip(r1, r2)) for r1, r2 in zip(phi.j1, phi.j2)
    )
    return linalg.rank(diff) == d
