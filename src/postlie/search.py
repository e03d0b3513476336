"""Exact search for product structures on a pair of Lie algebras.

Three stages, cheapest first:

* **S1 — linear feasibility.**  Axioms (1) and (3) of the product are linear
  in the ``d**3`` product coefficients ``a[i][j][k]``.  The full affine
  solution space of that subsystem is computed exactly; when it is empty the
  search stops with a verified-negative certificate, because a rational
  linear system that is inconsistent over the rationals stays inconsistent
  over every extension field.
* **S2 — decomposition witnesses.**  Every splitting of the basis of ``n``
  into two complementary coordinate subsets whose spans are both
  subalgebras yields a weight-one operator (minus the projection onto the
  second part), whose derived product satisfies all three axioms for the
  operator's descendent bracket.  For a coordinate splitting that bracket
  is a sign pattern on ``n``: ``n``'s bracket within the first part, its
  negation within the second, and zero across the two.  A subset yields a
  witness only when the bracket of ``g`` equals that pattern entry for
  entry; the test compares the cells of the two brackets, with no
  linear algebra, and the operator and its product are built only for a
  subset that matches.
* **S3 — bounded quadratic search.**  The remaining quadratic axiom (2) is
  checked pointwise on an integer grid laid over the free parameters of the
  S1 solution space.  The grid is exhausted in deterministic lexicographic
  order up to a configurable budget; running out of budget yields an
  ``unknown`` verdict, never a negative one.  Axiom (2) is homogeneous of
  degree two in ``g``'s bracket and the product, so both are scaled by the
  lcm of their denominators and each point is checked in integers, by the
  same residual kernel :func:`~postlie.structures.verify_pa` uses.  The
  scaled product is stepped like an odometer: moving to the next point
  adds in only the basis vectors whose digit changed.  The rational
  witness is built only at a point that passes.  When the S1 space is a single
  point (no free parameter) and that point fails axiom (2), the verdict is
  negative: a rational linear system with a unique solution has that same
  unique solution over every extension field.

Every verdict is about the two brackets exactly as given on the shared
coordinate space: the same abstract pair can admit a product under a
different basis identification, and no stage searches over those.  All
arithmetic is exact.  Every certificate leaves through one exit, which
re-verifies any witness against the three axioms on the caller's ``g`` and
``n`` and issues no ``exists`` certificate when that fails.
"""

from __future__ import annotations

import itertools
import math
from collections import defaultdict
from dataclasses import dataclass
from typing import Optional, Sequence

from . import linalg
from .liealg import LieAlgebra, add_bilinear, canonical_cells, nonzero
from .structures import (
    PAProduct,
    _units,
    axiom2_kernel,
    pa_from_rb,
    rb_from_coordinate_split,
    verify_pa,
)
from .certificates import EXISTS, NOT_EXISTS, UNKNOWN, Certificate

LINEAR_INFEASIBLE_RULE = "linear-infeasible"
UNIQUE_SOLUTION_FAILS_RULE = "unique-linear-solution-fails-axiom2"

_LINEAR_INFEASIBLE_TEXT = (
    "The coupling axiom (1) and the derivation axiom (3) are linear in the "
    "product coefficients.  Exact row reduction shows this linear system is "
    "inconsistent over the rationals, and a linear system with rational "
    "coefficients is solvable over an extension field if and only if it is "
    "solvable over the rationals; hence no bilinear product satisfies the "
    "axioms for the two brackets exactly as given on this shared basis, "
    "over any field containing the rationals.  The certificate concerns "
    "this alignment only: re-identifying either bracket by a change of "
    "basis yields a different linear system."
)

_UNIQUE_SOLUTION_FAILS_TEXT = (
    "The coupling axiom (1) and the derivation axiom (3) are linear in the "
    "product coefficients.  Exact row reduction shows this linear system "
    "has exactly one rational solution (no free parameter), and a rational "
    "linear system has the same rank over every extension field, so that "
    "solution is also the only one over any field containing the "
    "rationals.  It fails the quadratic representation axiom (2); hence no "
    "bilinear product satisfies the axioms for the two brackets exactly as "
    "given on this shared basis, over any such field.  The certificate "
    "concerns this alignment only: re-identifying either bracket by a "
    "change of basis yields a different linear system."
)


# ----------------------------------------------------------------------
# linear solution space of the two linear axioms
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class SolutionSpace:
    """Affine solution set of the linear axioms in flat coordinates.

    Product coefficients are flattened as ``a[i][j][k]`` at index
    ``(i*d + j)*d + k``, the coefficient of ``e_k`` in ``e_i . e_j``.
    ``particular`` and each vector of the homogeneous ``basis`` are stored
    sparse, as their nonzero ``(flat index, value)`` pairs in ascending
    index order.  ``particular`` is ``None`` exactly when the system is
    inconsistent; the linearly independent ``basis`` spans the difference
    set of any two solutions.
    """

    dim: int
    particular: Optional[tuple]
    basis: tuple

    @property
    def is_empty(self) -> bool:
        return self.particular is None

    @property
    def dimension(self) -> Optional[int]:
        return None if self.is_empty else len(self.basis)

    def product_at(self, coefficients: Sequence) -> PAProduct:
        """The product at ``particular + sum(c_b * basis_b)``."""
        if self.is_empty:
            raise ValueError("the solution space is empty")
        if len(coefficients) != len(self.basis):
            raise ValueError("need one coefficient per basis vector")
        d = self.dim
        flat = dict(self.particular)
        for c, vec in zip(coefficients, self.basis):
            c = linalg.frac(c)
            if c != 0:
                for index, y in vec:
                    flat[index] = flat.get(index, linalg.ZERO) + c * y
        entries = {(index // d // d, index // d % d, index % d): y for index, y in flat.items()}
        return PAProduct(d, canonical_cells(d, entries))

    def contains(self, product: PAProduct) -> bool:
        """Exact membership: the product's offset from ``particular`` adds
        no rank to the basis."""
        if self.is_empty or product.dim != self.dim:
            return False
        d = self.dim
        offset = {index: -y for index, y in self.particular}
        for i, plane in enumerate(product.cells):
            for j, cell in enumerate(plane):
                for k, y in cell:
                    index = (i * d + j) * d + k
                    offset[index] = offset.get(index, linalg.ZERO) + y
        rows = [dict(vec) for vec in self.basis]
        return len(linalg.eliminate([*rows, offset])) == len(rows)


def pa_linear_space(g: LieAlgebra, n: LieAlgebra) -> SolutionSpace:
    """Exact solution space of the linear axioms (1) and (3) on ``(g, n)``.

    Axiom (3) says each left multiplication ``L(e_i)`` is a derivation of
    ``n``, so the solutions of (3) alone are exactly the tuples of ``d``
    derivations.  The space is therefore assembled in the coordinates of a
    derivation basis — one copy per left slot — and axiom (1) is solved in
    those coordinates, as sparse rows over the nonzeros of the derivations,
    before converting back to the flat ``a[i][j][k]`` form.  The returned
    object is the same affine set the raw ``d**3`` system defines, just
    computed through a faithful reparametrization.
    """
    if g.dim != n.dim:
        raise ValueError("g and n must share one dimension")
    d = g.dim
    ders = n._derivations
    nder = len(ders)
    cols = d * nder
    # the nonzero (k, j, D_alpha[k][j]) of each sparse derivation D_alpha
    entries = [[(*divmod(flat, d), v) for flat, v in der.items()] for der in ders]
    at = defaultdict(list)  # (k, j) -> the nonzero (alpha, D_alpha[k][j])
    for alpha, nonzeros in enumerate(entries):
        for k, j, v in nonzeros:
            at[k, j].append((alpha, v))

    plus, minus, _ = _units(d)

    def rows():
        # Axiom (1) over x[(i, alpha)] at column i*nder + alpha: for i < j
        # and each k,
        #   sum_alpha x[i][alpha] D_alpha[k][j] - x[j][alpha] D_alpha[k][i]
        #     = cg[i][j][k] - cn[i][j][k], the right-hand side at ``cols``.
        for i in range(d):
            for j in range(i + 1, d):
                rhs = add_bilinear([linalg.ZERO] * d, g.cells, plus[i], plus[j])
                add_bilinear(rhs, n.cells, minus[i], plus[j])
                for k in range(d):
                    row = {i * nder + alpha: v for alpha, v in at.get((k, j), ())}
                    row.update((j * nder + alpha, -v) for alpha, v in at.get((k, i), ()))
                    row[cols] = rhs[k]
                    yield row

    solved = linalg.solve_affine(rows(), cols)
    if solved is None:
        return SolutionSpace(dim=d, particular=None, basis=())

    def to_flat(x: dict) -> tuple:
        flat = {}
        for col, c in x.items():
            i, alpha = divmod(col, nder)
            for k, j, v in entries[alpha]:
                index = (i * d + j) * d + k
                flat[index] = flat.get(index, linalg.ZERO) + c * v
        return tuple(sorted((index, y) for index, y in flat.items() if y))

    particular, basis = solved
    return SolutionSpace(
        dim=d, particular=to_flat(particular), basis=tuple(map(to_flat, basis))
    )


# ----------------------------------------------------------------------
# the staged search
# ----------------------------------------------------------------------


def _axiom2_holds(cg, p, units) -> bool:
    """Exact check of the representation axiom (2) on the cells ``cg`` of
    ``g``'s bracket and ``p`` of a product, with ``units`` in their
    coefficient ring: stops at the first nonzero residual."""
    return next(axiom2_kernel(cg, p, units), None) is None


def _integer_bracket(g: LieAlgebra, space: SolutionSpace) -> tuple[int, tuple]:
    """The lcm of every denominator in ``g``'s bracket and in the particular
    solution and basis of ``space``, and the cells of that multiple
    of ``g``'s bracket, an integer tensor."""
    cells = [cell for plane in g.cells for cell in plane]
    scale = math.lcm(
        *(c.denominator for vec in (*cells, space.particular, *space.basis) for _, c in vec)
    )
    return scale, tuple(
        tuple(tuple((k, int(c * scale)) for k, c in cell) for cell in plane)
        for plane in g.cells
    )


def _integer_grid(space: SolutionSpace, scale: int, height: int):
    """The points of the grid ``[-height, height]**free`` on the free
    parameters of ``space``, in lexicographic order (last digit fastest,
    starting at every digit ``-height``), each as its digits together with
    the cells of ``scale`` times the product there.

    ``scale`` must clear every denominator of ``space``, so that those
    products are integer tensors.  Stepping to the next point adds in only
    the basis vectors whose digit changed, and rebuilds only the cells they
    touch.  The digit list is updated in place between points.
    """
    d = space.dim
    free = len(space.basis)
    basis = [[(index, int(y * scale)) for index, y in vec] for vec in space.basis]
    touched = [sorted({index // d for index, _ in vec}) for vec in basis]
    flat = [0] * d**3
    for index, y in space.particular:
        flat[index] = int(y * scale)
    for vec in basis:
        for index, y in vec:
            flat[index] -= height * y
    cells = [nonzero(flat[s : s + d]) for s in range(0, d**3, d)]
    p = [cells[s : s + d] for s in range(0, d * d, d)]
    digits = [-height] * free
    while True:
        yield digits, p
        changed = []
        position = free - 1
        while position >= 0 and digits[position] == height:
            changed.append((position, -2 * height))
            digits[position] = -height
            position -= 1
        if position < 0:
            return
        changed.append((position, 1))
        digits[position] += 1
        for position, step in changed:
            for index, y in basis[position]:
                flat[index] += step * y
        for cell in {cell for position, _ in changed for cell in touched[position]}:
            i, j = divmod(cell, d)
            p[i][j] = nonzero(flat[cell * d : cell * d + d])


def _splitting_order(d: int):
    """All basis subsets, largest first, lexicographic within a size,
    generated lazily."""
    return itertools.chain.from_iterable(
        itertools.combinations(range(d), size) for size in range(d, -1, -1)
    )


def _split_descends(g: LieAlgebra, n: LieAlgebra, subset: Sequence[int]) -> bool:
    """Whether splitting ``n`` into the span of ``subset`` and the span of
    the remaining coordinates yields ``g`` as descendent bracket.

    Both spans must be subalgebras of ``n``, and the descendent bracket of
    the operator (minus the projection onto the rest) must equal ``g`` on
    every basis pair ``(i, j)``.  For a coordinate splitting that bracket is
    a sign pattern on ``n``: ``n``'s bracket within the first part, its
    negation within the rest, and zero across the two parts.
    """
    d = n.dim
    first = [False] * d
    for i in subset:
        first[i] = True
    for i in range(d):
        for j in range(d):
            gc, nc = g.cells[i][j], n.cells[i][j]
            if first[i] != first[j]:
                if gc:
                    return False
            elif any(first[k] != first[i] for k, _ in nc):
                return False  # the part is not closed
            elif gc != (nc if first[i] else tuple((k, -c) for k, c in nc)):
                return False
    return True


def pa_search(
    g: LieAlgebra,
    n: LieAlgebra,
    *,
    budget: int = 512,
    grid_height: int = 2,
    g_name: str = "",
    n_name: str = "",
) -> Certificate:
    """Staged exact search for a product structure on ``(g, n)``.

    Returns a certificate whose verdict is ``exists`` (with a re-verified
    witness), ``not_exists`` (only from linear infeasibility, or from a
    unique linear solution that fails axiom (2); both are
    field-independent), or ``unknown`` (budget exhausted).  ``budget``
    bounds the number of S3 grid points; ``grid_height`` is the half-width
    of the integer grid on the free parameters; both must be non-negative
    (``ValueError`` otherwise).  A bracket that fails the Jacobi identity
    raises ``ValueError`` naming the first failing basis triple.
    """
    if g.dim != n.dim:
        raise ValueError("g and n must share one dimension")
    if budget < 0:
        raise ValueError(f"budget must be non-negative, got {budget}")
    if grid_height < 0:
        raise ValueError(f"grid_height must be non-negative, got {grid_height}")
    g.require_lie("g")
    n.require_lie("n")
    d = g.dim
    g_name = g_name or g.name or "g"
    n_name = n_name or n.name or "n"
    trace = []
    subsets_checked = points_checked = 0

    def issue(verdict: str, line: str, **fields) -> Optional[Certificate]:
        """The one exit: the certificate with ``line`` as its last trace
        line, or ``None`` when its witness fails ``verify_pa``."""
        witness = fields.get("witness")
        if witness is not None and not verify_pa(g, n, witness).ok:
            return None
        return Certificate(
            verdict,
            g_name,
            n_name,
            trace=(*trace, line),
            subsets_checked=subsets_checked,
            points_checked=points_checked,
            linear_dimension=space.dimension,
            **fields,
        )

    # --- S1: linear feasibility -------------------------------------
    space = pa_linear_space(g, n)
    if space.is_empty:
        return issue(
            NOT_EXISTS,
            "stage S1: the linear axiom system over the "
            f"{d**3} product coefficients is inconsistent",
            rule_id=LINEAR_INFEASIBLE_RULE,
            justification=_LINEAR_INFEASIBLE_TEXT,
        )
    trace.append(
        "stage S1: linear axioms admit an affine solution space of "
        f"dimension {space.dimension}"
    )

    # --- S2: complementary coordinate splittings ---------------------
    for subset in _splitting_order(d):
        subsets_checked += 1
        if not _split_descends(g, n, subset):
            continue
        op = rb_from_coordinate_split(n, subset)
        rest = tuple(i for i in range(d) if i not in subset)
        cert = issue(
            EXISTS,
            "stage S2: splitting #%d into coordinate subalgebras {%s} and {%s} "
            "yields a weight-one operator whose product verifies all axioms"
            % (
                subsets_checked,
                ", ".join(str(i + 1) for i in subset) or "-",
                ", ".join(str(i + 1) for i in rest) or "-",
            ),
            witness=pa_from_rb(n, op),
            operator=op,
        )
        if cert is not None:
            return cert
    trace.append(
        f"stage S2: all {subsets_checked} coordinate splittings checked, "
        "no matching complementary-subalgebra witness (only coordinate-"
        "aligned splittings are enumerated, so this stage alone is not "
        "evidence of non-existence)"
    )

    # --- S3: bounded grid over the free parameters -------------------
    # Axiom (2) is homogeneous of degree two in g's bracket and the
    # product, so each point is checked on both scaled by the lcm of their
    # denominators, in integers; the rational witness is built only at a
    # point that passes.
    free = len(space.basis)
    height = int(grid_height)
    grid_size = (2 * height + 1) ** free
    scale, cg = _integer_bracket(g, space)
    units = _units(d, 1)
    grid = _integer_grid(space, scale, height)
    for points_checked, (digits, p) in itertools.islice(enumerate(grid, 1), budget):
        if not _axiom2_holds(cg, p, units):
            continue
        cert = issue(
            EXISTS,
            f"stage S3: grid point #{points_checked} at height {height} "
            "satisfies the quadratic axiom; all three axioms re-verified",
            witness=space.product_at(digits),
        )
        if cert is not None:
            return cert
    if grid_size > budget:
        return issue(
            UNKNOWN,
            f"stage S3: budget of {budget} grid points exhausted "
            f"(grid height {height}, {free} free parameters)",
        )
    if free == 0:
        return issue(
            NOT_EXISTS,
            "stage S3: the single solution of the linear axioms fails the "
            "quadratic axiom (2)",
            rule_id=UNIQUE_SOLUTION_FAILS_RULE,
            justification=_UNIQUE_SOLUTION_FAILS_TEXT,
        )
    return issue(
        UNKNOWN,
        f"stage S3: exhausted the full integer grid of height {height} on "
        f"{free} free parameters ({points_checked} points) without a hit; "
        "the grid does not cover the affine space, so the verdict stays open",
    )
