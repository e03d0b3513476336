"""Exact search for product structures on a pair of Lie algebras.

Three stages, cheapest first:

* **S1 — linear feasibility.**  Axioms (1) and (3) of the product are linear.
  S1 solves them in the ``d * dim Der(n)`` derivation coordinates of the
  left multiplications ``L(e_i)``, which axiom (3) makes derivations of
  ``n``.  The full affine solution space is computed exactly; when it is
  empty the search stops with a verified-negative certificate, because a rational
  linear system that is inconsistent over the rationals stays inconsistent
  over every extension field.  The elimination stops at the first row that
  shows the inconsistency; the rows after it are never built.
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
* **S3 — bounded quadratic search.**  The remaining quadratic axiom (2),
  that ``L: g -> Der(n)`` is a Lie homomorphism, is checked pointwise on an
  integer grid laid over the free parameters of the S1 solution space.
  Point ``t`` has the digits of ``t`` in base ``2 height + 1``, each less
  ``height``, and points are checked in number order up to a configurable
  budget; running out of budget yields an ``unknown`` verdict, never a
  negative one.  A point is checked in its ``d * dim Der(n)`` derivation
  coordinates scaled to integers, by one equation per ``i < j`` and basis
  derivation, built on demand from the structure constants of ``Der(n)``
  cached on ``n``; the equation that rejected the last point goes first.
  The count of points checked is the one grid position: a step adds in only
  the basis vectors of the digits that change, and the rational witness is
  built only at a point that passes.  An equation that reads no coordinate
  of the last ``k`` basis vectors has one residual on each block of ``(2
  height + 1)**k`` points that differ only in those digits, so when it
  rejects a point the count jumps to the end of the block; the points ruled
  out unevaluated still count as checked, and the order, the first hit and
  the count are those of the point-by-point scan.  When the S1 space is a
  single point (no free parameter) and that point fails axiom (2), the
  verdict is negative: a rational linear system with a unique solution has
  that same unique solution over every extension field.

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
from .liealg import LieAlgebra, add_bilinear, canonical_cells
from .structures import (
    PAProduct,
    _product_entries,
    _units,
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
    """Affine solution set of the linear axioms in derivation coordinates.

    ``derivations`` is the canonical basis of ``Der(n)``, each ``D_alpha``
    sparse as ``{k*d + j: D_alpha[k][j]}``.  A point ``x`` gives the left
    multiplications ``L(e_i) = sum_alpha x[i][alpha] D_alpha``, with
    ``x[i][alpha]`` at column ``i*len(derivations) + alpha``.
    ``particular`` and each vector of the homogeneous ``basis`` are sparse
    ``{column: value}`` vectors, as :func:`~postlie.linalg.solve_affine`
    returns them.  ``particular`` is ``None`` exactly when the system is
    inconsistent; the linearly independent ``basis`` spans the difference
    set of any two solutions.
    """

    dim: int
    derivations: tuple
    particular: Optional[dict]
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
        x = dict(self.particular)
        for c, vec in zip(map(linalg.frac, coefficients), self.basis):
            if c:
                for col, y in vec.items():
                    x[col] = x.get(col, linalg.ZERO) + c * y
        entries = _product_entries(self.dim, self.derivations, x)
        return PAProduct(self.dim, canonical_cells(self.dim, entries))

    def contains(self, product: PAProduct) -> bool:
        """Exact membership: each ``L(e_i)`` is a derivation, and their
        coordinates' offset from ``particular`` adds no rank to the basis."""
        if self.is_empty or product.dim != self.dim:
            return False
        d, nder = self.dim, len(self.derivations)
        left = ({k * d + j: v for j, cell in enumerate(row) for k, v in cell} for row in product.cells)
        coords = linalg.coordinates(self.derivations, left, d * d)
        if None in coords:
            return False
        offset = {i * nder + alpha: c for i, x in enumerate(coords) for alpha, c in x.items()}
        for col, y in self.particular.items():
            offset[col] = offset.get(col, linalg.ZERO) - y
        return len(linalg.eliminate([*self.basis, offset])) == len(self.basis)


def pa_linear_space(g: LieAlgebra, n: LieAlgebra) -> SolutionSpace:
    """Exact solution space of the linear axioms (1) and (3) on ``(g, n)``.

    Axiom (3) says each left multiplication ``L(e_i)`` is a derivation of
    ``n``, so the solutions of (3) alone are exactly the tuples of ``d``
    derivations.  The space is therefore assembled in the coordinates of a
    derivation basis — one copy per left slot — and axiom (1) is solved in
    those coordinates, as sparse rows over the nonzeros of the derivations.
    The returned object is the same affine set the raw ``d**3`` system
    defines, just computed through a faithful reparametrization, and no
    product coefficient is built.
    """
    if g.dim != n.dim:
        raise ValueError("g and n must share one dimension")
    d = g.dim
    ders = n._derivations
    nder = len(ders)
    cols = d * nder
    at = defaultdict(list)  # (k, j) -> the nonzero (alpha, D_alpha[k][j])
    for alpha, der in enumerate(ders):
        for flat, v in der.items():
            at[divmod(flat, d)].append((alpha, v))

    plus, minus = _units(d)

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

    particular, basis = linalg.solve_affine(rows(), cols) or (None, ())
    return SolutionSpace(dim=d, derivations=ders, particular=particular, basis=basis)


# ----------------------------------------------------------------------
# the staged search
# ----------------------------------------------------------------------


def _homomorphism_equations(g: LieAlgebra, n: LieAlgebra, scale: int):
    """Axiom (2) as the homomorphism ``L: g -> Der(n)``: for ``i < j`` and
    each basis derivation ``gamma``, generated lazily in that order,
    ``sum_k g[i][j][k] x[k][gamma] = sum_{a<b} C (x[i][a] x[j][b] - x[i][b]
    x[j][a])``, ``C`` the coordinate on ``D_gamma`` of ``[D_a, D_b]``.  Times
    ``scale**2`` and the lcm ``m`` of the denominators of ``g[i][j]`` and of
    those ``C``, it is the integer terms ``(k, m scale g)`` of its left side
    and ``(ia, jb, ib, ja, m C)`` of its right, by index in ``X = scale * x``.
    """
    nder = len(n._derivations)
    for i, j in itertools.combinations(range(g.dim), 2):
        cell, si, sj = g.cells[i][j], i * nder, j * nder
        for gamma, constants in enumerate(n._derivation_constants):
            m = math.lcm(*(c.denominator for _, c in cell), *(c.denominator for _, c in constants))
            linear = [(k * nder + gamma, c.numerator * (m // c.denominator) * scale) for k, c in cell]
            yield linear, [
                (si + a, sj + b, si + b, sj + a, c.numerator * (m // c.denominator)) for (a, b), c in constants
            ]


def _axiom2_holds(X: list, equations: list, pending) -> bool:
    """Exact check of axiom (2) at the integer point ``X`` of
    :func:`_grid_step`, by the equations of :func:`_homomorphism_equations`:
    ``equations`` holds those drawn so far from ``pending``.  The check stops
    at the first equation that fails and moves it to the front, where the
    next point meets it first."""
    for index, equation in enumerate(itertools.chain(equations, pending)):
        if index == len(equations):
            equations.append(equation)
        linear, quadratic = equation
        residual = 0
        for ia, jb, ib, ja, c in quadratic:
            residual += c * (X[ia] * X[jb] - X[ib] * X[ja])
        for k, c in linear:
            residual -= c * X[k]
        if residual:
            equations[0], equations[index] = equation, equations[0]
            return False
    return True


def _unseen_tail(equation, supports: Sequence) -> int:
    """How many trailing free parameters an equation of
    :func:`_homomorphism_equations` cannot see: the number of basis vectors,
    counted back from the last, whose column ``supports`` hold no index of
    ``X`` that the equation reads."""
    linear, quadratic = equation
    read = {k for k, _ in linear}
    read.update(index for term in quadratic for index in term[:4])
    count = 0
    for support in reversed(supports):
        if not read.isdisjoint(support):
            break
        count += 1
    return count


def _coordinate_scale(space: SolutionSpace) -> int:
    """The lcm of the denominators of ``particular`` and ``basis``."""
    vectors = (space.particular, *space.basis)
    return math.lcm(*(y.denominator for vec in vectors for y in vec.values()))


def _grid_start(space: SolutionSpace, scale: int, height: int):
    """The basis vectors scaled to integers, and the digits (all ``-height``)
    and ``X = scale * x`` of point 0, ``scale`` a multiple of
    :func:`_coordinate_scale`."""
    particular, *basis = (
        [(col, int(y * scale)) for col, y in vec.items()] for vec in (space.particular, *space.basis)
    )
    X = [0] * (space.dim * len(space.derivations))
    for step, vec in zip((1, *[-height] * len(basis)), (particular, *basis)):
        for col, y in vec:
            X[col] += step * y
    return basis, [-height] * len(basis), X


def _grid_step(basis: list, digits: list, X: list, height: int, now: int, number: int) -> None:
    """Move ``digits`` and ``X`` in place from point ``now`` to the later
    point ``number``, changing only the trailing digits where the numerals
    of the two differ: the step stops at the first equal quotient."""
    radix = 2 * height + 1
    position = len(digits) - 1
    while now != number:
        now, old = divmod(now, radix)
        number, new = divmod(number, radix)
        if new != old:
            digits[position] += new - old
            for col, y in basis[position]:
                X[col] += (new - old) * y
        position -= 1


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
    bounds the number of S3 grid points, counting the points ruled out by
    block unevaluated as checked; ``grid_height`` is the half-width of the
    integer grid on the free parameters; both must be non-negative ``int``
    values, not ``bool`` (``ValueError`` otherwise).  A bracket that fails the Jacobi
    identity raises ``ValueError`` naming the first failing basis triple.
    """
    if g.dim != n.dim:
        raise ValueError("g and n must share one dimension")
    for name, bound in (("budget", budget), ("grid_height", grid_height)):
        if isinstance(bound, bool) or not isinstance(bound, int):
            raise ValueError(f"{name} must be an int, got {bound!r}")
        if bound < 0:
            raise ValueError(f"{name} must be non-negative, got {bound}")
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
    free, height = len(space.basis), grid_height
    radix = 2 * height + 1
    grid_size = radix**free
    limit = min(budget, grid_size)
    scale = _coordinate_scale(space)
    equations, pending = [], _homomorphism_equations(g, n, scale)
    supports = [vec.keys() for vec in space.basis]
    blocks = {}  # id(equation) -> radix ** _unseen_tail(equation, supports)
    basis, digits, X = _grid_start(space, scale, height)
    now = 0  # the point that digits and X hold
    while points_checked < limit:
        _grid_step(basis, digits, X, height, now, points_checked)
        now = points_checked
        points_checked += 1
        if not _axiom2_holds(X, equations, pending):
            # the rejecting equation is now first; it fails on the rest of
            # the block of points that differ only in digits it cannot see
            rejecting = equations[0]
            block = blocks.get(id(rejecting))
            if block is None:
                block = blocks[id(rejecting)] = radix ** _unseen_tail(rejecting, supports)
            points_checked = min(limit, -(-points_checked // block) * block)
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
