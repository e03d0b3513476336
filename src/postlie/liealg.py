"""Lie algebras over the rationals as exact structure-constant tensors.

A :class:`LieAlgebra` of dimension ``n`` stores the canonical cells of its
antisymmetric tensor ``c[i][j][k]``, ``[e_i, e_j] = sum_k c[i][j][k] e_k``
(0-based indices): ``cells[i][j]`` is the tuple of the nonzero ``(k, c)``
pairs of ``[e_i, e_j]`` in ascending ``k``.  :func:`canonical_cells` is the
one builder of that form, so algebras are hashable and compared by data
equality; the dense ``brackets`` is a view for tests and output.  All
invariants are computed exactly, and each is computed once per bracket data:
every instance with the same ``(dim, cells)``, whatever its name, reads one
shared store (:class:`_shared_property`), held weakly so that it lives only
as long as one such instance does.

One bilinear kernel over cells, :func:`add_bilinear`, evaluates every
bracket here (of vectors, and of the sparse RREF rows ``Subspace.rows`` in
bracket spans, ad-closures, subalgebra and ideal tests and restrictions),
the Jacobi residuals and the derivation test, and products, axiom residuals
and operator products in :mod:`postlie.structures`; a matrix acts as the
one-row table of its sparse columns.  Membership, containment and
coordinates reduce sparse rows against a subspace's RREF tails
(:func:`linalg.reduce_row`).  The Killing form, center, radical and
derivations are built from the cells.

Structural invariants provided here:

* Jacobi residuals (exact witness of where the identity fails, if anywhere),
* derived series / lower central series dimension profiles,
* center, derived subalgebra, solvable radical (Killing-orthogonal
  complement of the derived subalgebra, valid in characteristic zero),
* Killing form, its rank and determinant,
* the derivation algebra as a canonical basis (sparse, or as matrices),
* class predicates: abelian, nilpotent, solvable, perfect, semisimple,
  reductive, complete (trivial center and only inner derivations), simple.

The simplicity test decomposes the algebra by taking ad-closures of basis
vectors; this detects the split, basis-aligned decompositions used throughout
the bundled catalog, but a non-split form whose simple ideals are not
spanned by basis vectors could fool it (documented caveat; every catalog
entry is basis-aligned).
"""

from __future__ import annotations

import itertools
import weakref
from collections import defaultdict
from dataclasses import dataclass, field
from functools import cached_property
from typing import Mapping, Sequence

from . import linalg
from .linalg import Matrix, Scalar, Vector, ZERO, ONE, frac
from .subspace import Subspace

BracketTable = Mapping[tuple[int, int], Mapping[int, object]]


def canonical_cells(dim: int, entries: Mapping[tuple[int, int, int], Scalar]) -> tuple:
    """``cells[i][j]``: the nonzero ``(k, c)`` pairs, ascending in ``k``, of
    the ``dim``-dimensional tensor with the ``{(i, j, k): c}`` entries (a
    missing entry is zero).  The one stored form of brackets and products."""
    cells = [[[] for _ in range(dim)] for _ in range(dim)]
    for (i, j, k), c in sorted(entries.items()):
        if c:
            cells[i][j].append((k, frac(c)))
    return tuple(tuple(map(tuple, plane)) for plane in cells)


def dense_tensor(dim: int, cells) -> tuple:
    """The dense ``t[i][j][k]`` of canonical cells, a view for tests and output."""
    return tuple(tuple(linalg.to_dense(dict(cell), dim) for cell in plane) for plane in cells)


def nonzero(v: Sequence[Scalar]) -> tuple:
    """The nonzero ``(index, coefficient)`` pairs of a coordinate vector."""
    return tuple((k, c) for k, c in enumerate(v) if c)


def unit(i: int, coeff: Scalar = ONE) -> tuple:
    """``coeff * e_i`` as ``(index, coefficient)`` pairs."""
    return ((i, coeff),)


def add_bilinear(out, cells, xs, ys):
    """``out += sum_{i,j} x_i y_j t[i][j]`` for the tensor ``t`` with the
    given cells, ``x`` and ``y`` given as ``(index, coefficient)``
    pairs; ``out`` is a dense list or a mapping that reads a missing index
    as zero, and is returned.  Brackets, products, axiom residuals and
    operator products all evaluate through this one loop."""
    for i, a in xs:
        row = cells[i]
        for j, b in ys:
            s = a * b
            for k, c in row[j]:
                out[k] += s * c
    return out


_STORES: weakref.WeakValueDictionary = weakref.WeakValueDictionary()


class _Store(dict):
    """The invariants of one ``(dim, cells)``, by attribute name (a ``dict``
    subclass, since a plain ``dict`` cannot be referenced weakly)."""


class _shared_property(cached_property):
    """A ``cached_property`` whose value is computed once per bracket data.

    Every instance with the same ``(dim, cells)``, the data ``LieAlgebra``
    equality compares, reads one :class:`_Store` (``LieAlgebra._store``);
    each instance holds its store strongly, so the store goes when the last
    such instance does.  A read is also written to the instance's
    ``__dict__``, so a repeat read is a plain attribute hit.
    """

    def __get__(self, instance, owner=None):
        if instance is None:
            return self
        name, store = self.attrname, instance._store
        if name not in store:
            store[name] = self.func(instance)
        value = instance.__dict__[name] = store[name]
        return value


@dataclass(frozen=True)
class LieAlgebra:
    """An exact-rational Lie algebra given by structure constants."""

    dim: int
    cells: tuple  # cells[i][j]: the nonzero (k, c) of [e_i, e_j], ascending k
    name: str = field(default="", compare=False)

    @cached_property
    def _store(self) -> _Store:
        """The shared invariants of this instance's ``(dim, cells)``."""
        return _STORES.setdefault((self.dim, self.cells), _Store())

    @staticmethod
    def from_table(dim: int, table: BracketTable, name: str = "") -> "LieAlgebra":
        """Build from a sparse table {(i, j): {k: coeff}} with i < j, 0-based.

        Antisymmetry is enforced by construction; the Jacobi identity is not
        (use :meth:`jacobi_residuals` / :meth:`is_lie` to check it).
        """
        entries = defaultdict(int)
        for (i, j), component in table.items():
            if not (0 <= i < dim and 0 <= j < dim):
                raise ValueError(f"bracket index ({i},{j}) out of range for dim {dim}")
            if i == j:
                raise ValueError(f"bracket [e{i},e{i}] must be zero")
            for k, coeff in component.items():
                if not 0 <= k < dim:
                    raise ValueError(f"component index {k} out of range for dim {dim}")
                value = frac(coeff)
                entries[i, j, k] += value
                entries[j, i, k] -= value
        return LieAlgebra(dim, canonical_cells(dim, entries), name)

    @staticmethod
    def abelian(dim: int, name: str = "") -> "LieAlgebra":
        return LieAlgebra.from_table(dim, {}, name or f"abelian_{dim}")

    # ------------------------------------------------------------------
    # basic bracket operations
    # ------------------------------------------------------------------

    @_shared_property
    def brackets(self) -> tuple:
        """``brackets[i][j]``: the dense component vector of ``[e_i, e_j]``."""
        return dense_tensor(self.dim, self.cells)

    def bracket(self, x: Sequence[Scalar], y: Sequence[Scalar]) -> Vector:
        return tuple(map(frac, add_bilinear([ZERO] * self.dim, self.cells, nonzero(x), nonzero(y))))

    def _bracket_row(self, xs, ys) -> dict[int, Scalar]:
        """``[x, y]`` for ``x``, ``y`` as ``(index, coefficient)`` pairs, as
        the sparse row of its nonzero entries."""
        out = add_bilinear(defaultdict(int), self.cells, xs, ys)
        return {k: frac(c) for k, c in out.items() if c}

    def basis_vector(self, i: int) -> Vector:
        return tuple(ONE if j == i else ZERO for j in range(self.dim))

    def ad(self, x: Sequence[Scalar]) -> Matrix:
        """Matrix of ad(x) = [x, -] acting on column vectors."""
        return linalg.transpose([self.bracket(x, self.basis_vector(j)) for j in range(self.dim)])

    # ------------------------------------------------------------------
    # Jacobi identity
    # ------------------------------------------------------------------

    @_shared_property
    def _jacobi_residuals(self) -> tuple[tuple[tuple[int, int, int], Vector], ...]:
        cells = self.cells
        bad = []
        n = self.dim
        units = [unit(i) for i in range(n)]
        for i in range(n):
            for j in range(i + 1, n):
                for k in range(j + 1, n):
                    total = [ZERO] * n
                    add_bilinear(total, cells, cells[i][j], units[k])
                    add_bilinear(total, cells, cells[j][k], units[i])
                    add_bilinear(total, cells, cells[k][i], units[j])
                    if any(total):
                        bad.append(((i, j, k), tuple(total)))
        return tuple(bad)

    def jacobi_residuals(self) -> tuple[tuple[tuple[int, int, int], Vector], ...]:
        """All basis triples (i<j<k) where the Jacobi identity fails."""
        return self._jacobi_residuals

    def is_lie(self) -> bool:
        return not self._jacobi_residuals

    def require_lie(self, role: str) -> None:
        """Raise ``ValueError`` naming the first (1-based) basis triple on
        which the Jacobi identity fails, if there is one."""
        if self._jacobi_residuals:
            (i, j, k), _ = self._jacobi_residuals[0]
            raise ValueError(
                f"{role} is not a Lie bracket: the Jacobi identity fails on "
                f"basis triple ({i + 1}, {j + 1}, {k + 1})"
            )

    # ------------------------------------------------------------------
    # subspace machinery
    # ------------------------------------------------------------------

    def full_space(self) -> Subspace:
        return Subspace.full(self.dim)

    def _brackets(self, a: Subspace, b: Subspace):
        """The sparse rows ``[u, v]`` over the RREF rows u of a and v of b."""
        return (self._bracket_row(u, v) for u in a.rows for v in b.rows)

    def bracket_span(self, a: Subspace, b: Subspace) -> Subspace:
        """Span of [u, v] over basis vectors u of a and v of b."""
        return Subspace.span(self.dim, self._brackets(a, b))

    @_shared_property
    def _derived(self) -> Subspace:
        full = self.full_space()
        return self.bracket_span(full, full)

    def derived_subalgebra(self) -> Subspace:
        return self._derived

    def _series(self, step) -> tuple[int, ...]:
        """Dimensions of ``g``, the cached ``[g, g]``, ``step([g, g])``, ...
        until they stop dropping (at zero or at a fixed point)."""
        dims = [self.dim]
        current, nxt = self.full_space(), self._derived
        while nxt.dim != current.dim:
            dims.append(nxt.dim)
            if not nxt.dim:
                break
            current, nxt = nxt, step(nxt)
        return tuple(dims)

    @_shared_property
    def _derived_series(self) -> tuple[int, ...]:
        return self._series(lambda current: self.bracket_span(current, current))

    def derived_series(self) -> tuple[int, ...]:
        """Dimensions g ⊇ [g,g] ⊇ ... until the series stabilizes."""
        return self._derived_series

    @_shared_property
    def _lower_central_series(self) -> tuple[int, ...]:
        full = self.full_space()
        return self._series(lambda current: self.bracket_span(full, current))

    def lower_central_series(self) -> tuple[int, ...]:
        return self._lower_central_series

    @_shared_property
    def _center(self) -> Subspace:
        # x central iff sum_i x_i c[i][j][k] = 0 for all j, k.
        rows: dict = {}
        for i, plane in enumerate(self.cells):
            for j, cell in enumerate(plane):
                for k, c in cell:
                    linalg.add_entry(rows, (j, k), i, c)
        return Subspace.kernel(self.dim, rows.values())

    def center(self) -> Subspace:
        return self._center

    @_shared_property
    def _killing(self) -> Matrix:
        # K[i][j] = tr(ad e_i ad e_j) = sum_{k,m} c[i][m][k] c[j][k][m]
        n = self.dim
        at = defaultdict(list)  # (k, m) -> the nonzero (j, c[j][k][m])
        for j, plane in enumerate(self.cells):
            for k, cell in enumerate(plane):
                for m, c in cell:
                    at[k, m].append((j, c))
        rows = [[ZERO] * n for _ in range(n)]
        for i, plane in enumerate(self.cells):
            for m, cell in enumerate(plane):
                for k, a in cell:
                    for j, b in at.get((k, m), ()):
                        rows[i][j] += a * b
        return tuple(tuple(map(frac, row)) for row in rows)

    def killing_form(self) -> Matrix:
        return self._killing

    def killing_rank(self) -> int:
        return linalg.rank(self._killing)

    def killing_det(self) -> Scalar:
        return linalg.det(self._killing)

    @_shared_property
    def _radical(self) -> Subspace:
        # (K d) . x = 0 for each basis vector d of [g, g]; K is symmetric
        rows: dict = {}
        for r, d in enumerate(self._derived.rows):
            for m, x in d:
                for c, k in nonzero(self._killing[m]):
                    linalg.add_entry(rows, r, c, x * k)
        return Subspace.kernel(self.dim, rows.values())

    def solvable_radical(self) -> Subspace:
        """Killing-orthogonal complement of [g, g] (characteristic zero)."""
        return self._radical

    # ------------------------------------------------------------------
    # class predicates
    # ------------------------------------------------------------------

    def is_abelian(self) -> bool:
        return not any(any(plane) for plane in self.cells)

    def is_perfect(self) -> bool:
        return self.derived_subalgebra().dim == self.dim

    def is_solvable(self) -> bool:
        return self.derived_series()[-1] == 0

    def is_nilpotent(self) -> bool:
        return self.lower_central_series()[-1] == 0

    def nilpotency_class(self) -> int | None:
        """Length of the lower central series if nilpotent, else None."""
        series = self.lower_central_series()
        if series[-1] != 0:
            return None
        return len(series) - 1

    @_shared_property
    def _semisimple(self) -> bool:
        return self.dim == 0 or self.killing_det() != 0

    def is_semisimple(self) -> bool:
        return self._semisimple

    @_shared_property
    def _reductive(self) -> bool:
        center, derived = self.center(), self.derived_subalgebra()
        if center.dim + derived.dim != self.dim:
            return False
        if center.intersection(derived).dim != 0:
            return False
        return derived.dim == 0 or self.restrict(derived).is_semisimple()

    def is_reductive(self) -> bool:
        """True iff g = center ⊕ [g,g] with semisimple derived subalgebra."""
        return self._reductive

    @_shared_property
    def _derivations(self) -> tuple[dict[int, Scalar], ...]:
        """Canonical basis of the derivation algebra, as sparse vectors
        ``{r * dim + c: D[r][c]}`` of the nonzero matrix entries.

        A matrix D (acting on columns) is a derivation iff for all i < j, k:
        sum_m c[i][j][m] D[k][m] - sum_a c[a][j][k] D[a][i]
                                 - sum_b c[i][b][k] D[b][j] = 0,
        with unknowns D flattened row-major.  Each nonzero ``c[i][j][k]``
        contributes its terms to the sparse rows of the equations it meets.
        """
        n = self.dim
        rows: dict = {}
        for i, plane in enumerate(self.cells):
            for j, cell in enumerate(plane):
                for k, c in cell:
                    if i < j:  # c[i][j][m] D[r][m], m = k, in row (i, j, r)
                        for r in range(n):
                            linalg.add_entry(rows, (i, j, r), r * n + k, c)
                    for r in range(j):  # c[a][j][k] D[a][r], a = i, in row (r, j, k)
                        linalg.add_entry(rows, (r, j, k), i * n + r, -c)
                    for r in range(i + 1, n):  # c[i][b][k] D[b][r], b = j, in row (i, r, k)
                        linalg.add_entry(rows, (i, r, k), j * n + r, -c)
        return linalg.solve_affine(rows.values(), n * n)[1]

    @_shared_property
    def _derivation_constants(self) -> tuple[tuple, ...]:
        """Structure constants of ``Der(n)`` in the basis ``_derivations``:
        entry ``gamma`` holds the nonzero ``((alpha, beta), C)``, ``alpha <
        beta`` ascending, of ``[D_alpha, D_beta] = sum_gamma C D_gamma``.
        Each commutator is a :func:`linalg.sparse_commutator`, read at the free
        column of each ``D_gamma`` (its largest key), where ``solve_affine``
        puts 1 for ``D_gamma`` and 0 for every other basis vector.
        """
        n, ders = self.dim, self._derivations
        free = {max(der): gamma for gamma, der in enumerate(ders)}
        constants = [[] for _ in ders]
        for alpha, beta in itertools.combinations(range(len(ders)), 2):
            for col, c in linalg.sparse_commutator(ders[alpha], ders[beta], n).items():
                if c and col in free:
                    constants[free[col]].append(((alpha, beta), frac(c)))
        return tuple(map(tuple, constants))

    def derivations(self) -> tuple[Matrix, ...]:
        n = self.dim
        flats = [linalg.to_dense(v, n * n) for v in self._derivations]
        return tuple(tuple(flat[r * n : r * n + n] for r in range(n)) for flat in flats)

    def is_derivation(self, matrix: Matrix) -> bool:
        """Whether ``D[e_i, e_j] = [D e_i, e_j] + [e_i, D e_j]`` for all ``i < j``."""
        n = self.dim
        cells = self.cells
        cols = [nonzero(col) for col in linalg.transpose(matrix)]
        for i in range(n):
            for j in range(i + 1, n):
                rhs = add_bilinear([ZERO] * n, cells, cols[i], unit(j))
                add_bilinear(rhs, cells, unit(i), cols[j])
                if add_bilinear([ZERO] * n, (cols,), unit(0), cells[i][j]) != rhs:
                    return False
        return True

    def is_complete(self) -> bool:
        """Trivial center and every derivation inner."""
        return self.center().dim == 0 and len(self._derivations) == self.dim

    def ad_closure(self, seed: Subspace) -> Subspace:
        """Smallest ideal containing the given subspace.  Each step brackets
        the basis only with the rows the step before added: those of the
        new span whose pivot is new, which complete the old span.  It stops
        when no bracket leaves a remainder against the span so far."""
        current, added = seed, seed.rows
        basis = self.full_space().rows
        while True:
            brackets = (self._bracket_row(u, v) for u in basis for v in added)
            remainders = [r for r in brackets if linalg.reduce_row(r, current._tails)]
            if not remainders:
                return current
            grown = Subspace.span(self.dim, current._rows() + remainders)
            added = [row for row in grown.rows if row[0][0] not in current._tails]
            current = grown

    @_shared_property
    def _basis_closures(self) -> tuple[Subspace, ...]:
        """The ad-closure of each basis vector, in basis order."""
        return tuple(
            self.ad_closure(Subspace.spanned_by_coordinates(self.dim, [i]))
            for i in range(self.dim)
        )

    def minimal_coordinate_ideals(self) -> tuple[Subspace, ...]:
        """Minimal elements among ad-closures of the basis vectors."""
        closures = []
        for closure in self._basis_closures:
            if closure not in closures:
                closures.append(closure)
        return tuple(
            c
            for c in closures
            if not any(o.dim < c.dim and c.contains_subspace(o) for o in closures)
        )

    def is_simple(self) -> bool:
        """Semisimple with no proper ideal visible from any basis vector.

        Sound for split algebras whose simple ideals are spanned by basis
        vectors (true of the whole catalog); see module docstring.
        """
        if self.dim == 0 or not self.is_semisimple():
            return False
        return all(c.dim == self.dim for c in self._basis_closures)

    # ------------------------------------------------------------------
    # subalgebras, quotients, sums
    # ------------------------------------------------------------------

    def is_subalgebra(self, space: Subspace) -> bool:
        return space._holds(self._brackets(space, space))

    def is_ideal(self, space: Subspace) -> bool:
        return space._holds(self._brackets(self.full_space(), space))

    def restrict(self, space: Subspace) -> "LieAlgebra":
        """The bracket restricted to a subalgebra, in the subspace basis."""
        rows = space.rows
        table: dict[tuple[int, int], dict[int, Scalar]] = {}
        for a, u in enumerate(rows):
            for b in range(a + 1, len(rows)):
                coords = space._coordinates(self._bracket_row(u, rows[b]))
                if coords is None:
                    raise ValueError("subspace is not closed under the bracket")
                if coords:
                    table[(a, b)] = coords
        return LieAlgebra.from_table(space.dim, table)

    def quotient(self, ideal: Subspace) -> "LieAlgebra":
        """Quotient by an ideal, in the basis of non-pivot coordinates."""
        if not self.is_ideal(ideal):
            raise ValueError("subspace is not an ideal")
        section = [k for k in range(self.dim) if k not in ideal._tails]
        position = {k: pos for pos, k in enumerate(section)}
        table: dict[tuple[int, int], dict[int, Scalar]] = {}
        for a, i in enumerate(section):
            for b in range(a + 1, len(section)):
                w = linalg.reduce_row(dict(self.cells[i][section[b]]), ideal._tails)
                if w:
                    table[(a, b)] = {position[k]: x for k, x in w.items()}
        return LieAlgebra.from_table(len(section), table)

    def sparse_table(self) -> dict[tuple[int, int], dict[int, Scalar]]:
        """The i<j sparse form of the bracket tensor."""
        return {
            (i, j): dict(cell)
            for i, plane in enumerate(self.cells)
            for j, cell in enumerate(plane)
            if i < j and cell
        }

    @_shared_property
    def _fingerprint(self) -> Fingerprint:
        radical = self.solvable_radical()
        return Fingerprint(
            dim=self.dim,
            derived_dims=self.derived_series(),
            lower_central_dims=self.lower_central_series(),
            center_dim=self.center().dim,
            killing_rank=self.killing_rank(),
            radical_dim=radical.dim,
            radical_class=self.restrict(radical).nilpotency_class(),
            perfect=self.is_perfect(),
            solvable=self.is_solvable(),
            nilpotent=self.is_nilpotent(),
            semisimple=self.is_semisimple(),
        )


def direct_sum(*algebras: LieAlgebra, name: str = "") -> LieAlgebra:
    total = sum(a.dim for a in algebras)
    table: dict[tuple[int, int], dict[int, Scalar]] = {}
    offset = 0
    for alg in algebras:
        for (i, j), entry in alg.sparse_table().items():
            table[(i + offset, j + offset)] = {
                k + offset: coeff for k, coeff in entry.items()
            }
        offset += alg.dim
    return LieAlgebra.from_table(total, table, name)


def semidirect_product(
    sub: LieAlgebra,
    module_dim: int,
    action: Sequence[Matrix],
    module_table: BracketTable | None = None,
    name: str = "",
) -> LieAlgebra:
    """Build sub ⋉ module from an action of sub by derivations of the module.

    ``action[i]`` is the matrix by which the i-th basis vector of ``sub``
    acts on the module.  The result is checked by its Jacobi identity: on
    (sub, sub, module) triples it says the action is a homomorphism, on
    (sub, module, module) triples that it acts by derivations, and on module
    triples that the module bracket is Lie.  ``ValueError`` names the first
    failing basis triple of the product (1-based, sub first).
    """
    if len(action) != sub.dim:
        raise ValueError("need one action matrix per subalgebra basis vector")
    for mat_i in action:
        if len(mat_i) != module_dim or any(len(row) != module_dim for row in mat_i):
            raise ValueError("action matrix has wrong shape")
    dim = sub.dim + module_dim
    table: dict[tuple[int, int], dict[int, Scalar]] = sub.sparse_table()
    for i in range(sub.dim):
        for a in range(module_dim):
            entry = {
                sub.dim + k: action[i][k][a]
                for k in range(module_dim)
                if action[i][k][a] != 0
            }
            if entry:
                table[(i, sub.dim + a)] = entry
    for (a, b), entry in (module_table or {}).items():
        if not all(0 <= x < module_dim for x in (a, b, *entry)):
            raise ValueError(f"module bracket index out of range for dim {module_dim}")
        table[(sub.dim + a, sub.dim + b)] = {
            sub.dim + k: coeff for k, coeff in entry.items()
        }
    alg = LieAlgebra.from_table(dim, table, name)
    alg.require_lie("the semidirect product")
    return alg


@dataclass(frozen=True)
class Fingerprint:
    """Cheap isomorphism invariants used to compare algebras structurally.

    Equality of fingerprints does NOT prove isomorphism (the catalog
    documents known collision sets, e.g. four dimension-9 entries whose
    radicals decompose differently); inequality does prove non-isomorphism.
    """

    dim: int
    derived_dims: tuple[int, ...]
    lower_central_dims: tuple[int, ...]
    center_dim: int
    killing_rank: int
    radical_dim: int
    radical_class: int | None
    perfect: bool
    solvable: bool
    nilpotent: bool
    semisimple: bool

    def as_dict(self) -> dict:
        return {
            "dim": self.dim,
            "derived_dims": list(self.derived_dims),
            "lower_central_dims": list(self.lower_central_dims),
            "center_dim": self.center_dim,
            "killing_rank": self.killing_rank,
            "radical_dim": self.radical_dim,
            "radical_class": self.radical_class,
            "perfect": self.perfect,
            "solvable": self.solvable,
            "nilpotent": self.nilpotent,
            "semisimple": self.semisimple,
        }


def fingerprint(alg: LieAlgebra) -> Fingerprint:
    """The algebra's invariants, computed on the first call and cached."""
    return alg._fingerprint
