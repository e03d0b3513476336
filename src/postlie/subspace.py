"""Subspaces of an ambient rational vector space, in canonical form.

A :class:`Subspace` stores the unique reduced-row-echelon basis of its row
space as sparse rows, so two subspaces are equal iff their data are equal.
Each span, sum, kernel and intersection is one :func:`linalg.eliminate`
call on sparse rows, and membership, containment and coordinates reduce
sparse rows against the stored ones with its step :func:`linalg.reduce_row`.
The dense ``basis`` is a view for tests and output.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Mapping, Sequence

from . import linalg
from .linalg import Matrix, Scalar, Vector, ONE, ZERO


@dataclass(frozen=True)
class Subspace:
    """A linear subspace of Q^ambient_dim with a canonical RREF basis."""

    ambient_dim: int
    # RREF rows, no zero rows: each row's nonzero ``(column, value)`` pairs
    # in ascending column order, so its pivot ``(p, 1)`` comes first
    rows: tuple[tuple[tuple[int, Scalar], ...], ...]

    @staticmethod
    def span(ambient_dim: int, rows: Iterable[Mapping[int, Scalar]]) -> "Subspace":
        """The span of sparse ``{column: value}`` rows."""
        return _from_tails(ambient_dim, linalg.eliminate(rows))

    @staticmethod
    def from_vectors(ambient_dim: int, vectors: Iterable[Sequence]) -> "Subspace":
        rows = linalg.mat(list(vectors))
        if rows and len(rows[0]) != ambient_dim:
            raise ValueError("vector length does not match ambient dimension")
        return Subspace.span(ambient_dim, (dict(enumerate(row)) for row in rows))

    @staticmethod
    def kernel(ambient_dim: int, rows: Iterable[Mapping[int, Scalar]]) -> "Subspace":
        """The solutions of homogeneous sparse rows.  Solved with the columns
        reversed, each free column's solution has its 1 there, 0 at the other
        free columns and its other entries to its right: the RREF basis."""
        last = ambient_dim - 1
        reverse = ({last - c: x for c, x in row.items()} for row in rows)
        _, basis = linalg.solve_affine(reverse, ambient_dim)
        flipped = (tuple(sorted((last - c, x) for c, x in v.items())) for v in reversed(basis))
        return Subspace(ambient_dim, tuple(flipped))

    @staticmethod
    def zero(ambient_dim: int) -> "Subspace":
        return Subspace(ambient_dim, ())

    @staticmethod
    def full(ambient_dim: int) -> "Subspace":
        return Subspace(ambient_dim, tuple(((i, ONE),) for i in range(ambient_dim)))

    @staticmethod
    def spanned_by_coordinates(ambient_dim: int, indices: Iterable[int]) -> "Subspace":
        """Span of the given standard basis vectors (0-based indices)."""
        return Subspace.span(ambient_dim, ({i: ONE} for i in coordinate_set(ambient_dim, indices)))

    @property
    def dim(self) -> int:
        return len(self.rows)

    @cached_property
    def basis(self) -> Matrix:
        """The RREF rows as dense vectors."""
        return tuple(linalg.to_dense(dict(row), self.ambient_dim) for row in self.rows)

    @cached_property
    def _tails(self) -> dict[int, dict[int, Scalar]]:
        """The rows as :func:`linalg.eliminate` gives them: pivot -> tail."""
        return {row[0][0]: dict(row[1:]) for row in self.rows}

    @cached_property
    def pivots(self) -> tuple[int, ...]:
        """Pivot column of each basis row: the column of its leading 1."""
        return tuple(self._tails)

    def _rows(self) -> list[dict[int, Scalar]]:
        return [dict(row) for row in self.rows]

    def _holds(self, rows: Iterable[dict[int, Scalar]]) -> bool:
        """Whether every sparse row (nonzero entries only; reduced in place)
        lies in the subspace; stops at the first that leaves a remainder."""
        return not any(linalg.reduce_row(row, self._tails) for row in rows)

    def _coordinates(self, row: dict[int, Scalar]) -> dict[int, Scalar] | None:
        """The nonzero ``{basis index: coefficient}`` of a sparse row (nonzero
        entries only; reduced in place) in the RREF rows, None if outside: a
        row's coefficient is the entry at its pivot, which is zero in every
        other row."""
        coords = {r: row[p] for r, p in enumerate(self.pivots) if p in row}
        return None if linalg.reduce_row(row, self._tails) else coords

    def _sparse(self, vector: Sequence[Scalar]) -> dict[int, Scalar]:
        """The nonzero entries of a dense vector of the ambient length."""
        if len(vector) != self.ambient_dim:
            raise ValueError("vector length does not match ambient dimension")
        return {c: x for c, x in enumerate(vector) if x}

    def contains(self, vector: Sequence[Scalar]) -> bool:
        return self._holds([self._sparse(vector)])

    def contains_subspace(self, other: "Subspace") -> bool:
        if self.ambient_dim != other.ambient_dim:
            raise ValueError("ambient dimension mismatch")
        return self._holds(other._rows())

    def sum(self, other: "Subspace") -> "Subspace":
        if self.ambient_dim != other.ambient_dim:
            raise ValueError("ambient dimension mismatch")
        return Subspace.span(self.ambient_dim, self._rows() + other._rows())

    def intersection(self, other: "Subspace") -> "Subspace":
        """Zassenhaus: row reduce ``[A|A; B|0]``.  The rows whose pivot lies in
        the right half are zero in the left half, and their right halves are
        the intersection's RREF basis."""
        if self.ambient_dim != other.ambient_dim:
            raise ValueError("ambient dimension mismatch")
        n = self.ambient_dim
        block = [dict(row + tuple((n + c, x) for c, x in row)) for row in self.rows]
        tails = linalg.eliminate(block + other._rows())
        meet = {p - n: {c - n: x for c, x in tails[p].items()} for p in tails if p >= n}
        return _from_tails(n, meet)

    def coordinate_support(self) -> tuple[int, ...]:
        """Indices of coordinates on which some basis vector is nonzero."""
        return tuple(sorted({c for row in self.rows for c, _ in row}))

    def complement_candidate(self) -> "Subspace":
        """A coordinate complement: span of non-pivot standard basis vectors."""
        free = set(range(self.ambient_dim)) - set(self.pivots)
        return Subspace.spanned_by_coordinates(self.ambient_dim, free)


def _from_tails(ambient_dim: int, tails: Mapping[int, Mapping[int, Scalar]]) -> Subspace:
    """The subspace whose RREF basis :func:`linalg.eliminate` returned."""
    rows = (((p, ONE), *sorted(tails[p].items())) for p in sorted(tails))
    return Subspace(ambient_dim, tuple(rows))


def coordinate_set(ambient_dim: int, indices: Iterable[int]) -> set[int]:
    """``indices`` as a set; ``ValueError`` names the first that is not a
    0-based coordinate index."""
    chosen = set(indices)
    bad = sorted(i for i in chosen if not 0 <= i < ambient_dim)
    if bad:
        raise ValueError(f"coordinate index {bad[0]} out of range for dimension {ambient_dim}")
    return chosen


def coordinates_in_basis(space: Subspace, vector: Sequence[Scalar]) -> Vector | None:
    """Coefficients of ``vector`` in ``space.basis`` rows, or None if outside."""
    coords = space._coordinates(space._sparse(vector))
    return None if coords is None else tuple(coords.get(r, ZERO) for r in range(space.dim))
