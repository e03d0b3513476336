"""Subspaces of an ambient rational vector space, in canonical form.

A :class:`Subspace` stores the unique reduced-row-echelon basis of its row
space, so two subspaces are equal iff their data are equal.  Each span,
sum, kernel and intersection is one :func:`linalg.eliminate` call on sparse
rows, and membership and coordinates use its step :func:`linalg.reduce_row`.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction
from typing import Iterable, Mapping, Sequence

from . import linalg
from .linalg import Matrix, Vector, ONE


@dataclass(frozen=True)
class Subspace:
    """A linear subspace of Q^ambient_dim with a canonical RREF basis."""

    ambient_dim: int
    basis: Matrix  # RREF rows, no zero rows

    @staticmethod
    def span(ambient_dim: int, rows: Iterable[Mapping[int, Fraction]]) -> "Subspace":
        """The span of sparse ``{column: value}`` rows."""
        return _from_tails(ambient_dim, linalg.eliminate(rows))

    @staticmethod
    def from_vectors(ambient_dim: int, vectors: Iterable[Sequence]) -> "Subspace":
        rows = linalg.mat(list(vectors))
        if rows and len(rows[0]) != ambient_dim:
            raise ValueError("vector length does not match ambient dimension")
        return Subspace.span(ambient_dim, (dict(enumerate(row)) for row in rows))

    @staticmethod
    def kernel(ambient_dim: int, rows: Iterable[Mapping[int, Fraction]]) -> "Subspace":
        """The solutions of homogeneous sparse rows.  Solved with the columns
        reversed, each free column's solution has its 1 there, 0 at the other
        free columns and its other entries to its right: the RREF basis."""
        last = ambient_dim - 1
        reverse = ({last - c: x for c, x in row.items()} for row in rows)
        _, basis = linalg.solve_affine(reverse, ambient_dim)
        flipped = ({last - c: x for c, x in v.items()} for v in reversed(basis))
        return Subspace(ambient_dim, tuple(linalg.to_dense(v, ambient_dim) for v in flipped))

    @staticmethod
    def zero(ambient_dim: int) -> "Subspace":
        return Subspace(ambient_dim, ())

    @staticmethod
    def full(ambient_dim: int) -> "Subspace":
        return Subspace(ambient_dim, linalg.identity(ambient_dim))

    @staticmethod
    def spanned_by_coordinates(ambient_dim: int, indices: Iterable[int]) -> "Subspace":
        """Span of the given standard basis vectors (0-based indices)."""
        return Subspace.span(ambient_dim, ({i: ONE} for i in coordinate_set(ambient_dim, indices)))

    @property
    def dim(self) -> int:
        return len(self.basis)

    @cached_property
    def _tails(self) -> dict[int, dict[int, Fraction]]:
        """The basis as :func:`linalg.eliminate` gives it: pivot -> tail."""
        rows = [[(c, x) for c, x in enumerate(row) if x] for row in self.basis]
        return {row[0][0]: dict(row[1:]) for row in rows}

    @cached_property
    def pivots(self) -> tuple[int, ...]:
        """Pivot column of each basis row: the column of its leading 1."""
        return tuple(self._tails)

    def _rows(self) -> list[dict[int, Fraction]]:
        return [{p: ONE, **tail} for p, tail in self._tails.items()]

    def _coordinates(self, row: dict[int, Fraction]) -> dict[int, Fraction] | None:
        """:meth:`reduce` of a sparse row (nonzero entries only; reduced in
        place): its nonzero ``{basis index: coefficient}``, None if outside."""
        coords = {r: row[p] for r, p in enumerate(self.pivots) if p in row}
        return None if linalg.reduce_row(row, self._tails) else coords

    def reduce(self, vector: Sequence[Fraction]) -> tuple[Vector, Vector]:
        """``(coefficients, residual)`` of ``vector`` against the basis.

        In RREF every pivot column is zero outside its own row, so the
        coefficient of a row is the vector's entry at that row's pivot, and
        :func:`linalg.reduce_row` leaves ``vector - sum(c_r * row_r)``.  The
        residual is zero exactly when the vector lies in the subspace.
        """
        if len(vector) != self.ambient_dim:
            raise ValueError("vector length does not match ambient dimension")
        residual = linalg.reduce_row({c: x for c, x in enumerate(vector) if x}, self._tails)
        return tuple(vector[p] for p in self.pivots), linalg.to_dense(residual, self.ambient_dim)

    def contains(self, vector: Sequence[Fraction]) -> bool:
        return not any(self.reduce(vector)[1])

    def contains_subspace(self, other: "Subspace") -> bool:
        return all(self.contains(v) for v in other.basis)

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
        block = [{**row, **{n + c: x for c, x in row.items()}} for row in self._rows()]
        tails = linalg.eliminate(block + other._rows())
        meet = {p - n: {c - n: x for c, x in tails[p].items()} for p in tails if p >= n}
        return _from_tails(n, meet)

    def coordinate_support(self) -> tuple[int, ...]:
        """Indices of coordinates on which some basis vector is nonzero."""
        return tuple(sorted({c for row in self._rows() for c in row}))

    def complement_candidate(self) -> "Subspace":
        """A coordinate complement: span of non-pivot standard basis vectors."""
        free = set(range(self.ambient_dim)) - set(self.pivots)
        return Subspace.spanned_by_coordinates(self.ambient_dim, free)


def _from_tails(ambient_dim: int, tails: Mapping[int, Mapping[int, Fraction]]) -> Subspace:
    """The subspace whose RREF basis :func:`linalg.eliminate` returned."""
    rows = ({p: ONE, **tails[p]} for p in sorted(tails))
    return Subspace(ambient_dim, tuple(linalg.to_dense(row, ambient_dim) for row in rows))


def coordinate_set(ambient_dim: int, indices: Iterable[int]) -> set[int]:
    """``indices`` as a set; ``ValueError`` names the first that is not a
    0-based coordinate index."""
    chosen = set(indices)
    bad = sorted(i for i in chosen if not 0 <= i < ambient_dim)
    if bad:
        raise ValueError(f"coordinate index {bad[0]} out of range for dimension {ambient_dim}")
    return chosen


def coordinates_in_basis(space: Subspace, vector: Sequence[Fraction]) -> Vector | None:
    """Coefficients of ``vector`` in ``space.basis`` rows, or None if outside."""
    coeffs, residual = space.reduce(vector)
    return None if any(residual) else coeffs
