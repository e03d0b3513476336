"""Subspaces of an ambient rational vector space, in canonical form.

A :class:`Subspace` stores the unique reduced-row-echelon basis of its row
space, so two subspaces are equal iff their data are equal.  The lattice
operations (sum, intersection) and membership tests are all exact.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction
from typing import Iterable, Sequence

from . import linalg
from .linalg import Matrix, Vector, ZERO, ONE


@dataclass(frozen=True)
class Subspace:
    """A linear subspace of Q^ambient_dim with a canonical RREF basis."""

    ambient_dim: int
    basis: Matrix  # RREF rows, no zero rows

    @staticmethod
    def from_vectors(ambient_dim: int, vectors: Iterable[Sequence]) -> "Subspace":
        rows = linalg.mat(list(vectors))
        if rows and len(rows[0]) != ambient_dim:
            raise ValueError("vector length does not match ambient dimension")
        return Subspace(ambient_dim, linalg.row_basis(rows))

    @staticmethod
    def zero(ambient_dim: int) -> "Subspace":
        return Subspace(ambient_dim, ())

    @staticmethod
    def full(ambient_dim: int) -> "Subspace":
        return Subspace(ambient_dim, linalg.identity(ambient_dim))

    @staticmethod
    def spanned_by_coordinates(ambient_dim: int, indices: Iterable[int]) -> "Subspace":
        """Span of the given standard basis vectors (0-based indices)."""
        vectors = []
        for i in sorted(set(indices)):
            v = [ZERO] * ambient_dim
            v[i] = ONE
            vectors.append(v)
        return Subspace.from_vectors(ambient_dim, vectors)

    @property
    def dim(self) -> int:
        return len(self.basis)

    @cached_property
    def pivots(self) -> tuple[int, ...]:
        """Pivot column of each basis row: the column of its leading 1."""
        return tuple(next(i for i, x in enumerate(row) if x != 0) for row in self.basis)

    def reduce(self, vector: Sequence[Fraction]) -> tuple[Vector, Vector]:
        """``(coefficients, residual)`` of ``vector`` against the basis.

        In RREF every pivot column is zero outside its own row, so the
        coefficient of a row is the vector's entry at that row's pivot and
        one pass leaves the residual ``vector - sum(c_r * row_r)``.  The
        residual is zero exactly when the vector lies in the subspace.
        """
        if len(vector) != self.ambient_dim:
            raise ValueError("vector length does not match ambient dimension")
        coeffs = tuple(vector[p] for p in self.pivots)
        residual = list(vector)
        for c, row in zip(coeffs, self.basis):
            if c != 0:
                residual = [x - c * y for x, y in zip(residual, row)]
        return coeffs, tuple(residual)

    def contains(self, vector: Sequence[Fraction]) -> bool:
        return not any(self.reduce(vector)[1])

    def contains_subspace(self, other: "Subspace") -> bool:
        return all(self.contains(v) for v in other.basis)

    def sum(self, other: "Subspace") -> "Subspace":
        if self.ambient_dim != other.ambient_dim:
            raise ValueError("ambient dimension mismatch")
        return Subspace(
            self.ambient_dim, linalg.row_basis(self.basis + other.basis)
        )

    def intersection(self, other: "Subspace") -> "Subspace":
        """Zassenhaus: row reduce [A|A; B|0]; rows with zero left half give
        the intersection in the right half."""
        if self.ambient_dim != other.ambient_dim:
            raise ValueError("ambient dimension mismatch")
        n = self.ambient_dim
        block = [row + row for row in self.basis]
        block += [row + linalg.zero_vector(n) for row in other.basis]
        reduced, _ = linalg.rref(tuple(block))
        vectors = [
            row[n:]
            for row in reduced
            if linalg.is_zero_vector(row[:n]) and not linalg.is_zero_vector(row[n:])
        ]
        return Subspace.from_vectors(n, vectors)

    def coordinate_support(self) -> tuple[int, ...]:
        """Indices of coordinates on which some basis vector is nonzero."""
        support = set()
        for row in self.basis:
            for i, x in enumerate(row):
                if x != 0:
                    support.add(i)
        return tuple(sorted(support))

    def complement_candidate(self) -> "Subspace":
        """A coordinate complement: span of non-pivot standard basis vectors."""
        pivots = set(self.pivots)
        free = [i for i in range(self.ambient_dim) if i not in pivots]
        return Subspace.spanned_by_coordinates(self.ambient_dim, free)


def coordinates_in_basis(space: Subspace, vector: Sequence[Fraction]) -> Vector | None:
    """Coefficients of ``vector`` in ``space.basis`` rows, or None if outside."""
    coeffs, residual = space.reduce(vector)
    return None if any(residual) else coeffs
