"""Exact linear algebra over the rationals.

Everything in this package runs on :class:`fractions.Fraction` scalars; no
floating point is used anywhere.  Matrices are immutable tuples of row tuples,
which keeps them hashable (so higher layers can cache invariants) and makes
"canonical form" a plain data-equality notion.

The linear systems built by the higher layers are very sparse (a few percent
of their entries are nonzero), so :func:`rref` eliminates on sparse rows,
``{column: value}`` dicts that hold only the nonzero entries, and does
arithmetic only where a row has them.  Reduced row echelon form is unique,
so the result is the same canonical representative of the row space that
any elimination order gives, returned in the dense representation above.
Nullspace bases are enumerated in ascending free-column order.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Sequence

Scalar = Fraction
Vector = tuple[Fraction, ...]
Matrix = tuple[Vector, ...]

ZERO = Fraction(0)
ONE = Fraction(1)


def frac(value) -> Fraction:
    """Coerce an int/Fraction/"p/q" string to an exact rational."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        return Fraction(value)
    raise TypeError(f"expected an exact rational, got {type(value).__name__}")


def vec(entries: Iterable) -> Vector:
    return tuple(frac(x) for x in entries)


def mat(rows: Iterable[Iterable]) -> Matrix:
    out = tuple(vec(row) for row in rows)
    if out:
        width = len(out[0])
        if any(len(row) != width for row in out):
            raise ValueError("ragged matrix rows")
    return out


def zero_vector(n: int) -> Vector:
    return (ZERO,) * n


def zero_matrix(rows: int, cols: int) -> Matrix:
    return ((ZERO,) * cols,) * rows


def identity(n: int) -> Matrix:
    return tuple(
        tuple(ONE if i == j else ZERO for j in range(n)) for i in range(n)
    )


def is_zero_vector(v: Sequence[Fraction]) -> bool:
    return all(x == 0 for x in v)


def sub_vectors(a: Sequence[Fraction], b: Sequence[Fraction]) -> Vector:
    return tuple(x - y for x, y in zip(a, b, strict=True))


def sub_matrices(a: Matrix, b: Matrix) -> Matrix:
    return tuple(sub_vectors(ra, rb) for ra, rb in zip(a, b, strict=True))


def transpose(m: Matrix) -> Matrix:
    if not m:
        return ()
    return tuple(zip(*m))


def matvec(m: Matrix, v: Sequence[Fraction]) -> Vector:
    return tuple(
        sum((row[j] * v[j] for j in range(len(v))), ZERO) for row in m
    )


def matmul(a: Matrix, b: Matrix) -> Matrix:
    if a and b and len(a[0]) != len(b):
        raise ValueError("matmul shape mismatch")
    bt = transpose(b)
    return tuple(
        tuple(sum((x * y for x, y in zip(row, col)), ZERO) for col in bt)
        for row in a
    )


def commutator(a: Matrix, b: Matrix) -> Matrix:
    return sub_matrices(matmul(a, b), matmul(b, a))


def _subtract_multiple(row: dict, f: Fraction, other: dict) -> None:
    """``row -= f * other`` in place on sparse rows, dropping zeros."""
    for c, y in other.items():
        v = row.get(c, ZERO) - f * y
        if v:
            row[c] = v
        else:
            del row[c]


def rref(m: Matrix) -> tuple[Matrix, tuple[int, ...]]:
    """Reduced row echelon form and its pivot columns.

    Rows are added one at a time to a running RREF kept as sparse rows: each
    is reduced against the pivots found so far, and a nonzero remainder is
    scaled to a leading 1 at its leftmost column and eliminated from the
    earlier pivot rows.  The result is the unique RREF of the row space,
    with pivot rows in ascending pivot order and the zero rows kept at the
    bottom (callers that want a basis drop them).
    """
    # pivot column -> its normalized row without the leading 1; these rows
    # never hold another pivot column, so one pass reduces a new row fully
    tails: dict[int, dict[int, Fraction]] = {}
    for dense_row in m:
        row = {c: x for c, x in enumerate(dense_row) if x}
        for p in [c for c in row if c in tails]:
            _subtract_multiple(row, row.pop(p), tails[p])
        if not row:
            continue
        p = min(row)
        inv = ONE / row.pop(p)
        new = {c: x * inv for c, x in row.items()}
        for tail in tails.values():
            f = tail.pop(p, None)
            if f is not None:
                _subtract_multiple(tail, f, new)
        tails[p] = new

    n_cols = len(m[0]) if m else 0
    pivots = tuple(sorted(tails))
    reduced = [
        tuple(ONE if c == p else tails[p].get(c, ZERO) for c in range(n_cols))
        for p in pivots
    ]
    reduced.extend([(ZERO,) * n_cols] * (len(m) - len(pivots)))
    return tuple(reduced), pivots


def row_basis(m: Matrix) -> Matrix:
    """Canonical (RREF, zero rows dropped) basis of the row space."""
    reduced, pivots = rref(m)
    return reduced[: len(pivots)]


def rank(m: Matrix) -> int:
    return len(rref(m)[1])


def nullspace(m: Matrix, n_cols: int | None = None) -> Matrix:
    """Canonical basis of {x : m @ x = 0}, one vector per free column.

    The basis vector for free column f has entry 1 at f, zero at every other
    free column, and the forced values at pivot columns; vectors are ordered
    by ascending free column.  ``n_cols`` must be supplied when ``m`` has no
    rows.
    """
    if m:
        n_cols = len(m[0])
    elif n_cols is None:
        raise ValueError("nullspace of an empty matrix needs n_cols")
    reduced, pivots = rref(m)
    pivot_set = set(pivots)
    free_cols = [c for c in range(n_cols) if c not in pivot_set]
    basis = []
    for f in free_cols:
        v = [ZERO] * n_cols
        v[f] = ONE
        for r, p in enumerate(pivots):
            v[p] = -reduced[r][f]
        basis.append(tuple(v))
    return tuple(basis)


def solve(m: Matrix, rhs: Sequence[Fraction]) -> Vector | None:
    """One solution of m @ x = rhs (free variables set to 0), or None."""
    if not m:
        return () if is_zero_vector(rhs) or not rhs else None
    n_cols = len(m[0])
    augmented = tuple(
        row + (b,) for row, b in zip(m, rhs, strict=True)
    )
    reduced, pivots = rref(augmented)
    if n_cols in pivots:
        return None  # a pivot in the RHS column means the system is inconsistent
    x = [ZERO] * n_cols
    for r, p in enumerate(pivots):
        x[p] = reduced[r][n_cols]
    return tuple(x)


def solve_affine(m: Matrix, rhs: Sequence[Fraction]) -> tuple[Vector, Matrix] | None:
    """Full solution set of m @ x = rhs as (particular, nullspace basis)."""
    particular = solve(m, rhs)
    if particular is None:
        return None
    return particular, nullspace(m, n_cols=len(particular))


def inverse(m: Matrix) -> Matrix:
    """Inverse of a square matrix; raises ValueError if singular."""
    n = len(m)
    if any(len(row) != n for row in m):
        raise ValueError("inverse of a non-square matrix")
    augmented = hstack(m, identity(n))
    reduced, pivots = rref(augmented)
    if pivots != tuple(range(n)):
        raise ValueError("matrix is singular")
    return tuple(row[n:] for row in reduced[:n])


def det(m: Matrix) -> Fraction:
    """Determinant by Gaussian elimination with exact division by each pivot.

    The result is the signed product of the pivots; a row swap flips the sign.
    """
    n = len(m)
    if any(len(row) != n for row in m):
        raise ValueError("determinant of a non-square matrix")
    rows = [list(row) for row in m]
    result = ONE
    for c in range(n):
        pivot_row = next((i for i in range(c, n) if rows[i][c] != 0), None)
        if pivot_row is None:
            return ZERO
        if pivot_row != c:
            rows[c], rows[pivot_row] = rows[pivot_row], rows[c]
            result = -result
        pivot = rows[c][c]
        result *= pivot
        for i in range(c + 1, n):
            if rows[i][c] != 0:
                factor = rows[i][c] / pivot
                rows[i] = [x - factor * y for x, y in zip(rows[i], rows[c])]
    return result


def hstack(a: Matrix, b: Matrix) -> Matrix:
    return tuple(ra + rb for ra, rb in zip(a, b, strict=True))
