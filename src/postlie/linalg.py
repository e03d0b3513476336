"""Exact linear algebra over the rationals.

Everything in this package runs on :class:`fractions.Fraction` scalars; no
floating point is used anywhere.  Matrices are immutable tuples of row tuples,
which keeps them hashable (so higher layers can cache invariants) and makes
"canonical form" a plain data-equality notion.

Linear systems go in as sparse rows, ``{column: value}`` dicts that hold
only the nonzero entries.  One eliminator, :func:`eliminate`, reduces every
system and every subspace, doing arithmetic only where a row has entries;
its step :func:`reduce_row` also reduces vectors against a subspace basis,
and :func:`solve_affine` is its entry for a system with a right-hand side.
:func:`coordinates` is the one change of basis (matrix algebras, inverses,
decomposition operators, left-action products).  :func:`rref` and
:func:`rank` wrap the eliminator for dense matrices (Killing form, embeddings);
:func:`solve`, :func:`nullspace` and :func:`row_basis` have no package
caller and stay for the tests and the benchmark tracer.  RREF is unique,
so every elimination order gives the same canonical result.
"""

from __future__ import annotations

from collections import defaultdict
from fractions import Fraction
from typing import Iterable, Mapping, Sequence

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


def zero_matrix(rows: int, cols: int) -> Matrix:
    return ((ZERO,) * cols,) * rows


def identity(n: int) -> Matrix:
    return tuple(
        tuple(ONE if i == j else ZERO for j in range(n)) for i in range(n)
    )


def is_zero_vector(v: Sequence[Fraction]) -> bool:
    return all(x == 0 for x in v)


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
    return tuple(
        tuple(x - y for x, y in zip(ra, rb, strict=True))
        for ra, rb in zip(matmul(a, b), matmul(b, a), strict=True)
    )


def to_dense(v: Mapping[int, Fraction], n: int) -> Vector:
    """The length-``n`` vector with the entries of a sparse ``{column: value}``
    vector and zeros elsewhere."""
    out = [ZERO] * n
    for c, x in v.items():
        out[c] = x
    return tuple(out)


def add_entry(rows: dict, key, col: int, value: Fraction) -> None:
    """``rows[key][col] += value`` in a system of sparse rows keyed by equation."""
    row = rows.setdefault(key, {})
    row[col] = row.get(col, ZERO) + value


def _subtract_multiple(row: dict, f: Fraction, other: dict, index=None, owner=None) -> None:
    """``row -= f * other`` in place on sparse rows, dropping zeros; with an
    ``index``, record ``owner`` under each column the row gains or loses."""
    for c, y in other.items():
        v = row.get(c, ZERO) - f * y
        if v:
            if index is not None and c not in row:
                index[c].add(owner)
            row[c] = v
        else:
            del row[c]
            if index is not None:
                index[c].discard(owner)


def reduce_row(row: dict, tails: Mapping[int, Mapping[int, Fraction]]) -> dict:
    """Clear, in place, each pivot column of the sparse ``row`` (nonzero
    entries only) with a multiple of its RREF pivot row; tails hold no
    pivot column, so one pass leaves none behind.  Returns the row."""
    for p in [c for c in row if c in tails]:
        _subtract_multiple(row, row.pop(p), tails[p])
    return row


def eliminate(rows: Iterable[Mapping[int, Fraction]]) -> dict[int, dict[int, Fraction]]:
    """The one row reducer: the RREF of sparse rows, as pivot -> tail.

    Rows are added one at a time to a running RREF: each is reduced against
    the pivots found so far, and a nonzero remainder is scaled to a leading
    1 at its leftmost column and cleared from the earlier pivot rows that
    hold that column.  The result maps each pivot column to its row without
    the leading 1; a tail never holds a pivot column.  Zero entries of the
    input are ignored and the input is not modified.
    """
    tails: dict[int, dict[int, Fraction]] = {}
    # column -> the pivots whose tails hold it, so a new pivot is cleared
    # from those rows only
    holders: defaultdict[int, set[int]] = defaultdict(set)
    for given in rows:
        row = reduce_row({c: x for c, x in given.items() if x}, tails)
        if not row:
            continue
        p = min(row)
        inv = ONE / row.pop(p)
        new = {c: x * inv for c, x in row.items()}
        for q in holders.pop(p, ()):
            _subtract_multiple(tails[q], tails[q].pop(p), new, holders, q)
        for c in new:
            holders[c].add(p)
        tails[p] = new
    return tails


def rref(m: Matrix) -> tuple[Matrix, tuple[int, ...]]:
    """Reduced row echelon form and its pivot columns (dense wrapper of
    :func:`eliminate`): pivot rows in ascending pivot order, the zero rows
    kept at the bottom (callers that want a basis drop them)."""
    tails = eliminate(dict(enumerate(row)) for row in m)
    n_cols = len(m[0]) if m else 0
    pivots = tuple(sorted(tails))
    reduced = [to_dense({p: ONE, **tails[p]}, n_cols) for p in pivots]
    reduced.extend([(ZERO,) * n_cols] * (len(m) - len(pivots)))
    return tuple(reduced), pivots


def row_basis(m: Matrix) -> Matrix:
    """Canonical (RREF, zero rows dropped) basis of the row space."""
    reduced, pivots = rref(m)
    return reduced[: len(pivots)]


def rank(m: Matrix) -> int:
    return len(rref(m)[1])


def coordinates(basis: Sequence[Mapping], vectors: Iterable[Mapping], n_cols: int) -> list:
    """The nonzero coefficients ``{a: c_a}`` of each sparse vector in the
    independent sparse ``basis`` rows over columns ``0 .. n_cols-1``, or None
    for a vector outside their span.  One :func:`eliminate` of
    ``[basis | identity]`` serves every vector: :func:`reduce_row` turns
    ``[v | 0]`` into ``[0 | -c]`` when ``v = sum(c_a basis[a])``, and leaves
    a nonzero left half when ``v`` is outside the span."""
    tails = eliminate({**row, n_cols + a: ONE} for a, row in enumerate(basis))
    rows = (reduce_row({c: x for c, x in v.items() if x}, tails) for v in vectors)
    return [
        None if any(c < n_cols for c in row) else {c - n_cols: -x for c, x in row.items()}
        for row in rows
    ]


def solve_affine(
    rows: Iterable[Mapping[int, Fraction]], n_cols: int
) -> tuple[dict[int, Fraction], tuple[dict[int, Fraction], ...]] | None:
    """Full solution set of a sparse system in unknowns ``0 .. n_cols-1``.

    Each row is a ``{column: value}`` equation whose right-hand side sits at
    column ``n_cols`` (absent: zero).  Returns ``None`` when the system is
    inconsistent, else ``(particular, basis)`` as sparse vectors from one
    elimination of the augmented rows: the particular solution sets every
    free unknown to 0, and the canonical nullspace basis has one vector per
    free column, ascending, with 1 at that column, 0 at every other free
    column and the forced values at the pivot columns.
    """
    tails = eliminate(rows)
    if n_cols in tails:
        return None  # a pivot in the RHS column means the system is inconsistent
    particular = {p: tail[n_cols] for p, tail in tails.items() if n_cols in tail}
    basis = {f: {f: ONE} for f in range(n_cols) if f not in tails}
    for p, tail in tails.items():
        for c, x in tail.items():
            if c != n_cols:
                basis[c][p] = -x
    return particular, tuple(basis.values())


def nullspace(m: Matrix, n_cols: int | None = None) -> Matrix:
    """Canonical basis of {x : m @ x = 0} (dense wrapper of
    :func:`solve_affine`); ``n_cols`` must be supplied when ``m`` has no
    rows."""
    if m:
        n_cols = len(m[0])
    elif n_cols is None:
        raise ValueError("nullspace of an empty matrix needs n_cols")
    _, basis = solve_affine((dict(enumerate(row)) for row in m), n_cols)
    return tuple(to_dense(v, n_cols) for v in basis)


def solve(m: Matrix, rhs: Sequence[Fraction]) -> Vector | None:
    """One solution of m @ x = rhs (free variables set to 0), or None
    (dense wrapper of :func:`solve_affine`)."""
    if not m:
        return () if is_zero_vector(rhs) or not rhs else None
    n_cols = len(m[0])
    solved = solve_affine(
        ({**dict(enumerate(row)), n_cols: b} for row, b in zip(m, rhs, strict=True)),
        n_cols,
    )
    return None if solved is None else to_dense(solved[0], n_cols)


def inverse(m: Matrix) -> Matrix:
    """Inverse of a square matrix, whose row ``i`` holds the coordinates of
    ``e_i`` in the rows of ``m``; raises ValueError if singular."""
    n = len(m)
    if any(len(row) != n for row in m):
        raise ValueError("inverse of a non-square matrix")
    rows = coordinates([dict(enumerate(row)) for row in m], ({i: ONE} for i in range(n)), n)
    if None in rows:
        raise ValueError("matrix is singular")
    return tuple(to_dense(row, n) for row in rows)


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
