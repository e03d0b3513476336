"""Independent oracles shared by test modules.

Everything here except ``split_descends_reference`` and ``s3_reference`` is
deliberately written from scratch against the raw definitions — no imports
from the package's linear algebra — so agreement between these results and
the library is meaningful evidence.  ``split_descends_reference`` instead
replays the search's former linear-algebra route through the library's own
subspace and operator machinery, so the sign-pattern test that replaced it
is pinned to the exact old behaviour; ``s3_reference`` likewise replays the
former point-by-point grid stage, so the block skip that replaced it is
pinned to the same outcomes.
"""

import itertools
from fractions import Fraction

F = Fraction


def raw_linear_system(g, n):
    """Rows of the two linear product axioms over unknowns a[i][j][k],
    flattened at (i*d + j)*d + k, built directly from the bracket tables."""
    d = g.dim
    rows, rhs = [], []

    def idx(i, j, k):
        return (i * d + j) * d + k

    # coupling: a[i][j][k] - a[j][i][k] = g[i][j][k] - n[i][j][k]
    for i in range(d):
        for j in range(d):
            for k in range(d):
                row = [F(0)] * d**3
                row[idx(i, j, k)] += 1
                row[idx(j, i, k)] -= 1
                rows.append(row)
                rhs.append(g.brackets[i][j][k] - n.brackets[i][j][k])
    # derivation: a[i][.][k] applied to {e_j, e_l} equals the two-sided sum
    for i in range(d):
        for j in range(d):
            for l in range(d):
                for k in range(d):
                    row = [F(0)] * d**3
                    for m in range(d):
                        c = n.brackets[j][l][m]
                        if c:
                            row[idx(i, m, k)] += c
                        c = n.brackets[m][l][k]
                        if c:
                            row[idx(i, j, m)] -= c
                        c = n.brackets[j][m][k]
                        if c:
                            row[idx(i, l, m)] -= c
                    rows.append(row)
                    rhs.append(F(0))
    return rows, rhs


def rref_reference(m):
    """Dense Gauss-Jordan elimination: (reduced rows, pivot columns).

    Pivots are taken left to right from the first row with a nonzero entry
    in the column; rows are scaled to a leading 1 and cleared above and
    below, and zero rows stay at the bottom.
    """
    rows = [list(row) for row in m]
    n_rows = len(rows)
    n_cols = len(rows[0]) if rows else 0
    pivots = []
    r = 0
    for c in range(n_cols):
        pivot_row = next((i for i in range(r, n_rows) if rows[i][c] != 0), None)
        if pivot_row is None:
            continue
        rows[r], rows[pivot_row] = rows[pivot_row], rows[r]
        inv = 1 / F(rows[r][c])
        rows[r] = [x * inv for x in rows[r]]
        for i in range(n_rows):
            if i != r and rows[i][c] != 0:
                factor = rows[i][c]
                rows[i] = [x - factor * y for x, y in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == n_rows:
            break
    return tuple(tuple(row) for row in rows), tuple(pivots)


def coordinates_reference(columns, rhs):
    """The x with ``sum(x_c * columns[c]) == rhs`` for independent
    ``columns``, or None when ``rhs`` is outside their span."""
    solved = solve_columns_reference(columns, [rhs])
    return None if solved is None else solved[0]


def solve_columns_reference(columns, rhss):
    """:func:`coordinates_reference` of each of the (one or more) ``rhss``
    from one elimination, or None when one is outside the span."""
    n = len(columns)
    augmented = [[col[r] for col in columns] + [b[r] for b in rhss] for r in range(len(rhss[0]))]
    reduced, pivots = rref_reference(augmented)
    if any(p >= n for p in pivots):
        return None
    assert len(pivots) == n
    return [tuple(reduced[r][n + m] for r in range(n)) for m in range(len(rhss))]


def span_reference(vectors):
    """The RREF basis of the span of the given vectors, zero rows dropped."""
    reduced, pivots = rref_reference(vectors) if vectors else ((), ())
    return reduced[: len(pivots)]


def bracket_span_reference(brackets, xs, ys):
    """The RREF basis of the span of ``[x, y]`` over ``x`` in ``xs`` and
    ``y`` in ``ys``."""
    return span_reference([bilinear_reference(brackets, x, y) for x in xs for y in ys])


def restrict_reference(brackets, basis):
    """The tensor of the bracket on the span of ``basis``, in that basis,
    or None when the span is not closed under the bracket."""
    k = len(basis)
    if not k:
        return ()
    values = [bilinear_reference(brackets, u, v) for u in basis for v in basis]
    coords = solve_columns_reference(basis, values)
    return None if coords is None else tuple(tuple(coords[a * k : a * k + k]) for a in range(k))


def quotient_reference(brackets, ideal_basis, section):
    """The tensor of the bracket modulo the span of ``ideal_basis``, in the
    unit vectors of the coordinates ``section``: the section part of the
    coordinates of ``[e_a, e_b]`` in the ideal basis followed by them."""
    d, k, s = len(brackets), len(ideal_basis), len(section)
    if not s:
        return ()
    units = [_unit(d, i) for i in section]
    values = [bilinear_reference(brackets, u, v) for u in units for v in units]
    coords = solve_columns_reference(list(ideal_basis) + units, values)
    return tuple(tuple(x[k:] for x in coords[a * s : a * s + s]) for a in range(s))


def derivation_reference(brackets, matrix):
    """Whether ``D[e_i, e_j] = [D e_i, e_j] + [e_i, D e_j]`` for all
    ``i < j`` (both sides are antisymmetric), ``D`` acting on columns."""
    d = len(brackets)
    for i in range(d):
        for j in range(i + 1, d):
            rhs = _combine(
                (1, bilinear_reference(brackets, _column(matrix, i), _unit(d, j))),
                (1, bilinear_reference(brackets, _unit(d, i), _column(matrix, j))),
            )
            if _matvec(matrix, brackets[i][j]) != rhs:
                return False
    return True


def derivation_constants_reference(n):
    """The structure constants of ``Der(n)`` in the basis ``n.derivations()``,
    in the form ``LieAlgebra._derivation_constants`` has: entry ``gamma``
    holds the nonzero ``((alpha, beta), C)``, ``alpha < beta`` ascending,
    with ``[D_alpha, D_beta] = sum_gamma C D_gamma``.  The commutators are
    dense matrix products, and their coordinates come from one elimination
    against the flattened basis (:func:`solve_columns_reference`)."""
    ders = n.derivations()
    size = n.dim

    def matmul(a, b):
        out = [[F(0)] * size for _ in range(size)]
        for r in range(size):
            for t in range(size):
                if a[r][t]:
                    for c in range(size):
                        out[r][c] += a[r][t] * b[t][c]
        return out

    pairs = [(a, b) for a in range(len(ders)) for b in range(a + 1, len(ders))]
    brackets = []
    for a, b in pairs:
        ab, ba = matmul(ders[a], ders[b]), matmul(ders[b], ders[a])
        brackets.append([ab[r][c] - ba[r][c] for r in range(size) for c in range(size)])
    columns = [[x for row in der for x in row] for der in ders]
    coords = solve_columns_reference(columns, brackets) if pairs else []
    assert coords is not None, "Der(n) is not closed under the commutator"
    return tuple(
        tuple((pair, c[gamma]) for pair, c in zip(pairs, coords) if c[gamma])
        for gamma in range(len(ders))
    )


def commutant_reference(matrices):
    """Dimension of the space of matrices X with ``X A == A X`` for every
    given square matrix A, by dense elimination of the equations
    ``(XA - AX)[r][c] = sum_t X[r][t] A[t][c] - A[r][t] X[t][c] = 0``
    over the unknowns X[r][t] at column ``r * size + t``."""
    size = len(matrices[0])
    rows = []
    for a in matrices:
        for r in range(size):
            for c in range(size):
                row = [F(0)] * size**2
                for t in range(size):
                    row[r * size + t] += a[t][c]
                    row[t * size + c] -= a[r][t]
                rows.append(tuple(row))
    rows = [row for row in dict.fromkeys(rows) if any(row)]  # same row space
    _, pivots = rref_reference(rows) if rows else ((), ())
    return size * size - len(pivots)


def gauss_consistent(rows, rhs):
    """Fraction Gaussian elimination; returns (consistent, free_count)."""
    n_cols = len(rows[0])
    _, pivots = rref_reference([list(row) + [b] for row, b in zip(rows, rhs)])
    rank = sum(1 for c in pivots if c < n_cols)
    return n_cols not in pivots, n_cols - rank


def bilinear_reference(tensor, x, y):
    """``sum_{i,j,k} x_i y_j t[i][j][k] e_k`` over the full dense tensor."""
    d = len(tensor)
    out = [F(0)] * d
    for i in range(d):
        for j in range(d):
            if x[i] and y[j]:
                s = x[i] * y[j]
                for k, t in enumerate(tensor[i][j]):
                    if t:
                        out[k] += s * t
    return tuple(out)


def killing_reference(brackets):
    """``K[i][j] = tr(ad e_i ad e_j)`` from dense ``ad`` matrices, where
    ``ad e_i`` has ``c[i][m][k]`` in row ``k`` and column ``m``."""
    d = len(brackets)
    ads = [[[brackets[i][m][k] for m in range(d)] for k in range(d)] for i in range(d)]

    def trace_of_product(a, b):
        return sum((a[r][t] * b[t][r] for r in range(d) for t in range(d)), F(0))

    return tuple(tuple(trace_of_product(ads[i], ads[j]) for j in range(d)) for i in range(d))


def _unit(d, i):
    return tuple(F(1) if t == i else F(0) for t in range(d))


def _column(matrix, i):
    return tuple(row[i] for row in matrix)


def _matvec(matrix, v):
    return tuple(sum((a * b for a, b in zip(row, v) if b), F(0)) for row in matrix)


def _combine(*terms):
    """Sum of ``(sign, vector)`` terms."""
    return tuple(sum((sign * v[t] for sign, v in terms), F(0)) for t in range(len(terms[0][1])))


def axiom1_reference(g, n, product):
    """Nonzero residuals ``((i, j), r)`` of the coupling axiom

        x . y - y . x = [x, y]_g - {x, y}_n

    on basis vectors ``e_i``, ``e_j`` (``i < j``), with ``r`` = left side
    minus right side."""
    d = g.dim
    p = product.tensor
    found = []
    for i in range(d):
        for j in range(i + 1, d):
            x, y = _unit(d, i), _unit(d, j)
            res = _combine(
                (1, bilinear_reference(p, x, y)),
                (-1, bilinear_reference(p, y, x)),
                (-1, bilinear_reference(g.brackets, x, y)),
                (1, bilinear_reference(n.brackets, x, y)),
            )
            if any(res):
                found.append(((i, j), res))
    return tuple(found)


def induced_reference(n, product):
    """The tensor of ``[x, y] = x . y - y . x + {x, y}_n`` on basis vectors."""
    d = n.dim
    p = product.tensor
    return tuple(
        tuple(
            _combine(
                (1, bilinear_reference(p, _unit(d, i), _unit(d, j))),
                (-1, bilinear_reference(p, _unit(d, j), _unit(d, i))),
                (1, bilinear_reference(n.brackets, _unit(d, i), _unit(d, j))),
            )
            for j in range(d)
        )
        for i in range(d)
    )


def axiom2_reference(g, product):
    """Nonzero residuals ``((i, j, k), r)`` of the representation axiom

        [x, y]_g . z = x . (y . z) - y . (x . z)

    on basis vectors ``x = e_i``, ``y = e_j`` (``i < j``), ``z = e_k``, in
    lexicographic order, with ``r`` = left side minus right side.  The
    product of two coordinate vectors is expanded over the full tensor.
    """
    d = g.dim
    p = product.tensor
    found = []
    for i in range(d):
        for j in range(i + 1, d):
            for k in range(d):
                x, y, z = _unit(d, i), _unit(d, j), _unit(d, k)
                res = _combine(
                    (1, bilinear_reference(p, bilinear_reference(g.brackets, x, y), z)),
                    (-1, bilinear_reference(p, x, bilinear_reference(p, y, z))),
                    (1, bilinear_reference(p, y, bilinear_reference(p, x, z))),
                )
                if any(res):
                    found.append(((i, j, k), res))
    return tuple(found)


def axiom3_reference(n, product):
    """Nonzero residuals ``((i, j, k), r)`` of the derivation axiom

        x . {y, z}_n = {x . y, z}_n + {y, x . z}_n

    on basis vectors ``x = e_i``, ``y = e_j``, ``z = e_k`` (``j < k``), in
    lexicographic order, with ``r`` = left side minus right side."""
    d = n.dim
    p, c = product.tensor, n.brackets
    found = []
    for i in range(d):
        for j in range(d):
            for k in range(j + 1, d):
                x, y, z = _unit(d, i), _unit(d, j), _unit(d, k)
                res = _combine(
                    (1, bilinear_reference(p, x, bilinear_reference(c, y, z))),
                    (-1, bilinear_reference(c, bilinear_reference(p, x, y), z)),
                    (-1, bilinear_reference(c, y, bilinear_reference(p, x, z))),
                )
                if any(res):
                    found.append(((i, j, k), res))
    return tuple(found)


def descendent_reference(n, matrix, weight):
    """The tensor of ``[x, y] = {Rx, y} + {x, Ry} + w {x, y}`` on basis
    vectors, ``R`` acting on columns."""
    d = n.dim
    c = n.brackets
    return tuple(
        tuple(
            _combine(
                (1, bilinear_reference(c, _column(matrix, i), _unit(d, j))),
                (1, bilinear_reference(c, _unit(d, i), _column(matrix, j))),
                (weight, c[i][j]),
            )
            for j in range(d)
        )
        for i in range(d)
    )


def operator_product_reference(n, matrix):
    """The tensor of ``x . y = {Rx, y}`` on basis vectors."""
    d = n.dim
    return tuple(
        tuple(bilinear_reference(n.brackets, _column(matrix, i), _unit(d, j)) for j in range(d))
        for i in range(d)
    )


def operator_residual_reference(n, matrix, weight):
    """Nonzero residuals ``((i, j), r)`` of the weighted-operator identity

        {Rx, Ry} = R({Rx, y} + {x, Ry} + w {x, y})

    on basis vectors ``e_i``, ``e_j`` (``i < j``), with ``r`` = left side
    minus right side."""
    d = n.dim
    descendent = descendent_reference(n, matrix, weight)
    found = []
    for i in range(d):
        for j in range(i + 1, d):
            res = _combine(
                (1, bilinear_reference(n.brackets, _column(matrix, i), _column(matrix, j))),
                (-1, _matvec(matrix, descendent[i][j])),
            )
            if any(res):
                found.append(((i, j), res))
    return tuple(found)


def decomposition_operator_reference(first, second):
    """Minus the projection onto the span of the ``second`` vectors along
    the span of the ``first``, as ``C diag(0, .., 0, -1, .., -1) C^-1`` for
    the change of basis ``C`` whose columns are the ``first`` vectors and
    then the ``second`` ones."""
    columns = list(first) + list(second)
    d = len(columns)
    # column c of C^-1 holds the coordinates of e_c in the columns of C
    inverse_columns = solve_columns_reference(columns, [_unit(d, c) for c in range(d)])
    diag = [F(0)] * len(first) + [F(-1)] * len(second)
    return tuple(
        tuple(
            sum((columns[m][r] * diag[m] * inverse_columns[c][m] for m in range(d)), F(0))
            for c in range(d)
        )
        for r in range(d)
    )


def split_descends_reference(g, n, subset):
    """The former S2 test of one coordinate splitting: both coordinate
    spans are subalgebras of ``n``, and the descendent bracket of minus the
    projection onto the rest equals ``g`` on the full tensor."""
    from postlie.structures import descendent_bracket, rb_from_decomposition
    from postlie.subspace import Subspace

    rest = [i for i in range(n.dim) if i not in subset]
    parts = [Subspace.spanned_by_coordinates(n.dim, part) for part in (subset, rest)]
    if not all(n.is_subalgebra(part) for part in parts):
        return False
    op = rb_from_decomposition(n, *parts)
    return descendent_bracket(n, op).brackets == g.brackets


def s3_reference(g, n, budget, height):
    """The former S3 stage of ``pa_search``, which evaluates every point of
    the grid ``[-height, height]**free`` up to ``budget`` in lexicographic
    order (last digit fastest), skipping none, with ``X`` built afresh at
    each point.  Returns ``(verdict, last trace line, points checked,
    witness)`` as the search issues them for a pair that S1 and S2 leave
    open."""
    from postlie.certificates import EXISTS, NOT_EXISTS, UNKNOWN
    from postlie.search import _axiom2_holds, _coordinate_scale, _homomorphism_equations, pa_linear_space
    from postlie.structures import verify_pa

    space = pa_linear_space(g, n)
    free = len(space.basis)
    scale = _coordinate_scale(space)
    vectors = [[(col, int(y * scale)) for col, y in vec.items()] for vec in (space.particular, *space.basis)]
    equations, pending = [], _homomorphism_equations(g, n, scale)
    grid = itertools.product(range(-height, height + 1), repeat=free)
    points = 0
    for points, digits in itertools.islice(enumerate(grid, 1), budget):
        X = [0] * (g.dim * len(space.derivations))
        for step, vec in zip((1, *digits), vectors):
            for col, y in vec:
                X[col] += step * y
        if not _axiom2_holds(X, equations, pending):
            continue
        witness = space.product_at(digits)
        if verify_pa(g, n, witness).ok:
            line = (
                f"stage S3: grid point #{points} at height {height} "
                "satisfies the quadratic axiom; all three axioms re-verified"
            )
            return EXISTS, line, points, witness
    if (2 * height + 1) ** free > budget:
        line = (
            f"stage S3: budget of {budget} grid points exhausted "
            f"(grid height {height}, {free} free parameters)"
        )
        return UNKNOWN, line, points, None
    if free == 0:
        line = "stage S3: the single solution of the linear axioms fails the quadratic axiom (2)"
        return NOT_EXISTS, line, points, None
    line = (
        f"stage S3: exhausted the full integer grid of height {height} on "
        f"{free} free parameters ({points} points) without a hit; "
        "the grid does not cover the affine space, so the verdict stays open"
    )
    return UNKNOWN, line, points, None


# An antisymmetric bracket on three basis vectors that fails the Jacobi
# identity on its only basis triple (1, 2, 3), with residual 4e1 + 5e2 + 3e3.
NON_LIE_TABLE = {
    (0, 1): {0: -1, 1: 2, 2: -2},
    (0, 2): {1: -2, 2: 1},
    (1, 2): {0: 1, 1: 1, 2: 1},
}
