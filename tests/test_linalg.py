"""Exact linear algebra against hand-computed oracles."""

from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from postlie import linalg

from oracles import rref_reference, solve_columns_reference

try:
    import sympy
except ImportError:  # sympy is an optional, test-only second oracle
    sympy = None

F = Fraction


def test_frac_accepts_ints_strings_fractions():
    assert linalg.frac(3) == F(3)
    assert linalg.frac("1/2") == F(1, 2)
    assert linalg.frac(F(-5, 3)) == F(-5, 3)


def test_rref_hand_example():
    # [[1,2],[3,4]] reduces to the identity; pivots in both columns.
    m = linalg.mat([[1, 2], [3, 4]])
    reduced, pivots = linalg.rref(m)
    assert reduced == linalg.identity(2)
    assert pivots == (0, 1)


def test_rref_with_free_column():
    # second column is twice the first
    m = linalg.mat([[1, 2, 1], [2, 4, 0]])
    reduced, pivots = linalg.rref(m)
    assert pivots == (0, 2)
    assert reduced == linalg.mat([[1, 2, 0], [0, 0, 1]])


def test_rank_and_nullspace_dimensions():
    m = linalg.mat([[1, 2, 3], [2, 4, 6], [1, 1, 1]])
    assert linalg.rank(m) == 2
    null = linalg.nullspace(m)
    assert len(null) == 1
    for row in null:
        assert linalg.is_zero_vector(linalg.matvec(m, row))


def test_nullspace_of_full_rank_matrix_is_empty():
    assert linalg.nullspace(linalg.mat([[2, 1], [1, 1]])) == ()


def test_solve_unique_system():
    # x + y = 3, x - y = 1  =>  x = 2, y = 1
    m = linalg.mat([[1, 1], [1, -1]])
    assert linalg.solve(m, linalg.vec([3, 1])) == (F(2), F(1))


def test_solve_inconsistent_returns_none():
    m = linalg.mat([[1, 1], [2, 2]])
    assert linalg.solve(m, linalg.vec([1, 3])) is None


def test_solve_affine_particular_plus_nullspace():
    # x0 + x1 = 2 in three unknowns, the right-hand side at column 3
    result = linalg.solve_affine([{0: F(1), 1: F(1), 3: F(2)}], 3)
    assert result is not None
    particular, basis = result
    assert particular == {0: F(2)}
    assert basis == ({0: F(-1), 1: F(1)}, {2: F(1)})


def test_solve_affine_inconsistent_returns_none():
    rows = [{0: F(1), 1: F(1)}, {0: F(1), 1: F(1), 2: F(1)}]
    assert linalg.solve_affine(rows, 2) is None


def test_eliminate_ignores_zero_entries_and_leaves_its_input_alone():
    rows = [{0: F(0), 1: F(2), 2: F(6)}, {1: F(1), 2: F(3)}]
    assert linalg.eliminate(rows) == {1: {2: F(3)}}
    assert rows == [{0: F(0), 1: F(2), 2: F(6)}, {1: F(1), 2: F(3)}]


def test_det_and_inverse_exact():
    m = linalg.mat([[2, 1], [7, 4]])  # det 1
    assert linalg.det(m) == F(1)
    inv = linalg.inverse(m)
    assert inv == linalg.mat([[4, -1], [-7, 2]])
    assert linalg.matmul(m, inv) == linalg.identity(2)


def test_det_three_by_three_rule_of_sarrus():
    m = linalg.mat([[1, 2, 3], [4, 5, 6], [7, 8, 10]])
    # 1*(50-48) - 2*(40-42) + 3*(32-35) = 2 + 4 - 9 = -3
    assert linalg.det(m) == F(-3)


def test_inverse_of_singular_matrix_raises():
    with pytest.raises(ValueError):
        linalg.inverse(linalg.mat([[1, 2], [2, 4]]))


def test_matmul_matvec_transpose_consistency():
    a = linalg.mat([[1, 2], [3, 4]])
    b = linalg.mat([[0, 1], [1, 0]])
    assert linalg.matmul(a, b) == linalg.mat([[2, 1], [4, 3]])
    assert linalg.matvec(a, linalg.vec([1, 1])) == (F(3), F(7))
    assert linalg.transpose(a) == linalg.mat([[1, 3], [2, 4]])


def test_commutator():
    a = linalg.mat([[0, 1], [0, 0]])
    b = linalg.mat([[0, 0], [1, 0]])
    assert linalg.commutator(a, b) == linalg.mat([[1, 0], [0, -1]])


def test_row_basis_removes_dependent_rows():
    m = linalg.mat([[1, 0], [2, 0], [0, 1]])
    basis = linalg.row_basis(m)
    assert len(basis) == 2
    assert linalg.rank(basis) == 2


# ----------------------------------------------------------------------
# sparse elimination against independent dense oracles
# ----------------------------------------------------------------------

small_fraction = st.fractions(min_value=F(-4), max_value=F(4), max_denominator=6)
# two zero branches out of three keep the matrices sparse, as real systems are
entry = st.one_of(st.just(F(0)), st.just(F(0)), small_fraction)


@st.composite
def matrices(draw):
    """Tall, wide, empty and all-zero shapes, with duplicate and dependent
    rows spliced in among independently drawn ones."""
    n_cols = draw(st.integers(min_value=0, max_value=9))
    row = st.lists(entry, min_size=n_cols, max_size=n_cols)
    rows = draw(st.lists(row, max_size=7))
    base = list(rows)
    for _ in range(draw(st.integers(min_value=0, max_value=3)) if base else 0):
        a, b = draw(st.sampled_from(base)), draw(st.sampled_from(base))
        if draw(st.booleans()):
            new = list(a)
        else:
            s, t = draw(small_fraction), draw(small_fraction)
            new = [s * x + t * y for x, y in zip(a, b)]
        rows.insert(draw(st.integers(min_value=0, max_value=len(rows))), new)
    return n_cols, tuple(tuple(r) for r in rows)


def _sympy_rref(m, n_cols):
    flat = [sympy.Rational(x.numerator, x.denominator) for row in m for x in row]
    reduced, pivots = sympy.Matrix(len(m), n_cols, flat).rref()
    rows = tuple(
        tuple(F(int(reduced[i, j].p), int(reduced[i, j].q)) for j in range(n_cols))
        for i in range(len(m))
    )
    return rows, tuple(pivots)


ORACLE_SUITE = settings(max_examples=300, deadline=None)


# rows whose order makes each new pivot be cleared from earlier rows: the
# chain gains a column in an earlier row while clearing, the triangle loses
# one, and the index of column holders must follow both
CHAIN = ((F(1), F(1), F(0), F(0)), (F(0), F(1), F(1), F(0)), (F(0), F(0), F(1), F(1)))
TRIANGLE = ((F(1), F(1), F(1)), (F(0), F(1), F(1)), (F(0), F(0), F(1)), (F(2), F(0), F(1)))


@ORACLE_SUITE
@given(matrices())
@example((0, ()))
@example((3, ()))
@example((0, ((), (), ())))
@example((4, ((F(0),) * 4,) * 3))
@example((2, ((F(1), F(2)), (F(1), F(2)), (F(2), F(4)))))
@example((4, CHAIN))
@example((3, TRIANGLE))
def test_rref_matches_dense_oracles(shape):
    n_cols, m = shape
    result = linalg.rref(m)
    assert result == rref_reference(m)
    if sympy is not None:
        assert result == _sympy_rref(m, n_cols)


def _sparse(rows):
    return [{c: x for c, x in enumerate(row) if x} for row in rows]


def _reference_solution(reduced, pivots, n_cols):
    """``(particular, basis)`` read off a reference RREF of the augmented
    system (right-hand side at column ``n_cols``) as sparse vectors."""
    particular = {}
    basis = {f: {f: F(1)} for f in range(n_cols) if f not in pivots}
    for row, p in zip(reduced, pivots):
        for c in range(p + 1, len(row)):
            if row[c] and c == n_cols:
                particular[p] = row[c]
            elif row[c] and c in basis:
                basis[c][p] = -row[c]
    return particular, tuple(basis.values())


@ORACLE_SUITE
@given(matrices())
@example((3, ()))
@example((0, ((), ())))
@example((4, CHAIN))
@example((3, TRIANGLE))
def test_nullspace_vectors_are_annihilated(shape):
    n_cols, m = shape
    reduced, pivots = rref_reference(m)
    null = linalg.nullspace(m, n_cols=n_cols)
    assert len(null) == n_cols - len(pivots)
    for x in null:
        assert len(x) == n_cols
        assert linalg.is_zero_vector(linalg.matvec(m, x))
    _, expected = _reference_solution(reduced, pivots, n_cols)
    particular, basis = linalg.solve_affine(_sparse(m), n_cols)
    assert particular == {}
    assert basis == expected
    assert all(x for v in basis for x in v.values())
    assert null == tuple(linalg.to_dense(v, n_cols) for v in basis)


@st.composite
def systems(draw):
    n_cols, m = draw(matrices())
    rhs = draw(st.lists(entry, min_size=len(m), max_size=len(m)))
    return n_cols, m, tuple(rhs)


@ORACLE_SUITE
@given(systems())
@example((0, ((), ()), (F(0), F(1))))
@example((2, ((F(1), F(1)), (F(2), F(2))), (F(1), F(2))))
@example((4, CHAIN, (F(1), F(0), F(2))))
@example((3, TRIANGLE, (F(1), F(-1), F(3), F(1))))
def test_solve_affine_fails_exactly_on_an_augmented_pivot(system):
    n_cols, m, rhs = system
    augmented = tuple(row + (b,) for row, b in zip(m, rhs))
    reduced, pivots = rref_reference(augmented)
    result = linalg.solve_affine(_sparse(augmented), n_cols)
    assert (result is None) == (n_cols in pivots)
    assert (linalg.solve(m, rhs) is None) == (result is None and bool(m))
    if result is not None:
        particular, basis = result
        assert (particular, basis) == _reference_solution(reduced, pivots, n_cols)
        assert len(basis) == n_cols - len(pivots)
        if m:
            dense = linalg.to_dense(particular, n_cols)
            assert linalg.matvec(m, dense) == rhs
            assert linalg.solve(m, rhs) == dense


@st.composite
def bases_with_targets(draw):
    """Independent rows, square or with more columns than rows, and targets
    that are combinations of them or drawn freely (so inside or outside).

    The rows start in echelon form, independent by construction, and are
    then mixed by adding multiples of one row to another."""
    n_cols = draw(st.integers(min_value=0, max_value=9))
    k = draw(st.one_of(st.just(n_cols), st.integers(min_value=0, max_value=n_cols)))
    pivots = sorted(draw(st.permutations(range(n_cols)))[:k])
    rows = []
    for p in pivots:
        tail = st.lists(entry, min_size=n_cols - p - 1, max_size=n_cols - p - 1)
        rows.append([F(0)] * p + [F(1)] + draw(tail))
    for _ in range(draw(st.integers(min_value=0, max_value=4)) if k > 1 else 0):
        a, b = draw(st.permutations(range(k)))[:2]
        s = draw(small_fraction)
        rows[a] = [x + s * y for x, y in zip(rows[a], rows[b])]
    combination = st.lists(small_fraction, min_size=k, max_size=k).map(
        lambda cs: tuple(sum((c * row[j] for c, row in zip(cs, rows)), F(0)) for j in range(n_cols))
    )
    free = st.lists(entry, min_size=n_cols, max_size=n_cols).map(tuple)
    targets = draw(st.lists(st.one_of(combination, free), max_size=4))
    return n_cols, tuple(tuple(row) for row in rows), tuple(targets)


def _matrix_units(n, entries):
    return tuple(F(entries.get((r, c), 0)) for r in range(n) for c in range(n))


# sl3 flattened, eight rows in nine columns: a traceless commutator lies in
# the span, the identity matrix does not
SL3 = tuple(
    _matrix_units(3, entries)
    for entries in (
        {(0, 0): 1, (1, 1): -1},
        {(1, 1): 1, (2, 2): -1},
        {(0, 1): 1},
        {(1, 2): 1},
        {(0, 2): 1},
        {(1, 0): 1},
        {(2, 1): 1},
        {(2, 0): 1},
    )
)
SL3_INSIDE = _matrix_units(3, {(0, 0): 1, (2, 2): -1})
SL3_OUTSIDE = _matrix_units(3, {(0, 0): 1, (1, 1): 1, (2, 2): 1})


@ORACLE_SUITE
@given(bases_with_targets())
@example((9, SL3, (SL3_INSIDE, SL3_OUTSIDE)))
@example((0, (), ((),)))
@example((2, (), ((F(0), F(0)), (F(1), F(0)))))
def test_coordinates_match_the_dense_oracle(case):
    n_cols, basis, targets = case
    found = linalg.coordinates(_sparse(basis), _sparse(targets), n_cols)
    assert len(found) == len(targets)
    for target, coords in zip(targets, found):
        expected = solve_columns_reference(basis, [target])
        assert (coords is None) == (expected is None)
        if coords is not None:
            assert linalg.to_dense(coords, len(basis)) == expected[0]
            assert all(coords.values())
    if len(basis) == n_cols:
        # row i of the inverse holds the coordinates of e_i in the rows
        inverse = linalg.inverse(basis)
        assert linalg.matmul(inverse, basis) == linalg.identity(n_cols)
        units = [tuple(F(int(i == j)) for j in range(n_cols)) for i in range(n_cols)]
        assert inverse == (tuple(solve_columns_reference(basis, units)) if basis else ())
