"""Subspace lattice operations against hand oracles."""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from postlie.catalog import get_algebra
from postlie.subspace import Subspace, coordinates_in_basis

from oracles import coordinates_reference, rref_reference

F = Fraction


def test_from_vectors_reduces_to_canonical_basis():
    s = Subspace.from_vectors(3, [(1, 1, 0), (2, 2, 0), (0, 0, 1)])
    assert s.dim == 2
    t = Subspace.from_vectors(3, [(0, 0, 2), (3, 3, 3)])
    assert s == t  # same span, same canonical form


def test_zero_and_full():
    assert Subspace.zero(4).dim == 0
    assert Subspace.full(4).dim == 4
    assert Subspace.full(4).contains((1, 2, 3, 4))


def test_spanned_by_coordinates():
    s = Subspace.spanned_by_coordinates(4, (0, 2))
    assert s.dim == 2
    assert s.contains((5, 0, -3, 0))
    assert not s.contains((0, 1, 0, 0))
    assert s.coordinate_support() == (0, 2)


@pytest.mark.parametrize("index", [-1, 3, 7])
def test_spanned_by_coordinates_refuses_an_index_out_of_range(index):
    # a negative index would otherwise count from the end, and one past the
    # last coordinate would fail without naming it
    with pytest.raises(ValueError, match=f"coordinate index {index} out of range for dimension 3"):
        Subspace.spanned_by_coordinates(3, [0, index])


def test_contains_subspace_and_ordering():
    a = Subspace.from_vectors(3, [(1, 0, 0)])
    b = Subspace.from_vectors(3, [(1, 0, 0), (0, 1, 0)])
    assert b.contains_subspace(a)
    assert not a.contains_subspace(b)
    with pytest.raises(ValueError, match="^ambient dimension mismatch$"):
        a.contains_subspace(Subspace.full(4))


def test_sum_and_intersection_dims():
    a = Subspace.from_vectors(3, [(1, 0, 0), (0, 1, 0)])
    b = Subspace.from_vectors(3, [(0, 1, 0), (0, 0, 1)])
    assert a.sum(b).dim == 3
    meet = a.intersection(b)
    assert meet.dim == 1
    assert meet.contains((0, 1, 0))


def test_modular_dimension_identity():
    a = Subspace.from_vectors(4, [(1, 0, 0, 0), (0, 1, 1, 0)])
    b = Subspace.from_vectors(4, [(0, 1, 1, 0), (0, 0, 0, 1)])
    assert a.sum(b).dim + a.intersection(b).dim == a.dim + b.dim


def test_complement_candidate_is_a_complement():
    a = Subspace.from_vectors(4, [(1, 2, 0, 0), (0, 0, 1, 1)])
    c = a.complement_candidate()
    assert a.sum(c).dim == 4
    assert a.intersection(c).dim == 0


def test_coordinates_in_basis_roundtrip():
    s = Subspace.from_vectors(3, [(1, 1, 0), (0, 0, 1)])
    coords = coordinates_in_basis(s, (2, 2, 5))
    assert coords is not None
    rebuilt = [F(0)] * 3
    for c, vec in zip(coords, s.basis):
        for i, x in enumerate(vec):
            rebuilt[i] += c * x
    assert tuple(rebuilt) == (F(2), F(2), F(5))


def test_coordinates_in_basis_outside_returns_none():
    s = Subspace.from_vectors(3, [(1, 0, 0)])
    assert coordinates_in_basis(s, (0, 1, 0)) is None


@pytest.mark.parametrize("vector", [(1, 0), (1, 0, 0, 0)])
def test_a_vector_of_another_length_is_refused(vector):
    s = Subspace.from_vectors(3, [(1, 0, 0)])
    for read in (s.contains, lambda v: coordinates_in_basis(s, v)):
        with pytest.raises(ValueError, match="^vector length does not match ambient dimension$"):
            read(vector)


# ----------------------------------------------------------------------
# the one reducer against the dense reference elimination
# ----------------------------------------------------------------------

small = st.integers(min_value=-2, max_value=2)


def _reference_rank(rows):
    return len(rref_reference(rows)[1]) if rows else 0


def _reference_basis(rows):
    """The nonzero rows of the reference RREF."""
    return tuple(r for r in rref_reference(rows)[0] if any(r)) if rows else ()


def _reference_intersection(rows, others, n):
    """Zassenhaus through the reference elimination: the right halves of
    the reduced rows of ``[A|A; B|0]`` whose left half is zero."""
    if not rows or not others:
        return ()
    block = [list(r) + list(r) for r in rows] + [list(o) + [0] * n for o in others]
    meet = [r[n:] for r in rref_reference(block)[0] if not any(r[:n]) and any(r[n:])]
    return _reference_basis(meet)


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_reducer_agrees_with_the_reference_elimination(data):
    n = data.draw(st.integers(min_value=1, max_value=5), label="n")
    row = st.lists(small, min_size=n, max_size=n)
    rows = data.draw(st.lists(row, max_size=4), label="rows")
    others = data.draw(st.lists(row, max_size=4), label="others")
    if rows and data.draw(st.booleans(), label="inside"):
        coeffs = data.draw(st.lists(small, min_size=len(rows), max_size=len(rows)))
        v = [sum(c * r[t] for c, r in zip(coeffs, rows)) for t in range(n)]
    else:
        v = data.draw(row, label="v")
    vector = tuple(F(x) for x in v)
    space = Subspace.from_vectors(n, rows)

    reduced, pivots = rref_reference(rows) if rows else ((), ())
    assert space.basis == tuple(r for r in reduced if any(r))
    assert space.pivots == pivots

    other = Subspace.from_vectors(n, others)
    assert space.sum(other).basis == _reference_basis(rows + others)
    assert space.sum(other) == other.sum(space)
    assert space.intersection(other).basis == _reference_intersection(rows, others, n)
    assert space.contains_subspace(other) == (_reference_rank(rows + others) == _reference_rank(rows))

    kernel = Subspace.kernel(n, [dict(enumerate(r)) for r in rows])
    assert kernel.dim == n - _reference_rank(rows)
    assert kernel.basis == _reference_basis(list(kernel.basis))  # in RREF
    for x in kernel.basis:
        assert all(sum(a * b for a, b in zip(r, x)) == 0 for r in rows)

    # every constructor stores the one canonical form: equal data, equal hash
    for s in (space, kernel, space.intersection(other)):
        rebuilt = Subspace.from_vectors(n, s.basis)
        assert rebuilt == s and hash(rebuilt) == hash(s)

    inside = _reference_rank(rows + [v]) == _reference_rank(rows)
    assert space.contains(vector) == inside
    coords = coordinates_in_basis(space, vector)
    assert (coords is not None) == inside
    if coords is not None:
        rebuilt = tuple(
            sum((c * b[t] for c, b in zip(coords, space.basis)), F(0)) for t in range(n)
        )
        assert rebuilt == vector


@pytest.mark.parametrize(
    "alg_id", ["gl2", "n3_plus_C", "r2_plus_C", "f23_plus_C", "L5_1", "sl2_plus_C2", "scaling5"]
)
def test_quotient_agrees_with_a_reference_solve(alg_id):
    # the center of gl2 is spanned by E11 + E22: an ideal that is not
    # spanned by coordinate vectors, so its RREF rows have two nonzeros
    alg = get_algebra(alg_id)
    d = alg.dim
    for ideal in (alg.center(), alg.derived_subalgebra(), alg.solvable_radical()):
        _, pivots = rref_reference(ideal.basis) if ideal.basis else ((), ())
        section = [i for i in range(d) if i not in pivots]
        columns = [alg.basis_vector(s) for s in section] + list(ideal.basis)
        q = alg.quotient(ideal)
        assert q.dim == len(section) and q.is_lie()
        for a in range(q.dim):
            for b in range(q.dim):
                x = coordinates_reference(columns, alg.brackets[section[a]][section[b]])
                assert q.brackets[a][b] == x[: len(section)], (alg_id, a, b)
