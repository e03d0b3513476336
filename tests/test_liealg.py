"""Core Lie algebra machinery against hand-computed oracles.

Conventions used throughout: the split simple 3-dimensional algebra has
basis (e1, e2, e3) with [e1,e2]=e3, [e1,e3]=-2e1, [e2,e3]=2e2; the
3-dimensional Heisenberg algebra has [e1,e2]=e3; the nonabelian
2-dimensional algebra has [e1,e2]=e1.
"""

import gc
from fractions import Fraction

import pytest

from postlie import liealg, linalg
from postlie.catalog import catalog_ids, get_algebra, get_entry
from postlie.liealg import LieAlgebra, direct_sum, fingerprint, semidirect_product
from postlie.sl2 import irreducible_action, module_action, semidirect, sl2
from postlie.structures import PAProduct
from postlie.subspace import Subspace
from postlie.table import CLASSES, existence_table

from oracles import (
    NON_LIE_TABLE,
    bilinear_reference,
    bracket_span_reference,
    coordinates_reference,
    derivation_constants_reference,
    derivation_reference,
    killing_reference,
    quotient_reference,
    restrict_reference,
    rref_reference,
    span_reference,
)

F = Fraction

HEISENBERG = {(0, 1): {2: 1}}
NONABELIAN_2 = {(0, 1): {0: 1}}


def test_bracket_antisymmetry_from_table():
    alg = LieAlgebra.from_table(3, HEISENBERG)
    e1, e2 = alg.basis_vector(0), alg.basis_vector(1)
    assert alg.bracket(e1, e2) == (F(0), F(0), F(1))
    assert alg.bracket(e2, e1) == (F(0), F(0), F(-1))
    assert alg.bracket(e1, e1) == (F(0), F(0), F(0))


def test_ad_matrix_columns():
    alg = sl2()
    # ad(e3): e1 -> -[e1,e3] = 2e1, e2 -> -2e2, e3 -> 0
    assert alg.ad(alg.basis_vector(2)) == linalg.mat(
        [[2, 0, 0], [0, -2, 0], [0, 0, 0]]
    )


def test_jacobi_residuals_flag_broken_table():
    # [e1,e2]=e3, [e1,e3]=e1, [e2,e3]=e2 violates Jacobi on (e1,e2,e3)
    broken = LieAlgebra.from_table(3, {(0, 1): {2: 1}, (0, 2): {0: 1}, (1, 2): {1: 1}})
    assert not broken.is_lie()
    triples = [t for t, _ in broken.jacobi_residuals()]
    assert (0, 1, 2) in triples
    assert sl2().is_lie()
    assert LieAlgebra.from_table(3, HEISENBERG).is_lie()


def test_derived_and_lower_central_series():
    heis = LieAlgebra.from_table(3, HEISENBERG)
    assert heis.derived_series() == (3, 1, 0)
    assert heis.lower_central_series() == (3, 1, 0)
    assert heis.nilpotency_class() == 2

    r2 = LieAlgebra.from_table(2, NONABELIAN_2)
    assert r2.derived_series() == (2, 1, 0)
    # [r2, r2] = span(e1) is stable: never reaches zero
    assert r2.lower_central_series() == (2, 1)
    assert r2.nilpotency_class() is None

    # perfect: the derived subalgebra is the whole algebra, series is stable
    assert sl2().derived_series() == (3,)


@pytest.mark.parametrize("alg_id", ["r2_plus_C", "n3", "sl2"])
def test_both_series_reuse_the_one_derived_subalgebra(monkeypatch, alg_id):
    # Invariants are shared by every instance with the same cells, so build
    # brackets no other live object has: the entry's scaled by 7/11, an
    # isomorphic algebra (x -> 7/11 x) with the same series.
    base = get_entry(alg_id).build()
    scaled = {
        pair: {k: c * F(7, 11) for k, c in entry.items()}
        for pair, entry in base.sparse_table().items()
    }
    alg = LieAlgebra.from_table(base.dim, scaled)
    original, full_pairs = LieAlgebra.bracket_span, []

    def counting(self, a, b):
        if a.dim == b.dim == self.dim:
            full_pairs.append((a, b))
        return original(self, a, b)

    monkeypatch.setattr(LieAlgebra, "bracket_span", counting)
    alg.derived_subalgebra()
    alg.derived_series()
    alg.lower_central_series()
    assert len(full_pairs) == 1


def test_equal_brackets_share_one_store_of_invariants(monkeypatch):
    table = {(0, 1): {2: F(5, 13)}, (0, 2): {0: -2}, (1, 2): {1: 2}}
    first = LieAlgebra.from_table(3, table, "first")
    ders = first._derivations
    calls = []
    original = linalg.solve_affine

    def counting(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(linalg, "solve_affine", counting)
    second = LieAlgebra.from_table(3, table, "second")
    assert second._derivations is ders
    assert second._derivations is ders  # the repeat read is an attribute hit
    assert calls == []


def test_a_store_goes_with_the_last_instance_of_its_cells():
    table = {(0, 1): {1: F(17, 19)}}
    key = (2, LieAlgebra.from_table(2, table).cells)
    algs = [LieAlgebra.from_table(2, table, name) for name in ("a", "b")]
    assert all(alg.derived_series() == (2, 1, 0) for alg in algs)
    assert key in liealg._STORES
    algs.pop()
    gc.collect()
    assert key in liealg._STORES  # one instance still holds it
    algs.pop()
    gc.collect()
    assert key not in liealg._STORES


def test_center_oracle():
    heis = LieAlgebra.from_table(3, HEISENBERG)
    center = heis.center()
    assert center.dim == 1
    assert center.contains((0, 0, 1))
    assert sl2().center().dim == 0
    assert LieAlgebra.abelian(4).center().dim == 4


def test_killing_form_of_split_simple_algebra():
    # With [e1,e2]=e3, [e1,e3]=-2e1, [e2,e3]=2e2 the Killing matrix is
    # [[0,4,0],[4,0,0],[0,0,8]].
    alg = sl2()
    assert alg.killing_form() == linalg.mat([[0, 4, 0], [4, 0, 0], [0, 0, 8]])
    assert alg.killing_rank() == 3
    assert alg.killing_det() == F(-128)


def test_killing_form_vanishes_on_nilpotent():
    heis = LieAlgebra.from_table(3, HEISENBERG)
    assert heis.killing_form() == linalg.zero_matrix(3, 3)


def test_solvable_radical_oracles():
    assert sl2().solvable_radical().dim == 0
    heis = LieAlgebra.from_table(3, HEISENBERG)
    assert heis.solvable_radical().dim == 3
    mixed = direct_sum(sl2(), LieAlgebra.abelian(2))
    radical = mixed.solvable_radical()
    assert radical.dim == 2
    assert radical.contains((0, 0, 0, 1, 0))


def test_class_predicates():
    heis = LieAlgebra.from_table(3, HEISENBERG)
    r2 = LieAlgebra.from_table(2, NONABELIAN_2)
    assert LieAlgebra.abelian(3).is_abelian()
    assert heis.is_nilpotent() and not heis.is_abelian()
    assert r2.is_solvable() and not r2.is_nilpotent()
    assert sl2().is_semisimple() and sl2().is_simple()
    assert sl2().is_perfect()
    assert not heis.is_perfect()
    assert direct_sum(sl2(), sl2()).is_semisimple()
    assert not direct_sum(sl2(), sl2()).is_simple()


def test_reductive_means_central_radical():
    assert direct_sum(sl2(), LieAlgebra.abelian(1)).is_reductive()
    assert sl2().is_reductive()
    assert LieAlgebra.abelian(2).is_reductive()
    # radical of sl2 |x V(2) is V(2), not central
    assert not semidirect((2,)).is_reductive()


def test_complete_oracles():
    r2 = LieAlgebra.from_table(2, NONABELIAN_2)
    assert r2.is_complete()  # all derivations inner, trivial center
    assert sl2().is_complete()
    heis = LieAlgebra.from_table(3, HEISENBERG)
    assert not heis.is_complete()  # nonzero center
    assert not LieAlgebra.abelian(1).is_complete()


def test_derivations_of_heisenberg_have_dimension_six():
    heis = LieAlgebra.from_table(3, HEISENBERG)
    ders = heis.derivations()
    assert len(ders) == 6
    for d in ders:
        assert heis.is_derivation(d)
    assert not heis.is_derivation(linalg.mat([[1, 0, 0], [0, 0, 0], [0, 0, 0]]))


def test_restrict_to_subalgebra():
    both = direct_sum(sl2(), LieAlgebra.from_table(2, NONABELIAN_2))
    first = Subspace.spanned_by_coordinates(5, (0, 1, 2))
    assert both.is_subalgebra(first)
    assert both.restrict(first).brackets == sl2().brackets
    mixed = Subspace.from_vectors(5, [(1, 0, 0, 1, 0)])
    assert both.is_subalgebra(mixed)  # one-dimensional spans always close


def test_quotient_heisenberg_by_center_is_abelian():
    heis = LieAlgebra.from_table(3, HEISENBERG)
    center = heis.center()
    q = heis.quotient(center)
    assert q.dim == 2
    assert q.is_abelian()
    with pytest.raises(ValueError):
        heis.quotient(Subspace.from_vectors(3, [(1, 0, 0)]))  # not an ideal


def _in_basis(alg, columns):
    """The same algebra written in the basis ``columns`` (coordinate vectors)."""
    change = linalg.transpose(linalg.mat(columns))
    back = linalg.inverse(change)
    table = {
        (i, j): dict(enumerate(linalg.matvec(back, alg.bracket(columns[i], columns[j]))))
        for i in range(alg.dim)
        for j in range(i + 1, alg.dim)
    }
    return LieAlgebra.from_table(alg.dim, table)


# (catalog id, new basis as coordinate columns, dim and class of the
# quotient by the center)
REBASINGS = [
    ("n3_plus_C", [(1, 0, 0, -1), (1, 0, -1, 0), (0, 1, 0, 1), (-1, 0, 1, 1)], 2, "abelian"),
    (
        "sl2_plus_C2",
        [(0, 1, 1, -1, 1), (-1, -1, 0, 0, 1), (-1, 1, -1, 0, 1), (0, 1, 0, -1, 0), (0, 0, -1, 0, 0)],
        3,
        "semisimple",
    ),
]


def _rebased(alg_id, columns):
    return _in_basis(get_algebra(alg_id), [tuple(F(x) for x in col) for col in columns])


@pytest.mark.parametrize("alg_id,columns,quotient_dim,quotient_class", REBASINGS)
def test_center_and_radical_are_canonical_in_any_basis(
    alg_id, columns, quotient_dim, quotient_class
):
    # in these bases the center is not spanned by coordinate vectors and
    # the nullspace vectors that define it are not in reduced echelon form
    alg = _rebased(alg_id, columns)
    d = alg.dim
    for space in (alg.center(), alg.solvable_radical()):
        assert space == Subspace.from_vectors(d, space.basis)
    quotient = alg.quotient(alg.center())
    assert quotient.dim == quotient_dim
    assert getattr(quotient, f"is_{quotient_class}")()
    assert alg.quotient(alg.solvable_radical()).dim == d - alg.solvable_radical().dim


def _radical_reference(alg):
    """The Killing-orthogonal complement of [g, g], in reduced echelon form,
    from the reference Killing form and dense elimination: [g, g] is spanned
    by the bracket vectors of basis pairs."""
    d = alg.dim
    killing = killing_reference(alg.brackets)
    rows = [
        [sum((v[m] * killing[m][c] for m in range(d)), F(0)) for c in range(d)]
        for i, plane in enumerate(alg.brackets)
        for v in plane[i + 1 :]
    ]
    reduced, pivots = rref_reference(rows) if rows else ((), ())
    complement = []
    for f in (c for c in range(d) if c not in pivots):
        v = [F(0)] * d
        v[f] = F(1)
        for r, p in enumerate(pivots):
            v[p] = -reduced[r][f]
        complement.append(v)
    if not complement:
        return ()
    reduced, pivots = rref_reference(complement)
    return reduced[: len(pivots)]


def _invariant_cases():
    cases = [
        (entry_id, get_algebra(entry_id))
        for entry_id in catalog_ids()
        if get_entry(entry_id).builder is not None
    ]
    return cases + [(f"{alg_id} rebased", _rebased(alg_id, cols)) for alg_id, cols, *_ in REBASINGS]


def test_killing_form_and_radical_match_the_definitions():
    for label, alg in _invariant_cases():
        assert alg.killing_form() == killing_reference(alg.brackets), label
        assert alg.solvable_radical().basis == _radical_reference(alg), label


def test_restrictions_match_the_reference_coordinates():
    for label, alg in _invariant_cases():
        for space in (alg.derived_subalgebra(), alg.solvable_radical()):
            restricted = alg.restrict(space)
            basis = space.basis
            for a in range(space.dim):
                for b in range(space.dim):
                    w = bilinear_reference(alg.brackets, basis[a], basis[b])
                    assert restricted.brackets[a][b] == coordinates_reference(basis, w), label


def _oracle_subspaces(alg):
    """The center, [g, g], the radical, each minimal coordinate ideal, each
    single-coordinate span, and each span of two neighbouring coordinates
    (which need not be closed, so ``restrict`` may refuse it)."""
    d = alg.dim
    yield from (alg.center(), alg.derived_subalgebra(), alg.solvable_radical())
    yield from alg.minimal_coordinate_ideals()
    for i in range(d):
        yield Subspace.spanned_by_coordinates(d, [i])
        if i + 1 < d:
            yield Subspace.spanned_by_coordinates(d, [i, i + 1])


def test_subspace_paths_match_the_dense_definitions():
    seen = set()  # (closed, ideal): every combination but an ideal that is not closed
    for entry_id in catalog_ids():
        if get_entry(entry_id).builder is None:
            continue
        alg = get_algebra(entry_id)
        c, units, full = alg.brackets, linalg.identity(alg.dim), alg.full_space()
        for space in _oracle_subspaces(alg):
            basis, label = space.basis, (entry_id, space.pivots)
            expected = restrict_reference(c, basis)
            assert alg.is_subalgebra(space) == (expected is not None), label
            if expected is None:
                with pytest.raises(ValueError, match="^subspace is not closed under the bracket$"):
                    alg.restrict(space)
            else:
                assert alg.restrict(space).brackets == expected, label
            assert alg.bracket_span(space, space).basis == bracket_span_reference(c, basis, basis), label
            ad_span = bracket_span_reference(c, units, basis)
            assert alg.bracket_span(full, space).basis == ad_span, label
            ideal = len(span_reference(basis + ad_span)) == len(basis)
            assert alg.is_ideal(space) == ideal, label
            seen.add((expected is not None, ideal))
            if ideal and 0 < space.dim < alg.dim:
                section = [i for i in range(alg.dim) if i not in space.pivots]
                assert alg.quotient(space).brackets == quotient_reference(c, basis, section), label
    assert seen == {(True, True), (True, False), (False, False)}


def test_is_derivation_matches_the_definition():
    # every basis matrix is checked by the library; the reference checks
    # their sum weighted 1, 2, 3, ... and that sum with one entry moved by 1
    outcomes = set()
    for entry_id in catalog_ids():
        if get_entry(entry_id).builder is None:
            continue
        alg = get_algebra(entry_id)
        d = alg.dim
        combined = [[F(0)] * d for _ in range(d)]
        for weight, matrix in enumerate(alg.derivations(), 1):
            assert alg.is_derivation(matrix), entry_id
            for r in range(d):
                for s in range(d):
                    combined[r][s] += weight * matrix[r][s]
        assert alg.is_derivation(linalg.mat(combined)) and derivation_reference(alg.brackets, combined), entry_id
        combined[0][-1] += 1
        holds = derivation_reference(alg.brackets, combined)
        assert alg.is_derivation(linalg.mat(combined)) == holds, entry_id
        outcomes.add(holds)
    assert outcomes == {True, False}


def test_derivation_constants_match_dense_commutators():
    # [D_alpha, D_beta] in the basis of Der(n), on every catalog algebra:
    # read at the free columns of the basis by the library, by dense
    # products and elimination in the reference
    fractional = 0
    for entry_id in catalog_ids():
        if get_entry(entry_id).builder is None:
            continue
        alg = get_algebra(entry_id)
        constants = alg._derivation_constants
        assert len(constants) == len(alg._derivations), entry_id
        assert constants == derivation_constants_reference(alg), entry_id
        fractional += any(c.denominator > 1 for terms in constants for _, c in terms)
    assert fractional  # f23's basis has thirds, and so do some constants


def test_restrict_refuses_a_subspace_that_is_not_closed():
    heis = LieAlgebra.from_table(3, HEISENBERG)
    with pytest.raises(ValueError, match="^subspace is not closed under the bracket$"):
        heis.restrict(Subspace.spanned_by_coordinates(3, (0, 1)))


def test_ideal_vs_subalgebra():
    r2 = LieAlgebra.from_table(2, NONABELIAN_2)
    line1 = Subspace.from_vectors(2, [(1, 0)])
    line2 = Subspace.from_vectors(2, [(0, 1)])
    assert r2.is_ideal(line1)
    assert r2.is_subalgebra(line2)
    assert not r2.is_ideal(line2)


def test_ad_closure_grows_to_smallest_ideal():
    alg = semidirect((2,))  # radical span(e4, e5) is a minimal ideal
    seed = Subspace.from_vectors(5, [(0, 0, 0, 1, 0)])
    closure = alg.ad_closure(seed)
    assert closure == Subspace.spanned_by_coordinates(5, (3, 4))


def _ad_closure_reference(brackets, units, seed):
    """The dense fixpoint ``S -> S + [g, S]`` from the span of ``seed``."""
    current = span_reference([seed])
    while True:
        grown = span_reference(list(current) + list(bracket_span_reference(brackets, units, current)))
        if len(grown) == len(current):
            return grown
        current = grown


@pytest.mark.parametrize(
    "alg_id", ["sl2", "n3", "r2_plus_C", "gl2", "r2_plus_r2", "L5_1", "sl2_plus_C2", "n5", "sl3"]
)
def test_ad_closure_matches_the_dense_fixpoint(alg_id):
    alg = get_algebra(alg_id)
    units = [alg.basis_vector(i) for i in range(alg.dim)]
    for i, seed in enumerate(units):
        closure = alg.ad_closure(Subspace.spanned_by_coordinates(alg.dim, [i]))
        assert closure.basis == _ad_closure_reference(alg.brackets, units, seed), (alg_id, i)
    # seeded, as the radical rules seed it, with each row of the radical
    radical = alg.solvable_radical()
    for r, (row, seed) in enumerate(zip(radical.rows, radical.basis)):
        closure = alg.ad_closure(Subspace(alg.dim, (row,)))
        assert closure.basis == _ad_closure_reference(alg.brackets, units, seed), (alg_id, "radical", r)


def test_minimal_coordinate_ideals_of_double_sum():
    both = direct_sum(sl2(), sl2())
    ideals = both.minimal_coordinate_ideals()
    assert {i.coordinate_support() for i in ideals} == {(0, 1, 2), (3, 4, 5)}


def test_direct_sum_block_structure():
    both = direct_sum(sl2(), LieAlgebra.abelian(1))
    assert both.dim == 4
    assert both.bracket(both.basis_vector(0), both.basis_vector(3)) == (
        F(0),
    ) * 4
    assert both.center().dim == 1


def test_semidirect_product_validates_action():
    # a non-homomorphism action must be rejected
    bad_action = [linalg.identity(2)] * 3
    with pytest.raises(ValueError, match="Jacobi identity fails on basis triple"):
        semidirect_product(sl2(), 2, bad_action)
    # a module index outside the module, even one inside the product
    with pytest.raises(ValueError, match="module bracket index out of range"):
        semidirect_product(sl2(), 2, module_action((2,)), {(-1, 0): {0: 1}})


def test_semidirect_product_refuses_a_non_lie_module_bracket():
    # the zero action is a homomorphism by derivations; only the module
    # bracket breaks the Jacobi identity, on module triple (1, 2, 3)
    zero = linalg.zero_matrix(3, 3)
    with pytest.raises(ValueError, match=r"Jacobi identity fails on basis triple \(2, 3, 4\)"):
        semidirect_product(LieAlgebra.abelian(1), 3, [zero], NON_LIE_TABLE)


def test_semidirect_product_refuses_an_action_that_is_not_by_derivations():
    # one matrix is always a homomorphism from abelian_1, but diag(1, 0, 0)
    # sends [e1, e2] = e3 to 0 and not to [e1, e2] = e3
    n3 = get_algebra("n3")
    assert n3.sparse_table() == {(0, 1): {2: F(1)}}
    action = [linalg.mat([[1, 0, 0], [0, 0, 0], [0, 0, 0]])]
    with pytest.raises(ValueError, match=r"Jacobi identity fails on basis triple \(1, 2, 3\)"):
        semidirect_product(LieAlgebra.abelian(1), 3, action, n3.sparse_table())


def test_irreducible_action_weights_are_integral():
    raise_m, lower_m, diag_m = irreducible_action(3)
    assert diag_m == linalg.mat([[2, 0, 0], [0, 0, 0], [0, 0, -2]])
    assert lower_m == linalg.mat([[0, 0, 0], [1, 0, 0], [0, 1, 0]])
    assert raise_m == linalg.mat([[0, 2, 0], [0, 0, 2], [0, 0, 0]])
    assert linalg.commutator(raise_m, lower_m) == diag_m


def test_module_action_blocks():
    mats = module_action((2, 1))
    assert all(len(m) == 3 for m in mats)
    # the 1-dimensional block acts by zero
    assert all(m[2][2] == 0 for m in mats)


def test_semidirect_of_irreducible_is_perfect():
    alg = semidirect((2,))
    assert alg.dim == 5
    assert alg.is_perfect()
    assert not alg.is_semisimple()
    assert alg.center().dim == 0


def test_fingerprint_equality_and_separation():
    fp = fingerprint(semidirect((2,)))
    assert fp.dim == 5
    assert fp.perfect and not fp.semisimple
    assert fp.radical_dim == 2 and fp.radical_class == 1
    assert fingerprint(sl2()) != fingerprint(LieAlgebra.from_table(3, HEISENBERG))
    assert fingerprint(sl2()) == fingerprint(sl2())


def test_invariants_are_computed_once_per_algebra():
    alg = semidirect((2,))
    assert alg.derived_subalgebra() is alg.derived_subalgebra()
    assert alg.jacobi_residuals() is alg.jacobi_residuals()
    assert alg.solvable_radical() is alg.solvable_radical()
    assert fingerprint(alg) is fingerprint(alg)


def test_fresh_copies_agree_with_cached_invariants_after_a_table_build():
    # the grid build fills the invariant caches of the shared catalog
    # instances; a fresh copy of the same brackets, given a private store
    # before any read, recomputes from scratch
    existence_table()
    for entry_id in catalog_ids():
        if get_entry(entry_id).builder is None:
            continue
        cached = get_algebra(entry_id)
        fresh = LieAlgebra(cached.dim, cached.cells)
        fresh.__dict__["_store"] = liealg._Store()
        assert fingerprint(fresh) == fingerprint(cached), entry_id
        assert fresh._derived is not cached._derived, entry_id
        for c in CLASSES:
            predicate = f"is_{c}"
            assert getattr(fresh, predicate)() == getattr(cached, predicate)(), (
                entry_id,
                c,
            )


# one bracket table: [e0, e1] = e2, [e0, e2] = -2 e0 + e2/2, [e1, e2] = 3 e1
TABLE = {(0, 1): {2: 1}, (0, 2): {0: -2, 2: F(1, 2)}, (1, 2): {1: 3}}


def _dense(table, antisymmetric):
    c = [[[F(0)] * 3 for _ in range(3)] for _ in range(3)]
    for (i, j), cell in table.items():
        for k, x in cell.items():
            c[i][j][k] += x
            if antisymmetric:
                c[j][i][k] -= x
    return tuple(tuple(map(tuple, plane)) for plane in c)


def test_from_table_stores_one_canonical_form():
    same_bracket = [
        {(1, 2): {1: 3}, (0, 2): {2: F(1, 2), 0: -2}, (0, 1): {2: 1}},  # key order
        {(0, 1): {2: 1, 0: 0}, (0, 2): {0: -2, 2: F(1, 2)}, (1, 2): {1: 3, 2: 0}},  # zeros
        {(1, 0): {2: -1}, (0, 2): {0: -2, 2: F(1, 2)}, (2, 1): {1: -3}},  # (j, i), negated
    ]
    alg = LieAlgebra.from_table(3, TABLE)
    assert alg.cells[0][2] == ((0, F(-2)), (2, F(1, 2)))
    assert alg.cells[2][0] == ((0, F(2)), (2, F(-1, 2)))
    assert alg.brackets == _dense(TABLE, antisymmetric=True)
    for table in same_bracket:
        other = LieAlgebra.from_table(3, table, name="other")
        assert other.cells == alg.cells and other == alg and hash(other) == hash(alg)
        assert other.brackets == alg.brackets

    same_product = same_bracket[:2]
    product = PAProduct.from_table(3, TABLE)
    assert product.cells[1] == ((), (), ((1, F(3)),))
    assert product.tensor == _dense(TABLE, antisymmetric=False)
    for table in same_product:
        other = PAProduct.from_table(3, table, name="other")
        assert other.cells == product.cells and other == product
        assert hash(other) == hash(product) and other.tensor == product.tensor


def test_build_determinism():
    assert semidirect((2, 2)).brackets == semidirect((2, 2)).brackets
    assert sl2() == sl2()
