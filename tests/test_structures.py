"""Product structures, weighted operators, and the bridges between them,
checked on the shipped sample pairs and on small hand oracles."""

import functools
import itertools
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

from postlie import linalg
from postlie.catalog import catalog_ids, get_algebra, get_entry
from postlie.liealg import LieAlgebra, fingerprint
from postlie.samples import SAMPLES, get_sample, sample_ids
from postlie.structures import (
    DoubleEmbedding,
    NotSemisimpleError,
    PAProduct,
    RBOperator,
    axiom2_residuals,
    descendent_bracket,
    induced_bracket,
    negation_partner,
    pa_from_rb,
    product_from_left_action,
    rb_from_coordinate_split,
    rb_from_decomposition,
    rb_kernels,
    solve_rb_form,
    verify_double_embedding,
    verify_pa,
    verify_rb,
)
from postlie.subspace import Subspace

from oracles import (
    axiom1_reference,
    axiom2_reference,
    axiom3_reference,
    bilinear_reference,
    decomposition_operator_reference,
    descendent_reference,
    induced_reference,
    operator_product_reference,
    operator_residual_reference,
)

F = Fraction


def test_sample_inventory():
    assert sample_ids() == tuple(SAMPLES)
    assert set(sample_ids()) == {
        "perfect_over_reductive",
        "solvable_over_perfect",
        "reductive_over_perfect",
        "complete_over_perfect",
    }


def test_every_sample_verifies_and_induces_its_declared_class():
    for sample_id in sample_ids():
        sample = get_sample(sample_id)
        n = sample.n()
        g = sample.g_bracket()
        report = verify_pa(g, n, sample.product)
        assert report.ok, sample_id
        assert fingerprint(g) == fingerprint(get_algebra(sample.g_class_id)), sample_id


def test_sample_operators_reproduce_their_products():
    for sample_id in ("solvable_over_perfect", "reductive_over_perfect"):
        sample = get_sample(sample_id)
        assert sample.operator is not None
        n = sample.n()
        check = verify_rb(n, sample.operator)
        assert check.ok, sample_id
        assert pa_from_rb(n, sample.operator) == sample.product
        assert induced_bracket(n, sample.product) == descendent_bracket(
            n, sample.operator
        )


def test_mutated_product_fails_verification():
    sample = get_sample("solvable_over_perfect")
    table = {k: dict(v) for k, v in sample.product.sparse_table().items()}
    table[(1, 0)][2] = F(2)  # perturb one structure constant
    broken = PAProduct.from_table(5, table)
    n = sample.n()
    report = verify_pa(induced_bracket(n, broken), n, broken)
    assert not report.ok


def test_verify_pa_rejects_dimension_mismatch():
    with pytest.raises(ValueError):
        verify_pa(get_algebra("sl2"), get_algebra("abelian_2"), PAProduct.zero(3))


def test_weight_matters():
    sample = get_sample("solvable_over_perfect")
    n = sample.n()
    twisted = RBOperator(
        dim=5, matrix=sample.operator.matrix, weight=F(2)
    )
    assert verify_rb(n, sample.operator).ok
    assert not verify_rb(n, twisted).ok


def test_solve_rb_form_recovers_the_unique_operator():
    # the target algebra has trivial center, so the operator is determined
    sample = get_sample("solvable_over_perfect")
    solved = solve_rb_form(sample.n(), sample.product)
    assert solved is not None
    assert solved.matrix == sample.operator.matrix
    diag = [solved.matrix[i][i] for i in range(5)]
    assert diag == [F(0), F(-1), F(-1), F(0), F(0)]


def test_samples_beyond_operator_form():
    for sample_id in ("perfect_over_reductive", "complete_over_perfect"):
        sample = get_sample(sample_id)
        assert sample.operator is None
        assert solve_rb_form(sample.n(), sample.product) is None


def test_negation_partner_is_a_verifying_involution():
    sample = get_sample("reductive_over_perfect")
    n = sample.n()
    partner = negation_partner(sample.operator)
    assert verify_rb(n, partner).ok
    assert negation_partner(partner).matrix == sample.operator.matrix
    # partner of diag(0,0,0,-1,-1) at weight one is diag(-1,-1,-1,0,0)
    assert partner.matrix == tuple(
        tuple(F(-1) if r == c and r < 3 else F(0) for c in range(5))
        for r in range(5)
    )


def test_rb_kernels_are_the_expected_coordinate_subalgebras():
    n = get_algebra("L5_1")
    solvable = get_sample("solvable_over_perfect").operator
    ker, shifted_ker = rb_kernels(n, solvable)
    assert ker == Subspace.spanned_by_coordinates(5, (0, 3, 4))
    assert shifted_ker == Subspace.spanned_by_coordinates(5, (1, 2))
    reductive = get_sample("reductive_over_perfect").operator
    ker2, shifted_ker2 = rb_kernels(n, reductive)
    assert ker2 == Subspace.spanned_by_coordinates(5, (0, 1, 2))
    assert shifted_ker2 == Subspace.spanned_by_coordinates(5, (3, 4))
    for part in (ker, shifted_ker, ker2, shifted_ker2):
        assert n.is_subalgebra(part)


def test_rb_kernels_refuses_an_operator_of_another_dimension():
    with pytest.raises(ValueError, match="^operator and algebra dimensions differ$"):
        rb_kernels(get_algebra("sl2"), RBOperator.zero(2))


def test_operators_rebuild_from_their_kernel_splits():
    n = get_algebra("L5_1")
    assert (
        rb_from_coordinate_split(n, (0, 3, 4)).matrix
        == get_sample("solvable_over_perfect").operator.matrix
    )
    assert (
        rb_from_coordinate_split(n, (0, 1, 2)).matrix
        == get_sample("reductive_over_perfect").operator.matrix
    )


def _operator_or_refusal(build, *args):
    try:
        return build(*args)
    except ValueError as exc:
        return str(exc)


def test_coordinate_split_operator_matches_the_general_decomposition():
    # the diagonal shortcut agrees with the general route, refusals
    # (and their messages) included, on every subset of every small algebra
    checked = refused = 0
    for entry_id in catalog_ids():
        entry = get_entry(entry_id)
        if entry.builder is None or entry.dim > 4:
            continue
        n = get_algebra(entry_id)
        for size in range(n.dim + 1):
            for subset in itertools.combinations(range(n.dim), size):
                rest = [i for i in range(n.dim) if i not in subset]
                expected = _operator_or_refusal(
                    rb_from_decomposition,
                    n,
                    Subspace.spanned_by_coordinates(n.dim, subset),
                    Subspace.spanned_by_coordinates(n.dim, rest),
                )
                assert _operator_or_refusal(rb_from_coordinate_split, n, subset) == expected, (
                    entry_id,
                    subset,
                )
                checked += 1
                refused += isinstance(expected, str)
    assert refused and refused < checked


@pytest.mark.parametrize("index", [-1, 4, 9])
def test_coordinate_split_refuses_an_index_out_of_range(index):
    # -1 would otherwise count from the end and give the split ({}, all)
    n = get_algebra("sl2_plus_C")
    with pytest.raises(ValueError, match=f"coordinate index {index} out of range for dimension 4"):
        rb_from_coordinate_split(n, [index])


def test_rb_from_decomposition_rejects_bad_splits():
    n = get_algebra("L5_1")
    with pytest.raises(ValueError, match="first subspace is not a subalgebra"):
        rb_from_decomposition(
            n,
            Subspace.spanned_by_coordinates(5, (0, 1)),
            Subspace.spanned_by_coordinates(5, (2, 3, 4)),
        )
    with pytest.raises(ValueError, match="subspaces are not complementary"):
        rb_from_decomposition(
            n,
            Subspace.spanned_by_coordinates(5, (0, 1, 2)),
            Subspace.spanned_by_coordinates(5, (2, 3, 4)),  # overlaps
        )
    with pytest.raises(ValueError, match="ambient dimension differs"):
        rb_from_decomposition(
            n, Subspace.spanned_by_coordinates(4, (0, 1)), Subspace.spanned_by_coordinates(4, (2, 3))
        )


def test_rb_from_decomposition_on_oblique_subalgebras():
    # r2 = span(e1, e2) with [e1,e2]=e1: split along e1 and e1+e2
    r2 = LieAlgebra.from_table(2, {(0, 1): {0: 1}})
    first = Subspace.from_vectors(2, [(1, 0)])
    second = Subspace.from_vectors(2, [(1, 1)])
    op = rb_from_decomposition(r2, first, second)
    assert verify_rb(r2, op).ok
    assert op.apply((1, 0)) == (F(0), F(0))
    assert op.apply((1, 1)) == (F(-1), F(-1))


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_rb_from_decomposition_matches_the_change_of_basis_formula(data):
    # on an abelian algebra every subspace is a subalgebra, so any split of
    # an invertible matrix's columns is a valid decomposition
    d = data.draw(st.integers(min_value=1, max_value=5), label="dim")
    entry = st.one_of(st.just(F(0)), st.fractions(min_value=-3, max_value=3, max_denominator=4))
    columns = data.draw(
        st.lists(st.tuples(*[entry] * d), min_size=d, max_size=d), label="columns"
    )
    assume(linalg.rank(columns) == d)
    k = data.draw(st.integers(min_value=0, max_value=d), label="split")
    first, second = columns[:k], columns[k:]
    op = rb_from_decomposition(
        LieAlgebra.abelian(d), Subspace.from_vectors(d, first), Subspace.from_vectors(d, second)
    )
    assert op.matrix == decomposition_operator_reference(first, second)


def test_descendent_of_split_operator_is_the_direct_sum():
    n = get_algebra("L5_1")
    op = get_sample("reductive_over_perfect").operator
    desc = descendent_bracket(n, op)
    # blocks span(e1,e2,e3) and span(e4,e5) with the second negated: the
    # cross terms vanish and the result is a direct-sum bracket
    for i in range(3):
        for j in range(3, 5):
            assert desc.brackets[i][j] == (F(0),) * 5


def test_product_from_left_action_builds_the_two_block_witness():
    heis = LieAlgebra.from_table(3, {(0, 1): {2: 1}})
    b = linalg.mat([[-1, 0, 0], [0, 1, 0], [1, 0, 0]])
    zero_m = linalg.zero_matrix(3, 3)
    pairs = (
        ((F(1), F(0), F(0)), zero_m),
        ((F(0), F(1), F(0)), b),
        ((F(0), F(0), F(1)), zero_m),
    )
    product = product_from_left_action(heis, pairs)
    assert product.sparse_table() == {(1, 0): {0: F(-1), 2: F(1)}, (1, 1): {1: F(1)}}
    g = induced_bracket(heis, product)
    assert verify_pa(g, heis, product).ok
    assert g.derived_subalgebra().dim == 1
    assert g.center().dim == 1


def test_product_from_left_action_error_paths():
    heis = LieAlgebra.from_table(3, {(0, 1): {2: 1}})
    zero_m = linalg.zero_matrix(3, 3)
    not_der = linalg.mat([[1, 0, 0], [0, 1, 0], [0, 0, 1]])  # id is not one here
    e = lambda k: tuple(F(1) if i == k else F(0) for i in range(3))
    with pytest.raises(ValueError, match="matrix in pair 0 is not a derivation"):
        product_from_left_action(
            heis, ((e(0), not_der), (e(1), zero_m), (e(2), zero_m))
        )
    with pytest.raises(ValueError, match="first components of the pairs do not span"):
        product_from_left_action(
            heis, ((e(0), zero_m), (e(0), zero_m), (e(2), zero_m))
        )
    with pytest.raises(ValueError, match="need exactly dim pairs"):
        product_from_left_action(heis, ((e(0), zero_m),))
    with pytest.raises(ValueError, match="first component of pair 1 does not have length 3"):
        product_from_left_action(
            heis, ((e(0), zero_m), (e(1)[:2], zero_m), (e(2), zero_m))
        )


def test_double_embedding_criterion():
    s = get_algebra("sl2")
    ident = linalg.identity(3)
    zero_m = linalg.zero_matrix(3, 3)
    good = DoubleEmbedding.from_rows(ident, zero_m)
    assert verify_double_embedding(good, s, s)
    degenerate = DoubleEmbedding.from_rows(ident, ident)  # difference not invertible
    assert not verify_double_embedding(degenerate, s, s)
    # sl2 in the basis of the columns of p, whose brackets have several
    # nonzero coordinates: p is an isomorphism onto sl2, the identity is not
    p = linalg.mat([[1, 1, 0], [0, 1, 1], [1, 0, 1]])
    cols, inverse = linalg.transpose(p), linalg.inverse(p)
    moved = LieAlgebra.from_table(3, {
        (i, j): dict(enumerate(linalg.matvec(inverse, s.bracket(cols[i], cols[j]))))
        for i, j in itertools.combinations(range(3), 2)
    })
    assert verify_double_embedding(DoubleEmbedding.from_rows(zero_m, p), moved, s)
    assert not verify_double_embedding(good, moved, s)
    heis = LieAlgebra.from_table(3, {(0, 1): {2: 1}})
    with pytest.raises(NotSemisimpleError):
        verify_double_embedding(good, heis, heis)
    with pytest.raises(ValueError):
        DoubleEmbedding.from_rows(ident, [[0, 0], [0, 0]])


def test_zero_product_verifies_exactly_when_brackets_match():
    s = get_algebra("sl2")
    zero = PAProduct.zero(3)
    assert verify_pa(s, s, zero).ok
    assert not verify_pa(get_algebra("abelian_3"), s, zero).ok
    assert zero.is_zero()
    assert not get_sample("solvable_over_perfect").product.is_zero()


# ----------------------------------------------------------------------
# axiom (2): the one residual routine against the definition
# ----------------------------------------------------------------------


@functools.cache
def _verified_triples():
    return tuple(
        (sample.g_bracket(), sample.n(), sample.product)
        for sample in map(get_sample, sample_ids())
    )


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_axiom2_residuals_match_the_definition(data):
    # a verified sample product, changed in a few random coefficients (or
    # in none, so both outcomes of the check are drawn)
    g, n, product = data.draw(st.sampled_from(_verified_triples()), label="sample")
    candidate = _perturbed_product(data, product, "changes")
    expected = axiom2_reference(g, candidate)
    assert verify_pa(g, n, candidate).axiom2 == expected
    assert tuple(axiom2_residuals(g, candidate)) == expected


# ----------------------------------------------------------------------
# the bilinear kernel against the definitions
# ----------------------------------------------------------------------

KERNEL_IDS = ("sl2", "n3", "r2_plus_C", "gl2", "r2_plus_r2", "L5_1", "sl2_plus_C2", "n5")
small = st.fractions(min_value=-2, max_value=2, max_denominator=3)
entry = st.one_of(st.just(F(0)), small)


def _perturbed_bracket(data, alg, label):
    """``alg`` with up to two antisymmetric entries of its bracket changed."""
    d = alg.dim
    pairs = [(i, j) for i in range(d) for j in range(i + 1, d)]
    changes = data.draw(
        st.dictionaries(
            st.tuples(st.sampled_from(pairs), st.integers(0, d - 1)), small, max_size=2
        ),
        label=label,
    )
    table = {key: dict(cell) for key, cell in alg.sparse_table().items()}
    for ((i, j), k), c in changes.items():
        cell = table.setdefault((i, j), {})
        cell[k] = cell.get(k, 0) + c
    return LieAlgebra.from_table(d, table)


def _perturbed_product(data, product, label):
    """A copy of ``product`` with up to three entries of its tensor changed."""
    d = product.dim
    index = st.integers(0, d - 1)
    changes = data.draw(
        st.dictionaries(st.tuples(index, index, index), small, max_size=3), label=label
    )
    table = product.sparse_table()
    for (i, j, k), c in changes.items():
        cell = table.setdefault((i, j), {})
        cell[k] = cell.get(k, 0) + c
    return PAProduct.from_table(d, table)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_bracket_and_product_match_the_bilinear_definition(data):
    alg = _perturbed_bracket(data, get_algebra(data.draw(st.sampled_from(KERNEL_IDS))), "bracket")
    d = alg.dim
    product = _perturbed_product(data, PAProduct.zero(d), "product")
    x, y = (data.draw(st.lists(entry, min_size=d, max_size=d)) for _ in range(2))
    assert alg.bracket(x, y) == bilinear_reference(alg.brackets, x, y)
    assert product.apply(x, y) == bilinear_reference(product.tensor, x, y)
    columns = [bilinear_reference(product.tensor, x, alg.basis_vector(j)) for j in range(d)]
    assert product.left_mult(x) == linalg.transpose(columns)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_verify_pa_residuals_match_the_definitions(data):
    # a verified sample triple with its two brackets and its product each
    # changed in a few coefficients (or in none, so both outcomes are drawn)
    g, n, product = data.draw(st.sampled_from(_verified_triples()), label="sample")
    g = _perturbed_bracket(data, g, "g")
    n = _perturbed_bracket(data, n, "n")
    product = _perturbed_product(data, product, "product")
    report = verify_pa(g, n, product)
    assert report.axiom1 == axiom1_reference(g, n, product)
    assert induced_bracket(n, product).brackets == induced_reference(n, product)
    assert report.axiom2 == axiom2_reference(g, product)
    assert report.axiom3 == axiom3_reference(n, product)


@functools.cache
def _operator_sources():
    shipped = tuple(
        (sample.n(), sample.operator.matrix)
        for sample in map(get_sample, sample_ids())
        if sample.operator is not None
    )
    return shipped + tuple((get_algebra(alg_id), None) for alg_id in KERNEL_IDS)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_operator_functions_match_the_definitions(data):
    # a shipped weight-one operator or a random matrix, changed in a few
    # entries, on a perturbed bracket, at weight 0, 1 or -1/2
    n, matrix = data.draw(st.sampled_from(_operator_sources()), label="source")
    d = n.dim
    if matrix is None:
        matrix = data.draw(
            st.lists(st.lists(entry, min_size=d, max_size=d), min_size=d, max_size=d),
            label="matrix",
        )
    else:
        n = _perturbed_bracket(data, n, "n")
        changes = data.draw(
            st.dictionaries(st.tuples(st.integers(0, d - 1), st.integers(0, d - 1)), small, max_size=2),
            label="changes",
        )
        matrix = [list(row) for row in matrix]
        for (r, c), value in changes.items():
            matrix[r][c] += value
    weight = data.draw(st.sampled_from((F(0), F(1), F(-1, 2))), label="weight")
    op = RBOperator.from_rows(matrix, weight=weight)
    assert verify_rb(n, op).residuals == operator_residual_reference(n, op.matrix, weight)
    assert descendent_bracket(n, op).brackets == descendent_reference(n, op.matrix, weight)
    if weight == 1:
        assert pa_from_rb(n, op).tensor == operator_product_reference(n, op.matrix)
