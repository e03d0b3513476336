"""Staged product search: linear feasibility, splitting witnesses, and the
bounded grid stage, pinned against independently computed oracles."""

import functools
import hashlib
import itertools
import json
import pathlib
import random
import subprocess
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from postlie import interchange, search, structures, table
from postlie.catalog import (
    FINGERPRINT_COLLISIONS,
    catalog_ids,
    get_algebra,
    get_entry,
    perfect_ids,
)
from postlie.certificates import EXISTS, NOT_EXISTS, UNKNOWN
from postlie.liealg import LieAlgebra
from postlie.rules import applicable_rule, nonexistence_certificate
from postlie.samples import get_sample, sample_ids
from postlie.search import (
    LINEAR_INFEASIBLE_RULE,
    UNIQUE_SOLUTION_FAILS_RULE,
    SolutionSpace,
    _axiom2_holds,
    _coordinate_scale,
    _grid_start,
    _grid_step,
    _homomorphism_equations,
    _split_descends,
    _splitting_order,
    pa_linear_space,
    pa_search,
)
from postlie.structures import (
    PAProduct,
    axiom2_residuals,
    descendent_bracket,
    induced_bracket,
    rb_from_coordinate_split,
    verify_pa,
)

from oracles import (
    NON_LIE_TABLE,
    axiom2_reference,
    gauss_consistent,
    raw_linear_system,
    s3_reference,
    split_descends_reference,
)

F = Fraction


# ----------------------------------------------------------------------
# S1: linear solution spaces
# ----------------------------------------------------------------------


@pytest.mark.parametrize("n_dim,expected", [(1, 1), (2, 6), (3, 18), (4, 40)])
def test_abelian_pair_linear_dimension(n_dim, expected):
    # both brackets zero: the coupling axiom forces symmetry and nothing
    # else survives, so the space is the symmetric products, n^2(n+1)/2
    flat = get_algebra(f"abelian_{n_dim}")
    space = pa_linear_space(flat, flat)
    assert not space.is_empty
    assert space.dimension == expected
    _, free = gauss_consistent(*raw_linear_system(flat, flat))
    assert free == expected


def test_solution_space_contains_shipped_products():
    for sample_id in ("solvable_over_perfect", "reductive_over_perfect"):
        sample = get_sample(sample_id)
        n = sample.n()
        space = pa_linear_space(sample.g_bracket(), n)
        assert space.contains(sample.product)


def _flat(product):
    return [x for plane in product.tensor for cell in plane for x in cell]


def _raw_rows_hold(rows, rhs, product):
    flat = _flat(product)
    return all(
        sum((x * flat[t] for t, x in row), F(0)) == b for row, b in zip(rows, rhs)
    )


def _perturbed(product, index):
    d = product.dim
    table = product.sparse_table()
    cell = table.setdefault((index // d // d, index // d % d), {})
    cell[index % d] = cell.get(index % d, 0) + 1
    return PAProduct.from_table(d, table)


@pytest.mark.parametrize("sample_id", sample_ids())
def test_membership_agrees_with_the_raw_system(sample_id):
    # a product lies in the space exactly when every raw linear row holds;
    # a shifted diagonal coefficient a[i][i][k] keeps axiom (1) and can stay
    # inside, any other shift breaks it
    sample = get_sample(sample_id)
    g, n = sample.g_bracket(), sample.n()
    space = pa_linear_space(g, n)
    dense_rows, rhs = raw_linear_system(g, n)
    rows = [[(t, x) for t, x in enumerate(row) if x] for row in dense_rows]
    d = n.dim
    diagonal = [(i * d + i) * d + k for i in range(d) for k in range(d)]
    verdicts = []
    for product in [sample.product] + [
        _perturbed(sample.product, t) for t in diagonal + list(range(1, d**3, 7))
    ]:
        verdicts.append(space.contains(product))
        assert verdicts[-1] == _raw_rows_hold(rows, rhs, product)
    assert verdicts[0] and not all(verdicts)


def test_product_at_reconstructs_points():
    flat = get_algebra("abelian_2")
    space = pa_linear_space(flat, flat)
    product = space.product_at([1, 0, 0, 0, 0, 2])
    assert space.contains(product)
    with pytest.raises(ValueError):
        space.product_at([1])


@functools.cache
def _wide_space():
    # 60 free parameters: the widest space the recorded search pairs reach
    return pa_linear_space(get_algebra("sl2_plus_C2"), get_algebra("scaling5"))


small_fraction = st.fractions(min_value=F(-3), max_value=F(3), max_denominator=5)
coefficient = st.one_of(
    st.integers(min_value=-3, max_value=3),
    small_fraction,
    small_fraction.map(lambda q: f"{q.numerator}/{q.denominator}"),
)


@settings(max_examples=25, deadline=None)
@given(st.lists(coefficient, min_size=60, max_size=60))
def test_product_at_matches_the_dense_formula(coefficients):
    # e_i . e_j is column j of L(e_i) = sum_alpha x[i][alpha] D_alpha, read
    # here from the dense derivation matrices of n
    space = _wide_space()
    assert space.dimension == 60
    d = space.dim
    ders = get_algebra("scaling5").derivations()
    nder = len(ders)
    x = [F(0)] * (d * nder)
    for col, y in space.particular.items():
        x[col] = y
    for c, vec in zip(coefficients, space.basis):
        for col, y in vec.items():
            x[col] += F(c) * y
    expected = tuple(
        tuple(
            tuple(sum((x[i * nder + a] * ders[a][k][j] for a in range(nder)), F(0)) for k in range(d))
            for j in range(d)
        )
        for i in range(d)
    )
    assert space.product_at(coefficients).tensor == expected


@settings(max_examples=15, deadline=None)
@given(st.lists(coefficient, min_size=60, max_size=60))
def test_axiom2_check_on_the_wide_space_matches_the_definition(coefficients):
    g, n = get_algebra("sl2_plus_C2"), get_algebra("scaling5")
    candidate = _wide_space().product_at(coefficients)
    expected = axiom2_reference(g, candidate)
    assert verify_pa(g, n, candidate).axiom2 == expected
    assert tuple(axiom2_residuals(g, candidate)) == expected


def test_linear_infeasible_pair_is_verified_negative():
    g = get_algebra("n3_plus_r2")
    n = get_algebra("L5_1")
    space = pa_linear_space(g, n)
    assert space.is_empty
    assert space.dimension is None
    cert = pa_search(g, n, g_name="n3_plus_r2", n_name="L5_1")
    assert cert.verdict == NOT_EXISTS
    assert cert.rule_id == LINEAR_INFEASIBLE_RULE
    assert cert.exit_code == 1
    # independent elimination agrees the raw system is inconsistent
    consistent, _ = gauss_consistent(*raw_linear_system(g, n))
    assert not consistent


def test_raw_oracle_agrees_on_a_feasible_pair():
    sample = get_sample("solvable_over_perfect")
    consistent, free = gauss_consistent(
        *raw_linear_system(sample.g_bracket(), sample.n())
    )
    assert consistent
    space = pa_linear_space(sample.g_bracket(), sample.n())
    assert space.dimension == free


# ----------------------------------------------------------------------
# S2: splitting witnesses
# ----------------------------------------------------------------------


def test_identical_pair_hits_the_zero_product_immediately():
    for entry_id in ("L5_1", "L6_2", "L7_6", "L9_59"):
        g = get_algebra(entry_id)
        cert = pa_search(g, g, g_name=entry_id, n_name=entry_id)
        assert cert.verdict == EXISTS
        assert cert.subsets_checked == 1
        assert cert.operator is not None


def test_split_witness_positions_follow_subset_order():
    # subsets are enumerated largest first, then lexicographically; the
    # kernel {e1,e4,e5} sits at position 12 and {e1,e2,e3} at position 7
    n = get_algebra("L5_1")
    solvable = get_sample("solvable_over_perfect")
    cert = pa_search(solvable.g_bracket(), n)
    assert cert.verdict == EXISTS
    assert cert.subsets_checked == 12
    assert cert.operator is not None

    reductive = get_sample("reductive_over_perfect")
    cert2 = pa_search(reductive.g_bracket(), n)
    assert cert2.verdict == EXISTS
    assert cert2.subsets_checked == 7


def test_split_witnesses_reverify():
    n = get_algebra("L5_1")
    sample = get_sample("solvable_over_perfect")
    cert = pa_search(sample.g_bracket(), n)
    witness = cert.witness
    assert verify_pa(sample.g_bracket(), n, witness).ok
    assert induced_bracket(n, witness) == sample.g_bracket()


def _descendents(n):
    """The descendent bracket of every coordinate splitting of ``n`` into
    two subalgebras."""
    found = []
    for subset in _splitting_order(n.dim):
        try:
            op = rb_from_coordinate_split(n, subset)
        except ValueError:  # a part is not a subalgebra
            continue
        found.append(descendent_bracket(n, op))
    return found


def test_split_predicate_agrees_with_the_reference_route():
    small = [
        get_algebra(i)
        for i in catalog_ids()
        if get_entry(i).kind != "stub" and get_algebra(i).dim <= 4
    ]
    for n in small:
        # same-dimension catalog algebras, then each descendent of n (a
        # positive for its own splitting), each bracket tensor once
        candidates = {a.brackets: a for a in small if a.dim == n.dim}
        descendents = _descendents(n)
        for desc in descendents:
            candidates.setdefault(desc.brackets, desc)
        for g in candidates.values():
            for subset in _splitting_order(n.dim):
                expected = split_descends_reference(g, n, subset)
                assert _split_descends(g, n, subset) == expected, (n.name, g.name, subset)
        assert all(
            any(_split_descends(desc, n, s) for s in _splitting_order(n.dim))
            for desc in descendents
        )


def test_a_pair_with_no_coordinate_split_falls_through_to_the_grid():
    # the (complete, simple) grid witness comes from a splitting of sl3 that
    # is not coordinate-aligned: S2 finds nothing in all 2**8 subsets, and
    # the one point of the S1 space is the product
    g, n, _, _ = table._EXISTS[("complete", "simple")].materialize()
    cert = pa_search(g, n)
    assert cert.verdict == EXISTS
    assert cert.subsets_checked == 256
    assert cert.points_checked == 1
    assert cert.linear_dimension == 0
    assert cert.operator is None
    assert verify_pa(g, n, cert.witness).ok


def test_verdicts_of_s1_and_s2_build_no_product_coefficients(monkeypatch):
    # S1 decides (n3_plus_r2, L5_1) and S2 decides (L5_1, L5_1): neither
    # flattens a left multiplication into product coefficients
    pairs = [("n3_plus_r2", "L5_1"), ("L5_1", "L5_1")]
    expected = [pa_search(get_algebra(g_id), get_algebra(n_id)) for g_id, n_id in pairs]
    assert expected[0].rule_id == LINEAR_INFEASIBLE_RULE
    assert expected[1].operator is not None

    def refuse(*args):
        raise AssertionError("product coefficients were built")

    monkeypatch.setattr(search, "_product_entries", refuse)
    monkeypatch.setattr(structures, "_product_entries", refuse)
    got = [pa_search(get_algebra(g_id), get_algebra(n_id)) for g_id, n_id in pairs]
    assert got == expected
    assert [c.as_dict() for c in got] == [c.as_dict() for c in expected]


class _Refused:
    ok = False


@pytest.mark.parametrize(
    "g_id,n_id,budget", [("L5_1", "L5_1", 512), ("r2", "abelian_2", 6000)]
)
def test_a_witness_failing_verification_is_never_issued(
    monkeypatch, g_id, n_id, budget
):
    # S2 hits first on (L5_1, L5_1), S3 on (r2, abelian_2): every candidate
    # passes through the exit's verify_pa, which refuses it here
    refused = []

    def refuse(g, n, product):
        refused.append(product)
        return _Refused()

    monkeypatch.setattr(search, "verify_pa", refuse)
    cert = pa_search(get_algebra(g_id), get_algebra(n_id), budget=budget)
    assert refused
    assert cert.verdict != EXISTS
    assert cert.witness is None and cert.operator is None


# ----------------------------------------------------------------------
# S3: bounded grid stage
# ----------------------------------------------------------------------


def test_grid_stage_finds_a_deep_witness():
    g = get_algebra("r2")
    n = get_algebra("abelian_2")
    cert = pa_search(g, n, budget=6000, g_name="r2", n_name="abelian_2")
    assert cert.verdict == EXISTS
    assert cert.points_checked == 5067
    assert cert.linear_dimension == 6
    witness = cert.witness
    assert verify_pa(g, n, witness).ok


def test_budget_exhaustion_is_honest_unknown():
    g = get_algebra("r2")
    n = get_algebra("abelian_2")
    cert = pa_search(g, n, budget=100)
    assert cert.verdict == UNKNOWN
    assert cert.exit_code == 2
    assert cert.points_checked == 100

    cert2 = pa_search(get_algebra("r2_plus_C"), get_algebra("n3"), budget=800)
    assert cert2.verdict == UNKNOWN


def test_grid_height_changes_the_lattice():
    g = get_algebra("r2")
    n = get_algebra("abelian_2")
    # height 1 lattice is 3^6 = 729 points and does contain a witness
    cert = pa_search(g, n, budget=729, grid_height=1)
    assert cert.verdict == EXISTS
    witness = cert.witness
    assert verify_pa(g, n, witness).ok


def _r2_scaled(c):
    return LieAlgebra.from_table(2, {(0, 1): {1: c}}, "r2_scaled")


def _point(space, digits):
    """The dense derivation coordinates ``x`` of the grid point ``digits``."""
    x = [F(0)] * (space.dim * len(space.derivations))
    for c, vec in zip([1, *digits], (space.particular, *space.basis)):
        for col, y in vec.items():
            x[col] += c * y
    return x


def _grid_points(space, scale, height, count):
    """The first ``count`` points of the grid (all of them when it has
    fewer), each reached by one step from the point before it."""
    basis, digits, X = _grid_start(space, scale, height)
    for t in range(min(count, (2 * height + 1) ** len(basis))):
        _grid_step(basis, digits, X, height, max(t - 1, 0), t)
        yield digits, X


def _agreement_hits(g, n, space):
    """Check the first 400 grid points at heights 1 and 2: the
    integer coordinates are ``scale * x`` and the integer check of axiom (2)
    agrees with the rational residuals of the product there.  Returns the
    number of points that pass."""
    scale = _coordinate_scale(space)
    hits = 0
    for height in (1, 2):
        equations, pending = [], _homomorphism_equations(g, n, scale)
        for digits, X in _grid_points(space, scale, height, 400):
            assert X == [scale * y for y in _point(space, digits)], (height, digits)
            expected = next(axiom2_residuals(g, space.product_at(digits)), None) is None
            assert _axiom2_holds(X, equations, pending) == expected, (height, digits)
            hits += expected
    return hits


# the recorded pairs whose search reaches S3 (pinned by the test below)
RECORDED_S3_PAIRS = (
    ("n3", "abelian_3"),
    ("n3", "r2_plus_C"),
    ("r2", "abelian_2"),
    ("r2_plus_C", "n3"),
    ("gl2", "abelian_4"),
    ("sl2_plus_C2", "n3_plus_C2"),
    ("sl2_plus_C2", "scaling5"),
    ("r2_plus_r2", "n3_plus_C"),
    ("b3_plus_sl2", "sl3"),
    ("r2_plus_r2_plus_r2", "sl2_plus_sl2"),
    ("r2_plus_r2", "sl2_plus_C"),
    ("sl2_plus_r2", "L5_1"),
    ("L5_1", "sl2_plus_C2"),
    ("so3", "sl2"),
    ("sl2", "so3"),
)


def _recorded_pair(g_id, n_id):
    pairs = json.loads(SEARCH_PAIRS.read_text(encoding="utf-8"))
    for pair in pairs:
        g = interchange.parse_document(pair["g"]).value
        n = interchange.parse_document(pair["n"]).value
        if (g.name, n.name) == (g_id, n_id):
            return g, n
    raise KeyError((g_id, n_id))


def test_the_recorded_s3_pairs_are_those_whose_search_reaches_s3():
    reached = []
    for pair in json.loads(SEARCH_PAIRS.read_text(encoding="utf-8")):
        g = interchange.parse_document(pair["g"]).value
        n = interchange.parse_document(pair["n"]).value
        cert = pa_search(g, n, budget=pair["budget"])
        if cert.trace[-1].startswith("stage S3") and (g.name, n.name) not in reached:
            reached.append((g.name, n.name))
    assert tuple(reached) == RECORDED_S3_PAIRS


@pytest.mark.parametrize("c", [F(1, 2), F(2, 3)])
def test_integer_check_agrees_with_the_rational_residuals(c):
    # the S1 coordinates carry g's denominator: the scale clears it
    g, n = _r2_scaled(c), get_algebra("abelian_2")
    space = pa_linear_space(g, n)
    assert _coordinate_scale(space) == c.denominator
    assert _agreement_hits(g, n, space)


@pytest.mark.parametrize("g_id,n_id", RECORDED_S3_PAIRS, ids=[f"{g}/{n}" for g, n in RECORDED_S3_PAIRS])
def test_integer_check_agrees_on_every_recorded_s3_pair(g_id, n_id):
    g, n = _recorded_pair(g_id, n_id)
    _agreement_hits(g, n, pa_linear_space(g, n))


def test_integer_check_clears_the_denominators_of_g_in_each_equation():
    # integer coordinates on all four matrix units of Der(abelian_2), so
    # the scale is 1 and only an equation's own multiplier clears the 1/3
    # of g.  L(e_2) = 3 [L(e_1), L(e_2)] has integer entries of size at most
    # 2 only at L(e_2) = 0, the middle point of each block of 3**4 (height
    # 1) or 5**4 (height 2) points: five hits and one in the first 400
    g, n = _r2_scaled(F(1, 3)), get_algebra("abelian_2")
    units = tuple({col: F(1)} for col in range(8))
    space = SolutionSpace(dim=2, derivations=n._derivations, particular={}, basis=units)
    assert _coordinate_scale(space) == 1
    assert _agreement_hits(g, n, space) == 6


def test_the_odometer_steps_through_every_carry():
    # three free parameters in derivation coordinates on abelian_2, whose
    # derivation basis is the four matrix units: x[i][alpha] at column
    # 4*i + alpha, with overlapping supports and denominators 2, 3, 6.
    # Point t of the grid has the base-(2h+1) digits of t, less h; every
    # point is reached by one step from the point before it, and by a jump
    # from each earlier point to the end of its block of (2h+1)**k points
    flat = get_algebra("abelian_2")
    space = SolutionSpace(
        dim=2,
        derivations=flat._derivations,
        particular={1: F(1, 3), 6: F(-1, 2)},
        basis=({0: F(1), 3: F(2, 3)}, {3: F(1, 2), 5: F(-1)}, {0: F(1, 6), 7: F(4)}),
    )
    scale = _coordinate_scale(space)
    assert scale == 6
    for height in (1, 2):
        base = 2 * height + 1

        def check(t, digits, X):
            decoded = [t // base**2 - height, t // base % base - height, t % base - height]
            assert digits == decoded, (height, t)
            assert all(type(y) is int for y in X)
            assert X == [scale * y for y in _point(space, decoded)], (height, t)

        count = jumps = 0
        for t, (digits, X) in enumerate(_grid_points(space, scale, height, base**3)):
            check(t, digits, X)
            count += 1
            for k in (1, 2):
                end = -(-(t + 1) // base**k) * base**k
                if end < base**3:
                    basis = _grid_start(space, scale, height)[0]
                    jumped, at_end = list(digits), list(X)
                    _grid_step(basis, jumped, at_end, height, t, end)
                    check(end, jumped, at_end)
                    jumps += 1
        assert count == base**3
        assert jumps == 2 * base**3 - base**2 - base


def test_the_integer_scale_clears_only_the_coordinates():
    # f23's derivation basis has denominator 3, and so do some of its
    # structure constants: each equation's own multiplier clears those,
    # and the scale clears only the coordinates.  The S1 space of
    # (abelian_5, f23) has coordinates with denominator 2; the second space
    # has integer coordinates on D_0, D_3, D_4 and D_9 (of the ten,
    # x[i][alpha] at column 10*i + alpha), so its scale is 1.  At its points
    # L(e_1) = D_3, L(e_2) = t D_0, [D_3, D_0] = D_0 / 3 is the one nonzero
    # commutator, which an equation that drops the third reads as zero
    g, n = get_algebra("abelian_5"), get_algebra("f23")
    d = n.dim
    solved = pa_linear_space(g, n)
    built = SolutionSpace(
        dim=d,
        derivations=n._derivations,
        particular={3: F(1)},
        basis=({9: F(1)}, {13: F(-2)}, {19: F(1), 4: F(1)}, {10: F(1)}),
    )
    assert n._derivation_constants[0][0] == ((0, 3), F(-1, 3))
    for space, expected_scale in ((solved, 2), (built, 1)):
        assert _coordinate_scale(space) == expected_scale
        _agreement_hits(g, n, space)


def _homomorphism_residual(g, n, x):
    """``L[e_i, e_j] - [L e_i, L e_j]`` at the derivation coordinates ``x``,
    in the basis of ``Der(n)`` through its cached structure constants: the
    nonzero ``{(i, j, gamma): r}``."""
    nder = len(n._derivations)
    out = {}
    for i, j in itertools.combinations(range(g.dim), 2):
        for gamma, terms in enumerate(n._derivation_constants):
            r = sum((c * x[k * nder + gamma] for k, c in g.cells[i][j]), F(0))
            for (a, b), c in terms:
                r -= c * (x[i * nder + a] * x[j * nder + b] - x[i * nder + b] * x[j * nder + a])
            if r:
                out[i, j, gamma] = r
    return out


def test_the_homomorphism_residual_is_the_axiom2_residual():
    # at seeded random S1 points of the catalog pairs up to dimension 5 (and
    # at each particular solution), sum_gamma r[i][j][gamma] D_gamma, read
    # column by column, is the residual of axiom (2) from the definition
    ids = [i for i in catalog_ids() if get_entry(i).kind != "stub" and get_algebra(i).dim <= 5]
    rng = random.Random(17)
    outcomes = set()
    for g_id, n_id in itertools.product(ids, repeat=2):
        g, n = get_algebra(g_id), get_algebra(n_id)
        if g.dim != n.dim or (space := pa_linear_space(g, n)).is_empty:
            continue
        d, ders = n.dim, n.derivations()
        digits = [rng.choice((-1, 0, 1, F(1, 2), F(-2, 3))) for _ in space.basis]
        for point in ([0] * len(space.basis), digits):
            residual = _homomorphism_residual(g, n, _point(space, point))
            reference = dict(axiom2_reference(g, space.product_at(point)))
            for i, j in itertools.combinations(range(d), 2):
                for k in range(d):
                    column = tuple(
                        sum((r * ders[gamma][row][k] for (a, b, gamma), r in residual.items() if (a, b) == (i, j)), F(0))
                        for row in range(d)
                    )
                    assert column == reference.get((i, j, k), (F(0),) * d), (g_id, n_id, point)
            assert (not residual) == (not reference)
            outcomes.add(not residual)
    assert outcomes == {True, False}


def test_an_unknown_grid_run_builds_no_product_coefficients(monkeypatch):
    # S3 checks each point in derivation coordinates: a run that ends
    # without a hit never flattens a left multiplication
    calls = []

    def count(*args):
        calls.append(args)
        return structures._product_entries(*args)

    monkeypatch.setattr(search, "_product_entries", count)
    cert = pa_search(get_algebra("n3"), get_algebra("abelian_3"))
    assert cert.verdict == UNKNOWN
    assert cert.points_checked == 512
    assert calls == []


def test_a_budget_below_the_grid_size_checks_exactly_that_many_points(monkeypatch):
    calls = []
    check = search._axiom2_holds
    monkeypatch.setattr(search, "_axiom2_holds", lambda *args: calls.append(args) or check(*args))
    # the first hit of this grid is point #38
    cert = pa_search(_r2_scaled(F(1, 2)), get_algebra("abelian_2"), budget=20, grid_height=1)
    assert cert.verdict == UNKNOWN
    assert cert.points_checked == 20
    # the equation that rejects point #1, and every point after it, reads no
    # coordinate of the last basis vector, so each evaluation rules out the
    # rest of its block of 3 points that differ only in the last digit:
    # points #1, #4, ..., #19 are evaluated, #2-3, #5-6, ..., #17-18 and #20
    # are skipped, and the budget cuts the block of #19 short
    assert len(calls) == 7
    assert cert.trace[-1] == (
        "stage S3: budget of 20 grid points exhausted (grid height 1, 6 free parameters)"
    )


@pytest.mark.parametrize("height", [0, 1, 2, 3])
def test_the_block_skip_leaves_every_grid_outcome_as_the_point_by_point_scan(height):
    reached = 0
    for pair in json.loads(SEARCH_PAIRS.read_text(encoding="utf-8")):
        g = interchange.parse_document(pair["g"]).value
        n = interchange.parse_document(pair["n"]).value
        for budget in (0, 1, 7, 20, 512, 6000):
            cert = pa_search(g, n, budget=budget, grid_height=height)
            if not cert.trace[-1].startswith("stage S3"):
                continue
            reached += 1
            outcome = (cert.verdict, cert.trace[-1], cert.points_checked, cert.witness)
            assert outcome == s3_reference(g, n, budget, height), (g.name, n.name, budget)
    # 16 of the 44 recorded entries reach S3, at every budget
    assert reached == 16 * 6


def test_wide_space_exhausts_the_default_budget():
    cert = pa_search(get_algebra("sl2_plus_C2"), get_algebra("scaling5"))
    assert cert.verdict == UNKNOWN
    assert cert.points_checked == 512
    assert cert.subsets_checked == 32
    assert cert.trace == (
        "stage S1: linear axioms admit an affine solution space of dimension 60",
        "stage S2: all 32 coordinate splittings checked, no matching "
        "complementary-subalgebra witness (only coordinate-aligned splittings "
        "are enumerated, so this stage alone is not evidence of non-existence)",
        "stage S3: budget of 512 grid points exhausted (grid height 2, "
        "60 free parameters)",
    )


@pytest.mark.parametrize("bounds", [{"budget": -5}, {"grid_height": -3}])
def test_negative_search_bounds_are_rejected(bounds):
    g = get_algebra("r2")
    n = get_algebra("abelian_2")
    with pytest.raises(ValueError, match="non-negative"):
        pa_search(g, n, **bounds)


@pytest.mark.parametrize(
    "name,value", [("budget", 2.5), ("budget", True), ("grid_height", 1.5), ("grid_height", "2")]
)
def test_non_integer_search_bounds_are_rejected(name, value):
    g = get_algebra("r2")
    n = get_algebra("abelian_2")
    with pytest.raises(ValueError, match=f"^{name} must be an int, got {value!r}$"):
        pa_search(g, n, **{name: value})


def _limit_memory():
    # a 1 GB address-space limit turns a materialized grid axis into a
    # failure of the child, not a multi-gigabyte allocation
    import resource

    resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))


def test_a_huge_grid_height_stops_at_the_budget_without_allocating():
    script = (
        "import json\n"
        "from postlie.catalog import get_algebra\n"
        "from postlie.search import pa_search\n"
        "cert = pa_search(get_algebra('r2'), get_algebra('abelian_2'), "
        "budget=5, grid_height=100000000)\n"
        "print(json.dumps(cert.as_dict()))\n"
    )
    cli_args = ("search", "pa", "--g", "r2", "--n", "abelian_2")
    cli_args += ("--grid-height", "100000000", "--budget", "5", "--json")
    runs = {
        "api": ([sys.executable, "-c", script], 0),
        "cli": ([sys.executable, "-m", "postlie.cli", *cli_args], 2),
    }
    for label, (argv, code) in runs.items():
        result = subprocess.run(
            argv, capture_output=True, text=True, preexec_fn=_limit_memory, timeout=60
        )
        assert result.returncode == code, (label, result.stderr)
        doc = json.loads(result.stdout)
        assert doc["verdict"] == UNKNOWN
        assert doc["points_checked"] == 5
        assert doc["trace"][-1] == (
            "stage S3: budget of 5 grid points exhausted "
            "(grid height 100000000, 6 free parameters)"
        )


def test_a_dim_24_abelian_pair_is_decided_within_the_memory_limit(tmp_path):
    # 576 derivations, 13824 unknowns and a 7200-dimensional solution space:
    # S1 and the solution space stay sparse, and S2 hits on its first subset
    document = tmp_path / "abelian_24.json"
    document.write_text(json.dumps({"kind": "algebra", "dim": 24, "entries": []}))
    argv = [sys.executable, "-m", "postlie.cli", "search", "pa"]
    argv += ["--g", str(document), "--n", str(document), "--json"]
    result = subprocess.run(
        argv, capture_output=True, text=True, preexec_fn=_limit_memory, timeout=60
    )
    assert result.returncode == 0, result.stderr
    doc = json.loads(result.stdout)
    assert doc["verdict"] == EXISTS
    assert doc["linear_dimension"] == 7200
    assert doc["subsets_checked"] == 1


# ----------------------------------------------------------------------
# certificates hold for the literal pair they name
# ----------------------------------------------------------------------


def _literal_pairs():
    pairs = [("so3", "sl2"), ("sl2", "so3"), ("gl2", "sl2_plus_C"), ("sl2_plus_C", "gl2")]
    for group in sorted(FINGERPRINT_COLLISIONS, key=sorted):
        pairs.extend(itertools.permutations(sorted(group), 2))
    return pairs


@pytest.mark.parametrize("g_id,n_id", _literal_pairs())
def test_every_exists_witness_verifies_on_the_literal_pair(g_id, n_id):
    g, n = get_algebra(g_id), get_algebra(n_id)
    cert = pa_search(g, n)
    if cert.verdict == EXISTS:
        assert verify_pa(g, n, cert.witness).ok


@pytest.mark.parametrize("g_id,n_id", [("so3", "sl2"), ("sl2", "so3")])
def test_invariant_equal_but_distinct_algebras_get_no_split_witness(g_id, n_id):
    # so3 and sl2 share every fingerprint invariant but are not isomorphic
    # over Q; a split of n whose descendent is only invariant-equal to g
    # is not a structure on (g, n)
    cert = pa_search(get_algebra(g_id), get_algebra(n_id))
    assert cert.verdict != EXISTS
    assert cert.witness is None and cert.operator is None


@pytest.mark.parametrize("g_id,n_id", [("so3", "sl2"), ("sl2", "so3")])
def test_unique_linear_solution_failing_axiom2_is_not_exists(g_id, n_id):
    # the linear axioms leave no free parameter, so the one S3 point is the
    # whole solution set over every field; it fails axiom (2)
    g, n = get_algebra(g_id), get_algebra(n_id)
    cert = pa_search(g, n)
    assert cert.verdict == NOT_EXISTS
    assert cert.rule_id == UNIQUE_SOLUTION_FAILS_RULE
    assert cert.justification
    assert cert.points_checked == 1 and cert.linear_dimension == 0
    assert cert.witness is None and cert.operator is None
    assert cert.trace[-1] == (
        "stage S3: the single solution of the linear axioms fails the "
        "quadratic axiom (2)"
    )
    # with no grid point allowed, nothing was checked: the verdict stays open
    assert pa_search(g, n, budget=0).verdict == UNKNOWN


# ----------------------------------------------------------------------
# byte stability of the recorded search outputs
# ----------------------------------------------------------------------

SEARCH_PAIRS = (
    pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "data" / "search_pairs.json"
)
# sha256 over json.dumps(cert.as_dict(), sort_keys=True) + "\n" for the
# recorded pairs in file order.  A change that alters any search output
# must update this pin and say why.
SEARCH_CERTIFICATES_SHA256 = (
    "9d7a5c9f0f3ecd3e9c1a02eed6bc46a7444944544bc6c3641c62ea564d04f292"
)


def test_recorded_search_certificates_are_byte_stable():
    pairs = json.loads(SEARCH_PAIRS.read_text(encoding="utf-8"))
    assert len(pairs) == 44
    digest = hashlib.sha256()
    for pair in pairs:
        g = interchange.parse_document(pair["g"]).value
        n = interchange.parse_document(pair["n"]).value
        cert = pa_search(g, n, budget=pair["budget"], g_name=g.name, n_name=n.name)
        digest.update((json.dumps(cert.as_dict(), sort_keys=True) + "\n").encode("utf-8"))
    assert digest.hexdigest() == SEARCH_CERTIFICATES_SHA256


# the same digest over every recorded pair at each (budget, grid_height)
# below, the settings in the outer loop: short and long budgets and the
# three grid heights S3 meets at the default budget
SEARCH_SETTINGS = ((3, 2), (6000, 2), (512, 1), (512, 0))
SEARCH_SETTINGS_SHA256 = (
    "1518643c83eade97e57b00ea038e1ab8cb42b0880b39ca9326f20b293b0d905a"
)


def test_search_certificates_across_budgets_and_heights_are_byte_stable():
    pairs = json.loads(SEARCH_PAIRS.read_text(encoding="utf-8"))
    digest = hashlib.sha256()
    for budget, height in SEARCH_SETTINGS:
        for pair in pairs:
            g = interchange.parse_document(pair["g"]).value
            n = interchange.parse_document(pair["n"]).value
            cert = pa_search(g, n, budget=budget, grid_height=height, g_name=g.name, n_name=n.name)
            digest.update((json.dumps(cert.as_dict(), sort_keys=True) + "\n").encode("utf-8"))
    assert digest.hexdigest() == SEARCH_SETTINGS_SHA256


# sha256 of the rule certificates below; a change that alters a rule
# verdict or its trace must update this pin and say why
RULE_CERTIFICATES_SHA256 = (
    "34109c5e789830720189288e9184605abecf35ade2b57fc3b8cbc9ce9c2a720c"
)


def _catalog_pairs():
    """Every ordered pair of non-stub catalog ids of one dimension, with
    their algebras, in catalog order."""
    ids = [i for i in catalog_ids() if get_entry(i).kind != "stub"]
    for a in ids:
        for b in ids:
            g, n = get_algebra(a), get_algebra(b)
            if g.dim == n.dim:
                yield a, b, g, n


def test_rule_certificates_on_catalog_pairs_are_byte_stable():
    digest = hashlib.sha256()
    pairs = 0
    for a, b, g, n in _catalog_pairs():
        pairs += 1
        cert = nonexistence_certificate(g, n, g_name=a, n_name=b)
        digest.update((json.dumps(cert.as_dict(), sort_keys=True) + "\n").encode("utf-8"))
    assert pairs == 536
    assert digest.hexdigest() == RULE_CERTIFICATES_SHA256


# the same digest over the search certificates of those pairs at the default
# bounds; a change that alters any of them must update this pin and say why
CATALOG_SEARCH_CERTIFICATES_SHA256 = (
    "a2739bbafc2110d16fb4abf35cf2f7c287b33eef3a837223e44ffa262faacd5f"
)


def test_search_certificates_on_catalog_pairs_are_byte_stable():
    digest = hashlib.sha256()
    pairs = 0
    for a, b, g, n in _catalog_pairs():
        pairs += 1
        cert = pa_search(g, n, g_name=a, n_name=b)
        digest.update((json.dumps(cert.as_dict(), sort_keys=True) + "\n").encode("utf-8"))
    assert pairs == 536
    assert digest.hexdigest() == CATALOG_SEARCH_CERTIFICATES_SHA256


def test_every_catalog_search_witness_verifies_and_no_rule_fires_on_its_pair():
    # soundness across the two sides on the 536 pairs: each exists witness
    # passes verify_pa against the pair's own g and n, and a sound rule
    # never fires on a pair that carries a product
    pairs = witnessed = fired = 0
    for a, b, g, n in _catalog_pairs():
        pairs += 1
        cert = pa_search(g, n, g_name=a, n_name=b)
        rule = applicable_rule(g, n)
        fired += rule is not None
        if cert.verdict == EXISTS:
            witnessed += 1
            assert verify_pa(g, n, cert.witness).ok, (a, b)
            assert rule is None, (a, b, rule[0].rule_id)
    assert (pairs, witnessed, fired) == (536, 81, 145)


def test_a_non_lie_bracket_is_refused_before_any_stage():
    n = LieAlgebra.from_table(3, NON_LIE_TABLE)
    with pytest.raises(ValueError, match=r"Jacobi identity fails on basis triple \(1, 2, 3\)"):
        pa_search(n, n)
    with pytest.raises(ValueError, match=r"^n is not a Lie bracket"):
        pa_search(get_algebra("sl2"), n)
