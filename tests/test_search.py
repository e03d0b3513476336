"""Staged product search: linear feasibility, splitting witnesses, and the
bounded grid stage, pinned against independently computed oracles."""

import functools
import hashlib
import itertools
import json
import pathlib
import subprocess
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from postlie import interchange, search, table
from postlie.catalog import (
    FINGERPRINT_COLLISIONS,
    catalog_ids,
    get_algebra,
    get_entry,
    perfect_ids,
)
from postlie.certificates import EXISTS, NOT_EXISTS, UNKNOWN
from postlie.liealg import LieAlgebra
from postlie.rules import nonexistence_certificate
from postlie.samples import get_sample, sample_ids
from postlie.search import (
    LINEAR_INFEASIBLE_RULE,
    UNIQUE_SOLUTION_FAILS_RULE,
    SolutionSpace,
    _axiom2_holds,
    _integer_bracket,
    _integer_grid,
    _split_descends,
    _splitting_order,
    pa_linear_space,
    pa_search,
)
from postlie.structures import (
    PAProduct,
    _units,
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
    space = _wide_space()
    assert space.dimension == 60
    d = space.dim
    flat = [F(0)] * d**3
    for index, y in space.particular:
        flat[index] = y
    for c, vec in zip(coefficients, space.basis):
        dense = [F(0)] * d**3
        for index, y in vec:
            dense[index] = y
        flat = [x + F(c) * y for x, y in zip(flat, dense)]
    expected = tuple(
        tuple(tuple(flat[(i * d + j) * d + k] for k in range(d)) for j in range(d))
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
    assert _axiom2_holds(g.cells, candidate.cells, _units(g.dim)) == (not expected)


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


@pytest.mark.parametrize("c", [F(1, 2), F(2, 3)])
def test_integer_check_agrees_with_the_rational_residuals(c):
    # g's bracket has denominators, so S3 checks axiom (2) on both tensors
    # scaled by their lcm; leaving either unscaled breaks the agreement
    g, n = _r2_scaled(c), get_algebra("abelian_2")
    space = pa_linear_space(g, n)
    scale, cg = _integer_bracket(g, space)
    assert scale == c.denominator
    units = _units(g.dim, 1)
    for height in (1, 2):
        hits = 0
        for digits, p in itertools.islice(_integer_grid(space, scale, height), 400):
            expected = next(axiom2_residuals(g, space.product_at(digits)), None) is None
            assert _axiom2_holds(cg, p, units) == expected, (height, digits)
            hits += expected
        assert hits


def test_the_integer_grid_steps_through_every_carry():
    # three free parameters with overlapping supports and denominators 2, 3, 6
    space = SolutionSpace(
        dim=2,
        particular=((1, F(1, 3)), (6, F(-1, 2))),
        basis=(
            ((0, F(1)), (3, F(2, 3))),
            ((3, F(1, 2)), (5, F(-1))),
            ((0, F(1, 6)), (7, F(4))),
        ),
    )
    scale, _ = _integer_bracket(get_algebra("abelian_2"), space)
    assert scale == 6
    for height in (1, 2):
        base = 2 * height + 1
        count = 0
        for t, (digits, p) in enumerate(_integer_grid(space, scale, height)):
            decoded = [t // base**2 - height, t // base % base - height, t % base - height]
            assert digits == decoded
            dense = [[[0] * 2 for _ in range(2)] for _ in range(2)]
            for i, row in enumerate(p):
                for j, cell in enumerate(row):
                    for k, y in cell:
                        assert type(y) is int and y
                        dense[i][j][k] = y
            tensor = space.product_at(decoded).tensor
            assert dense == [[[scale * y for y in cell] for cell in plane] for plane in tensor]
            count += 1
        assert count == base**3


def test_a_budget_below_the_grid_size_checks_exactly_that_many_points(monkeypatch):
    calls = []
    check = search._axiom2_holds
    monkeypatch.setattr(search, "_axiom2_holds", lambda *args: calls.append(args) or check(*args))
    # the first hit of this grid is point #38
    cert = pa_search(_r2_scaled(F(1, 2)), get_algebra("abelian_2"), budget=20, grid_height=1)
    assert cert.verdict == UNKNOWN
    assert cert.points_checked == len(calls) == 20
    assert cert.trace[-1] == (
        "stage S3: budget of 20 grid points exhausted (grid height 1, 6 free parameters)"
    )


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


# sha256 of the rule certificates below; a change that alters a rule
# verdict or its trace must update this pin and say why
RULE_CERTIFICATES_SHA256 = (
    "34109c5e789830720189288e9184605abecf35ade2b57fc3b8cbc9ce9c2a720c"
)


def test_rule_certificates_on_catalog_pairs_are_byte_stable():
    ids = [i for i in catalog_ids() if get_entry(i).kind != "stub"]
    digest = hashlib.sha256()
    pairs = 0
    for a in ids:
        for b in ids:
            g, n = get_algebra(a), get_algebra(b)
            if g.dim != n.dim:
                continue
            pairs += 1
            cert = nonexistence_certificate(g, n, g_name=a, n_name=b)
            digest.update((json.dumps(cert.as_dict(), sort_keys=True) + "\n").encode("utf-8"))
    assert pairs == 536
    assert digest.hexdigest() == RULE_CERTIFICATES_SHA256


def test_a_non_lie_bracket_is_refused_before_any_stage():
    n = LieAlgebra.from_table(3, NON_LIE_TABLE)
    with pytest.raises(ValueError, match=r"Jacobi identity fails on basis triple \(1, 2, 3\)"):
        pa_search(n, n)
    with pytest.raises(ValueError, match=r"^n is not a Lie bracket"):
        pa_search(get_algebra("sl2"), n)
