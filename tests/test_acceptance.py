"""Acceptance gate: eight criteria, one test (and one verbose-mode line)
each.  Every numeric comparison is exact — there are no tolerances anywhere
in this file — and runtime ceilings are asserted where they are part of the
criterion."""

import random
import time
from fractions import Fraction

from postlie import interchange, linalg
from postlie.catalog import get_algebra, get_entry, perfect_ids
from postlie.certificates import EXISTS, NOT_EXISTS
from postlie.liealg import LieAlgebra, fingerprint
from postlie.rules import applicable_rule
from postlie.samples import get_sample, sample_ids
from postlie.search import pa_linear_space, pa_search
from postlie.sl2 import semidirect
from postlie.structures import (
    PAProduct,
    RBOperator,
    negation_partner,
    pa_from_rb,
    rb_kernels,
    verify_pa,
    verify_rb,
)
from postlie.subspace import Subspace

from oracles import gauss_consistent, raw_linear_system
from test_rules import FIRING_PAIRS

F = Fraction


def test_criterion_1_catalog_builds_with_recorded_invariants():
    started = time.perf_counter()
    buildable = perfect_ids()
    all_perfect = perfect_ids(include_stubs=True)
    low = [i for i in all_perfect if get_entry(i).dim <= 8]
    high = [i for i in all_perfect if get_entry(i).dim == 9]
    assert len(low) == 12 and len(high) == 10
    assert len(buildable) == 20  # two lower-dimensional entries are stubs
    for entry_id in buildable:
        alg = get_algebra(entry_id)
        assert alg.jacobi_residuals() == (), entry_id
        assert alg.is_perfect(), entry_id
        assert not alg.is_semisimple(), entry_id
        assert alg.center().dim == get_entry(entry_id).expected_center_dim, entry_id
    elapsed = time.perf_counter() - started
    assert elapsed < 1.0, f"catalog pass took {elapsed:.2f}s"


def test_criterion_2_radicals_are_nilpotent_and_dim9_is_two_step():
    for entry_id in perfect_ids():
        alg = get_algebra(entry_id)
        radical = alg.solvable_radical()
        inner = alg.restrict(radical)
        assert inner.is_nilpotent(), entry_id
        entry = get_entry(entry_id)
        if entry.dim == 9:
            assert entry.expected_nilradical_class <= 2, entry_id
            assert inner.nilpotency_class() <= 2, entry_id


def test_criterion_3_bundled_products_verify_exactly():
    for sample_id in sample_ids():
        sample = get_sample(sample_id)
        report = verify_pa(sample.g_bracket(), sample.n(), sample.product)
        doc = report.as_dict()
        assert doc["axiom1_ok"] and doc["axiom2_ok"] and doc["axiom3_ok"], sample_id
        assert report.ok, sample_id
    # the two operator-backed products equal the derived product entry-for-entry
    for sample_id in ("solvable_over_perfect", "reductive_over_perfect"):
        sample = get_sample(sample_id)
        assert pa_from_rb(sample.n(), sample.operator).tensor == sample.product.tensor
    # the first of them induces exactly [e1,e5]=e4, [e2,e3]=-2e2
    induced = get_sample("solvable_over_perfect").g_bracket()
    assert induced.sparse_table() == {(0, 4): {3: F(1)}, (1, 2): {1: F(-2)}}
    assert fingerprint(induced) == fingerprint(get_algebra("n3_plus_r2"))


def test_criterion_4_operator_suite():
    n = get_algebra("L5_1")
    solvable = get_sample("solvable_over_perfect").operator
    reductive = get_sample("reductive_over_perfect").operator
    for op in (solvable, reductive):
        assert op.weight == F(1)
        assert verify_rb(n, op).ok
        assert verify_rb(n, negation_partner(op)).ok
    assert rb_kernels(n, solvable) == (
        Subspace.spanned_by_coordinates(5, (0, 3, 4)),
        Subspace.spanned_by_coordinates(5, (1, 2)),
    )
    assert rb_kernels(n, reductive) == (
        Subspace.spanned_by_coordinates(5, (0, 1, 2)),
        Subspace.spanned_by_coordinates(5, (3, 4)),
    )


def test_criterion_5_search_finds_the_expected_witnesses():
    started = time.perf_counter()
    n = get_algebra("L5_1")
    for sample_id in ("solvable_over_perfect", "reductive_over_perfect"):
        sample = get_sample(sample_id)
        cert = pa_search(sample.g_bracket(), n)
        assert cert.verdict == EXISTS, sample_id
        assert cert.subsets_checked <= 32, sample_id  # found by the split stage
        assert verify_pa(sample.g_bracket(), n, cert.witness).ok
    for entry_id in perfect_ids():
        g = get_algebra(entry_id)
        cert = pa_search(g, g, g_name=entry_id, n_name=entry_id)
        assert cert.verdict == EXISTS, entry_id
        assert cert.witness.is_zero(), entry_id
    elapsed = time.perf_counter() - started
    assert elapsed < 5.0, f"search pass took {elapsed:.2f}s"


def test_criterion_6_rule_engine_and_grid():
    from postlie.table import existence_table

    assert len(FIRING_PAIRS) >= 12
    assert {rule_id for rule_id, _, _ in FIRING_PAIRS} == {
        f"R{k}" for k in range(1, 13)
    }
    for rule_id, g_id, n_id in FIRING_PAIRS:
        found = applicable_rule(get_algebra(g_id), get_algebra(n_id))
        assert found is not None and found[0].rule_id == rule_id, (g_id, n_id)
    # the build re-materializes and re-checks every positive witness and
    # re-fires every rule; it raises on any discrepancy
    table = existence_table()
    assert table.counts["exists"] == 34
    undecided = {(c.row, c.col) for c in table.cells if c.status == "unknown"}
    assert {
        ("reductive", "semisimple"),
        ("perfect", "nilpotent"),
        ("perfect", "simple"),
        ("perfect", "semisimple"),
    } <= undecided


def test_criterion_7_randomized_suites():
    started = time.perf_counter()
    rng = random.Random(20260814)

    def rand_frac():
        return F(rng.randint(-4, 4), rng.randint(1, 4))

    # (a) perfect iff no one-dimensional module summand, both directions
    for _ in range(200):
        partition = tuple(
            rng.randint(1, 4) for _ in range(rng.randint(1, 3))
        )
        alg = semidirect(partition)
        assert alg.is_perfect() == all(p >= 2 for p in partition), partition

    # (b) left multiplications: representation + derivation facts for every
    # bundled verified product, via independent matrix identities
    samples = [get_sample(s) for s in sample_ids()]
    for _ in range(200):
        sample = rng.choice(samples)
        n = sample.n()
        g = sample.g_bracket()
        product = sample.product
        x = tuple(rand_frac() for _ in range(5))
        y = tuple(rand_frac() for _ in range(5))
        z = tuple(rand_frac() for _ in range(5))
        lx, ly = product.left_mult(x), product.left_mult(y)
        assert product.left_mult(g.bracket(x, y)) == linalg.commutator(lx, ly)
        lhs = product.apply(x, n.bracket(y, z))
        rhs = tuple(
            a + b
            for a, b in zip(
                n.bracket(product.apply(x, y), z),
                n.bracket(y, product.apply(x, z)),
            )
        )
        assert lhs == rhs

    # (c) subspace lattice identities
    for _ in range(200):
        d = rng.randint(1, 5)
        vecs_a = [
            [rng.randint(-3, 3) for _ in range(d)]
            for _ in range(rng.randint(0, 4))
        ]
        vecs_b = [
            [rng.randint(-3, 3) for _ in range(d)]
            for _ in range(rng.randint(0, 4))
        ]
        a = Subspace.from_vectors(d, vecs_a)
        b = Subspace.from_vectors(d, vecs_b)
        assert a.sum(b).dim + a.intersection(b).dim == a.dim + b.dim
        comp = a.complement_candidate()
        assert a.sum(comp) == Subspace.full(d)
        assert a.intersection(comp).dim == 0

    # (d) serialization round trips, byte-for-byte
    for _ in range(200):
        d = rng.randint(1, 4)
        roll = rng.random()
        if roll < 1 / 3:
            table = {}
            for _ in range(rng.randint(0, 2 * d)):
                if d == 1:
                    break
                i = rng.randint(0, d - 2)
                j = rng.randint(i + 1, d - 1)
                c = rand_frac()
                if c:
                    table.setdefault((i, j), {})[rng.randint(0, d - 1)] = c
            obj = LieAlgebra.from_table(d, table)
        elif roll < 2 / 3:
            table = {}
            for _ in range(rng.randint(0, 2 * d)):
                key = (rng.randint(0, d - 1), rng.randint(0, d - 1))
                c = rand_frac()
                if c:
                    table.setdefault(key, {})[rng.randint(0, d - 1)] = c
            obj = PAProduct.from_table(d, table)
        else:
            obj = RBOperator.from_rows(
                [[rand_frac() for _ in range(d)] for _ in range(d)],
                weight=rand_frac(),
            )
        text = interchange.serialize(obj)
        parsed = interchange.parse_text(text)
        assert parsed.value == obj
        assert interchange.serialize(parsed.value) == text

    elapsed = time.perf_counter() - started
    assert elapsed < 30.0, f"randomized suites took {elapsed:.2f}s"


def test_criterion_8_linear_space_dimension_vs_independent_oracle():
    for n_dim in range(1, 5):
        flat = get_algebra(f"abelian_{n_dim}")
        space = pa_linear_space(flat, flat)
        expected = n_dim**2 * (n_dim + 1) // 2
        assert space.dimension == expected
        consistent, free = gauss_consistent(*raw_linear_system(flat, flat))
        assert consistent and free == expected
