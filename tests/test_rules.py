"""Structural nonexistence rules: each rule fires on a pinned pair, rules
never fire on pairs that carry a verified witness, and rule verdicts are
consistent with the exhaustive-stage search on small pairs."""

import pytest

from postlie.catalog import catalog_ids, get_algebra, get_entry
from postlie.certificates import EXISTS, NOT_EXISTS, UNKNOWN
from postlie.liealg import LieAlgebra
from postlie.rules import (
    RULES,
    _absolutely_simple,
    _commutant_dimension,
    _radical_irreducible,
    applicable_rule,
    nonexistence_certificate,
    rule_by_id,
)
from postlie.samples import get_sample, sample_ids
from postlie.search import pa_search

from oracles import NON_LIE_TABLE, commutant_reference, coordinates_reference

# one pinned firing pair per rule: (rule id, g id, n id)
FIRING_PAIRS = [
    ("R1", "L5_1", "abelian_5"),
    ("R2", "L5_1", "n3_plus_C2"),
    ("R3", "L5_1", "n3_plus_r2"),
    ("R4", "L7_6", "sl2_plus_sl2_plus_C"),
    ("R5", "L5_1", "sl2_plus_r2"),
    ("R6", "abelian_5", "L5_1"),
    ("R7", "n3_plus_C2", "L5_1"),
    ("R8", "sl2_plus_sl2", "L6_2"),
    ("R9", "L8_21", "sl3"),
    ("R10", "L6_4", "sl2_plus_sl2"),
    ("R11", "L9_59", "sl2_plus_sl2_plus_sl2"),
    ("R12", "L6_4", "f23_plus_C"),
]

G_PERFECT = "g is perfect: yes"
G_NOT_SEMISIMPLE = "g is not semisimple: yes"

# the full hypothesis checklist each rule records on its pinned pair
FIRING_TRACES = {
    "R1": (G_PERFECT, "n is abelian: yes"),
    "R2": (G_PERFECT, "n is nilpotent of class exactly 2: yes"),
    "R3": (G_PERFECT, "n is solvable: yes", "n is not nilpotent: yes"),
    "R4": (G_PERFECT, "n is reductive: yes", "n has a 1-dimensional center: yes"),
    "R5": (G_PERFECT, "n is complete: yes", "n is not perfect: yes"),
    "R6": ("g is abelian: yes", "n is perfect and nonzero: yes"),
    "R7": ("g is nilpotent: yes", "g is not abelian: yes", "n is perfect and nonzero: yes"),
    "R8": ("g is semisimple: yes", "n is perfect: yes", "n is not semisimple: yes"),
    "R9": (
        G_PERFECT,
        G_NOT_SEMISIMPLE,
        "n has dimension 8: yes",
        "n is simple (semisimple, all basis-vector closures full): yes",
    ),
    "R10": (
        G_PERFECT,
        G_NOT_SEMISIMPLE,
        "n has dimension 6: yes",
        "n is semisimple: yes",
        "n has exactly two 3-dimensional minimal ideals among basis-vector closures: yes",
    ),
    "R11": (
        G_PERFECT,
        G_NOT_SEMISIMPLE,
        "n is semisimple: yes",
        "the radical of g is nonzero and abelian: yes",
        "g modulo its radical is simple with scalar centroid: yes",
        "the ideal closure of every radical basis vector is the whole radical: yes",
        "the radical is an absolutely irreducible g-module "
        "(its commutant algebra is the scalars): yes",
    ),
    "R12": (
        G_PERFECT,
        G_NOT_SEMISIMPLE,
        "g has dimension 5 or 6: yes",
        "n is nilpotent: yes",
    ),
}


def test_registry_shape():
    assert [r.rule_id for r in RULES] == [f"R{k}" for k in range(1, 13)]
    for rule in RULES:
        assert rule.condition
        assert rule.justification
        assert rule_by_id(rule.rule_id) is rule
    with pytest.raises(KeyError):
        rule_by_id("R99")


@pytest.mark.parametrize("rule_id,g_id,n_id", FIRING_PAIRS)
def test_each_rule_fires_on_its_pinned_pair(rule_id, g_id, n_id):
    found = applicable_rule(get_algebra(g_id), get_algebra(n_id))
    assert found is not None
    rule, trace = found
    assert rule.rule_id == rule_id
    assert trace == FIRING_TRACES[rule_id]


def test_a_rule_stops_at_its_first_failing_check():
    # L9_60 is sl2 acting on an abelian radical that splits into irreducible
    # modules of dimensions 4 and 2, so the ideal closure of a radical basis
    # vector is one summand: R11 records the six checks it evaluated and
    # stops before the seventh
    holds, trace = rule_by_id("R11").applies(
        get_algebra("L9_60"), get_algebra("sl2_plus_sl2_plus_sl2")
    )
    assert not holds
    assert trace == (
        G_PERFECT,
        G_NOT_SEMISIMPLE,
        "n is semisimple: yes",
        "the radical of g is nonzero and abelian: yes",
        "g modulo its radical is simple with scalar centroid: yes",
        "the ideal closure of every radical basis vector is the whole radical: no",
    )


@pytest.mark.parametrize("rule_id,g_id,n_id", FIRING_PAIRS)
def test_certificates_from_rules(rule_id, g_id, n_id):
    cert = nonexistence_certificate(
        get_algebra(g_id), get_algebra(n_id), g_name=g_id, n_name=n_id
    )
    assert cert.verdict == NOT_EXISTS
    assert cert.rule_id == rule_id
    assert cert.justification
    assert cert.exit_code == 1


def test_precedence_picks_the_earliest_rule():
    # nilpotent two-step target with center violation: R2 wins over later
    # radical-based rules
    found = applicable_rule(get_algebra("L6_2"), get_algebra("n5_plus_C"))
    assert found is not None
    assert found[0].rule_id == "R2"


def test_no_rule_on_a_genuinely_open_pair():
    assert applicable_rule(get_algebra("gl2"), get_algebra("sl2_plus_C")) is None
    cert = nonexistence_certificate(
        get_algebra("gl2"), get_algebra("sl2_plus_C"), g_name="gl2", n_name="sl2_plus_C"
    )
    assert cert.verdict == UNKNOWN
    assert cert.exit_code == 2


def test_rules_never_fire_on_witnessed_pairs():
    for sample_id in sample_ids():
        sample = get_sample(sample_id)
        assert applicable_rule(sample.g_bracket(), sample.n()) is None, sample_id


def test_rules_agree_with_search_on_small_pairs():
    # on dimension <= 5 pairs where a rule fires, the staged search must
    # never produce a witness (soundness, spot-checked)
    small = [(g, n) for _, g, n in FIRING_PAIRS if get_algebra(g).dim <= 5]
    assert small
    for g_id, n_id in small:
        cert = pa_search(
            get_algebra(g_id), get_algebra(n_id), budget=200, g_name=g_id, n_name=n_id
        )
        assert cert.verdict != EXISTS, (g_id, n_id)


def test_dimension_mismatch_rejected():
    with pytest.raises(ValueError):
        applicable_rule(get_algebra("sl2"), get_algebra("abelian_5"))


def test_a_non_lie_bracket_is_refused():
    # the rules are theorems about Lie algebras; a bracket failing Jacobi
    # gets no verdict, and the error names the first failing triple
    n = LieAlgebra.from_table(3, NON_LIE_TABLE)
    with pytest.raises(ValueError, match=r"^g is not a Lie bracket.*\(1, 2, 3\)$"):
        nonexistence_certificate(n, n)
    with pytest.raises(ValueError, match=r"^n is not a Lie bracket.*\(1, 2, 3\)$"):
        nonexistence_certificate(get_algebra("sl2"), n)


def _reference_ad(alg):
    """Dense ``ad e_i``: ``c[i][m][k]`` in row ``k``, column ``m``."""
    d = alg.dim
    return [[[alg.brackets[i][m][k] for m in range(d)] for k in range(d)] for i in range(d)]


def _reference_radical_action(alg):
    """Dense matrices of ``ad e_i`` on the radical in its basis, by the
    reference solve; None if the radical is not invariant."""
    basis = alg.solvable_radical().basis
    matrices = []
    for i in range(alg.dim):
        cols = [coordinates_reference(basis, alg.bracket(alg.basis_vector(i), v)) for v in basis]
        if None in cols:
            return None
        matrices.append([[col[r] for col in cols] for r in range(len(basis))])
    return matrices


def test_commutants_agree_with_the_reference_on_the_catalog():
    for entry_id in catalog_ids():
        if get_entry(entry_id).builder is None:
            continue
        alg = get_algebra(entry_id)
        ads = _reference_ad(alg)
        expected = commutant_reference(ads)
        entries = [
            (i, r, c, x)
            for i, m in enumerate(ads)
            for r, row in enumerate(m)
            for c, x in enumerate(row)
            if x
        ]
        assert _commutant_dimension(entries, alg.dim) == expected, entry_id
        assert _absolutely_simple(alg) == (alg.is_simple() and expected == 1), entry_id
        action = _reference_radical_action(alg)
        irreducible = action is not None and commutant_reference(action) == 1
        assert _radical_irreducible(alg) == irreducible, entry_id
