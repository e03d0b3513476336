"""Structural non-existence rules for product structures on a pair.

Each rule is a theorem of the form "if ``g`` lies in one structural class
and ``n`` in another, no product structure exists on the pair".  A rule is
data: an identifier, its condition, a self-contained justification, and an
ordered list of hypothesis checks, each a ``(label, check(g, n))`` pair.
The checks are exact computations on the concrete pair, over invariants
that :class:`~postlie.liealg.LieAlgebra` computes once and caches — nothing
is assumed from names or metadata.  A rule's ``applies`` evaluates its
checks in order, records ``"<label>: yes"`` or ``"<label>: no"`` for each
one evaluated, and stops at the first that fails.  The first rule whose
checks all hold decides the pair (the rule list is ordered, and earlier
rules win), and its certificate carries that trace together with the
justification.

Detection notes
---------------

Two rules identify specific semisimple algebras without isomorphism
testing:

* the simple algebra of dimension eight is recognized as "dimension 8,
  semisimple, and no proper ideal visible from any basis vector" — over the
  rationals any simple algebra of dimension eight remains simple under
  field extension (its centroid is forced to be the base field), so the
  detection is sound;
* the direct sum of two three-dimensional simple algebras is recognized as
  "dimension 6, semisimple, exactly two three-dimensional minimal ideals
  among basis-vector closures" — each three-dimensional simple ideal is
  absolutely simple, so the detected algebra stays a sum of two simple
  three-dimensional ideals over any extension.

Both detections are conservative: a pair presented in a basis that hides
the ideal structure simply fails to fire the rule (yielding ``unknown``),
never fires it wrongly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

from . import linalg
from .liealg import LieAlgebra, unit
from .subspace import Subspace
from .certificates import NOT_EXISTS, UNKNOWN, Certificate

Check = tuple[str, Callable[[LieAlgebra, LieAlgebra], bool]]
Predicate = Callable[[LieAlgebra, LieAlgebra], tuple[bool, tuple]]


@dataclass(frozen=True)
class Rule:
    """One verified-hypothesis non-existence theorem."""

    rule_id: str
    condition: str
    justification: str
    applies: Predicate


def _hypotheses(*checks: Check) -> Predicate:
    """``applies`` for the given checks: evaluate them in order, record
    ``"<label>: yes|no"`` for each, and stop at the first that fails."""

    def applies(g: LieAlgebra, n: LieAlgebra) -> tuple[bool, tuple]:
        trace = []
        for label, check in checks:
            holds = check(g, n)
            trace.append(f"{label}: {'yes' if holds else 'no'}")
            if not holds:
                return False, tuple(trace)
        return True, tuple(trace)

    return applies


# ----------------------------------------------------------------------
# helpers for the radical checks (every check is an exact computation)
# ----------------------------------------------------------------------


def _restricted_action(g: LieAlgebra, space: Subspace):
    """Nonzero entries ``(i, row, col, value)`` of ad(e_i) on ``space``, None if not invariant."""
    entries = []
    for i in range(g.dim):
        for col, vec in enumerate(space._rows()):
            coords = space._coordinates(g._bracket_row(unit(i), vec.items()))
            if coords is None:
                return None
            entries.extend((i, row, col, x) for row, x in coords.items())
    return entries


def _commutant_dimension(entries, size: int) -> int:
    """Dimension of the matrices commuting with all given ones (their nonzero
    ``(index, row, col, value)`` entries)."""
    # X A - A X = 0, unknowns X[r][c] at column r*size + c, row (a, r, c)
    rows: dict = {}
    for index, r, c, x in entries:
        for t in range(size):
            linalg.add_entry(rows, (index, t, c), t * size + r, x)
            linalg.add_entry(rows, (index, r, t), c * size + t, -x)
    return size * size - len(linalg.eliminate(rows.values()))


def _absolutely_simple(alg: LieAlgebra) -> bool:
    """Simple with scalar centroid, hence simple over every extension."""
    if not alg.is_simple():
        return False
    return _commutant_dimension(_restricted_action(alg, alg.full_space()), alg.dim) == 1


def _radical_closures_full(g: LieAlgebra) -> bool:
    radical = g.solvable_radical()
    return all(
        g.ad_closure(Subspace.span(g.dim, [row])) == radical
        for row in radical._rows()
    )


def _radical_irreducible(g: LieAlgebra) -> bool:
    radical = g.solvable_radical()
    action = _restricted_action(g, radical)
    return action is not None and _commutant_dimension(action, radical.dim) == 1


# ----------------------------------------------------------------------
# the twelve rules, in precedence order
# ----------------------------------------------------------------------

G_PERFECT: Check = ("g is perfect", lambda g, n: g.is_perfect())
G_NOT_SEMISIMPLE: Check = ("g is not semisimple", lambda g, n: not g.is_semisimple())
N_SEMISIMPLE: Check = ("n is semisimple", lambda g, n: n.is_semisimple())
N_PERFECT_NONZERO: Check = (
    "n is perfect and nonzero",
    lambda g, n: n.dim > 0 and n.is_perfect(),
)

RULES: tuple[Rule, ...] = (
    Rule(
        "R1",
        "g perfect and n abelian",
        "With an abelian second bracket the three axioms say exactly that "
        "the product is left-symmetric and its commutator equals the first "
        "bracket.  No perfect Lie algebra carries a left-symmetric product: "
        "the trace of right multiplication satisfies tr R_{y.z} = tr(R_z "
        "R_y), which is symmetric in y and z, so the functional x -> tr R_x "
        "kills every commutator and hence all of a perfect algebra; the "
        "classical theorem on left-symmetric structures then excludes the "
        "perfect case entirely.",
        _hypotheses(G_PERFECT, ("n is abelian", lambda g, n: n.is_abelian())),
    ),
    Rule(
        "R2",
        "g perfect and n nilpotent of class exactly 2",
        "No product structure exists when the first bracket is perfect and "
        "the second is nilpotent of class two.  For class two the left "
        "multiplications preserve the lower central series of the second "
        "bracket, and a weight analysis of the induced action shows the "
        "first bracket's derived algebra lands in a proper subspace, "
        "contradicting perfectness.",
        _hypotheses(
            G_PERFECT,
            (
                "n is nilpotent of class exactly 2",
                lambda g, n: n.nilpotency_class() == 2,
            ),
        ),
    ),
    Rule(
        "R3",
        "g perfect and n solvable but not nilpotent",
        "Every derivation of a solvable Lie algebra maps it into its "
        "nilradical (adjoin the derivation as a new generator: the extended "
        "algebra is solvable, its derived algebra is a nilpotent ideal "
        "containing the derivation's image).  Each left multiplication is "
        "such a derivation, and the second bracket's values lie in its "
        "derived algebra, also inside the nilradical.  The coupling axiom "
        "then places the first bracket's derived algebra inside the "
        "nilradical, a proper subspace when the second algebra is not "
        "nilpotent — contradicting perfectness of the first bracket.",
        _hypotheses(
            G_PERFECT,
            ("n is solvable", lambda g, n: n.is_solvable()),
            ("n is not nilpotent", lambda g, n: not n.is_nilpotent()),
        ),
    ),
    Rule(
        "R4",
        "g perfect and n reductive with 1-dimensional center",
        "A reductive algebra with 1-dimensional center splits as a "
        "semisimple ideal plus its center, and each of its derivations is "
        "an inner derivation of the semisimple part plus a scaling of the "
        "center.  The scaling component of the left multiplications defines "
        "a homomorphism from the first bracket to the scalars, which "
        "vanishes on a perfect algebra; the products and the second bracket "
        "then take all values inside the semisimple part, so the coupling "
        "axiom confines the first bracket's derived algebra to a proper "
        "subspace — contradicting perfectness.",
        _hypotheses(
            G_PERFECT,
            ("n is reductive", lambda g, n: n.is_reductive()),
            ("n has a 1-dimensional center", lambda g, n: n.center().dim == 1),
        ),
    ),
    Rule(
        "R5",
        "g perfect and n complete but not perfect",
        "Over a complete second bracket every product structure is of "
        "operator form x.y = {Rx, y} for a weight-one operator R, and the "
        "first bracket equals the operator's descendent bracket.  Both R "
        "and R+id are then homomorphisms from the first bracket into the "
        "second, so a perfect first bracket forces the images of R and "
        "R+id into the second algebra's derived algebra; writing x = "
        "(R+id)x - Rx shows the second algebra equals its own derived "
        "algebra, contradicting the hypothesis that it is not perfect.",
        _hypotheses(
            G_PERFECT,
            ("n is complete", lambda g, n: n.is_complete()),
            ("n is not perfect", lambda g, n: not n.is_perfect()),
        ),
    ),
    Rule(
        "R6",
        "g abelian and n perfect",
        "With an abelian first bracket the left multiplications commute "
        "pairwise and each is a derivation of the second bracket; such a "
        "configuration makes the second algebra solvable (it is the "
        "degenerate product case dual to the left-symmetric one), and no "
        "nonzero perfect algebra is solvable.",
        _hypotheses(("g is abelian", lambda g, n: g.is_abelian()), N_PERFECT_NONZERO),
    ),
    Rule(
        "R7",
        "g nilpotent non-abelian and n perfect",
        "A nilpotent first bracket forces the second algebra of any "
        "product structure to be solvable, and no nonzero perfect algebra "
        "is solvable.",
        _hypotheses(
            ("g is nilpotent", lambda g, n: g.is_nilpotent()),
            ("g is not abelian", lambda g, n: not g.is_abelian()),
            N_PERFECT_NONZERO,
        ),
    ),
    Rule(
        "R8",
        "g semisimple and n perfect but not semisimple",
        "When the first bracket is semisimple, the only perfect second "
        "brackets compatible with a product structure are themselves "
        "semisimple; a perfect non-semisimple second bracket is excluded.",
        _hypotheses(
            ("g is semisimple", lambda g, n: g.is_semisimple()),
            ("n is perfect", lambda g, n: n.is_perfect()),
            ("n is not semisimple", lambda g, n: not n.is_semisimple()),
        ),
    ),
    Rule(
        "R9",
        "g perfect non-semisimple and n simple of dimension 8",
        "Any simple algebra of dimension eight remains simple over every "
        "field extension, and products over it force a semisimple or "
        "simple first bracket; a perfect non-semisimple first bracket is "
        "excluded.",
        _hypotheses(
            G_PERFECT,
            G_NOT_SEMISIMPLE,
            ("n has dimension 8", lambda g, n: n.dim == 8),
            (
                "n is simple (semisimple, all basis-vector closures full)",
                lambda g, n: n.is_simple(),
            ),
        ),
    ),
    Rule(
        "R10",
        "g perfect non-semisimple and n a sum of two 3-dimensional "
        "simple ideals",
        "Over a semisimple second bracket every product comes from a "
        "weight-one operator R whose kernel and the kernel of R+id are "
        "ideals of the induced first bracket.  For the six-dimensional "
        "semisimple algebra that splits into two three-dimensional simple "
        "ideals, the perfect subalgebras have dimension 0, 3, or 6; the "
        "case analysis over kernels and images leaves only semisimple "
        "candidates for the first bracket, so a perfect non-semisimple one "
        "is excluded.",
        _hypotheses(
            G_PERFECT,
            G_NOT_SEMISIMPLE,
            ("n has dimension 6", lambda g, n: n.dim == 6),
            N_SEMISIMPLE,
            (
                "n has exactly two 3-dimensional minimal ideals among "
                "basis-vector closures",
                lambda g, n: [m.dim for m in n.minimal_coordinate_ideals()] == [3, 3],
            ),
        ),
    ),
    Rule(
        "R11",
        "g a semidirect product of a simple algebra with an irreducible "
        "abelian radical, and n semisimple",
        "A semisimple second bracket is complete, so every product is of "
        "operator form with a weight-one operator R, and both ker R and "
        "ker(R+id) are ideals of the first bracket.  When the first "
        "bracket is simple-by-irreducible-abelian, its only ideals are 0, "
        "the radical, and everything; neither kernel can be everything "
        "(the operator or its shift would vanish, making the two brackets "
        "isomorphic — impossible as one is semisimple and the other not), "
        "and the kernels intersect trivially, yet each nonzero kernel "
        "would have to equal the radical.  Hence both kernels are zero, "
        "making R invertible and the two brackets isomorphic — the same "
        "contradiction.  So no product exists.",
        _hypotheses(
            G_PERFECT,
            G_NOT_SEMISIMPLE,
            N_SEMISIMPLE,
            (
                "the radical of g is nonzero and abelian",
                lambda g, n: g.solvable_radical().dim > 0
                and g.restrict(g.solvable_radical()).is_abelian(),
            ),
            (
                "g modulo its radical is simple with scalar centroid",
                lambda g, n: _absolutely_simple(g.quotient(g.solvable_radical())),
            ),
            (
                "the ideal closure of every radical basis vector is the whole radical",
                lambda g, n: _radical_closures_full(g),
            ),
            (
                "the radical is an absolutely irreducible g-module "
                "(its commutant algebra is the scalars)",
                lambda g, n: _radical_irreducible(g),
            ),
        ),
    ),
    Rule(
        "R12",
        "g perfect non-semisimple of dimension 5 or 6, and n nilpotent",
        "The perfect non-semisimple algebras of dimension five and six "
        "are the semidirect products of the three-dimensional simple "
        "algebra with its two-dimensional irreducible module, its "
        "three-dimensional irreducible module, and the Heisenberg algebra; "
        "for each of them, no product structure with a nilpotent second "
        "bracket exists.",
        _hypotheses(
            G_PERFECT,
            G_NOT_SEMISIMPLE,
            ("g has dimension 5 or 6", lambda g, n: g.dim in (5, 6)),
            ("n is nilpotent", lambda g, n: n.is_nilpotent()),
        ),
    ),
)


def rule_by_id(rule_id: str) -> Rule:
    for rule in RULES:
        if rule.rule_id == rule_id:
            return rule
    raise KeyError(rule_id)


def applicable_rule(
    g: LieAlgebra, n: LieAlgebra
) -> Optional[tuple[Rule, tuple]]:
    """First rule (in precedence order) whose hypotheses all verify."""
    if g.dim != n.dim:
        raise ValueError("g and n must share one dimension")
    for rule in RULES:
        holds, trace = rule.applies(g, n)
        if holds:
            return rule, trace
    return None


def nonexistence_certificate(
    g: LieAlgebra,
    n: LieAlgebra,
    *,
    g_name: str = "",
    n_name: str = "",
) -> Certificate:
    """Certificate from the first applicable rule, or ``unknown``.

    A bracket that fails the Jacobi identity raises ``ValueError`` naming
    the first failing basis triple: the rules are theorems about Lie
    algebras and say nothing about other brackets.
    """
    g.require_lie("g")
    n.require_lie("n")
    g_name = g_name or g.name or "g"
    n_name = n_name or n.name or "n"
    found = applicable_rule(g, n)
    if found is None:
        return Certificate(
            UNKNOWN, g_name, n_name, trace=("no structural rule applies to this pair",)
        )
    rule, trace = found
    full_trace = (f"rule {rule.rule_id}: {rule.condition}",) + tuple(trace)
    return Certificate(
        NOT_EXISTS,
        g_name,
        n_name,
        rule_id=rule.rule_id,
        justification=rule.justification,
        trace=full_trace,
    )
