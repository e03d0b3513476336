"""Catalog of low-dimensional Lie algebras used throughout the package.

The primary series is the classification of perfect non-semisimple algebras
of dimension at most nine over a field of characteristic zero that split as
sl2 (or sl2 plus a smaller perfect algebra) acting on a nilpotent radical.
Every entry is generated from an explicit recipe (irreducible-module data
plus an optional equivariant bracket on the radical), so structure constants
are reproducible and exactly rational.  Two dimension-8 entries depend on
normalization constants for a mixed module bracket that the generic recipes
here cannot derive; they are present as stubs that raise
:class:`ExternalDataRequired` with a description of the missing data.

Auxiliary entries (abelian algebras, Heisenberg-type nilpotents, solvable
and reductive building blocks, simple matrix algebras and direct sums) back
the structural rules and the existence table.

Labels of the ``L<dim>_<k>`` form follow standard classification numbering
from the literature; they are stable identifiers, not derivations.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Mapping, Sequence

from . import linalg, sl2 as sl2mod
from .liealg import Fingerprint, LieAlgebra, direct_sum, fingerprint


class UnknownCatalogId(KeyError):
    """Raised when an identifier does not exist in the catalog."""


class ExternalDataRequired(RuntimeError):
    """Raised for stub entries whose structure constants need external data."""


# ----------------------------------------------------------------------
# matrix-basis construction (structure constants from actual commutators)
# ----------------------------------------------------------------------


def _from_matrices(size: int, mats: Sequence[Mapping[tuple[int, int], int]], name: str) -> LieAlgebra:
    """The span of ``size``-square integer matrices, each given by its
    nonzero entries ``{(r, c): x}``: the coordinates of every commutator
    ``[A_i, A_j]`` (``i < j``) flattened to columns ``r * size + c``, from one
    :func:`linalg.coordinates` call."""

    def bracket(a, b) -> dict[int, int]:
        out: defaultdict[int, int] = defaultdict(int)
        for (r, k), x in a.items():
            for (t, c), y in b.items():
                if k == t:  # a[r][k] b[k][c] in (a b)[r][c]
                    out[r * size + c] += x * y
                if c == r:  # b[t][r] a[r][k] in (b a)[t][k]
                    out[t * size + k] -= x * y
        return out

    flat = [{r * size + c: x for (r, c), x in m.items()} for m in mats]
    pairs = [(i, j) for i in range(len(mats)) for j in range(i + 1, len(mats))]
    coords = linalg.coordinates(flat, (bracket(mats[i], mats[j]) for i, j in pairs), size * size)
    if None in coords:
        raise ValueError("commutator left the span of the basis")
    return LieAlgebra.from_table(len(mats), dict(zip(pairs, coords)), name)


# ----------------------------------------------------------------------
# entry metadata
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class CatalogEntry:
    entry_id: str
    kind: str  # "perfect" | "auxiliary" | "stub"
    dim: int
    description: str
    builder: Callable[[], LieAlgebra] | None
    module_partition: tuple[int, ...] | None = None
    expected_center_dim: int | None = None
    expected_radical_dim: int | None = None
    expected_nilradical_class: int | None = None

    def build(self) -> LieAlgebra:
        if self.builder is None:
            raise ExternalDataRequired(
                f"catalog entry '{self.entry_id}' requires structure constants "
                "that are not derivable from the generic recipes in this package"
            )
        return self.builder()


_ENTRIES: dict[str, CatalogEntry] = {}


def _register(entry: CatalogEntry) -> None:
    if entry.entry_id in _ENTRIES:
        raise ValueError(f"duplicate catalog id {entry.entry_id}")
    _ENTRIES[entry.entry_id] = entry


def _perfect(
    entry_id: str,
    description: str,
    builder: Callable[[], LieAlgebra],
    partition: tuple[int, ...],
    center_dim: int,
    radical_dim: int,
    nilradical_class: int,
) -> None:
    dim = 3 + sum(partition) if not entry_id.startswith("sl2_plus_L") else None
    alg_dim = dim if dim is not None else 3 + _ENTRIES[entry_id[9:]].dim
    _register(
        CatalogEntry(
            entry_id=entry_id,
            kind="perfect",
            dim=alg_dim,
            description=description,
            builder=builder,
            module_partition=partition,
            expected_center_dim=center_dim,
            expected_radical_dim=radical_dim,
            expected_nilradical_class=nilradical_class,
        )
    )


def _aux(entry_id: str, dim: int, description: str, builder: Callable[[], LieAlgebra]) -> None:
    _register(
        CatalogEntry(
            entry_id=entry_id,
            kind="auxiliary",
            dim=dim,
            description=description,
            builder=builder,
        )
    )


# ----------------------------------------------------------------------
# perfect series (dimensions 5 through 9)
# ----------------------------------------------------------------------

_N3 = {(0, 1): {2: 1}}
_F23 = {(0, 1): {2: 1}, (0, 2): {3: 1}, (1, 2): {4: 1}}
_F32 = {(0, 1): {3: 1}, (0, 2): {4: 1}, (1, 2): {5: 1}}
_A64 = {(0, 3): {4: 1}, (1, 2): {4: -1}, (2, 3): {5: 1}}


def _sd(partition, module_table=None):
    def build(name):
        return sl2mod.semidirect(partition, module_table, name)

    return build


def _sum_with_sl2(inner_id: str):
    def build(name):
        return direct_sum(sl2mod.sl2(), get_algebra(inner_id), name=name)

    return build


def _named(buildfn, entry_id):
    return lambda: buildfn(entry_id)


_perfect(
    "L5_1",
    "split simple algebra acting on its 2-dimensional irreducible module",
    _named(_sd((2,)), "L5_1"),
    (2,),
    center_dim=0,
    radical_dim=2,
    nilradical_class=1,
)
_perfect(
    "L6_2",
    "split simple algebra acting on the Heisenberg algebra "
    "(2-dimensional module paired into its center)",
    _named(_sd((2, 1), _N3), "L6_2"),
    (2, 1),
    center_dim=1,
    radical_dim=3,
    nilradical_class=2,
)
_perfect(
    "L6_4",
    "split simple algebra acting on its 3-dimensional irreducible module",
    _named(_sd((3,)), "L6_4"),
    (3,),
    center_dim=0,
    radical_dim=3,
    nilradical_class=1,
)
_perfect(
    "L7_6",
    "split simple algebra acting on its 4-dimensional irreducible module",
    _named(_sd((4,)), "L7_6"),
    (4,),
    center_dim=0,
    radical_dim=4,
    nilradical_class=1,
)
_perfect(
    "L7_7",
    "split simple algebra acting on two copies of its 2-dimensional module",
    _named(_sd((2, 2)), "L7_7"),
    (2, 2),
    center_dim=0,
    radical_dim=4,
    nilradical_class=1,
)
_perfect(
    "L8_13e0",
    "split simple algebra acting on a free 2-dimensional module plus a "
    "Heisenberg algebra (degenerate member of a one-parameter family)",
    _named(_sd((2, 2, 1), {(2, 3): {4: 1}}), "L8_13e0"),
    (2, 2, 1),
    center_dim=1,
    radical_dim=5,
    nilradical_class=2,
)
_perfect(
    "L8_15",
    "split simple algebra acting on the free 2-generator nilpotent algebra "
    "of class three",
    _named(_sd((2, 1, 2), _F23), "L8_15"),
    (2, 1, 2),
    center_dim=0,
    radical_dim=5,
    nilradical_class=3,
)
_perfect(
    "L8_21",
    "split simple algebra acting on its 5-dimensional irreducible module",
    _named(_sd((5,)), "L8_21"),
    (5,),
    center_dim=0,
    radical_dim=5,
    nilradical_class=1,
)
_perfect(
    "L8_22",
    "split simple algebra acting on the sum of its 3- and 2-dimensional "
    "irreducible modules",
    _named(_sd((3, 2)), "L8_22"),
    (3, 2),
    center_dim=0,
    radical_dim=5,
    nilradical_class=1,
)
_perfect(
    "L9_37",
    "split simple algebra acting on two Heisenberg algebras",
    _named(_sd((2, 1, 2, 1), {(0, 1): {2: 1}, (3, 4): {5: 1}}), "L9_37"),
    (2, 1, 2, 1),
    center_dim=2,
    radical_dim=6,
    nilradical_class=2,
)
_perfect(
    "L9_41",
    "split simple algebra acting on a 6-dimensional class-two nilpotent "
    "radical built from two 2-dimensional modules paired into a "
    "2-dimensional center",
    _named(_sd((2, 2, 1, 1), _A64), "L9_41"),
    (2, 2, 1, 1),
    center_dim=2,
    radical_dim=6,
    nilradical_class=2,
)
_perfect(
    "L9_58",
    "split simple algebra acting on its 3-dimensional module plus a "
    "Heisenberg algebra",
    _named(_sd((3, 2, 1), {(3, 4): {5: 1}}), "L9_58"),
    (3, 2, 1),
    center_dim=1,
    radical_dim=6,
    nilradical_class=2,
)
_perfect(
    "L9_59",
    "split simple algebra acting on its 6-dimensional irreducible module",
    _named(_sd((6,)), "L9_59"),
    (6,),
    center_dim=0,
    radical_dim=6,
    nilradical_class=1,
)
_perfect(
    "L9_60",
    "split simple algebra acting on the sum of its 4- and 2-dimensional "
    "irreducible modules",
    _named(_sd((4, 2)), "L9_60"),
    (4, 2),
    center_dim=0,
    radical_dim=6,
    nilradical_class=1,
)
_perfect(
    "L9_61",
    "split simple algebra acting on two copies of its 3-dimensional module",
    _named(_sd((3, 3)), "L9_61"),
    (3, 3),
    center_dim=0,
    radical_dim=6,
    nilradical_class=1,
)
_perfect(
    "L9_62",
    "split simple algebra acting on the free 3-generator nilpotent algebra "
    "of class two",
    _named(_sd((3, 3), _F32), "L9_62"),
    (3, 3),
    center_dim=0,
    radical_dim=6,
    nilradical_class=2,
)
_perfect(
    "L9_63",
    "split simple algebra acting on three copies of its 2-dimensional module",
    _named(_sd((2, 2, 2)), "L9_63"),
    (2, 2, 2),
    center_dim=0,
    radical_dim=6,
    nilradical_class=1,
)

for _inner, _center, _rad, _cls in (("L5_1", 0, 2, 1), ("L6_2", 1, 3, 2), ("L6_4", 0, 3, 1)):
    _perfect(
        f"sl2_plus_{_inner}",
        f"direct sum of the split simple algebra with catalog entry {_inner}",
        _named(_sum_with_sl2(_inner), f"sl2_plus_{_inner}"),
        _ENTRIES[_inner].module_partition,
        center_dim=_center,
        radical_dim=_rad,
        nilradical_class=_cls,
    )

for _stub_id, _stub_desc in (
    (
        "L8_13e1",
        "non-degenerate member of the one-parameter family containing "
        "L8_13e0; the mixed bracket between the two 2-dimensional module "
        "blocks needs a normalization constant this package does not derive",
    ),
    (
        "L8_19",
        "split simple algebra acting on a 5-dimensional class-three radical "
        "whose bracket requires externally supplied pairing coefficients",
    ),
):
    _register(
        CatalogEntry(
            entry_id=_stub_id,
            kind="stub",
            dim=8,
            description=_stub_desc,
            builder=None,
        )
    )


# ----------------------------------------------------------------------
# auxiliary algebras
# ----------------------------------------------------------------------

for _n in range(1, 10):
    _aux(
        f"abelian_{_n}",
        _n,
        f"abelian algebra of dimension {_n}",
        (lambda n: lambda: LieAlgebra.abelian(n, f"abelian_{n}"))(_n),
    )


def _table_aux(entry_id, dim, description, table):
    _aux(
        entry_id,
        dim,
        description,
        (lambda: LieAlgebra.from_table(dim, table, entry_id)),
    )


_aux("sl2", 3, "split simple algebra of rank one", lambda: sl2mod.sl2())
_table_aux(
    "so3",
    3,
    "rational rotation algebra; a simple form with definite invariant form, "
    "not isomorphic to the split form over the rationals",
    {(0, 1): {2: -1}, (0, 2): {1: 1}, (1, 2): {0: -1}},
)
_aux(
    "sl3",
    8,
    "traceless 3-by-3 matrices (basis: two diagonal, three upper, three "
    "lower elementary matrices)",
    lambda: _from_matrices(
        3,
        [
            {(0, 0): 1, (1, 1): -1},
            {(1, 1): 1, (2, 2): -1},
            {(0, 1): 1},
            {(1, 2): 1},
            {(0, 2): 1},
            {(1, 0): 1},
            {(2, 1): 1},
            {(2, 0): 1},
        ],
        "sl3",
    ),
)
_aux(
    "b3",
    5,
    "upper-triangular traceless 3-by-3 matrices (a complete solvable algebra)",
    lambda: _from_matrices(
        3,
        [
            {(0, 0): 1, (1, 1): -1},
            {(1, 1): 1, (2, 2): -1},
            {(0, 1): 1},
            {(1, 2): 1},
            {(0, 2): 1},
        ],
        "b3",
    ),
)
_aux(
    "gl2",
    4,
    "all 2-by-2 matrices (reductive with 1-dimensional center)",
    lambda: _from_matrices(2, [{(0, 0): 1}, {(0, 1): 1}, {(1, 0): 1}, {(1, 1): 1}], "gl2"),
)
_table_aux("n3", 3, "Heisenberg algebra on one generator pair", _N3)
_table_aux(
    "n5",
    5,
    "Heisenberg algebra on two generator pairs",
    {(0, 1): {4: 1}, (2, 3): {4: 1}},
)
_table_aux(
    "f23",
    5,
    "free nilpotent algebra of class three on two generators",
    _F23,
)
_table_aux(
    "f32",
    6,
    "free nilpotent algebra of class two on three generators",
    _F32,
)
_table_aux(
    "a64",
    6,
    "class-two nilpotent algebra with 2-dimensional center and paired "
    "4-dimensional generator space",
    _A64,
)
_table_aux("r2", 2, "non-abelian 2-dimensional algebra", {(0, 1): {0: 1}})
_table_aux(
    "scaling5",
    5,
    "scaling extension: one element acting as the identity on a "
    "4-dimensional abelian ideal",
    {(i, 4): {i: -1} for i in range(4)},
)

_SUMS: dict[str, tuple[str, ...]] = {
    "r2_plus_C": ("r2", "abelian_1"),
    "r2_plus_C2": ("r2", "abelian_2"),
    "r2_plus_r2": ("r2", "r2"),
    "r2_plus_r2_plus_C2": ("r2", "r2", "abelian_2"),
    "r2_plus_r2_plus_r2": ("r2", "r2", "r2"),
    "n3_plus_C": ("n3", "abelian_1"),
    "n3_plus_C2": ("n3", "abelian_2"),
    "n3_plus_r2": ("n3", "r2"),
    "n3_plus_n3": ("n3", "n3"),
    "n5_plus_C": ("n5", "abelian_1"),
    "f23_plus_C": ("f23", "abelian_1"),
    "sl2_plus_C": ("sl2", "abelian_1"),
    "sl2_plus_C2": ("sl2", "abelian_2"),
    "sl2_plus_r2": ("sl2", "r2"),
    "sl2_plus_sl2": ("sl2", "sl2"),
    "sl2_plus_sl2_plus_C": ("sl2", "sl2", "abelian_1"),
    "sl2_plus_sl2_plus_sl2": ("sl2", "sl2", "sl2"),
    "sl3_plus_C": ("sl3", "abelian_1"),
    "b3_plus_sl2": ("b3", "sl2"),
}

for _sum_id, _parts in _SUMS.items():
    _aux(
        _sum_id,
        sum(_ENTRIES[p].dim for p in _parts),
        "direct sum of " + " and ".join(_parts),
        (lambda parts, sid: lambda: direct_sum(
            *(get_algebra(p) for p in parts), name=sid
        ))(_parts, _sum_id),
    )


# ----------------------------------------------------------------------
# public interface
# ----------------------------------------------------------------------


def catalog_ids() -> tuple[str, ...]:
    """All identifiers, sorted."""
    return tuple(sorted(_ENTRIES))


def perfect_ids(include_stubs: bool = False) -> tuple[str, ...]:
    kinds = {"perfect", "stub"} if include_stubs else {"perfect"}
    return tuple(sorted(e.entry_id for e in _ENTRIES.values() if e.kind in kinds))


def get_entry(entry_id: str) -> CatalogEntry:
    try:
        return _ENTRIES[entry_id]
    except KeyError:
        raise UnknownCatalogId(entry_id) from None


@lru_cache(maxsize=None)
def get_algebra(entry_id: str) -> LieAlgebra:
    return get_entry(entry_id).build()


# Fingerprint identification.  Fingerprint equality never proves
# isomorphism.  Within the perfect series the sets below are genuinely
# non-isomorphic entries (different module decompositions of the radical)
# sharing every fingerprint invariant; ``identify`` returns all candidates
# and callers must treat multi-element answers as "one of these".  Among
# the auxiliaries, ``gl2`` and ``sl2_plus_C`` are two presentations of the
# same algebra, while ``sl2``/``so3`` and ``a64``/``n3_plus_n3`` are
# non-isomorphic invariant-equal pairs.
FINGERPRINT_COLLISIONS: frozenset[frozenset[str]] = frozenset(
    {
        frozenset({"L7_6", "L7_7"}),
        frozenset({"L8_21", "L8_22"}),
        frozenset({"L9_37", "L9_41"}),
        frozenset({"L9_59", "L9_60", "L9_61", "L9_63"}),
    }
)


@lru_cache(maxsize=None)
def _fingerprint_index() -> tuple[tuple[Fingerprint, tuple[str, ...]], ...]:
    buckets: dict[Fingerprint, list[str]] = {}
    for entry_id in catalog_ids():
        entry = get_entry(entry_id)
        if entry.kind == "stub":
            continue
        buckets.setdefault(fingerprint(get_algebra(entry_id)), []).append(entry_id)
    return tuple((fp, tuple(sorted(ids))) for fp, ids in buckets.items())


def identify(alg: LieAlgebra) -> tuple[str, ...]:
    """Catalog entries whose fingerprint matches the given algebra."""
    fp = fingerprint(alg)
    for known, ids in _fingerprint_index():
        if known == fp:
            return ids
    return ()
