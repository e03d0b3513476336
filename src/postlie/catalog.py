"""Catalog of low-dimensional Lie algebras used throughout the package.

The primary series is the classification of perfect non-semisimple algebras
of dimension at most nine over a field of characteristic zero that split as
sl2 (or sl2 plus a smaller perfect algebra) acting on a nilpotent radical.
Every entry is one row of a recipe table, so structure constants are
reproducible and exactly rational:

* ``_SEMIDIRECT`` — sl2 acting on a sum of irreducible modules (the
  partition) with an optional equivariant bracket on the radical, and the
  center, radical and nilradical class recorded for the tests;
* ``_TABLES`` — auxiliaries given by a sparse bracket table (the abelian
  algebras of dimension 1 to 9 are one loop beside it);
* ``_MATRICES`` — auxiliaries spanned by integer matrices, bracketed by
  their commutators;
* ``_SUMS`` — direct sums of earlier entries.  A sum with a perfect part is
  perfect and records that part's invariants (sl2 adds no center and no
  radical).

Each row registers through one ``_register`` whose builder is a
``functools.partial`` of the construction, so importing the catalog builds
nothing.  Two dimension-8 entries depend on normalization constants for a
mixed module bracket that the generic recipes here cannot derive; they are
present as stubs that raise :class:`ExternalDataRequired` with a
description of the missing data.

Labels of the ``L<dim>_<k>`` form follow standard classification numbering
from the literature; they are stable identifiers, not derivations.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache, partial
from typing import Callable, Mapping, Sequence

from . import linalg, sl2 as sl2mod
from .liealg import Fingerprint, LieAlgebra, direct_sum, fingerprint


class UnknownCatalogId(KeyError):
    """Raised when an identifier does not exist in the catalog."""


class ExternalDataRequired(RuntimeError):
    """Raised for stub entries whose structure constants need external data."""


# ----------------------------------------------------------------------
# constructions behind the recipe rows
# ----------------------------------------------------------------------


def _from_matrices(size: int, mats: Sequence[Mapping[tuple[int, int], int]], name: str) -> LieAlgebra:
    """The span of ``size``-square integer matrices, each given by its
    nonzero entries ``{(r, c): x}`` and flattened to columns ``r * size +
    c``: the coordinates of every :func:`linalg.sparse_commutator`
    ``[A_i, A_j]`` (``i < j``) in the flattened basis, from one
    :func:`linalg.coordinates` call."""
    flat = [{r * size + c: x for (r, c), x in m.items()} for m in mats]
    pairs = [(i, j) for i in range(len(mats)) for j in range(i + 1, len(mats))]
    brackets = (linalg.sparse_commutator(flat[i], flat[j], size) for i, j in pairs)
    coords = linalg.coordinates(flat, brackets, size * size)
    if None in coords:
        raise ValueError("commutator left the span of the basis")
    return LieAlgebra.from_table(len(mats), dict(zip(pairs, coords)), name)


def _direct_sum(parts: Sequence[str], name: str) -> LieAlgebra:
    return direct_sum(*(get_algebra(p) for p in parts), name=name)


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


def _register(
    entry_id: str,
    kind: str,
    dim: int,
    description: str,
    builder: Callable[[], LieAlgebra] | None,
    **recorded,
) -> None:
    if entry_id in _ENTRIES:
        raise ValueError(f"duplicate catalog id {entry_id}")
    _ENTRIES[entry_id] = CatalogEntry(entry_id, kind, dim, description, builder, **recorded)


# ----------------------------------------------------------------------
# recipe tables
# ----------------------------------------------------------------------

_N3 = {(0, 1): {2: 1}}
_F23 = {(0, 1): {2: 1}, (0, 2): {3: 1}, (1, 2): {4: 1}}
_F32 = {(0, 1): {3: 1}, (0, 2): {4: 1}, (1, 2): {5: 1}}
_A64 = {(0, 3): {4: 1}, (1, 2): {4: -1}, (2, 3): {5: 1}}

# (id, partition, module bracket, center dim, radical dim, nilradical
# class, description) of each perfect sl2 ⋉ radical
_SEMIDIRECT = (
    ("L5_1", (2,), None, 0, 2, 1,
     "split simple algebra acting on its 2-dimensional irreducible module"),
    ("L6_2", (2, 1), _N3, 1, 3, 2,
     "split simple algebra acting on the Heisenberg algebra "
     "(2-dimensional module paired into its center)"),
    ("L6_4", (3,), None, 0, 3, 1,
     "split simple algebra acting on its 3-dimensional irreducible module"),
    ("L7_6", (4,), None, 0, 4, 1,
     "split simple algebra acting on its 4-dimensional irreducible module"),
    ("L7_7", (2, 2), None, 0, 4, 1,
     "split simple algebra acting on two copies of its 2-dimensional module"),
    ("L8_13e0", (2, 2, 1), {(2, 3): {4: 1}}, 1, 5, 2,
     "split simple algebra acting on a free 2-dimensional module plus a "
     "Heisenberg algebra (degenerate member of a one-parameter family)"),
    ("L8_15", (2, 1, 2), _F23, 0, 5, 3,
     "split simple algebra acting on the free 2-generator nilpotent algebra "
     "of class three"),
    ("L8_21", (5,), None, 0, 5, 1,
     "split simple algebra acting on its 5-dimensional irreducible module"),
    ("L8_22", (3, 2), None, 0, 5, 1,
     "split simple algebra acting on the sum of its 3- and 2-dimensional "
     "irreducible modules"),
    ("L9_37", (2, 1, 2, 1), {(0, 1): {2: 1}, (3, 4): {5: 1}}, 2, 6, 2,
     "split simple algebra acting on two Heisenberg algebras"),
    ("L9_41", (2, 2, 1, 1), _A64, 2, 6, 2,
     "split simple algebra acting on a 6-dimensional class-two nilpotent "
     "radical built from two 2-dimensional modules paired into a "
     "2-dimensional center"),
    ("L9_58", (3, 2, 1), {(3, 4): {5: 1}}, 1, 6, 2,
     "split simple algebra acting on its 3-dimensional module plus a "
     "Heisenberg algebra"),
    ("L9_59", (6,), None, 0, 6, 1,
     "split simple algebra acting on its 6-dimensional irreducible module"),
    ("L9_60", (4, 2), None, 0, 6, 1,
     "split simple algebra acting on the sum of its 4- and 2-dimensional "
     "irreducible modules"),
    ("L9_61", (3, 3), None, 0, 6, 1,
     "split simple algebra acting on two copies of its 3-dimensional module"),
    ("L9_62", (3, 3), _F32, 0, 6, 2,
     "split simple algebra acting on the free 3-generator nilpotent algebra "
     "of class two"),
    ("L9_63", (2, 2, 2), None, 0, 6, 1,
     "split simple algebra acting on three copies of its 2-dimensional module"),
)

# (id, description) of each dimension-8 stub
_STUBS = (
    ("L8_13e1",
     "non-degenerate member of the one-parameter family containing "
     "L8_13e0; the mixed bracket between the two 2-dimensional module "
     "blocks needs a normalization constant this package does not derive"),
    ("L8_19",
     "split simple algebra acting on a 5-dimensional class-three radical "
     "whose bracket requires externally supplied pairing coefficients"),
)

# (id, dim, bracket table, description)
_TABLES = (
    ("sl2", 3, sl2mod.SL2_TABLE, "split simple algebra of rank one"),
    ("so3", 3, {(0, 1): {2: -1}, (0, 2): {1: 1}, (1, 2): {0: -1}},
     "rational rotation algebra; a simple form with definite invariant form, "
     "not isomorphic to the split form over the rationals"),
    ("n3", 3, _N3, "Heisenberg algebra on one generator pair"),
    ("n5", 5, {(0, 1): {4: 1}, (2, 3): {4: 1}},
     "Heisenberg algebra on two generator pairs"),
    ("f23", 5, _F23, "free nilpotent algebra of class three on two generators"),
    ("f32", 6, _F32, "free nilpotent algebra of class two on three generators"),
    ("a64", 6, _A64,
     "class-two nilpotent algebra with 2-dimensional center and paired "
     "4-dimensional generator space"),
    ("r2", 2, {(0, 1): {0: 1}}, "non-abelian 2-dimensional algebra"),
    ("scaling5", 5, {(i, 4): {i: -1} for i in range(4)},
     "scaling extension: one element acting as the identity on a "
     "4-dimensional abelian ideal"),
)

# sl3's basis: two diagonal, three upper, three lower elementary matrices
_SL3 = (
    {(0, 0): 1, (1, 1): -1},
    {(1, 1): 1, (2, 2): -1},
    {(0, 1): 1},
    {(1, 2): 1},
    {(0, 2): 1},
    {(1, 0): 1},
    {(2, 1): 1},
    {(2, 0): 1},
)

# (id, matrix size, basis matrices, description)
_MATRICES = (
    ("sl3", 3, _SL3,
     "traceless 3-by-3 matrices (basis: two diagonal, three upper, three "
     "lower elementary matrices)"),
    ("b3", 3, _SL3[:5],
     "upper-triangular traceless 3-by-3 matrices (a complete solvable algebra)"),
    ("gl2", 2, ({(0, 0): 1}, {(0, 1): 1}, {(1, 0): 1}, {(1, 1): 1}),
     "all 2-by-2 matrices (reductive with 1-dimensional center)"),
)

# id -> parts of each direct sum; every part is registered above
_SUMS: dict[str, tuple[str, ...]] = {
    "sl2_plus_L5_1": ("sl2", "L5_1"),
    "sl2_plus_L6_2": ("sl2", "L6_2"),
    "sl2_plus_L6_4": ("sl2", "L6_4"),
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

for _id, _partition, _bracket, _center, _radical, _class, _desc in _SEMIDIRECT:
    _register(
        _id,
        "perfect",
        3 + sum(_partition),
        _desc,
        partial(sl2mod.semidirect, _partition, _bracket, _id),
        module_partition=_partition,
        expected_center_dim=_center,
        expected_radical_dim=_radical,
        expected_nilradical_class=_class,
    )
for _id, _desc in _STUBS:
    _register(_id, "stub", 8, _desc, None)
for _n in range(1, 10):
    _register(
        f"abelian_{_n}",
        "auxiliary",
        _n,
        f"abelian algebra of dimension {_n}",
        partial(LieAlgebra.abelian, _n, f"abelian_{_n}"),
    )
for _id, _dim, _table, _desc in _TABLES:
    _register(_id, "auxiliary", _dim, _desc, partial(LieAlgebra.from_table, _dim, _table, _id))
for _id, _size, _mats, _desc in _MATRICES:
    _register(_id, "auxiliary", len(_mats), _desc, partial(_from_matrices, _size, _mats, _id))
for _id, _parts in _SUMS.items():
    _builder = partial(_direct_sum, _parts, _id)
    _dim = sum(_ENTRIES[p].dim for p in _parts)
    _inner = next((_ENTRIES[p] for p in _parts if _ENTRIES[p].kind == "perfect"), None)
    if _inner is None:
        _register(_id, "auxiliary", _dim, "direct sum of " + " and ".join(_parts), _builder)
    else:
        _register(
            _id,
            "perfect",
            _dim,
            f"direct sum of the split simple algebra with catalog entry {_inner.entry_id}",
            _builder,
            module_partition=_inner.module_partition,
            expected_center_dim=_inner.expected_center_dim,
            expected_radical_dim=_inner.expected_radical_dim,
            expected_nilradical_class=_inner.expected_nilradical_class,
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
def _fingerprint_index() -> dict[Fingerprint, tuple[str, ...]]:
    buckets: dict[Fingerprint, list[str]] = {}
    for entry_id in catalog_ids():
        entry = get_entry(entry_id)
        if entry.kind == "stub":
            continue
        buckets.setdefault(fingerprint(get_algebra(entry_id)), []).append(entry_id)
    return {fp: tuple(sorted(ids)) for fp, ids in buckets.items()}


def identify(alg: LieAlgebra) -> tuple[str, ...]:
    """Catalog entries whose fingerprint matches the given algebra.

    Invariants are cached once per bracket data and held weakly (see
    :mod:`postlie.liealg`), so the index and an algebra with a catalog
    entry's brackets, such as a parsed catalog document, share one
    fingerprint computation, whichever is fingerprinted first."""
    return _fingerprint_index().get(fingerprint(alg), ())
