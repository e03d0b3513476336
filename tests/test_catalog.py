"""Catalog integrity: every entry builds deterministically and matches its
recorded invariants (dimension, center, radical, nilradical class)."""

import dataclasses
import hashlib
import json
import subprocess
import sys

import pytest

from postlie import interchange
from postlie.catalog import (
    FINGERPRINT_COLLISIONS,
    CatalogEntry,
    ExternalDataRequired,
    UnknownCatalogId,
    catalog_ids,
    get_algebra,
    get_entry,
    identify,
    perfect_ids,
)
from postlie.liealg import fingerprint


def test_perfect_inventory():
    with_stubs = perfect_ids(include_stubs=True)
    buildable = perfect_ids()
    assert len(with_stubs) == 22
    assert len(buildable) == 20
    stubs = sorted(set(with_stubs) - set(buildable))
    assert stubs == ["L8_13e1", "L8_19"]
    by_dim = {}
    for entry_id in with_stubs:
        by_dim.setdefault(get_entry(entry_id).dim, []).append(entry_id)
    assert {d: len(ids) for d, ids in sorted(by_dim.items())} == {
        5: 1,
        6: 2,
        7: 2,
        8: 7,
        9: 10,
    }


def test_stub_entries_refuse_to_build():
    for stub_id in ("L8_13e1", "L8_19"):
        entry = get_entry(stub_id)
        assert entry.kind == "stub"
        assert entry.expected_center_dim is None
        with pytest.raises(ExternalDataRequired):
            get_algebra(stub_id)


def test_unknown_id_raises():
    with pytest.raises(UnknownCatalogId):
        get_entry("no_such_algebra")
    with pytest.raises(UnknownCatalogId):
        get_algebra("no_such_algebra")


def test_every_buildable_entry_satisfies_recorded_invariants():
    for entry_id in catalog_ids():
        entry = get_entry(entry_id)
        if entry.kind == "stub":
            continue
        alg = get_algebra(entry_id)
        assert alg.dim == entry.dim, entry_id
        assert alg.is_lie(), entry_id
        if entry.expected_center_dim is not None:
            assert alg.center().dim == entry.expected_center_dim, entry_id
        if entry.expected_radical_dim is not None:
            assert alg.solvable_radical().dim == entry.expected_radical_dim, entry_id


def test_perfect_entries_are_perfect_but_not_semisimple():
    for entry_id in perfect_ids():
        alg = get_algebra(entry_id)
        assert alg.is_perfect(), entry_id
        assert not alg.is_semisimple(), entry_id
        assert alg.solvable_radical().dim > 0, entry_id


def test_dim9_nilradicals_are_at_most_two_step():
    for entry_id in perfect_ids():
        entry = get_entry(entry_id)
        if entry.dim != 9:
            continue
        assert entry.expected_nilradical_class is not None
        assert entry.expected_nilradical_class <= 2, entry_id


def test_builds_are_deterministic():
    for entry_id in ("L5_1", "L7_6", "L9_59", "f23", "sl2_plus_sl2"):
        assert get_algebra(entry_id).brackets == get_algebra(entry_id).brackets


def test_identify_separates_noncolliding_entries():
    assert identify(get_algebra("L6_2")) == ("L6_2",)
    assert identify(get_algebra("abelian_5")) == ("abelian_5",)
    assert identify(get_algebra("L5_1")) == ("L5_1",)


def test_fingerprint_collisions_are_exactly_the_recorded_ones():
    assert FINGERPRINT_COLLISIONS == frozenset(
        {
            frozenset({"L7_6", "L7_7"}),
            frozenset({"L8_21", "L8_22"}),
            frozenset({"L9_37", "L9_41"}),
            frozenset({"L9_59", "L9_60", "L9_61", "L9_63"}),
        }
    )
    for group in FINGERPRINT_COLLISIONS:
        members = sorted(group)
        prints = {fingerprint(get_algebra(m)) for m in members}
        assert len(prints) == 1, members
        for m in members:
            assert identify(get_algebra(m)) == tuple(members)


def test_colliding_entries_are_still_distinct_algebras():
    for group in FINGERPRINT_COLLISIONS:
        tables = {get_algebra(m).brackets for m in sorted(group)}
        assert len(tables) == len(group)


def test_auxiliary_oracles():
    heis_sum = get_algebra("n3_plus_r2")
    fp = fingerprint(heis_sum)
    assert fp.dim == 5
    assert fp.derived_dims == (5, 2, 0)
    assert fp.center_dim == 1
    assert not fp.nilpotent

    f23 = get_algebra("f23")
    assert f23.is_nilpotent()
    assert f23.nilpotency_class() == 3

    n5 = get_algebra("n5")
    assert n5.is_nilpotent()
    assert n5.nilpotency_class() == 2


def test_entry_metadata_shape():
    entry = get_entry("L9_37")
    assert isinstance(entry, CatalogEntry)
    assert entry.module_partition == (2, 1, 2, 1)
    assert entry.description
    assert entry.dim == 9


# sha256 over every entry's fields (the builder as "buildable") and, for
# each buildable entry, the built algebra's own name and its serialized
# document: a change of recipe, registration or description shows here
CATALOG_SHA256 = "2e4703dc09cb74ae283e88eb9141a57448e135bb31c5d9211ff5ab2aa85f8ebe"


def test_every_entry_and_build_is_pinned():
    records = []
    for entry_id in catalog_ids():
        entry = get_entry(entry_id)
        record = {f.name: getattr(entry, f.name) for f in dataclasses.fields(entry) if f.name != "builder"}
        record["buildable"] = entry.builder is not None
        if entry.builder is not None:
            alg = get_algebra(entry_id)
            record["name"] = alg.name
            record["document"] = interchange.serialize(alg)
        records.append(record)
    assert len(records) == 62
    digest = hashlib.sha256(json.dumps(records, sort_keys=True).encode()).hexdigest()
    assert digest == CATALOG_SHA256


def test_importing_the_package_builds_no_algebra():
    # counts calls by code location, so the sample products that the
    # import does build (``PAProduct.from_table``) show the watch works
    script = (
        "import os, sys\n"
        "calls = {}\n"
        "def watch(frame, event, arg):\n"
        "    code = frame.f_code\n"
        "    if event == 'call' and code.co_name == 'from_table':\n"
        "        where = os.path.basename(code.co_filename)\n"
        "        calls[where] = calls.get(where, 0) + 1\n"
        "sys.setprofile(watch)\n"
        "import postlie\n"
        "sys.setprofile(None)\n"
        "print(calls.get('liealg.py', 0), calls.get('structures.py', 0))\n"
    )
    result = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, timeout=60)
    assert result.returncode == 0, result.stderr
    assert result.stdout.split() == ["0", "4"]
