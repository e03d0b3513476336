"""Regenerate the benchmark's reference data from the tree it sits in.

Run from the repository root::

    python3 perfbench/record.py

It writes three files under ``perfbench/data/``:

* ``table.txt`` — the exact stdout bytes of ``postlie table --json``;
* ``sweep.json`` — the invariant report of every shipped catalog document;
* ``search_pairs.json`` — the 44 ``pa_search`` inputs as interchange
  documents, each with whether a literal witness is registered for it.

The files were recorded once from the commit that introduced the benchmark
and are the reference every later commit is checked against.  Re-running
this script on a later commit would move the reference, so do that only
when an output is meant to change.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import pathlib
import sys

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

from postlie import catalog, cli, interchange, table  # noqa: E402

import workloads  # noqa: E402

DATA = HERE / "data"
DEFAULT_BUDGET = 512

# invariant-equal pairs on which a fingerprint match alone is not an isomorphism
NAMED_PAIRS = (("so3", "sl2"), ("sl2", "so3"), ("a64", "n3_plus_n3"), ("gl2", "sl2_plus_C"))
DEEP_PAIR = ("r2", "abelian_2", 6000)


def _document(alg, name: str) -> dict:
    return interchange.algebra_document(alg, name=name)


def record_table() -> None:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(["table", "--json"])
    if code != 0:
        raise SystemExit(f"postlie table --json exited {code}")
    (DATA / "table.txt").write_text(out.getvalue(), encoding="utf-8")


def record_sweep() -> None:
    reports = {}
    for path in sorted((ROOT / "src" / "postlie" / "data" / "catalog").glob("*.json")):
        parsed = interchange.parse_text(path.read_text(encoding="utf-8"))
        reports[path.name] = workloads.invariant_report(parsed)
    (DATA / "sweep.json").write_text(
        json.dumps(reports, indent=1, sort_keys=True) + "\n", encoding="utf-8"
    )


def record_search_pairs() -> None:
    pairs = []
    seen = set()
    for witness in table._EXISTS.values():
        g, n, _, _ = witness.materialize()
        key = (g.brackets, n.brackets)
        if key in seen:
            continue
        seen.add(key)
        pairs.append(("witness", f"{witness.g_id}/{witness.n_id}", g, n, DEFAULT_BUDGET))
    collision_pairs = sorted(
        pair
        for group in catalog.FINGERPRINT_COLLISIONS
        for pair in itertools.combinations(sorted(group), 2)
    )
    for g_id, n_id in collision_pairs + list(NAMED_PAIRS):
        pairs.append(
            ("catalog", f"{g_id}/{n_id}", catalog.get_algebra(g_id), catalog.get_algebra(n_id), DEFAULT_BUDGET)
        )
    g_id, n_id, budget = DEEP_PAIR
    pairs.append(("deep", f"{g_id}/{n_id}@{budget}", catalog.get_algebra(g_id), catalog.get_algebra(n_id), budget))

    docs = []
    for source, pair_id, g, n, budget in pairs:
        g_name, n_name = pair_id.split("@")[0].split("/")
        docs.append(
            {
                "id": pair_id,
                "source": source,
                "budget": budget,
                "has_witness": (g.brackets, n.brackets) in seen,
                "g": _document(g, g_name),
                "n": _document(n, n_name),
            }
        )
    (DATA / "search_pairs.json").write_text(
        json.dumps(docs, indent=1) + "\n", encoding="utf-8"
    )


def main() -> int:
    DATA.mkdir(exist_ok=True)
    record_table()
    record_sweep()
    record_search_pairs()
    return 0


if __name__ == "__main__":
    sys.exit(main())
