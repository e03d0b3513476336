"""The benchmark's three workloads: how each op runs and how it is checked.

A workload turns the reference data under ``perfbench/data/`` into a list of
ops.  ``run`` performs one op and returns its raw output; ``check`` decides,
after the pass has been timed, whether that output is correct and whether it
is a decided answer.  ``known_defect_ops`` lists inputs on which the
program is known to answer wrongly: each run checks them once, untimed, and
reports whether the defect is still there.  Every call into postlie goes through a module
attribute (``search.pa_search``, not an imported name), so the wrappers the
tracer installs see it.
"""

from __future__ import annotations

import contextlib
import io
import json
import pathlib

from postlie import catalog, cli, interchange, liealg, search, structures, table

DATA = pathlib.Path(__file__).resolve().parent / "data"

PREDICATES = (
    "abelian",
    "nilpotent",
    "solvable",
    "simple",
    "semisimple",
    "reductive",
    "complete",
    "perfect",
)

EXIT_CODES = {"exists": 0, "not_exists": 1, "unknown": 2}


def invariant_report(parsed) -> dict:
    """The ``postlie invariants`` report, assembled from public calls."""
    alg = parsed.value
    report = {
        "name": parsed.name,
        "fingerprint": liealg.fingerprint(alg).as_dict(),
        "jacobi_ok": alg.is_lie(),
    }
    for predicate in PREDICATES:
        report[predicate] = getattr(alg, f"is_{predicate}")()
    report["classes"] = list(table.classify(alg))
    report["catalog_matches"] = list(catalog.identify(alg))
    return report


class Grid:
    """``postlie table --json`` in-process, checked byte for byte."""

    name = "grid"

    def __init__(self, root: pathlib.Path):
        self.reference = (DATA / "table.txt").read_text(encoding="utf-8")

    def ops(self) -> list:
        return [("table", None)]

    def known_defect_ops(self) -> list:
        return []

    def run(self, payload):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli.main(["table", "--json"])
        return code, out.getvalue()

    def check(self, payload, output) -> tuple[bool, bool]:
        code, text = output
        ok = code == 0 and text == self.reference
        return ok, ok


class Search:
    """``pa_search`` on literal pairs; every verdict checked on its pair.

    The timed ops are the 42 recorded pairs outside ``KNOWN_DEFECTS``.  On
    those two pairs ``pa_search`` returns ``exists`` with a witness that
    fails ``verify_pa`` (a false certificate: ``so3`` and ``sl2`` share a
    fingerprint but are not isomorphic over Q).  A measured workload must be
    one on which no op fails, so they are not timed; instead every run
    re-checks them with the same ``check`` and reports each as reproduced or
    fixed (see ``known_defect_ops``).
    """

    name = "search"
    KNOWN_DEFECTS = ("so3/sl2", "sl2/so3")

    def __init__(self, root: pathlib.Path):
        self.pairs = json.loads((DATA / "search_pairs.json").read_text(encoding="utf-8"))

    def _ops(self, known_defects: bool) -> list:
        ops = []
        for pair in self.pairs:
            if (pair["id"] in self.KNOWN_DEFECTS) == known_defects:
                g = interchange.parse_document(pair["g"]).value
                n = interchange.parse_document(pair["n"]).value
                ops.append((pair["id"], (g, n, pair["budget"], pair["has_witness"])))
        return ops

    def ops(self) -> list:
        return self._ops(known_defects=False)

    def known_defect_ops(self) -> list:
        return self._ops(known_defects=True)

    def run(self, payload):
        g, n, budget, _ = payload
        return search.pa_search(g, n, budget=budget, g_name=g.name, n_name=n.name)

    def check(self, payload, cert) -> tuple[bool, bool]:
        g, n, _, has_witness = payload
        if cert.exit_code != EXIT_CODES[cert.verdict]:
            return False, False
        if cert.verdict == "exists":
            ok = cert.witness is not None and structures.verify_pa(g, n, cert.witness).ok
            return ok, ok
        if cert.verdict == "not_exists":
            return not has_witness, not has_witness
        return True, False


class Sweep:
    """Parse, report on and re-serialize the 60 shipped catalog documents."""

    name = "sweep"

    def __init__(self, root: pathlib.Path):
        self.catalog_dir = root / "src" / "postlie" / "data" / "catalog"
        self.reference = json.loads((DATA / "sweep.json").read_text(encoding="utf-8"))

    def ops(self) -> list:
        return [(name, self.catalog_dir / name) for name in sorted(self.reference)]

    def known_defect_ops(self) -> list:
        return []

    def run(self, path):
        text = path.read_text(encoding="utf-8")
        parsed = interchange.parse_text(text, filename=path.name)
        report = invariant_report(parsed)
        again = interchange.serialize(
            parsed.value, name=parsed.name, basis=parsed.basis, metadata=parsed.metadata or None
        )
        return text, report, again

    def check(self, path, output) -> tuple[bool, bool]:
        text, report, again = output
        ok = again == text and json.loads(json.dumps(report)) == self.reference[path.name]
        return ok, ok


WORKLOADS = {cls.name: cls for cls in (Grid, Search, Sweep)}
