"""Spans around postlie's public calls, installed from outside the package.

``install`` replaces each target function with a wrapper at every place it
is bound: the defining module, every ``postlie`` module that imported the
name (``search.fingerprint`` and ``liealg.fingerprint`` are one function
bound twice), and the package namespace.  Methods are replaced on their
class.  A target the tree does not have is listed in ``Tracer.missing``;
the worker refuses to run a traced pass while that list is not empty.

While ``Tracer.enabled`` is set, each wrapped call appends a span
``[name, start, end, parent, op_id, excluded]`` to an in-memory list.
``excluded`` is time the tracer itself spent inside that span after a
child returned (hashing a matrix, say); it is taken out of self time.
Counters that only a call's arguments or result can give (matrix sizes,
bytes, axiom-2 hits) are added by per-target hooks.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import sys
import time
from collections import Counter, defaultdict
from functools import cached_property

perf_counter = time.perf_counter


class Tracer:
    def __init__(self):
        self.enabled = False
        self.op_id = None
        self.spans: list[list] = []
        self.counters: Counter = Counter()
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._rref_seen: set = set()

    def wrap(self, name: str, fn, hook=None):
        spans = self.spans
        stack = self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            parent = stack[-1] if stack else -1
            record = [name, 0.0, 0.0, parent, self.op_id, 0.0]
            stack.append(len(spans))
            spans.append(record)
            record[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = perf_counter()
                stack.pop()
            if hook is not None:
                hook(self, args, result)
                if parent >= 0:
                    spans[parent][5] += perf_counter() - record[2]
            return result

        return wrapper

    # ------------------------------------------------------------------
    # reporting
    # ------------------------------------------------------------------

    def span_self_times(self) -> list[float]:
        """Self time of each span: its time minus its children's and its excluded time."""
        own = [end - start - excluded for _, start, end, _, _, excluded in self.spans]
        for _, start, end, parent, _, _ in self.spans:
            if parent >= 0:
                own[parent] -= end - start
        return own

    def self_times(self) -> dict[str, float]:
        """Total self time per span name."""
        totals: dict[str, float] = defaultdict(float)
        for span, own in zip(self.spans, self.span_self_times()):
            totals[span[0]] += own
        return totals

    def stage_times(self, stages) -> dict[str, float]:
        """Time per stage: the self times of every span whose nearest
        enclosing span (itself included) named in ``stages`` has that name.

        A stage's time thus holds its callees' work but not the tracer's own
        (``excluded``), nor the time of a stage nested in it.  Spans are
        recorded on entry, so a parent's index is below its children's.
        """
        owner: list = [None] * len(self.spans)
        totals = dict.fromkeys(stages, 0.0)
        for index, (span, own) in enumerate(zip(self.spans, self.span_self_times())):
            name, parent = span[0], span[3]
            owner[index] = name if name in totals else (owner[parent] if parent >= 0 else None)
            if owner[index] is not None:
                totals[owner[index]] += own
        return totals

    def call_counts(self) -> Counter:
        return Counter(span[0] for span in self.spans)

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(
                {"fields": ["name", "start", "end", "parent", "op", "excluded"], "spans": self.spans},
                handle,
                separators=(",", ":"),
            )


# ----------------------------------------------------------------------
# hooks: counters measured at the call that does the work
# ----------------------------------------------------------------------


def _rref_hook(tracer: Tracer, args, result) -> None:
    matrix = args[0]
    rows = len(matrix)
    cols = len(matrix[0]) if rows else 0
    tracer.counters["rref.entries"] += rows * cols
    tracer.counters["rref.nonzeros"] += sum(1 for row in matrix for x in row if x)
    key = tuple(map(tuple, matrix))  # exact: small Fractions share hash values
    if key not in tracer._rref_seen:
        tracer._rref_seen.add(key)
        tracer.counters["rref.distinct"] += 1


def _bytes_hook(tracer: Tracer, args, result) -> None:
    text = result if isinstance(result, str) else args[0]
    tracer.counters["interchange.bytes"] += len(text.encode("utf-8"))


def _s1_hook(tracer: Tracer, args, result) -> None:
    g, n = args[0], args[1]
    enabled, tracer.enabled = tracer.enabled, False
    try:
        tracer.counters["s1.unknowns"] += g.dim * len(n.derivations())
    finally:
        tracer.enabled = enabled


def _axiom2_hook(tracer: Tracer, args, result) -> None:
    tracer.counters["s3.axiom2_hits"] += bool(result)


def _table_hook(tracer: Tracer, args, result) -> None:
    tracer.counters["table.cells"] += len(result.cells)


def _certificate_hook(tracer: Tracer, args, result) -> None:
    tracer.counters["s2.subsets"] += result.subsets_checked
    tracer.counters["s3.points"] += result.points_checked


# (module, attribute path, span name, hook).  Spans named ``*.other`` feed no
# metric of their own except a layer's total self time; they are there so
# that their work is not counted in the self time of the span that called
# them (``derived_series`` inside ``fingerprint``, say).
TARGETS = [
    ("linalg", "rref", "linalg.rref", _rref_hook),
    ("linalg", "nullspace", "linalg.nullspace", None),
    ("linalg", "solve", "linalg.solve", None),
    ("linalg", "solve_affine", "linalg.solve_affine", None),
    ("linalg", "rank", "linalg.rank", None),
    ("linalg", "row_basis", "linalg.row_basis", None),
    ("linalg", "inverse", "linalg.inverse", None),
    ("linalg", "det", "linalg.det", None),
    ("subspace", "coordinates_in_basis", "subspace.other", None),
    ("subspace", "Subspace.from_vectors", "subspace.from_vectors", None),
    ("subspace", "Subspace.spanned_by_coordinates", "subspace.other", None),
    ("subspace", "Subspace.contains", "subspace.other", None),
    ("subspace", "Subspace.contains_subspace", "subspace.other", None),
    ("subspace", "Subspace.sum", "subspace.other", None),
    ("subspace", "Subspace.intersection", "subspace.other", None),
    ("subspace", "Subspace.coordinate_support", "subspace.other", None),
    ("subspace", "Subspace.complement_candidate", "subspace.other", None),
    ("liealg", "fingerprint", "liealg.fingerprint", None),
    ("liealg", "direct_sum", "liealg.other", None),
    ("liealg", "semidirect_product", "liealg.other", None),
    ("liealg", "LieAlgebra.derived_subalgebra", "liealg.derived_subalgebra", None),
    ("liealg", "LieAlgebra.derivations", "liealg.derivations", None),
    ("liealg", "LieAlgebra._derivations", "liealg.derivations", None),
    ("liealg", "LieAlgebra.is_derivation", "liealg.derivations", None),
    ("liealg", "LieAlgebra.is_lie", "liealg.other", None),
    ("liealg", "LieAlgebra.bracket_span", "liealg.other", None),
    ("liealg", "LieAlgebra.derived_series", "liealg.other", None),
    ("liealg", "LieAlgebra.lower_central_series", "liealg.other", None),
    ("liealg", "LieAlgebra._center", "liealg.other", None),
    ("liealg", "LieAlgebra._killing", "liealg.other", None),
    ("liealg", "LieAlgebra.solvable_radical", "liealg.other", None),
    ("liealg", "LieAlgebra.ad_closure", "liealg.other", None),
    ("liealg", "LieAlgebra.minimal_coordinate_ideals", "liealg.other", None),
    ("liealg", "LieAlgebra.is_subalgebra", "liealg.other", None),
    ("liealg", "LieAlgebra.is_ideal", "liealg.other", None),
    ("liealg", "LieAlgebra.restrict", "liealg.other", None),
    ("liealg", "LieAlgebra.quotient", "liealg.other", None),
] + [
    ("liealg", f"LieAlgebra.is_{p}", "liealg.predicates", None)
    for p in ("abelian", "nilpotent", "solvable", "simple", "semisimple", "reductive", "complete", "perfect")
] + [
    ("catalog", "get_algebra", "catalog.get_algebra", None),
    ("catalog", "CatalogEntry.build", "catalog.build", None),
    ("catalog", "identify", "catalog.identify", None),
    ("interchange", "parse_text", "interchange.parse", _bytes_hook),
    ("interchange", "parse_document", "interchange.parse", None),
    ("interchange", "serialize", "interchange.serialize", _bytes_hook),
    ("structures", "verify_pa", "structures.verify_pa", None),
    ("structures", "verify_rb", "structures.rb", None),
    ("structures", "descendent_bracket", "structures.rb", None),
    ("structures", "pa_from_rb", "structures.rb", None),
    ("structures", "induced_bracket", "structures.rb", None),
    ("structures", "rb_from_coordinate_split", "structures.other", None),
    ("structures", "rb_from_decomposition", "structures.other", None),
    ("structures", "product_from_left_action", "structures.other", None),
    ("structures", "solve_rb_form", "structures.other", None),
    ("search", "pa_search", "search.pa_search", _certificate_hook),
    ("search", "pa_linear_space", "search.s1", _s1_hook),
    ("search", "SolutionSpace.product_at", "search.s3.product_at", None),
    ("search", "_axiom2_holds", "search.s3.axiom2", _axiom2_hook),
    ("rules", "applicable_rule", "rules.applicable_rule", None),
    ("rules", "nonexistence_certificate", "rules.other", None),
    ("table", "existence_table", "table.existence_table", _table_hook),
    ("table", "classify", "table.other", None),
    ("table", "Witness.materialize", "table.other", None),
    ("cli", "main", "cli.main", None),
]


def _rebind(old, new) -> None:
    """Point every ``postlie`` module global bound to ``old`` at ``new``."""
    for module_name, module in list(sys.modules.items()):
        if module is None or not (module_name == "postlie" or module_name.startswith("postlie.")):
            continue
        for attr, value in list(vars(module).items()):
            if value is old:
                setattr(module, attr, new)


def _install_one(tracer: Tracer, module, path: str, name: str, hook) -> bool:
    owner = module
    *outer, attr = path.split(".")
    for part in outer:
        owner = getattr(owner, part, None)
    if owner is None:
        return False
    if isinstance(owner, type):
        raw = owner.__dict__.get(attr)
        if isinstance(raw, staticmethod):
            new = staticmethod(tracer.wrap(name, raw.__func__, hook))
        elif isinstance(raw, cached_property):
            new = cached_property(tracer.wrap(name, raw.func, hook))
            new.__set_name__(owner, attr)
        elif callable(raw):
            new = tracer.wrap(name, raw, hook)
        else:
            return False
        setattr(owner, attr, new)
        return True
    old = getattr(owner, attr, None)
    if not callable(old):
        return False
    _rebind(old, tracer.wrap(name, old, hook))
    return True


def _install_rules(tracer: Tracer, rules) -> None:
    """Each rule's hypothesis check is a field of a frozen ``Rule``."""
    old = getattr(rules, "RULES", None)
    if old is None:
        tracer.missing.append("rules.RULES")
        return
    new = tuple(
        dataclasses.replace(rule, applies=tracer.wrap("rules.rule_eval", rule.applies))
        for rule in old
    )
    _rebind(old, new)


def install(tracer: Tracer) -> None:
    import importlib

    for module_name, path, name, hook in TARGETS:
        module = importlib.import_module(f"postlie.{module_name}")
        if not _install_one(tracer, module, path, name, hook):
            tracer.missing.append(f"{module_name}.{path}")
    _install_rules(tracer, importlib.import_module("postlie.rules"))


# ----------------------------------------------------------------------
# per-layer metrics, by name (BENCHMARK.json lists the same names)
# ----------------------------------------------------------------------


# S1, S3 candidate assembly and the axiom-2 check are wrapped; S2 is what
# remains of ``pa_search`` outside them.
SEARCH_STAGES = ("search.pa_search", "search.s1", "search.s3.product_at", "search.s3.axiom2")


def layer_metrics(tracer: Tracer) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of one traced pass: ``name -> (value, unit)``."""
    self_s = tracer.self_times()
    stage_s = tracer.stage_times(SEARCH_STAGES)
    calls = tracer.call_counts()
    c = tracer.counters

    def layer_self(prefix: str) -> float:
        return sum((v for k, v in self_s.items() if k.startswith(prefix)), 0.0)

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    return {
        "linalg.rref.calls": (calls["linalg.rref"], "count"),
        "linalg.rref.distinct_ratio": (ratio(c["rref.distinct"], calls["linalg.rref"]), "ratio"),
        "linalg.rref.self_s": (self_s.get("linalg.rref", 0.0), "s"),
        "linalg.rref.entries": (c["rref.entries"], "count"),
        "linalg.rref.density": (ratio(c["rref.nonzeros"], c["rref.entries"]), "ratio"),
        "linalg.nullspace.calls": (calls["linalg.nullspace"], "count"),
        "linalg.solve_affine.self_s": (self_s.get("linalg.solve_affine", 0.0), "s"),
        "subspace.from_vectors.calls": (calls["subspace.from_vectors"], "count"),
        "subspace.self_s": (layer_self("subspace."), "s"),
        "liealg.derived_subalgebra.calls": (calls["liealg.derived_subalgebra"], "count"),
        "liealg.predicates.self_s": (self_s.get("liealg.predicates", 0.0), "s"),
        "liealg.derivations.self_s": (self_s.get("liealg.derivations", 0.0), "s"),
        "liealg.fingerprint.calls": (calls["liealg.fingerprint"], "count"),
        "liealg.fingerprint.self_s": (self_s.get("liealg.fingerprint", 0.0), "s"),
        "catalog.get_algebra.calls": (calls["catalog.get_algebra"], "count"),
        "catalog.build.self_s": (self_s.get("catalog.build", 0.0), "s"),
        "catalog.identify.self_s": (self_s.get("catalog.identify", 0.0), "s"),
        "interchange.parse.self_s": (self_s.get("interchange.parse", 0.0), "s"),
        "interchange.serialize.self_s": (self_s.get("interchange.serialize", 0.0), "s"),
        "interchange.bytes": (c["interchange.bytes"], "bytes"),
        "structures.verify_pa.calls": (calls["structures.verify_pa"], "count"),
        "structures.verify_pa.self_s": (self_s.get("structures.verify_pa", 0.0), "s"),
        "structures.rb.self_s": (self_s.get("structures.rb", 0.0), "s"),
        "search.s1.self_s": (stage_s["search.s1"], "s"),
        "search.s1.unknowns": (c["s1.unknowns"], "count"),
        "search.s2.subsets": (c["s2.subsets"], "count"),
        "search.s2.self_s": (stage_s["search.pa_search"], "s"),
        "search.s3.points": (c["s3.points"], "count"),
        "search.s3.product_at_s": (stage_s["search.s3.product_at"], "s"),
        "search.s3.axiom2_s": (stage_s["search.s3.axiom2"], "s"),
        "search.s3.hit_ratio": (ratio(c["s3.axiom2_hits"], calls["search.s3.axiom2"]), "ratio"),
        "rules.applicable_rule.calls": (calls["rules.applicable_rule"], "count"),
        "rules.rule_evals": (calls["rules.rule_eval"], "count"),
        "rules.self_s": (layer_self("rules."), "s"),
        "table.cells": (c["table.cells"], "count"),
        "table.self_s": (layer_self("table."), "s"),
        "cli.self_s": (layer_self("cli."), "s"),
    }
