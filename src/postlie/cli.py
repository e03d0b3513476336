"""Command-line surface.

Subcommands::

    catalog list | show <id> | export <id>
    check jacobi <file>
    invariants <file>
    verify pa --g <file> --n <file> --prod <file>
    verify rb --n <file> --op <file> [--weight <q>]
    derive pa-from-rb --n <file> --op <file> [--weight <q>]
    search pa --g <file|id> --n <file|id> [--grid-height <h>] [--budget <k>]
    rules --g <file|id> --n <file|id>
    table

``--json`` (global or per-command) switches to machine-readable output;
identical inputs always produce byte-identical JSON.  All coefficients are
printed as exact rational strings.

Every command handler returns ``(exit code, report, lines)`` and writes
nothing.  :func:`main` alone prints: the report as indented JSON under
``--json``, the text lines otherwise.  The serialized document that
``catalog export`` and a successful ``derive pa-from-rb`` print is the same
in both modes.  One table, ``_COMMANDS``, builds the parser.

Exit codes::

    0   verified / affirmative (structure exists, check passed)
    1   verified negative (an axiom fails, a structural rule fires)
    2   unknown (no verdict within the configured budget)
    64  usage error (bad flags or arguments)
    65  malformed document (reported with line/field diagnostics), or
        inconsistent inputs such as a bracket failing the Jacobi identity
        given to ``search pa`` or ``rules``
    66  unknown catalog id or unreadable input file
    69  catalog entry whose structure constants are not bundled
    70  existence-table re-verification failure
    74  the output cannot be written (a closed pipe, a full disk)
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import io
import json
import os
import pathlib
import re
import sys
from typing import Optional, Sequence

from . import interchange
from .catalog import (
    ExternalDataRequired,
    UnknownCatalogId,
    catalog_ids,
    get_algebra,
    get_entry,
    identify,
)
from .certificates import Certificate
from .liealg import LieAlgebra, fingerprint
from .linalg import Scalar, frac
from .rules import nonexistence_certificate
from .search import pa_search
from .structures import (
    PAProduct,
    RBOperator,
    _violations,
    descendent_bracket,
    induced_bracket,
    pa_from_rb,
    rb_kernels,
    verify_pa,
    verify_rb,
)
from .table import CLASSES, TableVerificationError, classify, existence_table

EXIT_OK = 0
EXIT_NEGATIVE = 1
EXIT_UNKNOWN = 2
EXIT_USAGE = 64
EXIT_FORMAT = 65
EXIT_NO_INPUT = 66
EXIT_UNAVAILABLE = 69
EXIT_TABLE = 70
EXIT_IOERR = 74

# what a command handler returns: exit code, JSON report, text lines
Outcome = tuple[int, dict, list[str]]


class _Parser(argparse.ArgumentParser):
    """argparse with the usage exit code pinned to 64, and ``-p/q`` read as
    a negative number (a value, as ``-1`` is) rather than as an option."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(r"^-\d+$|^-\d*\.\d+$|^-\d+/\d+$")

    def error(self, message: str):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


# ----------------------------------------------------------------------
# shared rendering helpers
# ----------------------------------------------------------------------


def _term(coeff: Scalar, label: str) -> str:
    if coeff == 1:
        return label
    if coeff == -1:
        return f"-{label}"
    return f"{coeff} {label}"


def _combination(components: dict, labels: Sequence[str]) -> str:
    parts = [_term(c, labels[k]) for k, c in sorted(components.items()) if c != 0]
    if not parts:
        return "0"
    out = parts[0]
    for part in parts[1:]:
        out += f" - {part[1:]}" if part.startswith("-") else f" + {part}"
    return out


def _cell_lines(tensor: LieAlgebra | PAProduct, pair: str, empty: str) -> list[str]:
    """One line per nonzero cell of a bracket or product on ``e1, e2, ...``,
    its left side ``pair`` formatted with the two basis labels."""
    table = tensor.sparse_table()
    if not table:
        return [empty]
    labels = interchange.default_basis(tensor.dim)
    return [
        f"{pair.format(labels[i], labels[j])} = {_combination(col, labels)}"
        for (i, j), col in sorted(table.items())
    ]


def _flag(ok: bool) -> str:
    return "pass" if ok else "FAIL"


def _verdict(ok: bool) -> int:
    return EXIT_OK if ok else EXIT_NEGATIVE


def _invariant_report(alg: LieAlgebra, name: str) -> dict:
    fp = fingerprint(alg)
    return {
        "name": name,
        "fingerprint": fp.as_dict(),
        "jacobi_ok": alg.is_lie(),
        **{c: getattr(alg, f"is_{c}")() for c in CLASSES},
        "classes": list(classify(alg)),
        "catalog_matches": list(identify(alg)),
    }


def _invariant_lines(report: dict) -> list[str]:
    fp = report["fingerprint"]
    return [
        f"name: {report['name']}",
        f"dim: {fp['dim']}",
        f"jacobi: {_flag(report['jacobi_ok'])}",
        f"derived series dims: {fp['derived_dims']}",
        f"lower central series dims: {fp['lower_central_dims']}",
        f"center dim: {fp['center_dim']}",
        f"killing rank: {fp['killing_rank']}",
        f"solvable radical dim: {fp['radical_dim']}",
        f"radical nilpotency class: {fp['radical_class']}",
        *(f"{key}: {'yes' if report[key] else 'no'}" for key in CLASSES),
        "classes: " + (", ".join(report["classes"]) or "(none)"),
        "catalog matches by fingerprint: " + (", ".join(report["catalog_matches"]) or "(none)"),
    ]


def _certificate_lines(cert: Certificate) -> list[str]:
    lines = [f"verdict: {cert.verdict}", f"g: {cert.g_name}", f"n: {cert.n_name}"]
    if cert.linear_dimension is not None:
        lines.append(f"solution space dimension (axioms 1+3): {cert.linear_dimension}")
    if cert.subsets_checked:
        lines.append(f"coordinate splittings checked: {cert.subsets_checked}")
    if cert.points_checked:
        lines.append(f"grid points checked: {cert.points_checked}")
    if cert.rule_id is not None:
        lines.append(f"rule: {cert.rule_id}")
    if cert.justification:
        lines.append(f"justification: {cert.justification}")
    lines += [f"  - {line}" for line in cert.trace]
    if cert.witness is not None:
        lines.append("witness product:")
        product = _cell_lines(cert.witness, "{} . {}", "(zero product)")
        lines += [f"  {line}" for line in product]
    if cert.operator is not None:
        lines.append(f"witness operator (weight {cert.operator.weight}):")
        lines += ["  [" + ", ".join(map(str, row)) + "]" for row in cert.operator.matrix]
    return lines


# ----------------------------------------------------------------------
# input resolution
# ----------------------------------------------------------------------


def _load_document(path: str, expected_kind: str) -> tuple[str, object]:
    """The document's name (the file stem if it has none) and its value."""
    parsed = interchange.parse_file(path)
    if parsed.kind != expected_kind:
        raise interchange.InterchangeError(
            f"expected kind {expected_kind!r}, found {parsed.kind!r}",
            where="kind",
            filename=path,
        )
    return parsed.name or pathlib.Path(path).stem, parsed.value


def _algebra_from_file_or_id(arg: str) -> tuple[str, LieAlgebra]:
    """A catalog id names its entry even where a file of that name exists
    (``./sl2`` reaches the file); a path, a ``.json`` name or an existing
    file is read as a document, and any other name as a catalog id."""
    if arg not in catalog_ids() and (
        "/" in arg or arg.endswith(".json") or pathlib.Path(arg).exists()
    ):
        return _load_document(arg, "algebra")
    return arg, get_algebra(arg)


def _operator_from_file(path: str, weight: Optional[Scalar]) -> tuple[str, RBOperator]:
    name, op = _load_document(path, "operator")
    if weight is not None and weight != op.weight:
        op = RBOperator(dim=op.dim, matrix=op.matrix, weight=weight, name=op.name)
    return name, op


def _rational_flag(text: str) -> Scalar:
    try:
        value = frac(text)
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(
            f"invalid rational {text!r} (use integers or p/q)"
        ) from None
    return value


def _count_flag(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid integer {text!r}") from None
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be non-negative, got {value}")
    return value


# ----------------------------------------------------------------------
# commands
# ----------------------------------------------------------------------

_EXPECTED = ("expected_center_dim", "expected_radical_dim", "expected_nilradical_class")


def _cmd_catalog_list(args: argparse.Namespace) -> Outcome:
    rows = []
    for entry_id in catalog_ids():
        entry = get_entry(entry_id)
        rows.append(
            {
                "id": entry.entry_id,
                "kind": entry.kind,
                "dim": entry.dim,
                "buildable": entry.builder is not None,
                "description": entry.description,
            }
        )
    lines = [
        f"{row['id']:<24} {row['kind']:<10} dim {row['dim']:>2}  {row['description']}"
        + ("" if row["buildable"] else "  [data required]")
        for row in rows
    ]
    return EXIT_OK, {"command": "catalog list", "entries": rows}, lines


def _cmd_catalog_show(args: argparse.Namespace) -> Outcome:
    entry = get_entry(args.id)
    report: dict = {
        "command": "catalog show",
        "id": entry.entry_id,
        "kind": entry.kind,
        "dim": entry.dim,
        "description": entry.description,
        "buildable": entry.builder is not None,
    }
    for key in _EXPECTED:
        if getattr(entry, key) is not None:
            report[key] = getattr(entry, key)
    lines = [f"{key}: {report[key]}" for key in ("id", "kind", "dim", "description")]
    lines += [f"{key.replace('_', ' ')}: {report[key]}" for key in _EXPECTED if key in report]
    if entry.builder is None:
        lines.append(
            "status: structure constants not bundled; build raises until the"
            " classification data is supplied"
        )
        return EXIT_OK, report, lines
    alg = entry.build()
    report["invariants"] = _invariant_report(alg, entry.entry_id)
    report["brackets"] = _cell_lines(alg, "[{}, {}]", "(abelian: all brackets vanish)")
    lines.append("brackets:")
    lines += [f"  {line}" for line in report["brackets"]]
    return EXIT_OK, report, lines + _invariant_lines(report["invariants"])


def _cmd_catalog_export(args: argparse.Namespace) -> Outcome:
    entry = get_entry(args.id)
    doc = interchange.document_for(entry.build(), name=entry.entry_id)
    return EXIT_OK, doc, interchange.serialize(doc).splitlines()


def _cmd_check_jacobi(args: argparse.Namespace) -> Outcome:
    name, alg = _load_document(args.file, "algebra")
    residuals = alg.jacobi_residuals()
    report = {
        "command": "check jacobi",
        "name": name,
        "ok": not residuals,
        "violations": _violations(residuals),
    }
    if not residuals:
        return EXIT_OK, report, [f"jacobi: pass ({name})"]
    plural = "" if len(residuals) == 1 else "s"
    lines = [f"jacobi: FAIL ({name}), {len(residuals)} violating triple{plural}"]
    lines += [
        f"  (e{row['i']}, e{row['j']}, e{row['k']}): residual {row['residual']}"
        for row in report["violations"][:5]
    ]
    return EXIT_NEGATIVE, report, lines


def _cmd_invariants(args: argparse.Namespace) -> Outcome:
    name, alg = _load_document(args.file, "algebra")
    report = _invariant_report(alg, name)
    return EXIT_OK, {"command": "invariants", **report}, _invariant_lines(report)


def _cmd_verify_pa(args: argparse.Namespace) -> Outcome:
    g_name, g = _load_document(args.g, "algebra")
    n_name, n = _load_document(args.n, "algebra")
    prod_name, product = _load_document(args.prod, "product")
    verification = verify_pa(g, n, product)
    report = {
        "command": "verify pa",
        "g": g_name,
        "n": n_name,
        "product": prod_name,
        **verification.as_dict(),
    }
    lines = [
        f"g: {g_name}",
        f"n: {n_name}",
        f"product: {prod_name}",
        f"g jacobi: {_flag(verification.g_jacobi_ok)}",
        f"n jacobi: {_flag(verification.n_jacobi_ok)}",
        "axiom 1 (commutator matches bracket difference): " + _flag(not verification.axiom1),
        "axiom 2 (left multiplication is a representation of g): "
        + _flag(not verification.axiom2),
        "axiom 3 (left multiplications act by derivations of n): "
        + _flag(not verification.axiom3),
        f"verdict: {_flag(verification.ok)}",
    ]
    return _verdict(verification.ok), report, lines


def _cmd_verify_rb(args: argparse.Namespace) -> Outcome:
    n_name, n = _load_document(args.n, "algebra")
    op_name, op = _operator_from_file(args.op, args.weight)
    verification = verify_rb(n, op)
    report = {
        "command": "verify rb",
        "n": n_name,
        "operator": op_name,
        **verification.as_dict(),
    }
    lines = [
        f"n: {n_name}",
        f"operator: {op_name}",
        f"weight: {verification.weight}",
        f"n jacobi: {_flag(verification.n_jacobi_ok)}",
        f"operator identity: {_flag(not verification.residuals)}",
    ]
    if verification.ok:
        first, second = rb_kernels(n, op)
        report["kernel_dim"] = first.dim
        report["shifted_kernel_dim"] = second.dim
        report["descendent_fingerprint"] = fingerprint(descendent_bracket(n, op)).as_dict()
        lines.append(f"kernel dim: {first.dim}")
        lines.append(f"kernel dim of operator + id: {second.dim}")
    lines.append(f"verdict: {_flag(verification.ok)}")
    return _verdict(verification.ok), report, lines


def _cmd_derive_pa_from_rb(args: argparse.Namespace) -> Outcome:
    n_name, n = _load_document(args.n, "algebra")
    op_name, op = _operator_from_file(args.op, args.weight)
    header = {"command": "derive pa-from-rb", "n": n_name, "operator": op_name}
    rb_check = verify_rb(n, op)
    if not rb_check.ok:
        line = (
            f"operator {op_name} does not satisfy the weight-{op.weight} "
            f"identity on {n_name}; no product derived"
        )
        return EXIT_NEGATIVE, {**header, "ok": False, **rb_check.as_dict()}, [line]
    product = pa_from_rb(n, op, name=f"{op_name}_product")
    g = induced_bracket(n, product)
    pa_check = verify_pa(g, n, product)
    doc = interchange.document_for(product)
    report = {
        **header,
        "ok": pa_check.ok,
        "product": doc,
        "induced_bracket_fingerprint": fingerprint(g).as_dict(),
        "induced_bracket_catalog_matches": list(identify(g)),
    }
    return _verdict(pa_check.ok), report, interchange.serialize(doc).splitlines()


def _pair_certificate(args: argparse.Namespace, command: str, decide) -> Outcome:
    """Run ``decide(g, n, g_name=, n_name=)`` on the pair named by ``--g`` and
    ``--n`` and report its certificate."""
    g_name, g = _algebra_from_file_or_id(args.g)
    n_name, n = _algebra_from_file_or_id(args.n)
    cert = decide(g, n, g_name=g_name, n_name=n_name)
    return cert.exit_code, {"command": command, **cert.as_dict()}, _certificate_lines(cert)


def _cmd_search_pa(args: argparse.Namespace) -> Outcome:
    search = functools.partial(pa_search, budget=args.budget, grid_height=args.grid_height)
    return _pair_certificate(args, "search pa", search)


def _cmd_rules(args: argparse.Namespace) -> Outcome:
    return _pair_certificate(args, "rules", nonexistence_certificate)


def _cmd_table(args: argparse.Namespace) -> Outcome:
    result = existence_table()
    return EXIT_OK, {"command": "table", **result.as_dict()}, [result.render()]


# ----------------------------------------------------------------------
# parser assembly
# ----------------------------------------------------------------------

_GROUP_HELP = {
    "catalog": "browse the bundled algebra catalog",
    "check": "validate documents",
    "verify": "verify axioms exactly",
    "derive": "derive structures from operators",
    "search": "search for structures on a pair",
}

_FILE = {"required": True, "metavar": "FILE"}
_FILE_OR_ID = dict(_FILE, metavar="FILE|ID", help="a catalog id wins over a file of that name")
_ID = (("id", {}),)
_PATH = (("file", {}),)
_PAIR = (("--g", _FILE_OR_ID), ("--n", _FILE_OR_ID))
_OPERATOR = (
    ("--n", _FILE),
    ("--op", _FILE),
    (
        "--weight",
        {
            "type": _rational_flag,
            "default": None,
            "help": "override the weight stored in the operator file",
        },
    ),
)
_SEARCH_BOUNDS = (
    ("--grid-height", {"type": _count_flag, "default": 2, "metavar": "H"}),
    ("--budget", {"type": _count_flag, "default": 512, "metavar": "K"}),
)

# (group, name, help, arguments, handler) in ``--help`` order; a command
# without a group sits at the top level.  Each takes ``--json`` last.
_COMMANDS = (
    ("catalog", "list", "list catalog ids", (), _cmd_catalog_list),
    ("catalog", "show", "invariants and brackets of one entry", _ID, _cmd_catalog_show),
    ("catalog", "export", "print one entry as a JSON document", _ID, _cmd_catalog_export),
    (
        "check",
        "jacobi",
        "check the Jacobi identity of an algebra file",
        _PATH,
        _cmd_check_jacobi,
    ),
    (
        None,
        "invariants",
        "fingerprint and class predicates of an algebra file",
        _PATH,
        _cmd_invariants,
    ),
    (
        "verify",
        "pa",
        "verify the three product axioms on (g, n)",
        (("--g", _FILE), ("--n", _FILE), ("--prod", _FILE)),
        _cmd_verify_pa,
    ),
    ("verify", "rb", "verify the weighted operator identity on n", _OPERATOR, _cmd_verify_rb),
    (
        "derive",
        "pa-from-rb",
        "product x . y = {Rx, y} of a verified operator",
        _OPERATOR,
        _cmd_derive_pa_from_rb,
    ),
    (
        "search",
        "pa",
        "three-stage product search on (g, n)",
        _PAIR + _SEARCH_BOUNDS,
        _cmd_search_pa,
    ),
    (None, "rules", "apply structural non-existence rules to a pair", _PAIR, _cmd_rules),
    (None, "table", "render the re-verified 8x8 existence table", (), _cmd_table),
)


def build_parser() -> _Parser:
    parser = _Parser(
        prog="postlie",
        description=(
            "Exact-arithmetic toolkit: catalog of low-dimensional perfect Lie "
            "algebras, verification and search for compatible product "
            "structures and weighted operators."
        ),
    )
    json_help = "machine-readable JSON output"
    parser.add_argument("--json", action="store_true", help=json_help)
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)
    parents = {None: sub}
    for group, name, help_text, arguments, handler in _COMMANDS:
        if group not in parents:
            parents[group] = sub.add_parser(group, help=_GROUP_HELP[group]).add_subparsers(
                dest="subcommand", required=True, parser_class=_Parser
            )
        p = parents[group].add_parser(name, help=help_text)
        for flag, options in arguments:
            p.add_argument(flag, **options)
        # a per-command --json is only set when given, so the global one stands
        p.add_argument("--json", action="store_true", default=argparse.SUPPRESS, help=json_help)
        p.set_defaults(func=handler)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    help_text = io.StringIO()
    try:
        # argparse would swallow a failed write of the help, so it goes
        # through the one write below
        with contextlib.redirect_stdout(help_text):
            args = parser.parse_args(argv)
    except SystemExit as exc:
        # the help is in help_text, or argparse wrote a usage error to stderr
        code = int(exc.code or 0)
        text = help_text.getvalue()
    else:
        try:
            code, report, lines = args.func(args)
        except interchange.InterchangeError as exc:
            print(f"postlie: malformed document: {exc}", file=sys.stderr)
            return EXIT_FORMAT
        except UnknownCatalogId as exc:
            print(f"postlie: unknown catalog id: {exc.args[0]}", file=sys.stderr)
            return EXIT_NO_INPUT
        except OSError as exc:
            print(f"postlie: cannot read input: {exc}", file=sys.stderr)
            return EXIT_NO_INPUT
        except ExternalDataRequired as exc:
            print(f"postlie: {exc}", file=sys.stderr)
            return EXIT_UNAVAILABLE
        except TableVerificationError as exc:
            print(f"postlie: table re-verification failed: {exc}", file=sys.stderr)
            return EXIT_TABLE
        except ValueError as exc:
            print(f"postlie: inconsistent inputs: {exc}", file=sys.stderr)
            return EXIT_FORMAT
        if args.json:
            lines = [json.dumps(report, indent=2, ensure_ascii=False)]
        text = "".join(f"{line}\n" for line in lines)
    try:
        sys.stdout.write(text)
        sys.stdout.flush()
    except OSError as exc:
        print(f"postlie: cannot write output: {exc}", file=sys.stderr)
        # point a real stdout at the null device, so that the interpreter's
        # exit flush drops what is still buffered instead of failing again;
        # an in-memory stdout has no descriptor and needs nothing
        with contextlib.suppress(OSError, ValueError):
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_IOERR
    return code


if __name__ == "__main__":
    sys.exit(main())
