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
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys
from fractions import Fraction
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
from .rules import nonexistence_certificate, rule_by_id
from .search import pa_search
from .structures import (
    PAProduct,
    RBOperator,
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


class _Parser(argparse.ArgumentParser):
    """argparse with the usage exit code pinned to 64."""

    def error(self, message: str):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


# ----------------------------------------------------------------------
# shared rendering helpers
# ----------------------------------------------------------------------


def _emit_json(doc: dict) -> None:
    print(json.dumps(doc, indent=2, ensure_ascii=False))


def _term(coeff: Fraction, label: str) -> str:
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


def _bracket_lines(alg: LieAlgebra, labels: Sequence[str]) -> list[str]:
    table = alg.sparse_table()
    if not table:
        return ["(abelian: all brackets vanish)"]
    return [
        f"[{labels[i]}, {labels[j]}] = {_combination(col, labels)}"
        for (i, j), col in sorted(table.items())
    ]


def _product_lines(product: PAProduct, labels: Sequence[str]) -> list[str]:
    table = product.sparse_table()
    if not table:
        return ["(zero product)"]
    return [
        f"{labels[i]} . {labels[j]} = {_combination(col, labels)}"
        for (i, j), col in sorted(table.items())
    ]


def _flag(ok: bool) -> str:
    return "pass" if ok else "FAIL"


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


def _print_invariants(report: dict) -> None:
    print(f"name: {report['name']}")
    fp = report["fingerprint"]
    print(f"dim: {fp['dim']}")
    print(f"jacobi: {_flag(report['jacobi_ok'])}")
    print(f"derived series dims: {fp['derived_dims']}")
    print(f"lower central series dims: {fp['lower_central_dims']}")
    print(f"center dim: {fp['center_dim']}")
    print(f"killing rank: {fp['killing_rank']}")
    print(f"solvable radical dim: {fp['radical_dim']}")
    print(f"radical nilpotency class: {fp['radical_class']}")
    for key in CLASSES:
        print(f"{key}: {'yes' if report[key] else 'no'}")
    print(
        "classes: " + (", ".join(report["classes"]) if report["classes"] else "(none)")
    )
    print(
        "catalog matches by fingerprint: "
        + (", ".join(report["catalog_matches"]) or "(none)")
    )


def _print_certificate(cert: Certificate) -> None:
    print(f"verdict: {cert.verdict}")
    print(f"g: {cert.g_name}")
    print(f"n: {cert.n_name}")
    if cert.linear_dimension is not None:
        print(f"solution space dimension (axioms 1+3): {cert.linear_dimension}")
    if cert.subsets_checked:
        print(f"coordinate splittings checked: {cert.subsets_checked}")
    if cert.points_checked:
        print(f"grid points checked: {cert.points_checked}")
    if cert.rule_id is not None:
        print(f"rule: {cert.rule_id}")
    if cert.justification:
        print(f"justification: {cert.justification}")
    for line in cert.trace:
        print(f"  - {line}")
    if cert.witness is not None:
        labels = interchange.default_basis(cert.witness.dim)
        print("witness product:")
        for line in _product_lines(cert.witness, labels):
            print(f"  {line}")
    if cert.operator is not None:
        print(f"witness operator (weight {cert.operator.weight}):")
        for row in cert.operator.matrix:
            print("  [" + ", ".join(str(x) for x in row) + "]")


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
    if pathlib.Path(arg).exists():
        return _load_document(arg, "algebra")
    if "/" in arg or arg.endswith(".json"):
        raise OSError(f"no such file: {arg}")
    return arg, get_algebra(arg)


def _operator_from_file(path: str, weight: Optional[Fraction]) -> tuple[str, RBOperator]:
    name, op = _load_document(path, "operator")
    if weight is not None and weight != op.weight:
        op = RBOperator(dim=op.dim, matrix=op.matrix, weight=weight, name=op.name)
    return name, op


def _rational_flag(text: str) -> Fraction:
    try:
        value = Fraction(text)
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


def _cmd_catalog_list(args: argparse.Namespace) -> int:
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
    if args.json:
        _emit_json({"command": "catalog list", "entries": rows})
    else:
        for row in rows:
            flag = "" if row["buildable"] else "  [data required]"
            print(
                f"{row['id']:<24} {row['kind']:<10} dim {row['dim']:>2}  "
                f"{row['description']}{flag}"
            )
    return EXIT_OK


def _cmd_catalog_show(args: argparse.Namespace) -> int:
    entry = get_entry(args.id)
    report: dict = {
        "command": "catalog show",
        "id": entry.entry_id,
        "kind": entry.kind,
        "dim": entry.dim,
        "description": entry.description,
        "buildable": entry.builder is not None,
    }
    if entry.expected_center_dim is not None:
        report["expected_center_dim"] = entry.expected_center_dim
    if entry.expected_radical_dim is not None:
        report["expected_radical_dim"] = entry.expected_radical_dim
    if entry.expected_nilradical_class is not None:
        report["expected_nilradical_class"] = entry.expected_nilradical_class
    if entry.builder is not None:
        alg = entry.build()
        report["invariants"] = _invariant_report(alg, entry.entry_id)
        labels = interchange.default_basis(alg.dim)
        report["brackets"] = _bracket_lines(alg, labels)
    if args.json:
        _emit_json(report)
        return EXIT_OK
    print(f"id: {report['id']}")
    print(f"kind: {report['kind']}")
    print(f"dim: {report['dim']}")
    print(f"description: {report['description']}")
    for key in (
        "expected_center_dim",
        "expected_radical_dim",
        "expected_nilradical_class",
    ):
        if key in report:
            print(f"{key.replace('_', ' ')}: {report[key]}")
    if not report["buildable"]:
        print(
            "status: structure constants not bundled; build raises until the"
            " classification data is supplied"
        )
        return EXIT_OK
    print("brackets:")
    for line in report["brackets"]:
        print(f"  {line}")
    _print_invariants(report["invariants"])
    return EXIT_OK


def _cmd_catalog_export(args: argparse.Namespace) -> int:
    entry = get_entry(args.id)
    alg = entry.build()
    sys.stdout.write(interchange.serialize(alg, name=entry.entry_id))
    return EXIT_OK


def _cmd_check_jacobi(args: argparse.Namespace) -> int:
    name, alg = _load_document(args.file, "algebra")
    residuals = alg.jacobi_residuals()
    report = {
        "command": "check jacobi",
        "name": name,
        "ok": not residuals,
        "violations": [
            {
                "i": i + 1,
                "j": j + 1,
                "k": k + 1,
                "residual": [str(x) for x in res],
            }
            for (i, j, k), res in residuals
        ],
    }
    if args.json:
        _emit_json(report)
    else:
        if report["ok"]:
            print(f"jacobi: pass ({name})")
        else:
            count = len(residuals)
            plural = "" if count == 1 else "s"
            print(f"jacobi: FAIL ({name}), {count} violating triple{plural}")
            for row in report["violations"][:5]:
                print(
                    f"  (e{row['i']}, e{row['j']}, e{row['k']}): "
                    f"residual {row['residual']}"
                )
    return EXIT_OK if report["ok"] else EXIT_NEGATIVE


def _cmd_invariants(args: argparse.Namespace) -> int:
    name, alg = _load_document(args.file, "algebra")
    report = _invariant_report(alg, name)
    if args.json:
        _emit_json({"command": "invariants", **report})
    else:
        _print_invariants(report)
    return EXIT_OK


def _cmd_verify_pa(args: argparse.Namespace) -> int:
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
    if args.json:
        _emit_json(report)
    else:
        print(f"g: {g_name}")
        print(f"n: {n_name}")
        print(f"product: {prod_name}")
        print(f"g jacobi: {_flag(verification.g_jacobi_ok)}")
        print(f"n jacobi: {_flag(verification.n_jacobi_ok)}")
        print(
            "axiom 1 (commutator matches bracket difference): "
            + _flag(not verification.axiom1)
        )
        print(
            "axiom 2 (left multiplication is a representation of g): "
            + _flag(not verification.axiom2)
        )
        print(
            "axiom 3 (left multiplications act by derivations of n): "
            + _flag(not verification.axiom3)
        )
        print(f"verdict: {_flag(verification.ok)}")
    return EXIT_OK if verification.ok else EXIT_NEGATIVE


def _cmd_verify_rb(args: argparse.Namespace) -> int:
    n_name, n = _load_document(args.n, "algebra")
    op_name, op = _operator_from_file(args.op, args.weight)
    verification = verify_rb(n, op)
    report = {
        "command": "verify rb",
        "n": n_name,
        "operator": op_name,
        **verification.as_dict(),
    }
    if verification.ok:
        first, second = rb_kernels(n, op)
        report["kernel_dim"] = first.dim
        report["shifted_kernel_dim"] = second.dim
        report["descendent_fingerprint"] = fingerprint(
            descendent_bracket(n, op)
        ).as_dict()
    if args.json:
        _emit_json(report)
    else:
        print(f"n: {n_name}")
        print(f"operator: {op_name}")
        print(f"weight: {verification.weight}")
        print(f"n jacobi: {_flag(verification.n_jacobi_ok)}")
        print(f"operator identity: {_flag(not verification.residuals)}")
        if verification.ok:
            print(f"kernel dim: {report['kernel_dim']}")
            print(f"kernel dim of operator + id: {report['shifted_kernel_dim']}")
        print(f"verdict: {_flag(verification.ok)}")
    return EXIT_OK if verification.ok else EXIT_NEGATIVE


def _cmd_derive_pa_from_rb(args: argparse.Namespace) -> int:
    n_name, n = _load_document(args.n, "algebra")
    op_name, op = _operator_from_file(args.op, args.weight)
    rb_check = verify_rb(n, op)
    if not rb_check.ok:
        report = {
            "command": "derive pa-from-rb",
            "n": n_name,
            "operator": op_name,
            "ok": False,
            **rb_check.as_dict(),
        }
        if args.json:
            _emit_json(report)
        else:
            print(
                f"operator {op_name} does not satisfy the weight-{op.weight} "
                f"identity on {n_name}; no product derived"
            )
        return EXIT_NEGATIVE
    product = pa_from_rb(n, op, name=f"{op_name}_product")
    g = induced_bracket(n, product)
    pa_check = verify_pa(g, n, product)
    doc = interchange.product_document(product)
    report = {
        "command": "derive pa-from-rb",
        "n": n_name,
        "operator": op_name,
        "ok": pa_check.ok,
        "product": doc,
        "induced_bracket_fingerprint": fingerprint(g).as_dict(),
        "induced_bracket_catalog_matches": list(identify(g)),
    }
    if args.json:
        _emit_json(report)
    else:
        sys.stdout.write(interchange.serialize(doc))
    return EXIT_OK if pa_check.ok else EXIT_NEGATIVE


def _cmd_search_pa(args: argparse.Namespace) -> int:
    g_name, g = _algebra_from_file_or_id(args.g)
    n_name, n = _algebra_from_file_or_id(args.n)
    cert = pa_search(
        g,
        n,
        budget=args.budget,
        grid_height=args.grid_height,
        g_name=g_name,
        n_name=n_name,
    )
    if args.json:
        _emit_json({"command": "search pa", **cert.as_dict()})
    else:
        _print_certificate(cert)
    return cert.exit_code


def _cmd_rules(args: argparse.Namespace) -> int:
    g_name, g = _algebra_from_file_or_id(args.g)
    n_name, n = _algebra_from_file_or_id(args.n)
    cert = nonexistence_certificate(g, n, g_name=g_name, n_name=n_name)
    if args.json:
        _emit_json({"command": "rules", **cert.as_dict()})
    else:
        _print_certificate(cert)
    return cert.exit_code


def _cmd_table(args: argparse.Namespace) -> int:
    result = existence_table()
    if args.json:
        _emit_json({"command": "table", **result.as_dict()})
    else:
        print(result.render())
    return EXIT_OK


# ----------------------------------------------------------------------
# parser assembly
# ----------------------------------------------------------------------


def build_parser() -> _Parser:
    parser = _Parser(
        prog="postlie",
        description=(
            "Exact-arithmetic toolkit: catalog of low-dimensional perfect Lie "
            "algebras, verification and search for compatible product "
            "structures and weighted operators."
        ),
    )
    parser.add_argument(
        "--json", action="store_true", help="machine-readable JSON output"
    )
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    def _json_flag(p: _Parser) -> None:
        p.add_argument(
            "--json",
            action="store_true",
            default=argparse.SUPPRESS,
            help="machine-readable JSON output",
        )

    catalog = sub.add_parser("catalog", help="browse the bundled algebra catalog")
    catalog_sub = catalog.add_subparsers(
        dest="subcommand", required=True, parser_class=_Parser
    )
    p = catalog_sub.add_parser("list", help="list catalog ids")
    _json_flag(p)
    p.set_defaults(func=_cmd_catalog_list)
    p = catalog_sub.add_parser("show", help="invariants and brackets of one entry")
    p.add_argument("id")
    _json_flag(p)
    p.set_defaults(func=_cmd_catalog_show)
    p = catalog_sub.add_parser("export", help="print one entry as a JSON document")
    p.add_argument("id")
    _json_flag(p)
    p.set_defaults(func=_cmd_catalog_export)

    check = sub.add_parser("check", help="validate documents")
    check_sub = check.add_subparsers(
        dest="subcommand", required=True, parser_class=_Parser
    )
    p = check_sub.add_parser("jacobi", help="check the Jacobi identity of an algebra file")
    p.add_argument("file")
    _json_flag(p)
    p.set_defaults(func=_cmd_check_jacobi)

    p = sub.add_parser("invariants", help="fingerprint and class predicates of an algebra file")
    p.add_argument("file")
    _json_flag(p)
    p.set_defaults(func=_cmd_invariants)

    verify = sub.add_parser("verify", help="verify axioms exactly")
    verify_sub = verify.add_subparsers(
        dest="subcommand", required=True, parser_class=_Parser
    )
    p = verify_sub.add_parser("pa", help="verify the three product axioms on (g, n)")
    p.add_argument("--g", required=True, metavar="FILE")
    p.add_argument("--n", required=True, metavar="FILE")
    p.add_argument("--prod", required=True, metavar="FILE")
    _json_flag(p)
    p.set_defaults(func=_cmd_verify_pa)
    p = verify_sub.add_parser("rb", help="verify the weighted operator identity on n")
    p.add_argument("--n", required=True, metavar="FILE")
    p.add_argument("--op", required=True, metavar="FILE")
    p.add_argument(
        "--weight",
        type=_rational_flag,
        default=None,
        help="override the weight stored in the operator file",
    )
    _json_flag(p)
    p.set_defaults(func=_cmd_verify_rb)

    derive = sub.add_parser("derive", help="derive structures from operators")
    derive_sub = derive.add_subparsers(
        dest="subcommand", required=True, parser_class=_Parser
    )
    p = derive_sub.add_parser(
        "pa-from-rb", help="product x . y = {Rx, y} of a verified operator"
    )
    p.add_argument("--n", required=True, metavar="FILE")
    p.add_argument("--op", required=True, metavar="FILE")
    p.add_argument(
        "--weight",
        type=_rational_flag,
        default=None,
        help="override the weight stored in the operator file",
    )
    _json_flag(p)
    p.set_defaults(func=_cmd_derive_pa_from_rb)

    search = sub.add_parser("search", help="search for structures on a pair")
    search_sub = search.add_subparsers(
        dest="subcommand", required=True, parser_class=_Parser
    )
    p = search_sub.add_parser("pa", help="three-stage product search on (g, n)")
    p.add_argument("--g", required=True, metavar="FILE|ID")
    p.add_argument("--n", required=True, metavar="FILE|ID")
    p.add_argument("--grid-height", type=_count_flag, default=2, metavar="H")
    p.add_argument("--budget", type=_count_flag, default=512, metavar="K")
    _json_flag(p)
    p.set_defaults(func=_cmd_search_pa)

    p = sub.add_parser("rules", help="apply structural non-existence rules to a pair")
    p.add_argument("--g", required=True, metavar="FILE|ID")
    p.add_argument("--n", required=True, metavar="FILE|ID")
    _json_flag(p)
    p.set_defaults(func=_cmd_rules)

    p = sub.add_parser("table", help="render the re-verified 8x8 existence table")
    _json_flag(p)
    p.set_defaults(func=_cmd_table)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
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


if __name__ == "__main__":
    sys.exit(main())
