"""Command-line interface, exercised through real subprocesses: exit-code
contract, document diagnostics, and byte-deterministic JSON output; the
invariant reports are also pinned in process."""

import ast
import contextlib
import hashlib
import io
import json
import os
import pathlib
import subprocess
import sys

import pytest

from postlie import cli, interchange
from postlie.catalog import catalog_ids, get_algebra
from postlie.liealg import LieAlgebra
from postlie.samples import get_sample

from oracles import NON_LIE_TABLE

DATA_DIR = pathlib.Path(interchange.__file__).resolve().parent / "data"
SAMPLES = DATA_DIR / "samples"
CATALOG = DATA_DIR / "catalog"


def run_cli(*args, **kwargs):
    return subprocess.run(
        [sys.executable, "-m", "postlie.cli", *map(str, args)],
        capture_output=True,
        text=True,
        **kwargs,
    )


# ----------------------------------------------------------------------
# catalog commands
# ----------------------------------------------------------------------


def test_catalog_list():
    result = run_cli("catalog", "list")
    assert result.returncode == 0
    assert "L5_1" in result.stdout
    assert "abelian_3" in result.stdout

    as_json = run_cli("catalog", "list", "--json")
    rows = json.loads(as_json.stdout)["entries"]
    assert any(r["id"] == "L9_59" for r in rows)


def test_catalog_show():
    result = run_cli("catalog", "show", "L5_1")
    assert result.returncode == 0
    assert "perfect" in result.stdout


# sha256 over the stdout of ``catalog show <id> --json`` for every catalog
# id in catalog order, then of ``invariants <file> --json`` for the shipped
# catalog documents in file-name order, run in process.  A change that
# alters any invariant report must update this pin and say why.
INVARIANT_REPORTS_SHA256 = (
    "8f5f75f50cf38319aec9d62cf7b9976db98944c55a22a9786b3a4e8ab20ace77"
)


def test_invariant_reports_are_byte_stable():
    digest = hashlib.sha256()

    def run(*argv):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert cli.main(list(argv)) == 0, argv
        digest.update(out.getvalue().encode("utf-8"))

    for entry_id in catalog_ids():
        run("catalog", "show", entry_id, "--json")
    documents = sorted(CATALOG.iterdir())
    assert len(documents) == 60
    for path in documents:
        run("invariants", str(path), "--json")
    assert digest.hexdigest() == INVARIANT_REPORTS_SHA256


def test_catalog_export_round_trips():
    result = run_cli("catalog", "export", "L6_2")
    assert result.returncode == 0
    parsed = interchange.parse_text(result.stdout)
    assert parsed.value == get_algebra("L6_2")


def test_catalog_export_stub_is_unavailable():
    result = run_cli("catalog", "export", "L8_19")
    assert result.returncode == 69
    assert result.stderr


def test_unknown_catalog_id_is_no_input():
    for cmd in (("catalog", "show", "nope"), ("catalog", "export", "nope")):
        result = run_cli(*cmd)
        assert result.returncode == 66, cmd


# ----------------------------------------------------------------------
# document checks and invariants
# ----------------------------------------------------------------------


def test_check_jacobi_passes_on_catalog_file():
    result = run_cli("check", "jacobi", CATALOG / "L5_1.json")
    assert result.returncode == 0


def test_check_jacobi_passes_on_zero_bracket_file(tmp_path):
    doc = {"kind": "algebra", "dim": 3, "entries": []}
    path = tmp_path / "flat.json"
    path.write_text(interchange.serialize(doc), encoding="utf-8")
    assert run_cli("check", "jacobi", path).returncode == 0


def test_check_jacobi_fails_with_residuals(tmp_path):
    doc = {
        "kind": "algebra",
        "dim": 3,
        "entries": [
            {"i": 1, "j": 2, "k": 3, "coeff": "1"},
            {"i": 1, "j": 3, "k": 1, "coeff": "1"},
            {"i": 2, "j": 3, "k": 2, "coeff": "1"},
        ],
    }
    path = tmp_path / "broken.json"
    path.write_text(interchange.serialize(doc), encoding="utf-8")
    result = run_cli("check", "jacobi", path)
    assert result.returncode == 1
    assert "(e1, e2, e3)" in result.stdout


def test_invariants_reports_predicates_and_classes():
    result = run_cli("invariants", CATALOG / "L5_1.json", "--json")
    assert result.returncode == 0
    doc = json.loads(result.stdout)
    assert doc["fingerprint"]["dim"] == 5
    assert doc["perfect"] is True
    assert doc["classes"] == ["perfect"]
    # takes documents, not catalog ids
    assert run_cli("invariants", "L5_1").returncode == 66


# ----------------------------------------------------------------------
# verify / derive
# ----------------------------------------------------------------------


def test_verify_pa_on_shipped_sample():
    result = run_cli(
        "verify",
        "pa",
        "--g",
        SAMPLES / "solvable_over_perfect_g.json",
        "--n",
        CATALOG / "L5_1.json",
        "--prod",
        SAMPLES / "solvable_over_perfect_product.json",
    )
    assert result.returncode == 0
    assert result.stdout.count("pass") >= 4
    assert "axiom 3" in result.stdout


def test_verify_pa_on_operator_free_sample():
    result = run_cli(
        "verify",
        "pa",
        "--g",
        SAMPLES / "perfect_over_reductive_g.json",
        "--n",
        CATALOG / "sl2_plus_C2.json",
        "--prod",
        SAMPLES / "perfect_over_reductive_product.json",
    )
    assert result.returncode == 0
    assert "verdict: pass" in result.stdout


def test_verify_pa_detects_mismatch():
    result = run_cli(
        "verify",
        "pa",
        "--g",
        CATALOG / "abelian_5.json",
        "--n",
        CATALOG / "L5_1.json",
        "--prod",
        SAMPLES / "solvable_over_perfect_product.json",
    )
    assert result.returncode == 1


def test_verify_rb_and_weight_override():
    args = (
        "verify",
        "rb",
        "--n",
        CATALOG / "L5_1.json",
        "--op",
        SAMPLES / "solvable_over_perfect_operator.json",
    )
    ok = run_cli(*args)
    assert ok.returncode == 0
    twisted = run_cli(*args, "--weight", "2")
    assert twisted.returncode == 1


@pytest.mark.parametrize("command", [("verify", "rb"), ("derive", "pa-from-rb")])
def test_a_negative_fractional_weight_may_be_a_separate_argument(command):
    args = (*command, "--n", CATALOG / "L5_1.json", "--op", SAMPLES / "solvable_over_perfect_operator.json")
    joined = run_cli(*args, "--weight=-1/2", "--json")
    separate = run_cli(*args, "--weight", "-1/2", "--json")
    assert joined.returncode == separate.returncode == 1
    assert separate.stdout == joined.stdout
    assert separate.stderr == joined.stderr
    for bad in ("-x", "-1/0", "abc"):
        refused = run_cli(*args, "--weight", bad)
        assert refused.returncode == 64
        assert "argument --weight" in refused.stderr


def test_derive_pa_from_rb_emits_the_sample_product():
    result = run_cli(
        "derive",
        "pa-from-rb",
        "--n",
        CATALOG / "L5_1.json",
        "--op",
        SAMPLES / "reductive_over_perfect_operator.json",
    )
    assert result.returncode == 0
    parsed = interchange.parse_text(result.stdout)
    assert parsed.value == get_sample("reductive_over_perfect").product


# ----------------------------------------------------------------------
# search / rules / table
# ----------------------------------------------------------------------


def test_search_pa_identical_pair():
    result = run_cli("search", "pa", "--g", "L5_1", "--n", "L5_1", "--json")
    assert result.returncode == 0
    doc = json.loads(result.stdout)
    assert doc["verdict"] == "exists"


def test_search_pa_linear_infeasible():
    result = run_cli("search", "pa", "--g", "n3_plus_r2", "--n", "L5_1")
    assert result.returncode == 1


def test_search_pa_budget_unknown():
    result = run_cli(
        "search", "pa", "--g", "r2_plus_C", "--n", "n3", "--budget", "100"
    )
    assert result.returncode == 2


@pytest.mark.parametrize("flag,value", [("--budget", "-5"), ("--grid-height", "-3")])
def test_search_pa_negative_bounds_are_usage_errors(flag, value):
    result = run_cli("search", "pa", "--g", "r2", "--n", "abelian_2", flag, value)
    assert result.returncode == 64
    assert f"argument {flag}: must be non-negative" in result.stderr
    assert result.stdout == ""


def test_rules_exit_codes():
    fires = run_cli("rules", "--g", "L5_1", "--n", "abelian_5")
    assert fires.returncode == 1
    assert "R1" in fires.stdout
    silent = run_cli("rules", "--g", "gl2", "--n", "sl2_plus_C")
    assert silent.returncode == 2


@pytest.mark.parametrize("command", [("search", "pa"), ("rules",)])
def test_a_non_lie_document_is_refused_with_65(tmp_path, command):
    path = tmp_path / "non_lie.json"
    path.write_text(
        interchange.serialize(LieAlgebra.from_table(3, NON_LIE_TABLE)), encoding="utf-8"
    )
    result = run_cli(*command, "--g", path, "--n", path)
    assert result.returncode == 65
    assert result.stdout == ""
    assert "Jacobi identity fails on basis triple (1, 2, 3)" in result.stderr


def test_table_renders_and_verifies():
    result = run_cli("table")
    assert result.returncode == 0
    assert "g \\ n" in result.stdout
    as_json = run_cli("table", "--json")
    doc = json.loads(as_json.stdout)
    assert doc["counts"] == {"exists": 34, "not_exists": 20, "unknown": 10}


# ----------------------------------------------------------------------
# exit-code contract for bad input
# ----------------------------------------------------------------------


def test_usage_errors_are_64():
    assert run_cli().returncode == 64
    assert run_cli("catalog").returncode == 64
    assert run_cli("search", "pa", "--g", "L5_1").returncode == 64
    assert run_cli("frobnicate").returncode == 64


def test_malformed_document_is_65(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text('{"kind": "algebra", "dim": 2}', encoding="utf-8")
    result = run_cli("check", "jacobi", bad)
    assert result.returncode == 65
    assert "entries" in result.stderr

    not_json = tmp_path / "scrambled.json"
    not_json.write_text("{]", encoding="utf-8")
    assert run_cli("check", "jacobi", not_json).returncode == 65


def test_oversized_dim_is_65(tmp_path):
    huge = tmp_path / "huge.json"
    huge.write_bytes(b'{"kind":"algebra","dim":100000,"entries":[]}\n')
    assert huge.stat().st_size == 45

    def limit_memory():
        # a 1 GB address-space limit turns a missing cap into a failure of
        # this child, not a dim**3 allocation
        import resource

        resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))

    result = run_cli("check", "jacobi", huge, preexec_fn=limit_memory, timeout=60)
    assert result.returncode == 65
    assert "dim" in result.stderr and str(interchange.MAX_DIM) in result.stderr


HOSTILE_COMMANDS = [("check", "jacobi"), ("search", "pa", "--n", "L5_1", "--g")]
HOSTILE_DOCUMENTS = {
    "deep": (b"[" * 200_000 + b"]" * 200_000, "invalid JSON: nested too deeply"),
    "latin1": (b'{"kind": "algebra", "name": "caf\xe9", "dim": 1, "entries": []}', "not UTF-8"),
    # the decoder refuses 5001 digits on Python 3.11+, the range check on dim elsewhere
    "big-integer": (b'{"kind": "algebra", "dim": ' + b"9" * 5001 + b', "entries": []}', ""),
    "duplicate-key": (
        b'{"kind": "algebra", "dim": 1, "dim": 2, "entries": []}',
        "invalid JSON: duplicate key 'dim'",
    ),
}


@pytest.mark.parametrize("command", HOSTILE_COMMANDS)
@pytest.mark.parametrize("content,message", HOSTILE_DOCUMENTS.values(), ids=list(HOSTILE_DOCUMENTS))
def test_hostile_documents_are_65(tmp_path, command, content, message):
    path = tmp_path / "hostile.json"
    path.write_bytes(content)
    result = run_cli(*command, path)
    assert result.returncode == 65
    assert result.stdout == ""
    assert result.stderr.startswith("postlie: malformed document: ")
    assert message in result.stderr
    assert "Traceback" not in result.stderr


def test_wrong_kind_is_65():
    result = run_cli("check", "jacobi", SAMPLES / "solvable_over_perfect_operator.json")
    assert result.returncode == 65
    assert "kind" in result.stderr


def test_missing_file_is_66(tmp_path):
    result = run_cli("check", "jacobi", tmp_path / "absent.json")
    assert result.returncode == 66


@pytest.mark.parametrize("buffered", [True, False])
@pytest.mark.parametrize("args", [("catalog", "list", "--json"), ("table",), ("--help",)])
def test_a_closed_stdout_is_an_output_error(args, buffered):
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        result = subprocess.run(
            [sys.executable, "-m", "postlie.cli", *args],
            stdout=write_end,
            stderr=subprocess.PIPE,
            text=True,
            env={**os.environ, "PYTHONUNBUFFERED": "" if buffered else "1"},
        )
    finally:
        os.close(write_end)
    assert result.returncode == 74
    assert result.stderr == "postlie: cannot write output: [Errno 32] Broken pipe\n"


def test_an_in_memory_stdout_that_fails_is_an_output_error(capsys):
    class Full(io.StringIO):
        def write(self, text):
            raise OSError(28, "No space left on device")

    with contextlib.redirect_stdout(Full()):
        assert cli.main(["catalog", "list"]) == 74
    assert capsys.readouterr().err == (
        "postlie: cannot write output: [Errno 28] No space left on device\n"
    )


def test_a_catalog_id_wins_over_a_file_of_that_name(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "sl2").write_text("not a document", encoding="utf-8")
    assert cli.main(["rules", "--g", "sl2", "--n", "sl2"]) == cli.EXIT_UNKNOWN
    assert capsys.readouterr().err == ""
    assert cli.main(["rules", "--g", "./sl2", "--n", "sl2"]) == cli.EXIT_FORMAT
    assert capsys.readouterr().err.startswith(
        "postlie: malformed document: ./sl2: line 1, column 1: invalid JSON: "
    )


def test_unknown_search_id_is_66():
    assert run_cli("search", "pa", "--g", "nope", "--n", "L5_1").returncode == 66


# ----------------------------------------------------------------------
# JSON output determinism
# ----------------------------------------------------------------------


@pytest.mark.parametrize(
    "args",
    [
        ("catalog", "list"),
        ("invariants", str(CATALOG / "L5_1.json")),
        ("rules", "--g", "L5_1", "--n", "abelian_5"),
        ("search", "pa", "--g", "L5_1", "--n", "L5_1"),
    ],
)
def test_json_output_is_byte_identical_across_runs(args):
    first = run_cli(*args, "--json")
    second = run_cli(*args, "--json")
    assert first.stdout == second.stdout
    json.loads(first.stdout)


def test_global_and_local_json_flags_agree():
    target = str(CATALOG / "L5_1.json")
    local = run_cli("invariants", target, "--json")
    global_flag = run_cli("--json", "invariants", target)
    assert local.stdout == global_flag.stdout


# ----------------------------------------------------------------------
# pinned output of every command, text and JSON
# ----------------------------------------------------------------------

BROKEN_JACOBI = {
    "kind": "algebra",
    "dim": 3,
    "entries": [
        {"i": 1, "j": 2, "k": 3, "coeff": "1"},
        {"i": 1, "j": 3, "k": 1, "coeff": "1"},
        {"i": 2, "j": 3, "k": 2, "coeff": "1"},
    ],
}

OPERATOR_ARGS = (
    "--n",
    CATALOG / "L5_1.json",
    "--op",
    SAMPLES / "solvable_over_perfect_operator.json",
)

PINNED_INVOCATIONS = [
    ("catalog", "list"),
    ("catalog", "show", "L5_1"),
    ("catalog", "show", "L8_19"),
    ("catalog", "export", "L5_1"),
    ("check", "jacobi", CATALOG / "L5_1.json"),
    ("check", "jacobi", "BROKEN"),
    ("invariants", CATALOG / "L6_2.json"),
    (
        "verify",
        "pa",
        "--g",
        SAMPLES / "solvable_over_perfect_g.json",
        "--n",
        CATALOG / "L5_1.json",
        "--prod",
        SAMPLES / "solvable_over_perfect_product.json",
    ),
    (
        "verify",
        "pa",
        "--g",
        CATALOG / "abelian_5.json",
        "--n",
        CATALOG / "L5_1.json",
        "--prod",
        SAMPLES / "solvable_over_perfect_product.json",
    ),
    ("verify", "rb", *OPERATOR_ARGS),
    ("verify", "rb", *OPERATOR_ARGS, "--weight", "2"),
    (
        "derive",
        "pa-from-rb",
        "--n",
        CATALOG / "L5_1.json",
        "--op",
        SAMPLES / "reductive_over_perfect_operator.json",
    ),
    ("derive", "pa-from-rb", *OPERATOR_ARGS, "--weight", "2"),
    ("search", "pa", "--g", "L5_1", "--n", "L5_1"),
    ("search", "pa", "--g", "r2", "--n", "abelian_2", "--budget", "6000"),
    ("search", "pa", "--g", "n3_plus_r2", "--n", "L5_1"),
    ("search", "pa", "--g", "sl2", "--n", "abelian_3"),
    ("search", "pa", "--g", "n3", "--n", "abelian_3", "--budget", "3", "--grid-height", "1"),
    ("rules", "--g", "L5_1", "--n", "abelian_5"),
    ("rules", "--g", "gl2", "--n", "sl2_plus_C"),
    ("table",),
]

# sha256 over (argv, exit code, stdout) of every invocation above, each in
# text mode and then with ``--json``, run in process.  Paths enter the digest
# relative to the package data directory.  A change that alters any output
# byte must update this pin and say why.
CLI_OUTPUT_SHA256 = (
    "b4bd904b9db179d2040e1302e55c84c6e0527c23c2882c3a86c4766f63d8df57"
)


def test_cli_output_is_pinned(tmp_path):
    broken = tmp_path / "broken.json"
    broken.write_text(interchange.serialize(BROKEN_JACOBI), encoding="utf-8")
    digest = hashlib.sha256()
    for invocation in PINNED_INVOCATIONS:
        for mode in ((), ("--json",)):
            argv = [str(broken if a == "BROKEN" else a) for a in (*invocation, *mode)]
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                code = cli.main(argv)
            shown = [
                a.replace(str(DATA_DIR), "DATA").replace(str(tmp_path), "TMP") for a in argv
            ]
            digest.update(json.dumps([shown, code, out.getvalue()]).encode("utf-8"))
    assert digest.hexdigest() == CLI_OUTPUT_SHA256


def test_only_main_writes_output():
    """Handlers return reports; only ``main`` prints, touches ``sys.stdout`` or
    reads the parsed ``--json`` flag."""
    tree = ast.parse(pathlib.Path(cli.__file__).read_text(encoding="utf-8"))
    (main,) = [n for n in tree.body if isinstance(n, ast.FunctionDef) and n.name == "main"]
    in_main = {id(node) for node in ast.walk(main)}
    offenders = []
    for node in ast.walk(tree):
        if id(node) in in_main:
            continue
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "print":
            offenders.append(f"line {node.lineno}: print")
        if isinstance(node, ast.Attribute) and node.attr in ("stdout", "json"):
            offenders.append(f"line {node.lineno}: .{node.attr}")
    assert offenders == []
