import io
import json
import os
import resource
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

import filtrate.cli as cli
from filtrate import filt
from filtrate.coeff import MAX_CELLS
from filtrate.emap import MAX_ENTRY_BITS, PRIME_LIMIT
from filtrate.magnus import magnus
from filtrate.words import (
    MAX_RUNS,
    GroupWord,
    basic_commutator,
    enumerate_monomials,
    format_monomial,
    format_word,
    lyndon_words,
    realize,
)

from helpers import pairing_rows_by_magnus


_FAST_ARGS = cli._fast_args


def fast_args_checked(argv):
    """`cli._fast_args(argv)`, checked against argparse: it declines argv
    (None), or returns what `vars` shows of argparse's namespace, or raises
    the `_CliError` that argparse raises."""
    try:
        fast = _FAST_ARGS(argv)
    except cli._CliError as exc:
        with pytest.raises(cli._CliError) as slow:
            cli._parser().parse_args(argv)
        assert (slow.value.code, slow.value.kind, str(slow.value)) == (exc.code, exc.kind, str(exc))
        raise
    if fast is not None:
        try:
            slow = cli._parser().parse_args(argv)
        except cli._CliError as exc:
            pytest.fail(f"the fast path read {argv!r}, which argparse refuses: {exc}")
        assert vars(fast) == vars(slow)
    return fast


@pytest.fixture(autouse=True)
def fast_path_checked(monkeypatch):
    # every argv that a test here parses in-process, batch jobs included, is
    # a case of the differential gate: the fast path must decline it or read
    # it as argparse does, so the command runs on the same values
    monkeypatch.setattr(cli, "_fast_args", fast_args_checked)


def run_child(argv, address_space=None, env=()):
    """Run the CLI in a child process, so the time and memory are those of
    a fresh command, with its address space capped at `address_space` bytes
    if given and the variables of `env` set; returns the finished process
    and its wall time.  The fast path is checked on argv in this process
    first, as for every in-process call."""
    def cap_memory():
        resource.setrlimit(resource.RLIMIT_AS, (address_space, address_space))

    fast_args_checked(argv)
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-c", "from filtrate.cli import run; run()", *argv],
        capture_output=True, text=True, timeout=60,
        env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path), **dict(env)},
        preexec_fn=cap_memory if address_space else None,
    )
    return proc, time.perf_counter() - start


def run(capsys, argv):
    code = cli.main(argv)
    out = capsys.readouterr().out
    return code, json.loads(out), out


def test_member_both_routes_member(capsys):
    code, report, _ = run(capsys, [
        "member", "--word", "[x1,x2]", "--emap", "trivial",
        "--level", "2", "--alphabet", "2",
    ])
    assert code == 0
    assert report == {
        "version": "0.1.0", "seed": None, "command": "member",
        "word": "[x1,x2]", "alphabet": 2, "emap": "trivial", "level": 2,
        "route": "both", "member": True, "route_agreement": True, "witness": None,
    }


def test_member_both_routes_witness_exact_bytes(capsys):
    code, _, raw = run(capsys, [
        "member", "--word", "[x1,x2]", "--emap", "trivial",
        "--level", "3", "--alphabet", "2",
    ])
    assert code == 0
    assert raw == (
        '{"version": "0.1.0", "seed": null, "command": "member",'
        ' "word": "[x1,x2]", "alphabet": 2, "emap": "trivial", "level": 3,'
        ' "route": "both", "member": false, "route_agreement": true,'
        ' "witness": {"degree": 2, "word": "x1x2", "coefficient": "1"}}\n'
    )


def test_member_single_routes_report_no_agreement(capsys):
    code, report, _ = run(capsys, [
        "member", "--word", "x1^2", "--emap", "const:2",
        "--level", "2", "--alphabet", "2", "--route", "series",
    ])
    assert code == 0
    assert report["member"] is True
    assert report["route_agreement"] is None
    code, report, _ = run(capsys, [
        "member", "--word", "x1", "--emap", "const:2",
        "--level", "2", "--alphabet", "2", "--route", "kernels",
    ])
    assert code == 0
    assert report["member"] is False
    assert report["witness"] == {"degree": 1, "word": "x1", "coefficient": "1"}


def test_magnus_reports(capsys):
    code, report, _ = run(capsys, [
        "magnus", "--word", "[x1,x2]", "--cap", "2", "--alphabet", "2",
    ])
    assert code == 0
    assert report["series"] == {
        "ring": "Z", "cap": 2,
        "terms": [
            {"word": "e", "coeff": "1"},
            {"word": "x1x2", "coeff": "1"},
            {"word": "x2x1", "coeff": "-1"},
        ],
    }
    code, report, _ = run(capsys, [
        "magnus", "--word", "x1^-1", "--ring", "Z/4", "--cap", "3", "--alphabet", "1",
    ])
    assert code == 0
    assert report["series"] == {
        "ring": "Z/4", "cap": 3,
        "terms": [
            {"word": "e", "coeff": "1"},
            {"word": "x1", "coeff": "3"},
            {"word": "x1x1", "coeff": "1"},
            {"word": "x1x1x1", "coeff": "3"},
        ],
    }


def test_rep_report(capsys):
    code, report, _ = run(capsys, [
        "rep", "--word", "[x1,x2]", "--monomial", "x1x2", "--alphabet", "2",
    ])
    assert code == 0
    assert report["size"] == 3
    assert report["matrix"] == [["1", "0", "1"], ["0", "1", "0"], ["0", "0", "1"]]


@pytest.mark.parametrize("scheme, level, words", [
    ("zass:2,1", 2, [
        "x2^-1*x1*x2*x1^-3*x2*x1^-1*x2*x1",
        "x1^-2",
        "x1*x2^-1*x1*x2^-1",
        "x1*x2^-1*x1*x2*x1^-2*x2^-3*x1^-1*x2^-1*x1*x2^-1*x1*x2*x1*x2^3*x1^-1*x2*x1^-1",
        "e",
    ]),
    ("afilt:2,3,4", 3, [
        "x2^-1*x1^-1*x2^-1*x1*x2*x1*x2*x1^-2*x2^-1*x1^-1*x2^2*x1*x2^-2*x1^-1*x2^2*x1"
        "*x2^-2*x1^-1*x2^2*x1*x2^-1*x1",
        "x2^2*x1^-1*x2^3*x1^-1*x2^3*x1^-1*x2^3*x1^-1*x2^3*x1^-1*x2^3*x1^-1*x2",
        "x2^-3*x1*x2^2*x1^-1*x2",
        "x1^-1*x2^-1*x1^-1*x2^-1*x1^-1*x2^-1*x1^-1*x2^-1*x1^-1*x2^-1*x1^-1*x2^-1",
        "x2^-3*x1*x2^3*x1^-2*x2^-1*x1^-1*x2*x1^-1*x2^-1*x1^-1*x2^-2*x1*x2^3*x1^-2*x2^-1"
        "*x1^-1*x2*x1^-1*x2^-1*x1^-1*x2^-2*x1*x2^3*x1^-2*x2^-1*x1^-1*x2*x1^-1*x2^-1*x1^-1*x2",
    ]),
    ("product:zass:2,1", 3, [
        "x2^4*x1^-1*x2^-1*x1^-1*x2*x1*x2^-1*x1*x2",
        "x1^-1*x2^-1*x1^-1*x2*x1*x2^-1*x1*x2",
        "x1^-1*x2^-1*x1^-1*x2*x1*x2^-1*x1*x2*x1^-1*x2^-1*x1^-1*x2*x1*x2^-1*x1*x2",
        "x2^4",
        "x1^4*x2^4",
    ]),
], ids=["zass", "afilt", "product"])
def test_sample_frozen_and_byte_deterministic(capsys, scheme, level, words):
    argv = [
        "sample", "--scheme", scheme, "--level", str(level), "--alphabet", "2",
        "--seed", "7", "--count", "5",
    ]
    code, report, raw1 = run(capsys, argv)
    assert code == 0
    assert report["seed"] == 7
    assert report["words"] == words
    _, _, raw2 = run(capsys, argv)
    assert raw1 == raw2


@pytest.mark.parametrize("argv", [
    ["sample", "--scheme", "zass:2,1", "--level", "4", "--alphabet", "2", "--seed", "7"],
    ["sample", "--scheme", "product:zass:2,1", "--level", "4", "--alphabet", "2", "--seed", "7"],
    ["massey", "--alphabet", "2", "--level", "5", "--emit-matrix"],
    ["member", "--word", "[x1,x2]^3", "--emap", "zass:2,1", "--level", "4", "--alphabet", "2"],
], ids=["zass", "product", "massey", "member"])
def test_output_is_byte_identical_across_hash_seeds(capsys, argv):
    # each command is a fresh process, and string hashes, so the order of
    # sets and dicts of strings, change with PYTHONHASHSEED: the same
    # invocation must print the same bytes under every seed
    code, report, raw = run(capsys, argv)
    assert code == 0
    # the member call fails at degree 2, so its witness is printed too
    assert argv[0] != "member" or report["witness"]["degree"] == 2
    for hash_seed in ("0", "1"):
        proc, _ = run_child(argv, env={"PYTHONHASHSEED": hash_seed})
        assert (proc.returncode, proc.stdout, proc.stderr) == (0, raw, "")


@pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
@pytest.mark.parametrize("argv", [
    ["member", "--word", "[x1,x2]", "--emap", "trivial", "--level", "2", "--alphabet", "2"],
    ["massey", "--alphabet", "2", "--level", "9", "--emit-matrix"],
    ["--help"],
    ["--version"],
], ids=["member", "massey", "help", "version"])
def test_a_reader_that_closes_stdout_gets_no_traceback(argv, unbuffered):
    # the read end is closed before the child starts, so its first write to
    # stdout fails, as under `filtrate ... | head -c 100` with a long report;
    # a block-buffered stdout (a pipe's default) holds a short report, or the
    # text of --help, until a flush, where an unbuffered one
    # (PYTHONUNBUFFERED) fails at the write itself
    read_end, write_end = os.pipe()
    os.close(read_end)
    env = {name: value for name, value in os.environ.items() if name != "PYTHONUNBUFFERED"}
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    try:
        proc = subprocess.run(
            [sys.executable, "-c", "from filtrate.cli import run; run()", *argv],
            stdout=write_end, stderr=subprocess.PIPE, timeout=60,
            env={**env, "PYTHONPATH": os.pathsep.join(sys.path)},
        )
    finally:
        os.close(write_end)
    assert (proc.returncode, proc.stderr) == (0, b"")


@pytest.mark.parametrize("scheme", ["product:trivial", "product:const:2"])
def test_product_sampler_on_one_letter(capsys, scheme):
    # only weight 1 has a Lyndon word on one letter
    code, report, raw = run(capsys, [
        "sample", "--scheme", scheme, "--level", "3", "--alphabet", "1", "--count", "4",
    ])
    assert code == 0 and raw.count("\n") == 1
    assert len(report["words"]) == 4
    for word in report["words"]:
        code, verdict, _ = run(capsys, [
            "member", "--word", word, "--emap", scheme.removeprefix("product:"),
            "--level", "3", "--alphabet", "1", "--route", "both",
        ])
        assert code == 0 and verdict["member"] is True


@pytest.mark.parametrize("scheme", ["zass:2", "afilt:", "afilt:2,x", "afilt:-1", "zass:4,1",
                                    "bogus:1", "zass", "afilt:\u0662,3", "zass:2,1_0",
                                    "zass:+2,1"])
def test_bad_scheme_specs_are_parse_errors(capsys, scheme):
    code, report, _ = run(capsys, [
        "sample", "--scheme", scheme, "--level", "2", "--alphabet", "2",
    ])
    assert code == 2
    assert report["error"]["kind"] == "parse"
    assert report["error"]["message"].startswith(f"bad scheme spec {scheme!r}")


@pytest.mark.parametrize("seed", ["0", "1"])
def test_oversized_zassenhaus_power_exponent_exits_three(capsys, seed):
    # the power exponent is the table's entry e(2, 1), so its bit limit
    # refuses it before any sample is drawn, whichever way the seed goes
    code, report, raw = run(capsys, ["sample", "--scheme", "zass:2,100000", "--level", "2",
                                     "--alphabet", "2", "--seed", seed])
    assert code == 3 and raw.count("\n") == 1
    assert report["error"] == {
        "kind": "precondition",
        "message": f"table entry e(2,1) has up to 200000 bits, over the limit of {MAX_ENTRY_BITS}",
    }


@pytest.mark.parametrize("scheme", ["product:trivial", "zass:2,1"])
def test_sample_count_over_the_cell_limit_exits_three(scheme):
    # one word per count: refused before the list of words is made
    count = 10**9
    proc, elapsed = run_child(["sample", "--scheme", scheme, "--level", "3", "--alphabet", "1",
                               "--count", str(count)], address_space=1 << 30)
    assert proc.returncode == 3 and proc.stderr == ""
    assert proc.stdout.count("\n") == 1
    assert json.loads(proc.stdout)["error"] == {
        "kind": "precondition",
        "message": f"the sample count needs {count} cells (one word each),"
                   f" over the limit of {MAX_CELLS}",
    }
    assert elapsed < 1


def test_padded_scheme_spec(capsys):
    argv = ["sample", "--scheme", " zass:2,1 ", "--level", "2", "--alphabet", "2",
            "--seed", "7", "--count", "2"]
    code, padded, _ = run(capsys, argv)
    assert code == 0 and padded["scheme"] == " zass:2,1 "
    _, plain, _ = run(capsys, argv[:2] + ["zass:2,1"] + argv[3:])
    assert padded["words"] == plain["words"]


def test_sample_count_prefix_stability(capsys):
    argv5 = ["sample", "--scheme", "zass:2,1", "--level", "2", "--alphabet", "2",
             "--seed", "7", "--count", "5"]
    argv2 = argv5[:-1] + ["2"]
    _, five, _ = run(capsys, argv5)
    _, two, _ = run(capsys, argv2)
    assert five["words"][:2] == two["words"]


def test_emap_check_ok(capsys):
    code, report, _ = run(capsys, ["emap-check", "--emap", "zass:2,1", "--nmax", "6"])
    assert code == 0
    assert report["descending"] == {"ok": True, "violation": None}
    assert report["binomial"] == {"ok": True, "violation": None}
    assert report["condition_iii"] == {"ok": True, "violation": None}


def test_emap_check_non_descending_table(tmp_path, capsys):
    table = [
        {"n": 1, "values": [1]},
        {"n": 2, "values": [2, 1]},
        {"n": 3, "values": [3, 2, 1]},
    ]
    path = tmp_path / "table.json"
    path.write_text(json.dumps(table))
    code, report, _ = run(capsys, ["emap-check", "--emap", f"file:{path}", "--nmax", "3"])
    assert code == 0
    assert report["descending"]["ok"] is False
    assert report["descending"]["violation"] == [3, 1]
    assert report["binomial"] is None
    assert report["condition_iii"] is None


@pytest.mark.parametrize("row, message", [
    ('{"n": 2, "values": [1e400, 1]}', "row 2 values must be integers, got inf"),
    ('{"n": 2, "values": [2.9, 1]}', "row 2 values must be integers, got 2.9"),
    ('{"n": 2, "values": [2.0, 1]}', "row 2 values must be integers, got 2.0"),
    ('{"n": 2, "values": [true, 1]}', "row 2 values must be integers, got True"),
    ('{"n": 2, "values": ["6", 1]}', "row 2 values must be integers, got '6'"),
    ('{"n": "3", "values": [6, 2, 1]}', "row index must be an integer, got '3'"),
    ('{"n": false, "values": []}', "row index must be an integer, got False"),
    ('{"n": 3, "values": "121"}', "row 3 must be a list of values, got '121'"),
    ('{"n": 0, "values": []}', "row index must be >= 1, got 0"),
], ids=["overflow", "float", "integral-float", "bool", "string", "string-index", "bool-index",
         "string-values", "zero-index"])
def test_file_tables_take_json_integers_only(tmp_path, capsys, row, message):
    path = tmp_path / "table.json"
    path.write_text(f'[{{"n": 1, "values": [1]}}, {row}]')
    code, report, raw = run(capsys, ["emap-check", "--emap", f"file:{path}", "--nmax", "2"])
    assert code == 2 and raw.count("\n") == 1
    assert report["error"] == {"kind": "parse",
                               "message": f"filtrate emap-check: argument --emap: {message}"}


@pytest.mark.parametrize("rows, message", [
    ('{"n": 2, "values": [2, 1]}, {"n": 2, "values": [3, 1]}', "row 2 appears more than once"),
    ('{"n": true, "values": [1]}', "row index must be an integer, got True"),
], ids=["repeated", "bool-beside-one"])
def test_file_tables_take_each_row_once(tmp_path, capsys, rows, message):
    # keyed as a dict, the second row 2 would win, and true would merge into row 1
    path = tmp_path / "table.json"
    path.write_text(f'[{{"n": 1, "values": [1]}}, {rows}]')
    code, report, raw = run(capsys, ["emap-check", "--emap", f"file:{path}", "--nmax", "2"])
    assert code == 2 and raw.count("\n") == 1
    assert report["error"] == {"kind": "parse",
                               "message": f"filtrate emap-check: argument --emap: {message}"}


@pytest.mark.parametrize("argv, message", [
    (["magnus", "--word", "x1", "--ring", "Z/\u00b2", "--cap", "1", "--alphabet", "1"],
     "argument --ring: bad ring spec 'Z/\u00b2': modulus must be a decimal integer"),
    (["magnus", "--word", "x1", "--ring", "Z/\u0663", "--cap", "1", "--alphabet", "1"],
     "argument --ring: bad ring spec 'Z/\u0663': modulus must be a decimal integer"),
    (["emap-check", "--emap", "const:1_0", "--nmax", "2"],
     "argument --emap: bad e-map spec 'const:1_0': invalid literal for int() with base 10: '1_0'"),
    (["emap-check", "--emap", "zass:2,1_0", "--nmax", "2"],
     "argument --emap: bad e-map spec 'zass:2,1_0': invalid literal for int() with base 10: '1_0'"),
    (["emap-check", "--emap", "gcdseq:2,+3", "--nmax", "2"],
     "argument --emap: bad e-map spec 'gcdseq:2,+3': invalid literal for int() with base 10: '+3'"),
])
def test_spec_integers_are_ascii_digits(capsys, argv, message):
    code, report, raw = run(capsys, argv)
    assert code == 2 and raw.count("\n") == 1
    assert report["error"] == {"kind": "parse", "message": f"filtrate {argv[0]}: {message}"}


_MEMBER = ["member", "--word", "x1", "--emap", "trivial"]


@pytest.mark.parametrize("argv, flag, text", [
    ([*_MEMBER, "--level", "\u0663", "--alphabet", "2"], "level", "\u0663"),
    ([*_MEMBER, "--level", "1_0", "--alphabet", "2"], "level", "1_0"),
    ([*_MEMBER, "--level", "+3", "--alphabet", "2"], "level", "+3"),
    ([*_MEMBER, "--level", "3", "--alphabet", "\uff12"], "alphabet", "\uff12"),
    (["sample", "--scheme", "zass:2,1", "--level", "2", "--alphabet", "2", "--seed", "\u0667"],
     "seed", "\u0667"),
])
def test_integer_flags_are_ascii_digits(tmp_path, capsys, argv, flag, text):
    # int() alone would read each of these as a number
    message = f"filtrate {argv[0]}: argument --{flag}: invalid int value: {text!r}"
    code, report, raw = run(capsys, argv)
    assert code == 2 and raw.count("\n") == 1
    assert report["error"] == {"kind": "parse", "message": message}
    # a batch job's parameters are the same flags
    jobs = tmp_path / "jobs.json"
    flags = dict(zip(argv[1::2], argv[2::2]))
    jobs.write_text(json.dumps([{"command": argv[0], "parameters": {
        key.removeprefix("--"): value for key, value in flags.items()}}]))
    code, report, _ = run(capsys, ["batch", "--jobs", str(jobs)])
    (job,) = report["jobs"]
    assert code == 2 and job["exit"] == 2
    assert job["report"]["error"] == {"kind": "parse", "message": message}


def test_integer_flags_keep_a_sign_and_whitespace(capsys):
    code, report, _ = run(capsys, [*_MEMBER, "--level", " 3 ", "--alphabet", "2"])
    assert code == 0 and report["level"] == 3
    code, report, _ = run(capsys, ["sample", "--scheme", "zass:2,1", "--level", "2",
                                   "--alphabet", "2", "--seed=-7", "--count", "1"])
    assert code == 0 and report["seed"] == -7
    code, report, _ = run(capsys, [*_MEMBER, "--level", "-3", "--alphabet", "2"])
    assert code == 2 and report["error"]["message"].endswith("--level: must be >= 1, got -3")


def test_spec_integers_keep_a_sign_and_whitespace(capsys):
    magnus = ["magnus", "--word", "x1", "--cap", "1", "--alphabet", "1", "--ring"]
    code, report, _ = run(capsys, [*magnus, "Z/ 5"])
    assert code == 0 and report["series"]["ring"] == "Z/5"
    code, report, _ = run(capsys, [*magnus, "Z/-3"])
    assert code == 2 and report["error"]["message"].endswith("'Z/-3': modulus must be >= 1")
    code, report, _ = run(capsys, ["emap-check", "--emap", "zass: 2 , 1", "--nmax", "2"])
    assert code == 0 and report["emap"] == "zass:2,1"


def test_massey_emit_matrix_exact_bytes(capsys):
    code, _, raw = run(capsys, ["massey", "--alphabet", "2", "--level", "2", "--emit-matrix"])
    assert code == 0
    assert raw == (
        '{"version": "0.1.0", "seed": null, "command": "massey", "alphabet": 2,'
        ' "level": 2, "rank": 1, "necklace": 1, "match": true, "rows": 1, "cols": 4,'
        ' "matrix": {"row_labels": ["x1^-1*x2^-1*x1*x2"],'
        ' "column_labels": ["x1x1", "x1x2", "x2x1", "x2x2"],'
        ' "entries": [["0", "1", "-1", "0"]]}}\n'
    )


def test_massey_emit_matrix_matches_the_magnus_rows(capsys):
    code, _, raw = run(capsys, ["massey", "--alphabet", "3", "--level", "3", "--emit-matrix"])
    assert code == 0
    rows = pairing_rows_by_magnus(3, 3)
    assert raw == json.dumps({
        "version": "0.1.0", "seed": None, "command": "massey", "alphabet": 3, "level": 3,
        "rank": 8, "necklace": 8, "match": True, "rows": 8, "cols": 27,
        "matrix": {
            "row_labels": [format_word(realize(basic_commutator(u), 3))
                           for u in lyndon_words(3, 3)],
            "column_labels": [format_monomial(w) for w in enumerate_monomials(3, 3)],
            "entries": [[str(v) for v in row] for row in rows],
        },
    }) + "\n"


@pytest.mark.parametrize("alphabet, level", [
    ("8", "12"), ("2", "1000000000000"), ("1", "100000000000"), ("10" * 40, "2"),
])
def test_massey_size_limit_is_checked_first(capsys, alphabet, level):
    start = time.perf_counter()
    code = cli.main(["massey", "--alphabet", alphabet, "--level", level])
    elapsed = time.perf_counter() - start
    captured = capsys.readouterr()
    assert code == 3 and captured.err == ""
    assert captured.out.count("\n") == 1
    error = json.loads(captured.out)["error"]
    assert error["kind"] == "precondition"
    assert str(MAX_CELLS) in error["message"]
    assert elapsed < 0.5


def test_massey_size_limit_admits_the_acceptance_sizes(capsys):
    for alphabet, level, rank in (("2", "12", 335), ("4", "6", 670)):
        code, report, _ = run(capsys, ["massey", "--alphabet", alphabet, "--level", level])
        assert code == 0
        assert report["rank"] == report["necklace"] == rank


def test_parse_errors_exit_two(capsys):
    code, report, _ = run(capsys, [
        "member", "--word", "x1**", "--emap", "trivial", "--level", "2", "--alphabet", "2",
    ])
    assert code == 2
    assert report["error"]["kind"] == "parse"
    assert report["error"]["position"] == 3
    code, report, _ = run(capsys, [
        "member", "--word", "x1", "--emap", "const:x", "--level", "2", "--alphabet", "2",
    ])
    assert code == 2 and report["error"]["kind"] == "parse"
    code, report, _ = run(capsys, [
        "member", "--word", "x1", "--emap", "trivial", "--level", "0", "--alphabet", "2",
    ])
    assert code == 2 and report["error"]["kind"] == "parse"
    code, report, _ = run(capsys, [
        "member", "--word", "x1", "--emap", "file:/nonexistent.json",
        "--level", "2", "--alphabet", "2",
    ])
    assert code == 2 and report["error"]["kind"] == "parse"


@pytest.mark.parametrize("argv", [
    ["member", "--word", "x1", "--level", "2"],
    ["member", "--word", "x1", "--emap", "trivial", "--level", "two", "--alphabet", "2"],
    ["member", "--word", "x1", "--emap", "trivial", "--level", "0", "--alphabet", "2"],
    ["frobnicate", "--level", "2"],
    [],
], ids=["missing-flags", "ill-typed", "out-of-range", "unknown-subcommand", "no-subcommand"])
def test_bad_command_lines_give_one_json_object(capsys, argv):
    code = cli.main(argv)
    captured = capsys.readouterr()
    assert captured.err == ""
    assert captured.out.count("\n") == 1
    report = json.loads(captured.out)
    assert code == 2
    assert report["error"]["kind"] == "parse"


def test_deep_nesting_exits_two(capsys):
    deep = "(" * 3000 + "x1" + ")" * 3000
    code, report, _ = run(capsys, [
        "member", "--word", deep, "--emap", "trivial", "--level", "2", "--alphabet", "1",
    ])
    assert code == 2
    assert report["error"]["kind"] == "parse"
    assert 0 < report["error"]["position"] < len(deep)


def test_precondition_errors_exit_three(tmp_path, capsys):
    code, report, _ = run(capsys, ["massey", "--alphabet", "2", "--level", "1"])
    assert code == 3
    assert report["error"]["kind"] == "precondition"
    # a table that parses but is not descending fails the filtration contract
    table = [{"n": 1, "values": [1]}, {"n": 2, "values": [2, 1]}, {"n": 3, "values": [3, 2, 1]}]
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(table))
    code, report, _ = run(capsys, [
        "member", "--word", "x1", "--emap", f"file:{path}", "--level", "3", "--alphabet", "2",
    ])
    assert code == 3
    assert report["error"]["kind"] == "precondition"


def test_route_disagreement_exits_four(monkeypatch, capsys):
    monkeypatch.setattr(cli, "kernel_witness", lambda g, spec: (1, (1,), 1))
    code, report, _ = run(capsys, [
        "member", "--word", "[x1,x2]", "--emap", "trivial", "--level", "2", "--alphabet", "2",
    ])
    assert code == 4
    err = report["error"]
    assert err["kind"] == "integrity"
    assert err["series_member"] is True
    assert err["kernels_member"] is False
    assert err["series_witness"] is None
    assert err["kernels_witness"] == {"degree": 1, "word": "x1", "coefficient": "1"}


def _magnus_with_a_wrong_negative_binomial(g, ring, cap):
    """magnus with binom(-k, j) taken as (-1)^j binom(k+j, j), one too many
    in the top argument: the same as expanding x_i^(e-1) for each run x_i^e
    with e < 0."""
    runs = tuple((i, e - 1 if e < 0 else e) for i, e in g.runs)
    return magnus(GroupWord._make(g.alphabet_size, runs, None), ring, cap)


def test_a_broken_magnus_makes_the_routes_disagree(monkeypatch, tmp_path, capsys):
    # the kernel route expands nothing, so a bug in magnus reaches only the
    # series route and the integrity check fires
    monkeypatch.setattr(filt, "magnus", _magnus_with_a_wrong_negative_binomial)
    argv = ["member", "--word", "[x1,x2]", "--emap", "trivial", "--level", "2",
            "--alphabet", "2", "--route", "both"]
    code = cli.main(argv)
    captured = capsys.readouterr()
    assert code == 4 and captured.err == ""
    assert captured.out.count("\n") == 1
    error = json.loads(captured.out)["error"]
    assert error["kind"] == "integrity"
    assert error["series_member"] is False and error["kernels_member"] is True
    assert error["series_witness"] == {"degree": 1, "word": "x1", "coefficient": "-1"}
    assert error["kernels_witness"] is None
    jobs = tmp_path / "jobs.json"
    jobs.write_text(json.dumps([
        {"command": "member", "parameters": {
            "word": "[x1,x2]", "emap": "trivial", "level": 2, "alphabet": 2}},
        {"command": "member", "parameters": {
            "word": "x1*x2", "emap": "trivial", "level": 2, "alphabet": 2}},
    ]))
    code = cli.main(["batch", "--jobs", str(jobs)])
    captured = capsys.readouterr()
    assert code == 4 and captured.out.count("\n") == 1
    report = json.loads(captured.out)
    assert [job["exit"] for job in report["jobs"]] == [4, 0]
    assert report["jobs"][0]["report"]["error"] == error


_right_binomials = filt._binomials


def _binomials_with_a_wrong_negative_binomial(e, cap):
    """filt._binomials with binom(-k, j) taken as (-1)^j binom(k+j, j), the
    kernel route's twin of _magnus_with_a_wrong_negative_binomial."""
    return _right_binomials(e - 1 if e < 0 else e, cap)


def test_a_broken_kernel_route_makes_the_routes_disagree(monkeypatch, tmp_path, capsys):
    # the series route never reads filt._binomials, so a bug there reaches
    # only the kernel route; [[x1,x2],x1] passes degree 1, which the kernel
    # route reads from the exponent sums, and fails at degree 2 once its rows
    # are built with the wrong binomials
    monkeypatch.setattr(filt, "_binomials", _binomials_with_a_wrong_negative_binomial)
    argv = ["member", "--word", "[[x1,x2],x1]", "--emap", "trivial", "--level", "3",
            "--alphabet", "2", "--route", "both"]
    code = cli.main(argv)
    captured = capsys.readouterr()
    assert code == 4 and captured.err == ""
    assert captured.out.count("\n") == 1
    error = json.loads(captured.out)["error"]
    assert error["kind"] == "integrity"
    assert error["series_member"] is True and error["kernels_member"] is False
    assert error["series_witness"] is None
    assert error["kernels_witness"] == {"degree": 2, "word": "x1x1", "coefficient": "-2"}
    jobs = tmp_path / "jobs.json"
    jobs.write_text(json.dumps([
        {"command": "member", "parameters": {
            "word": "[[x1,x2],x1]", "emap": "trivial", "level": 3, "alphabet": 2}},
        {"command": "member", "parameters": {
            "word": "x1*x2", "emap": "trivial", "level": 3, "alphabet": 2}},
    ]))
    code = cli.main(["batch", "--jobs", str(jobs)])
    captured = capsys.readouterr()
    assert code == 4 and captured.out.count("\n") == 1
    report = json.loads(captured.out)
    assert [job["exit"] for job in report["jobs"]] == [4, 0]
    assert report["jobs"][0]["report"]["error"] == error


def test_batch_mixed_jobs(tmp_path, capsys):
    out_path = tmp_path / "magnus.json"
    jobs = [
        {"command": "member", "parameters": {
            "word": "[x1,x2]", "emap": "trivial", "level": 2, "alphabet": 2}},
        {"command": "magnus", "parameters": {
            "word": "x1", "cap": 1, "alphabet": 1}, "output": str(out_path)},
        {"command": "sample", "seed": 7, "parameters": {
            "scheme": "zass:2,1", "level": 2, "alphabet": 2, "count": 2}},
        {"command": "frobnicate"},
        {"command": "member", "parameters": {
            "word": "x1", "emap": "trivial", "level": "x", "alphabet": 2}},
    ]
    jobs_path = tmp_path / "jobs.json"
    jobs_path.write_text(json.dumps(jobs))
    code = cli.main(["batch", "--jobs", str(jobs_path)])
    captured = capsys.readouterr()
    report = json.loads(captured.out)
    assert code == 2
    exits = [j["exit"] for j in report["jobs"]]
    assert exits == [0, 0, 0, 2, 2]
    assert report["jobs"][0]["report"]["member"] is True
    assert report["jobs"][1] == {"job": 1, "exit": 0, "output": str(out_path)}
    written = json.loads(out_path.read_text())
    assert written["series"]["terms"] == [
        {"word": "e", "coeff": "1"}, {"word": "x1", "coeff": "1"},
    ]
    assert report["jobs"][2]["report"]["words"] == [
        "x2^-1*x1*x2*x1^-3*x2*x1^-1*x2*x1", "x1^-2",
    ]
    assert report["jobs"][3]["report"]["error"]["kind"] == "parse"
    assert report["jobs"][4]["report"]["error"]["kind"] == "parse"


def test_batch_parameters_come_from_the_command_table(tmp_path, capsys):
    jobs = [
        {"command": "massey", "parameters": {"alphabet": 2, "level": 2, "help": True}},
        {"command": "batch", "parameters": {"jobs": "jobs.json"}},
        {"command": "sample", "seed": 7, "parameters": {
            "scheme": "zass:2,1", "level": 2, "alphabet": 2, "count": 2}},
        {"command": "massey", "seed": 7, "parameters": {
            "alphabet": 2, "level": 2, "emit-matrix": True}},
        {"command": "massey", "parameters": {"alphabet": 2, "level": 2, "emit-matrix": False}},
        {"command": ["massey"]},
        # a switch takes a JSON boolean and nothing else
        {"command": "massey", "parameters": {"alphabet": 2, "level": 2, "emit-matrix": "false"}},
        {"command": "massey", "parameters": {"alphabet": 2, "level": 2, "emit-matrix": 1}},
        {"command": "massey", "parameters": {"alphabet": 2, "level": 2, "emit-matrix": None}},
    ]
    path = tmp_path / "jobs.json"
    path.write_text(json.dumps(jobs))
    code = cli.main(["batch", "--jobs", str(path)])
    captured = capsys.readouterr()
    assert captured.err == ""
    assert captured.out.count("\n") == 1
    report = json.loads(captured.out)
    assert code == 2
    assert [j["exit"] for j in report["jobs"]] == [2, 2, 0, 0, 0, 2, 2, 2, 2]
    assert "'help'" in report["jobs"][0]["report"]["error"]["message"]
    assert "'batch'" in report["jobs"][1]["report"]["error"]["message"]
    sample = report["jobs"][2]["report"]
    assert sample["seed"] == 7
    assert sample["words"] == ["x2^-1*x1*x2*x1^-3*x2*x1^-1*x2*x1", "x1^-2"]
    massey = report["jobs"][3]["report"]
    assert massey["seed"] is None
    assert massey["matrix"]["entries"] == [["0", "1", "-1", "0"]]
    assert "matrix" not in report["jobs"][4]["report"]
    for job in report["jobs"][6:]:
        assert job["report"]["error"]["kind"] == "parse"
        assert "'emit-matrix'" in job["report"]["error"]["message"]


def test_batch_parameters_must_be_an_object(tmp_path, capsys):
    jobs = [
        {"command": "member", "parameters": [1, 2]},
        {"command": "massey", "parameters": {"alphabet": 2, "level": 3}},
    ]
    path = tmp_path / "jobs.json"
    path.write_text(json.dumps(jobs))
    code, report, _ = run(capsys, ["batch", "--jobs", str(path)])
    assert code == 2
    assert [j["exit"] for j in report["jobs"]] == [2, 0]
    assert report["jobs"][0]["report"]["error"]["kind"] == "parse"
    assert report["jobs"][1]["report"]["rank"] == 2


def test_batch_unwritable_output_is_a_job_error(tmp_path, capsys):
    missing = str(tmp_path / "missing" / "out.json")
    jobs = [
        {"command": "massey", "parameters": {"alphabet": 2, "level": 3}, "output": missing},
        {"command": "massey", "parameters": {"alphabet": 2, "level": 3}, "output": True},
        # open() refuses a NUL with ValueError, not OSError
        {"command": "massey", "parameters": {"alphabet": 2, "level": 3}, "output": "a\0b"},
        {"command": "massey", "parameters": {"alphabet": 2, "level": 2}},
        {"command": "massey", "parameters": {"alphabet": 2, "level": 2}, "output": None},
    ]
    # a falsy output is no less a value that is not a writable path
    odd = ["", 0, False, [], {}]
    jobs += [{"command": "massey", "parameters": {"alphabet": 2, "level": 2}, "output": output}
             for output in odd]
    path = tmp_path / "jobs.json"
    path.write_text(json.dumps(jobs))
    code, report, _ = run(capsys, ["batch", "--jobs", str(path)])
    assert code == 2
    assert [j["exit"] for j in report["jobs"]] == [2, 2, 2, 0, 0] + [2] * len(odd)
    error = report["jobs"][0]["report"]["error"]
    assert error["kind"] == "parse"
    assert error["output"] == missing and missing in error["message"]
    assert report["jobs"][1]["report"]["error"]["output"] is True
    assert report["jobs"][2]["report"]["error"] == {
        "kind": "parse", "message": "job 2: cannot write output 'a\\x00b': embedded null byte",
        "output": "a\0b"}
    assert report["jobs"][3]["report"]["rank"] == report["jobs"][4]["report"]["rank"] == 1
    assert report["jobs"][5]["report"]["error"]["message"] == (
        "job 5: cannot write output '': [Errno 2] No such file or directory: ''")
    for index, output in enumerate(odd[1:], 6):
        assert report["jobs"][index]["report"]["error"] == {
            "kind": "parse", "output": output,
            "message": f"job {index}: cannot write output {output!r}: output must be a path string"}


def test_oversized_power_exits_three_at_once(capsys):
    start = time.perf_counter()
    code = cli.main(["member", "--word", "(((x1*x2)^1000)^1000)^1000", "--level", "3",
                     "--emap", "trivial", "--alphabet", "2"])
    elapsed = time.perf_counter() - start
    captured = capsys.readouterr()
    assert code == 3 and captured.err == ""
    assert captured.out.count("\n") == 1
    error = json.loads(captured.out)["error"]
    assert error == {"kind": "precondition",
                     "message": f"the power has 2000000 runs, over the limit of {MAX_RUNS}"}
    assert elapsed < 0.5


@pytest.mark.parametrize("word, message", [
    ("[[(x1*x2)^400000,x2],x2]", "the commutator has 1600001 runs"),
    ("(x1*x2)^400000*(x1^-1*x2)^400000", "the product has 1600000 runs"),
])
def test_oversized_products_and_commutators_exit_three(word, message):
    proc, elapsed = run_child(["magnus", "--word", word, "--ring", "Z", "--cap", "1",
                               "--alphabet", "2"])
    assert proc.returncode == 3 and proc.stderr == ""
    assert proc.stdout.count("\n") == 1
    error = json.loads(proc.stdout)["error"]
    assert error == {"kind": "precondition", "message": f"{message}, over the limit of {MAX_RUNS}"}
    assert elapsed < 0.5


def test_a_long_product_parses_in_one_pass(tmp_path):
    # copying the product at every factor would make this quadratic: about a minute
    word = "*".join(f"x{1 + i % 2}" for i in range(120_000))
    jobs = tmp_path / "jobs.json"
    jobs.write_text(json.dumps([{"command": "member", "parameters": {
        "word": word, "emap": "trivial", "level": 2, "alphabet": 2}}]))
    proc, elapsed = run_child(["batch", "--jobs", str(jobs)])
    assert proc.returncode == 0 and proc.stderr == ""
    (job,) = json.loads(proc.stdout)["jobs"]
    assert job["exit"] == 0 and job["report"]["word"] == word
    assert elapsed < 10


@pytest.mark.parametrize("argv, position", [
    (["member", "--word", "x1^\u00b2", "--emap", "trivial", "--level", "2", "--alphabet", "2"], 3),
    (["member", "--word", "x\u00b2", "--emap", "trivial", "--level", "2", "--alphabet", "2"], 1),
    (["member", "--word", "x\u0663", "--emap", "trivial", "--level", "2", "--alphabet", "3"], 1),
    (["rep", "--word", "x1", "--monomial", "x1\u00b2", "--ring", "Z", "--alphabet", "2"], 2),
    (["member", "--word", "x1^" + "9" * 5000, "--emap", "trivial", "--level", "2",
      "--alphabet", "2"], 3),
    (["magnus", "--word", "x" + "1" * 5000, "--ring", "Z", "--cap", "1", "--alphabet", "2"], 1),
])
def test_bad_number_tokens_exit_two(capsys, argv, position):
    code = cli.main(argv)
    captured = capsys.readouterr()
    assert code == 2 and captured.err == ""
    assert captured.out.count("\n") == 1
    error = json.loads(captured.out)["error"]
    assert error["kind"] == "parse" and error["position"] == position


def test_kernel_rows_over_the_cell_limit_exit_three():
    proc, elapsed = run_child(["member", "--word", "[x1,x2]", "--emap", "trivial", "--level", "8",
                               "--alphabet", "10", "--route", "kernels"])
    assert proc.returncode == 3 and proc.stderr == ""
    assert proc.stdout.count("\n") == 1
    error = json.loads(proc.stdout)["error"]
    assert error == {
        "kind": "precondition",
        "message": "the kernel route at alphabet 10, degree 7 needs 11111117 cells"
                   f" (alphabet^1 + ... + alphabet^7 + 7), over the limit of {MAX_CELLS}",
    }
    assert elapsed < 0.5


def test_one_letter_kernel_rows_count_a_cell_per_row():
    # level 10^7 has a row of 10^7 entries, inside the limit, and degrees
    # 2..10^7 - 1 to decide: one row each of one entry, besides the list
    # that holds it, so twice the limit's worth of cells less two
    level = 10**7
    proc, elapsed = run_child(["member", "--word", "e", "--emap", "trivial", "--level",
                               str(level), "--alphabet", "1", "--route", "kernels"],
                              address_space=1 << 30)
    assert proc.returncode == 3 and proc.stderr == ""
    assert proc.stdout.count("\n") == 1
    top = level - 1
    assert json.loads(proc.stdout)["error"] == {
        "kind": "precondition",
        "message": f"the kernel route at alphabet 1, degree {top} needs {2 * top} cells"
                   f" (alphabet^1 + ... + alphabet^{top} + {top}), over the limit of {MAX_CELLS}",
    }
    assert elapsed < 1


def test_kernel_route_member_at_a_long_level():
    # a passing degree is read from the rows, not from every word's matrix,
    # and each row once, not once for every degree above it
    proc, elapsed = run_child(["member", "--word", "e", "--emap", "trivial", "--level", "20000",
                               "--alphabet", "1", "--route", "kernels"])
    assert proc.returncode == 0 and proc.stderr == ""
    assert json.loads(proc.stdout)["member"] is True
    assert elapsed < 5


@pytest.mark.parametrize("route, coefficient", [(None, "-1"), ("kernels", "1")])
def test_kernel_route_reads_a_deep_witness_from_its_rows(route, coefficient):
    # degree 9 fails: the witness is the least failing code in rows 1..9,
    # not the first of 5^9 words scanned in order
    argv = ["member", "--word", "[x5^8,x4]", "--emap", "zass:2,1", "--level", "10",
            "--alphabet", "5"]
    proc, elapsed = run_child(argv + (["--route", route] if route else []))
    assert proc.returncode == 0 and proc.stderr == ""
    assert proc.stdout == (
        '{"version": "0.1.0", "seed": null, "command": "member",'
        ' "word": "[x5^8,x4]", "alphabet": 5, "emap": "zass:2,1", "level": 10,'
        f' "route": "{route or "both"}", "member": false,'
        f' "route_agreement": {"null" if route else "true"},'
        ' "witness": {"degree": 9, "word": "x4x5x5x5x5x5x5x5x5",'
        f' "coefficient": "{coefficient}"}}}}\n'
    )
    assert elapsed < 3


@pytest.mark.parametrize("argv", [
    ["member", "--word", "x1", "--emap", "trivial", "--level", "30000000", "--alphabet", "1"],
    ["member", "--word", "x1", "--emap", "zass:2,1", "--level", "100000000", "--alphabet", "1"],
    ["sample", "--scheme", "product:trivial", "--level", "100000000", "--alphabet", "2"],
], ids=["member-trivial", "member-zass", "sample-product"])
def test_table_rows_over_the_cell_limit_exit_three(argv):
    # the entries of row `level` are counted before any is computed
    level = argv[argv.index("--level") + 1]
    proc, elapsed = run_child(argv, address_space=1 << 30)
    assert proc.returncode == 3 and proc.stderr == ""
    assert proc.stdout.count("\n") == 1
    assert json.loads(proc.stdout)["error"] == {
        "kind": "precondition",
        "message": f"row {level} of the exponent table needs {level} cells"
                   f" (one per entry e(n, 1..n)), over the limit of {MAX_CELLS}",
    }
    assert elapsed < 1


def test_kernel_route_over_a_huge_alphabet():
    # degree 1 sums the exponents of the letters in the word, so an alphabet
    # of 4001 digits allocates nothing; the rows for degree 2 are refused
    alphabet = "1" + "0" * 4000
    argv = ["member", "--emap", "trivial", "--level", "3", "--alphabet", alphabet,
            "--route", "kernels"]
    proc, _ = run_child(argv + ["--word", "[x1,x2]"])
    assert proc.returncode == 3 and proc.stderr == ""
    assert proc.stdout.count("\n") == 1
    error = json.loads(proc.stdout)["error"]
    assert error == {
        "kind": "precondition",
        "message": f"the kernel route at alphabet {alphabet}, degree 2 needs more than"
                   f" {MAX_CELLS} cells (alphabet^1 + ... + alphabet^2 + 2), over the limit of {MAX_CELLS}",
    }
    proc, _ = run_child(argv + ["--word", "x1"])
    assert proc.returncode == 0 and proc.stderr == ""
    assert proc.stdout.count("\n") == 1
    report = json.loads(proc.stdout)
    assert report["member"] is False
    assert report["witness"] == {"degree": 1, "word": "x1", "coefficient": "1"}


def test_massey_over_a_huge_alphabet(capsys):
    # (rows + level) * alphabet^level would have about 16000 digits, more
    # than int() prints; the alphabet alone is over the limit, so it is not counted
    alphabet = "9" * 4000
    code, report, _ = run(capsys, ["massey", "--alphabet", alphabet, "--level", "2"])
    assert code == 3
    assert report["error"] == {
        "kind": "precondition",
        "message": f"the pairing matrix at alphabet {alphabet}, level 2 needs more than {MAX_CELLS}"
                   f" cells ((rows + level) * alphabet^level), over the limit of {MAX_CELLS}",
    }


def test_recursive_sampler_depth_limit():
    # afilt: draws at level n from level n - 1 first, one call deeper per
    # level: at the limit the draw reaches level 1 and the words outgrow
    # MAX_RUNS on the way back up; one level over it nothing is drawn
    scheme = "afilt:" + ",".join(["2"] * filt.MAX_DEPTH)
    messages = []
    for level in (filt.MAX_DEPTH, filt.MAX_DEPTH + 1):
        proc, elapsed = run_child(["sample", "--scheme", scheme, "--level", str(level),
                                   "--alphabet", "2", "--count", "1"])
        assert proc.returncode == 3 and proc.stderr == ""
        assert proc.stdout.count("\n") == 1
        messages.append(json.loads(proc.stdout)["error"]["message"])
        assert elapsed < 5
    assert messages[0].endswith(f"runs, over the limit of {MAX_RUNS}")
    assert messages[1] == (f"level {filt.MAX_DEPTH + 1} is over the recursive sampler's depth"
                           f" limit of {filt.MAX_DEPTH}")


def test_sequence_gcd_table_at_a_long_level():
    # every entry shares the prime 2, so no subset gcd reaches 1 early;
    # the rows come from the recurrence, not from 2^39 subsets
    proc, elapsed = run_child(["member", "--word", "x1^2", "--emap", "gcdseq:" + ",".join(["2"] * 39),
                               "--level", "40", "--alphabet", "1"])
    assert proc.returncode == 0 and proc.stderr == ""
    report = json.loads(proc.stdout)
    assert report["member"] is False
    assert report["witness"] == {"degree": 1, "word": "x1", "coefficient": "2"}
    assert elapsed < 1


@pytest.mark.parametrize("level, alphabet, cells", [
    ("24", "2", "16772880"),
    ("100000", "2", f"more than {MAX_CELLS}"),
    ("1", "1000000000", f"more than {MAX_CELLS}"),
])
def test_product_sampler_over_the_cell_limit_exits_three(level, alphabet, cells):
    proc, elapsed = run_child(["sample", "--scheme", "product:trivial", "--level", level,
                               "--alphabet", alphabet, "--count", "1"])
    assert proc.returncode == 3 and proc.stderr == ""
    assert proc.stdout.count("\n") == 1
    assert json.loads(proc.stdout)["error"] == {
        "kind": "precondition",
        "message": f"the product sampler at alphabet {alphabet}, level {level} needs {cells} cells"
                   " (weight * necklace(alphabet, weight), summed over the weights),"
                   f" over the limit of {MAX_CELLS}",
    }
    assert elapsed < 5


@pytest.mark.parametrize("level, alphabet", [("20", "2"), ("1000000000", "1")])
def test_product_sampler_under_the_cell_limit_answers(level, alphabet):
    # one letter has a Lyndon word at weight 1 only, so no other weight is read
    proc, elapsed = run_child(["sample", "--scheme", "product:trivial", "--level", level,
                               "--alphabet", alphabet, "--count", "1"])
    assert proc.returncode == 0 and proc.stderr == ""
    assert elapsed < 5
    assert len(json.loads(proc.stdout)["words"]) == 1


@pytest.mark.parametrize("cap", ["10000000", "99999999999"])
def test_magnus_cap_over_the_cell_limit_exits_three(cap):
    # the cap + 1 degrees are counted before any is made, so neither cap
    # allocates its degrees or loops over them
    proc, elapsed = run_child(["magnus", "--word", "x1", "--cap", cap, "--alphabet", "1"],
                              address_space=1 << 30)
    assert proc.returncode == 3 and proc.stderr == ""
    assert proc.stdout.count("\n") == 1
    assert json.loads(proc.stdout)["error"] == {
        "kind": "precondition",
        "message": f"the Magnus expansion at cap {cap} needs {int(cap) + 1} cells"
                   f" (one per degree 0..cap), over the limit of {MAX_CELLS}",
    }
    assert elapsed < 1


def test_rep_matrix_over_the_cell_limit_exits_three():
    # 3163^2 cells are counted before the word is expanded or a row is made
    proc, elapsed = run_child(["rep", "--word", "x1", "--monomial", "x1" * 3162, "--alphabet", "1"],
                              address_space=1 << 30)
    assert proc.returncode == 3 and proc.stderr == ""
    assert proc.stdout.count("\n") == 1
    assert json.loads(proc.stdout)["error"] == {
        "kind": "precondition",
        "message": "the unipotent image at monomial length 3162 needs 10004569 cells"
                   f" ((length + 1)^2), over the limit of {MAX_CELLS}",
    }
    assert elapsed < 1


def test_a_wrong_power_node_product_makes_the_routes_disagree(monkeypatch, capsys):
    # (x1*x2^-1)^64 keeps its power, so the series route multiplies series
    # by repeated squaring; a product that adds one x1 each time reaches
    # only that route, and the kernel route still finds a member
    magnus_module = sys.modules["filtrate.magnus"]
    product = magnus_module._product

    def wrong_product(a, b, m, cap):
        out = product(a, b, m, cap)
        out[1][(1,)] = out[1].get((1,), 0) + 1
        return out

    argv = ["member", "--word", "(x1*x2^-1)^64", "--emap", "zass:2,1", "--level", "3",
            "--alphabet", "2", "--route", "both"]
    code, report, _ = run(capsys, argv)
    assert code == 0 and report["member"] is True
    monkeypatch.setattr(magnus_module, "_product", wrong_product)
    code, report, _ = run(capsys, argv)
    assert code == 4
    error = report["error"]
    assert error["kind"] == "integrity"
    assert error["series_member"] is False and error["kernels_member"] is True
    assert error["kernels_witness"] is None


@pytest.mark.parametrize("argv", [
    ["member", "--word", "x1", "--emap", "zass:{p},1", "--level", "2", "--alphabet", "2"],
    ["emap-check", "--emap", "zass:{p},1", "--nmax", "3"],
    ["sample", "--scheme", "zass:{p},1", "--level", "2", "--alphabet", "2"],
    ["sample", "--scheme", "product:zass:{p},1", "--level", "2", "--alphabet", "2"],
], ids=["member", "emap-check", "sample-zass", "sample-product"])
def test_primes_past_the_primality_limit_exit_three(argv, capsys):
    p = PRIME_LIMIT + 2
    code, report, _ = run(capsys, [a.format(p=p) for a in argv])
    assert code == 3
    assert report["error"] == {
        "kind": "precondition",
        "message": f"primality of {p} is decided only below the limit of {PRIME_LIMIT}",
    }


def test_large_primes_answer_at_once():
    # 100000000000031 is prime; trial division took about a second
    for argv in (["member", "--word", "x1", "--emap", "zass:100000000000031,1", "--level", "2",
                  "--alphabet", "2"],
                 ["emap-check", "--emap", "zass:100000000000031,1", "--nmax", "3"]):
        proc, elapsed = run_child(argv)
        assert proc.returncode == 0 and proc.stderr == ""
        assert elapsed < 1


BIG_BASE = "7" * 4000  # 13288 bits, so a^8 is past the limit and a^7 is not


@pytest.mark.parametrize("emap, level, entry, bound", [
    # these families descend by construction, so only row `level` is read
    ("zass:2,1000000", "3", "e(3,1)", 4 * 10**6),
    ("zass:2,1" + "0" * 30, "2", "e(2,1)", 2 * 10**30),
    ("const:" + BIG_BASE, "10", "e(10,1)", 9 * int(BIG_BASE).bit_length()),
], ids=["zass-t-1e6", "zass-t-1e30", "const-4000-digits"])
def test_oversized_table_entries_exit_three(emap, level, entry, bound):
    # the bound on an entry's bits is checked before the power is taken
    proc, elapsed = run_child(["member", "--word", "[x1,x2]", "--emap", emap, "--level", level,
                               "--alphabet", "2"], address_space=1 << 30)
    assert proc.returncode == 3 and proc.stderr == ""
    assert proc.stdout.count("\n") == 1
    assert json.loads(proc.stdout)["error"] == {
        "kind": "precondition",
        "message": f"table entry {entry} has up to {bound} bits, over the limit of {MAX_ENTRY_BITS}",
    }
    assert elapsed < 1


def test_table_entries_under_the_bit_limit_answer(capsys):
    code, report, _ = run(capsys, ["member", "--word", "[x1,x2]", "--emap", "zass:2,1000",
                                   "--level", "3", "--alphabet", "2"])
    assert code == 0
    assert report["witness"] == {"degree": 2, "word": "x1x2", "coefficient": "1"}


def test_member_long_conjugate_power(capsys):
    code, report, _ = run(capsys, [
        "member", "--word", "(x1*x2*x1^-1)^1000000000", "--level", "2", "--emap", "trivial",
        "--alphabet", "2",
    ])
    assert code == 0
    assert report["witness"] == {"degree": 1, "word": "x2", "coefficient": "1000000000"}


def test_massey_one_letter_at_a_long_level(capsys):
    start = time.perf_counter()
    code = cli.main(["massey", "--alphabet", "1", "--level", "2000000"])
    elapsed = time.perf_counter() - start
    captured = capsys.readouterr()
    assert code == 0 and captured.err == ""
    assert captured.out.count("\n") == 1
    report = json.loads(captured.out)
    assert (report["rows"], report["cols"], report["rank"]) == (0, 1, 0)
    assert elapsed < 0.5


def test_member_long_power(capsys):
    code, report, _ = run(capsys, [
        "member", "--word", "x1^10000000", "--level", "2", "--emap", "trivial",
        "--alphabet", "1",
    ])
    assert code == 0
    assert report["member"] is False
    assert report["witness"] == {"degree": 1, "word": "x1", "coefficient": "10000000"}


def test_batch_rejects_bad_jobs_files(tmp_path, capsys):
    code, report, _ = run(capsys, ["batch", "--jobs", str(tmp_path / "missing.json")])
    assert code == 2 and report["error"]["kind"] == "parse"
    path = tmp_path / "notalist.json"
    path.write_text('{"command": "massey"}')
    code, report, _ = run(capsys, ["batch", "--jobs", str(path)])
    assert code == 2 and report["error"]["kind"] == "parse"


# files that json cannot read: nested deeper than the interpreter recurses,
# not UTF-8, and an integer of more digits than int() reads
UNREADABLE = {"nested": b"[" * 5000 + b"]" * 5000, "latin-1": b'[{"n": 1, "values": ["\xe9"]}]',
              "digits": b'[{"n": 1, "values": [' + b"9" * 4301 + b"]}]"}


@pytest.mark.parametrize("content", UNREADABLE)
@pytest.mark.parametrize("argv, prefix", [
    (["batch", "--jobs", "{path}"], "cannot read jobs file {path!r}: "),
    (["emap-check", "--emap", "file:{path}", "--nmax", "2"],
     "filtrate emap-check: argument --emap: cannot read e-map table {path!r}: "),
    (["member", "--word", "x1", "--emap", "file:{path}", "--level", "2", "--alphabet", "2"],
     "filtrate member: argument --emap: cannot read e-map table {path!r}: "),
    (["sample", "--scheme", "product:file:{path}", "--level", "2", "--alphabet", "2"],
     "bad scheme spec 'product:file:{path}': cannot read e-map table {path!r}: "),
], ids=["batch", "emap-check", "member", "sample"])
def test_unreadable_json_files_exit_two(tmp_path, capsys, content, argv, prefix):
    path = str(tmp_path / "file.json")
    with open(path, "wb") as fh:
        fh.write(UNREADABLE[content])
    code = cli.main([token.format(path=path) for token in argv])
    captured = capsys.readouterr()
    assert code == 2 and captured.err == ""
    assert captured.out.count("\n") == 1
    error = json.loads(captured.out)["error"]
    assert error["kind"] == "parse"
    assert error["message"].startswith(prefix.format(path=path))


def test_help_documents_the_grammars(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["--help"])
    assert exc.value.code == 0
    out = capsys.readouterr().out
    assert "word grammar:" in out
    assert "e-map spec grammar:" in out
    assert "scheme spec grammar" in out
    assert "[a,b] = a^-1 b^-1 a b" in out


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["--version"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.strip() == "filtrate 0.1.0"


# The differential gate: argv that the fast path of cli._dispatch reads, or
# must leave to argparse.  "{tmp}" is the directory of `cli_files`.
FAST_PATH_ARGVS = {
    # the shapes of the benchmark's cli workload, every subcommand
    "member-trivial": ["member", "--word", "[x1,x2]*x1^2", "--emap", "trivial", "--level", "4",
                       "--alphabet", "2", "--route", "both"],
    "member-zass": ["member", "--word", "[[x1,x2],x1]", "--emap", "zass:2,1", "--level", "5",
                    "--alphabet", "2", "--route", "both"],
    "member-zass-3": ["member", "--word", "x1*x3^-1*x2*x2*x1^-1*x3", "--emap", "zass:3,1",
                      "--level", "4", "--alphabet", "3", "--route", "both"],
    "member-gcdseq": ["member", "--word", "x2*x1*x1*x2^-1*x1^-1*x2", "--emap", "gcdseq:2,3,4,5",
                      "--level", "5", "--alphabet", "2", "--route", "both"],
    "member-series": ["member", "--word", "[x1,x3]^2", "--emap", "zass:2,1", "--level", "4",
                      "--alphabet", "3", "--route", "series"],
    "member-kernels": ["member", "--word", "x3*x1*x2^-1*x1*x3*x2", "--emap", "trivial",
                       "--level", "3", "--alphabet", "3", "--route", "kernels"],
    "magnus-Z": ["magnus", "--word", "x1*x2^-1*x1*x1*x2*x2", "--ring", "Z", "--cap", "4",
                 "--alphabet", "2"],
    "magnus-Z/6": ["magnus", "--word", "x3*x1*x2^-1*x3^-1*x2*x1", "--ring", "Z/6", "--cap", "3",
                   "--alphabet", "3"],
    "rep-Z": ["rep", "--word", "[x1^-1,x3]", "--monomial", "x3x1x2x1", "--ring", "Z",
              "--alphabet", "3"],
    "rep-Z/5": ["rep", "--word", "[x2,x1]", "--monomial", "x2x1", "--ring", "Z/5", "--alphabet", "2"],
    "sample-afilt": ["sample", "--scheme", "afilt:2,3,4", "--level", "3", "--alphabet", "2",
                     "--seed", "52213", "--count", "5"],
    "sample-zass": ["sample", "--scheme", "zass:3,1", "--level", "3", "--alphabet", "2",
                    "--seed", "999999", "--count", "5"],
    "sample-product": ["sample", "--scheme", "product:zass:2,1", "--level", "3", "--alphabet", "2",
                       "--seed", "0", "--count", "5"],
    "emap-check-gcdseq": ["emap-check", "--emap", "gcdseq:2,3,4,6,8,9,10,12,15", "--nmax", "9"],
    "emap-check-const": ["emap-check", "--emap", "const:6", "--nmax", "8"],
    "emap-check-file": ["emap-check", "--emap", "file:{tmp}/not_descending.json", "--nmax", "3"],
    "massey": ["massey", "--alphabet", "3", "--level", "4"],
    "batch": ["batch", "--jobs", "{tmp}/batch.json"],
    "error-word": ["member", "--word", "x1**x2", "--emap", "trivial", "--level", "3",
                   "--alphabet", "2"],
    "error-massey-level": ["massey", "--alphabet", "2", "--level", "1"],
    "error-file-table": ["member", "--word", "x1", "--emap", "file:{tmp}/not_descending.json",
                         "--level", "3", "--alphabet", "2"],
    "hostile-batch": ["batch", "--jobs", "{tmp}/bad_jobs.json"],
    # the report too long for a pipe, from the closed-stdout test
    "massey-emit-9": ["massey", "--alphabet", "2", "--level", "9", "--emit-matrix"],
    # pinned spellings
    "equals": ["member", "--word=[x1,x2]", "--emap=trivial", "--level=2", "--alphabet=2",
               "--route=series"],
    "equals-in-value": ["member", "--word", "x1", "--emap=file:{tmp}/a=b.json", "--level", "2",
                        "--alphabet", "2"],
    "empty-value": ["member", "--word=", "--emap", "trivial", "--level", "2", "--alphabet", "2"],
    "prefix": ["member", "--word", "x1", "--emap", "trivial", "--lev", "2", "--alphabet", "2"],
    "prefix-switch": ["massey", "--alphabet", "2", "--level", "3", "--emit"],
    "ambiguous-prefix": ["sample", "--scheme", "zass:2,1", "--level", "2", "--alphabet", "2",
                         "--s", "1"],
    "repeated": ["member", "--word", "x1", "--emap", "trivial", "--level", "2", "--level", "3",
                 "--alphabet", "2"],
    "negative-seed": ["sample", "--scheme", "zass:2,1", "--level", "2", "--alphabet", "2",
                      "--seed", "-5"],
    "negative-level": ["member", "--word", "x1", "--emap", "trivial", "--level", "-3",
                       "--alphabet", "2"],
    "dash-word": ["member", "--word=-x1", "--emap", "trivial", "--level", "2", "--alphabet", "2"],
    "switch-value": ["massey", "--alphabet", "2", "--level", "3", "--emit-matrix=1"],
    "switch-then-value": ["massey", "--emit-matrix", "yes", "--alphabet", "2", "--level", "3"],
    "double-dash": ["massey", "--alphabet", "2", "--", "--level", "3"],
    "double-dash-last": ["massey", "--alphabet", "2", "--level", "3", "--"],
    "flag-without-value": ["massey", "--alphabet", "2", "--level"],
    "short-help": ["member", "-h"],
    "help-value": ["member", "--word", "--help", "--emap", "trivial", "--level", "2",
                   "--alphabet", "2"],
    "help": ["--help"],
    "version": ["--version"],
    "version-after-command": ["massey", "--alphabet", "2", "--level", "3", "--version"],
    "unknown-flag": ["massey", "--alphabet", "2", "--level", "3", "--bogus", "1"],
    "stray-value": ["massey", "--alphabet", "2", "--level", "3", "4"],
    "missing-flag": ["member", "--word", "x1", "--level", "2"],
    "bad-route": ["member", "--word", "x1", "--emap", "trivial", "--level", "2", "--alphabet", "2",
                  "--route", "diagonal"],
    "bad-level-before-limit": ["member", "--word", "x1", "--level", "two",
                               "--emap", f"zass:{PRIME_LIMIT + 2},1", "--alphabet", "2"],
    "limit-before-bad-level": ["member", "--word", "x1", "--emap", f"zass:{PRIME_LIMIT + 2},1",
                               "--level", "two", "--alphabet", "2"],
    "limit-and-prefix": ["emap-check", "--emap", f"zass:{PRIME_LIMIT + 2},1", "--nm", "3"],
    "unknown-command": ["frobnicate", "--level", "2"],
    "empty": [],
}


@pytest.fixture
def cli_files(tmp_path):
    """The table and jobs files that FAST_PATH_ARGVS read, in tmp_path."""
    (tmp_path / "not_descending.json").write_text(json.dumps(
        [{"n": 1, "values": [1]}, {"n": 2, "values": [2, 1]}, {"n": 3, "values": [2, 4, 1]}]))
    (tmp_path / "a=b.json").write_text(json.dumps([{"n": 1, "values": [1]}]))
    (tmp_path / "batch.json").write_text(json.dumps([
        {"command": "member", "parameters": {"word": "[x1,x2]", "emap": "zass:2,1", "level": "4",
                                             "alphabet": "2", "route": "both"}},
        {"command": "magnus", "parameters": {"word": "x1*x2^-1", "ring": "Z", "cap": "3",
                                             "alphabet": "2"},
         "output": str(tmp_path / "magnus.json")},
        {"command": "emap-check", "parameters": {"emap": "zass:3,1", "nmax": "8"}},
        {"command": "sample", "parameters": {"scheme": "zass:2,1", "level": "3", "alphabet": "2",
                                             "seed": "-5", "count": "3"}},
    ]))
    (tmp_path / "bad_jobs.json").write_text(json.dumps([
        {"command": "massey", "parameters": {"alphabet": 2, "level": 3}},
        {"command": "member", "parameters": [1, 2]},
        {"command": "massey", "parameters": {"alphabet": 2, "level": 3},
         "output": str(tmp_path / "missing" / "out.json")},
    ]))
    return tmp_path


def main_outcome(capsys, argv):
    """What `cli.main(argv)` gives: the exit code, stdout and stderr."""
    try:
        code = cli.main(argv)
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# the argv of FAST_PATH_ARGVS that the fast path leaves to argparse
DECLINED = {"prefix", "prefix-switch", "ambiguous-prefix", "repeated", "negative-seed",
            "negative-level", "dash-word", "switch-value", "switch-then-value", "double-dash",
            "double-dash-last", "flag-without-value", "short-help", "help-value", "help",
            "version", "version-after-command", "unknown-flag", "stray-value", "missing-flag",
            "bad-route", "bad-level-before-limit", "limit-and-prefix", "unknown-command", "empty"}


@pytest.mark.parametrize("name", FAST_PATH_ARGVS)
def test_the_fast_path_reads_argv_as_argparse_does(monkeypatch, capsys, cli_files, name):
    argv = [token.format(tmp=cli_files) for token in FAST_PATH_ARGVS[name]]
    try:
        read = fast_args_checked(argv) is not None
    except cli._CliError:
        read = True  # a converter refused a value, as it does under argparse
    assert read == (name not in DECLINED)
    fast = main_outcome(capsys, argv)
    monkeypatch.setattr(cli, "_fast_args", lambda argv: None)
    assert main_outcome(capsys, argv) == fast


# mostly well-formed values, so the fast path reads about a fifth of the argv
_NUMBERS = st.one_of(*[st.integers(1, 3).map(str)] * 4,
                     st.sampled_from(["-3", "0", "4", "٣", "²", "２", "+2", " 2 ", "1_0", "two", ""]))
_FLAG_VALUES = {
    "word": st.sampled_from(["x1", "[x1,x2]", "x1^-2*x2", "(x2*x1)^2", "e", "[x1,x2]^2",
                             "x1**", "x٣", "-x1", "x3"]),
    "monomial": st.sampled_from(["x1x2", "x1", "x2x1x1", "", "x1²", "x3"]),
    "emap": st.sampled_from(["trivial", "const:2", "zass:2,1", "gcdseq:2,3,4", "zass:3,1",
                             "zass:4,1", "const:-1", "bogus:1", "file:/nonexistent.json",
                             f"zass:{PRIME_LIMIT + 2},1"]),
    "scheme": st.sampled_from(["zass:2,1", "afilt:2,3", "product:trivial", "zass:3,1",
                               "zass:4,1", "bogus", f"zass:{PRIME_LIMIT + 2},1"]),
    "ring": st.sampled_from(["Z", "Z/4", "Z/6", "Z/٣", "Z/-3", "Q"]),
    "route": st.sampled_from(["series", "kernels", "both", "diagonal"]),
    "jobs": st.just("/nonexistent/jobs.json"),
}


@st.composite
def _flag_tokens(draw, flag):
    """One flag as argv tokens: spelled in full or as a prefix, its value
    after a space or an "=", or missing; a switch alone, or with a value."""
    prefix = flag[:draw(st.integers(1, len(flag)))]
    name = "--" + draw(st.sampled_from([flag] * 9 + [prefix]))
    if flag == "emit-matrix":
        return draw(st.sampled_from([[name]] * 8 + [[f"{name}=1"], [name, "1"]]))
    value = draw(_FLAG_VALUES.get(flag, _NUMBERS))
    return draw(st.sampled_from([[name, value], [f"{name}={value}"]] * 5 + [[name]]))


@st.composite
def _command_lines(draw):
    """argv from the flags of COMMANDS, with flags left out or repeated and
    unknown flags, "--" and stray values mixed in; never -h, --help or
    --version."""
    command = draw(st.sampled_from([*cli.COMMANDS] * 3 + ["frobnicate"]))
    flags = cli.COMMANDS[command][2] if command in cli.COMMANDS else {"level": None}
    options = [draw(_flag_tokens(flag)) for flag in flags
               for _ in range(draw(st.sampled_from([1] * 18 + [0, 2])))]
    options += draw(st.sampled_from([[]] * 8 + [[["--bogus", "1"]], [["--bogus=1"]], [["-x"]],
                                                [["--"]], [["7"]]]))
    argv = [command, *[token for option in draw(st.permutations(options)) for token in option]]
    return draw(st.sampled_from([argv] * 9 + [[]]))


@settings(derandomize=True)
@given(_command_lines())
def test_fuzzed_command_lines_give_one_json_line_either_way(argv):
    # the fast path is checked against argparse inside cli.main (the autouse
    # fixture), and the bytes must not change when argparse parses alone
    outcomes = []
    for fast_args in (cli._fast_args, lambda argv: None):
        out, err = io.StringIO(), io.StringIO()
        with mock.patch.object(cli, "_fast_args", fast_args), redirect_stdout(out), \
                redirect_stderr(err):
            code = cli.main(argv)
        assert code in (0, 2, 3) and err.getvalue() == ""
        assert out.getvalue().count("\n") == 1 and isinstance(json.loads(out.getvalue()), dict)
        outcomes.append((code, out.getvalue()))
    assert outcomes[0] == outcomes[1]


# placeholders that a fuzzed file holds where json.dumps cannot write the
# hostile value: the encoded file has the drawn bytes in their place
_HOSTILE = {
    "@nested@": st.integers(2000, 5000).map(lambda depth: b"[" * depth + b"]" * depth),
    "@digits@": st.integers(4301, 5000).map(lambda digits: b"9" * digits),
    "@bytes@": st.sampled_from([b'"\xff"', b'"x\xc3("', b'"\xed\xa0\x80"', b'"\xe9t\xe9"']),
}
# values where a job or a table expects something else
_ODD_VALUES = st.sampled_from([None, True, False, 0, -2, 2.0, 2.5, float("inf"), float("nan"),
                               10**30, "", "two", [], {}, [[2]], {"n": 1}])


def _mostly(draw, usual):
    """A value of `usual`, or one time in eight an odd value."""
    return draw(_ODD_VALUES if draw(st.integers(0, 7)) == 0 else usual)


def _with_hostile(draw, value):
    """value, or about half the time value with one of _HOSTILE's
    placeholders in place of the whole or of a part at any depth."""
    placeholder = draw(st.sampled_from([None] * 3 + [*_HOSTILE]))
    if placeholder is None:
        return value

    def replaced(part):
        if isinstance(part, (list, dict)) and part and draw(st.booleans()):
            part = part.copy()
            key = draw(st.sampled_from(list(range(len(part)) if isinstance(part, list) else part)))
            part[key] = replaced(part[key])
            return part
        return placeholder
    return replaced(value)


@st.composite
def _tables(draw):
    """A file: table: the rows {"n": n, "values": [e(n, 1..n)]} of const:a,
    which descend, with odd values, unknown keys, or a table that is not an
    array of rows."""
    a = draw(st.integers(0, 3))
    rows = []
    for n in range(1, draw(st.integers(0, 3)) + 1):
        row = {"n": _mostly(draw, st.just(n)),
               "values": [_mostly(draw, st.just(a ** (n - i))) for i in range(1, n + 1)]}
        if draw(st.integers(0, 7)) == 0:
            row["bogus"] = 1
        rows.append(_mostly(draw, st.just(row)))
    return _with_hostile(draw, _mostly(draw, st.just(rows)))


# a job's flag values: the argv fuzz's, a table of the example as a file:
# spec, and small numbers, so that every job that runs is quick
_JOB_VALUES = {**_FLAG_VALUES,
               "emap": st.one_of(_FLAG_VALUES["emap"], st.just("file:@table@")),
               "scheme": st.one_of(_FLAG_VALUES["scheme"], st.just("product:file:@table@")),
               "emit-matrix": st.booleans()}
_JOB_NUMBERS = st.one_of(st.integers(1, 3), st.integers(1, 3).map(str))
_OUTPUTS = st.sampled_from(["@dir@/out.json", "@dir@", "@dir@/missing/out.json", "a\0b", "",
                            True, 7, None, ["out.json"]])


@st.composite
def _jobs_files(draw):
    """A jobs file from the flags of COMMANDS, with flags left out, unknown
    parameters, odd and hostile values and outputs that cannot be written."""
    jobs = []
    for _ in range(draw(st.integers(0, 3))):
        command = draw(st.sampled_from([*cli.COMMANDS, "frobnicate"]))
        flags = cli.COMMANDS[command][2] if command in cli.COMMANDS else {}
        parameters = {flag: _mostly(draw, _JOB_VALUES.get(flag, _JOB_NUMBERS))
                      for flag in flags if draw(st.integers(0, 9))}
        if draw(st.integers(0, 7)) == 0:
            parameters["bogus"] = 1
        job = {"command": command, "parameters": _mostly(draw, st.just(parameters))}
        if draw(st.integers(0, 3)) == 0:
            job["seed"] = _mostly(draw, _JOB_NUMBERS)
        if draw(st.integers(0, 3)) == 0:
            job["output"] = draw(_OUTPUTS)
        jobs.append(_mostly(draw, st.just(job)))
    return _with_hostile(draw, _mostly(draw, st.just(jobs)))


def _encoded(value, hostile, paths) -> bytes:
    """value as a JSON file, with the placeholders of paths and hostile in it replaced."""
    raw = json.dumps(value).encode()
    for name, path in paths.items():
        raw = raw.replace(name.encode(), json.dumps(path)[1:-1].encode())
    for name, data in hostile.items():
        raw = raw.replace(json.dumps(name).encode(), data)
    return raw


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


@settings(derandomize=True)
@given(jobs=_jobs_files(), table=_tables(), hostile=st.fixed_dictionaries(_HOSTILE),
       table_argv=st.sampled_from([
           ["member", "--word", "x1*x2", "--emap", "file:@table@", "--level", "2",
            "--alphabet", "2"],
           ["emap-check", "--emap", "file:@table@", "--nmax", "3"],
           ["sample", "--scheme", "product:file:@table@", "--level", "3", "--alphabet", "2",
            "--count", "2"]]))
def test_fuzzed_jobs_files_and_tables_give_one_json_line(fuzz_dir, jobs, table, hostile,
                                                        table_argv):
    paths = {"@table@": str(fuzz_dir / "table.json"), "@dir@": str(fuzz_dir)}
    (fuzz_dir / "table.json").write_bytes(_encoded(table, hostile, paths))
    (fuzz_dir / "jobs.json").write_bytes(_encoded(jobs, hostile, paths))
    for argv in (["batch", "--jobs", str(fuzz_dir / "jobs.json")],
                 [token.replace("@table@", paths["@table@"]) for token in table_argv]):
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = cli.main(argv)
        assert code in (0, 2, 3) and err.getvalue() == ""
        assert out.getvalue().count("\n") == 1
        report = json.loads(out.getvalue())
        assert {entry["exit"] for entry in report.get("jobs", [])} <= {0, 2, 3}
