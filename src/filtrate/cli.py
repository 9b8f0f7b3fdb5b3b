"""filtrate: membership, expansions, representations, samplers, audits, ranks.

Every invocation prints a single JSON object to stdout; only --help and
--version print text.  Reports carry the tool version and the seed (null
when no randomness is involved); all potentially large numbers are decimal
strings.  Exit codes: 0 success, 2 parse or validation failure (a bad word
or spec, a missing or ill-typed flag, an unknown subcommand), 3 module
precondition violation, 4 internal invariant breach (the two membership
routes disagreed, which is always a bug).

    filtrate member --word "[x1,x2]" --emap trivial --level 2 --alphabet 2
    filtrate magnus --word "x1*x2^-1" --ring Z --cap 3 --alphabet 2
    filtrate rep --word "[x1,x2]" --monomial x1x2 --ring Z --alphabet 2
    filtrate sample --scheme zass:2,1 --level 3 --alphabet 2 --seed 7 --count 5
    filtrate emap-check --emap gcdseq:2,3,4 --nmax 8
    filtrate massey --alphabet 2 --level 4 [--emit-matrix]
    filtrate batch --jobs jobs.json

The flags of every subcommand are declared once, in COMMANDS; the fast
path of `_dispatch`, the argparse parser and the parameters of a batch job
are all read from it.  argparse is imported only for help and for the
command lines that the fast path leaves to it.
"""

from __future__ import annotations

import json
import os
import sys
from functools import cache
from types import SimpleNamespace

from . import __version__
from .coeff import parse_ring, spec_int
from .emap import (
    LimitError,
    SequenceGcdEMap,
    ZassenhausEMap,
    check_binomial,
    check_condition_iii,
    check_descending,
    parse_emap,
    read_json,
    spec_ints,
)
from .filt import (
    FiltrationSpec,
    kernel_witness,
    phi,
    product_sampler,
    sample_recursive,
    series_witness,
)
from .magnus import magnus, series_json
from .massey import necklace, pairing_matrix, pairing_rank
from .words import WordSyntaxError, format_monomial, format_word, parse_monomial, parse_word

GRAMMAR = """\
word grammar:
    word      := term ("*" term)*
    term      := atom ("^" signed-int)?
    atom      := generator | "e" | "[" word "," word "]" | "(" word ")"
    generator := "x" positive-int
  "e" is the empty word, whitespace may separate tokens but not
  split one, and [a,b] = a^-1 b^-1 a b.

e-map spec grammar:
    "trivial" | "const:<a>" | "gcdseq:<a1>,<a2>,..." | "zass:<p>,<t>"
    | "file:<path>"
  where the file holds a JSON array of rows
  {"n": ..., "values": [e(n,1), ..., e(n,n)]}.

scheme spec grammar (sample):
    "afilt:<a1>,<a2>,..." | "zass:<p>,<t>" | "product:<e-map spec>"

Numbers in words, specs and integer flags are written in the ASCII
digits 0-9, after an optional "-" in an exponent, a spec or a flag.
"""


class _CliError(Exception):
    def __init__(self, code: int, kind: str, message: str, **extra):
        super().__init__(message)
        self.code = code
        self.kind = kind
        self.extra = extra


def _parse_error(message: str, **extra) -> _CliError:
    return _CliError(2, "parse", message, **extra)


def _integer(low: int | None = None):
    """A type= converter for an integer flag in ASCII digits (`spec_int`), >= low if given."""
    def convert(text: str) -> int:
        value = spec_int(text)
        if low is not None and value < low:
            import argparse
            raise argparse.ArgumentTypeError(f"must be >= {low}, got {value}")
        return value
    convert.__name__ = "int"  # argparse names it in "invalid int value: ..."
    return convert


def _flag_type(parse):
    """A type= converter reporting parse's ValueError under its own message;
    a LimitError is a precondition, not a parse error, and exits 3."""
    def convert(text: str):
        try:
            return parse(text)
        except LimitError as exc:
            raise _CliError(3, "precondition", str(exc)) from exc
        except ValueError as exc:
            import argparse
            raise argparse.ArgumentTypeError(str(exc)) from exc
    return convert


def _witness_json(witness) -> dict | None:
    if witness is None:
        return None
    d, w, c = witness
    return {"degree": d, "word": format_monomial(w), "coefficient": str(c)}


def _parse_scheme(text: str):
    """The sampler and the table it draws from: afilt:<a1>,... and zass:<p>,<t>
    are the recursions of gcdseq:<a1>,... and zass:<p>,<t>."""
    text = text.strip()
    kind, sep, body = text.partition(":")
    try:
        if sep and kind == "afilt":
            return sample_recursive, SequenceGcdEMap(spec_ints(body))
        if sep and kind == "zass":
            return sample_recursive, ZassenhausEMap(*spec_ints(body, 2))
        if sep and kind == "product":
            return product_sampler, parse_emap(body)
    except LimitError as exc:
        raise _CliError(3, "precondition", str(exc)) from exc
    except ValueError as exc:
        raise _parse_error(f"bad scheme spec {text!r}: {exc}") from exc
    raise _parse_error(f"bad scheme spec {text!r}: unknown kind {kind!r}" if sep
                       else f"bad scheme spec {text!r}")


def _cmd_member(args) -> tuple[int, dict]:
    word = parse_word(args.word, args.alphabet)
    spec = FiltrationSpec(args.emap, args.level)
    report = {
        "word": args.word,
        "alphabet": args.alphabet,
        "emap": args.emap.describe(),
        "level": args.level,
        "route": args.route,
    }
    if args.route != "both":
        witness = (series_witness if args.route == "series" else kernel_witness)(word, spec)
        report.update(member=witness is None, route_agreement=None,
                      witness=_witness_json(witness))
        return 0, report
    s_witness = series_witness(word, spec)
    k_witness = kernel_witness(word, spec)
    if (s_witness is None) != (k_witness is None):
        raise _CliError(
            4, "integrity",
            "membership routes disagree; this is a bug or a counterexample",
            word=args.word, emap=args.emap.describe(), level=args.level,
            series_member=s_witness is None,
            kernels_member=k_witness is None,
            series_witness=_witness_json(s_witness),
            kernels_witness=_witness_json(k_witness),
        )
    report.update(member=s_witness is None, route_agreement=True,
                  witness=_witness_json(s_witness or k_witness))
    return 0, report


def _cmd_magnus(args) -> tuple[int, dict]:
    series = magnus(parse_word(args.word, args.alphabet), args.ring, args.cap)
    return 0, {"word": args.word, "alphabet": args.alphabet, "series": series_json(series)}


def _cmd_rep(args) -> tuple[int, dict]:
    word = parse_word(args.word, args.alphabet)
    monomial = parse_monomial(args.monomial, args.alphabet)
    rows = phi(monomial, word, args.ring)
    return 0, {
        "word": args.word,
        "alphabet": args.alphabet,
        "monomial": format_monomial(monomial),
        "ring": str(args.ring),
        "size": len(rows),
        "matrix": [[str(v) for v in row] for row in rows],
    }


def _cmd_sample(args) -> tuple[int, dict]:
    sampler, table = _parse_scheme(args.scheme)
    words = sampler(table, args.level, args.alphabet, args.count, args.seed)
    return 0, {
        "scheme": args.scheme,
        "level": args.level,
        "alphabet": args.alphabet,
        "count": args.count,
        "words": [format_word(w) for w in words],
    }


def _cmd_emap_check(args) -> tuple[int, dict]:
    emap = args.emap

    def as_json(result):
        return {"ok": result.ok, "violation": list(result.violation) if result.violation else None}

    descending = check_descending(emap, args.nmax)
    report = {"emap": emap.describe(), "nmax": args.nmax, "descending": as_json(descending)}
    # the binomial and valuation audits presuppose a descending table
    if descending.ok:
        report["binomial"] = as_json(check_binomial(emap, args.nmax))
        report["condition_iii"] = as_json(check_condition_iii(emap, args.nmax))
    else:
        report["binomial"] = None
        report["condition_iii"] = None
    return 0, report


def _cmd_massey(args) -> tuple[int, dict]:
    matrix = pairing_matrix(args.alphabet, args.level)
    rank = pairing_rank(matrix)
    target = necklace(args.alphabet, args.level)
    report = {
        "alphabet": args.alphabet,
        "level": args.level,
        "rank": rank,
        "necklace": target,
        "match": rank == target,
        "rows": len(matrix.entries),
        "cols": len(matrix.column_labels),
    }
    if args.emit_matrix:
        # one shared str per distinct entry, not one per cell
        text = {v: str(v) for v in set().union(*matrix.entries)}
        report["matrix"] = {
            "row_labels": [format_word(g) for g in matrix.row_labels],
            "column_labels": [format_monomial(w) for w in matrix.column_labels],
            "entries": [list(map(text.__getitem__, row)) for row in matrix.entries],
        }
    return 0, report


def _cmd_batch(args) -> tuple[int, dict]:
    try:
        jobs = read_json(args.jobs, "jobs file")
    except ValueError as exc:
        raise _parse_error(str(exc)) from exc
    if not isinstance(jobs, list):
        raise _parse_error(f"cannot read jobs file {args.jobs!r}: jobs file must hold a JSON array")
    reports = []
    worst = 0
    for index, job in enumerate(jobs):
        code, report = _run_job(index, job)
        worst = max(worst, code)
        output = job.get("output") if isinstance(job, dict) else None
        entry = {"job": index, "exit": code, "report": report}
        if output:
            try:
                # open() takes an integer or bool as a file descriptor
                if not isinstance(output, str):
                    raise TypeError("output must be a path string")
                with open(output, "w", encoding="utf-8") as fh:
                    fh.write(json.dumps(report) + "\n")
                entry = {"job": index, "exit": code, "output": output}
            except (OSError, TypeError, ValueError) as exc:  # ValueError: a NUL in the path
                error = _parse_error(f"job {index}: cannot write output {output!r}: {exc}",
                                     output=output)
                entry = {"job": index, "exit": 2, "report": _error_report(error)}
                worst = max(worst, 2)
        reports.append(entry)
    return worst, {"jobs": reports}


_POSITIVE_INT = {"type": _integer(1), "required": True}
_RING = {"type": _flag_type(parse_ring), "default": "Z"}
_EMAP = {"type": _flag_type(parse_emap), "required": True}

# name -> (help, handler, {flag: add_argument keywords}); the only place a
# subcommand's flags are declared
COMMANDS = {
    "member": ("membership of a word at a filtration level", _cmd_member, {
        "word": {"required": True},
        "emap": _EMAP,
        "level": _POSITIVE_INT,
        "alphabet": _POSITIVE_INT,
        "route": {"choices": ("series", "kernels", "both"), "default": "both"},
    }),
    "magnus": ("truncated expansion of a word", _cmd_magnus, {
        "word": {"required": True},
        "ring": _RING,
        "cap": _POSITIVE_INT,
        "alphabet": _POSITIVE_INT,
    }),
    "rep": ("unipotent matrix image attached to a monomial", _cmd_rep, {
        "word": {"required": True},
        "monomial": {"required": True},
        "ring": _RING,
        "alphabet": _POSITIVE_INT,
    }),
    "sample": ("draw words from a filtration level", _cmd_sample, {
        "scheme": {"required": True},
        "level": _POSITIVE_INT,
        "alphabet": _POSITIVE_INT,
        "seed": {"type": _integer(), "default": 0},
        "count": {"type": _integer(0), "default": 30},
    }),
    "emap-check": ("audit an exponent table", _cmd_emap_check, {
        "emap": _EMAP,
        "nmax": _POSITIVE_INT,
    }),
    "massey": ("pairing-matrix rank against the necklace count", _cmd_massey, {
        "alphabet": _POSITIVE_INT,
        "level": _POSITIVE_INT,
        "emit-matrix": {"action": "store_true"},
    }),
    "batch": ("run a JSON array of jobs", _cmd_batch, {
        "jobs": {"required": True},
    }),
}


def _run_job(index: int, job) -> tuple[int, dict]:
    """One batch job: its parameters are the flags of its COMMANDS entry."""
    if not isinstance(job, dict) or not isinstance(job.get("command"), str):
        return 2, _error_report(_parse_error(f"job {index} must be an object with a command"))
    command = job["command"]
    if command == "batch" or command not in COMMANDS:
        return 2, _error_report(_parse_error(f"job {index}: unknown command {command!r}"))
    flags = COMMANDS[command][2]
    parameters = job.get("parameters") or {}
    if not isinstance(parameters, dict):
        return 2, _error_report(_parse_error(f"job {index}: parameters must be an object"))
    parameters = dict(parameters)
    if "seed" in job and "seed" in flags:
        parameters.setdefault("seed", job["seed"])
    argv = [command]
    for key, value in parameters.items():
        if key not in flags:
            return 2, _error_report(_parse_error(f"job {index}: unknown parameter {key!r}"))
        if flags[key].get("action") == "store_true":
            if not isinstance(value, bool):
                return 2, _error_report(_parse_error(
                    f"job {index}: parameter {key!r} must be true or false, got {value!r}"))
            if value:
                argv.append(f"--{key}")
        else:
            argv.append(f"--{key}={value}")
    return _dispatch(argv)


def _error_report(exc: _CliError) -> dict:
    report = {
        "version": __version__,
        "seed": None,
        "error": {"kind": exc.kind, "message": str(exc)},
    }
    report["error"].update(exc.extra)
    return report


@cache
def _parser():
    """The command-line parser, built from COMMANDS on first use and shared."""
    import argparse

    class _Parser(argparse.ArgumentParser):
        """An ArgumentParser whose errors become JSON parse reports, not usage text."""

        def error(self, message):
            raise _parse_error(f"{self.prog}: {message}")

    parser = _Parser(
        prog="filtrate",
        description="Exponent-table filtrations of free groups.",
        epilog=GRAMMAR,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("--version", action="version", version=f"filtrate {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, _, flags) in COMMANDS.items():
        command = sub.add_parser(name, help=help_text)
        for flag, keywords in flags.items():
            command.add_argument(f"--{flag}", **keywords)
    return parser


def _fast_args(argv):
    """The namespace argparse makes of argv, or None to leave argv to argparse.

    Read is "<command>" then "--flag value" or "--flag=value", each flag of
    COMMANDS in full and at most once, no value starting with "-".  Values
    convert in argv order, then the defaults, as in argparse, and a
    converter's `_CliError` propagates.  A prefix, help, a failed
    conversion, a bad choice or a missing flag returns None, so argparse
    alone reports errors and prints help.
    """
    if not argv or argv[0] not in COMMANDS:
        return None
    flags = COMMANDS[argv[0]][2]
    given = {}
    tokens = iter(argv[1:])
    for token in tokens:
        name, sep, value = token.partition("=")
        flag = name[2:]
        keywords = flags.get(flag) if name[:2] == "--" else None
        if keywords is None or flag in given:
            return None
        if keywords.get("action") == "store_true":
            if sep:
                return None
            value = True
        else:
            if not sep:
                value = next(tokens, None)
            if value is None or value.startswith("-"):
                return None
        given[flag] = value
    if any(keywords.get("required") and flag not in given for flag, keywords in flags.items()):
        return None
    args = {"command": argv[0]}
    for flag, value in given.items():
        keywords = flags[flag]
        if value is not True:
            try:
                value = keywords.get("type", str)(value)
            except _CliError:
                raise
            except Exception:
                return None  # argparse converts it again and reports or raises the same
            if "choices" in keywords and value not in keywords["choices"]:
                return None
        args[flag.replace("-", "_")] = value
    for flag, keywords in flags.items():
        if flag not in given:
            store_true = keywords.get("action") == "store_true"
            value = keywords.get("default", False if store_true else None)
            if isinstance(value, str) and "type" in keywords:
                value = keywords["type"](value)
            args[flag.replace("-", "_")] = value
    return SimpleNamespace(**args)


def _dispatch(argv) -> tuple[int, dict]:
    try:
        args = _fast_args(argv) or _parser().parse_args(argv)
        code, body = COMMANDS[args.command][1](args)
    except _CliError as exc:
        return exc.code, _error_report(exc)
    except WordSyntaxError as exc:
        return 2, _error_report(_parse_error(str(exc), position=exc.position))
    except ValueError as exc:
        # preconditions of the library modules, surfaced after parsing
        return 3, _error_report(_CliError(3, "precondition", str(exc)))
    header = {"version": __version__, "seed": getattr(args, "seed", None), "command": args.command}
    return code, header | body


def main(argv=None) -> int:
    code, report = _dispatch(sys.argv[1:] if argv is None else argv)
    try:
        print(json.dumps(report))
    except BrokenPipeError:
        pass  # the reader closed stdout early; run drops the rest
    return code


def run():
    try:
        sys.exit(main())
    finally:
        # flush what a block-buffered stdout still holds: main's report, or the
        # text of --help and --version, which leave through SystemExit.  When
        # the reader closed stdout early, nothing is left to tell it, and the
        # interpreter's own flush at exit must not fail again
        try:
            sys.stdout.flush()
        except BrokenPipeError:
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
