"""filtrate: membership, expansions, representations, samplers, audits, ranks.

Every subcommand prints a single JSON object to stdout carrying the tool
version and the seed (null when no randomness is involved); all potentially
large numbers are decimal strings.  Exit codes: 0 success, 2 parse or
validation failure, 3 module precondition violation, 4 internal invariant
breach (the two membership routes disagreed, which is always a bug).

    filtrate member --word "[x1,x2]" --emap trivial --level 2 --alphabet 2
    filtrate magnus --word "x1*x2^-1" --ring Z --cap 3 --alphabet 2
    filtrate rep --word "[x1,x2]" --monomial x1x2 --ring Z --alphabet 2
    filtrate sample --scheme zass:2,1 --level 3 --alphabet 2 --seed 7 --count 5
    filtrate emap-check --emap gcdseq:2,3,4 --nmax 8
    filtrate massey --alphabet 2 --level 4 [--emit-matrix]
    filtrate batch --jobs jobs.json
"""

from __future__ import annotations

import argparse
import json
import sys
from functools import cache

from . import __version__
from .coeff import integer_rank, parse_ring
from .emap import check_binomial, check_condition_iii, check_descending, parse_emap
from .filt import (
    AFiltration,
    FiltrationSpec,
    QZassenhaus,
    Route,
    SampleBudget,
    kernel_witness,
    phi,
    product_sampler,
    sample_recursive,
    series_witness,
)
from .magnus import magnus, series_json
from .massey import necklace, pairing_matrix
from .words import WordSyntaxError, format_monomial, format_word, parse_monomial, parse_word

GRAMMAR = """\
word grammar:
    word      := term ("*" term)*
    term      := atom ("^" signed-int)?
    atom      := generator | "e" | "[" word "," word "]" | "(" word ")"
    generator := "x" positive-int
  "e" is the empty word, whitespace is insignificant, and
  [a,b] = a^-1 b^-1 a b.

e-map spec grammar:
    "trivial" | "const:<a>" | "gcdseq:<a1>,<a2>,..." | "zass:<p>,<t>"
    | "file:<path>"
  where the file holds a JSON array of rows
  {"n": ..., "values": [e(n,1), ..., e(n,n)]}.

scheme spec grammar (sample):
    "afilt:<a1>,<a2>,..." | "zass:<p>,<t>" | "product:<e-map spec>"
"""


class _CliError(Exception):
    def __init__(self, code: int, kind: str, message: str, **extra):
        super().__init__(message)
        self.code = code
        self.kind = kind
        self.extra = extra


def _parse_error(message: str, **extra) -> _CliError:
    return _CliError(2, "parse", message, **extra)


def _as_parse_error(exc: ValueError) -> _CliError:
    extra = {"position": exc.position} if isinstance(exc, WordSyntaxError) else {}
    return _parse_error(str(exc), **extra)


def _require(condition: bool, message: str):
    if not condition:
        raise _parse_error(message)


def _witness_json(witness) -> dict | None:
    if witness is None:
        return None
    d, w, c = witness
    return {"degree": d, "word": format_monomial(w), "coefficient": str(c)}


def _parse_scheme(text: str):
    kind, sep, body = text.partition(":")
    if not sep:
        raise ValueError(f"bad scheme spec {text!r}")
    if kind == "afilt":
        return AFiltration(int(a) for a in body.split(","))
    if kind == "zass":
        p, t = (int(a) for a in body.split(","))
        return QZassenhaus(p, t)
    if kind == "product":
        return parse_emap(body)
    raise ValueError(f"bad scheme spec {text!r}: unknown kind {kind!r}")


def _cmd_member(args) -> tuple[int, dict]:
    try:
        _require(args.level >= 1, f"--level must be >= 1, got {args.level}")
        _require(args.alphabet >= 1, f"--alphabet must be >= 1, got {args.alphabet}")
        word = parse_word(args.word, args.alphabet)
        emap = parse_emap(args.emap)
        route = Route(args.route)
    except ValueError as exc:
        raise _as_parse_error(exc) from exc
    spec = FiltrationSpec(emap, args.level, route)
    report = {
        "version": __version__,
        "seed": None,
        "command": "member",
        "word": args.word,
        "alphabet": args.alphabet,
        "emap": emap.describe(),
        "level": args.level,
        "route": route.value,
    }
    if route is Route.SERIES:
        witness = series_witness(word, spec)
        report.update(member=witness is None, route_agreement=None,
                      witness=_witness_json(witness))
        return 0, report
    if route is Route.KERNELS:
        witness = kernel_witness(word, spec)
        report.update(member=witness is None, route_agreement=None,
                      witness=_witness_json(witness))
        return 0, report
    s_witness = series_witness(word, spec)
    k_witness = kernel_witness(word, spec)
    if (s_witness is None) != (k_witness is None):
        raise _CliError(
            4, "integrity",
            "membership routes disagree; this is a bug or a counterexample",
            word=args.word, emap=emap.describe(), level=args.level,
            series_member=s_witness is None,
            kernels_member=k_witness is None,
            series_witness=_witness_json(s_witness),
            kernels_witness=_witness_json(k_witness),
        )
    report.update(member=s_witness is None, route_agreement=True,
                  witness=_witness_json(s_witness or k_witness))
    return 0, report


def _cmd_magnus(args) -> tuple[int, dict]:
    try:
        _require(args.cap >= 1, f"--cap must be >= 1, got {args.cap}")
        _require(args.alphabet >= 1, f"--alphabet must be >= 1, got {args.alphabet}")
        word = parse_word(args.word, args.alphabet)
        ring = parse_ring(args.ring)
    except ValueError as exc:
        raise _as_parse_error(exc) from exc
    series = magnus(word, ring, args.cap)
    return 0, {
        "version": __version__,
        "seed": None,
        "command": "magnus",
        "word": args.word,
        "alphabet": args.alphabet,
        "series": series_json(series),
    }


def _cmd_rep(args) -> tuple[int, dict]:
    try:
        _require(args.alphabet >= 1, f"--alphabet must be >= 1, got {args.alphabet}")
        word = parse_word(args.word, args.alphabet)
        monomial = parse_monomial(args.monomial, args.alphabet)
        ring = parse_ring(args.ring)
    except ValueError as exc:
        raise _as_parse_error(exc) from exc
    image = phi(monomial, word, ring)
    return 0, {
        "version": __version__,
        "seed": None,
        "command": "rep",
        "word": args.word,
        "alphabet": args.alphabet,
        "monomial": format_monomial(monomial),
        "ring": str(ring),
        "size": image.size,
        "matrix": [[str(v) for v in row] for row in image.rows()],
    }


def _cmd_sample(args) -> tuple[int, dict]:
    try:
        _require(args.level >= 1, f"--level must be >= 1, got {args.level}")
        _require(args.alphabet >= 1, f"--alphabet must be >= 1, got {args.alphabet}")
        _require(args.count >= 0, f"--count must be >= 0, got {args.count}")
        scheme = _parse_scheme(args.scheme)
    except ValueError as exc:
        raise _as_parse_error(exc) from exc
    budget = SampleBudget(count=args.count)
    if isinstance(scheme, (AFiltration, QZassenhaus)):
        words = sample_recursive(scheme, args.level, args.alphabet, budget, args.seed)
    else:
        words = product_sampler(scheme, args.level, args.alphabet, budget, args.seed)
    return 0, {
        "version": __version__,
        "seed": args.seed,
        "command": "sample",
        "scheme": args.scheme,
        "level": args.level,
        "alphabet": args.alphabet,
        "count": args.count,
        "words": [format_word(w) for w in words],
    }


def _cmd_emap_check(args) -> tuple[int, dict]:
    try:
        _require(args.nmax >= 1, f"--nmax must be >= 1, got {args.nmax}")
        emap = parse_emap(args.emap)
    except ValueError as exc:
        raise _as_parse_error(exc) from exc

    def as_json(result):
        return {"ok": result.ok, "violation": list(result.violation) if result.violation else None}

    descending = check_descending(emap, args.nmax)
    report = {
        "version": __version__,
        "seed": None,
        "command": "emap-check",
        "emap": emap.describe(),
        "nmax": args.nmax,
        "descending": as_json(descending),
    }
    # the binomial and valuation audits presuppose a descending table
    if descending.ok:
        report["binomial"] = as_json(check_binomial(emap, args.nmax))
        report["condition_iii"] = as_json(check_condition_iii(emap, args.nmax))
    else:
        report["binomial"] = None
        report["condition_iii"] = None
    return 0, report


def _cmd_massey(args) -> tuple[int, dict]:
    try:
        _require(args.alphabet >= 1, f"--alphabet must be >= 1, got {args.alphabet}")
        _require(args.level >= 1, f"--level must be >= 1, got {args.level}")
    except ValueError as exc:
        raise _as_parse_error(exc) from exc
    matrix = pairing_matrix(args.alphabet, args.level)
    rank = integer_rank(matrix.entries)
    target = necklace(args.alphabet, args.level)
    report = {
        "version": __version__,
        "seed": None,
        "command": "massey",
        "alphabet": args.alphabet,
        "level": args.level,
        "rank": rank,
        "necklace": target,
        "match": rank == target,
        "rows": len(matrix.entries),
        "cols": len(matrix.column_labels),
    }
    if args.emit_matrix:
        report["matrix"] = {
            "row_labels": [format_word(g) for g in matrix.row_labels],
            "column_labels": [format_monomial(w) for w in matrix.column_labels],
            "entries": [[str(v) for v in row] for row in matrix.entries],
        }
    return 0, report


_JOB_FLAGS = {
    "member": ("word", "emap", "level", "alphabet", "route"),
    "magnus": ("word", "ring", "cap", "alphabet"),
    "rep": ("word", "monomial", "ring", "alphabet"),
    "sample": ("scheme", "level", "alphabet", "seed", "count"),
    "emap-check": ("emap", "nmax"),
    "massey": ("alphabet", "level", "emit-matrix"),
}


def _cmd_batch(args) -> tuple[int, dict]:
    try:
        with open(args.jobs, encoding="utf-8") as fh:
            jobs = json.load(fh)
        if not isinstance(jobs, list):
            raise ValueError("jobs file must hold a JSON array")
    except (OSError, ValueError) as exc:
        raise _parse_error(f"cannot read jobs file {args.jobs!r}: {exc}") from exc
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
            except (OSError, TypeError) as exc:
                error = _parse_error(f"job {index}: cannot write output {output!r}: {exc}",
                                     output=output)
                entry = {"job": index, "exit": 2, "report": _error_report(error)}
                worst = max(worst, 2)
        reports.append(entry)
    return worst, {
        "version": __version__,
        "seed": None,
        "command": "batch",
        "jobs": reports,
    }


def _run_job(index: int, job) -> tuple[int, dict]:
    if not isinstance(job, dict) or "command" not in job:
        return 2, _error_report(_parse_error(f"job {index} must be an object with a command"))
    command = job["command"]
    flags = _JOB_FLAGS.get(command)
    if flags is None:
        return 2, _error_report(_parse_error(f"job {index}: unknown command {command!r}"))
    argv = [command]
    parameters = job.get("parameters") or {}
    if not isinstance(parameters, dict):
        return 2, _error_report(_parse_error(f"job {index}: parameters must be an object"))
    parameters = dict(parameters)
    if "seed" in job and "seed" in flags:
        parameters.setdefault("seed", job["seed"])
    for key, value in parameters.items():
        if key not in flags:
            return 2, _error_report(_parse_error(f"job {index}: unknown parameter {key!r}"))
        if key == "emit-matrix":
            if value:
                argv.append("--emit-matrix")
        else:
            argv.extend([f"--{key}", str(value)])
    try:
        return _dispatch(argv)
    except SystemExit:
        # argparse rejected a flag value; keep the batch going
        return 2, _error_report(_parse_error(f"job {index}: malformed arguments"))


def _error_report(exc: _CliError) -> dict:
    report = {
        "version": __version__,
        "seed": None,
        "error": {"kind": exc.kind, "message": str(exc)},
    }
    report["error"].update(exc.extra)
    return report


@cache
def _parser() -> argparse.ArgumentParser:
    """The command-line parser, built on first use and shared by every call."""
    parser = argparse.ArgumentParser(
        prog="filtrate",
        description="Exponent-table filtrations of free groups.",
        epilog=GRAMMAR,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("--version", action="version", version=f"filtrate {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    member = sub.add_parser("member", help="membership of a word at a filtration level")
    member.add_argument("--word", required=True)
    member.add_argument("--emap", required=True)
    member.add_argument("--level", type=int, required=True)
    member.add_argument("--alphabet", type=int, required=True)
    member.add_argument("--route", choices=("series", "kernels", "both"), default="both")
    member.set_defaults(handler=_cmd_member)

    magnus_p = sub.add_parser("magnus", help="truncated expansion of a word")
    magnus_p.add_argument("--word", required=True)
    magnus_p.add_argument("--ring", default="Z")
    magnus_p.add_argument("--cap", type=int, required=True)
    magnus_p.add_argument("--alphabet", type=int, required=True)
    magnus_p.set_defaults(handler=_cmd_magnus)

    rep = sub.add_parser("rep", help="unipotent matrix image attached to a monomial")
    rep.add_argument("--word", required=True)
    rep.add_argument("--monomial", required=True)
    rep.add_argument("--ring", default="Z")
    rep.add_argument("--alphabet", type=int, required=True)
    rep.set_defaults(handler=_cmd_rep)

    sample = sub.add_parser("sample", help="draw words from a filtration level")
    sample.add_argument("--scheme", required=True)
    sample.add_argument("--level", type=int, required=True)
    sample.add_argument("--alphabet", type=int, required=True)
    sample.add_argument("--seed", type=int, default=0)
    sample.add_argument("--count", type=int, default=30)
    sample.set_defaults(handler=_cmd_sample)

    emap_check = sub.add_parser("emap-check", help="audit an exponent table")
    emap_check.add_argument("--emap", required=True)
    emap_check.add_argument("--nmax", type=int, required=True)
    emap_check.set_defaults(handler=_cmd_emap_check)

    massey_p = sub.add_parser("massey", help="pairing-matrix rank against the necklace count")
    massey_p.add_argument("--alphabet", type=int, required=True)
    massey_p.add_argument("--level", type=int, required=True)
    massey_p.add_argument("--emit-matrix", action="store_true")
    massey_p.set_defaults(handler=_cmd_massey)

    batch = sub.add_parser("batch", help="run a JSON array of jobs")
    batch.add_argument("--jobs", required=True)
    batch.set_defaults(handler=_cmd_batch)

    return parser


def _dispatch(argv) -> tuple[int, dict]:
    args = _parser().parse_args(argv)
    try:
        return args.handler(args)
    except _CliError as exc:
        return exc.code, _error_report(exc)
    except ValueError as exc:
        # preconditions of the library modules, surfaced after parsing
        return 3, _error_report(_CliError(3, "precondition", str(exc)))


def main(argv=None) -> int:
    code, report = _dispatch(argv)
    print(json.dumps(report))
    return code


def run():
    sys.exit(main())
