"""The ops of each workload, and the checks of their outputs.

A workload object is made from the inputs in `workloads` and the imported
package.  `prepare()` does the in-process part of set-up (parse the words,
build the FiltrationSpecs), `calls()` returns one zero-argument callable per
op, and `check(i, outcome)` returns (failed, problem): failed when the op did
not complete as documented, problem when it completed with a wrong output.
Expected values come from `oracle`, never from a stored copy of an output.
"""

from __future__ import annotations

import io
import json
from contextlib import redirect_stderr, redirect_stdout
from functools import partial

import oracle


def _witness(w):
    return None if w is None else (w[0], tuple(w[1]), w[2])


class WordsWorkload:
    """membership and powers: both routes on one word at one level."""

    def __init__(self, package, ops):
        self.pkg = package
        self.ops = ops
        self.expected = [oracle.membership(op["word"], op["table"], op["level"], op["alphabet"])
                         for op in ops]

    def setup_lines(self):
        lines = {f"word\t{op['word']}\t{op['alphabet']}" for op in self.ops}
        lines |= {f"spec\t{op['table']}\t{op['level']}" for op in self.ops}
        return sorted(lines)

    def prepare(self):
        words, emap, filt = self.pkg.words, self.pkg.emap, self.pkg.filt
        specs = {}
        self.args = []
        for op in self.ops:
            key = (op["table"], op["level"])
            if key not in specs:
                specs[key] = filt.FiltrationSpec(emap.parse_emap(key[0]), key[1])
            self.args.append((words.parse_word(op["word"], op["alphabet"]), specs[key]))

    def calls(self):
        return [partial(self._op, g, spec) for g, spec in self.args]

    def _op(self, g, spec):
        filt = self.pkg.filt
        return filt.series_witness(g, spec), filt.kernel_witness(g, spec)

    def check(self, i, outcome):
        if isinstance(outcome, BaseException):
            return True, f"raised {outcome!r}"
        op, want = self.ops[i], self.expected[i]
        s, k = _witness(outcome[0]), _witness(outcome[1])
        if (s is None) != (k is None):
            return False, f"routes disagree on {op}"
        if (s is None) != want["member"]:
            return False, f"verdict {s is None} != oracle {want['member']} on {op}"
        if op["kind"] == "member" and s is not None:
            return False, f"built member reported as non-member: {op}"
        if op["kind"] == "x1*member" and want["row"][0] != 1 and s is None:
            return False, f"x1*member reported as member: {op}"
        if s != want["series"]:
            return False, f"series witness {s} != oracle {want['series']} on {op}"
        if k != want["kernel"]:
            return False, f"kernel witness {k} != oracle {want['kernel']} on {op}"
        return False, None


class MasseyWorkload:
    """Build the pairing matrix, take its rank, compare with the necklace count."""

    def __init__(self, package, ops):
        self.pkg = package
        self.ops = ops
        self.expected = [oracle.necklace(op["alphabet"], op["level"]) for op in ops]

    def setup_lines(self):
        return []

    def prepare(self):
        pass

    def calls(self):
        return [partial(self._op, op["alphabet"], op["level"]) for op in self.ops]

    def _op(self, k, n):
        matrix = self.pkg.massey.pairing_matrix(k, n)
        return self.pkg.coeff.integer_rank(matrix.entries), len(matrix.entries), len(matrix.column_labels)

    def check(self, i, outcome):
        if isinstance(outcome, BaseException):
            return True, f"raised {outcome!r}"
        op, want = self.ops[i], self.expected[i]
        rank, rows, cols = outcome
        if rank != want:
            return False, f"rank {rank} != necklace {want} for {op}"
        if rows != want or cols != op["alphabet"] ** op["level"]:
            return False, f"shape {rows}x{cols} for {op}"
        return False, None


def _flags(argv):
    return {argv[i][2:]: argv[i + 1] for i in range(1, len(argv) - 1, 2)}


def _one_json(text):
    """The report if text is exactly one JSON object on one line, else None."""
    lines = text.splitlines()
    if len(lines) != 1:
        return None
    try:
        report = json.loads(lines[0])
    except ValueError:
        return None
    return report if isinstance(report, dict) else None


def _describe(table):
    return "explicit" if table.startswith("file:") else table


def _modulus(ring):
    return 0 if ring == "Z" else int(ring[2:])


def _scheme_table(scheme):
    kind, _, body = scheme.partition(":")
    return {"afilt": f"gcdseq:{body}", "zass": scheme, "product": body}[kind]


def _witness_json(w):
    if w is None:
        return None
    return {"degree": w[0], "word": oracle.format_monomial(w[1]), "coefficient": str(w[2])}


class CliWorkload:
    """In-process cli.main calls with stdout captured."""

    def __init__(self, package, ops):
        self.pkg = package
        self.ops = ops
        self.stdout_bytes = None   # a counter dict while tracing
        self._membership = {}
        self._checked = {}

    def setup_lines(self):
        lines = set()
        for op in self.ops:
            if op["kind"] in ("member", "magnus", "rep"):
                f = _flags(op["argv"])
                lines.add(f"word\t{f['word']}\t{f['alphabet']}")
                if op["kind"] == "member":
                    lines.add(f"spec\t{f['emap']}\t{f['level']}")
        return sorted(lines)

    def prepare(self):
        pass

    def calls(self):
        return [partial(self._op, op["argv"]) for op in self.ops]

    def _op(self, argv):
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            try:
                code = self.pkg.cli.main(argv)
            except SystemExit as exc:
                code = exc.code
        text = out.getvalue()
        if self.stdout_bytes is not None:
            self.stdout_bytes["cli.stdout_bytes"] += len(text.encode())
        return code, text

    def member_oracle(self, word, table, level, alphabet):
        key = (word, table, level, alphabet)
        if key not in self._membership:
            self._membership[key] = oracle.membership(word, table, level, alphabet)
        return self._membership[key]

    def check(self, i, outcome):
        if isinstance(outcome, BaseException):
            return True, f"raised {type(outcome).__name__}"
        op = self.ops[i]
        files = ()
        if op["kind"] == "batch":
            files = tuple(_read(job["output"]) for job in op["jobs"] if "output" in job)
        key = (i, outcome, files)
        if key not in self._checked:
            self._checked[key] = self._check(op, *outcome)
        return self._checked[key]

    def _check(self, op, code, text):
        report = _one_json(text)
        if report is None:
            return True, f"no single JSON object (exit {code})"
        if op["kind"] == "hostile":
            ok = code in (2, 3) and ("error" in report or "jobs" in report)
            return (False, None) if ok else (True, f"exit {code}")
        if code == 4:
            return False, f"routes disagree: {report}"
        if code != op.get("code", 0):
            return True, f"exit {code}, documented {op.get('code', 0)}"
        if op["kind"] == "error":
            kind = (report.get("error") or {}).get("kind")
            want = "parse" if code == 2 else "precondition"
            return False, None if kind == want else f"error kind {kind!r}, documented {want!r}"
        return False, self.verify(op["argv"], report, op.get("jobs"))

    def verify(self, argv, report, jobs=None):
        """None if the report is what the oracle says for these arguments."""
        command, f = argv[0], _flags(argv)
        if "error" in report:
            return f"{command} reported an error: {report['error']}"
        expected = {"command": command}
        if command == "member":
            k, n, route = int(f["alphabet"]), int(f["level"]), f.get("route", "both")
            o = self.member_oracle(f["word"], f["emap"], n, k)
            expected.update(seed=None, word=f["word"], alphabet=k, emap=_describe(f["emap"]),
                            level=n, route=route, member=o["member"],
                            route_agreement=True if route == "both" else None,
                            witness=_witness_json(o["kernel"] if route == "kernels" else o["series"]))
        elif command == "magnus":
            cap, m = int(f["cap"]), _modulus(f["ring"])
            terms = oracle.sorted_terms(oracle.magnus(f["word"], cap, m))
            expected.update(seed=None, word=f["word"], alphabet=int(f["alphabet"]), series={
                "ring": f["ring"], "cap": cap,
                "terms": [{"word": oracle.format_monomial(w), "coeff": str(c)} for w, c in terms]})
        elif command == "rep":
            w, m = oracle.parse_monomial(f["monomial"]), _modulus(f["ring"])
            s = oracle.magnus(f["word"], len(w), m)
            size = len(w) + 1
            matrix = [[str(1 % m if m else 1) if i == j else
                       str(oracle.coefficient(s, w[i:j], m)) if i < j else "0"
                       for j in range(size)] for i in range(size)]
            expected.update(seed=None, monomial=f["monomial"], ring=f["ring"], size=size, matrix=matrix)
        elif command == "sample":
            level, k, count = int(f["level"]), int(f["alphabet"]), int(f["count"])
            words = report.get("words") or []
            if len(words) != count:
                return f"sample gave {len(words)} words, asked {count}"
            table = _scheme_table(f["scheme"])
            for word in words:
                if not self.member_oracle(word, table, level, k)["member"]:
                    return f"sampled {word!r} is not in level {level} of {table}"
            expected.update(seed=int(f["seed"]), scheme=f["scheme"], level=level, alphabet=k)
        elif command == "emap-check":
            expected.update(seed=None, emap=_describe(f["emap"]), nmax=int(f["nmax"]),
                            **oracle.emap_check(f["emap"], int(f["nmax"])))
        elif command == "massey":
            k, n = int(f["alphabet"]), int(f["level"])
            c = oracle.necklace(k, n)
            expected.update(rank=c, necklace=c, match=True, rows=c, cols=k ** n)
        elif command == "batch":
            entries = report.get("jobs")
            if not isinstance(entries, list) or len(entries) != len(jobs):
                return f"batch reported {entries!r}"
            for index, (job, entry) in enumerate(zip(jobs, entries)):
                if entry.get("job") != index or entry.get("exit") != 0:
                    return f"batch job {index}: {entry}"
                inner = _one_json(_read(job["output"])) if "output" in job else entry.get("report")
                if inner is None:
                    return f"batch job {index}: no report"
                job_argv = [job["command"]]
                for key, value in job["parameters"].items():
                    job_argv += [f"--{key}", str(value)]
                problem = self.verify(job_argv, inner)
                if problem:
                    return f"batch job {index}: {problem}"
        for key, value in expected.items():
            if report.get(key) != value:
                return f"{command} {key}: {report.get(key)!r} != oracle {value!r}"
        return None


def _read(path):
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except OSError:
        return ""


def make(name, package, ops):
    if name == "massey":
        return MasseyWorkload(package, ops)
    if name == "cli":
        return CliWorkload(package, ops)
    return WordsWorkload(package, ops)
