"""Benchmark for filtrate: four workloads, an independent oracle, per-layer traces.

    python3 perfbench/run.py --workload membership --seed 1 --seconds 35 --trace 0
    python3 perfbench/run.py --seed 1          # every workload, untraced and traced

BENCHMARK.json lists membership, powers and cli; massey runs the same way
but only by hand (see README.md).  Run from the root of a checkout; the
package is imported from ./src.  One
workload runs in this interpreter as a single-threaded closed loop: each op
starts after the previous one returns.  After set-up and one untimed warm-up
pass, timed passes over the same op list repeat until --seconds have passed
(at least MIN_PASSES), with gc.collect() between passes.  Every output is
checked against `oracle`.  The last line of stdout is one JSON object with
`correct`, `attempted`, `failed` and `metrics`: the end-to-end metrics with
--trace 0, the per-layer metrics with --trace 1.  Result and span files go
to .perfbench_out/.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import resource
import shutil
import subprocess
import sys
import types
from pathlib import Path
from statistics import median
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
TMP = ROOT / ".perfbench_tmp"

WORKLOADS = ("membership", "powers", "massey", "cli")
MIN_PASSES = 3
COLD_STARTS = 15
# a run stops after its current pass once this much wall time has gone, so a
# much slower program still ends in under three minutes
HARD_STOP_S = 120.0

E2E_UNITS = {"setup_s": "s", "ops_per_s": "ops/s", "op_p50_ms": "ms", "peak_rss_mb": "MB"}


def layer_unit(name):
    if name.endswith("_s"):
        return "s"
    return "bytes" if name.endswith("_bytes") else "count"


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def load_package():
    """Import filtrate from this checkout's src, and nowhere else."""
    sys.path.insert(0, str(SRC))
    names = ("words", "coeff", "magnus", "emap", "filt", "massey", "cli")
    package = types.SimpleNamespace(**{n: importlib.import_module(f"filtrate.{n}") for n in names})
    package.root = importlib.import_module("filtrate")
    if Path(package.root.__file__).resolve().parent != (SRC / "filtrate").resolve():
        fail(f"filtrate was imported from {package.root.__file__}, not {SRC}")
    return package


def generate(name, seed, tmp):
    import workloads
    if name == "cli":
        ops = workloads.cli(seed, str(tmp))
        workloads.write_files(ops)
        return ops
    return getattr(workloads, name)(seed)


class ColdStarts:
    """Set-up time: import + parse + spec build, each in a fresh interpreter.

    The starts are spread over the timed part of the run (a few after each
    pass), so a slow patch of the machine weighs on them no more than on
    the passes; one untimed start comes first and writes the bytecode cache.
    """

    def __init__(self, workload, with_cli):
        self.lines = "\n".join(workload.setup_lines())
        self.cmd = [sys.executable, "-I", str(HERE / "coldstart.py"), str(SRC),
                    "1" if with_cli else "0"]
        self.values = []
        self.start()

    def start(self):
        proc = subprocess.run(self.cmd, input=self.lines, capture_output=True, text=True,
                              timeout=60, check=False)
        if proc.returncode != 0:
            fail(f"cold start failed: {proc.stderr.strip()[-500:]}")
        return float(proc.stdout.split()[-1])

    def catch_up(self, share):
        """Run starts until COLD_STARTS * share of them are done."""
        while len(self.values) < min(COLD_STARTS, round(COLD_STARTS * share)):
            self.values.append(self.start())


def run_pass(calls):
    """One closed-loop pass: per-op wall times, outcomes, pass wall time."""
    times, outcomes = [], []
    start = perf_counter()
    for call in calls:
        t = perf_counter()
        try:
            outcome = call()
        except Exception as exc:  # a failed op is counted, the loop goes on
            outcome = exc
        times.append(perf_counter() - t)
        outcomes.append(outcome)
    return times, outcomes, perf_counter() - start


class Tally:
    def __init__(self, workload):
        self.workload = workload
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.failures = {}

    def check(self, outcomes):
        for i, outcome in enumerate(outcomes):
            failed, problem = self.workload.check(i, outcome)
            self.attempted += 1
            if failed:
                self.failed += 1
                self.failures[i] = problem
            elif problem and len(self.problems) < 20:
                self.problems.append(problem)


def measure(name, seed, seconds, trace):
    began = perf_counter()
    tmp = TMP / f"{name}-{os.getpid()}"
    tmp.mkdir(parents=True, exist_ok=True)
    try:
        raw = generate(name, seed, tmp)
        import ops
        package = load_package()
        workload = ops.make(name, package, raw)
        info = {"workload": name, "seed": seed, "trace": trace, "ops_per_pass": len(raw)}
        cold = None if trace else ColdStarts(workload, name == "cli")
        workload.prepare()
        calls = workload.calls()
        tally = Tally(workload)
        tally.check(run_pass(calls)[1])
        tracer = None
        if trace:
            import tracer as tracing
            tracer = tracing.Tracer()
            tracing.install(tracer)
        walls, per_op, layers = [], [[] for _ in calls], []
        start = perf_counter()
        while True:
            gc.collect()
            if tracer is not None:
                tracer.reset()
                workload.stdout_bytes = tracer.count
                workload.prepare()
                calls = workload.calls()
            times, outcomes, wall = run_pass(calls)
            walls.append(wall)
            for i, t in enumerate(times):
                per_op[i].append(t)
            if tracer is not None:
                layers.append(tracing.layer_metrics(tracer))
            tally.check(outcomes)
            now = perf_counter()
            done = now - start >= seconds and (len(walls) >= MIN_PASSES or now - began > HARD_STOP_S)
            if cold is not None:
                cold.catch_up(1.0 if done else (now - start) / seconds)
            if done:
                break
        info.update(passes=len(walls), pass_s=median(walls),
                    failures=sorted(set(tally.failures.values())))
        if tracer is None:
            info["cold_starts_s"] = cold.values
            metrics = {
                "setup_s": median(cold.values),
                "ops_per_s": median(len(calls) / w for w in walls),
                "op_p50_ms": 1000 * median(median(ts) for ts in per_op),
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            }
            units = E2E_UNITS
        else:
            metrics = {key: median(pass_[key] for pass_ in layers) for key in layers[0]}
            units = {key: layer_unit(key) for key in metrics}
            info["spans"] = {k: {"inclusive_s": tracer.inclusive[k], "self_s": tracer.self_time[k],
                                 "calls": tracer.calls[k]} for k in sorted(tracer.inclusive)}
            write_spans(name, seed, tracer)
        result = {
            "correct": not tally.problems,
            "attempted": tally.attempted,
            "failed": tally.failed,
            "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
        }
        for problem in tally.problems:
            print(f"perfbench: wrong output: {problem}", file=sys.stderr)
        OUT.mkdir(exist_ok=True)
        with open(OUT / f"{name}-seed{seed}-trace{trace}.json", "w", encoding="utf-8") as fh:
            json.dump({"result": result, "info": info}, fh, indent=1)
        print(json.dumps({"info": info}))
        print(json.dumps(result))
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            TMP.rmdir()
        except OSError:  # another run still has files there
            pass


def write_spans(name, seed, tracer):
    """The spans of the last traced pass: name, start, end, parent index."""
    OUT.mkdir(exist_ok=True)
    t0 = tracer.spans[0][1] if tracer.spans else 0.0
    spans = [{"name": n, "start_s": s - t0, "end_s": e - t0, "parent": p}
             for n, s, e, p in tracer.spans]
    with open(OUT / f"{name}-seed{seed}-spans.json", "w", encoding="utf-8") as fh:
        json.dump(spans, fh)


def run_all(seed, seconds):
    """Every workload in its own interpreter, untraced then traced."""
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        runs = {}
        for trace in (0, 1):
            cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                   "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
            proc = subprocess.run(cmd, capture_output=True, text=True, check=False)
            sys.stderr.write(proc.stderr)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or len(lines) < 2:
                fail(f"{name} --trace {trace} exited {proc.returncode}")
            runs[trace] = (json.loads(lines[-2])["info"], json.loads(lines[-1]))
        info, result = runs[0]
        tinfo, tresult = runs[1]
        print(f"== {name}: seed {seed}, {info['ops_per_pass']} ops a pass, {info['passes']} timed passes, "
              f"attempted {result['attempted']}, failed {result['failed']}, correct {result['correct']}")
        for failure in info["failures"]:
            print(f"   failing op: {failure}")
        for key, m in list(result["metrics"].items()) + list(tresult["metrics"].items()):
            print(f"   {key:24s} {m['value']:>16.6g} {m['unit']}")
            summary["metrics"][f"{name}.{key}"] = m
        overhead = tinfo["pass_s"] / info["pass_s"] - 1
        print(f"   tracing overhead: traced pass {tinfo['pass_s']:.4g} s vs {info['pass_s']:.4g} s "
              f"untraced ({100 * overhead:+.1f}%)")
        summary["correct"] = summary["correct"] and result["correct"] and tresult["correct"]
        summary["attempted"] += result["attempted"]
        summary["failed"] += result["failed"]
    print(json.dumps(summary))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=35)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "filtrate" / "__init__.py").is_file():
        fail(f"no package at {SRC / 'filtrate'}; run from the root of a filtrate checkout")
    if args.workload is None:
        run_all(args.seed, args.seconds)
    else:
        measure(args.workload, args.seed, args.seconds, args.trace)


if __name__ == "__main__":
    main()
