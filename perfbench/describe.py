"""Print the make-up of each workload for a seed, as Markdown.

    python3 perfbench/describe.py --seed 1 [--time-massey]

Word-length and run-length histograms of the reduced words, members and
non-members by the oracle, the CLI op mix, and the massey instances; with
--time-massey also the build and rank seconds of each massey instance.
"""

from __future__ import annotations

import argparse
import sys
from collections import Counter
from pathlib import Path
from time import perf_counter

import oracle
import workloads

LENGTH_BINS = (1, 10, 20, 50, 100, 250, 1000, 10000)
RUN_BINS = (1, 2, 3, 10, 100, 1000)


def _bin(value, bins):
    label = f"<{bins[0]}"
    for lo, hi in zip(bins, bins[1:] + (None,)):
        if value >= lo:
            label = f"{lo}+" if hi is None else (f"{lo}" if hi == lo + 1 else f"{lo}-{hi - 1}")
    return label


def _histogram(values, bins):
    counts = Counter(_bin(v, bins) for v in values)
    order = [_bin(b, bins) for b in bins]
    return ", ".join(f"{label}: {counts[label]}" for label in order if counts[label])


def words_table(name, ops):
    letters = [oracle.reduced_letters(op["word"]) for op in ops]
    members = sum(oracle.membership(op["word"], op["table"], op["level"], op["alphabet"])["member"]
                  for op in ops)
    kinds = Counter(op["kind"] for op in ops)
    print(f"### {name}: {len(ops)} ops a pass\n")
    print(f"- kinds: {dict(kinds)}")
    print(f"- members by the oracle: {members}, non-members: {len(ops) - members}")
    print(f"- reduced word length: {_histogram([len(w) for w in letters], LENGTH_BINS)}")
    print(f"- run length (runs): {_histogram([r for w in letters for r in oracle.runs(w)], RUN_BINS)}")
    print(f"- longest word: {max(len(w) for w in letters)} letters\n")


def cli_table(ops):
    print(f"### cli: {len(ops)} ops a pass\n")
    print(f"- by kind: {dict(Counter(op['kind'] for op in ops))}\n")


def massey_table(ops, timed):
    print(f"### massey: {len(ops)} ops a pass\n")
    head = "| k | n | rows | cols | bracketing letters |"
    print(head + (" build s | rank s | build share |" if timed else ""))
    print("|---" * (head.count("|") - 1 + (3 if timed else 0)) + "|")
    if timed:
        sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
        from filtrate import basic_commutator, integer_rank, lyndon_words, pairing_matrix, realize
    for op in sorted(ops, key=lambda o: (o["alphabet"], o["level"])):
        k, n = op["alphabet"], op["level"]
        line = f"| {k} | {n} | {oracle.necklace(k, n)} | {k ** n} |"
        if timed:
            lengths = [len(realize(basic_commutator(u), k)) for u in lyndon_words(k, n)]
            t = perf_counter()
            matrix = pairing_matrix(k, n)
            build = perf_counter() - t
            t = perf_counter()
            integer_rank(matrix.entries)
            rank = perf_counter() - t
            line += f" {min(lengths)}-{max(lengths)} | {build:.3f} | {rank:.3f} | {build / (build + rank):.0%} |"
        else:
            line += " |"
        print(line)
    print()


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--time-massey", action="store_true")
    args = parser.parse_args()
    words_table("membership", workloads.membership(args.seed))
    words_table("powers", workloads.powers(args.seed))
    cli_table(workloads.cli(args.seed, ".perfbench_tmp"))
    massey_table(workloads.massey(args.seed), args.time_massey)


if __name__ == "__main__":
    main()
