"""One cold start: import filtrate, parse the workload's words, build its specs.

Run in a fresh interpreter as

    python3 -I perfbench/coldstart.py <src dir> <import cli: 0|1> < lines

where each stdin line is "word<TAB><word><TAB><alphabet>" or
"spec<TAB><table><TAB><level>".  Prints the seconds from just before
`import filtrate` to the last FiltrationSpec built.  Only `sys` and `time`
are imported before the clock starts, so the package pays for its own
imports.
"""

import sys
import time


def main():
    src, with_cli = sys.argv[1], sys.argv[2] == "1"
    lines = [line.split("\t") for line in sys.stdin.read().splitlines() if line]
    sys.path.insert(0, src)
    start = time.perf_counter()
    import filtrate
    if with_cli:
        import filtrate.cli  # noqa: F401
    for kind, text, number in lines:
        if kind == "word":
            filtrate.parse_word(text, int(number))
        else:
            filtrate.FiltrationSpec(filtrate.parse_emap(text), int(number))
    elapsed = time.perf_counter() - start
    print(repr(elapsed))


if __name__ == "__main__":
    main()
