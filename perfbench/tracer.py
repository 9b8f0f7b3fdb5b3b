"""Spans and counters around filtrate's public functions, from outside.

`install` replaces every module attribute of the package that refers to a
traced function (for example both `filt.magnus` and `magnus.magnus`) with a
wrapper that records a span and updates counters.  The package's code is not
edited; a call made through a module global, such as `series_witness`
calling `magnus`, goes through the wrapper too.  A span's self time is its
duration minus the time covered by the traced spans inside it.
"""

from __future__ import annotations

import sys
from collections import defaultdict
from time import perf_counter

MODULES = ("filtrate", "filtrate.words", "filtrate.coeff", "filtrate.magnus",
           "filtrate.emap", "filtrate.filt", "filtrate.massey", "filtrate.cli")


def _count_parse(count, args, result):
    count["words.parse_letters"] += len(result)


def _count_magnus(count, args, result):
    count["magnus.expand_calls"] += 1
    count["magnus.letters_expanded"] += len(args[0])
    count["magnus.terms_out"] += len(result.coeffs)


def _count_kernel(count, args, result):
    """Monomials the lexicographic scan visited before it stopped."""
    g, spec = args[0], args[1]
    k, n = g.alphabet_size, spec.level
    if result is None:
        count["filt.kernel_monomials"] += sum(k ** d for d in range(1, n))
        return
    d, w, _ = result
    index = 0
    for letter in w:
        index = index * k + letter - 1
    count["filt.kernel_monomials"] += sum(k ** e for e in range(1, d)) + index + 1


def _count_sample(count, args, result):
    count["filt.sampled_letters"] += sum(len(w) for w in result)


def _count_pairing(count, args, result):
    count["massey.build_rows"] += len(result.entries)
    count["massey.row_letters"] += sum(len(g) for g in result.row_labels)


def _count_rank(count, args, result):
    rows = args[0]
    count["coeff.rank_cells"] += len(rows) * (len(rows[0]) if rows else 0)


# (module, function, span, counter)
TRACED = (
    ("filtrate.words", "parse_word", "words.parse", _count_parse),
    ("filtrate.words", "realize", "words.realize", None),
    ("filtrate.magnus", "magnus", "magnus.expand", _count_magnus),
    ("filtrate.emap", "ideal_member_witness", "emap.ideal_check", None),
    ("filtrate.emap", "check_descending", "emap.audit", None),
    ("filtrate.emap", "check_binomial", "emap.audit", None),
    ("filtrate.emap", "check_condition_iii", "emap.audit", None),
    ("filtrate.filt", "series_witness", "filt.series_route", None),
    ("filtrate.filt", "kernel_witness", "filt.kernel_route", _count_kernel),
    ("filtrate.filt", "phi", "filt.phi", None),
    ("filtrate.filt", "sample_recursive", "filt.sample", _count_sample),
    ("filtrate.filt", "product_sampler", "filt.sample", _count_sample),
    ("filtrate.massey", "pairing_matrix", "massey.build", _count_pairing),
    ("filtrate.coeff", "integer_rank", "coeff.rank", _count_rank),
    ("filtrate.cli", "main", "cli.main", None),
)

COUNTERS = ("words.parse_letters", "magnus.expand_calls", "magnus.letters_expanded",
            "magnus.terms_out", "filt.kernel_monomials", "filt.sampled_letters",
            "massey.build_rows", "massey.row_letters", "coeff.rank_cells",
            "cli.stdout_bytes")


class Tracer:
    """Per-span inclusive and self seconds, call counts and counters.

    Spans of the current pass are also kept as (name, start, end, parent)
    so one pass can be written out.  A function re-entered while its span
    is open (`realize` recurses) records only the outer span.
    """

    def __init__(self):
        self.reset()

    def reset(self):
        self.inclusive = defaultdict(float)
        self.self_time = defaultdict(float)
        self.calls = defaultdict(int)
        self.count = defaultdict(int)
        self.spans = []
        self._open = []      # [span index, time covered by children]
        self._active = set()

    def wrap(self, name, fn, counter):
        def traced(*args, **kwargs):
            if fn in self._active:
                return fn(*args, **kwargs)
            self._active.add(fn)
            parent = self._open[-1][0] if self._open else None
            index = len(self.spans)
            self.spans.append(None)
            self._open.append([index, 0.0])
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                _, children = self._open.pop()
                self._active.discard(fn)
                self.spans[index] = (name, start, end, parent)
                self.inclusive[name] += end - start
                self.self_time[name] += end - start - children
                self.calls[name] += 1
                if self._open:
                    self._open[-1][1] += end - start
            if counter is not None:
                counter(self.count, args, result)
            return result

        return traced


def install(tracer: Tracer):
    """Point every package attribute that names a traced function at its
    wrapper."""
    modules = [sys.modules[m] for m in MODULES]
    for module_name, attr, span, counter in TRACED:
        original = getattr(sys.modules[module_name], attr)
        wrapper = tracer.wrap(span, original, counter)
        for module in modules:
            for key, value in list(vars(module).items()):
                if value is original:
                    setattr(module, key, wrapper)


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """The per-layer metrics of one pass, by name."""
    t = tracer.inclusive
    out = {
        "words.parse_s": t["words.parse"],
        "words.parse_letters": tracer.count["words.parse_letters"],
        "words.realize_s": t["words.realize"],
        "magnus.expand_s": t["magnus.expand"],
        "emap.ideal_check_s": t["emap.ideal_check"],
        "emap.audit_s": t["emap.audit"],
        "filt.series_route_s": t["filt.series_route"],
        "filt.kernel_route_s": t["filt.kernel_route"],
        "filt.phi_s": t["filt.phi"],
        "filt.sample_s": t["filt.sample"],
        "massey.build_s": t["massey.build"],
        "coeff.rank_s": t["coeff.rank"],
        "cli.main_s": t["cli.main"],
        "cli.self_s": tracer.self_time["cli.main"],
    }
    for name in COUNTERS:
        out[name] = tracer.count[name]
    return out
