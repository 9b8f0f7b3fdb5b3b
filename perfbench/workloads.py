"""Inputs for each workload, made from a seed without importing filtrate.

Every function here returns plain data: word strings, table specs, levels,
alphabet sizes and CLI argument lists.  The op list of a workload has the
same shape for every seed (the same cells, kinds and counts in the same
order); the seed picks letters, signs, leaf words and splittings.
"""

from __future__ import annotations

import json
import os
import random

from oracle import reduced_letters

MEMBERSHIP_TABLES = ("trivial", "zass:2,1", "zass:3,1", "gcdseq:3,3,2,2,2,2")
# (level, alphabet) cells; level 7 runs over two letters only, since a
# level-7 member over three scans 1092 monomials (20-60 ms an op)
MEMBERSHIP_CELLS = ((5, 2), (5, 3), (6, 2), (6, 3), (7, 2))
# two thirds random words, so the median op falls among many of them and
# stays put from seed to seed; the members carry most of a pass's time
MEMBERSHIP_KINDS = ("random",) * 16 + ("member",) * 4 + ("x1*member",) * 4
# reduced lengths accepted for a built member at each level: brackets of
# commuting leaves collapse to e, and a fixed band keeps a cell's cost alike
# from seed to seed
MEMBER_LENGTHS = {3: (10, 24), 4: (14, 28), 5: (20, 28), 6: (30, 40), 7: (42, 54)}

POWERS_LEVELS = (3, 4, 5, 6)
MASSEY_INSTANCES = ((2, 7), (2, 8), (3, 6), (5, 4), (4, 5))


def rng_for(workload: str, seed: int) -> random.Random:
    return random.Random(f"perfbench:{workload}:{seed}")


# ---------------------------------------------------------------- word pieces

def random_word(rng, k, lo, hi) -> str:
    """A reduced word of length lo..hi over k >= 2 letters whose runs have
    length 1 or 2, with as many inverse letters as plain ones (give or take
    one): an inverse letter expands to a longer series than a plain one, so
    a fixed split keeps the cost of a word alike across seeds."""
    length = rng.randint(lo, hi)
    signs = [1, -1] * (length // 2) + [rng.choice((1, -1))] * (length % 2)
    rng.shuffle(signs)
    letters = []
    for sign in signs:
        banned = {-letters[-1]} if letters else set()
        if len(letters) >= 2 and letters[-1] == letters[-2]:
            banned.add(letters[-1])
        letters.append(rng.choice([g * sign for g in range(1, k + 1) if g * sign not in banned]))
    return _fmt(letters)


def _fmt(letters) -> str:
    """Letters as a word string with runs written as powers."""
    parts = []
    i = 0
    while i < len(letters):
        j = i
        while j < len(letters) and letters[j] == letters[i]:
            j += 1
        e = (j - i) * (1 if letters[i] > 0 else -1)
        parts.append(f"x{abs(letters[i])}" + ("" if e == 1 else f"^{e}"))
        i = j
    return "*".join(parts) if parts else "e"


def _leaf(rng, k) -> str:
    return random_word(rng, k, 1, 2)


def _power_leaf(rng, k) -> str:
    """Two distinct generators, so a power of it keeps runs of length 1."""
    a, b = rng.sample(range(1, k + 1), 2)
    return _fmt([a * rng.choice((1, -1)), b * rng.choice((1, -1))])


def commutator(rng, k, weight) -> str:
    """A near-balanced bracket of the given weight over short leaves: in the
    weight-th term of the lower central series."""
    if weight == 1:
        return _leaf(rng, k)
    s = weight // 2 if weight < 4 else rng.choice((weight // 2, (weight + 1) // 2))
    return f"[{commutator(rng, k, s)},{commutator(rng, k, weight - s)}]"


def zassenhaus_member(rng, k, p, n) -> str:
    """In D_n of the mod-p Zassenhaus filtration: u^p with u in D_ceil(n/p),
    or [u, v] with u in D_s, v in D_(n-s)."""
    if n == 1:
        return _leaf(rng, k)
    low = -(-n // p)
    if rng.random() < 0.5:
        base = _power_leaf(rng, k) if low == 1 else zassenhaus_member(rng, k, p, low)
        return f"({base})^{p}"
    s = n // 2 if n < 4 else rng.choice((n // 2, (n + 1) // 2))
    return f"[{zassenhaus_member(rng, k, p, s)},{zassenhaus_member(rng, k, p, n - s)}]"


def gcdseq_member(rng, k, seq, n) -> str:
    """In level n of the recursion G_n = G_(n-1)^a_(n-1) [G_(n-1), F], which
    contains the n-th lower central term."""
    if rng.random() < 0.5:
        return f"({commutator(rng, k, n - 1)})^{seq[n - 2]}"
    return commutator(rng, k, n)


def _any_member(rng, table, k, n) -> str:
    kind, _, body = table.partition(":")
    if kind == "zass":
        return zassenhaus_member(rng, k, int(body.split(",")[0]), n)
    if kind == "gcdseq":
        return gcdseq_member(rng, k, [int(a) for a in body.split(",")], n)
    return commutator(rng, k, n)


def member(rng, table, k, n) -> str:
    """A member of level n whose reduced length lies in MEMBER_LENGTHS[n]."""
    lo, hi = MEMBER_LENGTHS[n]
    while True:
        word = _any_member(rng, table, k, n)
        if lo <= len(reduced_letters(word)) <= hi:
            return word


# ---------------------------------------------------------------- workloads

def membership(seed: int) -> list[dict]:
    """One op per (table, cell, kind); kind says how the word was built."""
    rng = rng_for("membership", seed)
    ops = []
    for table in MEMBERSHIP_TABLES:
        for level, k in MEMBERSHIP_CELLS:
            for index, kind in enumerate(MEMBERSHIP_KINDS):
                if kind == "random":
                    # an odd length makes the exponent sum +-1, so the word
                    # fails at degree 1 on every table here and its cost
                    # does not hinge on the seed
                    length = 7 + 2 * (index % 2)
                    word = random_word(rng, k, length, length)
                else:
                    word = member(rng, table, k, level)
                    if kind == "x1*member":
                        word = f"x1*({word})"
                ops.append({"word": word, "table": table, "level": level,
                            "alphabet": k, "kind": kind})
    return ops


def _uncancelled_base(rng, k, length, q) -> str:
    """[u, v] with |u| = |v| = length such that no letter of [u, v]^q
    cancels, so its flattened length is exactly 4 * length * q."""
    while True:
        base = f"[{random_word(rng, k, length, length)},{random_word(rng, k, length, length)}]"
        if len(reduced_letters(f"({base})^{q}")) == 4 * length * q:
            return base


def powers(seed: int) -> list[dict]:
    """Words with long exponent runs or long flattened powers, alphabet 2.

    The list of templates and levels is fixed; the seed picks letters, signs
    and leaf words.  Commutator bases are drawn so that nothing cancels, so
    every template has the same flattened length for every seed.
    """
    rng = rng_for("powers", seed)
    ops = []

    def add(word, table, level, kind):
        ops.append({"word": word, "table": table, "level": level, "alphabet": 2, "kind": kind})

    def pair():
        a, b = rng.sample((1, 2), 2)
        return f"x{a}^{rng.choice((1, -1))}*x{b}^{rng.choice((1, -1))}"

    for level in POWERS_LEVELS:
        # q-th powers of commutators, in D_(2q) when q is a power of p; each
        # is 256-288 letters once flattened
        for q, table, leaf in ((4, "zass:2,1", 16), (8, "zass:2,1", 8), (64, "zass:2,1", 1),
                               (9, "zass:3,1", 8), (27, "zass:3,1", 3)):
            base = _uncancelled_base(rng, 2, leaf, q)
            add(f"({base})^{q}", table, level, "member")
            add(f"x1*({base})^{q}", table, level, "x1*member")
        # a run of one generator to a power of p times another
        a, b = rng.sample(("x1", "x2"), 2)
        s = rng.choice((1, -1))
        add(f"{a}^{729 * s}*{b}^{-243 * s}", "zass:3,1", level, "member")
        # nested powers in the recursive style: ((u^4)^4)^4 = u^64
        add(f"(([{a},{b}^{-s}]^4)^4)^4", "zass:2,1", level, "member")
    for level in (3, 4):
        a, b = rng.sample(("x1", "x2"), 2)
        s = rng.choice((1, -1))
        add(f"[[{pair()},{a}]^9,{b}]^9", "zass:3,1", level, "member")
        add(f"{a}^{5000 * s}*{b}^{-5000 * s}", ("zass:2,1", "trivial")[level - 3],
            level, ("member", "other")[level - 3])
    a, b = rng.sample(("x1", "x2"), 2)
    add(f"[{a}^729,{b}^-243]", "trivial", 3, "other")
    return ops


def massey(seed: int) -> list[dict]:
    rng = rng_for("massey", seed)
    instances = list(MASSEY_INSTANCES)
    rng.shuffle(instances)
    return [{"alphabet": k, "level": n} for k, n in instances]


# the five invocations that a program fault makes fail on every call; they do
# not depend on the seed, so the failed share of a pass is fixed
def hostile_ops(tmp: str) -> list[dict]:
    deep = "(" * 3000 + "x1" + ")" * 3000
    return [
        {"kind": "hostile", "argv": ["member", "--word", "x1", "--level", "2"]},
        {"kind": "hostile", "argv": ["member", "--word", "x1", "--emap", "trivial",
                                     "--level", "two", "--alphabet", "2"]},
        {"kind": "hostile", "argv": ["member", "--word", deep, "--emap", "trivial",
                                     "--level", "2", "--alphabet", "1"]},
        {"kind": "hostile", "argv": ["batch", "--jobs", os.path.join(tmp, "bad_parameters.json")],
         "jobs": [{"command": "massey", "parameters": {"alphabet": 2, "level": 3}},
                  {"command": "member", "parameters": [1, 2]}]},
        {"kind": "hostile", "argv": ["batch", "--jobs", os.path.join(tmp, "bad_output.json")],
         "jobs": [{"command": "massey", "parameters": {"alphabet": 2, "level": 3},
                   "output": os.path.join(tmp, "missing", "out.json")}]},
    ]


def cli(seed: int, tmp: str) -> list[dict]:
    """Argument lists for in-process cli.main calls; every subcommand."""
    rng = rng_for("cli", seed)
    ops = []

    def member_op(table, level, k, route, built):
        word = member(rng, table, k, level) if built else random_word(rng, k, 6, 6)
        return {"kind": "member", "argv": ["member", "--word", word, "--emap", table,
                                           "--level", str(level), "--alphabet", str(k),
                                           "--route", route]}

    # the shapes are fixed; the seed picks words, monomials and sampler seeds
    for table, level, k, route, built in (
            ("trivial", 4, 2, "both", True), ("zass:2,1", 5, 2, "both", True),
            ("zass:3,1", 4, 3, "both", False), ("gcdseq:2,3,4,5", 5, 2, "both", False),
            ("zass:2,1", 4, 3, "series", True), ("trivial", 3, 3, "kernels", False)):
        ops.append(member_op(table, level, k, route, built))
    for ring, k, cap in (("Z", 2, 4), ("Z", 3, 3), ("Z/4", 2, 4), ("Z/6", 3, 3)):
        ops.append({"kind": "magnus", "argv": ["magnus", "--word", random_word(rng, k, 6, 6),
                                               "--ring", ring, "--cap", str(cap), "--alphabet", str(k)]})
    for ring, k, length in (("Z", 2, 3), ("Z", 3, 4), ("Z/5", 2, 2)):
        mono = "".join(f"x{rng.randint(1, k)}" for _ in range(length))
        ops.append({"kind": "rep", "argv": ["rep", "--word", commutator(rng, k, 2),
                                            "--monomial", mono, "--ring", ring,
                                            "--alphabet", str(k)]})
    for scheme in ("afilt:2,3,4", "zass:3,1", "product:zass:2,1"):
        ops.append({"kind": "sample", "argv": ["sample", "--scheme", scheme, "--level", "3",
                                               "--alphabet", "2", "--seed",
                                               str(rng.randint(0, 10 ** 6)), "--count", "5"]})
    for table, nmax in (("zass:2,1", 10), ("gcdseq:2,3,4,6,8,9,10,12,15", 9), ("const:6", 8)):
        ops.append({"kind": "emap-check", "argv": ["emap-check", "--emap", table, "--nmax", str(nmax)]})
    # explicit tables: one not descending, one descending that fails the
    # binomial and valuation audits at level 3
    bad_table = os.path.join(tmp, "not_descending.json")
    ops.append({"kind": "emap-check", "argv": ["emap-check", "--emap", f"file:{bad_table}", "--nmax", "3"],
                "table_file": (bad_table, [{"n": 1, "values": [1]}, {"n": 2, "values": [2, 1]},
                                           {"n": 3, "values": [2, 4, 1]}])})
    audit_table = os.path.join(tmp, "fails_audits.json")
    ops.append({"kind": "emap-check", "argv": ["emap-check", "--emap", f"file:{audit_table}", "--nmax", "3"],
                "table_file": (audit_table, [{"n": 1, "values": [1]}, {"n": 2, "values": [3, 1]},
                                             {"n": 3, "values": [2, 2, 1]}])})
    ops.append({"kind": "massey", "argv": ["massey", "--alphabet", "3", "--level", "4"]})
    for b in range(2):
        jobs = [
            member_op("zass:2,1", 4, 2, "both", b == 0)["argv"],
            ["magnus", "--word", random_word(rng, 2, 5, 5), "--ring", "Z", "--cap", "3", "--alphabet", "2"],
            ["emap-check", "--emap", "zass:3,1", "--nmax", "8"],
            ["sample", "--scheme", "zass:2,1", "--level", "3", "--alphabet", "2",
             "--seed", str(rng.randint(0, 10 ** 6)), "--count", "3"],
        ]
        spec = []
        for j, argv in enumerate(jobs):
            params = {argv[i][2:]: argv[i + 1] for i in range(1, len(argv), 2)}
            job = {"command": argv[0], "parameters": params}
            if j == 1:
                job["output"] = os.path.join(tmp, f"batch{b}_job{j}.json")
            spec.append(job)
        ops.append({"kind": "batch", "argv": ["batch", "--jobs", os.path.join(tmp, f"batch{b}.json")],
                    "jobs": spec})
    # documented error reports: one JSON object and exit 2 or 3
    ops.append({"kind": "error", "code": 2, "argv": ["member", "--word", "x1**x2", "--emap", "trivial",
                                                     "--level", "3", "--alphabet", "2"]})
    ops.append({"kind": "error", "code": 3, "argv": ["massey", "--alphabet", "2", "--level", "1"]})
    ops.append({"kind": "error", "code": 3, "argv": ["member", "--word", "x1", "--emap", f"file:{bad_table}",
                                                     "--level", "3", "--alphabet", "2"]})
    return ops + hostile_ops(tmp)


def write_files(ops: list[dict]):
    """Write the jobs and table files the CLI ops read."""
    for op in ops:
        if "jobs" in op:
            with open(op["argv"][2], "w", encoding="utf-8") as fh:
                json.dump(op["jobs"], fh)
        if "table_file" in op:
            path, rows = op["table_file"]
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(rows, fh)
