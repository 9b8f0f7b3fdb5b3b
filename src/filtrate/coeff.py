"""Coefficient rings: the integers and the integers modulo m.

A ring is described by a single non-negative modulus; modulus 0 means Z
itself.  All arithmetic is exact arbitrary-precision integer arithmetic,
with residues kept in canonical form 0 <= r < m.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class RingSpec:
    """Z when modulus == 0, otherwise Z/<modulus>."""

    modulus: int = 0

    def __post_init__(self):
        if self.modulus < 0:
            raise ValueError(f"modulus must be non-negative, got {self.modulus}")

    def __str__(self) -> str:
        return "Z" if self.modulus == 0 else f"Z/{self.modulus}"


ZZ = RingSpec(0)

# Largest build made: pairing-matrix cells, kernel-route row entries,
# product-sampler letters, or the degrees of a Magnus expansion.  Each is
# counted and checked before any of it is made.
MAX_CELLS = 10**7


def check_cells(what: str, formula: str, cells: int | None) -> None:
    """Refuse a build of more than MAX_CELLS cells before any of it is made.

    `cells` is the count, given by `formula`, or None when the caller knows
    it is over the limit without computing it.
    """
    if cells is not None and cells <= MAX_CELLS:
        return
    count = f"more than {MAX_CELLS}" if cells is None else cells
    raise ValueError(f"{what} needs {count} cells ({formula}), over the limit of {MAX_CELLS}")


def spec_int(text: str) -> int:
    """An integer of a spec: an optional '-' and the ASCII digits 0-9, with
    whitespace around them.  int() alone would also take '+', '_' and the
    digits of other scripts; those raise ValueError in int()'s words."""
    digits = text.strip().removeprefix("-")
    if not (digits.isascii() and digits.isdigit()):
        raise ValueError(f"invalid literal for int() with base 10: {text!r}")
    return int(text)


def parse_ring(text: str) -> RingSpec:
    """Parse a ring spec string: "Z" or "Z/<m>" with m >= 1."""
    text = text.strip()
    if text == "Z":
        return ZZ
    if text.startswith("Z/"):
        try:
            m = spec_int(text[2:])
        except ValueError as exc:
            raise ValueError(f"bad ring spec {text!r}: modulus must be a decimal integer") from exc
        if m < 1:
            raise ValueError(f"bad ring spec {text!r}: modulus must be >= 1")
        return RingSpec(m)
    raise ValueError(f"bad ring spec {text!r}: expected \"Z\" or \"Z/<m>\"")


def divisible(value: int, d: int) -> bool:
    """Whether value lies in d*Z.  0*Z = {0}, so d == 0 demands value == 0."""
    if d == 0:
        return value == 0
    return value % d == 0


def integer_rank(matrix) -> int:
    """Rank over the rationals of an integer matrix, by fraction-free elimination.

    Bareiss one-step elimination: every intermediate entry is an integer
    (a minor of the input), and the division by the previous pivot is exact.
    """
    rows = [list(row) for row in matrix]
    if not rows:
        return 0
    ncols = len(rows[0])
    if any(len(row) != ncols for row in rows):
        raise ValueError("ragged matrix")
    nrows = len(rows)
    rank = 0
    prev = 1
    for c in range(ncols):
        if rank == nrows:
            break
        pivot = next((i for i in range(rank, nrows) if rows[i][c] != 0), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        p = rows[rank][c]
        for i in range(rank + 1, nrows):
            head = rows[i][c]
            row_i, row_r = rows[i], rows[rank]
            # the update must touch every row below the pivot, zero head included,
            # or the exactness of the // prev division breaks on later steps
            for j in range(c + 1, ncols):
                row_i[j] = (p * row_i[j] - head * row_r[j]) // prev
            row_i[c] = 0
        prev = p
        rank += 1
    return rank
