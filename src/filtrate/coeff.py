"""Coefficient rings: the integers and the integers modulo m.

A ring is described by a single non-negative modulus; modulus 0 means Z
itself.  All arithmetic is exact arbitrary-precision integer arithmetic,
with residues kept in canonical form 0 <= r < m.
"""

from __future__ import annotations


class Record:
    """An immutable value with named fields, as a frozen dataclass is, without
    importing dataclasses: a record equals another of its own class with
    equal fields, hashes and prints by them, and copies and pickles every
    slot as it is.

    A subclass declares its own `__slots__`, its fields first (named again in
    `_fields`, in constructor order), then any slot outside equality; its
    `__init__` checks its input and passes one value per slot, in that order,
    to `Record.__init__`, the only code that stores a slot.  `_make` stores
    slot values known to be valid without those checks; copies and pickles
    are rebuilt with it.
    """

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        if "__slots__" not in cls.__dict__:
            raise TypeError(f"{cls.__name__} must declare its own __slots__")
        # the slot descriptors' own setters, past the raising __setattr__
        cls._setters = tuple(cls.__dict__[name].__set__ for name in cls.__slots__)

    def __init__(self, *values):
        setters = self._setters
        if len(values) != len(setters):
            raise TypeError(f"{type(self).__name__}() takes {len(setters)} arguments, got {len(values)}")
        for store, value in zip(setters, values):
            store(self, value)

    @classmethod
    def _make(cls, *values):
        """A record of these slot values, without the checks of cls.__init__."""
        record = object.__new__(cls)
        Record.__init__(record, *values)
        return record

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __delattr__(self, name):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__name__}({fields})"

    def __reduce__(self):
        # rebuilt slot by slot, so a copy is neither checked nor computed again
        return type(self)._make, tuple(getattr(self, name) for name in self.__slots__)


class RingSpec(Record):
    """Z when modulus == 0, otherwise Z/<modulus>."""

    __slots__ = _fields = ("modulus",)

    def __init__(self, modulus: int = 0):
        if modulus < 0:
            raise ValueError(f"modulus must be non-negative, got {modulus}")
        super().__init__(modulus)

    def __str__(self) -> str:
        return "Z" if self.modulus == 0 else f"Z/{self.modulus}"


ZZ = RingSpec(0)

# Largest build made: pairing-matrix cells, kernel-route row entries,
# product-sampler letters, the degrees of a Magnus expansion, the cells of
# a `rep` matrix (filt.phi), the entries of a table row (EMap.row), or the
# words of a sample (filt._check_request).  Each is counted and checked
# before any of it is made; the first three grow as alphabet^length, and
# are refused uncounted when `surely_over` says so.  Both functions read the
# limit when called, so lowering coeff.MAX_CELLS moves every check.
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


def surely_over(k: int, n: int) -> bool:
    """Whether n, or k^n for k >= 2, is over MAX_CELLS as n, k or 2^n is: no need to count."""
    return n > MAX_CELLS or k > 1 and (k > MAX_CELLS or n > MAX_CELLS.bit_length())


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
