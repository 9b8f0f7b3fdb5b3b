"""Words in a free group, monomials in a free monoid, Lyndon words, commutators.

Generators are written x1, x2, ... and indexed from 1.  A group word is a
freely reduced sequence of signed indices (+i for xi, -i for its inverse).
Group words are stored as (letter, exponent) runs, so x1^10000000 is one
run.  The commutator convention throughout is

    [a, b] = a^-1 b^-1 a b.
"""

from __future__ import annotations

from itertools import chain, product, repeat

from .coeff import Record

Monomial = tuple[int, ...]

# The most runs a power, product or commutator may have.  Larger results are
# refused: the parser would otherwise allocate them from a few characters.
MAX_RUNS = 10**6

# The deepest that brackets and parentheses may nest in a parsed word.
MAX_NESTING = 1000


class WordSyntaxError(ValueError):
    """Malformed word expression; position is a 0-based offset into the text."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class GroupWord:
    """A freely reduced word over x1..xk, stored as (letter, exponent) runs.

    The run (i, k) stands for xi^k with k != 0, and neighbouring runs have
    different letters.  Construction from signed letters (+i for xi, -i for
    its inverse) reduces eagerly, so equal group elements compare equal as
    objects.  Instances are immutable and hashable.

    A word built with powers may also keep a program for `magnus`: a tuple
    of runs (i, k) and power nodes (body, q), where body is a program and
    |q| >= 2, whose product is the word without flattening its powers.  It
    is kept as (program, plain, products): plain counts the runs the
    program spells out, each body once per node, and products the series
    products its powers take by repeated squaring.  A word keeps it only
    while it may be cheaper to expand than the runs (see `program_at`).
    Equality, hashing and printing read the runs alone.
    """

    __slots__ = ("alphabet_size", "runs", "_program")

    def __init__(self, alphabet_size: int, letters=()):
        if alphabet_size < 1:
            raise ValueError(f"alphabet size must be >= 1, got {alphabet_size}")
        runs: list[tuple[int, int]] = []
        for s in letters:
            if s == 0 or abs(s) > alphabet_size:
                raise ValueError(f"letter {s} outside alphabet of size {alphabet_size}")
            _push(runs, ((s, 1) if s > 0 else (-s, -1),))
        object.__setattr__(self, "alphabet_size", alphabet_size)
        object.__setattr__(self, "runs", tuple(runs))
        object.__setattr__(self, "_program", None)

    @classmethod
    def _from_runs(cls, alphabet_size: int, runs: tuple, pieces=()) -> "GroupWord":
        """Wrap runs that are already valid and freely reduced.

        pieces are (program, plain, products, sign) whose product, a program
        inverted when its sign is negative, is the word.  Their programs, one
        after another, become the word's program when some piece has a power
        node and the program can be cheaper than the runs at some cap: the
        estimate in `program_at` is at least plain + 2 * products.  Callers
        pass pieces only when one of them has a power node.
        """
        w = object.__new__(cls)
        object.__setattr__(w, "alphabet_size", alphabet_size)
        object.__setattr__(w, "runs", runs)
        object.__setattr__(w, "_program", _program(runs, pieces) if pieces else None)
        return w

    @property
    def program(self) -> tuple:
        """The program `magnus` may walk; the runs when the word keeps none."""
        return self.runs if self._program is None else self._program[0]

    def _piece(self, sign: int = 1) -> tuple:
        if self._program is None:
            return self.runs, len(self.runs), 0, sign
        return (*self._program, sign)

    def program_at(self, cap: int) -> tuple:
        """What `magnus` walks at this cap: the program when its estimated
        cost, the runs it spells out plus (cap + 1) * alphabet_size for each
        series product, is below the run count; otherwise the runs."""
        if self._program is not None:
            program, plain, products = self._program
            if plain + products * (cap + 1) * self.alphabet_size < len(self.runs):
                return program
        return self.runs

    def __setattr__(self, name, value):
        raise AttributeError("GroupWord is immutable")

    def __len__(self) -> int:
        """The number of letters, counted without flattening the runs."""
        return sum(abs(k) for _, k in self.runs)

    @property
    def letters(self) -> tuple[int, ...]:
        """The flat signed-index tuple: +i for xi, -i for its inverse."""
        return tuple(chain.from_iterable(
            repeat(i if k > 0 else -i, abs(k)) for i, k in self.runs
        ))

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, GroupWord)
            and self.alphabet_size == other.alphabet_size
            and self.runs == other.runs
        )

    def __hash__(self) -> int:
        return hash((self.alphabet_size, self.runs))

    def __repr__(self) -> str:
        return f"<GroupWord {format_word(self)} over x1..x{self.alphabet_size}>"

    def _require_same_alphabet(self, other: "GroupWord"):
        if self.alphabet_size != other.alphabet_size:
            raise ValueError(
                f"alphabet mismatch: {self.alphabet_size} vs {other.alphabet_size}"
            )

    def __mul__(self, other: "GroupWord") -> "GroupWord":
        self._require_same_alphabet(other)
        product = [self], []
        _times(product, other)
        return _product(product)

    def inverse(self) -> "GroupWord":
        pieces = (self._piece(-1),) if self._program else ()
        return GroupWord._from_runs(self.alphabet_size, _inverse(self.runs), pieces)

    def __pow__(self, k: int) -> "GroupWord":
        if len(self.runs) == 1:
            # (x^e)^k is the one run x^(ek), which no program undercuts
            (i, e), = self.runs
            return GroupWord._from_runs(self.alphabet_size, ((i, e * k),) if k else ())
        n = abs(k)
        runs = _power(self.runs if k >= 0 else _inverse(self.runs), n)
        if n < 2:
            pieces = (self._piece(k),) if k and self._program else ()
        else:
            # repeated squaring: bit_length - 1 squares of the body's
            # expansion and bit_count products into the expansion so far
            body, plain, products, _ = self._piece()
            pieces = ((((body, k),), plain, products + n.bit_length() - 1 + n.bit_count(), 1),)
        return GroupWord._from_runs(self.alphabet_size, runs, pieces)


def _program(runs: tuple, pieces) -> tuple | None:
    """(program, plain, products) of the pieces joined, or None when no piece
    has a power node or the program is never cheaper than the runs."""
    plain = products = 0
    for _, p, q, _ in pieces:
        plain += p
        products += q
    if products and plain + 2 * products < len(runs):
        program = tuple(chain.from_iterable(
            p if sign > 0 else _inverse(p) for p, _, _, sign in pieces))
        return program, plain, products
    return None


def _check_runs(what: str, count: int):
    if count > MAX_RUNS:
        raise ValueError(f"the {what} has {count} runs, over the limit of {MAX_RUNS}")


def _inverse(runs: tuple) -> tuple:
    return tuple((i, -k) for i, k in reversed(runs))


def _push(out: list, runs) -> None:
    """Extend the reduced run list out by the reduced runs in place: only
    the junction can cancel or merge, and the rest is appended in one step."""
    b = 0
    while out and b < len(runs) and out[-1][0] == runs[b][0]:
        i, k = runs[b]
        k += out.pop()[1]
        b += 1
        if k:
            out.append((i, k))
            break
    out.extend(runs[b:])


def _join(left: tuple, right: tuple) -> tuple:
    """Free reduction of two reduced run tuples."""
    out = list(left)
    _push(out, right)
    return tuple(out)


def _times(product: tuple[list, list], w: GroupWord) -> None:
    """Multiply the open product (factors, runs) by w in place: factors are
    the words so far, over w's alphabet, and runs, from the second factor
    on, the runs of their product, checked against the limit."""
    factors, runs = product
    if factors:
        if len(factors) == 1:
            runs.extend(factors[0].runs)
        _push(runs, w.runs)
        _check_runs("product", len(runs))
    factors.append(w)


def _product(product: tuple[list, list]) -> GroupWord:
    """The word of an open product (see `_times`): a single factor as it is.
    The factors' pieces are kept only when some factor has a program."""
    factors, runs = product
    if len(factors) == 1:
        return factors[0]
    pieces = tuple(w._piece() for w in factors) if any(w._program for w in factors) else ()
    return GroupWord._from_runs(factors[0].alphabet_size, tuple(runs), pieces)


def _power_run_count(runs: tuple, k: int) -> int:
    """The exact run count of w^k for k >= 1, from the runs of w and of w^2.

    Write w = u c u^-1 with c cyclically reduced.  Then w^k = u c^k u^-1, and
    each factor of c after the first adds the same runs at the same junction,
    so the count grows by runs(w^2) - runs(w) with every further factor.
    """
    square = _join(runs, runs)
    return len(runs) + (k - 1) * (len(square) - len(runs))


def _power(runs: tuple, k: int) -> tuple:
    """A reduced run tuple raised to k >= 0 by repeated squaring.

    The tuples double in length, so the work is O(k * len(runs)) in all, and
    a single run x^e only ever has its exponent doubled.  A result of more
    than MAX_RUNS runs is refused before anything is built.
    """
    if k > 1:
        _check_runs("power", _power_run_count(runs, k))
    result = ()
    while k:
        if k & 1:
            result = _join(result, runs)
        k >>= 1
        if k:
            runs = _join(runs, runs)
    return result


def commutator(a: GroupWord, b: GroupWord) -> GroupWord:
    """[a, b] = a^-1 b^-1 a b, refused before it is built past MAX_RUNS.

    [a, b] = (ba)^-1 ab, and joining (ba)^-1 to ab cancels only the runs
    that ba and ab share at their heads, so the count needs no inverse.
    """
    a._require_same_alphabet(b)
    ab, ba = _join(a.runs, b.runs), _join(b.runs, a.runs)
    common = min(len(ab), len(ba))
    shared = 0
    while shared < common and ab[shared] == ba[shared]:
        shared += 1
    # the first runs that differ merge into one when their letters agree
    merged = shared < common and ab[shared][0] == ba[shared][0]
    _check_runs("commutator", len(ab) + len(ba) - 2 * shared - merged)
    pieces = ((a._piece(-1), b._piece(-1), a._piece(), b._piece())
              if a._program or b._program else ())
    return GroupWord._from_runs(a.alphabet_size, _join(_inverse(ba[shared:]), ab[shared:]), pieces)


def format_word(w: GroupWord) -> str:
    """Render a word in the expression grammar; inverse of parse_word."""
    if not w.runs:
        return "e"
    return "*".join(f"x{i}" if k == 1 else f"x{i}^{k}" for i, k in w.runs)


def _read_int(text: str, start: int, missing: str, signed: bool = False) -> tuple[int, int]:
    """The decimal integer written at text[start:] and the position after it.

    Only the ASCII digits 0-9 count, after one optional '-' when signed.
    Raises WordSyntaxError with the message `missing` at start when there
    is no digit, and at the first digit when int() refuses the digits
    (Python converts at most 4300 by default).
    """
    first = start + (signed and text.startswith("-", start))
    pos = first
    while pos < len(text) and text[pos] in "0123456789":
        pos += 1
    if pos == first:
        raise WordSyntaxError(missing, start)
    try:
        return int(text[start:pos]), pos
    except ValueError:
        raise WordSyntaxError(f"integer of {pos - first} digits too long to read", first) from None


def _read_generator(text: str, pos: int, alphabet_size: int) -> tuple[int, int]:
    """The index of the generator 'x<index>' at text[pos:] and the position
    after it; raises WordSyntaxError at the index when it is missing or
    outside x1..x<alphabet_size>."""
    start = pos + 1
    index, pos = _read_int(text, start, "expected a generator index after 'x'")
    if not 1 <= index <= alphabet_size:
        raise WordSyntaxError(
            f"generator x{index} outside alphabet of size {alphabet_size}", start
        )
    return index, pos


def parse_word(text: str, alphabet_size: int) -> GroupWord:
    """Parse a word expression over x1..x<alphabet_size>.

    Grammar:
        word      := term ("*" term)*
        term      := atom ("^" signed-int)?
        atom      := generator | "e" | "[" word "," word "]" | "(" word ")"
        generator := "x" positive-int

    Whitespace is insignificant.  "e" is the empty word and "[a,b]" is the
    commutator a^-1 b^-1 a b.  One pass reads the text, keeping the open
    brackets on a list, so the depth it accepts does not depend on the
    caller's stack.  Each factor is reduced onto the product so far as it
    is read, so a product of n factors is built once.  Raises
    WordSyntaxError with the offending position on malformed input, on
    out-of-range generator indices, on a number in anything but ASCII
    digits or too long for int(), and at a bracket nested more than
    MAX_NESTING deep; a power, product or commutator of more than MAX_RUNS
    runs raises ValueError as soon as it is read.
    """
    end = len(text)

    def skip(pos: int, chars) -> int:
        while pos < end and chars(text[pos]):
            pos += 1
        return pos

    # open brackets, innermost last: [bracket, product read before it, left
    # word of a commutator once its ',' is read]
    stack = []
    product = [], []  # the open product read so far inside the innermost bracket
    pos = 0
    while True:
        pos = skip(pos, str.isspace)
        ch = text[pos:pos + 1]
        if ch in ("(", "["):
            if len(stack) == MAX_NESTING:
                raise WordSyntaxError("brackets nested too deeply", pos)
            stack.append([ch, product, None])
            product = [], []
            pos += 1
            continue
        if ch == "x":
            # _read_generator checked the index against the alphabet
            index, pos = _read_generator(text, pos, alphabet_size)
            atom = GroupWord._from_runs(alphabet_size, ((index, 1),))
        elif ch == "e":
            pos += 1
            atom = GroupWord(alphabet_size)
        else:
            raise WordSyntaxError("expected a generator, 'e', '[' or '('", pos)
        # each pass ends a term; a term that ends its word closes a bracket,
        # whose value is the next atom
        while True:
            pos = skip(pos, str.isspace)
            if text.startswith("^", pos):
                exponent, pos = _read_int(
                    text, skip(pos + 1, str.isspace), "expected an integer", signed=True
                )
                atom = atom ** exponent
                pos = skip(pos, str.isspace)
            _times(product, atom)
            if text.startswith("*", pos):
                pos += 1
                break
            if not stack:
                if pos != end:
                    raise WordSyntaxError("unexpected character", pos)
                return _product(product)
            bracket, outer, left = stack[-1]
            if bracket == "[" and left is None:
                if not text.startswith(",", pos):
                    raise WordSyntaxError("expected ',' in commutator", pos)
                stack[-1][2] = _product(product)
                product = [], []
                pos += 1
                break
            closer = ")" if bracket == "(" else "]"
            if not text.startswith(closer, pos):
                raise WordSyntaxError(f"expected '{closer}'", pos)
            pos += 1
            stack.pop()
            atom = _product(product) if bracket == "(" else commutator(left, _product(product))
            product = outer


def random_word(alphabet_size: int, max_length: int, rng) -> GroupWord:
    """A letter string of length <= max_length drawn uniformly with rng, a
    random.Random, then reduced."""
    length = rng.randint(0, max_length)
    letters = []
    for _ in range(length):
        idx = rng.randint(1, alphabet_size)
        letters.append(idx if rng.random() < 0.5 else -idx)
    return GroupWord(alphabet_size, letters)


def format_monomial(w: Monomial) -> str:
    """Render a monomial as concatenated generators, e.g. (1, 2) -> "x1x2"."""
    return "".join(f"x{i}" for i in w) if w else "e"


def parse_monomial(text: str, alphabet_size: int) -> Monomial:
    """Parse "x1x2..." (or "e") into a tuple of generator indices."""
    text = text.strip()
    if text == "e":
        return ()
    out = []
    pos = 0
    while pos < len(text):
        if text[pos] != "x":
            raise WordSyntaxError("expected 'x'", pos)
        index, pos = _read_generator(text, pos, alphabet_size)
        out.append(index)
    return tuple(out)


def enumerate_monomials(alphabet_size: int, length: int):
    """All monomials of the given length, in lexicographic order."""
    if alphabet_size < 1 or length < 0:
        raise ValueError("need alphabet_size >= 1 and length >= 0")
    if alphabet_size == 1:
        # product() would hold length-long pools and indices besides the word
        return iter([(1,) * length])
    return product(range(1, alphabet_size + 1), repeat=length)


def is_lyndon(w: Monomial) -> bool:
    """Whether w is strictly smaller than every proper rotation of itself."""
    if not w:
        return False
    return all(w < w[i:] + w[:i] for i in range(1, len(w)))


def lyndon_words(alphabet_size: int, weight: int):
    """Lyndon words of exactly the given weight, in lexicographic order.

    Duval's algorithm: extend periodically, bump the last letter, discard
    maximal letters from the tail.
    """
    if alphabet_size < 1 or weight < 1:
        raise ValueError("need alphabet_size >= 1 and weight >= 1")
    if alphabet_size == 1:
        # x1 is the only Lyndon word on one letter
        if weight == 1:
            yield (1,)
        return
    w = [0]
    while w:
        w[-1] += 1
        m = len(w)
        if m == weight:
            yield tuple(w)
        while len(w) < weight:
            w.append(w[-m])
        while w and w[-1] == alphabet_size:
            w.pop()


class BasicCommutator(Record):
    """A bracket tree whose leaves are generator indices.

    Either generator is set (leaf) or left and right are set (bracket node).
    """

    __slots__ = _fields = ("gen", "left", "right")

    def __init__(self, gen: int | None = None, left: BasicCommutator | None = None,
                 right: BasicCommutator | None = None):
        if (gen is not None) == (left is not None and right is not None):
            raise ValueError("need exactly one of: generator, (left, right)")
        object.__setattr__(self, "gen", gen)
        object.__setattr__(self, "left", left)
        object.__setattr__(self, "right", right)

    @property
    def is_leaf(self) -> bool:
        return self.gen is not None

    @property
    def weight(self) -> int:
        if self.is_leaf:
            return 1
        return self.left.weight + self.right.weight

    def __str__(self) -> str:
        if self.is_leaf:
            return f"x{self.gen}"
        return f"[{self.left},{self.right}]"


def basic_commutator(w: Monomial) -> BasicCommutator:
    """Bracket a Lyndon word by splitting at its longest proper Lyndon suffix."""
    if not is_lyndon(w):
        raise ValueError(f"{w!r} is not a Lyndon word")
    if len(w) == 1:
        return BasicCommutator(gen=w[0])
    # the earliest start giving a Lyndon suffix is the longest such suffix,
    # and the left factor of the standard factorization is Lyndon again
    split = next(i for i in range(1, len(w)) if is_lyndon(w[i:]))
    return BasicCommutator(left=basic_commutator(w[:split]), right=basic_commutator(w[split:]))


def realize(bc: BasicCommutator, alphabet_size: int) -> GroupWord:
    """Substitute group commutators for brackets, generators for leaves."""
    if bc.is_leaf:
        if bc.gen > alphabet_size:
            raise ValueError(f"leaf x{bc.gen} outside alphabet of size {alphabet_size}")
        return GroupWord(alphabet_size, (bc.gen,))
    return commutator(realize(bc.left, alphabet_size), realize(bc.right, alphabet_size))
