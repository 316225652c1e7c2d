"""Permutations of {1..n} with fast byte-table composition.

Internally a permutation on n points is an images table over 0-based points.
Degrees up to 256 use a byte table; larger degrees fall back to tuples of
ints. One rule holds for byte tables: a table held as a value (Perm.t, set
and dict keys, transversal elements, enumerated elements, witnesses) is
exactly n bytes, and only a table passed as the second argument of
bytes.translate, which takes 256 entries, is padded with the fixed points
n..255 (wide). Composition is one translate call, and the loops of group.py
keep padded copies of the tables they compose by again and again. A missed
pad raises ValueError in translate rather than giving a wrong answer; a
padded table kept as a value would compare unequal to its n-byte self, so
none is ever handed out. External notation (cycle strings, group files,
reports, the point-application API) is 1-based throughout.

Composition is left to right: (a * b) applies a first, then b.
"""

from __future__ import annotations

import math
import re
from .errors import CycleParseError, DegreeMismatchError

BYTE_DEGREE_LIMIT = 256
IDENT256 = bytes(range(256))


def ident_table(n: int):
    """Identity table for degree n: n bytes, or a tuple above degree 256."""
    if n <= BYTE_DEGREE_LIMIT:
        return IDENT256[:n]
    return tuple(range(n))


def is_ident(t) -> bool:
    """True for the identity table of t's own degree, len(t)."""
    if type(t) is bytes:
        return t == IDENT256[:len(t)]
    return all(i == x for i, x in enumerate(t))


def wide(t):
    """t as a bytes.translate table: a byte table padded with its fixed
    points to 256 entries. A tuple table is returned as it is."""
    if type(t) is bytes:
        return t + IDENT256[len(t):]
    return t


def mul(a, b):
    """Table of 'a then b': result[i] = b[a[i]], of a's length; b may be
    padded already."""
    if type(a) is bytes:
        return a.translate(b + IDENT256[len(b):])  # wide(b)
    return tuple(b[x] for x in a)


def inv_wide(t, n: int):
    """Inverse of t as a translate table (see wide)."""
    if type(t) is bytes:
        # maps each image back to its position and fixes n..255
        return bytes.maketrans(t, IDENT256[:n])
    return inv(t, n)


def inv(t, n: int):
    """Inverse table, n entries like t."""
    if type(t) is bytes:
        return bytes.maketrans(t, IDENT256[:n])[:n]
    r = [0] * n
    for i in range(n):
        r[t[i]] = i
    return tuple(r)


def pow_table(t, e: int, n: int):
    """Table of t**e for e >= 0, by binary powering; a table of t's kind."""
    acc = IDENT256[:n] if type(t) is bytes else tuple(range(n))
    while e:
        if e & 1:
            acc = mul(acc, t)
        t = mul(t, t)
        e >>= 1
    return acc


def table_order(t, n: int) -> int:
    """Element order: lcm of cycle lengths."""
    seen = bytearray(n)
    order = 1
    for i in range(n):
        if not seen[i] and t[i] != i:
            length = 0
            j = i
            while not seen[j]:
                seen[j] = 1
                j = t[j]
                length += 1
            order = order * length // math.gcd(order, length)
    return order


def min_moved(t, n: int) -> int | None:
    for i in range(n):
        if t[i] != i:
            return i
    return None


def _cycles_of(t, n: int) -> list[list[int]]:
    """Nontrivial cycles, 0-based, each starting at its least point, sorted."""
    seen = bytearray(n)
    out = []
    for i in range(n):
        if not seen[i] and t[i] != i:
            cyc = []
            j = i
            while not seen[j]:
                seen[j] = 1
                cyc.append(j)
                j = t[j]
            out.append(cyc)
    return out


def format_cycles(t, n: int) -> str:
    """Canonical 1-based cycle string; identity prints as '()'."""
    cycles = _cycles_of(t, n)
    if not cycles:
        return "()"
    return "".join("(" + " ".join(str(p + 1) for p in cyc) + ")" for cyc in cycles)


_TOKEN = re.compile(r"\(|\)|\d+|\s+|,")


def parse_cycles(text: str, degree: int):
    """Parse 1-based cycle notation into a raw table for the given degree.

    Accepts '()' for the identity and whitespace- or comma-separated points.
    Rejects malformed text, points outside 1..degree, and repeated points.
    """
    if degree < 1:
        raise CycleParseError(f"degree must be >= 1, got {degree}")
    pos = 0
    images = list(range(degree)) if degree > BYTE_DEGREE_LIMIT else bytearray(IDENT256[:degree])
    used: set[int] = set()
    depth = 0
    current: list[int] = []
    any_cycle = False
    for m in _TOKEN.finditer(text):
        if m.start() != pos:
            raise CycleParseError(f"unexpected character at position {pos}: {text[pos:pos+10]!r}")
        pos = m.end()
        tok = m.group()
        if tok.isspace() or tok == ",":
            continue
        if tok == "(":
            if depth:
                raise CycleParseError("nested '(' in cycle notation")
            depth = 1
            current = []
            any_cycle = True
        elif tok == ")":
            if not depth:
                raise CycleParseError("unmatched ')' in cycle notation")
            depth = 0
            for a, b in zip(current, current[1:] + current[:1]):
                images[a] = b
        else:
            if not depth:
                raise CycleParseError(f"point {tok} outside any cycle")
            p = int(tok)
            if not 1 <= p <= degree:
                raise CycleParseError(f"point {p} outside 1..{degree}")
            if p - 1 in used:
                raise CycleParseError(f"point {p} appears twice")
            used.add(p - 1)
            current.append(p - 1)
    if pos != len(text):
        raise CycleParseError(f"unexpected character at position {pos}: {text[pos:pos+10]!r}")
    if depth:
        raise CycleParseError("unclosed '(' in cycle notation")
    if not any_cycle:
        raise CycleParseError("empty cycle text; the identity is written '()'")
    return bytes(images) if degree <= BYTE_DEGREE_LIMIT else tuple(images)


class Perm:
    """Immutable permutation of {1..degree}."""

    __slots__ = ("n", "t")

    def __init__(self, degree: int, table):
        self.n = degree
        self.t = table

    # -- constructors ------------------------------------------------------

    @classmethod
    def identity(cls, degree: int) -> "Perm":
        return cls(degree, ident_table(degree))

    @classmethod
    def from_cycles(cls, text: str, degree: int) -> "Perm":
        return cls(degree, parse_cycles(text, degree))

    @classmethod
    def from_images(cls, images: list[int], degree: int | None = None) -> "Perm":
        """Build from a 0-based images list."""
        n = degree if degree is not None else len(images)
        if sorted(images) != list(range(len(images))) or len(images) > n:
            raise CycleParseError(f"not a permutation of 0..{n - 1}: {images}")
        images = list(images) + list(range(len(images), n))
        if n <= BYTE_DEGREE_LIMIT:
            return cls(n, bytes(images))
        return cls(n, tuple(images))

    # -- core operations ---------------------------------------------------

    def __mul__(self, other: "Perm") -> "Perm":
        """self then other."""
        if self.n != other.n:
            raise DegreeMismatchError(f"degrees {self.n} and {other.n} differ")
        return Perm(self.n, mul(self.t, other.t))

    def inverse(self) -> "Perm":
        return Perm(self.n, inv(self.t, self.n))

    __invert__ = inverse

    def __pow__(self, e: int) -> "Perm":
        if e < 0:
            return Perm(self.n, pow_table(inv(self.t, self.n), -e, self.n))
        return Perm(self.n, pow_table(self.t, e, self.n))

    def __call__(self, point: int) -> int:
        """Image of a 1-based point."""
        if not 1 <= point <= self.n:
            raise DegreeMismatchError(f"point {point} outside 1..{self.n}")
        return self.t[point - 1] + 1

    def order(self) -> int:
        return table_order(self.t, self.n)

    def cycle_type(self) -> tuple[int, ...]:
        """All cycle lengths including fixed points, descending."""
        lengths = [len(c) for c in _cycles_of(self.t, self.n)]
        lengths += [1] * (self.n - sum(lengths))
        return tuple(sorted(lengths, reverse=True))

    def cycles(self) -> str:
        return format_cycles(self.t, self.n)

    def is_identity(self) -> bool:
        return is_ident(self.t)

    def moved_points(self) -> tuple[int, ...]:
        """1-based points not fixed."""
        return tuple(i + 1 for i in range(self.n) if self.t[i] != i)

    @property
    def degree(self) -> int:
        return self.n

    # -- value semantics -----------------------------------------------------

    def __eq__(self, other) -> bool:
        return isinstance(other, Perm) and self.n == other.n and self.t == other.t

    def __hash__(self) -> int:
        return hash((self.n, self.t))

    def __repr__(self) -> str:
        return f"Perm({self.n}, {self.cycles()!r})"
