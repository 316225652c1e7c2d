"""Explicit small finite fields GF(r^a), r^a <= 2^16.

Elements are plain ints 0..q-1 encoding polynomial coefficient vectors over
GF(r) in little-endian base r: the int sum(c_i * r^i) stands for the residue
class sum(c_i * X^i) modulo a fixed monic irreducible polynomial of degree a.
With this encoding 0 and 1 are the field's zero and one for every q, and
addition in characteristic 2 is integer XOR.

The defining polynomial for each (r, a) is the lexicographically least monic
irreducible, where candidates X^a + sum(c_i X^i) are ordered by the integer
encoding of (c_0..c_{a-1}). It is found by trial division of each candidate
in that order, so encodings are reproducible across runs.
"""

from __future__ import annotations

from functools import lru_cache

from .arith import factorize
from .errors import PreconditionError


def _poly_trim(p: list[int]) -> list[int]:
    while p and p[-1] == 0:
        p.pop()
    return p


def _poly_mod(p: list[int], f: list[int], r: int) -> list[int]:
    """p reduced in place modulo monic f, coefficients mod r."""
    a = len(f) - 1
    for k in range(len(p) - 1, a - 1, -1):
        c = p[k]
        if c:
            p[k] = 0
            for i in range(a):
                p[k - a + i] = (p[k - a + i] - c * f[i]) % r
    return _poly_trim(p)


def _poly_mulmod(x: list[int], y: list[int], f: list[int], r: int) -> list[int]:
    """Product of coefficient lists modulo monic f, coefficients mod r."""
    prod = [0] * (len(x) + len(y) - 1) if x and y else []
    for i, xi in enumerate(x):
        if xi:
            for j, yj in enumerate(y):
                prod[i + j] = (prod[i + j] + xi * yj) % r
    return _poly_mod(prod, f, r)


def _is_irreducible(f: list[int], r: int) -> bool:
    """Trial division of monic f of degree a >= 1 over GF(r) by every monic
    polynomial of degree 1 to a/2."""
    a = len(f) - 1
    for d in range(1, a // 2 + 1):
        for m in range(r**d):
            if not _poly_mod(list(f), _digits(m, r, d) + [1], r):
                return False
    return True


def _lex_least_irreducible(r: int, a: int) -> int:
    """Integer encoding of the first irreducible X^a + sum(c_i X^i)."""
    for m in range(r**a):
        coeffs = _digits(m, r, a)
        f = coeffs + [1]
        if _is_irreducible(f, r):
            return m
    raise AssertionError("no irreducible polynomial found; unreachable")


def _digits(m: int, r: int, a: int) -> list[int]:
    out = []
    for _ in range(a):
        out.append(m % r)
        m //= r
    return out


@lru_cache(maxsize=None)
def GF(q: int) -> "FiniteField":
    """Shared FiniteField instance for the prime power q."""
    return FiniteField(q)


class FiniteField:
    """Arithmetic for GF(q), q = r^a <= 2^16, on int-encoded elements."""

    def __init__(self, q: int):
        if q < 2 or q > (1 << 16):
            raise PreconditionError(f"supported field sizes are 2..2^16, got {q}")
        fact = factorize(q)
        if len(fact) != 1:
            raise PreconditionError(f"{q} is not a prime power")
        (self.char, self.deg), = fact
        self.q = q
        r, a = self.char, self.deg
        if a == 1:
            self.irreducible = None
        else:
            self.irreducible = _digits(_lex_least_irreducible(r, a), r, a) + [1]
        self._exp: list[int] | None = None
        self._log: list[int] | None = None
        self._gen: int | None = None

    # -- element encoding ------------------------------------------------

    def _decode(self, x: int) -> list[int]:
        return _digits(x, self.char, self.deg)

    def _encode(self, coeffs: list[int]) -> int:
        v = 0
        for c in reversed(coeffs[: self.deg] + [0] * (self.deg - len(coeffs))):
            v = v * self.char + c
        return v

    def elements(self) -> range:
        return range(self.q)

    # -- ring operations -------------------------------------------------

    def add(self, x: int, y: int) -> int:
        if self.char == 2:
            return x ^ y
        if self.deg == 1:
            return (x + y) % self.char
        r = self.char
        v, mult, = 0, 1
        while x or y:
            v += ((x + y) % r) * mult
            x //= r
            y //= r
            mult *= r
        return v

    def neg(self, x: int) -> int:
        if self.char == 2:
            return x
        if self.deg == 1:
            return (-x) % self.char
        r = self.char
        v, mult = 0, 1
        while x:
            v += ((-x) % r) * mult
            x //= r
            mult *= r
        return v

    def sub(self, x: int, y: int) -> int:
        return self.add(x, self.neg(y))

    def _mul_raw(self, x: int, y: int) -> int:
        """Multiplication via polynomial arithmetic, no tables."""
        if self.deg == 1:
            return (x * y) % self.char
        prod = _poly_mulmod(self._decode(x), self._decode(y), self.irreducible, self.char)
        return self._encode(prod)

    def _build_tables(self) -> None:
        g = self.generator()
        exp = [1] * (self.q - 1)
        log = [0] * self.q
        acc = 1
        for i in range(self.q - 1):
            exp[i] = acc
            log[acc] = i
            acc = self._mul_raw(acc, g)
        self._exp, self._log = exp, log

    def mul(self, x: int, y: int) -> int:
        if x == 0 or y == 0:
            return 0
        if self._exp is None:
            self._build_tables()
        return self._exp[(self._log[x] + self._log[y]) % (self.q - 1)]

    def inv(self, x: int) -> int:
        if x == 0:
            raise ZeroDivisionError("finite field inverse of zero")
        if self._exp is None:
            self._build_tables()
        return self._exp[(-self._log[x]) % (self.q - 1)]

    def div(self, x: int, y: int) -> int:
        return self.mul(x, self.inv(y))

    def pow(self, x: int, k: int) -> int:
        if x == 0:
            if k < 0:
                raise ZeroDivisionError("finite field inverse of zero")
            return 0 if k else 1
        if self._exp is None:
            self._build_tables()
        return self._exp[(self._log[x] * k) % (self.q - 1)]

    def generator(self) -> int:
        """Least int encoding a multiplicative generator."""
        if self._gen is not None:
            return self._gen
        if self.q == 2:
            self._gen = 1
            return 1
        cofactors = [(self.q - 1) // p for p in factorize(self.q - 1).primes]
        for g in range(2, self.q):
            if all(self._pow_raw(g, c) != 1 for c in cofactors):
                self._gen = g
                return g
        raise AssertionError("no generator found; unreachable")

    def _pow_raw(self, x: int, k: int) -> int:
        acc, b = 1, x
        while k:
            if k & 1:
                acc = self._mul_raw(acc, b)
            b = self._mul_raw(b, b)
            k >>= 1
        return acc

    def frobenius(self, x: int, k: int = 1) -> int:
        """x ** (char ** k)."""
        return self.pow(x, self.char**k) if self.deg > 1 else x

    def element_order(self, x: int) -> int:
        if x == 0:
            raise PreconditionError("zero has no multiplicative order")
        n = self.q - 1
        for p, a in factorize(n):
            for _ in range(a):
                if self.pow(x, n // p) == 1:
                    n //= p
                else:
                    break
        return n

    def __repr__(self) -> str:
        return f"GF({self.q})"


__all__ = ["FiniteField", "GF"]
