"""Integer arithmetic: factorization, primality, primitive prime divisors."""

from __future__ import annotations

from functools import lru_cache

from .errors import PreconditionError, UnfactorableError

TRIAL_LIMIT = 1 << 16

# Witnesses sufficient for a correct Miller-Rabin verdict on every n < 3.3 * 10^24.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


@lru_cache(maxsize=1)
def _small_primes() -> tuple[int, ...]:
    """All primes below 2^16, by sieve of Eratosthenes."""
    limit = TRIAL_LIMIT
    sieve = bytearray([1]) * limit
    sieve[0] = sieve[1] = 0
    for i in range(2, int(limit**0.5) + 1):
        if sieve[i]:
            sieve[i * i :: i] = bytes(len(range(i * i, limit, i)))
    return tuple(i for i in range(limit) if sieve[i])


def is_prime(n: int) -> bool:
    """Deterministic primality test (trial division, then Miller-Rabin)."""
    if n < 2:
        return False
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if n % p == 0:
            return n == p
    d = n - 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


class Factorization(tuple):
    """Prime factorization as a tuple of (prime, exponent) pairs, primes ascending."""

    __slots__ = ()

    @property
    def pairs(self) -> tuple[tuple[int, int], ...]:
        return tuple(self)

    @property
    def n(self) -> int:
        value = 1
        for p, a in self:
            value *= p**a
        return value

    @property
    def primes(self) -> tuple[int, ...]:
        return tuple(p for p, _ in self)

    def exponent(self, p: int) -> int:
        for q, a in self:
            if q == p:
                return a
        return 0

    def p_part(self, p: int) -> int:
        return p ** self.exponent(p)

    # Ordered by the factored value: a tuple's own order is lexicographic,
    # under which 2^2 > 2 * 3.
    def __lt__(self, other: "Factorization") -> bool:
        return self.n < other.n

    def __le__(self, other: "Factorization") -> bool:
        return self.n <= other.n

    def __gt__(self, other: "Factorization") -> bool:
        return self.n > other.n

    def __ge__(self, other: "Factorization") -> bool:
        return self.n >= other.n

    def __str__(self) -> str:
        if not self:
            return "1"
        return " * ".join(f"{p}^{a}" if a > 1 else str(p) for p, a in self)


@lru_cache(maxsize=None, typed=True)
def factorize(n: int) -> Factorization:
    """Factor a positive integer.

    Trial division by all primes below 2^16; a remaining cofactor must itself be
    prime (checked deterministically) or the input is rejected as out of scope.
    Results are memoized (a Factorization is a tuple, so callers share one);
    typed, so that 24.0 or True never hits the entry of 24 or 1 and is
    refused as it is on a first call. An error is never memoized.
    """
    if type(n) is bool or not isinstance(n, int) or n <= 0:
        raise PreconditionError(f"factorize requires a positive integer, got {n!r}")
    pairs: list[tuple[int, int]] = []
    rest = n
    for p in _small_primes():
        if p * p > rest:
            break
        if rest % p == 0:
            a = 0
            while rest % p == 0:
                rest //= p
                a += 1
            pairs.append((p, a))
    if rest > 1:
        if rest < TRIAL_LIMIT * TRIAL_LIMIT or is_prime(rest):
            pairs.append((rest, 1))
        else:
            raise UnfactorableError(
                f"{n} has composite cofactor {rest} with no prime factor below 2^16"
            )
    pairs.sort()
    return Factorization(pairs)


def p_part(n: int, p: int) -> int:
    """Largest power of p dividing n, for n >= 1 and p >= 2."""
    if n < 1 or p < 2:
        raise PreconditionError(f"p_part requires n >= 1 and p >= 2, got n={n}, p={p}")
    part = 1
    while n % p == 0:
        n //= p
        part *= p
    return part


def primitive_prime_divisor(q: int, e: int) -> int | None:
    """Least prime dividing q^e - 1 but no q^i - 1 for 1 <= i < e, or None."""
    if q < 2 or e < 1:
        raise PreconditionError(f"need q >= 2 and e >= 1, got q={q}, e={e}")
    target = q**e - 1
    earlier = [q**i - 1 for i in range(1, e)]
    for u in factorize(target).primes:
        if all(m % u != 0 for m in earlier):
            return u
    return None
