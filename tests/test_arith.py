"""Integer arithmetic: factorization, p-parts, primitive prime divisors."""

import math
import random

import pytest

from radlab.arith import (
    Factorization,
    factorize,
    is_prime,
    p_part,
    primitive_prime_divisor,
)
from radlab.errors import PreconditionError, UnfactorableError


def naive_factor(n):
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            a = 0
            while n % d == 0:
                n //= d
                a += 1
            out.append((d, a))
        d += 1
    if n > 1:
        out.append((n, 1))
    return tuple(out)


def test_factorize_known_values():
    assert factorize(1).pairs == ()
    assert factorize(12).pairs == ((2, 2), (3, 1))
    assert factorize(25920).pairs == naive_factor(25920) == ((2, 6), (3, 4), (5, 1))
    assert factorize(2**10).pairs == ((2, 10),)
    assert factorize(97).pairs == ((97, 1),)


def test_factorize_matches_naive_oracle():
    for n in list(range(1, 2000)) + [60480, 25920, 9999991, 2**20, 3**12]:
        assert factorize(n).pairs == naive_factor(n), n


def test_factorize_recomposes():
    rng = random.Random(7)
    samples = list(range(1, 512)) + [rng.randrange(1, 10**6) for _ in range(2000)]
    for n in samples:
        f = factorize(n)
        assert math.prod(p**a for p, a in f) == n
        assert f.n == n
        assert list(f.primes) == sorted(f.primes)
        assert all(is_prime(p) for p in f.primes)


def test_factorize_rejects_nonpositive():
    with pytest.raises(PreconditionError):
        factorize(0)
    with pytest.raises(PreconditionError):
        factorize(-12)


def test_factorize_rejects_huge_composite_cofactor():
    # product of two primes above the trial-division bound
    p, q = 65537, 65539
    with pytest.raises(UnfactorableError):
        factorize(p * q * 4)
    # a single large prime cofactor is fine
    assert factorize(4 * p).pairs == ((2, 2), (p, 1))


def test_factorize_rejects_non_integers():
    # factorize is memoized, so an int-equal key must not let a refused
    # argument through on a later call, or hand float primes to int callers
    for bad in (2.5, 24.0, 1.0, True, False, "24", None):
        for _ in range(2):
            with pytest.raises(PreconditionError):
                factorize(bad)
    assert factorize(24).pairs == ((2, 3), (3, 1))
    assert factorize(1).pairs == ()
    for bad in (24.0, True, 1.0):
        with pytest.raises(PreconditionError):
            factorize(bad)
    assert all(type(p) is int and type(a) is int for p, a in factorize(24))


def test_factorize_errors_are_not_memoized():
    p, q = 65537, 65539
    for _ in range(2):
        with pytest.raises(PreconditionError):
            factorize(0)
        with pytest.raises(UnfactorableError):
            factorize(p * q * 4)


def test_factorize_shares_one_result_per_value():
    assert factorize(25920) is factorize(25920)


def test_factorization_accessors():
    f = factorize(360)
    assert f.exponent(2) == 3 and f.exponent(3) == 2 and f.exponent(5) == 1
    assert f.exponent(7) == 0
    assert f.p_part(2) == 8 and f.p_part(7) == 1
    assert len(f) == 3
    assert list(f) == [(2, 3), (3, 2), (5, 1)]
    assert str(f) == "2^3 * 3^2 * 5"
    assert str(factorize(1)) == "1"


def test_factorization_ordering():
    assert factorize(6) < factorize(10)
    assert factorize(12) <= factorize(12)
    # by value in all four comparisons, where a tuple's own order would put
    # 2^2 after 2 * 3
    assert factorize(4) < factorize(6) and factorize(4) <= factorize(6)
    assert not factorize(4) > factorize(6) and not factorize(4) >= factorize(6)
    assert factorize(6) > factorize(4) and factorize(6) >= factorize(6)
    ns = [12, 7, 1, 30, 4, 6, 97, 64, 9, 10]
    assert [f.n for f in sorted(factorize(n) for n in ns)] == sorted(ns)


def test_factorization_is_a_tuple_of_pairs():
    f = factorize(12)
    assert isinstance(f, tuple) and f == ((2, 2), (3, 1)) and f[0] == (2, 2)
    assert f.pairs == tuple(f) and type(f.pairs) is tuple
    assert hash(f) == hash(Factorization([(2, 2), (3, 1)]))
    with pytest.raises(AttributeError):
        f.n = 5


def test_is_prime_matches_sieve():
    limit = 10_000
    sieve = bytearray([1]) * (limit + 1)
    sieve[0] = sieve[1] = 0
    for i in range(2, int(limit**0.5) + 1):
        if sieve[i]:
            sieve[i * i :: i] = bytearray(len(sieve[i * i :: i]))
    for n in range(limit + 1):
        assert is_prime(n) == bool(sieve[n]), n


def test_is_prime_large_deterministic():
    assert is_prime(2**61 - 1)
    assert not is_prime((2**31 - 1) * (2**31 + 11))
    assert is_prime(4585351703)  # verified by trial division
    assert not is_prime(4585351680 + 43)


def test_p_part():
    assert p_part(48, 2) == 16
    assert p_part(48, 3) == 3
    assert p_part(48, 5) == 1
    rng = random.Random(11)
    for _ in range(300):
        n = rng.randrange(1, 10**9)
        p = rng.choice([2, 3, 5, 7, 11, 13])
        part = p_part(n, p)
        assert n % part == 0 and (n // part) % p != 0


@pytest.mark.parametrize("n, p", [(0, 2), (12, 1), (12, -2), (-8, 2), (12, 0)])
def test_p_part_rejects_bad_input(n, p):
    # n = 0 or p = 1 would divide out p forever
    with pytest.raises(PreconditionError):
        p_part(n, p)


def test_primitive_prime_divisor_known_values():
    assert primitive_prime_divisor(2, 6) is None
    assert primitive_prime_divisor(2, 4) == 5
    assert primitive_prime_divisor(2, 3) == 7
    assert primitive_prime_divisor(2, 1) is None  # 2^1 - 1 = 1
    assert primitive_prime_divisor(3, 1) == 2


def test_primitive_prime_divisor_properties():
    # the only gaps in this range: q^1 - 1 = 1 for q = 2, the classical
    # (2, 6) exception, and e = 2 with q + 1 a power of two
    expected_none = {(2, 1), (2, 6), (3, 2), (7, 2)}
    for q in (2, 3, 4, 5, 7, 8, 9):
        for e in range(1, 13):
            u = primitive_prime_divisor(q, e)
            if u is None:
                assert (q, e) in expected_none
                continue
            assert (q, e) not in expected_none
            assert (q**e - 1) % u == 0
            assert all((q**i - 1) % u != 0 for i in range(1, e))
            assert u >= e + 1
            assert (u - 1) % e == 0


def test_primitive_prime_divisor_rejects_bad_domain():
    with pytest.raises(PreconditionError):
        primitive_prime_divisor(1, 3)
    with pytest.raises(PreconditionError):
        primitive_prime_divisor(2, 0)
