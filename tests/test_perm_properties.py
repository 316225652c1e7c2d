"""Property tests for the permutation layer on byte and tuple tables.

Degrees up to 256 use tables of exactly n bytes, padded to 256 entries only
where bytes.translate takes one as its table; larger degrees use tuples.
Both are checked against the group axioms and the cycle-notation round trip,
every table a Perm holds must have the degree's length, and on degrees up to
256 the byte path must agree with the tuple path on the same images.
"""

import pytest

from radlab.perm import (
    BYTE_DEGREE_LIMIT,
    Perm,
    format_cycles,
    ident_table,
    inv,
    mul,
    parse_cycles,
    pow_table,
)

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

SETTINGS = hypothesis.settings(max_examples=60, deadline=None)

# byte tables (small and full width) and tuple tables
degrees = st.one_of(
    st.integers(1, 12),
    st.integers(BYTE_DEGREE_LIMIT - 4, BYTE_DEGREE_LIMIT),
    st.integers(BYTE_DEGREE_LIMIT + 1, BYTE_DEGREE_LIMIT + 40),
)


@st.composite
def perms(draw, count):
    """A degree and `count` raw tables of that degree."""
    n = draw(degrees)
    tables = [
        Perm.from_images(draw(st.permutations(range(n))), n).t for _ in range(count)
    ]
    return n, tables


@SETTINGS
@hypothesis.given(perms(1))
def test_format_parse_round_trip(case):
    n, (t,) = case
    text = format_cycles(t, n)
    assert parse_cycles(text, n) == t
    assert format_cycles(parse_cycles(text, n), n) == text


@SETTINGS
@hypothesis.given(perms(3))
def test_mul_is_associative(case):
    n, (a, b, c) = case
    assert mul(mul(a, b), c) == mul(a, mul(b, c))


@SETTINGS
@hypothesis.given(perms(1))
def test_inverse(case):
    n, (t,) = case
    ident = ident_table(n)
    s = inv(t, n)
    assert type(s) is type(t)
    assert mul(t, s) == ident and mul(s, t) == ident
    assert inv(s, n) == t
    assert all(s[t[i]] == i for i in range(n))


@SETTINGS
@hypothesis.given(perms(2), st.integers(-7, 7))
def test_every_table_has_the_degree_length(case, e):
    n, (a, b) = case
    x, y = Perm(n, a), Perm(n, b)
    made = [
        Perm.from_cycles(x.cycles(), n),
        Perm.from_images(list(a), n),
        # images of the first points only; the rest are fixed
        Perm.from_images(list(range(n // 2, -1, -1)), n),
        Perm.identity(n),
        x * y,
        x.inverse(),
        x**e,
    ]
    for p in made:
        assert type(p.t) is (bytes if n <= BYTE_DEGREE_LIMIT else tuple)
        assert len(p.t) == n
    assert x * x.inverse() == Perm.identity(n) and (x**e) * (x**-e) == Perm.identity(n)


# every byte degree, 256 (where no fixed point is padded) drawn often
byte_degrees = st.one_of(st.integers(1, BYTE_DEGREE_LIMIT), st.just(BYTE_DEGREE_LIMIT))


@SETTINGS
@hypothesis.given(st.data(), byte_degrees, st.integers(0, 12))
def test_narrow_tables_agree_with_the_tuple_path(data, n, e):
    a, b = (data.draw(st.permutations(range(n))) for _ in range(2))
    na, nb = bytes(a), bytes(b)
    ta, tb = tuple(a), tuple(b)
    results = [
        (mul(na, nb), mul(ta, tb)),
        (inv(na, n), inv(ta, n)),
        (pow_table(na, e, n), pow_table(ta, e, n)),
    ]
    for narrow, tup in results:
        assert type(narrow) is bytes and type(tup) is tuple
        assert tuple(narrow) == tup
