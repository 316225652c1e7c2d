"""Property tests for the permutation layer on byte and tuple tables.

Degrees up to 256 use 256-byte tables whose inverse is one bytes.maketrans
call; larger degrees use tuples. Both are checked against the group axioms
and the cycle-notation round trip.
"""

import pytest

from radlab.perm import BYTE_DEGREE_LIMIT, Perm, format_cycles, ident_table, inv, mul, parse_cycles

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
