"""Permutations: cycle parsing, printing, composition, order, structure."""

import math
import random

import pytest

from radlab.errors import CycleParseError, DegreeMismatchError
from radlab.perm import (
    Perm,
    format_cycles,
    min_moved,
    parse_cycles,
    table_order,
)


def test_parse_identity():
    p = Perm.from_cycles("()", 5)
    assert p.is_identity()
    assert all(p(i) == i for i in range(1, 6))


def test_parse_known_cycles():
    p = Perm.from_cycles("(1 2 3)(4 5)", 5)
    # point application is 1-based, like the notation
    assert [p(i) for i in range(1, 6)] == [2, 3, 1, 5, 4]
    assert p.order() == 6


def test_parse_tolerates_commas_and_whitespace():
    a = Perm.from_cycles("(1,2,3)(4,5)", 5)
    b = Perm.from_cycles("( 1  2 3 ) ( 4 5 )", 5)
    assert a == b == Perm.from_cycles("(1 2 3)(4 5)", 5)


def test_parse_fixed_points_stay_fixed():
    p = Perm.from_cycles("(2 4)", 6)
    assert [p(i) for i in range(1, 7)] == [1, 4, 3, 2, 5, 6]


def test_parse_rejects_duplicate_point():
    with pytest.raises(CycleParseError):
        parse_cycles("(1 2)(2 3)", 5)


def test_parse_rejects_point_beyond_degree():
    with pytest.raises(CycleParseError):
        parse_cycles("(1 6)", 5)
    with pytest.raises(CycleParseError):
        parse_cycles("(0 1)", 5)


def test_parse_rejects_malformed_parentheses():
    for bad in ["(1 2", "1 2)", "((1 2))", "(1 (2 3))", "1 2 3", ""]:
        with pytest.raises(CycleParseError):
            parse_cycles(bad, 5)


def test_parse_rejects_garbage_characters():
    with pytest.raises(CycleParseError):
        parse_cycles("(1 a 2)", 5)


def test_format_round_trip_seeded():
    rng = random.Random(17)
    for degree in (1, 2, 5, 8, 26, 255, 256, 300):
        for _ in range(20):
            images = list(range(degree))
            rng.shuffle(images)
            p = Perm.from_images(images, degree)
            text = p.cycles()
            q = Perm.from_cycles(text, degree)
            assert p == q, (degree, text)
            assert format_cycles(q.t, degree) == text


def test_composition_convention_left_to_right():
    # (a * b) means apply a first, then b
    a = Perm.from_cycles("(1 2)", 3)
    b = Perm.from_cycles("(2 3)", 3)
    ab = a * b
    assert ab(1) == b(a(1)) == 3
    assert ab == Perm.from_cycles("(1 3 2)", 3)
    ba = b * a
    assert ba == Perm.from_cycles("(1 2 3)", 3)


def test_composition_matches_function_composition_seeded():
    rng = random.Random(23)
    for degree in (6, 30, 300):
        for _ in range(25):
            xs = list(range(degree)); rng.shuffle(xs)
            ys = list(range(degree)); rng.shuffle(ys)
            a, b = Perm.from_images(xs, degree), Perm.from_images(ys, degree)
            c = a * b
            for i in range(1, degree + 1):
                assert c(i) == b(a(i))


def test_mul_rejects_degree_mismatch():
    a = Perm.from_cycles("(1 2)", 3)
    b = Perm.from_cycles("(1 2)", 4)
    with pytest.raises(DegreeMismatchError):
        a * b


def test_inverse_and_powers():
    p = Perm.from_cycles("(1 2 3)", 5)
    assert p.inverse() == Perm.from_cycles("(1 3 2)", 5)
    assert (p * p.inverse()).is_identity()
    assert p**3 == Perm.identity(5)
    assert p**-1 == p.inverse()
    assert p**-2 == (p * p).inverse()
    rng = random.Random(29)
    for _ in range(30):
        images = list(range(12)); rng.shuffle(images)
        q = Perm.from_images(images, 12)
        e = rng.randrange(-20, 21)
        expect = Perm.identity(12)
        step = q if e >= 0 else q.inverse()
        for _ in range(abs(e)):
            expect = expect * step
        assert q**e == expect


def test_order_is_lcm_of_cycle_lengths():
    assert Perm.from_cycles("(1 2 3)(4 5)", 5).order() == 6
    assert Perm.identity(4).order() == 1
    assert Perm.from_cycles("(1 2 3 4 5 6 7)(8 9 10)(11 12)", 12).order() == 42
    rng = random.Random(31)
    for _ in range(50):
        images = list(range(20)); rng.shuffle(images)
        p = Perm.from_images(images, 20)
        assert p.order() == math.lcm(*p.cycle_type())
        assert (p ** p.order()).is_identity()


def test_cycle_type():
    # fixed points contribute 1s; lengths descend
    assert Perm.from_cycles("(1 2 3)(4 5)", 6).cycle_type() == (3, 2, 1)
    assert Perm.identity(3).cycle_type() == (1, 1, 1)


def test_moved_points_and_min_moved():
    p = Perm.from_cycles("(3 5)", 6)
    assert p.moved_points() == (3, 5)  # 1-based, like the notation
    assert min_moved(p.t, 6) == 2  # raw tables stay 0-based
    assert min_moved(Perm.identity(6).t, 6) is None


def test_from_images_rejects_non_bijections():
    with pytest.raises(CycleParseError):
        Perm.from_images([0, 0, 1], 3)
    with pytest.raises(CycleParseError):
        Perm.from_images([0, 1, 3], 3)


def test_equality_includes_degree():
    a = Perm.from_cycles("(1 2)", 2)
    b = Perm.from_cycles("(1 2)", 3)
    assert a != b
    assert a == Perm.from_cycles("(1 2)", 2)


def test_table_order_matches_perm_order():
    rng = random.Random(37)
    for degree in (10, 200, 400):
        images = list(range(degree)); rng.shuffle(images)
        p = Perm.from_images(images, degree)
        assert table_order(p.t, degree) == p.order()
