"""Derived series, solvability, the radical oracle, element decompositions.

Solvability is cross-checked against an independent oracle that closes the
commutator set by brute force, never touching the engine's shortcut paths.
"""

import random

import pytest

from radlab import catalog, structure
from radlab.errors import PreconditionError
from radlab.group import PermutationGroup
from radlab.perm import Perm
from radlab.structure import (
    derived_series,
    derived_subgroup,
    p_elements,
    primary_decomposition,
    primary_exponent,
    socle_certificate,
    solvability,
    solvable_radical,
    two_part_split,
)


def brute_derived_subgroup(g):
    """Closure of all commutators, via plain enumeration."""
    everyone = list(g.elements())
    comms = {a.inverse() * b.inverse() * a * b for a in everyone for b in everyone}
    return g.subgroup(sorted(comms, key=lambda p: p.cycles()))


def brute_is_solvable(g, depth_cap=10):
    h = g
    for _ in range(depth_cap):
        if h.order == 1:
            return True
        d = brute_derived_subgroup(h)
        if d.order == h.order:
            return False
        h = d
    raise AssertionError("depth cap hit")


def test_derived_series_trivial():
    g = PermutationGroup(3, [])
    s = derived_series(g)
    assert s.orders == (1,)
    assert s.solvable


def test_derived_series_s4():
    s4 = catalog.symmetric(4)
    s = derived_series(s4)
    assert s.orders == (24, 12, 4, 1)
    assert s.solvable
    assert s.derived_length == 3
    # each term is the honest commutator closure of its predecessor
    cur = s4
    for term in s.terms[1:]:
        oracle = brute_derived_subgroup(cur)
        assert term.order == oracle.order
        assert set(term.elements()) == set(oracle.elements())
        cur = term


def test_derived_series_a5_stabilizes():
    s = derived_series(catalog.alternating(5))
    assert s.orders == (60, 60)
    assert not s.solvable
    assert s.derived_length is None
    oracle = brute_derived_subgroup(catalog.alternating(5))
    assert oracle.order == 60  # perfect group


def test_derived_subgroup_of_abelian_is_trivial():
    assert derived_subgroup(catalog.cyclic(12)).order == 1


def test_is_solvable_known_values():
    assert solvability(catalog.cyclic(6))[0]
    assert solvability(catalog.symmetric(4))[0]
    assert not solvability(catalog.alternating(5))[0]


def test_solvability_certificate_runs_honest_descent():
    # nonsolvable steps count the strict descents before stabilizing; a
    # solvable group may exit early, so S4's full descent of three steps is
    # read off the honest derived series
    assert derived_series(catalog.symmetric(4)).derived_length == 3
    assert solvability(catalog.alternating(5)) == (False, 0)
    assert solvability(catalog.symmetric(5)) == (False, 1)
    assert solvability(PermutationGroup(2, [])) == (True, 0)


def test_solvability_agrees_with_derived_series(corpus):
    # the shortcut exits never change the verdict, and a nonsolvable exit
    # reports the honest series' depth: its last term repeats the one before
    for name, g in corpus.items():
        solvable, steps = solvability(g)
        series = derived_series(g)
        assert solvable == series.solvable, name
        if not solvable:
            assert steps == len(series.terms) - 2, name


def test_solvability_computes_no_term_past_its_exit(monkeypatch):
    orders = []

    def counted(h):
        orders.append(h.order)
        return derived_subgroup(h)

    monkeypatch.setattr(structure, "derived_subgroup", counted)
    for g, expect in [
        (catalog.symmetric(4), []),  # |S4| = 2^3 * 3 exits before any descent
        (catalog.alternating(5), [60]),
        (catalog.symmetric(5), [120, 60]),
    ]:
        orders.clear()
        solvability(g)
        assert orders == expect, g.order


def test_radical_descends_no_closure_equal_to_g(monkeypatch):
    orders = []

    def counted(h):
        orders.append(h.order)
        return derived_subgroup(h)

    monkeypatch.setattr(structure, "derived_subgroup", counted)
    # every nontrivial class of A5 has closure A5, so only solvability(A5) descends
    assert solvable_radical(catalog.alternating(5)).order == 1
    assert orders == [60]
    orders.clear()
    # S5: the transpositions close to S5 (skipped), the 3-cycles to A5
    assert solvable_radical(catalog.symmetric(5)).order == 1
    assert orders[:2] == [120, 60]
    assert 60 in orders[2:] and 120 not in orders[2:]


def test_is_solvable_matches_brute_oracle(small_corpus):
    for name, g in small_corpus.items():
        if g.order > 720:
            continue  # the quadratic oracle gets slow past this
        assert solvability(g)[0] == brute_is_solvable(g), name


def test_radical_of_solvable_group_is_itself():
    s4 = catalog.symmetric(4)
    r = solvable_radical(s4)
    assert r.order == s4.order


def test_radical_of_a5_is_trivial():
    assert solvable_radical(catalog.alternating(5)).order == 1


def test_radical_of_s3_x_a5_is_the_s3_factor():
    g = catalog.build_named("S3xA5")
    r = solvable_radical(g)
    assert r.order == 6
    # the S3 factor lives on the first three points
    for x in r.elements():
        assert all(p <= 3 for p in x.moved_points())


def test_radical_of_wreath_swap_a5_is_trivial():
    assert solvable_radical(catalog.build_named("A5wr2")).order == 1


def test_radical_of_sn_trivial_from_5(corpus):
    for n in (5, 6, 7):
        assert solvable_radical(corpus[f"S{n}"]).order == 1


def test_socle_certifies_every_cvl_realization_radical_free():
    # verify_cvl counts a missing witness as a counterexample because
    # R(Aut(G0)) = 1; the socle proves it for every runnable realization
    for socle in catalog._REALIZERS:
        real = catalog.cvl_realization(socle)
        assert socle_certificate(real.group, real.socle) is None, socle


def test_socle_certificate_names_the_condition_that_fails():
    # C2 x A5, C2 on points 1-2 and A5 on 3-7: the A5 factor is normal with
    # R(A5) = 1, but its point stabilizers fix 1 and 2, and the C2 that
    # centralizes it is the radical
    g = catalog.build_named("C2xA5")
    a5 = PermutationGroup(7, [Perm(7, t) for t in g.gens if t[:2] == bytes([0, 1])])
    assert a5.order == 60 and solvable_radical(g).order == 2
    assert socle_certificate(g, a5) == "stabilizer"
    a4 = PermutationGroup(5, [Perm.from_cycles("(1 2 3)", 5), Perm.from_cycles("(2 3 4)", 5)])
    assert socle_certificate(catalog.symmetric(5), a4) == "normal"
    s4 = catalog.symmetric(4)
    assert socle_certificate(s4, s4) == "radical"
    with pytest.raises(PreconditionError):
        socle_certificate(catalog.symmetric(5), s4)


def test_radical_membership_characterization(small_corpus):
    # x in R(G) iff the normal closure of x is solvable
    rng = random.Random(43)
    for name, g in small_corpus.items():
        if g.order > 8000:
            continue
        r = solvable_radical(g)
        for _ in range(20):
            x = g.random_element(rng)
            closure_solvable = derived_series(g.normal_closure([x])).solvable
            assert r.contains(x) == closure_solvable, (name, x.cycles())


def test_radical_is_normal_and_solvable(small_corpus):
    for name, g in small_corpus.items():
        if g.order > 8000:
            continue
        r = solvable_radical(g)
        assert derived_series(r).solvable, name
        for x in r.generators:
            for s in g.generators:
                assert r.contains(s.inverse() * x * s), name


def test_p_elements_known_values():
    assert p_elements(catalog.symmetric(4), 5) == []
    s3 = catalog.symmetric(3)
    assert sorted(x.cycles() for x in p_elements(s3, 2)) == ["(1 2)", "(1 3)", "(2 3)"]
    assert len(p_elements(catalog.alternating(4), 3)) == 8


def test_p_elements_rejects_composite():
    with pytest.raises(PreconditionError):
        p_elements(catalog.symmetric(4), 6)


def test_p_elements_cauchy(corpus):
    # Cauchy: a p-element exists for every prime dividing the order
    from radlab.arith import factorize

    for name, g in corpus.items():
        if g.order > 20_000:
            continue
        for p in factorize(g.order).primes:
            els = p_elements(g, p)
            assert els, (name, p)
            assert all(x.order() % p == 0 for x in els)


def test_primary_decomposition_identity():
    d = primary_decomposition(Perm.identity(5))
    assert d.components == ()
    assert d.order == 1


def test_primary_decomposition_order_6():
    x = Perm.from_cycles("(1 2)(3 4 5)", 5)
    d = primary_decomposition(x)
    assert d.component(2) == x**3
    assert d.component(3) == x**4
    assert d.component(2) * d.component(3) == x
    assert d.component(5) == Perm.identity(5)


def test_primary_decomposition_p_element():
    x = Perm.from_cycles("(1 2 3)", 4)
    d = primary_decomposition(x)
    assert d.components == ((3, x),)


def test_primary_exponent_solves_the_congruences():
    from radlab.arith import factorize

    for o in range(2, 2001):
        for p, a in factorize(o):
            pa = p**a
            k = primary_exponent(o, pa)
            assert 0 <= k < o and k % pa == 1 and k % (o // pa) == 0, (o, pa)


def test_primary_decomposition_invariants_seeded(corpus):
    rng = random.Random(47)
    names = sorted(corpus)
    for _ in range(300):
        g = corpus[rng.choice(names)]
        x = g.random_element(rng)
        d = primary_decomposition(x)
        acc = Perm.identity(g.degree)
        order_prod = 1
        for p, c in d.components:
            acc = acc * c
            o = c.order()
            order_prod *= o
            assert o == p ** max(k for k in range(30) if o % p**k == 0)
            for q, e in d.components:
                assert c * e == e * c  # powers of x commute
        assert acc == x
        assert order_prod == x.order()


def test_two_part_split_trivial_cases():
    odd = Perm.from_cycles("(1 2 3)", 5)
    s = two_part_split(odd)
    assert s.two_part.is_identity() and s.odd_part == odd
    ev = Perm.from_cycles("(1 2)(3 4)", 5)
    s = two_part_split(ev)
    assert s.two_part == ev and s.odd_part.is_identity()


def test_two_part_split_order_12():
    x = Perm.from_cycles("(1 2 3 4)(5 6 7)", 7)  # order 12
    s = two_part_split(x)
    assert s.two_part == x**9
    assert s.odd_part == x**4
    assert s.two_part.order() == 4 and s.odd_part.order() == 3
    assert s.two_part * s.odd_part == x


def test_two_part_split_invariants_seeded(corpus):
    rng = random.Random(53)
    names = sorted(corpus)
    for _ in range(300):
        g = corpus[rng.choice(names)]
        x = g.random_element(rng)
        s = two_part_split(x)
        assert s.two_part * s.odd_part == x
        assert s.odd_part * s.two_part == x
        assert s.two_part.order() * s.odd_part.order() == x.order()
        assert s.two_part.order() & (s.two_part.order() - 1) == 0  # power of 2
        assert s.odd_part.order() % 2 == 1
