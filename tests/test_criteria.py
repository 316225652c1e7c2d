"""Radical membership criteria: agreement, witnesses, search contracts.

The reference point throughout is the normal-closure radical oracle; the
criteria must reproduce its verdicts exactly. Witness objects are treated as
certificates: every one emitted here is re-validated from scratch, and the
find_witness first-hit contract is checked against a coverage-free rescan.
The subgroup-coverage skip is checked against a reference scan that keeps
the older, smaller skip set of <x>-conjugates of generators of tested <y>,
and the centralizer skip against a copy of the loops with subgroup coverage
as their only skip.
"""

import math
import random

import pytest

from radlab import catalog, criteria, structure
from radlab.arith import factorize
from radlab.criteria import (
    CONSTRAINT_ANY,
    CONSTRAINT_ODD_P,
    CONSTRAINT_TWO_ELEMENT,
    DEFAULT_PAIR_CAP,
    METHOD_B1,
    METHOD_COMBINED,
    METHOD_ODD_P,
    METHOD_TWO_ELEMENT,
    MembershipVerdict,
    Witness,
    _coverage,
    _pair_solvable,
    _prime_of_order,
    _probe_tables,
    find_witness,
    member_b1,
    member_combined,
    member_oddp,
    member_two_element,
    witness_is_valid,
)
from radlab.errors import CapExceededError, MembershipError, PreconditionError
from radlab.group import DEFAULT_ENUMERATION_CAP, PermutationGroup
from radlab.perm import Perm, table_order
from radlab.structure import (
    derived_series,
    primary_decomposition,
    solvability,
    solvable_radical,
    two_part_split,
)
from radlab.verify import STATUS_VERIFIED, radical_by_method, verify_equivalence

ALL_METHODS = (member_b1, member_oddp, member_combined)


def test_identity_is_always_member(corpus):
    for name in ("S4", "A5", "PSL2_7", "A5wr2"):
        g = corpus[name]
        for fn in ALL_METHODS:
            v = fn(g, Perm.identity(g.degree))
            assert v.member and v.witness is None, (name, fn.__name__)


def test_solvable_group_everything_is_member(corpus):
    s4 = corpus["S4"]
    for x in s4.elements():
        for fn in ALL_METHODS:
            v = fn(s4, x)
            assert v.member and v.witness is None


def test_a5_five_cycle_is_not_member(corpus):
    a5 = corpus["A5"]
    x = Perm.from_cycles("(1 2 3 4 5)", 5)
    for fn in ALL_METHODS:
        v = fn(a5, x)
        assert not v.member
        assert v.witness is not None
        assert witness_is_valid(v.witness, ambient=a5)


def test_a5_three_cycle_two_element_witness(corpus):
    a5 = corpus["A5"]
    x = Perm.from_cycles("(1 2 3)", 5)
    v = member_two_element(a5, x)
    assert not v.member
    w = v.witness
    assert w.prime == 2 and w.y.order() == 2
    assert witness_is_valid(w, ambient=a5)


def test_a5_involution_gets_odd_p_witness(corpus):
    a5 = corpus["A5"]
    x = Perm.from_cycles("(1 2)(3 4)", 5)
    v = member_oddp(a5, x)
    assert not v.member
    assert v.witness.prime in (3, 5)
    assert witness_is_valid(v.witness, ambient=a5)


def test_two_element_requires_odd_order(corpus):
    # the criterion holds for every x of odd order, not only odd primary ones
    g = corpus["S3xA5"]
    x = Perm.from_cycles("(1 2 3)(4 5 6 7 8)", 8)  # order 15, outside R(G) = S3
    v = member_two_element(g, x)
    assert not v.member and v.witness.prime == 2
    assert witness_is_valid(v.witness, ambient=g)
    c15 = catalog.cyclic(15)
    assert member_two_element(c15, c15.generators[0]).member
    one = Perm.identity(8)
    assert member_two_element(g, one) == MembershipVerdict(one, METHOD_TWO_ELEMENT, True, None, 0)
    c12 = corpus["C12"]
    for k in (6, 2):  # orders 2 and 6
        with pytest.raises(PreconditionError):
            member_two_element(c12, c12.generators[0] ** k)


def test_membership_error_for_foreign_element(corpus):
    a5 = corpus["A5"]
    with pytest.raises(MembershipError):
        member_b1(a5, Perm.from_cycles("(1 2)", 5))


def test_s3_x_a5_factor_membership(corpus):
    g = corpus["S3xA5"]
    inside = Perm.from_cycles("(1 2 3)", 8)  # S3 factor, lies in the radical
    outside = Perm.from_cycles("(4 5 6 7 8)", 8)  # A5 factor
    for fn in ALL_METHODS:
        assert fn(g, inside).member, fn.__name__
        v = fn(g, outside)
        assert not v.member
        if fn is not member_b1:
            assert v.witness.prime in (2, 3, 5)
    v = member_oddp(g, outside)
    assert v.witness.prime in (3, 5)


def test_wreath_swap_only_identity_member(corpus):
    g = corpus["A5wr2"]
    for cls in g.class_representatives():
        x = cls.representative
        v = member_combined(g, x)
        assert v.member == x.is_identity(), x.cycles()
    swap = Perm.from_cycles("(1 6)(2 7)(3 8)(4 9)(5 10)", 10)
    v = member_oddp(g, swap)
    assert not v.member
    assert v.witness.prime in (3, 5)
    assert witness_is_valid(v.witness, ambient=g)


def test_methods_agree_with_oracle(small_corpus):
    for name, g in small_corpus.items():
        radical = solvable_radical(g)
        for cls in g.class_representatives():
            x = cls.representative
            oracle = radical.contains(x)
            for fn in ALL_METHODS:
                assert fn(g, x).member == oracle, (name, x.cycles(), fn.__name__)


def test_two_element_agrees_on_odd_primary_elements(small_corpus):
    from radlab.arith import factorize

    for name, g in small_corpus.items():
        radical = solvable_radical(g)
        for cls in g.class_representatives():
            x = cls.representative
            f = factorize(x.order()).pairs
            if len(f) != 1 or f[0][0] == 2:
                continue
            assert member_two_element(g, x).member == radical.contains(x), name


def test_conjugation_invariance(small_corpus):
    rng = random.Random(61)
    for name, g in small_corpus.items():
        if g.order > 4000:
            continue
        reps = [c.representative for c in g.class_representatives()]
        for x in reps[:6]:
            base = member_combined(g, x).member
            for _ in range(8):
                s = g.random_element(rng)
                conj = s.inverse() * x * s
                assert member_combined(g, conj).member == base, (name, x.cycles())


def test_witnesses_revalidate_and_reject_tampering(corpus):
    a5 = corpus["A5"]
    v = member_oddp(a5, Perm.from_cycles("(1 2)(3 4)", 5))
    w = v.witness
    assert witness_is_valid(w, ambient=a5, y_domain=a5)
    import dataclasses

    bad_order = dataclasses.replace(w, subgroup_order=w.subgroup_order + 1)
    assert not witness_is_valid(bad_order)
    bad_steps = dataclasses.replace(w, derived_steps=w.derived_steps + 1)
    assert not witness_is_valid(bad_steps)
    bad_prime = dataclasses.replace(w, prime=13)
    assert not witness_is_valid(bad_prime)
    # a solvable pair is never a witness
    fake = dataclasses.replace(
        w, y=w.x**2, subgroup_order=5, derived_steps=0
    )
    assert not witness_is_valid(fake)
    # <x> holds x but not y, and a witness is a pair of elements of G
    only_x = PermutationGroup(5, [w.x])
    assert not witness_is_valid(w, ambient=only_x)
    assert not witness_is_valid(w, y_domain=only_x)
    # a group of another degree holds neither part: False, not an error
    assert not witness_is_valid(w, ambient=corpus["S4"])
    assert not witness_is_valid(w, y_domain=corpus["S4"])


def test_find_witness_solvable_group_returns_none(corpus):
    s4 = corpus["S4"]
    for constraint in (CONSTRAINT_ANY, CONSTRAINT_ODD_P, CONSTRAINT_TWO_ELEMENT):
        for cls in s4.class_representatives():
            assert find_witness(s4, cls.representative, constraint) is None


def test_find_witness_constraints(corpus):
    a5 = corpus["A5"]
    w = find_witness(a5, Perm.from_cycles("(1 2)(3 4)", 5), CONSTRAINT_ODD_P)
    assert w.prime in (3, 5) and w.y.order() % 2 == 1
    w = find_witness(a5, Perm.from_cycles("(1 2 3)", 5), CONSTRAINT_TWO_ELEMENT)
    assert w.prime == 2 and w.y.order() == 2
    assert not solvability(PermutationGroup(5, [w.x, w.y]))[0]
    assert w.subgroup_order == 60  # the only nonsolvable subgroup of A5


def test_find_witness_first_hit_contract(corpus):
    # the returned witness is the first in prime-then-enumeration order;
    # rescan without the coverage dedup and compare
    a5 = corpus["A5"]
    for x_text, constraint in [
        ("(1 2 3 4 5)", CONSTRAINT_ANY),
        ("(1 2 3)", CONSTRAINT_TWO_ELEMENT),
        ("(1 2)(3 4)", CONSTRAINT_ODD_P),
    ]:
        x = Perm.from_cycles(x_text, 5)
        w = find_witness(a5, x, constraint)
        if constraint == CONSTRAINT_ODD_P:
            primes = [3, 5]
        elif constraint == CONSTRAINT_TWO_ELEMENT:
            primes = [2]
        else:
            primes = [2, 3, 5]
        found = None
        for p in primes:
            for yt in a5.p_element_tables(p):
                if not solvability(PermutationGroup(5, [x, Perm(5, yt)]))[0]:
                    found = (p, Perm(5, yt))
                    break
            if found:
                break
        assert found is not None
        assert (w.prime, w.y) == found, (x_text, constraint)


def test_find_witness_domain_restriction():
    real = catalog.cvl_realization("PSL2_8")
    g, socle = real.group, real.socle
    reps = [c.representative for c in g.class_representatives(order_filter=3)]
    assert reps
    for x in reps:
        w = find_witness(g, x, CONSTRAINT_TWO_ELEMENT, domain=socle)
        assert w is not None
        assert socle.contains(w.y)
        assert witness_is_valid(w, ambient=g, y_domain=socle)


def test_find_witness_rejects_bad_domain(corpus):
    a5 = corpus["A5"]
    with pytest.raises(PreconditionError):
        find_witness(a5, Perm.from_cycles("(1 2 3)", 5), domain=corpus["S4"])
    with pytest.raises(PreconditionError):
        find_witness(a5, Perm.from_cycles("(1 2 3)", 5), constraint="sideways")
    # a domain of the right degree outside g: in the solvable <(1 2 3)> it
    # would return a "witness" y that is not in the group
    x = Perm.from_cycles("(1 2 3)", 5)
    with pytest.raises(PreconditionError):
        find_witness(PermutationGroup(5, [x]), x, domain=a5)


def test_pair_cap_is_distinct_from_exhaustion(corpus):
    s4 = corpus["S4"]
    x = Perm.from_cycles("(1 2)", 4)
    # exhaustion: no witness exists, search completes
    assert find_witness(s4, x, CONSTRAINT_ANY) is None
    # cap: the same search cannot finish with a one-pair budget
    with pytest.raises(CapExceededError):
        find_witness(s4, x, CONSTRAINT_ANY, pair_cap=1)
    with pytest.raises(CapExceededError):
        member_b1(s4, x, pair_cap=1)


def test_verdict_bookkeeping(corpus):
    a5 = corpus["A5"]
    v = member_b1(a5, Perm.identity(5))
    assert v.pairs_tested == 0
    v = member_b1(a5, Perm.from_cycles("(1 2 3 4 5)", 5))
    assert v.pairs_tested >= 1
    assert v.method == "b1"
    assert member_oddp(a5, Perm.from_cycles("(1 2 3)", 5)).method == "odd-p"
    assert member_combined(a5, Perm.from_cycles("(1 2 3)", 5)).method == "combined"


def test_combined_reports_failing_component(corpus):
    # elements of composite order: the verdict element is x itself, the
    # witness x is the primary component that failed
    g = corpus["A5xA5"]
    x = Perm.from_cycles("(1 2 3 4 5)(6 7)(8 9)", 10)  # order 10
    v = member_combined(g, x)
    assert not v.member
    assert v.element == x
    comps = dict(primary_decomposition(x).components)
    split = two_part_split(x)
    assert v.witness.x in list(comps.values()) + [split.two_part]
    assert witness_is_valid(v.witness, ambient=g)


def test_monotonicity_of_component_pairs(small_corpus):
    # for a witness y against the odd part, each odd primary component
    # generates with y a subgroup of the pair over the full odd part
    for name, g in small_corpus.items():
        if g.order > 4000:
            continue
        for cls in g.class_representatives():
            x = cls.representative
            split = two_part_split(x)
            odd = split.odd_part
            if odd.order() <= 1 or odd.order() == x.order():
                continue
            w = find_witness(g, odd, CONSTRAINT_ANY)
            if w is None:
                continue
            big = PermutationGroup(g.degree, [odd, w.y])
            for p, comp in primary_decomposition(odd).components:
                assert big.contains_table(comp.t), (name, x.cycles(), p)
            assert big.contains(w.y)


# -- subgroup coverage ---------------------------------------------------------

CONSTRAINTS = (CONSTRAINT_ANY, CONSTRAINT_ODD_P, CONSTRAINT_TWO_ELEMENT)


def coverage_groups(corpus):
    return {n: g for n, g in corpus.items() if g.order <= 2520}


def constraint_primes(g, constraint):
    """The primes of |g| whose p-elements a witness constraint admits."""
    primes = factorize(g.order).primes
    if constraint == CONSTRAINT_ODD_P:
        return [p for p in primes if p != 2]
    if constraint == CONSTRAINT_TWO_ELEMENT:
        return [p for p in primes if p == 2]
    return primes


def rescan_witness(g, x, constraint):
    """First y with <x, y> not solvable, testing every p-element: primes
    ascending, then enumeration order; no skip of any kind."""
    n = g.degree
    for p in constraint_primes(g, constraint):
        for yt in g.p_element_tables(p):
            y = Perm(n, yt)
            h = PermutationGroup(n, [x, y])
            series = derived_series(h)
            if not series.solvable:
                return Witness(x, y, p, h.order, len(series.terms) - 2)
    return None


def test_find_witness_matches_coverage_free_rescan(corpus):
    for name, g in coverage_groups(corpus).items():
        for cls in g.class_representatives():
            x = cls.representative
            for constraint in CONSTRAINTS:
                expect = rescan_witness(g, x, constraint)
                assert find_witness(g, x, constraint) == expect, (name, x.cycles(), constraint)


def conjugate_coverage(xt, yt, n):
    """{x^-j y^k x^j : gcd(k, o(y)) = 1}, the skip set before subgroup coverage."""
    x, y = Perm(n, xt), Perm(n, yt)
    o = y.order()
    xinv = x.inverse()
    out = set()
    for k in range(1, o + 1):
        if math.gcd(k, o) == 1:
            z = y**k
            for _ in range(x.order()):
                out.add(z.t)
                z = xinv * z * x
    return out


class ReferenceScan:
    """The member_* loops with the conjugate skip set: (member, pairs tested)."""

    def __init__(self, g):
        self.g = g
        self.n = g.degree
        self.tested = 0

    def solvable(self, xt, yt):
        self.tested += 1
        return solvability(PermutationGroup(self.n, [Perm(self.n, xt), Perm(self.n, yt)]))[0]

    def exhaust(self, xt, ys):
        covered = set()
        for yt in ys:
            if yt in covered:
                continue
            if not self.solvable(xt, yt):
                return False
            covered |= conjugate_coverage(xt, yt, self.n)
        return True

    def against(self, xt, p):
        n = self.n
        for yt in _probe_tables(self.g, xt, "odd" if p != 2 else 2):
            f = factorize(Perm(n, yt).order()).primes
            if len(f) == 1 and (f[0] == 2) == (p == 2) and not self.solvable(xt, yt):
                return False
        return self.exhaust(xt, self.g.p_element_tables(p))

    def b1(self, x):
        if x.is_identity():
            return True
        for yt in _probe_tables(self.g, x.t, None):
            if not self.solvable(x.t, yt):
                return False
        ident = self.g._ident
        return self.exhaust(x.t, (t for t in self.g.tables() if t != ident))

    def oddp(self, x):
        if x.is_identity():
            return True
        odd = [p for p in factorize(self.g.order).primes if p != 2]
        return all(self.against(x.t, p) for p in odd)

    def two_element(self, x):
        return self.against(x.t, 2)

    def combined(self, x):
        split = two_part_split(x)
        if not split.two_part.is_identity() and not self.oddp(split.two_part):
            return False
        comps = primary_decomposition(split.odd_part).components
        return all(self.against(c.t, 2) for _p, c in comps)


def test_subgroup_coverage_tests_no_more_pairs(corpus):
    ours = reference = 0
    for name, g in coverage_groups(corpus).items():
        for cls in g.class_representatives():
            x = cls.representative
            f = factorize(x.order()).pairs
            odd_primary = len(f) == 1 and f[0][0] != 2
            methods = [(member_b1, "b1"), (member_oddp, "oddp"), (member_combined, "combined")]
            if odd_primary:
                methods.append((member_two_element, "two_element"))
            for fn, ref_name in methods:
                ref = ReferenceScan(g)
                member = getattr(ref, ref_name)(x)
                v = fn(g, x)
                assert v.member == member, (name, x.cycles(), ref_name)
                assert v.pairs_tested <= ref.tested, (name, x.cycles(), ref_name)
                ours += v.pairs_tested
                reference += ref.tested
    assert ours < reference


class SubgroupCoverageScan:
    """The member_* and find_witness loops with no memo and subgroup coverage
    as their only skip: verdicts as (member, witness, pairs tested)."""

    def __init__(self, g):
        self.g = g
        self.n = g.degree
        self.tested = 0

    def first_hit(self, xt, ys, prime, covering=True):
        """(y, prime, order, steps) of the first nonsolvable <x, y>, or None."""
        covered = set()
        for yt in ys:
            if yt in covered:
                continue
            self.tested += 1
            solvable, order, steps, h = _pair_solvable(self.n, xt, yt)
            if not solvable:
                return yt, prime(yt), order, steps
            if covering:
                covered.update(_coverage(h, DEFAULT_ENUMERATION_CAP))
        return None

    def prime_of(self, yt):
        return _prime_of_order(table_order(yt, self.n))

    def verdict(self, x, hit):
        if hit is None:
            return True, None, self.tested
        yt, prime, order, steps = hit
        return False, Witness(x, Perm(self.n, yt), prime, order, steps), self.tested

    def against(self, x, primes):
        kind = 2 if primes == [2] else "odd"
        hit = self.first_hit(x.t, _probe_tables(self.g, x.t, kind), self.prime_of, False)
        for p in primes:
            if hit is not None:
                break
            hit = self.first_hit(x.t, self.g.p_element_tables(p), lambda _y, p=p: p)
        return self.verdict(x, hit)

    def odd_primes(self, g):
        return [p for p in factorize(g.order).primes if p != 2]

    def member_b1(self, x):
        if x.is_identity():
            return True, None, 0
        hit = self.first_hit(x.t, _probe_tables(self.g, x.t, None), self.prime_of, False)
        if hit is None:
            ys = (t for t in self.g.tables() if t != self.g._ident)
            hit = self.first_hit(x.t, ys, self.prime_of)
        return self.verdict(x, hit)

    def member_oddp(self, x):
        if x.is_identity():
            return True, None, 0
        return self.against(x, self.odd_primes(self.g))

    def member_two_element(self, x):
        return self.against(x, [2])

    def member_combined(self, x):
        split = two_part_split(x)
        x2 = split.two_part
        if not x2.is_identity():
            member, w, tested = self.against(x2, self.odd_primes(self.g))
            if not member:
                return member, w, tested
        for _p, comp in primary_decomposition(split.odd_part).components:
            member, w, tested = self.against(comp, [2])
            if not member:
                return member, w, tested
        return True, None, self.tested

    def find_witness(self, x, constraint, domain=None):
        dom = domain if domain is not None else self.g
        primes = factorize(dom.order).primes
        if constraint == CONSTRAINT_ODD_P:
            primes = self.odd_primes(dom)
        elif constraint == CONSTRAINT_TWO_ELEMENT:
            primes = [2] if dom.order % 2 == 0 else []
        for p in primes:
            hit = self.first_hit(x.t, dom.p_element_tables(p), lambda _y, p=p: p)
            if hit is not None:
                return self.verdict(x, hit)[1]
        return None


def test_centralizer_skip_keeps_every_verdict_and_witness(corpus):
    ours = reference = 0
    for name, g in coverage_groups(corpus).items():
        for cls in g.class_representatives():
            x = cls.representative
            for fn in member_methods(x):
                member, witness, tested = getattr(SubgroupCoverageScan(g), fn.__name__)(x)
                v = fn(g, x)
                assert (v.member, v.witness) == (member, witness), (name, x.cycles(), fn)
                assert v.pairs_tested <= tested, (name, x.cycles(), fn)
                ours += v.pairs_tested
                reference += tested
            for constraint in CONSTRAINTS:
                expect = SubgroupCoverageScan(g).find_witness(x, constraint)
                assert find_witness(g, x, constraint) == expect, (name, x.cycles(), constraint)
    assert ours < reference


def test_centralizer_skip_saves_pairs_on_a_direct_product():
    # every element of PSL(2,7) commutes with the S4 factor, so its strong
    # generators conjugate solved pairs <x, y> into pairs still untested
    g = catalog.direct_product(catalog.build_named("S4"), catalog.build_named("PSL2_7"))
    s4 = catalog.symmetric(4)
    for x4 in s4.elements():
        if x4.is_identity():
            continue
        x = Perm.from_images(list(x4.t[:4]) + list(range(4, 12)), 12)
        v = member_combined(g, x)
        member, witness, tested = SubgroupCoverageScan(g).member_combined(x)
        assert v.member and member and v.witness is None and witness is None
        assert v.pairs_tested < tested, (x.cycles(), v.pairs_tested, tested)


def test_centralizer_skip_in_a_socle_domain():
    # x lies in Aut(G0) outside the socle that y ranges over; the commuting
    # strong generators are those of the socle
    for socle_name in ("PSL3_2", "A6"):
        real = catalog.cvl_realization(socle_name)
        g, socle = real.group, real.socle
        outside = [
            c.representative for c in g.class_representatives()
            if not socle.contains(c.representative)
        ]
        assert outside
        for x in outside:
            for constraint in CONSTRAINTS:
                expect = SubgroupCoverageScan(g).find_witness(x, constraint, domain=socle)
                got = find_witness(g, x, constraint, domain=socle)
                assert got == expect, (socle_name, x.cycles(), constraint)


def test_find_witness_coverage_above_cap_is_skipped():
    # the domain fits the cap, but each pair subgroup (S4 or D4) does not:
    # coverage adds nothing and the scan completes
    s4 = catalog.symmetric(4)
    x = Perm.from_cycles("(1 2 3 4)", 4)
    domain = PermutationGroup(4, [Perm.from_cycles("(1 2)", 4), Perm.from_cycles("(3 4)", 4)])
    assert domain.order == 4
    assert find_witness(s4, x, CONSTRAINT_TWO_ELEMENT, cap=4, domain=domain) is None
    assert find_witness(s4, x, CONSTRAINT_ANY, cap=4, domain=domain) is None


# -- scan memo -----------------------------------------------------------------


class NoMemo(dict):
    """A memo store that keeps nothing, so every scan runs from scratch."""

    def __setitem__(self, key, value):
        pass


def memo_free(g):
    """A fresh copy of g whose scans and pair verdicts are never stored."""
    h = PermutationGroup(g.degree, g.generators)
    h.scan_memo = (NoMemo(), NoMemo(), {})
    return h


def verdict_key(v):
    return (v.member, v.witness, v.pairs_tested)


def outcome(fn, g, x, **kw):
    """A scan's result in comparable form: "capped" when the pair cap fired."""
    try:
        v = fn(g, x, **kw)
    except CapExceededError:
        return "capped"
    return verdict_key(v) if isinstance(v, MembershipVerdict) else v


def member_methods(x):
    methods = [member_b1, member_oddp, member_combined]
    if x.order() % 2:
        methods.append(member_two_element)
    return methods


def witness_calls():
    return [(lambda g, x, c=c, **kw: find_witness(g, x, c, **kw)) for c in CONSTRAINTS]


def test_warm_scans_match_fresh_groups(corpus):
    for name, g in coverage_groups(corpus).items():
        reference = memo_free(g)
        warm = catalog.build_named(name)
        reps = [c.representative for c in g.class_representatives()]
        expected = {}
        for x in reps:
            for i, fn in enumerate(member_methods(x) + witness_calls()):
                expected[x, i] = outcome(fn, reference, x)
                cold = catalog.build_named(name)
                assert outcome(fn, cold, x) == expected[x, i], (name, x.cycles(), i)
        for _ in range(2):
            for x in reps:
                for i, fn in enumerate(member_methods(x) + witness_calls()):
                    assert outcome(fn, warm, x) == expected[x, i], (name, x.cycles(), i)
        assert warm.scan_memo[0]


def test_pair_cap_boundary_cold_and_warm(corpus, monkeypatch):
    # one group object answers count - 1, count, count - 1, count: the first
    # call is cold, a scan the cap stopped stores nothing, and the last two
    # find every scan of the query memoized. Every pair a verdict tests
    # counts, so one below its count is capped, member or not, and a cold
    # call tests no pair past the cap.
    calls = []
    real = criteria._pair_solvable

    def counting(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(criteria, "_pair_solvable", counting)
    for name in ("S4", "A5", "S3xA5", "PSL2_7"):
        g = corpus[name]
        for cls in g.class_representatives():
            x = cls.representative
            for fn in member_methods(x):
                v = fn(memo_free(g), x)
                count = v.pairs_tested
                warm = catalog.build_named(name)
                for cap in (count - 1, count, count - 1, count):
                    calls.clear()
                    cold = outcome(fn, catalog.build_named(name), x, pair_cap=cap)
                    assert len(calls) <= max(cap, 0), (name, x.cycles(), cap)
                    assert outcome(fn, warm, x, pair_cap=cap) == cold, (name, x.cycles(), cap)
                    if cap == count:
                        assert cold == verdict_key(v)
                    elif count:
                        assert cold == "capped", (name, x.cycles(), fn.__name__)
    # a scan that tests no pair never reaches the cap, even one below zero
    c3 = corpus["C3"]
    x = c3.generators[0]
    for g in (c3, c3, memo_free(c3)):
        assert verdict_key(member_two_element(g, x, pair_cap=-1)) == (True, None, 0)
    # find_witness reports no count: its boundary is the least budget that passes
    a5 = corpus["A5"]
    for fw in witness_calls():
        for cls in a5.class_representatives():
            x = cls.representative
            expect = fw(memo_free(a5), x)
            boundary = 0
            while outcome(fw, catalog.build_named("A5"), x, pair_cap=boundary) == "capped":
                boundary += 1
            warm = catalog.build_named("A5")
            for cap in (boundary - 1, boundary, boundary - 1, boundary):
                got = outcome(fw, warm, x, pair_cap=cap)
                assert got == (expect if cap == boundary else "capped"), (x.cycles(), cap)


def test_repeated_queries_on_a_warm_group_test_no_pair(monkeypatch):
    # the agreement tests above also pass on a memo key that never matches;
    # here a repeat at the default pair cap, and one at a pair cap just large
    # enough for the query, must find every scan memoized
    calls = []
    real = criteria._pair_solvable

    def counting(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(criteria, "_pair_solvable", counting)
    for name in ("S3xA5", "PSL2_7", "A5wr2"):
        g = catalog.build_named(name)
        for cls in g.class_representatives():
            x = cls.representative
            for fn in member_methods(x) + witness_calls():
                # find_witness reports no count, and on g the pair memo that
                # earlier scans filled spares some pair subgroups; a group
                # with neither memo builds one per pair it tests
                calls.clear()
                fn(memo_free(g), x)
                tested = len(calls)
                first = fn(g, x)
                if isinstance(first, MembershipVerdict):
                    assert first.pairs_tested == tested
                for pair_cap in (DEFAULT_PAIR_CAP, tested):
                    calls.clear()
                    assert fn(g, x, pair_cap=pair_cap) == first, (name, x.cycles(), pair_cap)
                    assert not calls, (name, x.cycles(), pair_cap)


def test_pair_memo_keeps_every_outcome_at_the_pair_cap_boundary(monkeypatch):
    # every query, one pair below its count and then at the default pair
    # cap, on a group with both memos and on one whose scans all run and
    # meet the pairs earlier scans decided in the pair memo: each outcome
    # must be that of a group with neither memo, so a memo hit counts its
    # pair against the cap exactly as a fresh pair test does
    calls = []
    real = criteria._pair_solvable

    def counting(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(criteria, "_pair_solvable", counting)
    for name in ("S3xA5", "A5wr2", "PSL2_7"):
        g = catalog.build_named(name)
        pairs_only = catalog.build_named(name)
        pairs_only.scan_memo = (NoMemo(), {}, {})
        tested = built = 0
        for cls in g.class_representatives():
            x = cls.representative
            for fn in member_methods(x) + witness_calls():
                calls.clear()
                expect = outcome(fn, memo_free(g), x)
                count = len(calls)
                below = outcome(fn, memo_free(g), x, pair_cap=count - 1)
                assert below == ("capped" if count else expect), (name, x.cycles())
                for h in (g, pairs_only):
                    calls.clear()
                    assert outcome(fn, h, x, pair_cap=count - 1) == below, (name, x.cycles())
                    assert outcome(fn, h, x) == expect, (name, x.cycles())
                    if h is pairs_only:
                        tested += 2 * count - 1 if count else 0
                        built += len(calls)
        assert g.scan_memo[1] and built < tested / 2, name


def test_adopt_invalidates_the_scan_memo():
    a, b, c = (Perm.from_cycles(s, 5) for s in ("(1 2 3)", "(1 2)(3 4)", "(1 2 3 4 5)"))
    g = PermutationGroup(5, [a, b])  # A4 on five points, so R(G) = G
    for x in (a, b):
        assert all(fn(g, x).member for fn in member_methods(x))
        assert all(fw(g, x) is None for fw in witness_calls())
    assert g.scan_memo is not None
    assert g._adopt(c.t)
    assert g.scan_memo is None
    a5 = memo_free(PermutationGroup(5, [a, b, c]))
    for x in (a, b):
        assert not member_combined(g, x).member
        for fn in member_methods(x) + witness_calls():
            assert outcome(fn, g, x) == outcome(fn, a5, x), (x.cycles(), fn)


def test_enumeration_caps_do_not_share_scans():
    # at cap 4 the pair subgroups (S4 or D4) are too large to cover anything,
    # so the scan tests all three 2-elements of the domain; at the default cap
    # the first pair subgroup, S4, covers the other two
    s4 = catalog.symmetric(4)
    x = Perm.from_cycles("(1 2 3 4)", 4)
    gens = [Perm.from_cycles("(1 2)", 4), Perm.from_cycles("(3 4)", 4)]
    runs = [(4, 3), (DEFAULT_ENUMERATION_CAP, 1)]
    for order in (runs, runs[::-1]):
        domain = PermutationGroup(4, gens)
        for cap, count in order:
            for _ in range(2):
                assert find_witness(
                    s4, x, CONSTRAINT_TWO_ELEMENT, pair_cap=count, cap=cap, domain=domain
                ) is None
                with pytest.raises(CapExceededError):
                    find_witness(
                        s4, x, CONSTRAINT_TWO_ELEMENT, pair_cap=count - 1, cap=cap, domain=domain
                    )


def test_enumeration_cap_refused_alike_on_warm_and_fresh_groups():
    # S4 (order 24) at cap 10: a default-cap call before must not let a
    # cached p-element stream slip past the cap
    x = Perm.from_cycles("(1 2 3)", 4)
    calls = [member_b1, member_oddp, member_two_element, member_combined, find_witness]
    for fn in calls:
        fresh = catalog.symmetric(4)
        with pytest.raises(CapExceededError):
            fn(fresh, x, cap=10)
        warm = catalog.symmetric(4)
        fn(warm, x)
        with pytest.raises(CapExceededError):
            fn(warm, x, cap=10)
        assert fn(warm, x, cap=24) == fn(catalog.symmetric(4), x, cap=24)


# -- the registry of nonsolvable groups a scan has descended -------------------


def registry_groups():
    """Fresh groups, so every registry starts empty."""
    gs = {name: catalog.build_named(name) for name in ("S5", "S7", "A5xA5", "A5wr2", "PSL2_7")}
    s4, psl = catalog.build_named("S4"), catalog.build_named("PSL2_7")
    gs["S4xPSL2_7"] = catalog.direct_product(s4, psl)
    return gs


@pytest.fixture
def derived_calls(monkeypatch):
    """Orders of the groups whose derived subgroup is built, in call order."""
    calls = []
    real = structure.derived_subgroup

    def counting(h):
        calls.append(h.order)
        return real(h)

    monkeypatch.setattr(structure, "derived_subgroup", counting)
    return calls


def test_registry_verdicts_and_steps_are_exact(monkeypatch, derived_calls):
    # every pair the b1, odd-p and combined scans test, decided with the
    # scanned group's registry, against a registry-free descent; the scans
    # must also have built fewer derived subgroups than that descent does
    tested, derived = [], derived_calls
    real_pair = criteria._pair_solvable

    def recording(n, a, b, known=None):
        out = real_pair(n, a, b, known)
        tested.append((n, a, b, out[:3]))
        return out

    monkeypatch.setattr(criteria, "_pair_solvable", recording)
    for name, g in registry_groups().items():
        for cls in g.class_representatives():
            for fn in ALL_METHODS:
                fn(g, cls.representative)
        assert g.scan_memo[2], name
    scanned, fresh = len(derived), 0
    nonsolvable = 0
    for n, a, b, (solvable, order, steps) in tested:
        pg = PermutationGroup(n, [Perm(n, a), Perm(n, b)])
        assert pg.order == order
        before = len(derived)
        assert solvability(pg) == (solvable, steps)
        fresh += len(derived) - before
        if not solvable:
            nonsolvable += 1
            assert steps == len(derived_series(pg).terms) - 2
    assert nonsolvable > 0
    assert scanned < fresh


def test_registry_spares_a_second_descent_of_the_same_group(derived_calls):
    # the second scan's nonsolvable pair is S5 itself, which the first scan
    # descended (S5 > A5 = A5'), and S5 has no solvable subgroup whose order
    # has three prime divisors, so that scan builds no derived subgroup
    calls = derived_calls
    s5 = catalog.build_named("S5")
    first = member_b1(s5, Perm.from_cycles("(4 5)", 5))
    assert first.witness.subgroup_order == 120 and calls
    calls.clear()
    second = member_b1(s5, Perm.from_cycles("(2 3 4 5)", 5))
    w = second.witness
    assert (w.subgroup_order, w.derived_steps) == (120, 1)
    assert calls == []
    assert witness_is_valid(w, ambient=s5)


def test_witness_check_never_reads_the_registry():
    # a registry entry with false steps for S5 itself: the scan trusts it, so
    # its witness carries the false steps, and the re-check, which descends
    # afresh, rejects that witness
    x = Perm.from_cycles("(2 3 4 5)", 5)
    honest = member_b1(catalog.build_named("S5"), x).witness
    assert honest.subgroup_order == 120 and witness_is_valid(honest)
    seeded = catalog.build_named("S5")
    seeded.scan_memo = ({}, {}, {120: (tuple(seeded.gens), honest.derived_steps + 3)})
    w = member_b1(seeded, x).witness
    assert (w.y, w.subgroup_order) == (honest.y, 120)
    assert w.derived_steps == honest.derived_steps + 3
    assert not witness_is_valid(w)
    assert not witness_is_valid(w, ambient=seeded)


# -- seeded random groups: the memos and the oracle against each other ---------

# block sizes of the random groups: each generator permutes every block within
# itself and the blocks of one size among themselves. The first block is the
# only one of its size, so every generator fixes it setwise, and the others
# span at most four points, where every group is solvable.
BLOCK_SHAPES = ((5, 3), (5, 2, 2), (6, 2))
RANDOM_SEEDS = range(12)


def random_block_group(seed):
    """A group generated by 2 or 3 random block-preserving permutations."""
    rng = random.Random(seed)
    shape = BLOCK_SHAPES[seed % len(BLOCK_SHAPES)]
    starts = [sum(shape[:i]) for i in range(len(shape))]
    gens = []
    for _ in range(rng.choice((2, 3))):
        target = list(range(len(shape)))
        for size in set(shape):
            same = [i for i, s in enumerate(shape) if s == size]
            for i, j in zip(same, rng.sample(same, len(same))):
                target[i] = j
        images = []
        for i, size in enumerate(shape):
            images += [starts[target[i]] + k for k in rng.sample(range(size), size)]
        gens.append(Perm.from_images(images))
    return PermutationGroup(sum(shape), gens, name=f"random{seed}"), shape[0]


def first_block_witness(g, b, x, constraint, solvable):
    """First y, primes ascending and then in enumeration order, with <x, y>
    not solvable, testing every y: <x, y> embeds in the product of its
    actions on the first b points and on the rest, and the latter is
    solvable, so <x, y> is solvable iff its action on those b <= 6 points
    is. A subgroup of S5 or S6 is not solvable iff 60 divides its order.
    solvable caches that verdict for x by the action of y on the block."""
    xb = Perm.from_images(list(x.t[:b]))
    for p in constraint_primes(g, constraint):
        for yt in g.p_element_tables(p):
            key = tuple(yt[:b])
            if key not in solvable:
                pair = PermutationGroup(b, [xb, Perm.from_images(list(key))])
                solvable[key] = pair.order % 60 != 0
            if not solvable[key]:
                return Perm(g.degree, yt), p
    return None


@pytest.mark.parametrize("seed", RANDOM_SEEDS)
def test_random_groups_memos_and_oracle_agree(seed):
    # verify_equivalence warms every memo of g; each query on it must then
    # equal the same query on a memo-free copy, each non-member's witness
    # must be the first that a scan testing every y finds, and the radical
    # each criterion builds must be the oracle's
    g, b = random_block_group(seed)
    report = verify_equivalence(g)
    assert report.status == STATUS_VERIFIED, seed
    for c in report.checks:
        assert c.witness is None or witness_is_valid(c.witness, ambient=g), (seed, c.x_text)
    radical = solvable_radical(g)
    fresh = memo_free(g)
    for cls in g.class_representatives():
        x = cls.representative
        for fn in member_methods(x) + witness_calls():
            assert outcome(fn, g, x) == outcome(fn, fresh, x), (seed, x.cycles(), fn)
        if radical.contains(x):
            continue  # every pair is solvable, as verify_equivalence checked
        solvable = {}
        for constraint in CONSTRAINTS:
            w = find_witness(g, x, constraint)
            expect = first_block_witness(g, b, x, constraint, solvable)
            assert (w and (w.y, w.prime)) == expect, (seed, x.cycles(), constraint)
            assert w is None or witness_is_valid(w, ambient=g), (seed, x.cycles(), constraint)
    for method in (METHOD_B1, METHOD_ODD_P, METHOD_COMBINED):
        r = radical_by_method(g, method)[0]
        assert r.order == radical.order, (seed, method)
        assert all(radical.contains(p) for p in r.generators), (seed, method)
