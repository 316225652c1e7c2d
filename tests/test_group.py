"""Group engine: order, membership, enumeration, closures, classes.

The independent oracle here is plain breadth-first closure over element sets,
with no stabilizer chains involved; everything the engine reports for groups
of a few thousand elements is compared against it.
"""

import random

import pytest

from radlab import catalog, verify
from radlab import group as group_module
from radlab.arith import factorize, p_part
from radlab.criteria import find_witness, member_b1, member_combined
from radlab.errors import CapExceededError, DegreeMismatchError, PreconditionError
from radlab.group import SYLOW_DRAWS, TAIL_LIMIT, PermutationGroup, group_from_cycles
from radlab.perm import Perm, format_cycles, inv, is_ident, mul, pow_table, table_order, wide
from radlab.structure import _commutator_tables, derived_subgroup, solvable_radical
from radlab.verify import verify_cvl, verify_equivalence


def brute_closure(degree, gens, limit=50_000):
    """All products of generators, by BFS from the identity."""
    ident = Perm.identity(degree)
    seen = {ident}
    frontier = [ident]
    while frontier:
        nxt = []
        for g in frontier:
            for s in gens:
                h = g * s
                if h not in seen:
                    seen.add(h)
                    nxt.append(h)
                    if len(seen) > limit:
                        raise AssertionError("oracle limit exceeded")
        frontier = nxt
    return seen


def G(degree, *cycles):
    return group_from_cycles(degree, list(cycles))


def test_order_known_values():
    assert PermutationGroup(4, []).order == 1
    assert G(4, "(1 2)", "(1 2 3 4)").order == 24
    assert G(5, "(1 2 3 4 5)", "(3 4 5)").order == 60


def test_order_matches_brute_closure():
    cases = [
        (3, ["(1 2)", "(1 2 3)"]),
        (4, ["(1 2)", "(1 2 3 4)"]),
        (4, ["(1 2 3)", "(2 3 4)"]),
        (5, ["(1 2 3 4 5)", "(3 4 5)"]),
        (6, ["(1 2 3 4 5 6)", "(1 2)"]),
        (7, ["(1 2 3 4 5 6 7)", "(1 2)(3 6)"]),
        (8, ["(1 2 3 4 5 6 7 8)", "(1 2)"]),
        (12, ["(1 2 3 4 5 6 7 8 9 10 11 12)"]),
    ]
    for degree, cycles in cases:
        g = G(degree, *cycles)
        oracle = brute_closure(degree, g.generators)
        assert g.order == len(oracle), cycles


def test_elements_match_brute_closure():
    g = G(5, "(1 2 3 4 5)", "(3 4 5)")
    engine = set(g.elements())
    oracle = brute_closure(5, g.generators)
    assert engine == oracle
    assert len(engine) == 60


def test_elements_trivial_group():
    assert list(PermutationGroup(3, []).elements()) == [Perm.identity(3)]


def test_elements_respects_cap():
    g = G(8, "(1 2 3 4 5 6 7 8)", "(1 2)")  # order 40320
    with pytest.raises(CapExceededError):
        list(g.elements(cap=1000))


def test_contains():
    a4 = G(4, "(1 2 3)", "(2 3 4)")
    assert Perm.identity(4) in a4
    assert Perm.from_cycles("(1 2)", 4) not in a4
    assert Perm.from_cycles("(1 2 3)", 4) in a4
    with pytest.raises(DegreeMismatchError):
        a4.contains(Perm.from_cycles("(1 2 3)", 5))


def test_contains_matches_enumeration():
    g = G(5, "(1 2 3 4 5)", "(1 2)(3 4)")  # A5 again, different generators
    members = brute_closure(5, g.generators)
    rng = random.Random(41)
    for _ in range(200):
        images = list(range(5))
        rng.shuffle(images)
        p = Perm.from_images(images, 5)
        assert g.contains(p) == (p in members)


def test_subgroup():
    s3 = G(3, "(1 2 3)", "(1 2)")
    sub = s3.subgroup([Perm.from_cycles("(1 2 3)", 3)])
    assert sub.order == 3
    assert s3.subgroup([]).order == 1
    assert s3.subgroup(s3.generators).order == 6


def test_normal_closure_identity():
    s4 = G(4, "(1 2)", "(1 2 3 4)")
    assert s4.normal_closure([Perm.identity(4)]).order == 1


def test_normal_closure_klein_in_s4():
    s4 = G(4, "(1 2)", "(1 2 3 4)")
    cl = s4.normal_closure([Perm.from_cycles("(1 2)(3 4)", 4)])
    assert cl.order == 4
    # exactly the three double transpositions plus the identity
    expect = {
        Perm.identity(4),
        Perm.from_cycles("(1 2)(3 4)", 4),
        Perm.from_cycles("(1 3)(2 4)", 4),
        Perm.from_cycles("(1 4)(2 3)", 4),
    }
    assert set(cl.elements()) == expect


def test_normal_closure_transposition_is_whole_s4():
    s4 = G(4, "(1 2)", "(1 2 3 4)")
    assert s4.normal_closure([Perm.from_cycles("(1 2)", 4)]).order == 24


def test_normal_closure_is_normal_and_minimal():
    # closure contains the seeds, is closed under conjugation, and any
    # normal subgroup containing the seeds contains it
    s4 = G(4, "(1 2)", "(1 2 3 4)")
    seed = Perm.from_cycles("(1 2 3)", 4)
    cl = s4.normal_closure([seed])
    assert cl.order == 12
    members = set(cl.elements())
    assert seed in members
    for m in list(members)[:12]:
        for g in s4.generators:
            assert g.inverse() * m * g in members


class FullSweepClosure:
    """_normal_closure_tables and the commutator seeds before the stop at the
    ambient order: every adopted generator is conjugated by every generator of
    g, and the seeds run over all ordered generator pairs."""

    def __init__(self, g):
        self.g = g

    def closure(self, seed_tables):
        g = self.g
        n = PermutationGroup(g.degree, [])
        queue = []
        for t in seed_tables:
            if not is_ident(t) and n._adopt(t):
                queue.append(t)
        qi = 0
        while qi < len(queue):
            y = queue[qi]
            qi += 1
            for h, hinv in zip(g.gens, g.gen_invs):
                z = mul(mul(hinv, y), h)
                if not n.contains_table(z):
                    n._adopt(z)
                    queue.append(z)
        return n

    def commutator_seeds(self):
        g = self.g
        out = []
        for a, ainv in zip(g.gens, g.gen_invs):
            for b, binv in zip(g.gens, g.gen_invs):
                comm = mul(mul(mul(ainv, binv), a), b)
                if not is_ident(comm) and comm not in out:  # [a, a] is the identity
                    out.append(comm)
        return out


def test_closure_stop_matches_the_full_sweep(corpus):
    stopped = 0
    for name, g in corpus.items():
        ref = FullSweepClosure(g)
        cases = [([rep], g._normal_closure_tables([rep]), ref.closure([rep]))
                 for rep, _size in g.class_representatives_tables(None)]
        cases.append((_commutator_tables(g), derived_subgroup(g),
                      ref.closure(ref.commutator_seeds())))
        for seeds, n, expect in cases:
            where = (name, [format_cycles(t, g.degree) for t in seeds[:1]])
            assert n.order == expect.order, where
            assert all(expect.contains_table(t) for t in n.gens), where
            for t in n.gens:
                for h, hinv in zip(g.gens, g.gen_invs):
                    assert n.contains_table(mul(mul(hinv, t), h)), where
            # the stop skips only conjugates already inside, so the closure
            # adopts the same generators in the same order
            assert n.gens == expect.gens, where
            stopped += n.order == g.order
    assert stopped > 100  # most class closures of the corpus are all of G


def test_conjugacy_class_sizes_s3():
    s3 = G(3, "(1 2 3)", "(1 2)")
    ident_class = s3.conjugacy_class(Perm.identity(3))
    assert ident_class.size == 1
    c = s3.conjugacy_class(Perm.from_cycles("(1 2)", 3))
    assert c.size == 3
    # direct conjugation oracle over all 6 elements
    x = Perm.from_cycles("(1 2)", 3)
    oracle = {g.inverse() * x * g for g in s3.elements()}
    assert c.size == len(oracle)
    assert set(c.members) == oracle


def test_class_partition_matches_brute_conjugation():
    for degree, cycles in [
        (4, ["(1 2)", "(1 2 3 4)"]),
        (5, ["(1 2 3 4 5)", "(3 4 5)"]),
        (6, ["(1 2 3 4 5 6)", "(2 6)(3 5)"]),
    ]:
        g = G(degree, *cycles)
        everyone = list(g.elements())
        oracle_classes = set()
        for x in everyone:
            cls = frozenset(h.inverse() * x * h for h in everyone)
            oracle_classes.add(cls)
        engine = g.class_representatives()
        assert len(engine) == len(oracle_classes)
        assert sum(c.size for c in engine) == g.order
        for c in engine:
            cls = frozenset(h.inverse() * c.representative * h for h in everyone)
            assert c.size == len(cls)


def test_class_representatives_order_filter():
    s3 = G(3, "(1 2 3)", "(1 2)")
    reps2 = s3.class_representatives(order_filter=2)
    assert len(reps2) == 1 and reps2[0].size == 3
    reps1 = s3.class_representatives(order_filter=1)
    assert len(reps1) == 1 and reps1[0].representative.is_identity()
    a4 = G(4, "(1 2 3)", "(2 3 4)")
    reps3 = a4.class_representatives(order_filter=3)
    assert sorted(c.size for c in reps3) == [4, 4]


def test_least_conjugate_against_the_enumeration():
    # r must be the first member of t's class in tables() order, d must
    # conjugate r to t, and the size must be the class's; A5wr2 lists more
    # than two generators, so its map runs over a drawn generating pair
    for name in ("S5", "PSL2_7", "A5wr2"):
        g = catalog.build_named(name)
        n = g.degree
        first = {}
        for t in g.tables():
            if t not in first:
                first.update(dict.fromkeys(g.conjugacy_class_tables(t)[0], t))
        sizes = dict(catalog.build_named(name).class_representatives_tables())
        for t in g.tables():
            r, d, size = g.least_conjugate(t)
            assert r == first[t] and size == sizes[r], (name, format_cycles(t, n))
            assert (d is None) == (r == t)
            assert d is None or mul(mul(inv(d, n), r), d) == t
        # a representative the group has listed is its own r, with no conjugator
        assert dict(g.class_representatives_tables()) == sizes
        for t, size in sizes.items():
            assert g.least_conjugate(t) == (t, None, size)
        assert g.least_conjugate(g.gens[0], cap=g.order - 1) == (g.gens[0], None, None)


def test_involution_class_size_psl2_7():
    g = catalog.build_named("PSL2_7")
    assert g.order == 168
    for c in g.class_representatives(order_filter=2):
        assert c.size >= 21


def test_p_element_tables():
    s4 = G(4, "(1 2)", "(1 2 3 4)")
    assert list(s4.p_element_tables(5)) == []
    s3 = G(3, "(1 2 3)", "(1 2)")
    twos = [Perm(3, t) for t in s3.p_element_tables(2)]
    assert sorted(p.cycles() for p in twos) == ["(1 2)", "(1 3)", "(2 3)"]
    a4 = G(4, "(1 2 3)", "(2 3 4)")
    assert len(list(a4.p_element_tables(3))) == 8
    with pytest.raises(PreconditionError):  # p = 1 is refused, not looped on
        s4.p_element_tables(1)


def test_base_and_order_consistency():
    for degree, cycles in [
        (5, ["(1 2 3 4 5)", "(3 4 5)"]),
        (7, ["(1 2 3 4 5 6 7)", "(1 2)(3 6)"]),
        (8, ["(1 2 3 4 5 6 7 8)", "(1 2)"]),
    ]:
        g = G(degree, *cycles)
        # order is the product of the orbit sizes along the stabilizer chain
        prod = 1
        for lvl in g._levels:
            prod *= len(lvl.orbit)
        assert prod == g.order
        for s in g.strong_generators():
            assert g.contains(s)


def test_random_element_is_member_and_seeded():
    g = G(5, "(1 2 3 4 5)", "(3 4 5)")
    rng1, rng2 = random.Random(99), random.Random(99)
    xs = [g.random_element(rng1) for _ in range(30)]
    ys = [g.random_element(rng2) for _ in range(30)]
    assert xs == ys
    assert all(g.contains(x) for x in xs)
    # not constant (A5 has 60 elements; 30 draws hitting one value is broken)
    assert len(set(xs)) > 1


def test_pair_group():
    a = Perm.from_cycles("(1 2 3 4 5)", 5)
    b = Perm.from_cycles("(1 2)(3 4)", 5)
    pg = PermutationGroup(5, [a, b])
    assert pg.order == 60


def test_group_from_cycles_degree_check():
    with pytest.raises(DegreeMismatchError):
        PermutationGroup(4, [Perm.from_cycles("(1 2)", 5)])


def test_canonical_is_stable_key():
    t = Perm.from_cycles("(1 2 3)", 5).t
    assert format_cycles(t, 5) == format_cycles(t, 5)
    s = Perm.from_cycles("(1 3 2)", 5).t
    assert format_cycles(t, 5) != format_cycles(s, 5)


def test_tables_enumeration_is_deterministic():
    g = G(5, "(1 2 3 4 5)", "(3 4 5)")
    first = [bytes(t) for t in g.tables()]
    second = [bytes(t) for t in g.tables()]
    assert first == second
    assert len(first) == 60


def odometer_tables(g):
    """Plain odometer over every chain level, one product per element: the
    enumeration order tables() must keep."""
    levels = g._levels
    if not levels:
        yield g._ident
        return
    k = len(levels)
    us = [[pair[0] for pair in lvl.orbit.values()] for lvl in levels]
    sizes = [len(u) for u in us]
    idx = [0] * k
    partial = [g._ident] * (k + 1)
    i = 0
    while True:
        while i < k:
            u = us[i][idx[i]]
            partial[i + 1] = mul(u, partial[i]) if idx[i] else partial[i]
            i += 1
        yield partial[k]
        i = k - 1
        while i >= 0:
            idx[i] += 1
            if idx[i] < sizes[i]:
                break
            idx[i] = 0
            i -= 1
        if i < 0:
            return


def test_tables_match_reference_order(corpus):
    psl28 = catalog.cvl_realization("PSL2_8")
    # degree above 256: tuple tables, four chain levels
    wide = G(300, "(1 2 3 4 5 6)", "(1 2)", "(290 291 292)")
    groups = dict(corpus, PSL2_8_aut=psl28.group, PSL2_8_socle=psl28.socle, wide=wide)
    assert type(wide._ident) is tuple
    for name, g in groups.items():
        assert list(g.tables()) == list(odometer_tables(g)), name
    assert len(list(wide.tables())) == 2160


def reference_tables(g):
    """tables() as it was before the recursive walk: an index odometer over
    the levels that are not folded into the tail, each partial product
    composed with the whole tail."""
    levels = g._levels
    if not levels:
        yield g._ident
        return
    compose = g._mul
    pad = g._pad
    us = [[pair[0] + pad for pair in lvl.orbit.values()] for lvl in levels[:-1]]
    tail = [pair[0] for pair in levels[-1].orbit.values()]
    while us and len(us[-1]) * len(tail) <= TAIL_LIMIT:
        tail = [compose(t, u) for u in us.pop() for t in tail]
    k = len(us)
    sizes = [len(u) for u in us]
    idx = [0] * k
    partial = [g._ident + pad] * (k + 1)
    i = 0
    while True:
        while i < k:
            u = us[i][idx[i]]
            partial[i + 1] = compose(u, partial[i]) if idx[i] else partial[i]
            i += 1
        top = partial[k]
        yield from [compose(t, top) for t in tail]
        i = k - 1
        while i >= 0:
            idx[i] += 1
            if idx[i] < sizes[i]:
                break
            idx[i] = 0
            i -= 1
        if i < 0:
            return


def test_tables_match_the_folded_odometer():
    # every catalog group and CVL realization, element for element, plus the
    # trivial group and a degree-300 group (tuple tables)
    groups = catalog_groups()
    groups["trivial"] = PermutationGroup(5, [])
    groups["wide"] = G(300, "(1 2 3 4 5 6)", "(1 2)", "(290 291 292)", "(100 101 102 103 104)")
    assert type(groups["wide"]._ident) is tuple
    for name, g in groups.items():
        got = list(g.tables(g.order))
        assert got == list(reference_tables(g)), name
        assert len(got) == g.order, name


def test_every_table_handed_out_has_the_degree_length():
    # at degree 256 the A5 moves the last point, where a table needs no pad
    groups = [
        G(5, "(1 2 3 4 5)", "(3 4 5)"),
        G(256, "(252 253 254 255 256)", "(252 253 254)", "(1 2 3)"),
        catalog.build_named("S3xA5"),
        catalog.cvl_realization("PSL2_8").group,
    ]
    for g in groups:
        n = g.degree
        primes = factorize(g.order).primes
        handed = {
            "tables": list(g.tables()),
            "strong": g.strong_tables(),
            "gens": g.gens + g.gen_invs,
            "pair": [t for pair in g.generating_pair() for t in pair],
            "random": [g.random_element(random.Random(seed)).t for seed in range(5)],
            "derived": derived_subgroup(g).gens,
        }
        for p in primes:
            handed[f"p_elements {p}"] = list(g.p_element_tables(p))
            handed[f"sylow {p}"] = g.sylow(p, random.Random(0)).gens
            handed[f"reps {p}"] = [t for t, _size in g.class_representatives_tables(p)]
        reps = [t for t, _size in g.class_representatives_tables(None)]
        handed["reps"] = reps
        handed["class"] = g.conjugacy_class_tables(reps[-1])[0]
        handed["closure"] = g._normal_closure_tables(reps[1:2]).gens
        radical = solvable_radical(g)
        x = next(Perm(n, t) for t in reps if not radical.contains_table(t))
        witnesses = [find_witness(g, x), member_b1(g, x).witness, member_combined(g, x).witness]
        handed["witness"] = [t for w in witnesses for t in (w.x.t, w.y.t)]
        for what, tables in handed.items():
            assert tables, (g, what)
            assert all(type(t) is bytes and len(t) == n for t in tables), (g, what)


def brute_classes(elements, n, k):
    """(first member, size) of each class of elements of order k, in
    enumeration order, by conjugating with every element."""
    seen = set()
    out = []
    for t in elements:
        if t in seen or table_order(t, n) != k:
            continue
        members = {mul(mul(inv(c, n), t), c) for c in elements}
        seen |= members
        out.append((t, len(members)))
    return out


def test_p_power_checker_and_order_filter_match_table_order():
    for g in (catalog.symmetric(6), catalog.build_named("PGL2_7")):
        n = g.degree
        elements = list(g.tables())
        for p, pe in ((2, 2), (2, 4), (2, 8), (3, 3), (3, 9), (5, 5), (7, 7)):
            check = g._p_power_checker(p, pe)
            expect = [t for t in elements if not is_ident(t) and pe % table_order(t, n) == 0]
            assert [t for t in elements if check(t)] == expect, (g, p, pe)
        for k in range(1, 9):
            got = [(c.representative.t, c.size) for c in g.class_representatives(order_filter=k)]
            assert got == brute_classes(elements, n, k), (g, k)


def brute_p_elements(g, p):
    n = g.degree
    out = []
    for t in g.tables():
        o = table_order(t, n)
        while o % p == 0:
            o //= p
        if o == 1 and t != g._ident:
            out.append(t)
    return out


def test_p_element_stream_interleaved_iterations(monkeypatch):
    g = catalog.build_named("PGL2_7")
    expect = brute_p_elements(g, 2)
    pulled = []
    enumerate_tables = g.tables

    def counting(cap):
        for t in enumerate_tables(cap):
            pulled.append(t)
            yield t

    monkeypatch.setattr(g, "tables", counting)
    stream = g.p_element_tables(2)
    first = iter(stream)
    head = [next(first) for _ in range(3)]
    second = iter(stream)
    head2 = [next(second) for _ in range(7)]
    assert head == expect[:3] and head2 == expect[:7]
    assert head + list(first) == expect
    assert head2 + list(second) == expect
    assert len(pulled) == g.order
    # once the source is exhausted, an iteration replays the whole list and
    # pulls nothing more from the enumeration
    assert list(stream) == expect
    assert len(pulled) == g.order
    assert g.p_element_tables(2) is stream


def test_p_element_stream_full_after_partial():
    g = catalog.symmetric(5)
    expect = brute_p_elements(g, 3)
    stream = g.p_element_tables(3)
    partial = iter(stream)
    assert [next(partial), next(partial)] == expect[:2]
    assert list(stream) == expect
    assert list(partial) == expect[2:]
    assert list(g.p_element_tables(5)) == brute_p_elements(g, 5)


def test_p_element_stream_fresh_after_adopt():
    g = G(5, "(1 2 3)")
    stream = g.p_element_tables(3)
    assert next(iter(stream)) in brute_p_elements(g, 3)
    assert g._adopt(Perm.from_cycles("(3 4 5)", 5).t)
    grown = g.p_element_tables(3)
    assert grown is not stream
    assert list(grown) == brute_p_elements(g, 3)
    assert len(list(grown)) == 20


def test_p_element_stream_cap_does_not_poison_cache():
    g = G(4, "(1 2)", "(1 2 3 4)")
    with pytest.raises(CapExceededError):
        g.p_element_tables(2, cap=10)
    assert list(g.p_element_tables(2, cap=100)) == brute_p_elements(g, 2)
    assert len(brute_p_elements(g, 2)) == 15


def test_chain_least_follows_enumeration_order(corpus):
    psl28 = catalog.cvl_realization("PSL2_8")
    wide = G(300, "(1 2 3 4 5 6)", "(1 2)", "(290 291 292)")
    groups = dict(corpus, PSL2_8_aut=psl28.group, wide=wide)
    rng = random.Random(7)
    for name, g in groups.items():
        if g.order > 3000:
            continue
        elements = list(g.tables())
        positions = [g._chain_least([t])[0] for t in elements]
        assert positions == sorted(positions), name
        assert len(set(positions)) == len(elements), name
        for _ in range(5):
            sample = rng.sample(elements, min(7, len(elements)))
            first = min(sample, key=elements.index)
            assert g._chain_least(sample)[1] == first, name


def cvl_runnable_groups():
    """(label, Aut(G0), x order) for every runnable CVL pair."""
    out = []
    for lst in catalog.CVL_LISTS.values():
        for entry in lst.entries:
            if entry.runnable:
                real = catalog.cvl_realization(entry.socle)
                out.append((f"{lst.name}/{entry.socle}", real.group, lst.x_order))
    return out


def test_sylow_classes_match_filter_path_on_cvl_pairs():
    cases = cvl_runnable_groups()
    assert len(cases) == 19
    for label, g, p in cases:
        expect = g._classes_by_enumeration(p, 260_000)
        assert list(g.class_representatives_tables(p, cap=260_000)) == expect, label


def test_sylow_classes_match_filter_path_on_corpus():
    for name in catalog.CORPUS:
        g = catalog.build_named(name)
        for p in (2, 3):
            expect = g._classes_by_enumeration(p, 200_000)
            assert list(g.class_representatives_tables(p)) == expect, (name, p)


def test_sylow_subgroup_certificate(corpus):
    groups = dict(corpus, PSp4_3_aut=catalog.cvl_realization("PSp4_3").group)
    for name, g in groups.items():
        for p in (2, 3, 5, 7):
            sub = g.sylow(p, random.Random(1))
            assert sub is not None, (name, p)
            assert sub.order == p_part(g.order, p), (name, p)
            assert all(g.contains_table(t) for t in sub.gens), (name, p)
            # a p-group: every element has p-power order
            for t in sub.tables(sub.order):
                assert p_part(table_order(t, g.degree), p) == table_order(t, g.degree)


def test_sylow_is_seeded_and_budgeted(monkeypatch):
    g = catalog.cvl_realization("PSL3_3").group
    first = g.sylow(2, random.Random(5))
    again = catalog.cvl_realization("PSL3_3").group.sylow(2, random.Random(5))
    assert first.gens == again.gens and first.order == 32
    monkeypatch.setattr(group_module, "SYLOW_DRAWS", 0)
    assert g.sylow(2, random.Random(5)) is None
    # nothing to draw when p does not divide |G|
    assert g.sylow(7, random.Random(5)).order == 1


def test_sylow_budget_exhausted_falls_back_to_same_classes(monkeypatch):
    for name, p in (("A7", 3), ("PGL2_7", 2), ("A5wr2", 2)):
        expect = list(catalog.build_named(name).class_representatives_tables(p))
        g = catalog.build_named(name)
        draw = g.sylow
        calls = []

        def no_draws(q, rng):
            calls.append(q)
            sub = draw(q, rng)
            assert sub is None
            return sub

        with monkeypatch.context() as m:
            m.setattr(g, "sylow", no_draws)
            m.setattr(group_module, "SYLOW_DRAWS", 0)
            assert list(g.class_representatives_tables(p)) == expect, name
        assert calls == [p]


def test_class_list_cap_checked_on_first_next():
    g = catalog.cvl_realization("PSL3_3").group
    for p in (2, 3, None):
        with pytest.raises(CapExceededError):
            next(g.class_representatives_tables(p, cap=g.order - 1))
        # a warm list is refused at the same cap
        assert list(g.class_representatives_tables(p, cap=g.order))
        with pytest.raises(CapExceededError):
            next(g.class_representatives_tables(p, cap=g.order - 1))


def test_class_list_built_once_and_cleared_on_growth(monkeypatch):
    g = catalog.build_named("S3xA5")
    built = []
    enumerate_classes = g._classes_by_enumeration

    def counting(order_filter, cap):
        built.append(order_filter)
        return enumerate_classes(order_filter, cap)

    monkeypatch.setattr(g, "_classes_by_enumeration", counting)
    verify_equivalence(g, "S3xA5")
    assert built == [None]
    h = G(5, "(1 2 3)")
    assert len(h.class_representatives()) == 3
    assert h._adopt(Perm.from_cycles("(3 4 5)", 5).t)
    assert sorted(c.size for c in h.class_representatives()) == [1, 12, 12, 15, 20]


def reference_verify_level(self, i):
    """_verify_level before the identity skip: every Schreier generator is
    composed in full and compared with the identity."""
    lvl = self._levels[i]
    reference_rebuild_orbit(self, lvl)
    orbit = lvl.orbit
    ident = self._ident
    for p, (u, _uinv) in orbit.items():
        for s in lvl.gens:
            q = s[p]
            schreier = mul(mul(u, s), orbit[q][1])
            if schreier == ident:
                continue
            res, j = self._sift(schreier, i + 1)
            if res != ident:
                self._insert_strong(i + 1, j, res)


def reference_rebuild_orbit(self, lvl):
    """Every orbit point gets a fresh (u, u^-1), u^-1 padded as the
    library stores it."""
    ident = self._ident
    orbit = {lvl.base: (ident, wide(ident))}
    queue = [lvl.base]
    qi = 0
    while qi < len(queue):
        p = queue[qi]
        qi += 1
        u = orbit[p][0]
        for s in lvl.gens:
            q = s[p]
            if q not in orbit:
                uq = mul(u, s)
                orbit[q] = (uq, wide(inv(uq, self.degree)))
                queue.append(q)
    lvl.orbit = orbit


def chain_snapshot(g):
    return [(lvl.base, list(lvl.gens), list(lvl.orbit.items())) for lvl in g._levels]


def catalog_groups():
    groups = {name: catalog.build_named(name) for name in catalog.CORPUS}
    for socle in catalog._REALIZERS:
        real = catalog.cvl_realization(socle)
        groups[socle + "/aut"] = real.group
        groups[socle + "/socle"] = real.socle
    return groups


def chains_of_catalog_groups():
    return {name: chain_snapshot(g) for name, g in catalog_groups().items()}


def test_identity_skip_builds_the_same_chains(monkeypatch):
    chains = chains_of_catalog_groups()
    assert len(chains) == len(catalog.CORPUS) + 2 * 12
    monkeypatch.setattr(PermutationGroup, "_verify_level", reference_verify_level)
    monkeypatch.setattr(PermutationGroup, "_rebuild_orbit", reference_rebuild_orbit)
    expect = chains_of_catalog_groups()
    for name, chain in expect.items():
        assert chains[name] == chain, name


def chains_the_scans_build(monkeypatch, real):
    """Snapshot of every chain state the three runs reach, one per
    _add_generator call that grew a group, in call order."""
    states = []

    def recording(self, t):
        grew = real(self, t)
        if grew:
            states.append(chain_snapshot(self))
        return grew

    monkeypatch.setattr(PermutationGroup, "_add_generator", recording)
    # verify_cvl keeps its realization: build it again in both runs
    verify._REALIZATIONS.clear()
    for name in ("S3xA5", "PSL2_7"):
        assert verify_equivalence(catalog.build_named(name), name).status == "verified"
    assert verify_cvl("PSL3_2", "CVL2").status == "verified"
    return states


def test_every_chain_the_scans_build_is_the_reference_chain(monkeypatch):
    # every pair subgroup, derived term and closure of three harness runs,
    # after every growth step, built with the Schreier and inverse memos and
    # with the reference functions above, which keep no Schreier memo
    add_generator = PermutationGroup._add_generator
    states = chains_the_scans_build(monkeypatch, add_generator)
    monkeypatch.setattr(PermutationGroup, "_verify_level", reference_verify_level)
    monkeypatch.setattr(PermutationGroup, "_rebuild_orbit", reference_rebuild_orbit)
    expect = chains_the_scans_build(monkeypatch, add_generator)
    assert len(states) == len(expect) > 400
    for i, (got, want) in enumerate(zip(states, expect)):
        assert got == want, i


def test_proven_schreier_generators_stay_in_the_deeper_group():
    # every Schreier generator a level keeps as proven sifts to the identity
    # through the levels below it, after every growth step: catalog chains,
    # and closures that grow by one _adopt at a time
    groups = catalog_groups()
    s7 = catalog.build_named("S7")
    groups["A7 closure"] = s7.normal_closure([Perm.from_cycles("(1 2 3)", 7)])
    assert len(groups["A7 closure"].gens) > 1
    groups["S3xA5 radical"] = solvable_radical(catalog.build_named("S3xA5"))
    for label, g in groups.items():
        for i, lvl in enumerate(g._levels):
            for s in lvl.proven:
                assert g._sift(s, i + 1)[0] == g._ident, (label, i)
    assert all(lvl.proven for lvl in groups["A7 closure"]._levels[:-1])


def reference_sylow(g, p, rng, budget=SYLOW_DRAWS):
    """sylow() without the orbit pre-check: every candidate builds a chain."""
    n = g.degree
    target = p_part(g.order, p)
    sub = PermutationGroup(n, [])
    draws = 0
    while sub.order < target:
        if draws >= budget:
            return None
        draws += 1
        y = g.random_element(rng).t
        o = table_order(y, n)
        y = pow_table(y, o // p_part(o, p), n)
        if is_ident(y) or sub.contains_table(y):
            continue
        grown = PermutationGroup(n, [Perm(n, t) for t in sub.gens + [y]])
        if p_part(grown.order, p) == grown.order:
            sub = grown
    return sub


def test_sylow_orbit_check_keeps_the_same_subgroup(corpus):
    cases = cvl_runnable_groups()
    cases += [(name, g, p) for name, g in corpus.items() for p in (2, 3)]
    for label, g, p in cases:
        for seed in range(3):
            sub = g.sylow(p, random.Random(seed))
            ref = reference_sylow(g, p, random.Random(seed))
            assert sub.gens == ref.gens, (label, p, seed)


def orbit_lengths(tables, degree):
    lengths = []
    left = set(range(degree))
    while left:
        orbit = {left.pop()}
        new = orbit
        while new:
            new = {t[pt] for t in tables for pt in new} - orbit
            orbit |= new
        left -= orbit
        lengths.append(len(orbit))
    return lengths


def test_sylow_builds_no_chain_for_a_non_p_power_orbit(monkeypatch):
    g = catalog.cvl_realization("PSL3_3").group
    built = []
    init = PermutationGroup.__init__

    def counting(self, degree, generators, name=None):
        built.append([x.t for x in generators])
        init(self, degree, generators, name)

    def p_power_orbits(tables):
        return all(p_part(k, 2) == k for k in orbit_lengths(tables, g.degree))

    monkeypatch.setattr(PermutationGroup, "__init__", counting)
    ref = reference_sylow(g, 2, random.Random(0))
    ref_built = built[:]
    built.clear()
    sub = g.sylow(2, random.Random(0))
    assert sub.gens == ref.gens and sub.order == 32
    refused = [gens for gens in ref_built if not p_power_orbits(gens)]
    assert refused
    assert built == [gens for gens in ref_built if p_power_orbits(gens)]


def test_p_element_filter_matches_pow_table_stream():
    for name in catalog.CORPUS:
        g = catalog.build_named(name)
        ident = g._ident
        for p in factorize(g.order).primes:
            pe = p_part(g.order, p)
            expect = [
                t for t in g.tables() if t != ident and pow_table(t, pe, g.degree) == ident
            ]
            assert list(g.p_element_tables(p)) == expect, (name, p)


def reference_class(g, t):
    """Class BFS conjugating by every listed generator, as before the
    generating pair: the member set conjugacy_class_tables must return."""
    seen = {t}
    queue = [t]
    for y in queue:  # the list grows as it is read: breadth-first
        for s, sinv in zip(g.gens, g.gen_invs):
            z = mul(mul(sinv, y), s)
            if z not in seen:
                seen.add(z)
                queue.append(z)
    return seen


def pair_test_groups(corpus):
    wide = G(300, "(1 2 3 4 5 6)", "(1 2)", "(290 291 292)")
    assert type(wide._ident) is tuple
    groups = dict(corpus, wide=wide)
    for socle in catalog._REALIZERS:
        groups[socle + "/aut"] = catalog.cvl_realization(socle).group
    assert len(groups) == len(catalog.CORPUS) + 1 + 12
    return groups


def assert_classes_match_reference(g, tables, label):
    """Every class met in `tables` equals the reference class as a set."""
    seen: set = set()
    for t in tables:
        if t in seen:
            continue
        members, size = g.conjugacy_class_tables(t)
        expect = reference_class(g, t)
        assert size == len(members) == len(expect), label
        assert set(members) == expect, label
        seen.update(members)


def test_generating_pair_generates_the_group(corpus):
    for name, g in pair_test_groups(corpus).items():
        pair = g.generating_pair()
        gens = [a for a, _ainv in pair]
        assert 1 <= len(gens) <= 2, name
        if len(g.gens) <= 2:
            assert gens == g.gens, name
        assert all(g.contains_table(a) for a in gens), name
        assert all(mul(a, ainv) == g._ident for a, ainv in pair), name
        # the certificate: the pair's subgroup has the order of the group
        assert PermutationGroup(g.degree, [Perm(g.degree, a) for a in gens]).order == g.order
        assert g.generating_pair() is pair  # cached
    # seeded: a second build of a group finds the same pair
    for name in ("S3xA5", "A5xA5", "PSL2_8"):
        first = catalog.build_named(name).generating_pair()
        assert first == catalog.build_named(name).generating_pair(), name


def test_pair_classes_match_listed_generator_classes(corpus):
    for name, g in pair_test_groups(corpus).items():
        # every class of the group; the larger ones below
        if g.order <= 20_000:
            assert_classes_match_reference(g, g.tables(), name)
    # on the larger realizations a full reference sweep takes about 12 s, so
    # these check the classes that verify_cvl lists, on all 19 runnable pairs
    for label, g, p in cvl_runnable_groups():
        reps = [t for t, _size in g.class_representatives_tables(p, cap=260_000)]
        assert_classes_match_reference(g, reps, label)


def test_generating_pair_falls_back_to_listed_generators(monkeypatch):
    # C2^3 and S3 x C2 x C2 need three generators, so no pair can pass
    c2_cubed = G(6, "(1 2)", "(3 4)", "(5 6)")
    s3_c2_c2 = G(7, "(1 2 3)", "(1 2)", "(4 5)", "(6 7)")
    for g in (c2_cubed, s3_c2_c2):
        assert [a for a, _ainv in g.generating_pair()] == g.gens
        assert_classes_match_reference(g, g.tables(), g.gens)
    assert len(c2_cubed.class_representatives()) == 8
    assert sorted(c.size for c in s3_c2_c2.class_representatives()) == [1] * 4 + [2] * 4 + [3] * 4
    # a budget of 0 draws falls back too, and the class lists are unchanged
    for name in ("S3xA5", "A5xA5", "PGL2_7"):
        expect = list(catalog.build_named(name).class_representatives_tables())
        g = catalog.build_named(name)
        assert len(g.gens) > 2
        with monkeypatch.context() as m:
            m.setattr(group_module, "PAIR_DRAWS", 0)
            assert [a for a, _ainv in g.generating_pair()] == g.gens
            assert list(g.class_representatives_tables()) == expect, name
        assert [a for a, _ainv in g.generating_pair()] == g.gens  # cached


def test_generating_pair_cleared_on_growth():
    h = G(5, "(1 2 3)")
    assert [a for a, _ainv in h.generating_pair()] == h.gens
    assert h._adopt(Perm.from_cycles("(3 4 5)", 5).t)
    assert h._pair is None
    assert PermutationGroup(5, [Perm(5, a) for a, _ainv in h.generating_pair()]).order == 60
    assert h.conjugacy_class_tables(Perm.from_cycles("(1 2 3)", 5).t)[1] == 20
