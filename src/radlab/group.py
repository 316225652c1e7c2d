"""Deterministic permutation group engine built on stabilizer chains.

The chain is computed by a deterministic Schreier-Sims procedure: base points
are chosen as the least moved point of each new residue, orbits are explored
breadth-first with generators in list order, and every data structure is an
insertion-ordered dict or list, so the chain, the element enumeration order,
and all downstream verdicts are reproducible run to run. A level is
re-verified each time a deeper strong generator lands, and for the life of
the group it sifts no Schreier generator that an earlier verification proved
to lie in the next level's group. Strong generators are only ever added, so
that group only grows, and the levels below a level being verified are
complete, so such a sift would return the identity and insert nothing: the
chain is the one that sifting everything builds. One breadth-first pass per
level rebuilds its orbit and sifts its Schreier generators together; a
rebuilt orbit keeps the pair (u, u^-1) of a point whose u is unchanged.

A conjugacy class is represented by its first member in enumeration order.
Classes of elements of a prime order p are found without enumerating the
group: every such element is conjugate into one Sylow p-subgroup, which
sylow() builds from seeded random draws, and the first member of a class is
the one whose sift positions through the chain are least, because the
enumeration runs over the chain with the shallowest level as its major
digit. A draw with a point orbit of non-p-power length is refused before its
chain is built, as every orbit of a p-group has p-power length. When the
draws run out, the classes come from filtering the full enumeration, so the
draws decide the time, never the answer. A class BFS conjugates by a
generating pair rather than by every listed generator: a group that lists
more than two generators draws seeded random pairs and keeps the first whose
subgroup has order |G|, which certifies that it generates G; a class is the
same set under any generating set. When the draws run out, the listed
generators are used. least_conjugate() maps an element to the least member r
of its class and a d with element = d^-1 * r * d: it lists the class once,
then a BFS from r over the generating pair records which generator first
reached each member (a Schreier vector), and d is the product of the
generators on the way back to r. So d depends only on the class, never on
which member was asked first; a listed class representative is entered as
its class's r, with no BFS. Class lists, the class map, p-element
streams, the pair and the criteria's scan memo are cached on the group and
dropped when it grows; the enumeration cap is checked before any cached
answer is returned.

Raw images tables (see perm.py) are used internally; the public surface talks
in Perm objects. Every table the group hands out or keys a set on is n bytes
for degree n <= 256; the loops keep padded copies (perm.wide) of the tables
they compose by: the strong generators of each level, the orbit inverses,
the transversals tables() walks and the conjugators of a BFS or closure. A
BFS or closure member and an element being powered are padded once per use.
"""

from __future__ import annotations

import itertools
import random

from .arith import is_prime, p_part
from .errors import (
    CapExceededError,
    DegreeMismatchError,
    MembershipError,
)
from .perm import (
    Perm,
    ident_table,
    inv,
    inv_wide,
    is_ident,
    min_moved,
    mul,
    pow_table,
    table_order,
    wide,
)

DEFAULT_ENUMERATION_CAP = 200_000
# tables() folds the deepest chain levels into one list of at most this many
# elements, so the fold stays small (512 byte tables take about 150 kB).
TAIL_LIMIT = 512
# sylow() gives up after this many random draws; the order-p class search
# then falls back to filtering the full enumeration
SYLOW_DRAWS = 1000
SYLOW_SEED = 0
# generating_pair() draws at most this many random pairs; the class BFS then
# conjugates by the listed generators
PAIR_DRAWS = 16


class _Level:
    __slots__ = ("base", "gens", "orbit", "proven")

    def __init__(self, base: int):
        self.base = base
        # strong generators, padded (perm.wide): the chain only composes by
        # them; strong_tables() cuts them back to n
        self.gens: list = []
        # point -> (u, u^-1 padded) with u mapping base to point; insertion = BFS order
        self.orbit: dict = {}
        # Schreier generators known to lie in the next level's group (see
        # _verify_level); kept for the life of the group
        self.proven: set = set()


class PermutationGroup:
    """Group generated by permutations of a fixed degree."""

    def __init__(self, degree: int, generators: list[Perm], name: str | None = None):
        if degree < 1:
            raise DegreeMismatchError(f"degree must be >= 1, got {degree}")
        for g in generators:
            if g.degree != degree:
                raise DegreeMismatchError(
                    f"generator degree {g.degree} does not match group degree {degree}"
                )
        self.degree = degree
        self.name = name
        self._ident = ident_table(degree)
        # t + _pad is wide(t) (see perm.py) without the call, for the loops
        # that pad a table per use; () for tuple tables
        self._pad = wide(self._ident)[degree:]
        # composition bound once for the hot loops (chain build, enumeration,
        # closures): bytes.translate on byte tables skips mul's type dispatch
        # and its pad, so the second argument must already be padded
        self._mul = bytes.translate if type(self._ident) is bytes else mul
        # input generators, identity dropped, order preserved, duplicates kept out
        tables = []
        for g in generators:
            if not is_ident(g.t) and g.t not in tables:
                tables.append(g.t)
        self.gens = tables
        self.gen_invs = [inv(t, degree) for t in tables]
        self._levels: list[_Level] = []
        self._order: int | None = None
        self._pelement_cache: dict[int, _FilledStream] = {}
        # order_filter -> [(rep_table, class_size)], in enumeration order
        self._class_cache: dict[int | None, list] = {}
        # member table -> generator index of its BFS parent in its class, or
        # minus the class size for the class's least member (every listed
        # class representative is one); see least_conjugate()
        self._class_map: dict = {}
        # what criteria.py's scans of this group stored; made and read there
        self.scan_memo: tuple | None = None
        # [(g, g^-1)] for a generating pair; see generating_pair()
        self._pair: list | None = None
        for t in tables:
            self._add_generator(t)

    # -- chain construction -------------------------------------------------

    def _sift(self, t, start: int = 0):
        """Reduce t through levels from `start`; return (residue, stop_level)."""
        i = start
        levels = self._levels
        compose = self._mul
        while i < len(levels):
            lvl = levels[i]
            p = t[lvl.base]
            if p != lvl.base:
                pair = lvl.orbit.get(p)
                if pair is None:
                    return t, i
                t = compose(t, pair[1])
            i += 1
        return t, i

    def _add_generator(self, t) -> bool:
        """Grow the chain by one table if it is not already a member."""
        res, i = self._sift(t)
        if res == self._ident:
            return False
        self._insert_strong(0, i, res)
        self._order = None
        self._pelement_cache.clear()
        self._class_cache.clear()
        self._class_map.clear()
        self.scan_memo = None
        self._pair = None
        return True

    def _adopt(self, t) -> bool:
        """Add t as a listed generator if it enlarges the group.

        Builders that grow a group element by element (normal closure, the
        radical) use this so that .gens stays a true generating list.
        """
        if self._add_generator(t):
            self.gens.append(t)
            self.gen_invs.append(inv(t, self.degree))
            return True
        return False

    def _insert_strong(self, start: int, j: int, t) -> None:
        """Install residue t (which fixes the base prefix of level j) as a strong
        generator of levels start..j, then re-verify those levels deepest-first.

        Levels below `start` generate the same subgroups as before (t is a word
        in their generators), so their orbits and checked Schreier pairs stay
        valid; the cascade never touches them.
        """
        if j == len(self._levels):
            self._levels.append(_Level(min_moved(t, self.degree)))
        tw = t + self._pad
        for m in range(start, j + 1):
            self._levels[m].gens.append(tw)
        for m in range(j, start - 1, -1):
            self._verify_level(m)

    def _verify_level(self, i: int) -> None:
        """Rebuild level i's orbit and sift its Schreier generators in one
        breadth-first walk over (point, generator) pairs (p, s): a pair
        reaching a new point q is a tree edge, u_q = u_p * s, and q keeps its
        old (u, u^-1) pair when that u is unchanged; any other pair gives the
        Schreier generator u_p * s * u_q^-1 at once. The chain is that of a
        full rebuild and a second walk: the pairs come in the same order,
        such a q already has its final u, and sifting and inserting touch
        only the levels below i, never level i's generators or its orbit.

        A Schreier generator in lvl.proven is skipped: an earlier
        verification of level i sifted it, or inserted its residue, so it
        lies in the group H of level i + 1. Strong generators are only ever
        added, so it stays in H, and the levels below i are complete for H
        whenever level i is verified (a cascade verifies deepest-first), so
        its sift would return the identity and insert nothing.
        """
        lvl = self._levels[i]
        proven = lvl.proven
        compose = self._mul
        ident = self._ident
        old = lvl.orbit
        orbit = {lvl.base: (ident, ident + self._pad)}
        queue = [lvl.base]
        for p in queue:  # the list grows as it is read: breadth-first
            u = orbit[p][0]
            for s in lvl.gens:
                us = compose(u, s)
                q = s[p]
                pair = orbit.get(q)
                if pair is None:  # a tree edge: us is u_q
                    pair = old.get(q)
                    if pair is None or pair[0] != us:
                        pair = (us, inv_wide(us, self.degree))
                    orbit[q] = pair
                    queue.append(q)
                elif us != pair[0]:  # else the Schreier generator is the identity
                    schreier = compose(us, pair[1])
                    if schreier not in proven:
                        proven.add(schreier)
                        res, j = self._sift(schreier, i + 1)
                        if res != ident:
                            self._insert_strong(i + 1, j, res)
        lvl.orbit = orbit

    # -- basic queries --------------------------------------------------------

    @property
    def order(self) -> int:
        if self._order is None:
            o = 1
            for lvl in self._levels:
                o *= len(lvl.orbit)
            self._order = o
        return self._order

    @property
    def base(self) -> tuple[int, ...]:
        """1-based base points of the chain."""
        return tuple(lvl.base + 1 for lvl in self._levels)

    def contains_table(self, t) -> bool:
        res, _ = self._sift(t)
        return res == self._ident

    def contains(self, p: Perm) -> bool:
        if p.degree != self.degree:
            raise DegreeMismatchError(
                f"element degree {p.degree} does not match group degree {self.degree}"
            )
        return self.contains_table(p.t)

    def __contains__(self, p: Perm) -> bool:
        return self.contains(p)

    @property
    def generators(self) -> list[Perm]:
        return [Perm(self.degree, t) for t in self.gens]

    def strong_tables(self) -> list:
        """Distinct strong generator tables, in level order."""
        n = self.degree
        return list(dict.fromkeys(t[:n] for lvl in self._levels for t in lvl.gens))

    def strong_generators(self) -> list[Perm]:
        return [Perm(self.degree, t) for t in self.strong_tables()]

    # -- element enumeration ---------------------------------------------------

    def _check_cap(self, cap: int) -> None:
        if self.order > cap:
            raise CapExceededError(
                f"group order {self.order} exceeds enumeration cap {cap}"
            )

    def tables(self, cap: int = DEFAULT_ENUMERATION_CAP):
        """Yield every element's raw table once, in deterministic chain order.

        The deepest levels are folded into one transversal of their products
        while it stays within TAIL_LIMIT elements. A recursive walk over the
        other levels, the shallowest as the major digit, composes each of
        their products with the whole folded transversal in one
        comprehension. Composition is associative, so the order is that of a
        walk over every level. The walked transversals and products are
        padded translate tables; the tail and every yielded table are not.
        """
        self._check_cap(cap)
        levels = self._levels
        compose = self._mul
        pad = self._pad
        us = [[pair[0] + pad for pair in lvl.orbit.values()] for lvl in levels[:-1]]
        tail = [pair[0] for pair in levels[-1].orbit.values()] if levels else [self._ident]
        while us and len(us[-1]) * len(tail) <= TAIL_LIMIT:
            tail = [compose(t, u) for u in us.pop() for t in tail]
        for chunk in _chunks(us, 0, self._ident + pad, tail, compose):
            yield from chunk

    def elements(self, cap: int = DEFAULT_ENUMERATION_CAP):
        """Yield every element once as Perm, in deterministic order."""
        for t in self.tables(cap):
            yield Perm(self.degree, t)

    def random_element(self, rng) -> Perm:
        """Uniformly random element from a seeded random.Random."""
        t = self._ident
        for lvl in self._levels:
            us = list(lvl.orbit.values())
            t = mul(us[rng.randrange(len(us))][0], t)
        return Perm(self.degree, t)

    # -- derived constructions ---------------------------------------------------

    def subgroup(self, gens: list[Perm], name: str | None = None) -> "PermutationGroup":
        """Group generated by gens, each of which must lie in this group."""
        for g in gens:
            if not self.contains(g):
                raise MembershipError(f"{g.cycles()} is not an element of the group")
        return PermutationGroup(self.degree, gens, name=name)

    def normal_closure(self, seeds: list[Perm]) -> "PermutationGroup":
        """Smallest normal subgroup containing seeds (which must lie in the group).

        Closure by FIFO conjugation sweep: each adopted generator is conjugated
        by every group generator in order; new elements join the queue. The
        sweep stops once the closure's order equals the ambient order, as a
        subgroup of that order is the whole group.
        """
        for g in seeds:
            if not self.contains(g):
                raise MembershipError(f"{g.cycles()} is not an element of the group")
        return self._normal_closure_tables([g.t for g in seeds])

    def _normal_closure_tables(self, seed_tables: list) -> "PermutationGroup":
        n = PermutationGroup(self.degree, [])
        full = self.order
        queue: list = []
        for t in seed_tables:
            if n._adopt(t):
                if n.order == full:
                    return n
                queue.append(t)
        compose = self._mul
        pad = self._pad
        conjugators = [(g + pad, ginv) for g, ginv in zip(self.gens, self.gen_invs)]
        for y in queue:  # the list grows as it is read
            yw = y + pad
            for g, ginv in conjugators:
                z = compose(compose(ginv, yw), g)
                if n._adopt(z):
                    if n.order == full:
                        return n
                    queue.append(z)
        return n

    def generating_pair(self) -> list:
        """[(g, g^-1)] for at most two tables that generate the group, cached.

        A group listing at most two generators uses its own. Otherwise seeded
        random pairs are drawn, and the first with |<a, b>| = |G| is kept:
        <a, b> <= G, so equal orders certify that it generates G. After
        PAIR_DRAWS draws the listed generators are used, so the draws cost
        time but never change a conjugation orbit.
        """
        if self._pair is None:
            gens = self.gens
            if len(gens) > 2:
                rng = random.Random(SYLOW_SEED)
                for _ in range(PAIR_DRAWS):
                    h = PermutationGroup(
                        self.degree, [self.random_element(rng), self.random_element(rng)]
                    )
                    if h.order == self.order:
                        gens = h.gens
                        break
            self._pair = [(g, inv(g, self.degree)) for g in gens]
        return self._pair

    def conjugacy_class_tables(self, t):
        """(members_in_BFS_order, size), by _class_bfs()."""
        tree = self._class_bfs(t)
        return list(tree), len(tree)

    def _class_bfs(self, t) -> dict:
        """t's class by BFS over generating_pair(), as a dict in BFS order: a
        member first reached as g_i^-1 * p * g_i from a member p maps to i,
        and t to -1. A member m = d^-1 * t * d so gives
        g_i^-1 * m * g_i = (d * g_i)^-1 * t * (d * g_i): walking the indices
        back to t rebuilds a conjugator.

        The BFS conjugates by generating_pair(), not by every listed
        generator. The class is the same set under any generating set; only
        the BFS order of the members depends on the pair.
        """
        compose = self._mul
        pad = self._pad
        conjugators = [(i, g + pad, ginv) for i, (g, ginv) in enumerate(self.generating_pair())]
        tree = {t: -1}
        queue = [t]
        for y in queue:  # the list grows as it is read: breadth-first
            yw = y + pad
            for i, g, ginv in conjugators:
                z = compose(compose(ginv, yw), g)
                if z not in tree:
                    tree[z] = i
                    queue.append(z)
        return tree

    def conjugacy_class(self, x: Perm) -> "ConjugacyClass":
        if not self.contains(x):
            raise MembershipError(f"{x.cycles()} is not an element of the group")
        members, size = self.conjugacy_class_tables(x.t)
        return ConjugacyClass(
            representative=x,
            size=size,
            members=tuple(Perm(self.degree, t) for t in members),
        )

    def least_conjugate(self, t, cap: int = DEFAULT_ENUMERATION_CAP):
        """(r, d, size) for a member table t: r the least member of t's class
        in tables() order, d with t = d^-1 * r * d (None when r is t), and
        the class size.

        t is its own r when |G| exceeds cap, as a class BFS is bounded only
        by |G|; the size is then None. A representative in a class list the
        group has made is in the class map already, as its class's root, so
        it lists nothing. Otherwise the class is listed once, r found by
        _chain_least, and a second _class_bfs, from r, maps the class, so
        that d, like r, depends on the class alone.
        """
        if self.order > cap:
            return t, None, None
        cmap = self._class_map
        i = cmap.get(t)
        if i is None:
            members, size = self.conjugacy_class_tables(t)
            r = self._chain_least(members)[1]
            cmap.update(self._class_bfs(r))
            cmap[r] = -size
            i = cmap[t]
        if i < 0:  # t is its class's root
            return t, None, -i
        compose, pad = self._mul, self._pad
        pair = self.generating_pair()
        r, d = t, None
        while i >= 0:
            # r = g^-1 * p * g for its BFS parent p, and d gains g in front
            g, ginv = pair[i]
            r = compose(compose(g, r + pad), ginv + pad)
            d = g if d is None else compose(g, d + pad)
            i = cmap[r]
        return r, d, -i

    def class_representatives_tables(
        self,
        order_filter: int | None = None,
        cap: int = DEFAULT_ENUMERATION_CAP,
    ):
        """Yield (rep_table, class_size) per conjugacy class, enumeration order.

        A class's representative is its first member in tables() order. With
        order_filter only classes of that exact element order are visited.
        The cap is checked against |G| on the first next(), whichever path
        runs, and the finished list is kept on the group, so a repeated call
        costs nothing.

        For a prime order_filter p the classes are seeded from a Sylow
        p-subgroup P: every element of order p is conjugate into P, so a
        class BFS from each unseen order-p element of P finds every class
        without enumerating G, and each representative is the member with
        the least chain position (_chain_least). When sylow() runs out of
        draws, the classes come from filtering the full enumeration instead,
        with the same result.
        """
        self._check_cap(cap)
        classes = self._class_cache.get(order_filter)
        if classes is None:
            if order_filter is not None and is_prime(order_filter):
                classes = self._classes_from_sylow(order_filter)
            if classes is None:
                classes = self._classes_by_enumeration(order_filter, cap)
            self._class_cache[order_filter] = classes
            # a representative is its class's least member: a class map root
            for rep, size in classes:
                self._class_map[rep] = -size
        yield from classes

    def _classes_by_enumeration(self, order_filter: int | None, cap: int) -> list:
        """Classes in order of their first member in tables(); with
        order_filter the seen-set holds only elements of that order."""
        tables = self.tables(cap)
        if order_filter is not None and is_prime(order_filter):
            tables = filter(self._p_power_checker(order_filter, order_filter), tables)
        elif order_filter is not None:
            n = self.degree
            tables = (t for t in tables if table_order(t, n) == order_filter)
        return [(t, size) for t, _members, size in self._classes_met(tables)]

    def _classes_from_sylow(self, p: int) -> list | None:
        """Classes of elements of order p, seeded from a Sylow p-subgroup and
        sorted by chain position; None when sylow() gives up."""
        sylow = self.sylow(p, random.Random(SYLOW_SEED))
        if sylow is None:
            return None
        order_p = filter(self._p_power_checker(p, p), sylow.tables(sylow.order))
        found = sorted(
            (self._chain_least(members), size) for _t, members, size in self._classes_met(order_p)
        )
        return [(rep, size) for (_key, rep), size in found]

    def _classes_met(self, candidates):
        """Yield (t, members, size) for each candidate t whose class no
        earlier candidate's class contains."""
        seen: set = set()
        for t in candidates:
            if t not in seen:
                members, size = self.conjugacy_class_tables(t)
                seen.update(members)
                yield t, members, size

    def _chain_least(self, tables: list) -> tuple[tuple, object]:
        """(position, table) for the table that tables() yields first.

        Sifting t through the chain reads one orbit position per level: the
        index, in orbit order, of the point t's residue sends the level's
        base to. tables() runs over every level with the shallowest as the
        major digit, folded tail included, so the lexicographic order of
        these tuples is the enumeration order. Only the tables that tie on
        every level so far are sifted further.
        """
        compose = self._mul
        cands = [(t, t) for t in tables]
        position = []
        for lvl in self._levels:
            b = lvl.base
            index = {pt: i for i, pt in enumerate(lvl.orbit)}
            least = min(index[r[b]] for _t, r in cands)
            position.append(least)
            cands = [(t, r) for t, r in cands if index[r[b]] == least]
            if least:
                uinv = lvl.orbit[cands[0][1][b]][1]
                cands = [(t, compose(r, uinv)) for t, r in cands]
        return tuple(position), cands[0][0]

    def sylow(self, p: int, rng) -> "PermutationGroup | None":
        """A Sylow p-subgroup, or None after SYLOW_DRAWS random draws.

        Each draw is a seeded random_element raised to its p-part; it joins
        the p-subgroup P built so far when <P, y> is still a p-group. P is
        returned only with the certificate |P| = |G|_p, so the same rng seed
        gives the same P, and a None costs time but never a wrong answer.
        A point orbit of <P, y> whose length is not a power of p proves it
        is no p-group, so such a draw is refused before its chain is built.
        """
        n = self.degree
        target = p_part(self.order, p)
        sub = PermutationGroup(n, [])
        draws = 0
        while sub.order < target:
            if draws >= SYLOW_DRAWS:
                return None
            draws += 1
            y = self.random_element(rng).t
            o = table_order(y, n)
            y = pow_table(y, o // p_part(o, p), n)
            if is_ident(y) or sub.contains_table(y):
                continue
            gens = sub.gens + [y]
            if not _orbits_are_p_powers(gens, n, p):
                continue
            grown = PermutationGroup(n, [Perm(n, t) for t in gens])
            if p_part(grown.order, p) == grown.order:
                sub = grown
        return sub

    def _p_power_checker(self, p: int, pe: int):
        """Predicate: t != 1 and t^pe == 1, for pe a power of the prime p;
        with pe = p it holds exactly for the elements of order p. t is
        raised to the p-th power once per factor p of pe, by p - 1
        compositions each, with the power padded once."""
        compose = self._mul
        ident = self._ident
        pad = self._pad
        steps = range(p - 1)

        def check(t) -> bool:
            s, k = t, 1
            while k < pe:
                r, sw = s, s + pad
                for _ in steps:
                    r = compose(r, sw)
                s, k = r, k * p
            return s == ident and t != ident

        return check

    def class_representatives(
        self,
        order_filter: int | None = None,
        cap: int = DEFAULT_ENUMERATION_CAP,
    ) -> list["ConjugacyClass"]:
        out = []
        for t, size in self.class_representatives_tables(order_filter, cap):
            out.append(ConjugacyClass(Perm(self.degree, t), size, None))
        return out

    # -- element family caches ----------------------------------------------------

    def p_element_tables(self, p: int, cap: int = DEFAULT_ENUMERATION_CAP) -> _FilledStream:
        """All nonidentity elements of p-power order, deterministic order, cached.

        The elements are found on demand: a search that stops at an early
        element enumerates only the group prefix it needed. The cap is checked
        at call time whenever p divides |G|, before the cache is consulted, so
        a warm group refuses a small cap exactly as a fresh one does, and a
        stream is cached only when its source can run to the end.
        """
        pe = p_part(self.order, p)
        if pe > 1:
            self._check_cap(cap)
        cached = self._pelement_cache.get(p)
        if cached is not None:
            return cached
        source = iter(())
        if pe > 1:
            # a p-element's cycles have p-power lengths at most the degree, so
            # its order divides the largest power of p at most min(pe, degree)
            bound = p
            while bound * p <= min(pe, self.degree):
                bound *= p
            source = filter(self._p_power_checker(p, bound), self.tables(cap))
        stream = self._pelement_cache[p] = _FilledStream(source)
        return stream

    def element_order(self, t) -> int:
        return table_order(t, self.degree)

    def __repr__(self) -> str:
        label = self.name or "PermutationGroup"
        return f"<{label} degree={self.degree} order={self.order}>"


class _FilledStream:
    """Iterable over one source iterator's items, fetched on demand.

    Each iteration is a copy of a tee of the source that is never advanced.
    The copies share one buffer, so any number of iterations may be in
    flight: each replays what any has fetched, then fetches for all. A tee
    refuses a fetch while another is running, which needs a source that
    reads the stream it feeds; the source, a filter over tables(), never
    does, so the refusal cannot fire.
    """

    __slots__ = ("_head",)

    def __init__(self, source):
        self._head = itertools.tee(source, 1)[0]

    def __iter__(self):
        return self._head.__copy__()


class ConjugacyClass:
    """A conjugacy class: representative, exact size, member list."""

    __slots__ = ("representative", "size", "members")

    def __init__(self, representative: Perm, size: int, members):
        self.representative = representative
        self.size = size
        self.members = members

    def __repr__(self) -> str:
        return f"ConjugacyClass({self.representative.cycles()}, size={self.size})"


def _chunks(us: list, i: int, top, tail: list, compose):
    """Walk the transversals us[i:] for tables(), us[i] as the major digit.
    Each choice of one u per level, composed onto top by compose(u, top),
    gives one product; yield the tail composed with it as one list."""
    if i == len(us):
        yield [compose(t, top) for t in tail]
    else:
        for u in us[i]:
            yield from _chunks(us, i + 1, compose(u, top), tail, compose)


def _orbits_are_p_powers(tables: list, degree: int, p: int) -> bool:
    """True when every point orbit of <tables> has p-power length."""
    seen = bytearray(degree)
    for start in range(degree):
        if seen[start]:
            continue
        seen[start] = 1
        orbit = [start]
        for pt in orbit:  # the list grows as it is read: breadth-first
            for t in tables:
                q = t[pt]
                if not seen[q]:
                    seen[q] = 1
                    orbit.append(q)
        if p_part(len(orbit), p) != len(orbit):
            return False
    return True


def group_from_cycles(degree: int, cycle_strings: list[str], name: str | None = None) -> PermutationGroup:
    gens = [Perm.from_cycles(s, degree) for s in cycle_strings]
    return PermutationGroup(degree, gens, name=name)
