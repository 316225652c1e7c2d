"""Structural computations: derived series, solvability, solvable radical,
p-elements, primary decomposition, and 2-part/2'-part splitting.

Every solvability answer comes from one lazy descent, _descent: the honest
derived_series consumes all of it, and solvability stops it at the first
sufficient exit, so no derived subgroup is computed past a verdict. A caller
may hand solvability a registry of nonsolvable groups already descended; a
term equal to one of them ends the descent with its known steps, so the same
derived series is not built twice. solvable_radical keeps no registry.
socle_certificate proves R(G) = 1 from a normal subgroup S of G, with the
oracle run on S alone."""

from __future__ import annotations

from typing import NamedTuple

from .arith import factorize, is_prime
from .errors import PreconditionError
from .group import DEFAULT_ENUMERATION_CAP, PermutationGroup
from .perm import Perm, ident_table, inv, is_ident, mul


def _commutator_tables(g: PermutationGroup) -> list:
    """[a,b] = a^-1 b^-1 a b over generator pairs with a listed before b,
    identities dropped; [b,a] = [a,b]^-1 lies in any normal closure of [a,b]."""
    out = []
    for i, a in enumerate(g.gens):
        ainv = g.gen_invs[i]
        for b, binv in zip(g.gens[i + 1 :], g.gen_invs[i + 1 :]):
            comm = mul(mul(mul(ainv, binv), a), b)
            if not is_ident(comm) and comm not in out:
                out.append(comm)
    return out


def derived_subgroup(g: PermutationGroup) -> PermutationGroup:
    """Commutator subgroup: normal closure of generator-pair commutators."""
    return g._normal_closure_tables(_commutator_tables(g))


def _descent(g: PermutationGroup):
    """Lazily yield G, G', G'', ...: stops after a trivial term or after the
    first term whose order equals its predecessor's. The only loop over
    derived_subgroup; a consumer that stops early computes no further term."""
    h = g
    yield h
    while h.order != 1:
        d = derived_subgroup(h)
        yield d
        if d.order == h.order:
            return
        h = d


class DerivedSeries(NamedTuple):
    """Derived series until trivial (solvable) or stabilized (not solvable)."""

    terms: tuple[PermutationGroup, ...]
    solvable: bool

    @property
    def orders(self) -> tuple[int, ...]:
        return tuple(t.order for t in self.terms)

    @property
    def derived_length(self) -> int | None:
        """Number of descent steps for solvable groups, else None."""
        return len(self.terms) - 1 if self.solvable else None


def derived_series(g: PermutationGroup) -> DerivedSeries:
    """Full honest series: keeps descending until trivial or stabilized."""
    terms = tuple(_descent(g))
    return DerivedSeries(terms, terms[-1].order == 1)


def solvability(g: PermutationGroup, known: dict | None = None) -> tuple[bool, int]:
    """(solvable, steps), steps the strict descents taken before the exit.

    Solvable exits may use sufficient conditions (at most one generator, a
    term whose order has at most two distinct prime divisors, by Burnside's
    p^a q^b theorem); a nonsolvable exit always comes from an honestly
    stabilized descent, here or when a registered group was descended, so
    its steps are exact: two fewer than the terms of derived_series(g).

    known, when given, maps an order to (generator tables, steps) of one
    nonsolvable group K already descended. A term T with |T| = |K| that
    contains every generator of K is K, so the descent stops there with the
    steps taken so far plus K's. A nonsolvable exit registers each of its
    terms whose order has no entry yet, term i with the total steps less i;
    an entry states a fact about K alone.
    """
    if len(g.gens) <= 1:
        return True, 0
    steps = -1
    prev = 0
    terms = []
    for h in _descent(g):
        o = h.order
        if o == prev:
            break
        steps += 1
        entry = known.get(o) if known is not None else None
        if entry is not None and all(map(h.contains_table, entry[0])):
            steps += entry[1]
            break
        if o == 1 or len(factorize(o)) <= 2:
            return True, steps
        terms.append(h)
        prev = o
    if known is not None:
        for i, h in enumerate(terms):
            known.setdefault(h.order, (tuple(h.gens), steps - i))
    return False, steps


def solvable_radical(
    g: PermutationGroup,
    cap: int = DEFAULT_ENUMERATION_CAP,
) -> PermutationGroup:
    """Largest solvable normal subgroup.

    Oracle computation: an element lies in the radical iff the normal closure
    of its conjugacy class is solvable, so the radical is generated by the
    qualifying classes. Class representatives suffice (the closure is a class
    invariant). G is known not to be solvable past the first line, so a
    closure of order |G| is G and is skipped without a descent.
    """
    if solvability(g)[0]:
        return g
    radical = PermutationGroup(g.degree, [])
    for rep, _size in g.class_representatives_tables(None, cap):
        if radical.contains_table(rep):
            continue
        closure = g._normal_closure_tables([rep])
        if closure.order != g.order and solvability(closure)[0]:
            for t in closure.gens:
                radical._adopt(t)
    return radical


def socle_certificate(
    g: PermutationGroup,
    s: PermutationGroup,
    cap: int = DEFAULT_ENUMERATION_CAP,
) -> str | None:
    """None when s proves R(g) = 1, else the first condition that fails:

      "normal"      s is normal in g
      "stabilizer"  for one point a in each s-orbit, s_a fixes only a
      "radical"     R(s) = 1, by solvable_radical on s

    With all three, R(g) = 1: R(g) meets s in a solvable normal subgroup of
    s, which is trivial, so R(g) centralizes s. A permutation c that
    centralizes s has s_c(a) = s_a, so c fixes each chosen a and with it
    every point of a's orbit; so C_g(s) = 1. The fixed points of s_a are
    those of its Schreier generators u_b * t * u_(b^t)^-1, for u_b in a
    transversal of a's orbit and t a generator of s. No Sylow subgroup is
    drawn, and the oracle lists the classes of s, not of g."""
    n = g.degree
    if s.degree != n:
        raise PreconditionError("the subgroup's degree differs from the group's")
    if not all(
        s.contains_table(mul(mul(gi, t), gt)) for gt, gi in zip(g.gens, g.gen_invs) for t in s.gens
    ):
        return "normal"
    seen: set = set()
    for a in range(n):
        if a in seen:
            continue
        orbit = {a: ident_table(n)}
        queue = [a]
        for b in queue:  # the list grows as it is read: breadth-first
            for t in s.gens:
                c = t[b]
                if c not in orbit:
                    orbit[c] = mul(orbit[b], t)
                    queue.append(c)
        seen.update(queue)
        fixed = set(range(n)) - {a}
        for b in queue:
            for t in s.gens:
                sg = mul(mul(orbit[b], t), inv(orbit[t[b]], n))
                fixed = {p for p in fixed if sg[p] == p}
            if not fixed:
                break
        else:
            return "stabilizer"
    if solvable_radical(s, cap).order != 1:
        return "radical"
    return None


def p_elements(
    g: PermutationGroup, p: int, cap: int = DEFAULT_ENUMERATION_CAP
) -> list[Perm]:
    """All nonidentity elements of p-power order, in enumeration order."""
    if not is_prime(p):
        raise PreconditionError(f"{p} is not prime")
    return [Perm(g.degree, t) for t in g.p_element_tables(p, cap)]


class PrimaryDecomposition(NamedTuple):
    """x as the product of its pairwise commuting primary components.

    components[p] = x**k(p) has order p**a(p) where o(x) = prod p**a(p), for
    k(p) = primary_exponent(o, p**a(p)).
    The identity decomposes into no components.
    """

    element: Perm
    order: int
    components: tuple[tuple[int, Perm], ...]  # (prime, component), primes ascending

    def component(self, p: int) -> Perm:
        for q, c in self.components:
            if q == p:
                return c
        return Perm.identity(self.element.degree)


def primary_exponent(o: int, pa: int) -> int:
    """The k in [0, o) with k = 1 mod pa and k = 0 mod o/pa, for pa the
    p-part of o: x**k is the p-component of an x of order o."""
    rest = o // pa
    return rest * pow(rest, -1, pa) % o


def primary_decomposition(x: Perm) -> PrimaryDecomposition:
    o = x.order()
    comps = tuple((p, x ** primary_exponent(o, p**a)) for p, a in factorize(o))
    return PrimaryDecomposition(x, o, comps)


class TwoPartSplit(NamedTuple):
    """x = two_part * odd_part with the two factors commuting powers of x,
    o(two_part) the 2-part of o(x) and o(odd_part) its odd part."""

    element: Perm
    two_part: Perm
    odd_part: Perm


def two_part_split(x: Perm) -> TwoPartSplit:
    dec = primary_decomposition(x)
    two = dec.component(2)
    odd = x * two.inverse()
    return TwoPartSplit(x, two, odd)
