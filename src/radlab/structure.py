"""Structural computations: derived series, solvability, solvable radical,
p-elements, primary decomposition, and 2-part/2'-part splitting."""

from __future__ import annotations

from dataclasses import dataclass

from .arith import crt, factorize
from .errors import PreconditionError
from .group import DEFAULT_ENUMERATION_CAP, PermutationGroup
from .perm import Perm, is_ident, mul


def _commutator_tables(g: PermutationGroup) -> list:
    """[a,b] = a^-1 b^-1 a b over ordered generator pairs, identities dropped."""
    out = []
    n = g.degree
    for i, a in enumerate(g.gens):
        ainv = g.gen_invs[i]
        for k, b in enumerate(g.gens):
            if i == k:
                continue
            binv = g.gen_invs[k]
            comm = mul(mul(mul(ainv, binv), a), b)
            if not is_ident(comm) and comm not in out:
                out.append(comm)
    return out


def derived_subgroup(g: PermutationGroup) -> PermutationGroup:
    """Commutator subgroup: normal closure of generator-pair commutators."""
    return g._normal_closure_tables(_commutator_tables(g))


@dataclass(frozen=True)
class DerivedSeries:
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
    terms = [g]
    while True:
        h = terms[-1]
        if h.order == 1:
            return DerivedSeries(tuple(terms), True)
        d = derived_subgroup(h)
        terms.append(d)
        if d.order == h.order:
            return DerivedSeries(tuple(terms), False)


def is_solvable(g: PermutationGroup) -> bool:
    """Solvability of the group.

    Fast sufficient conditions first (trivial or cyclic generation, order with
    at most two distinct prime divisors), then a derived descent that stops as
    soon as a term stabilizes or its order drops to two prime divisors (such
    orders are always solvable). Tests cross-check against the full series.
    """
    if len(g.gens) <= 1:
        return True
    h = g
    while True:
        o = h.order
        if o == 1 or len(factorize(o)) <= 2:
            return True
        d = derived_subgroup(h)
        if d.order == o:
            return False
        h = d


def solvability_certificate(g: PermutationGroup) -> tuple[bool, int]:
    """(solvable, steps) where steps counts strict descents until the series
    went trivial or stabilized. Unlike is_solvable this always runs the honest
    descent, so nonsolvable verdicts carry the true stabilization depth."""
    steps = 0
    h = g
    while True:
        if h.order == 1:
            return True, steps
        d = derived_subgroup(h)
        if d.order == h.order:
            return False, steps
        h = d
        steps += 1


def solvable_radical(
    g: PermutationGroup,
    cap: int = DEFAULT_ENUMERATION_CAP,
) -> PermutationGroup:
    """Largest solvable normal subgroup.

    Oracle computation: an element lies in the radical iff the normal closure
    of its conjugacy class is solvable, so the radical is generated by the
    qualifying classes. Class representatives suffice (the closure is a class
    invariant).
    """
    if is_solvable(g):
        return g
    radical = PermutationGroup(g.degree, [])
    for rep, _size in g.class_representatives_tables(None, cap):
        if radical.contains_table(rep):
            continue
        closure = g._normal_closure_tables([rep])
        if is_solvable(closure):
            for t in closure.gens:
                radical._adopt(t)
    return radical


def p_elements(
    g: PermutationGroup, p: int, cap: int = DEFAULT_ENUMERATION_CAP
) -> list[Perm]:
    """All nonidentity elements of p-power order, in enumeration order."""
    if not factorize(p).pairs == ((p, 1),):
        raise PreconditionError(f"{p} is not prime")
    return [Perm(g.degree, t) for t in g.p_element_tables(p, cap)]


@dataclass(frozen=True)
class PrimaryDecomposition:
    """x as the product of its pairwise commuting primary components.

    components[p] = x**k(p) has order p**a(p) where o(x) = prod p**a(p); the
    exponents k(p) are the CRT solutions of k = 1 mod p**a(p), k = 0 mod rest.
    The identity decomposes into no components.
    """

    element: Perm
    order: int
    components: tuple[tuple[int, Perm], ...]  # (prime, component), primes ascending
    exponents: tuple[tuple[int, int], ...]  # (prime, power exponent k(p))

    def component(self, p: int) -> Perm:
        for q, c in self.components:
            if q == p:
                return c
        return Perm.identity(self.element.degree)


def primary_decomposition(x: Perm) -> PrimaryDecomposition:
    o = x.order()
    fact = factorize(o)
    comps = []
    exps = []
    for p, a in fact:
        pa = p**a
        rest = o // pa
        k = crt([1, 0], [pa, rest]) if rest > 1 else 1
        comps.append((p, x**k))
        exps.append((p, k))
    return PrimaryDecomposition(x, o, tuple(comps), tuple(exps))


@dataclass(frozen=True)
class TwoPartSplit:
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
