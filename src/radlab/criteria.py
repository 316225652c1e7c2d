"""Solvable-radical membership criteria decided by pair subgroups.

An element x of a finite group G lies in the solvable radical R(G) exactly
when <x, y> is solvable for every y in G. The point of the restricted
criteria is that far smaller y-sets already decide membership:

  b1           y ranges over all of G (the baseline equivalence)
  odd-p        y ranges over p-elements for every odd prime p dividing |G|
  two-element  x has odd order; y ranges over 2-elements
  combined     over the primary components of x: the 2-component is
               checked against odd-prime p-elements, and each odd component
               against 2-elements; together these decide x.

Every pair <x, y> is decided by structure.solvability, the descent that
also answers the radical oracle. A false verdict always carries a Witness: a
concrete y with <x', y> not solvable (x' is x or the primary component that
failed), re-checkable from its fields alone.

All loops are deterministic. Exhaustive phases skip y when an earlier tested
y' already covers it: once H = <x, y'> is found solvable, every element of H
is covered, because y in H gives <x, y> <= H, and a subgroup of a solvable
group is solvable. H is enumerated under the scan's cap; a larger H covers
nothing. The centralizer rule covers more: for a strong generator c of the
scanned group that commutes with x, <x, y^c> = <x, y>^c, so y is covered
when y^c or y^(c^-1) is. It is checked lazily, on each streamed y, against
the commuting strong generators listed once per loop. Only solvable pairs
are ever skipped, so the first nonsolvable y in enumeration order is tested
and found as without either skip; pairs_tested can only fall.

Every criterion is one scan, _scan, of <checked, y> over one family of y:
all of G for b1 (kind None), the 2-elements (kind 2), the p-elements of the
odd primes of |G| (kind "odd"), or those of every prime of |G| (kind "any",
find_witness only). _family_primes lists a family's primes ascending, p None
standing for all of G. A member_* scan first tests a cheap deterministic
probe to find witnesses early: elements built from strong generators, or
their components for the family's primes. The exhaustive loop follows over
the family's primes in turn, behind one covered set. find_witness runs no
probe and keeps the strict primes-ascending, enumeration-order, first-hit
contract.

Every pair either phase tests counts against the call's pair cap, and a
scan raises CapExceededError as soon as the next pair would pass it; a scan
that tests no pair never raises.

The scans of a group (the domain, for find_witness) share one memo, which
_scan makes on the first of them as PermutationGroup.scan_memo and the group
drops, with everything else it derived, when it grows. It is a triple of
dicts. scans maps (checked table, kind, probe, cap) to the pairs a finished
scan tested and its witness or None; nothing else decides that outcome,
because the cap decides which pair subgroups may be enumerated for coverage,
and the commuting strong generators depend only on the group and the checked
table. A scan stopped by the pair cap stores nothing. verdicts maps (checked
table, y table) to the (solvable, order, steps) of every pair subgroup
decided: the criteria share pairs, so a pair met again is looked up, not
rebuilt, and a hit in the exhaustive phase rebuilds <checked, y> only when
its elements are to be covered. registry, passed to solvability, holds the
nonsolvable pair subgroups and derived terms already descended, so a descent
meeting one of them stops with its exact steps. Every pair counts against
the cap whether decided afresh or remembered: a scans entry is refused
exactly when its pairs exceed what is left of the budget (taken as 0 when
negative), so pairs_tested, the witness and the pair-cap error are those of
a fresh scan whatever was asked before. Only _scan reads or fills the memo:
witness_is_valid descends every pair afresh, so a re-check never reads what
a scan stored.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain

from .arith import factorize, p_part
from .errors import CapExceededError, MembershipError, PreconditionError
from .group import DEFAULT_ENUMERATION_CAP, PermutationGroup
from .perm import Perm, inv, inv_wide, is_ident, mul, pow_table, table_order
from .structure import primary_decomposition, primary_exponent, solvability

DEFAULT_PAIR_CAP = 10_000_000

METHOD_B1 = "b1"
METHOD_ODD_P = "odd-p"
METHOD_TWO_ELEMENT = "two-element"
METHOD_COMBINED = "combined"

CONSTRAINT_ODD_P = "odd-p"
CONSTRAINT_TWO_ELEMENT = "two-element"
CONSTRAINT_ANY = "any"


@dataclass(frozen=True)
class Witness:
    """A pair proving non-membership: <x, y> is not solvable.

    prime: y is a p-element of this prime; None when y has composite order
    (possible only for method b1, whose quantifier ranges over all of G).
    derived_steps: strict descents of the pair subgroup's derived series
    before it stabilized.
    """

    x: Perm
    y: Perm
    prime: int | None
    subgroup_order: int
    derived_steps: int


@dataclass(frozen=True)
class MembershipVerdict:
    element: Perm
    method: str
    member: bool
    witness: Witness | None
    pairs_tested: int


def _pair_solvable(
    degree: int, a, b, known: dict | None = None
) -> tuple[bool, int, int, PermutationGroup]:
    """(solvable, subgroup_order, derived_steps, pair_subgroup) for <a, b>,
    decided by structure.solvability with the registry known: derived_steps
    is exact when not solvable."""
    pg = PermutationGroup(degree, [Perm(degree, a), Perm(degree, b)])
    solvable, steps = solvability(pg, known)
    return solvable, pg.order, steps, pg


def _prime_of_order(o: int) -> int | None:
    f = factorize(o).pairs
    return f[0][0] if len(f) == 1 else None


def _family_primes(g: PermutationGroup, kind) -> list:
    """The primes of a scan's family of y in g, ascending: [None] for all of
    g (kind None), [2] for the 2-elements (kind 2; a group of odd order
    streams none), else the odd primes ("odd") or all primes ("any") of |g|."""
    if kind is None or kind == 2:
        return [kind]
    return [p for p in factorize(g.order).primes if kind == "any" or p != 2]


def _component_table(t, n: int, p: int, o: int):
    """p-component of a raw table t of order o (the power of t with p-power
    order), or None when p does not divide o."""
    pa = p_part(o, p)
    if pa == 1:
        return None
    return t if pa == o else pow_table(t, primary_exponent(o, pa), n)


def _probe_tables(g: PermutationGroup, xt, kind) -> list:
    """Deterministic cheap witness candidates, all elements of g.

    The base: strong generators, x-conjugates of them, a few products. Kind
    None keeps the base elements; another kind keeps their components for
    the primes of its family.
    """
    n = g.degree
    strong = g.strong_tables()
    base: list = list(strong)
    for s in strong:
        base.append(mul(mul(inv(s, n), xt), s))
    for i, s in enumerate(strong[:6]):
        for t in strong[i + 1 : 6]:
            base.append(mul(s, t))
    primes = _family_primes(g, kind)
    out: list = []
    seen: set = set()
    for t in base:
        if kind is None:
            cands = [t]
        else:
            o = table_order(t, n)
            cands = [_component_table(t, n, p, o) for p in primes]
        for c in cands:
            if c is not None and not is_ident(c) and c not in seen:
                seen.add(c)
                out.append(c)
    return out


def _coverage(h: PermutationGroup, cap: int) -> list:
    """Raw tables of every element of a solvable pair subgroup h = <x, y>.

    Any y' in h has <x, y'> <= h, so it needs no test of its own. _scan
    passes only an h within its cap; a larger h covers nothing, as the skip
    is only an optimisation.
    """
    return list(h.tables(cap))


def _untested(g: PermutationGroup, checked, ys, covered: set):
    """The y of ys that still need a pair test against checked, in order.

    A y in covered is skipped. So is a y with y^c or y^(c^-1) in covered for
    a strong generator c of g that commutes with checked: then
    <checked, y> = <checked, y^(c^-1)>^c is a conjugate of a solvable pair
    subgroup. Such a y joins covered untested. The caller adds the coverage
    of every solvable pair it tests.
    """
    compose, pad = g._mul, g._pad
    # c and c^-1 as they are, to compose from, and padded (perm.wide), to
    # compose by
    cent = [
        (c, c + pad, inv(c, g.degree), inv_wide(c, g.degree))
        for c in g.strong_tables()
        if mul(c, checked) == mul(checked, c)
    ]
    for yt in ys:
        if yt in covered:
            continue
        yw = yt + pad
        for c, cw, ci, ciw in cent:
            if compose(compose(ci, yw), cw) in covered or compose(compose(c, yw), ciw) in covered:
                covered.add(yt)
                break
        else:
            yield yt


def _require_member(g: PermutationGroup, x: Perm) -> None:
    if x.degree != g.degree or not g.contains(x):
        raise MembershipError(f"{x.cycles()} is not an element of the group")


def _scan(
    g: PermutationGroup, x: Perm, kind, probe: bool, pair_cap: int, cap: int, tested: int = 0
) -> tuple[Witness | None, int]:
    """Memoized scan of <x, y> over the family of kind in g: the probe's
    candidates when asked, then the family's primes in order, enumeration
    order within a prime, behind one covered set. Probe pairs cover nothing
    (letting them cover measured slower on non-member queries).

    tested pairs are already counted against pair_cap, and so is every pair
    this scan tests, remembered in g's memo or not (see the module
    docstring). Returns the first witness or None, and the running pair
    count; raises CapExceededError when a pair would take the count past
    pair_cap.
    """
    if g.scan_memo is None:
        g.scan_memo = ({}, {}, {})
    scans, verdicts, registry = g.scan_memo
    budget = max(pair_cap - tested, 0)
    key = (x.t, kind, probe, cap)
    out = scans.get(key)
    if out is None:
        n, checked = g.degree, x.t
        probed = _probe_tables(g, checked, kind) if probe else []
        # <checked, 1> is cyclic, so the identity is covered from the start
        covered = {g._ident}
        ys = chain.from_iterable(
            g.tables(cap) if p is None else g.p_element_tables(p, cap)
            for p in _family_primes(g, kind)
        )
        pairs, w = 0, None
        for yt in chain(probed, _untested(g, checked, ys, covered)):
            pairs += 1
            if pairs > budget:
                break
            verdict = verdicts.get((checked, yt))
            if verdict is None:
                solvable, order, steps, h = _pair_solvable(n, checked, yt, registry)
                verdicts[checked, yt] = solvable, order, steps
            else:
                (solvable, order, steps), h = verdict, None
            if not solvable:
                w = Witness(x, Perm(n, yt), _prime_of_order(table_order(yt, n)), order, steps)
                break
            if pairs > len(probed) and order <= cap:
                if h is None:  # a memo hit: built again only for its elements
                    h = PermutationGroup(n, [Perm(n, checked), Perm(n, yt)])
                covered.update(_coverage(h, cap))
        out = (pairs, w)
        if pairs <= budget:
            scans[key] = out
    pairs, w = out
    if pairs > budget:
        raise CapExceededError(f"pair cap {pair_cap} exhausted before a verdict")
    return w, tested + pairs


def _member(
    g: PermutationGroup, x: Perm, kind, method: str, pair_cap: int, cap: int
) -> MembershipVerdict:
    _require_member(g, x)
    if kind == 2 and x.order() % 2 == 0:
        # the 2-elements decide membership only for x of odd order
        raise PreconditionError(f"x must have odd order, but o(x) = {x.order()}")
    if x.is_identity():
        # <identity, y> is cyclic, hence solvable, for every y
        return MembershipVerdict(x, method, True, None, 0)
    w, tested = _scan(g, x, kind, True, pair_cap, cap)
    return MembershipVerdict(x, method, w is None, w, tested)


def member_b1(
    g: PermutationGroup,
    x: Perm,
    pair_cap: int = DEFAULT_PAIR_CAP,
    cap: int = DEFAULT_ENUMERATION_CAP,
) -> MembershipVerdict:
    """x in R(G) iff <x, y> is solvable for every y in G."""
    return _member(g, x, None, METHOD_B1, pair_cap, cap)


def member_oddp(
    g: PermutationGroup,
    x: Perm,
    pair_cap: int = DEFAULT_PAIR_CAP,
    cap: int = DEFAULT_ENUMERATION_CAP,
) -> MembershipVerdict:
    """x in R(G) iff <x, y> is solvable for every p-element y, p odd."""
    return _member(g, x, "odd", METHOD_ODD_P, pair_cap, cap)


def member_two_element(
    g: PermutationGroup,
    x: Perm,
    pair_cap: int = DEFAULT_PAIR_CAP,
    cap: int = DEFAULT_ENUMERATION_CAP,
) -> MembershipVerdict:
    """For x of odd order: x in R(G) iff <x, y> is solvable for every
    2-element y."""
    return _member(g, x, 2, METHOD_TWO_ELEMENT, pair_cap, cap)


def member_combined(
    g: PermutationGroup,
    x: Perm,
    pair_cap: int = DEFAULT_PAIR_CAP,
    cap: int = DEFAULT_ENUMERATION_CAP,
) -> MembershipVerdict:
    """Split check over the primary components of x, primes ascending: the
    2-component against odd-prime p-elements, each odd component against
    2-elements."""
    _require_member(g, x)
    tested = 0
    for p, comp in primary_decomposition(x).components:
        w, tested = _scan(g, comp, "odd" if p == 2 else 2, True, pair_cap, cap, tested)
        if w is not None:
            return MembershipVerdict(x, METHOD_COMBINED, False, w, tested)
    return MembershipVerdict(x, METHOD_COMBINED, True, None, tested)


_CONSTRAINT_KINDS = {CONSTRAINT_ODD_P: "odd", CONSTRAINT_TWO_ELEMENT: 2, CONSTRAINT_ANY: "any"}


def find_witness(
    g: PermutationGroup,
    x: Perm,
    constraint: str = CONSTRAINT_ANY,
    pair_cap: int = DEFAULT_PAIR_CAP,
    cap: int = DEFAULT_ENUMERATION_CAP,
    domain: PermutationGroup | None = None,
) -> Witness | None:
    """First witness in deterministic order, or None after exhaustion.

    Order: primes ascending (odd primes for "odd-p", just 2 for
    "two-element", all primes for "any"); within a prime, the domain's
    p-element enumeration order. domain, a subgroup of g, restricts where y
    ranges (e.g. a socle). Raises CapExceededError when the pair budget runs
    out first, which is reported distinctly from a completed search without
    a witness.
    """
    _require_member(g, x)
    dom = domain if domain is not None else g
    if dom.degree != g.degree:
        raise PreconditionError("witness domain degree differs from the group's")
    if dom is not g and not all(g.contains_table(t) for t in dom.gens):
        raise PreconditionError("witness domain is not a subgroup of the group")
    if constraint not in _CONSTRAINT_KINDS:
        raise PreconditionError(f"unknown witness constraint {constraint!r}")
    return _scan(dom, x, _CONSTRAINT_KINDS[constraint], False, pair_cap, cap)[0]


def witness_is_valid(
    w: Witness,
    ambient: PermutationGroup | None = None,
    y_domain: PermutationGroup | None = None,
) -> bool:
    """Re-validate a witness from its fields: the pair subgroup is not
    solvable, its order matches, derived_steps matches, y is a p-element of
    the stated prime, x and y lie in ambient, and y lies in y_domain. A
    group of another degree holds no part of the witness."""
    n = w.x.degree
    if w.y.degree != n:
        return False
    for grp, parts in ((ambient, (w.x, w.y)), (y_domain, (w.y,))):
        if grp is not None and (grp.degree != n or not all(grp.contains(e) for e in parts)):
            return False
    solvable, order, steps, _h = _pair_solvable(n, w.x.t, w.y.t)
    if solvable or order != w.subgroup_order or steps != w.derived_steps:
        return False
    return w.prime is None or _prime_of_order(w.y.order()) == w.prime
