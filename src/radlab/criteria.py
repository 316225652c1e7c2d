"""Solvable-radical membership criteria decided by pair subgroups.

An element x of a finite group G lies in the solvable radical R(G) exactly
when <x, y> is solvable for every y in G. The point of the restricted
criteria is that far smaller y-sets already decide membership:

  b1           y ranges over all of G (the baseline equivalence)
  odd-p        y ranges over p-elements for every odd prime p dividing |G|
  two-element  x itself is a p-element for an odd p; y ranges over 2-elements
  combined     x = x2 * x2' (2-part times 2'-part): the 2-part is checked
               against odd-prime p-elements, and each odd primary component
               of x2' against 2-elements; together these decide x.

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

Every member_* criterion runs one path, _check, over one family of y: all
of G for b1 (kind None), the 2-elements (kind 2), or the p-elements of the
odd primes of |G| (kind "odd"). A cheap deterministic probe (built from
strong generators) runs first to find witnesses early: once per checked
element, because its candidates (the elements themselves, 2-elements, or
elements of any odd prime-power order) do not depend on the prime being
scanned. The exhaustive scan follows, one loop per prime, with p None
standing for all of G. find_witness keeps the strict primes-ascending,
enumeration-order, first-hit contract and no probe.

Scan outcomes are memoized on the group whose y are scanned (the domain, for
find_witness), in PermutationGroup._scan_cache. A probe is keyed by (checked
table, kind) and one prime's exhaustive loop by (checked table, p, cap), with
p None for all of G: its outcome depends on nothing else, because the cap
decides which pair subgroups may be enumerated for coverage, and the
commuting strong generators depend only on the group and the checked table.
An entry holds the pairs the scan tested and its first nonsolvable y with
the prime, subgroup order and derived steps, or no hit. Only finished loops
are stored, and the memo is cleared with the p-element cache whenever the
group grows. A hit replays the stored pair count, so pairs_tested, the
witness and the pair-cap error are those of a fresh scan whatever was asked
before: the cap fires when the loop counted any pair and the running count
exceeds it.
"""

from __future__ import annotations

from dataclasses import dataclass

from .arith import factorize, p_part
from .errors import CapExceededError, MembershipError, PreconditionError
from .group import DEFAULT_ENUMERATION_CAP, PermutationGroup
from .perm import Perm, inv, is_ident, mul, pow_table, table_order
from .structure import primary_decomposition, primary_exponent, solvability, two_part_split

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


def _pair_solvable(degree: int, a, b) -> tuple[bool, int, int, PermutationGroup]:
    """(solvable, subgroup_order, derived_steps, pair_subgroup) for <a, b>,
    decided by structure.solvability: derived_steps is exact when not
    solvable."""
    pg = PermutationGroup(degree, [Perm(degree, a), Perm(degree, b)])
    solvable, steps = solvability(pg)
    return solvable, pg.order, steps, pg


def _prime_of_order(o: int) -> int | None:
    f = factorize(o).pairs
    return f[0][0] if len(f) == 1 else None


def _component_table(t, n: int, p: int):
    """p-component of a raw table (power of t with p-power order)."""
    o = table_order(t, n)
    pa = p_part(o, p)
    if pa == 1:
        return None
    return t if pa == o else pow_table(t, primary_exponent(o, pa), n)


def _probe_tables(g: PermutationGroup, xt, prime_kind) -> list:
    """Deterministic cheap witness candidates, all elements of g.

    prime_kind None: strong generators, x-conjugates of them, a few products.
    prime_kind "odd"/2/p: the matching primary components of those elements.
    """
    n = g.degree
    strong = g.strong_tables()
    base: list = list(strong)
    for s in strong:
        base.append(mul(mul(inv(s, n), xt), s))
    for i, s in enumerate(strong[:6]):
        for t in strong[i + 1 : 6]:
            base.append(mul(s, t))
    out: list = []
    seen: set = set()
    for t in base:
        if prime_kind is None:
            cands = [t]
        elif prime_kind == "odd":
            cands = []
            for p, _a in factorize(table_order(t, n)):
                if p != 2:
                    cands.append(_component_table(t, n, p))
        else:
            c = _component_table(t, n, prime_kind)
            cands = [c] if c is not None else []
        for c in cands:
            if c is not None and not is_ident(c) and c not in seen:
                seen.add(c)
                out.append(c)
    return out


def _coverage(h: PermutationGroup, cap: int) -> list:
    """Raw tables of every element of a solvable pair subgroup h = <x, y>.

    Any y' in h has <x, y'> <= h, so it needs no test of its own. Above the
    scan's cap h covers nothing: the skip is only an optimisation.
    """
    if h.order > cap:
        return []
    return list(h.tables(cap))


def _untested(g: PermutationGroup, checked, ys, covered: set):
    """The y of ys that still need a pair test against checked, in order.

    A y in covered is skipped. So is a y with y^c or y^(c^-1) in covered for
    a strong generator c of g that commutes with checked: then
    <checked, y> = <checked, y^(c^-1)>^c is a conjugate of a solvable pair
    subgroup. Such a y joins covered untested. The caller adds the coverage
    of every solvable pair it tests.
    """
    compose = g._mul
    cent = [
        (c, inv(c, g.degree))
        for c in g.strong_tables()
        if compose(c, checked) == compose(checked, c)
    ]
    for yt in ys:
        if yt in covered:
            continue
        for c, ci in cent:
            if compose(compose(ci, yt), c) in covered or compose(compose(c, yt), ci) in covered:
                covered.add(yt)
                break
        else:
            yield yt


def _require_member(g: PermutationGroup, x: Perm) -> None:
    if x.degree != g.degree or not g.contains(x):
        raise MembershipError(f"{x.cycles()} is not an element of the group")


def member_b1(
    g: PermutationGroup,
    x: Perm,
    pair_cap: int = DEFAULT_PAIR_CAP,
    cap: int = DEFAULT_ENUMERATION_CAP,
) -> MembershipVerdict:
    """x in R(G) iff <x, y> is solvable for every y in G."""
    _require_member(g, x)
    xt = x.t
    if is_ident(xt):
        # <identity, y> is cyclic, hence solvable, for every y
        return MembershipVerdict(x, METHOD_B1, True, None, 0)
    w, tested = _check(g, xt, x, None, pair_cap, cap, 0)
    return MembershipVerdict(x, METHOD_B1, w is None, w, tested)


def _witness(x: Perm, n: int, hit) -> Witness:
    yt, prime, order, steps = hit
    return Witness(x, Perm(n, yt), prime, order, steps)


def _probe(g: PermutationGroup, checked, kind) -> tuple[int, tuple | None]:
    """Memoized probe of checked against the candidates of one kind (None,
    "odd" or 2): (pairs tested, hit), hit = (y, prime, order, steps) of the
    first nonsolvable pair or None. The candidates depend neither on p nor
    on the enumeration cap."""
    key = (checked, kind)
    out = g._scan_cache.get(key)
    if out is None:
        n = g.degree
        tested = 0
        hit = None
        for yt in _probe_tables(g, checked, kind):
            tested += 1
            solvable, order, steps, _h = _pair_solvable(n, checked, yt)
            if not solvable:
                hit = (yt, _prime_of_order(table_order(yt, n)), order, steps)
                break
        out = g._scan_cache[key] = (tested, hit)
    return out


def _exhaust(g: PermutationGroup, checked, primes, cap: int, budget: int):
    """Exhaustive scan of <checked, y>, primes in the given order,
    enumeration order within a prime: y ranges over the p-elements of g, or
    over all of g for p None.

    Returns (pairs tested, hit) as _probe does, or None when the scan would
    test more than budget pairs. Each prime's outcome is memoized on g under
    (checked, p, cap) once its loop has finished; a memoized prime counts its
    pairs again and is refused exactly where a fresh loop would stop.
    """
    memo = g._scan_cache
    n = g.degree
    tested = 0
    for p in primes:
        left = budget - tested
        key = (checked, p, cap)
        out = memo.get(key)
        if out is None:
            count = 0
            hit = None
            # <checked, 1> is cyclic, so the identity is covered from the start
            covered = {g._ident}
            ys = g.tables(cap) if p is None else g.p_element_tables(p, cap)
            for yt in _untested(g, checked, ys, covered):
                count += 1
                if count > left:
                    return None
                solvable, order, steps, h = _pair_solvable(n, checked, yt)
                if not solvable:
                    hit = (yt, p or _prime_of_order(table_order(yt, n)), order, steps)
                    break
                covered.update(_coverage(h, cap))
            out = memo[key] = (count, hit)
        elif out[0] and out[0] > left:
            # a fresh loop checks the budget only after counting a pair
            return None
        tested += out[0]
        if out[1] is not None:
            return tested, out[1]
    return tested, None


def _check(
    g: PermutationGroup,
    checked,
    checked_perm: Perm,
    kind,
    pair_cap: int,
    cap: int,
    tested: int,
) -> tuple[Witness | None, int]:
    """Run <checked, y> over one family of y in g: all of g (kind None), the
    2-elements (kind 2) or the p-elements of the odd primes of |G| ascending
    (kind "odd"); the probe once, then the exhaustive scan. Returns the
    first witness or None, and the running pair count."""
    primes = _odd_primes(g) if kind == "odd" else [kind]
    count, hit = _probe(g, checked, kind)
    tested += count
    if hit is None:
        out = _exhaust(g, checked, primes, cap, pair_cap - tested)
        if out is None:
            raise CapExceededError(f"pair cap {pair_cap} exhausted before a verdict")
        count, hit = out
        tested += count
    return (None if hit is None else _witness(checked_perm, g.degree, hit)), tested


def _odd_primes(g: PermutationGroup) -> list[int]:
    return [p for p in factorize(g.order).primes if p != 2]


def member_oddp(
    g: PermutationGroup,
    x: Perm,
    pair_cap: int = DEFAULT_PAIR_CAP,
    cap: int = DEFAULT_ENUMERATION_CAP,
) -> MembershipVerdict:
    """x in R(G) iff <x, y> is solvable for every p-element y, p odd."""
    _require_member(g, x)
    xt = x.t
    if is_ident(xt):
        return MembershipVerdict(x, METHOD_ODD_P, True, None, 0)
    w, tested = _check(g, xt, x, "odd", pair_cap, cap, 0)
    return MembershipVerdict(x, METHOD_ODD_P, w is None, w, tested)


def member_two_element(
    g: PermutationGroup,
    x: Perm,
    pair_cap: int = DEFAULT_PAIR_CAP,
    cap: int = DEFAULT_ENUMERATION_CAP,
) -> MembershipVerdict:
    """For x a p-element with p odd: x in R(G) iff <x, y> is solvable for
    every 2-element y."""
    _require_member(g, x)
    o = x.order()
    if _prime_of_order(o) in (None, 2):
        raise PreconditionError(
            f"x must be a p-element for an odd prime, but o(x) = {o}"
        )
    w, tested = _check(g, x.t, x, 2, pair_cap, cap, 0)
    return MembershipVerdict(x, METHOD_TWO_ELEMENT, w is None, w, tested)


def member_combined(
    g: PermutationGroup,
    x: Perm,
    pair_cap: int = DEFAULT_PAIR_CAP,
    cap: int = DEFAULT_ENUMERATION_CAP,
) -> MembershipVerdict:
    """Split check: the 2-part of x against odd-prime p-elements, each odd
    primary component of x against 2-elements."""
    _require_member(g, x)
    split = two_part_split(x)
    tested = 0
    x2 = split.two_part
    if not x2.is_identity():
        w, tested = _check(g, x2.t, x2, "odd", pair_cap, cap, tested)
        if w is not None:
            return MembershipVerdict(x, METHOD_COMBINED, False, w, tested)
    for p, comp in primary_decomposition(split.odd_part).components:
        w, tested = _check(g, comp.t, comp, 2, pair_cap, cap, tested)
        if w is not None:
            return MembershipVerdict(x, METHOD_COMBINED, False, w, tested)
    return MembershipVerdict(x, METHOD_COMBINED, True, None, tested)


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
    p-element enumeration order. domain restricts where y ranges (e.g. a
    socle); the pair subgroup always lives in the ambient degree. Raises
    CapExceededError when the pair budget runs out first, which is reported
    distinctly from a completed search without a witness.
    """
    _require_member(g, x)
    dom = domain if domain is not None else g
    if dom.degree != g.degree:
        raise PreconditionError("witness domain degree differs from the group's")
    if constraint == CONSTRAINT_ODD_P:
        primes = _odd_primes(dom)
    elif constraint == CONSTRAINT_TWO_ELEMENT:
        primes = [2] if dom.order % 2 == 0 else []
    elif constraint == CONSTRAINT_ANY:
        primes = list(factorize(dom.order).primes)
    else:
        raise PreconditionError(f"unknown witness constraint {constraint!r}")
    out = _exhaust(dom, x.t, primes, cap, pair_cap)
    if out is None:
        raise CapExceededError(f"pair cap {pair_cap} exhausted before the search finished")
    hit = out[1]
    return None if hit is None else _witness(x, g.degree, hit)


def witness_is_valid(
    w: Witness,
    ambient: PermutationGroup | None = None,
    y_domain: PermutationGroup | None = None,
) -> bool:
    """Re-validate a witness from its fields: the pair subgroup is not
    solvable, its order matches, derived_steps matches, y is a p-element of
    the stated prime, and the parts lie where claimed."""
    if w.x.degree != w.y.degree:
        return False
    solvable, order, steps, _h = _pair_solvable(w.x.degree, w.x.t, w.y.t)
    if solvable or order != w.subgroup_order or steps != w.derived_steps:
        return False
    if w.prime is not None and _prime_of_order(w.y.order()) != w.prime:
        return False
    if ambient is not None and not ambient.contains(w.x):
        return False
    if y_domain is not None and not y_domain.contains(w.y):
        return False
    return True
