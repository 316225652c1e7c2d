"""Verification harnesses and machine-readable reports.

Two harnesses: verify_equivalence checks, on one group, that all membership
criteria agree with an independently computed solvable radical on every
conjugacy class representative; verify_cvl checks, for a named almost-simple
group, that every class representative of the stated order in Aut(G0) has a
restricted witness inside the socle. radical_by_method runs one criterion
over the same per-class loop and closes the members it finds into R(G).

Reports serialize to a canonical JSON form (sorted keys, fixed indentation,
checks ordered by element order then cycle text) so that repeated runs and
different worker counts produce byte-identical files. Wall-clock time is
kept on the in-memory report for console display but never serialized.
"""

from __future__ import annotations

import json
import multiprocessing
import random
import time
from dataclasses import dataclass, field

from . import catalog
from .criteria import (
    DEFAULT_PAIR_CAP,
    METHOD_B1,
    METHOD_COMBINED,
    METHOD_ODD_P,
    METHOD_TWO_ELEMENT,
    MembershipVerdict,
    Witness,
    _prime_of_order,
    find_witness,
    member_b1,
    member_combined,
    member_oddp,
    member_two_element,
)
from .errors import CapExceededError
from .group import DEFAULT_ENUMERATION_CAP, PermutationGroup
from .perm import Perm, format_cycles, table_order
from .structure import solvable_radical

STATUS_VERIFIED = "verified"
STATUS_COUNTEREXAMPLE = "counterexample"
STATUS_OUT_OF_SCALE = "out-of-desk-scale"
STATUS_CAPPED = "capped"

MEMBER_FNS = {
    METHOD_B1: member_b1,
    METHOD_ODD_P: member_oddp,
    METHOD_TWO_ELEMENT: member_two_element,
    METHOD_COMBINED: member_combined,
}


@dataclass(frozen=True)
class CheckResult:
    x_text: str
    x_order: int
    class_size: int
    member: bool
    witness: Witness | None
    agreed: bool

    def to_json_dict(self) -> dict:
        w = None
        if self.witness is not None:
            w = {
                "y": format_cycles(self.witness.y.t, self.witness.y.degree),
                "p": self.witness.prime,
                "subgroup_order": self.witness.subgroup_order,
            }
        return {
            "x": self.x_text,
            "class_size": self.class_size,
            "member": self.member,
            "witness": w,
        }


@dataclass
class VerificationReport:
    group: str
    kind_key: str  # "method" for criterion runs, "cvl" for list checks
    kind: str
    status: str
    checks: list = field(default_factory=list)
    elapsed_ms: int = 0  # console-only; never serialized

    def to_json_dict(self) -> dict:
        return {
            "group": self.group,
            self.kind_key: self.kind,
            "status": self.status,
            "checks": [c.to_json_dict() for c in self.checks],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), indent=2, sort_keys=True) + "\n"


def _sorted_checks(checks: list) -> list:
    return sorted(checks, key=lambda c: (c.x_order, c.x_text))


# Worker state is installed before forking so task functions only need the
# class representative; pool.map preserves input order, which keeps reports
# independent of the worker count. The harnesses clear it before returning.
_WORK: dict = {}


def _pmap(fn, items: list, workers: int) -> list:
    if workers <= 1 or len(items) <= 1:
        return [fn(x) for x in items]
    ctx = multiprocessing.get_context("fork")
    with ctx.Pool(min(workers, len(items))) as pool:
        return pool.map(fn, items)


def _class_checks(g: PermutationGroup, task, cap: int, workers: int,
                  order_filter: int | None = None, **work) -> tuple[list, list]:
    """task over the class representatives of g (of order order_filter):
    ([(representative, class size)], [CheckResult]), both in class order.
    The worker state holds g, cap and work for the duration of the call."""
    items = [
        (cls.representative, cls.size)
        for cls in g.class_representatives(order_filter=order_filter, cap=cap)
    ]
    _WORK.update(group=g, cap=cap, **work)
    try:
        return items, _pmap(task, items, workers)
    finally:
        _WORK.clear()


def _equivalence_task(item) -> CheckResult:
    x, size = item
    g: PermutationGroup = _WORK["group"]
    radical: PermutationGroup = _WORK["radical"]
    pair_cap: int = _WORK["pair_cap"]
    cap: int = _WORK["cap"]
    oracle = radical.contains(x)
    verdicts: list[MembershipVerdict] = [
        member_b1(g, x, pair_cap, cap),
        member_oddp(g, x, pair_cap, cap),
        member_combined(g, x, pair_cap, cap),
    ]
    xo = x.order()
    if _prime_of_order(xo) not in (None, 2):
        verdicts.append(member_two_element(g, x, pair_cap, cap))
    agreed = all(v.member == oracle for v in verdicts)
    witness = None
    if not oracle:
        for v in verdicts[1:2] + verdicts[:1] + verdicts[2:]:
            if v.witness is not None:
                witness = v.witness
                break
    return CheckResult(format_cycles(x.t, g.degree), xo, size, oracle, witness, agreed)


def verify_equivalence(
    g: PermutationGroup,
    name: str | None = None,
    cap: int = DEFAULT_ENUMERATION_CAP,
    pair_cap: int = DEFAULT_PAIR_CAP,
    workers: int = 1,
) -> VerificationReport:
    """All criteria versus the derived-series radical oracle, per class."""
    label = name or g.name or "group"
    report = VerificationReport(label, "method", "equivalence", STATUS_VERIFIED)
    t0 = time.perf_counter()
    try:
        radical = solvable_radical(g, cap=cap)
        _items, checks = _class_checks(
            g, _equivalence_task, cap, workers, radical=radical, pair_cap=pair_cap
        )
        report.checks = _sorted_checks(checks)
        if not all(c.agreed for c in report.checks):
            report.status = STATUS_COUNTEREXAMPLE
    except CapExceededError:
        report.status = STATUS_CAPPED
    report.elapsed_ms = int((time.perf_counter() - t0) * 1000)
    return report


def _cvl_task(item) -> CheckResult:
    x, size = item
    g: PermutationGroup = _WORK["group"]
    socle: PermutationGroup = _WORK["socle"]
    constraint: str = _WORK["constraint"]
    pair_cap: int = _WORK["pair_cap"]
    cap: int = _WORK["cap"]
    w = find_witness(g, x, constraint, pair_cap, cap, domain=socle)
    # the radical of any of these automorphism groups is trivial, so a
    # missing witness would falsify the restricted criterion for this list
    return CheckResult(format_cycles(x.t, g.degree), x.order(), size, w is None, w, w is not None)


def verify_cvl(
    socle_name: str,
    list_name: str,
    cap: int = DEFAULT_ENUMERATION_CAP,
    pair_cap: int = DEFAULT_PAIR_CAP,
    workers: int = 1,
) -> VerificationReport:
    """Restricted-witness check for one list member, or an honest
    out-of-desk-scale report when its automorphism group exceeds the cap."""
    entry = catalog.cvl_entry(list_name, socle_name)
    lst = catalog.CVL_LISTS[list_name]
    report = VerificationReport(socle_name, "cvl", list_name, STATUS_VERIFIED)
    t0 = time.perf_counter()
    if not entry.fits(cap):
        report.status = STATUS_OUT_OF_SCALE
        report.elapsed_ms = int((time.perf_counter() - t0) * 1000)
        return report
    real = catalog.cvl_realization(socle_name)
    try:
        _items, checks = _class_checks(
            real.group, _cvl_task, cap, workers, order_filter=lst.x_order,
            socle=real.socle, constraint=lst.witness_kind, pair_cap=pair_cap,
        )
        report.checks = _sorted_checks(checks)
        if not all(c.agreed for c in report.checks):
            report.status = STATUS_COUNTEREXAMPLE
    except CapExceededError:
        report.status = STATUS_CAPPED
    report.elapsed_ms = int((time.perf_counter() - t0) * 1000)
    return report


def _method_task(item) -> CheckResult:
    x, size = item
    g: PermutationGroup = _WORK["group"]
    v = MEMBER_FNS[_WORK["method"]](g, x, _WORK["pair_cap"], _WORK["cap"])
    return CheckResult(format_cycles(x.t, g.degree), x.order(), size, v.member, v.witness, True)


def radical_by_method(
    g: PermutationGroup,
    method: str,
    name: str | None = None,
    cap: int = DEFAULT_ENUMERATION_CAP,
    pair_cap: int = DEFAULT_PAIR_CAP,
    workers: int = 1,
) -> tuple[PermutationGroup, VerificationReport]:
    """R(G) as the normal closure of the class representatives that one
    membership criterion places in it, with the per-class report. A cap that
    fires raises CapExceededError."""
    items, checks = _class_checks(g, _method_task, cap, workers, method=method, pair_cap=pair_cap)
    members = [x for (x, _size), c in zip(items, checks) if c.member]
    radical = g.normal_closure(members) if members else g.subgroup([])
    report = VerificationReport(name or g.name or "group", "method", method, STATUS_VERIFIED)
    report.checks = _sorted_checks(checks)
    return radical, report


def verify_corpus(
    cap: int = DEFAULT_ENUMERATION_CAP,
    pair_cap: int = DEFAULT_PAIR_CAP,
    workers: int = 1,
) -> list:
    """verify_equivalence over every corpus group, in catalog order."""
    out = []
    for name in catalog.CORPUS:
        g = catalog.build_named(name)
        out.append(verify_equivalence(g, name, cap, pair_cap, workers))
    return out


def generating_triple(
    g: PermutationGroup,
    orders: tuple[int, ...] = (2,),
    cap: int = DEFAULT_ENUMERATION_CAP,
) -> tuple[Perm, Perm, Perm] | None:
    """First triple of elements with orders in `orders` that generates g.

    Candidates are collected in enumeration order, then shuffled with a fixed
    seed: enumeration emits whole stabilizer-chain cosets, so consecutive
    candidates cluster inside point stabilizers and triples drawn from a
    cluster can never generate. Index triples i < j < k are tried by ascending
    k, then j, then i, so every triple drawn from the first m shuffled
    candidates is exhausted before candidate m+1 enters. The search is
    deterministic across runs and the returned triple is a checkable
    certificate: rebuilding the subgroup it generates must give back the full
    order.
    """
    n = g.degree
    target = g.order
    cands = [t for t in g.tables(cap) if table_order(t, n) in orders]
    random.Random(0).shuffle(cands)
    for k in range(2, len(cands)):
        for j in range(1, k):
            for i in range(j):
                triple = (Perm(n, cands[i]), Perm(n, cands[j]), Perm(n, cands[k]))
                if PermutationGroup(n, list(triple)).order == target:
                    return triple
    return None


def reports_to_json(reports: list) -> str:
    if len(reports) == 1:
        return reports[0].to_json()
    return json.dumps([r.to_json_dict() for r in reports], indent=2, sort_keys=True) + "\n"
