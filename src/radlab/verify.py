"""Verification harnesses and machine-readable reports.

Two harnesses: verify_equivalence checks, on one group, that all membership
criteria agree with an independently computed solvable radical on every
conjugacy class representative; verify_cvl checks, for a named almost-simple
group, that every class representative of the stated order in Aut(G0) has a
restricted witness inside the socle. radical_by_method runs one criterion
on every class representative and closes the members it finds into R(G).
Each is one loop over the class representatives, in this process.

verify_cvl builds each realization (Aut(G0) with its socle) on the first
check of that socle and keeps it for the life of the process, so the lists
that share a socle share its chains, class listings, p-element streams and
scan memos. Warm checks give the same report bytes as cold ones, since every
cache of a group answers a later call as a fresh build would. The 12
runnable realizations hold about 1.8 MB of Python heap once all 19 list
checks have run: about 0.7 MB of socle p-element streams, 0.7 MB of chains,
and the rest proven Schreier generators and scan memos.

Reports serialize to a canonical JSON form (sorted keys, fixed indentation,
checks ordered by element order then cycle text) so that repeated runs
produce byte-identical files. Wall-clock time is kept on the in-memory
report for console display but never serialized.
"""

from __future__ import annotations

import json
import random
import time
from typing import NamedTuple

from . import catalog
from .criteria import (
    DEFAULT_PAIR_CAP,
    METHOD_B1,
    METHOD_COMBINED,
    METHOD_ODD_P,
    METHOD_TWO_ELEMENT,
    MembershipVerdict,
    Witness,
    find_witness,
    member_b1,
    member_combined,
    member_oddp,
    member_two_element,
)
from .errors import CapExceededError
from .group import DEFAULT_ENUMERATION_CAP, ConjugacyClass, PermutationGroup
from .perm import Perm, format_cycles, table_order
from .structure import solvable_radical

STATUS_VERIFIED = "verified"
STATUS_COUNTEREXAMPLE = "counterexample"
STATUS_OUT_OF_SCALE = "out-of-desk-scale"
STATUS_CAPPED = "capped"

# socle name -> its catalog.CvlRealization, built by the first verify_cvl
# call for that socle; see the module docstring
_REALIZATIONS: dict = {}

MEMBER_FNS = {
    METHOD_B1: member_b1,
    METHOD_ODD_P: member_oddp,
    METHOD_TWO_ELEMENT: member_two_element,
    METHOD_COMBINED: member_combined,
}


class CheckResult(NamedTuple):
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


class VerificationReport:
    """One harness run; the harness sets status, checks and elapsed_ms as it
    goes. kind_key is "method" for criterion runs, "cvl" for list checks;
    elapsed_ms is console-only and never serialized."""

    __slots__ = ("group", "kind_key", "kind", "status", "checks", "elapsed_ms")

    def __init__(self, group: str, kind_key: str, kind: str, status: str):
        self.group = group
        self.kind_key = kind_key
        self.kind = kind
        self.status = status
        self.checks: list = []
        self.elapsed_ms = 0

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


def _equivalence_check(g: PermutationGroup, radical: PermutationGroup,
                       cls: ConjugacyClass, pair_cap: int, cap: int) -> CheckResult:
    x = cls.representative
    oracle = radical.contains(x)
    verdicts: list[MembershipVerdict] = [
        member_b1(g, x, pair_cap, cap),
        member_oddp(g, x, pair_cap, cap),
        member_combined(g, x, pair_cap, cap),
    ]
    xo = x.order()
    if xo % 2:
        verdicts.append(member_two_element(g, x, pair_cap, cap))
    agreed = all(v.member == oracle for v in verdicts)
    witness = None
    if not oracle:
        for v in verdicts[1:2] + verdicts[:1] + verdicts[2:]:
            if v.witness is not None:
                witness = v.witness
                break
    return CheckResult(format_cycles(x.t, g.degree), xo, cls.size, oracle, witness, agreed)


def verify_equivalence(
    g: PermutationGroup,
    name: str | None = None,
    cap: int = DEFAULT_ENUMERATION_CAP,
    pair_cap: int = DEFAULT_PAIR_CAP,
    workers: int = 1,
) -> VerificationReport:
    """All criteria versus the derived-series radical oracle, per class.

    workers is accepted and ignored; every check runs in this process. The
    keyword stays only because perfbench/workloads.py passes workers=1 by
    name, and it goes with the next change to the benchmark."""
    label = name or g.name or "group"
    report = VerificationReport(label, "method", "equivalence", STATUS_VERIFIED)
    t0 = time.perf_counter()
    try:
        radical = solvable_radical(g, cap=cap)
        report.checks = _sorted_checks([
            _equivalence_check(g, radical, cls, pair_cap, cap)
            for cls in g.class_representatives(cap=cap)
        ])
        if not all(c.agreed for c in report.checks):
            report.status = STATUS_COUNTEREXAMPLE
    except CapExceededError:
        report.status = STATUS_CAPPED
    report.elapsed_ms = int((time.perf_counter() - t0) * 1000)
    return report


def verify_cvl(
    socle_name: str,
    list_name: str,
    cap: int = DEFAULT_ENUMERATION_CAP,
    pair_cap: int = DEFAULT_PAIR_CAP,
    workers: int = 1,
) -> VerificationReport:
    """Restricted-witness check for one list member, or an honest
    out-of-desk-scale report when its automorphism group exceeds the cap.

    workers is accepted and ignored, as in verify_equivalence."""
    entry = catalog.cvl_entry(list_name, socle_name)
    lst = catalog.CVL_LISTS[list_name]
    report = VerificationReport(socle_name, "cvl", list_name, STATUS_VERIFIED)
    t0 = time.perf_counter()
    if not entry.fits(cap):
        report.status = STATUS_OUT_OF_SCALE
        report.elapsed_ms = int((time.perf_counter() - t0) * 1000)
        return report
    real = _REALIZATIONS.get(socle_name)
    if real is None:
        real = _REALIZATIONS[socle_name] = catalog.cvl_realization(socle_name)
    g = real.group
    try:
        checks = []
        for cls in g.class_representatives(lst.x_order, cap):
            x = cls.representative
            w = find_witness(g, x, lst.witness_kind, pair_cap, cap, domain=real.socle)
            # the radical of any of these automorphism groups is trivial (the
            # socle proves it: structure.socle_certificate), so a missing
            # witness would falsify the restricted criterion for this list
            checks.append(CheckResult(format_cycles(x.t, g.degree), x.order(), cls.size,
                                      w is None, w, w is not None))
        report.checks = _sorted_checks(checks)
        if not all(c.agreed for c in report.checks):
            report.status = STATUS_COUNTEREXAMPLE
    except CapExceededError:
        report.status = STATUS_CAPPED
    report.elapsed_ms = int((time.perf_counter() - t0) * 1000)
    return report


def radical_by_method(
    g: PermutationGroup,
    method: str,
    name: str | None = None,
    cap: int = DEFAULT_ENUMERATION_CAP,
    pair_cap: int = DEFAULT_PAIR_CAP,
) -> tuple[PermutationGroup, VerificationReport]:
    """R(G) as the normal closure of the class representatives that one
    membership criterion places in it, with the per-class report. A cap that
    fires raises CapExceededError."""
    member = MEMBER_FNS[method]
    checks, members = [], []
    for cls in g.class_representatives(cap=cap):
        x = cls.representative
        v = member(g, x, pair_cap, cap)
        checks.append(CheckResult(format_cycles(x.t, g.degree), x.order(), cls.size,
                                  v.member, v.witness, True))
        if v.member:
            members.append(x)
    radical = g.normal_closure(members) if members else g.subgroup([])
    report = VerificationReport(name or g.name or "group", "method", method, STATUS_VERIFIED)
    report.checks = _sorted_checks(checks)
    return radical, report


def verify_corpus(
    cap: int = DEFAULT_ENUMERATION_CAP,
    pair_cap: int = DEFAULT_PAIR_CAP,
) -> list:
    """verify_equivalence over every corpus group, in catalog order."""
    out = []
    for name in catalog.CORPUS:
        g = catalog.build_named(name)
        out.append(verify_equivalence(g, name, cap, pair_cap))
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
