"""Verification harnesses, report canonicalization, generation certificates."""

import ast
import hashlib
import importlib.util
import json
from pathlib import Path

import pytest

from radlab import catalog, verify
from radlab.criteria import witness_is_valid
from radlab.errors import CapExceededError, PreconditionError
from radlab.group import PermutationGroup
from radlab.perm import Perm
from radlab.structure import solvable_radical
from radlab.verify import (
    STATUS_CAPPED,
    STATUS_OUT_OF_SCALE,
    STATUS_VERIFIED,
    generating_triple,
    radical_by_method,
    reports_to_json,
    verify_cvl,
    verify_equivalence,
)


def test_equivalence_solvable_group(corpus):
    r = verify_equivalence(corpus["S4"], "S4")
    assert r.status == STATUS_VERIFIED
    assert r.group == "S4" and r.kind_key == "method"
    assert len(r.checks) == 5  # the five classes of S4
    for c in r.checks:
        assert c.member and c.witness is None and c.agreed


def test_equivalence_simple_group(corpus):
    a5 = corpus["A5"]
    r = verify_equivalence(a5, "A5")
    assert r.status == STATUS_VERIFIED
    assert len(r.checks) == 5
    members = [c for c in r.checks if c.member]
    assert len(members) == 1 and members[0].x_order == 1
    for c in r.checks:
        if not c.member:
            assert c.witness is not None
            assert witness_is_valid(c.witness, ambient=a5)


def test_equivalence_mixed_group(corpus):
    # radical of C2xA5 is the central C2: exactly two member classes
    r = verify_equivalence(corpus["C2xA5"], "C2xA5")
    assert r.status == STATUS_VERIFIED
    assert sum(1 for c in r.checks if c.member) == 2
    assert sum(c.class_size for c in r.checks) == 120


def test_equivalence_checks_are_sorted(corpus):
    r = verify_equivalence(corpus["S6"], "S6")
    keys = [(c.x_order, c.x_text) for c in r.checks]
    assert keys == sorted(keys)
    assert sum(c.class_size for c in r.checks) == 720


def test_cvl_report_and_schema():
    r = verify_cvl("PSL2_8", "CVL3")
    assert r.status == STATUS_VERIFIED
    assert r.checks, "PGammaL2(8) has elements of order 3"
    for c in r.checks:
        assert c.x_order == 3
        assert not c.member and c.agreed
        assert c.witness is not None
        assert c.witness.prime == 2
    d = json.loads(r.to_json())
    assert set(d) == {"group", "cvl", "status", "checks"}
    assert d["group"] == "PSL2_8" and d["cvl"] == "CVL3"
    for row in d["checks"]:
        assert set(row) == {"x", "class_size", "member", "witness"}
        assert set(row["witness"]) == {"y", "p", "subgroup_order"}
        assert row["witness"]["p"] == 2
    assert "elapsed_ms" not in r.to_json()


def test_cvl_witnesses_live_in_socle():
    real = catalog.cvl_realization("PSL3_2")
    r = verify_cvl("PSL3_2", "CVL2")
    assert r.status == STATUS_VERIFIED
    for c in r.checks:
        assert c.x_order == 2
        w = c.witness
        assert w.prime % 2 == 1
        assert real.socle.contains(w.y)
        assert witness_is_valid(w, ambient=real.group, y_domain=real.socle)


def test_cvl_out_of_scale_entries():
    r = verify_cvl("G2_3", "CVL1")
    assert r.status == STATUS_OUT_OF_SCALE and r.checks == []
    # runnable socle, but the automorphism group exceeds the cap in force
    r = verify_cvl("PSL3_4", "CVL3")
    assert r.status == STATUS_OUT_OF_SCALE and r.checks == []
    r = verify_cvl("PSL3_4", "CVL3", cap=260_000)
    assert r.status == STATUS_VERIFIED and r.checks


def test_cap_fired_inside_a_class_check_reports_capped(monkeypatch):
    g = catalog.build_named("S3xA5")
    assert verify_equivalence(g, "S3xA5").status == STATUS_VERIFIED
    assert verify_cvl("PSL2_8", "CVL3").status == STATUS_VERIFIED
    assert verify_equivalence(g, "S3xA5", cap=g.order - 1).status == STATUS_CAPPED
    # a cap that fires inside the per-class checks, after the radical is known
    seen = []

    def cap_fires(g, x, *args, **kwargs):
        seen.append(g.order)
        raise CapExceededError("cap fired")

    monkeypatch.setattr(verify, "member_b1", cap_fires)
    monkeypatch.setattr(verify, "find_witness", cap_fires)
    assert verify_equivalence(g, "S3xA5").status == STATUS_CAPPED
    assert verify_cvl("PSL2_8", "CVL3").status == STATUS_CAPPED
    assert seen == [360, 1512]


def test_radical_by_method_matches_the_oracle():
    g = catalog.build_named("S3xA5")
    for method in ("b1", "odd-p", "combined"):
        radical, report = radical_by_method(g, method)
        assert radical.order == 6
        assert [c.member for c in report.checks] == [
            solvable_radical(g).contains(Perm.from_cycles(c.x_text, g.degree))
            for c in report.checks
        ]
    with pytest.raises(CapExceededError):
        radical_by_method(g, "combined", cap=g.order - 1)


def test_cvl_rejects_unknown_pairs():
    with pytest.raises(PreconditionError):
        verify_cvl("PSU3_3", "CVL9")
    with pytest.raises(PreconditionError):
        verify_cvl("A7", "CVL1")


def test_reports_serialize_deterministically(corpus):
    a = verify_equivalence(corpus["PSL2_7"], "PSL2_7")
    b = verify_equivalence(corpus["PSL2_7"], "PSL2_7")
    assert a.to_json() == b.to_json()


def test_reports_to_json_shapes(corpus):
    r1 = verify_equivalence(corpus["S4"], "S4")
    r2 = verify_equivalence(corpus["A5"], "A5")
    single = reports_to_json([r1])
    assert single == r1.to_json()
    assert json.loads(single)["group"] == "S4"
    both = json.loads(reports_to_json([r1, r2]))
    assert isinstance(both, list)
    assert [d["group"] for d in both] == ["S4", "A5"]
    assert reports_to_json([r1, r2]).endswith("\n")


def test_generating_triples_of_involutions(corpus):
    for name in ("A5", "A6", "PSL3_2"):
        g = corpus[name]
        triple = generating_triple(g, orders=(2,))
        assert triple is not None, name
        for y in triple:
            assert y.order() == 2
            assert g.contains(y)
        assert PermutationGroup(g.degree, list(triple)).order == g.order


def test_generating_triple_of_two_elements():
    g = catalog.build_named("PSU3_3")
    triple = generating_triple(g, orders=(2, 4, 8))
    assert triple is not None
    for y in triple:
        assert y.order() in (2, 4, 8)
    assert PermutationGroup(g.degree, list(triple)).order == 6048


def test_generating_triple_deterministic(corpus):
    a = generating_triple(corpus["A6"], orders=(2,))
    b = generating_triple(corpus["A6"], orders=(2,))
    assert a == b


def test_generating_triple_none_when_impossible(corpus):
    # C3 has no involutions at all
    assert generating_triple(corpus["C3"], orders=(2,)) is None
    # the involutions of A4 only generate the Klein four-subgroup
    assert generating_triple(corpus["A4"], orders=(2,)) is None


def _benchmark_pins():
    """perfbench's pinned report digests (read from run.py's source, which
    imports benchmark-only modules) and its workload inputs."""
    root = Path(__file__).resolve().parent.parent / "perfbench"
    tree = ast.parse((root / "run.py").read_text())
    pinned = next(
        ast.literal_eval(node.value)
        for node in tree.body
        if isinstance(node, ast.Assign) and node.targets[0].id == "PINNED_DIGESTS"
    )
    spec = importlib.util.spec_from_file_location("_bench_workloads", root / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    return pinned, workloads


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def test_corpus_report_bytes_as_pinned():
    pinned, wl = _benchmark_pins()
    reports = [
        verify_equivalence(catalog.build_named(name), name, cap=wl.CORPUS_CAP)
        for name, _order in wl.CORPUS
    ]
    assert _sha256(reports_to_json(reports)) == pinned["corpus"]


def test_cvl_report_bytes_as_pinned():
    pinned, wl = _benchmark_pins()
    reports = [verify_cvl(socle, lst, cap=wl.CVL_CAP) for lst, socle, _aut in wl.CVL_PAIRS]
    assert _sha256(reports_to_json(reports)) == pinned["cvl_runnable"]
