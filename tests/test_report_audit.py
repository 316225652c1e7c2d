"""Audit of the written reports by an engine that did not write them.

witness_is_valid re-checks a witness through the same Schreier-Sims chain and
derived-subgroup descent that found it, so an engine bug would confirm
itself. Here the report bytes that `radlab verify corpus` and `radlab verify
cvl runnable --cap 260000` write are parsed back, and sympy.combinatorics
recomputes every claim in them from the catalog's generators alone:

- each witness: |<x, y>| equals subgroup_order, <x, y> is not solvable, and
  y has order a power of the stated p (for CVL: y lies in the socle, x has
  the list's order and p is odd or 2 as the list demands)
- each corpus check with member true: the normal closure of x is solvable
- each corpus report: the class sizes sum to |G|

sympy is a test-only dependency; without it the module is skipped.
"""

import json
import re

import pytest

from radlab import catalog, cli

combinatorics = pytest.importorskip("sympy.combinatorics")
isprime = pytest.importorskip("sympy").isprime


def sympy_perm(text, n):
    cycles = [[int(v) - 1 for v in c.split()] for c in re.findall(r"\(([^)]*)\)", text)]
    return combinatorics.Permutation([c for c in cycles if c], size=n)


def sympy_group(g):
    return combinatorics.PermutationGroup(
        [combinatorics.Permutation(list(t[: g.degree])) for t in g.gens]
    )


def written_reports(argv, tmp_path, capsys):
    out = tmp_path / "report.json"
    assert cli.main(argv + ["--out", str(out)]) == 0
    capsys.readouterr()
    return json.loads(out.read_bytes())


def is_power_of(k, p):
    assert isprime(p), p
    while k % p == 0:
        k //= p
    return k == 1


def audit_witness(where, x, w, n, domain):
    y = sympy_perm(w["y"], n)
    assert domain.contains(y), where
    assert y.order() > 1 and is_power_of(y.order(), w["p"]), where
    pair = combinatorics.PermutationGroup([x, y])
    assert pair.order() == w["subgroup_order"], where
    assert not pair.is_solvable, where


def test_corpus_report_claims_hold_in_sympy(tmp_path, capsys):
    reports = written_reports(["verify", "corpus"], tmp_path, capsys)
    assert [r["group"] for r in reports] == list(catalog.CORPUS)
    members = witnesses = 0
    for report in reports:
        g = catalog.build_named(report["group"])
        ref = sympy_group(g)
        assert sum(c["class_size"] for c in report["checks"]) == ref.order(), report["group"]
        for c in report["checks"]:
            where = (report["group"], c["x"])
            x = sympy_perm(c["x"], g.degree)
            assert ref.contains(x), where
            if c["member"]:
                assert c["witness"] is None, where
                assert ref.normal_closure(x).is_solvable, where
                members += 1
            else:
                audit_witness(where, x, c["witness"], g.degree, ref)
                witnesses += 1
    assert members > 0 and witnesses > 0


def test_cvl_report_claims_hold_in_sympy(tmp_path, capsys):
    reports = written_reports(
        ["verify", "cvl", "runnable", "--cap", "260000"], tmp_path, capsys
    )
    assert len(reports) == 19
    for report in reports:
        lst = catalog.CVL_LISTS[report["cvl"]]
        real = catalog.cvl_realization(report["group"])
        n = real.group.degree
        aut, socle = sympy_group(real.group), sympy_group(real.socle)
        assert report["checks"], report["group"]
        for c in report["checks"]:
            where = (report["group"], report["cvl"], c["x"])
            x = sympy_perm(c["x"], n)
            assert aut.contains(x) and x.order() == lst.x_order, where
            assert not c["member"], where
            w = c["witness"]
            assert (w["p"] == 2) == (lst.witness_kind == "two-element"), where
            audit_witness(where, x, w, n, socle)
