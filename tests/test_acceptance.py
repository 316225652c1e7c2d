"""Release gate: seven criteria, one test per criterion.

Run with `pytest -v tests/test_acceptance.py` to get one pass/fail line per
criterion. Time bounds are asserted inside the tests that carry them.
"""

import random
import time

from radlab import catalog, cli
from radlab.arith import primitive_prime_divisor
from radlab.catalog import projective_special_linear
from radlab.criteria import witness_is_valid
from radlab.group import PermutationGroup
from radlab.structure import primary_decomposition, two_part_split
from radlab.verify import (
    STATUS_OUT_OF_SCALE,
    STATUS_VERIFIED,
    generating_triple,
    verify_corpus,
    verify_cvl,
)

CVL_CAP = 260_000  # covers every desk-scale automorphism group

FEASIBLE = {
    "CVL1": ("PSL3_3", "PSp4_3", "PSU3_3"),
    "CVL2": ("A6", "PSL3_2", "PSU4_2", "PSL3_3", "PSp4_3", "PSU3_3"),
    "CVL3": ("PSU3_3", "PSL3_3", "PSp4_3", "PSU4_2", "PSL3_4", "PSU3_4",
             "PSL2_8", "PSL2_27", "Sz_8", "PSL4_2"),
}


def test_criterion_1_corpus_equivalence_zero_discrepancies():
    # every criterion verdict equals the radical oracle on every class
    # representative of every corpus group, inside ten minutes
    required = {
        "S3", "S4", "S5", "S6", "S7", "A4", "A5", "A6", "A7",
        "S3xA5", "C2xA5", "A5xA5", "A5wr2", "PGL2_7", "PSL3_2", "SL2_3v",
        "PSL2_4", "PSL2_5", "PSL2_7", "PSL2_8", "PSL2_9", "PSL2_11", "PSL2_13",
    }
    assert required <= set(catalog.CORPUS)
    assert len(catalog.CORPUS) >= 25
    t0 = time.perf_counter()
    reports = verify_corpus()
    elapsed = time.perf_counter() - t0
    assert [r.group for r in reports] == list(catalog.CORPUS)
    discrepancies = [
        (r.group, c.x_text)
        for r in reports
        for c in r.checks
        if not c.agreed
    ]
    assert discrepancies == []
    assert all(r.status == STATUS_VERIFIED for r in reports)
    assert all(r.checks for r in reports)
    assert elapsed <= 600


def test_criterion_2_cvl_reproduction_on_feasible_members():
    # every feasible list member verifies with a restricted witness per
    # in-scope class, each inside fifteen minutes; out-of-scale members are
    # indexed and reported as such, never as failures
    for list_name, names in FEASIBLE.items():
        x_order = catalog.CVL_LISTS[list_name].x_order
        for name in names:
            real = catalog.cvl_realization(name)
            r = verify_cvl(name, list_name, cap=CVL_CAP)
            assert r.status == STATUS_VERIFIED, (list_name, name)
            assert r.checks, (list_name, name)
            for c in r.checks:
                assert c.x_order == x_order
                assert not c.member and c.agreed
                assert c.witness is not None
                assert witness_is_valid(
                    c.witness, ambient=real.group, y_domain=real.socle
                ), (list_name, name, c.x_text)
            assert r.elapsed_ms <= 15 * 60 * 1000, (list_name, name)
    for list_name, lst in catalog.CVL_LISTS.items():
        for entry in lst.entries:
            if entry.socle in FEASIBLE[list_name]:
                continue
            assert not entry.runnable or entry.aut_order > CVL_CAP
            r = verify_cvl(entry.socle, list_name, cap=CVL_CAP)
            assert r.status == STATUS_OUT_OF_SCALE, (list_name, entry.socle)
            assert r.checks == []


def test_criterion_3_quantitative_order_and_class_size_anchors():
    for q in (5, 7, 9, 11, 13):
        g = projective_special_linear(2, q)
        assert g.order == q * (q * q - 1) // 2, q
    for q in (7, 9, 11, 13):
        g = projective_special_linear(2, q)
        involution_classes = g.class_representatives(order_filter=2)
        assert involution_classes, q
        for cls in involution_classes:
            assert cls.size >= q * (q - 1) // 2, q
    a = projective_special_linear(3, 2)
    b = projective_special_linear(2, 7)
    assert a.order == b.order == 168
    class_sizes = lambda g: sorted(c.size for c in g.class_representatives())
    assert class_sizes(a) == class_sizes(b)


def test_criterion_4_decomposition_invariants_on_sampled_elements(corpus):
    rng = random.Random(2026)
    groups = [g for g in corpus.values() if g.order > 1]
    for i in range(1000):
        g = groups[i % len(groups)]
        x = g.random_element(rng)
        pd = primary_decomposition(x)
        prod = None
        for p, comp in pd.components:
            co = comp.order()
            assert co > 1
            while co % p == 0:
                co //= p
            assert co == 1, "component order must be a power of its prime"
            prod = comp if prod is None else prod * comp
        for _, c1 in pd.components:
            for _, c2 in pd.components:
                assert c1 * c2 == c2 * c1
        if prod is None:
            assert x.is_identity()
        else:
            assert prod == x
        order_product = 1
        for p, comp in pd.components:
            order_product *= comp.order()
        assert order_product == x.order() or (x.is_identity() and order_product == 1)
        ts = two_part_split(x)
        assert ts.two_part * ts.odd_part == x
        assert ts.odd_part * ts.two_part == x
        assert ts.odd_part.order() % 2 == 1
        two = ts.two_part.order()
        assert two & (two - 1) == 0
        assert two * ts.odd_part.order() == x.order()
    for _ in range(200):
        g = groups[rng.randrange(len(groups))]
        seeds = [g.random_element(rng) for _ in range(rng.randint(1, 2))]
        a = g.subgroup(seeds)
        x = g.random_element(rng)
        components_inside = all(
            a.contains(comp) for _, comp in primary_decomposition(x).components
        )
        assert a.contains(x) == components_inside


def test_criterion_5_primitive_prime_divisor_properties():
    for q in (2, 3, 4, 5, 7, 8, 9):
        for e in range(3, 13):
            u = primitive_prime_divisor(q, e)
            if (q, e) == (2, 6):
                assert u is None
                continue
            assert u is not None, (q, e)
            assert (q**e - 1) % u == 0
            for i in range(1, e):
                assert (q**i - 1) % u != 0, (q, e, i)
            assert u >= e + 1
            assert u % e == 1


def test_criterion_6_generation_by_involutions_and_two_elements():
    t0 = time.perf_counter()
    for name in ("A5", "A6", "PSL3_2"):
        g = catalog.build_named(name)
        triple = generating_triple(g, orders=(2,))
        assert triple is not None, name
        for y in triple:
            assert y.order() == 2 and g.contains(y)
        assert PermutationGroup(g.degree, list(triple)).order == g.order
    g = catalog.build_named("PSU3_3")
    triple = generating_triple(g, orders=(2, 4, 8))
    assert triple is not None
    for y in triple:
        assert g.contains(y)
        assert y.order() in (2, 4, 8)
    assert PermutationGroup(g.degree, list(triple)).order == 6048
    assert time.perf_counter() - t0 <= 600


def test_criterion_7_reports_byte_identical_across_runs(tmp_path, capsys):
    blobs = []
    for label in ("first", "second"):
        out = tmp_path / f"corpus_{label}.json"
        code = cli.main(["verify", "corpus", "--out", str(out)])
        assert code == 0
        blobs.append(out.read_bytes())
    capsys.readouterr()
    assert blobs[0] == blobs[1]
