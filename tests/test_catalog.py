"""Group catalog: builders, order formulas, bundled files, CVL rosters."""

import json
import math
import shutil

import pytest

from radlab import catalog
from radlab.catalog import (
    CVL_LISTS,
    build_named,
    cvl_entry,
    cvl_lists_for,
    cvl_realization,
    cyclic,
    data_dir,
    dihedral,
    direct_product,
    load_group_file,
    projective_general_linear_2,
    projective_semilinear_2,
    projective_special_linear,
    psl_order,
    psu_order,
    save_group_file,
    sl2_3_on_vectors,
    symmetric,
    alternating,
    wreath_swap,
)
from radlab.errors import OrderMismatchError, PreconditionError
from radlab.group import PermutationGroup
from radlab.perm import Perm
from radlab.structure import derived_series, solvability

# classical orders, frozen from the standard product formulas
KNOWN_ORDERS = {
    ("psl", 2, 5): 60,
    ("psl", 2, 7): 168,
    ("psl", 2, 9): 360,
    ("psl", 2, 8): 504,
    ("psl", 2, 27): 9828,
    ("psl", 3, 2): 168,
    ("psl", 3, 3): 5616,
    ("psl", 3, 4): 20160,
    ("psl", 4, 2): 20160,
    ("psl", 4, 3): 6065280,
    ("psu", 3, 3): 6048,
    ("psu", 3, 4): 62400,
    ("psu", 4, 2): 25920,
    ("psu", 4, 3): 3265920,
    ("psu", 5, 2): 13685760,
    ("psu", 6, 2): 9196830720,
}


def test_linear_order_formulas_frozen():
    for (kind, d, q), expected in KNOWN_ORDERS.items():
        fn = psl_order if kind == "psl" else psu_order
        assert fn(d, q) == expected, (kind, d, q)


def test_order_formulas_against_plain_products():
    # |SL_d(q)| = q^(d(d-1)/2) * prod(q^i - 1, i=2..d), then divide the center
    for d in (2, 3, 4):
        for q in (2, 3, 4, 5, 7, 8, 9):
            gl = 1
            for i in range(d):
                gl *= q**d - q**i
            sl = gl // (q - 1)
            assert psl_order(d, q) == sl // math.gcd(d, q - 1), (d, q)
    assert catalog.psp_order(2, 3) == 25920
    assert catalog.psp_order(3, 3) == 4585351680
    assert catalog.omega_odd_order(3, 3) == 4585351680  # B3 and C3 agree
    assert catalog.omega_plus_order(4, 2) == 174182400
    assert catalog.omega_minus_order(4, 2) == 197406720
    assert catalog.omega_plus_order(4, 3) == 4952179814400
    assert catalog.omega_minus_order(4, 3) == 10151968619520
    assert catalog.g2_order(3) == 729 * 728 * 8
    assert catalog.triality_d4_order(2) == 211341312
    assert catalog.f4_order(2) == 3311126603366400
    assert catalog.sz_order(8) == 64 * 65 * 7
    assert catalog.TITS_GROUP_ORDER == 17971200


def test_basic_builders():
    assert symmetric(5).order == 120
    assert symmetric(1).order == 1
    assert symmetric(2).order == 2
    assert alternating(7).order == 2520
    assert alternating(3).order == 3
    assert cyclic(12).order == 12 and cyclic(1).order == 1
    for n in range(3, 9):
        assert dihedral(n).order == 2 * n
    with pytest.raises(PreconditionError):
        symmetric(0)
    with pytest.raises(PreconditionError):
        alternating(2)
    with pytest.raises(PreconditionError):
        dihedral(2)
    with pytest.raises(PreconditionError):
        cyclic(0)


def test_direct_product_order_and_degree():
    g = direct_product(symmetric(3), alternating(5))
    assert g.degree == 8 and g.order == 360
    assert g.name == "S3xA5"
    h = direct_product(cyclic(4), cyclic(6), name="C4xC6")
    assert h.order == 24 and h.degree == 10
    # factors commute
    a = Perm.from_cycles("(1 2 3)", 8)
    b = Perm.from_cycles("(4 5 6 7 8)", 8)
    assert a * b == b * a


def test_wreath_swap_shapes():
    w = wreath_swap(alternating(5))
    assert w.degree == 10 and w.order == 60 * 60 * 2
    trivial = PermutationGroup(1, [], name="1")
    c3 = wreath_swap(trivial, 3)
    assert c3.degree == 3 and c3.order == 3
    assert wreath_swap(cyclic(2), 2).order == 8
    assert wreath_swap(cyclic(2), 3).order == 2 * 2 * 2 * 3
    with pytest.raises(PreconditionError):
        wreath_swap(cyclic(2), 1)


def test_psl2_point_counts_and_orders():
    for q in (5, 7, 9, 11, 13):
        g = projective_special_linear(2, q)
        assert g.degree == q + 1
        assert g.order == q * (q * q - 1) // 2
    g = projective_special_linear(3, 2)
    assert g.degree == 7 and g.order == 168


def test_psl_builders_match_formula():
    for d, q in [(2, 4), (2, 8), (3, 3), (4, 2)]:
        g = projective_special_linear(d, q)
        assert g.order == psl_order(d, q), (d, q)


def test_pgl2_and_semilinear():
    pgl = projective_general_linear_2(7)
    assert pgl.degree == 8 and pgl.order == 336
    g, socle = projective_semilinear_2(8)
    assert (g.order, socle.order) == (1512, 504)
    assert g.degree == socle.degree == 9
    g, socle = projective_semilinear_2(9)
    assert (g.order, socle.order) == (1440, 360)
    g, socle = projective_semilinear_2(4)
    assert (g.order, socle.order) == (120, 60)
    # socle generators lead the big generator list
    assert g.generators[: len(socle.generators)] == socle.generators


def test_semilinear_socle_is_normal():
    g, socle = projective_semilinear_2(8)
    for s in socle.generators:
        for t in g.generators:
            assert socle.contains(t.inverse() * s * t)


def test_sl2_3_vector_action():
    g = sl2_3_on_vectors()
    assert g.degree == 8 and g.order == 24
    assert solvability(g)[0]
    assert derived_series(g).orders == (24, 8, 2, 1)


def test_corpus_builds_and_name_registry(corpus):
    assert set(corpus) == set(catalog.CORPUS)
    for name, g in corpus.items():
        assert g.name == name or name == "SL2_3v", name
    names = catalog.known_names()
    for required in ("S4", "A5", "PSL3_3", "PSL2_27", "PSU3_3", "Sz_8"):
        assert required in names
    with pytest.raises(PreconditionError):
        build_named("M11")


def test_build_named_extras_and_bundled():
    assert build_named("PSL3_3").order == 5616
    psu33 = build_named("PSU3_3")
    assert psu33.order == 6048 and psu33.degree == 28
    assert build_named("Sz_8").order == 29120


def test_build_named_bundled_socle_is_built_once(monkeypatch):
    # loading the file builds Aut(G0) and its socle; the socle is returned
    built = []
    init = PermutationGroup.__init__

    def counting_init(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(PermutationGroup, "__init__", counting_init)
    g = build_named("PSU3_3")
    assert len(built) == 2
    assert g.name == "PSU3_3" and g.order == 6048


@pytest.mark.parametrize("table", ["_AUT_ORDERS", "_SOCLE_ORDERS"])
def test_cvl_realization_checks_both_orders(monkeypatch, table):
    monkeypatch.setitem(getattr(catalog, table), "PSL3_2", 169)
    with pytest.raises(OrderMismatchError, match="PSL3_2.*expected 169"):
        cvl_realization("PSL3_2")


def test_group_file_round_trip(tmp_path):
    s4 = symmetric(4)
    p = tmp_path / "s4.json"
    save_group_file(p, s4, socle_indices=[1])
    loaded = load_group_file(p)
    assert loaded.group.order == 24
    assert set(loaded.group.elements()) == set(s4.elements())
    assert loaded.socle is not None and loaded.socle.order == 4  # <(0 1 2 3)> cycle gen
    data = json.loads(p.read_text())
    assert data["expected_order"] == 24
    data["expected_order"] = 25
    p.write_text(json.dumps(data))
    with pytest.raises(OrderMismatchError):
        load_group_file(p)


def test_group_file_without_socle(tmp_path):
    p = tmp_path / "a5.json"
    save_group_file(p, alternating(5))
    loaded = load_group_file(p)
    assert loaded.group.order == 60 and loaded.socle is None


def test_bundled_files_match_declared_orders():
    seen = set()
    for name in ("PSU3_3", "PSU4_2", "PSp4_3", "PSU3_4", "Sz_8"):
        loaded = load_group_file(data_dir() / f"{name}.json")
        assert loaded.socle is not None, name
        assert loaded.socle.order == catalog._SOCLE_ORDERS[name], name
        assert loaded.group.order == catalog._AUT_ORDERS[name], name
        seen.add(name)
    assert len(seen) == 5


def test_cvl_rosters_frozen():
    cvl1 = CVL_LISTS["CVL1"]
    assert (cvl1.x_order, cvl1.witness_kind) == (3, "odd-p")
    assert tuple(e.socle for e in cvl1.entries) == ("G2_3", "PSL3_3", "PSp4_3", "PSU3_3")
    cvl2 = CVL_LISTS["CVL2"]
    assert (cvl2.x_order, cvl2.witness_kind) == (2, "odd-p")
    assert tuple(e.socle for e in cvl2.entries) == (
        "A6", "PSL3_2", "PSU4_2", "PSU5_2", "3D4_2", "PSL3_3", "PSL4_3",
        "PO7_3", "PSp4_3", "PSp6_3", "G2_3", "PSU4_3", "2D4_3", "PSU3_3",
        "PO8p_2", "PO8m_2", "PO8p_3", "PO8m_3", "F4_2", "2F4_2p",
    )
    cvl3 = CVL_LISTS["CVL3"]
    assert (cvl3.x_order, cvl3.witness_kind) == (3, "two-element")
    assert tuple(e.socle for e in cvl3.entries) == (
        "PSU3_3", "PSL3_3", "PSp4_3", "G2_3", "PSU4_3", "3D4_3", "3D4_2",
        "PSL4_2", "PSU6_2", "PSU4_2", "PSL3_4", "PSU3_4", "PSL2_8",
        "PSL2_27", "Sz_8", "D4_2",
    )
    assert len(cvl1.entries) == 4
    assert len(cvl2.entries) == 20
    assert len(cvl3.entries) == 16


# Every pair of roster names with one socle order, and what the pair is.
SAME_GROUP_TWICE = {
    frozenset({"PSU4_2", "PSp4_3"}),  # PSU4(2) = PSp4(3)
    frozenset({"PO8p_2", "D4_2"}),  # POmega8+(2) = D4(2): CVL2 and CVL3 names
    frozenset({"PO8m_3", "2D4_3"}),  # POmega8-(3) = 2D4(3): twice on CVL2
}
DIFFERENT_GROUPS = {
    frozenset({"PO7_3", "PSp6_3"}),  # B3(3) and C3(3), not isomorphic
    frozenset({"PSL4_2", "PSL3_4"}),  # told apart by element orders below
}


def test_equal_order_roster_pairs_are_pinned():
    by_order: dict = {}
    for name, order in catalog._SOCLE_ORDERS.items():
        by_order.setdefault(order, set()).add(name)
    pairs = {frozenset(names) for names in by_order.values() if len(names) > 1}
    assert pairs == SAME_GROUP_TWICE | DIFFERENT_GROUPS
    assert {"2D4_3", "PO8m_3"} <= {e.socle for e in CVL_LISTS["CVL2"].entries}


def socle_order_counts(name):
    socle = cvl_realization(name).socle
    counts: dict = {}
    for t in socle.tables():
        o = socle.element_order(t)
        counts[o] = counts.get(o, 0) + 1
    return counts


def test_equal_order_runnable_socles_by_element_orders():
    # PSL4(2) = A8 holds (1 2 3)(4 5 6 7 8) of order 15; PSL3(4) has no
    # element of order 15, so the two groups of order 20160 differ
    psl4_2, psl3_4 = socle_order_counts("PSL4_2"), socle_order_counts("PSL3_4")
    assert psl4_2[15] == 2688 and 15 not in psl3_4
    assert sum(psl4_2.values()) == sum(psl3_4.values()) == 20160
    # the two realizations of PSU4(2) = PSp4(3) agree, as they must
    assert socle_order_counts("PSU4_2") == socle_order_counts("PSp4_3") == {
        1: 1, 2: 315, 3: 800, 4: 3780, 5: 5184, 6: 5760, 9: 5760, 12: 4320,
    }


def test_cvl_runnable_flags_and_aut_orders():
    runnable = {
        e.socle: e.aut_order
        for lst in CVL_LISTS.values()
        for e in lst.entries
        if e.runnable
    }
    assert runnable == {
        "A6": 1440, "PSL3_2": 336, "PSL2_8": 1512, "PSL2_27": 58968,
        "PSL3_3": 11232, "PSL4_2": 40320, "PSL3_4": 241920, "PSU3_3": 12096,
        "PSU4_2": 51840, "PSp4_3": 51840, "PSU3_4": 249600, "Sz_8": 87360,
    }
    for lst in CVL_LISTS.values():
        for e in lst.entries:
            assert e.runnable == (e.aut_order is not None)
            if e.runnable:
                assert e.aut_order % e.socle_order == 0


def test_cvl_entry_lookup():
    e = cvl_entry("CVL1", "PSU3_3")
    assert e.socle_order == 6048 and e.aut_order == 12096
    e = cvl_entry("CVL2", "G2_3")
    assert not e.runnable and e.aut_order is None
    assert e.socle_order == 4245696
    with pytest.raises(PreconditionError):
        cvl_entry("CVL9", "PSU3_3")
    with pytest.raises(PreconditionError):
        cvl_entry("CVL1", "A6")


def test_cvl_lists_for():
    assert cvl_lists_for("PSU3_3") == ["CVL1", "CVL2", "CVL3"]
    assert cvl_lists_for("A6") == ["CVL2"]
    assert cvl_lists_for("Sz_8") == ["CVL3"]
    assert cvl_lists_for("A7") == []


def test_cvl_index_file_matches_rosters():
    with open(data_dir() / "cvl_index.json", encoding="utf-8") as fh:
        on_disk = json.load(fh)
    expected = {}
    for ln, lst in sorted(CVL_LISTS.items()):
        entries = []
        for e in lst.entries:
            row = {
                "socle": e.socle,
                "socle_order": e.socle_order,
                "status": "runnable" if e.runnable else "out-of-desk-scale",
            }
            if e.runnable:
                row["aut_order"] = e.aut_order
            entries.append(row)
        expected[ln] = {
            "x_order": lst.x_order,
            "witness_kind": lst.witness_kind,
            "entries": entries,
        }
    assert on_disk == {"lists": expected}


def test_cvl_realizations_small():
    for name, socle_order, aut_order in [
        ("A6", 360, 1440),
        ("PSL3_2", 168, 336),
        ("PSL2_8", 504, 1512),
    ]:
        real = cvl_realization(name)
        assert real.name == name
        assert real.socle.order == socle_order
        assert real.group.order == aut_order
        assert real.group.degree == real.socle.degree
        for s in real.socle.generators:
            assert real.group.contains(s)
        # socle is normal under the outer generators
        for t in real.group.generators:
            for s in real.socle.generators:
                assert real.socle.contains(t.inverse() * s * t), name


def test_cvl_realization_out_of_scale():
    with pytest.raises(PreconditionError):
        cvl_realization("G2_3")
    with pytest.raises(PreconditionError):
        cvl_realization("F4_2")


def test_data_dir_env_override(tmp_path, monkeypatch):
    shutil.copy(data_dir() / "PSU3_3.json", tmp_path / "PSU3_3.json")
    monkeypatch.setenv("RADLAB_DATA", str(tmp_path))
    assert data_dir() == tmp_path
    assert build_named("PSU3_3").order == 6048
    with pytest.raises(FileNotFoundError):
        build_named("Sz_8")
