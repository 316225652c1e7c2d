"""Value semantics of the result, roster and report types.

The result and roster types are named tuples: fields keep their names,
order and defaults, two values with equal fields are equal and hash alike,
and no attribute can be assigned. VerificationReport is the one mutable
type, since the harnesses fill it in as they run.
"""

import pytest

from radlab import catalog
from radlab.cli import RunConfig
from radlab.criteria import DEFAULT_PAIR_CAP, MembershipVerdict, Witness, _moved, member_oddp, witness_is_valid
from radlab.group import DEFAULT_ENUMERATION_CAP
from radlab.perm import Perm
from radlab.structure import derived_series, primary_decomposition, two_part_split
from radlab.verify import STATUS_VERIFIED, CheckResult, VerificationReport


@pytest.fixture(scope="module")
def values():
    """One value of each named-tuple type, with the field that a tampered
    copy changes and the value it takes there."""
    a5 = catalog.build_named("A5")
    s4 = catalog.build_named("S4")
    v = member_oddp(a5, Perm.from_cycles("(1 2)(3 4)", 5))
    w = v.witness
    entry = catalog.CVL_LISTS["CVL1"].entries[0]
    x = Perm.from_cycles("(1 2 3)(4 5)", 5)
    return {
        "Witness": (w, "prime", 13),
        "MembershipVerdict": (v, "pairs_tested", v.pairs_tested + 1),
        "DerivedSeries": (derived_series(s4), "solvable", False),
        "PrimaryDecomposition": (primary_decomposition(x), "order", 7),
        "TwoPartSplit": (two_part_split(x), "odd_part", x),
        "LoadedGroup": (catalog.LoadedGroup(a5, None), "socle", a5),
        "CvlEntry": (entry, "socle_order", entry.socle_order + 1),
        "CvlList": (catalog.CVL_LISTS["CVL1"], "x_order", 5),
        "CvlRealization": (catalog.CvlRealization("A5", s4, a5), "name", "S5"),
        "CheckResult": (CheckResult("(1 2)(3 4)", 2, 15, False, w, True), "agreed", False),
        "RunConfig": (RunConfig(), "pair_cap", 5),
    }


@pytest.mark.parametrize("name", [
    "Witness", "MembershipVerdict", "DerivedSeries", "PrimaryDecomposition",
    "TwoPartSplit", "LoadedGroup", "CvlEntry", "CvlList", "CvlRealization",
    "CheckResult", "RunConfig",
])
def test_named_tuple_value_semantics(values, name):
    value, field, other = values[name]
    assert type(value).__name__ == name
    twin = type(value)(*value)
    assert twin == value and twin is not value
    assert hash(twin) == hash(value)
    tampered = value._replace(**{field: other})
    assert tampered != value and type(tampered) is type(value)
    with pytest.raises(AttributeError):
        setattr(value, field, other)
    with pytest.raises(AttributeError):
        value.no_such_field = 1


def test_fields_and_defaults_are_kept():
    assert Witness._fields == ("x", "y", "prime", "subgroup_order", "derived_steps")
    assert MembershipVerdict._fields == ("element", "method", "member", "witness", "pairs_tested")
    assert CheckResult._fields == (
        "x_text", "x_order", "class_size", "member", "witness", "agreed")
    assert catalog.CvlEntry("X", 10).aut_order is None
    assert not catalog.CvlEntry("X", 10).runnable
    assert RunConfig() == (DEFAULT_ENUMERATION_CAP, DEFAULT_PAIR_CAP, None)
    assert RunConfig(pair_cap=3).pair_cap == 3


def test_verification_report_is_filled_in_place():
    report = VerificationReport("S4", "method", "equivalence", STATUS_VERIFIED)
    assert report.checks == [] and report.elapsed_ms == 0
    report.checks.append("c")
    assert VerificationReport("S4", "method", "equivalence", STATUS_VERIFIED).checks == []
    report.status = "capped"
    report.elapsed_ms = 12
    assert (report.status, report.elapsed_ms) == ("capped", 12)
    with pytest.raises(AttributeError):
        report.no_such_field = 1


def test_moved_keeps_order_steps_and_prime():
    a5 = catalog.build_named("A5")
    w = member_oddp(a5, Perm.from_cycles("(1 2)(3 4)", 5)).witness
    d = Perm.from_cycles("(1 2 3 4 5)", 5)
    moved = _moved(w, d.t, 5)
    assert type(moved) is Witness
    assert moved.x == d.inverse() * w.x * d and moved.y == d.inverse() * w.y * d
    assert (moved.prime, moved.subgroup_order, moved.derived_steps) == (
        w.prime, w.subgroup_order, w.derived_steps)
    assert witness_is_valid(moved, ambient=a5, y_domain=a5)
    assert _moved(w, None, 5) is w
    assert _moved(None, d.t, 5) is None
