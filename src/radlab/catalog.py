"""Named groups: recipe families, the test corpus, bundled datasets, and the
cross-validation group lists.

Every name build_named accepts has one builder in _BUILDERS: a recipe, or,
for the five list members with no recipe here (three unitary groups, PSp4(3)
and Sz(8)), the marked socle of a bundled automorphism-group file written by
tools/make_bundled_groups.py. Group files are JSON: {"name", "degree",
"generators": [cycle strings, 1-based], "expected_order", "socle_generators":
[indices into generators]}. expected_order is asserted on load. The data
directory ships with the package; the RADLAB_DATA environment variable
overrides it.

Simple-group order formulas live here both to assert recipe correctness and
to index list members that are beyond desk scale. _SOCLE_ORDERS holds each
list member's socle order, and each _REALIZERS row the Aut order of a
runnable member beside its maker; cvl_realization is the one place that
checks a realization against them.
"""

from __future__ import annotations

import json
import math
import os
from pathlib import Path
from typing import NamedTuple

from .errors import CycleParseError, GroupFileError, OrderMismatchError, PreconditionError
from .gf import GF
from .group import PermutationGroup
from .linalg import (
    doubled_domain,
    doubled_frobenius_perm,
    doubled_matrix_perm,
    duality_perm,
    frobenius_point_perm,
    nonzero_vectors,
    point_perm,
    projective_points,
    sl_generators,
    vector_perm,
)
from .perm import Perm, format_cycles, parse_cycles


def data_dir() -> Path:
    env = os.environ.get("RADLAB_DATA")
    if env:
        return Path(env)
    return Path(__file__).resolve().parent / "data"


# ---------------------------------------------------------------- formulas

def psl_order(d: int, q: int) -> int:
    n = q ** (d * (d - 1) // 2)
    for i in range(2, d + 1):
        n *= q**i - 1
    return n // math.gcd(d, q - 1)


def psu_order(d: int, q: int) -> int:
    n = q ** (d * (d - 1) // 2)
    for i in range(2, d + 1):
        n *= q**i - (-1) ** i
    return n // math.gcd(d, q + 1)


def psp_order(n: int, q: int) -> int:
    """Projective symplectic group on a 2n-dimensional space."""
    v = q ** (n * n)
    for i in range(1, n + 1):
        v *= q ** (2 * i) - 1
    return v // math.gcd(2, q - 1)


def omega_odd_order(n: int, q: int) -> int:
    """Simple orthogonal group on a (2n+1)-dimensional space."""
    return psp_order(n, q)


def omega_plus_order(n: int, q: int) -> int:
    v = q ** (n * (n - 1)) * (q**n - 1)
    for i in range(1, n):
        v *= q ** (2 * i) - 1
    return v // math.gcd(4, q**n - 1)


def omega_minus_order(n: int, q: int) -> int:
    v = q ** (n * (n - 1)) * (q**n + 1)
    for i in range(1, n):
        v *= q ** (2 * i) - 1
    return v // math.gcd(4, q**n + 1)


def g2_order(q: int) -> int:
    return q**6 * (q**6 - 1) * (q**2 - 1)


def triality_d4_order(q: int) -> int:
    return q**12 * (q**8 + q**4 + 1) * (q**6 - 1) * (q**2 - 1)


def f4_order(q: int) -> int:
    return q**24 * (q**12 - 1) * (q**8 - 1) * (q**6 - 1) * (q**2 - 1)


def sz_order(q: int) -> int:
    return q**2 * (q**2 + 1) * (q - 1)


TITS_GROUP_ORDER = 17971200


# ----------------------------------------------------------------- recipes

def _from_images(degree: int, image_lists: list[list[int]], name: str) -> PermutationGroup:
    gens = [Perm.from_images(im, degree) for im in image_lists]
    return PermutationGroup(degree, gens, name=name)


def symmetric(n: int) -> PermutationGroup:
    if n < 1:
        raise PreconditionError("symmetric group needs n >= 1")
    if n == 1:
        return PermutationGroup(1, [], name="S1")
    cyc = list(range(1, n)) + [0]
    swap = [1, 0] + list(range(2, n))
    gens = [swap] if n == 2 else [swap, cyc]
    return _from_images(n, gens, f"S{n}")


def alternating(n: int) -> PermutationGroup:
    if n < 3:
        raise PreconditionError("alternating group needs n >= 3 to be nontrivial")
    three = [1, 2, 0] + list(range(3, n))
    if n == 3:
        return _from_images(3, [three], "A3")
    if n % 2 == 1:
        cyc = list(range(1, n)) + [0]
    else:
        cyc = [0] + list(range(2, n)) + [1]
    return _from_images(n, [three, cyc], f"A{n}")


def cyclic(n: int) -> PermutationGroup:
    if n < 1:
        raise PreconditionError("cyclic group needs n >= 1")
    if n == 1:
        return PermutationGroup(1, [], name="C1")
    cyc = list(range(1, n)) + [0]
    return _from_images(n, [cyc], f"C{n}")


def dihedral(n: int) -> PermutationGroup:
    """Symmetries of a regular n-gon on its vertices, n >= 3."""
    if n < 3:
        raise PreconditionError("dihedral group needs n >= 3")
    rot = list(range(1, n)) + [0]
    refl = [0] + list(range(n - 1, 0, -1))
    return _from_images(n, [rot, refl], f"D{n}")


def direct_product(a: PermutationGroup, b: PermutationGroup, name: str | None = None) -> PermutationGroup:
    """Both factors act on disjoint point ranges, a's first."""
    n = a.degree + b.degree
    gens = []
    for g in a.generators:
        gens.append(Perm.from_images([g.t[i] for i in range(a.degree)] + list(range(a.degree, n)), n))
    for g in b.generators:
        gens.append(Perm.from_images(list(range(a.degree)) + [g.t[i] + a.degree for i in range(b.degree)], n))
    if name is None:
        name = f"{a.name}x{b.name}"
    return PermutationGroup(n, gens, name=name)


def wreath_swap(a: PermutationGroup, t: int = 2, name: str | None = None) -> PermutationGroup:
    """t disjoint copies of a, plus the t-cycle rotating the blocks."""
    if t < 2:
        raise PreconditionError("wreath_swap needs t >= 2")
    n = a.degree
    gens = []
    for g in a.generators:
        images = [g.t[i] for i in range(n)] + list(range(n, t * n))
        gens.append(Perm.from_images(images, t * n))
    rot = [(x + n) % (t * n) for x in range(t * n)]
    gens.append(Perm.from_images(rot, t * n))
    if name is None:
        name = f"{a.name}wr{t}"
    return PermutationGroup(t * n, gens, name=name)


def _assert_order(g: PermutationGroup, expected: int) -> PermutationGroup:
    if g.order != expected:
        raise OrderMismatchError(f"{g.name}: built order {g.order}, expected {expected}")
    return g


def projective_special_linear(d: int, q: int) -> PermutationGroup:
    """PSL_d(q) on the points of PG(d-1, q)."""
    k = GF(q)
    pts = projective_points(k, d)
    idx = {p: i for i, p in enumerate(pts)}
    gens = [point_perm(k, pts, idx, m) for m in sl_generators(k, d)]
    g = PermutationGroup(len(pts), gens, name=f"PSL{d}_{q}")
    return _assert_order(g, psl_order(d, q))


def projective_semilinear_2(q: int) -> tuple[PermutationGroup, PermutationGroup]:
    """(PGammaL_2(q), PSL_2(q)) on the projective line; the socle's
    generators come first in the big group's generator list. For prime q
    there is no field automorphism, and the big group is PGL_2(q)."""
    k = GF(q)
    pts = projective_points(k, 2)
    idx = {p: i for i, p in enumerate(pts)}
    socle_gens = [point_perm(k, pts, idx, m) for m in sl_generators(k, 2)]
    extra = [point_perm(k, pts, idx, ((k.generator(), 0), (0, 1)))]
    if k.deg > 1:
        extra.append(frobenius_point_perm(k, pts, idx))
    name = f"PGammaL2_{q}" if k.deg > 1 else f"PGL2_{q}"
    g = PermutationGroup(len(pts), socle_gens + extra, name=name)
    socle = PermutationGroup(len(pts), socle_gens, name=f"PSL2_{q}")
    _assert_order(socle, psl_order(2, q))
    return _assert_order(g, q * (q * q - 1) * k.deg), socle


def sl2_3_on_vectors() -> PermutationGroup:
    """The faithful image of SL_2(3) on the 8 nonzero vectors of GF(3)^2."""
    k = GF(3)
    vecs = nonzero_vectors(k, 2)
    idx = {v: i for i, v in enumerate(vecs)}
    gens = [vector_perm(k, vecs, idx, m) for m in sl_generators(k, 2)]
    g = PermutationGroup(len(vecs), gens, name="SL2_3v")
    return _assert_order(g, 24)


# ------------------------------------------------------------------ corpus

_BUILDERS = {
    "S3": lambda: symmetric(3),
    "S4": lambda: symmetric(4),
    "S5": lambda: symmetric(5),
    "S6": lambda: symmetric(6),
    "S7": lambda: symmetric(7),
    "A4": lambda: alternating(4),
    "A5": lambda: alternating(5),
    "A6": lambda: alternating(6),
    "A7": lambda: alternating(7),
    "C2": lambda: cyclic(2),
    "C3": lambda: cyclic(3),
    "C6": lambda: cyclic(6),
    "C12": lambda: cyclic(12),
    "D4": lambda: dihedral(4),
    "D5": lambda: dihedral(5),
    "D6": lambda: dihedral(6),
    "S3xA5": lambda: direct_product(symmetric(3), alternating(5)),
    "C2xA5": lambda: direct_product(cyclic(2), alternating(5)),
    "A5xA5": lambda: direct_product(alternating(5), alternating(5)),
    "A5wr2": lambda: wreath_swap(alternating(5)),
    "PSL2_3": lambda: projective_special_linear(2, 3),
    "PSL2_4": lambda: projective_special_linear(2, 4),
    "PSL2_5": lambda: projective_special_linear(2, 5),
    "PSL2_7": lambda: projective_special_linear(2, 7),
    "PSL2_8": lambda: projective_special_linear(2, 8),
    "PSL2_9": lambda: projective_special_linear(2, 9),
    "PSL2_11": lambda: projective_special_linear(2, 11),
    "PSL2_13": lambda: projective_special_linear(2, 13),
    "PGL2_7": lambda: projective_semilinear_2(7)[0],
    "PSL3_2": lambda: projective_special_linear(3, 2),
    "SL2_3v": sl2_3_on_vectors,
}

CORPUS = tuple(_BUILDERS)


class LoadedGroup(NamedTuple):
    group: PermutationGroup
    socle: PermutationGroup | None


def _is_int(v) -> bool:
    return isinstance(v, int) and not isinstance(v, bool)


def _check_group_file(path, data) -> None:
    """Raise GroupFileError naming the file and the first field that breaks
    the schema (see the module docstring)."""
    def bad(field: str, why: str):
        return GroupFileError(f"{path}: field {field!r} {why}")

    if not isinstance(data, dict):
        raise GroupFileError(f"{path}: expected a JSON object")
    if "degree" not in data:
        raise bad("degree", "is missing")
    if not _is_int(data["degree"]) or data["degree"] < 1:
        raise bad("degree", "must be a positive integer")
    gens = data.get("generators")
    if not isinstance(gens, list) or not all(isinstance(s, str) for s in gens):
        raise bad("generators", "must be a list of cycle strings")
    expected = data.get("expected_order")
    if expected is not None and not (_is_int(expected) and expected >= 1):
        raise bad("expected_order", "must be a positive integer")
    name = data.get("name")
    if name is not None and not isinstance(name, str):
        raise bad("name", "must be a string")
    idx = data.get("socle_generators")
    if idx is not None and not (
        isinstance(idx, list) and all(_is_int(i) and 0 <= i < len(gens) for i in idx)
    ):
        raise bad("socle_generators", "must be a list of indices into 'generators'")


def load_group_file(path) -> LoadedGroup:
    with open(path, encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except (ValueError, RecursionError) as e:
            # ValueError covers JSONDecodeError and UnicodeDecodeError
            raise GroupFileError(f"{path}: not a JSON group file: {e}") from None
    _check_group_file(path, data)
    degree = data["degree"]
    gens = []
    for i, text in enumerate(data["generators"]):
        try:
            gens.append(Perm(degree, parse_cycles(text, degree)))
        except CycleParseError as e:
            raise GroupFileError(f"{path}: field 'generators' item {i}: {e}") from None
    g = PermutationGroup(degree, gens, name=data.get("name"))
    expected = data.get("expected_order")
    if expected is not None and g.order != expected:
        raise OrderMismatchError(
            f"{path}: generators produce order {g.order}, file says {expected}"
        )
    socle = None
    idx = data.get("socle_generators")
    if idx:
        socle = PermutationGroup(degree, [gens[i] for i in idx],
                                 name=(data.get("name") or "group") + "_socle")
    return LoadedGroup(g, socle)


def save_group_file(path, group: PermutationGroup, socle_indices=None) -> None:
    n = group.degree
    data = {
        "name": group.name,
        "degree": n,
        "generators": [format_cycles(p.t, n) for p in group.generators],
        "expected_order": group.order,
    }
    if socle_indices is not None:
        data["socle_generators"] = list(socle_indices)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(data, indent=2, sort_keys=True) + "\n")


def _bundled(name: str) -> tuple[PermutationGroup, PermutationGroup]:
    """(Aut(G0), G0) as stored in the bundled file of the list member name,
    the socle named name."""
    loaded = load_group_file(data_dir() / f"{name}.json")
    if loaded.socle is None:
        raise PreconditionError(f"bundled file for {name} lacks socle_generators")
    loaded.socle.name = name
    return loaded.group, loaded.socle


# beyond the corpus: more projective groups, and the bundled socles
_BUILDERS.update({
    "PSL3_3": lambda: projective_special_linear(3, 3),
    "PSL3_4": lambda: projective_special_linear(3, 4),
    "PSL4_2": lambda: projective_special_linear(4, 2),
    "PSL2_27": lambda: projective_special_linear(2, 27),
    **{n: (lambda n=n: _bundled(n)[1]) for n in ("PSU3_3", "PSU4_2", "PSp4_3", "PSU3_4", "Sz_8")},
})


def build_named(name: str) -> PermutationGroup:
    """A catalog group by name: corpus entries, extra projective groups, and
    bundled socles. For bundled automorphism-group files the named simple
    group is the marked socle, which is what this returns."""
    builder = _BUILDERS.get(name)
    if builder is None:
        raise PreconditionError(f"unknown group name {name!r}")
    return builder()


def known_names() -> list[str]:
    return list(_BUILDERS)


# --------------------------------------------------- cross-validation lists

class CvlEntry(NamedTuple):
    socle: str
    socle_order: int
    aut_order: int | None = None

    @property
    def runnable(self) -> bool:
        """Whether the automorphism group order is known, so it is realized."""
        return self.aut_order is not None

    def fits(self, cap: int) -> bool:
        """Whether verify_cvl checks this entry under the enumeration cap: a
        runnable entry whose automorphism group has at most cap elements."""
        return self.runnable and self.aut_order <= cap


class CvlList(NamedTuple):
    name: str
    x_order: int
    witness_kind: str  # the find_witness constraint: "odd-p" or "two-element"
    entries: tuple


class CvlRealization(NamedTuple):
    name: str
    group: PermutationGroup  # the full automorphism group, as permutations
    socle: PermutationGroup


_SOCLE_ORDERS = {
    "A6": psl_order(2, 9),
    "PSL3_2": psl_order(3, 2),
    "PSL2_8": psl_order(2, 8),
    "PSL2_27": psl_order(2, 27),
    "PSL3_3": psl_order(3, 3),
    "PSL3_4": psl_order(3, 4),
    "PSL4_2": psl_order(4, 2),
    "PSL4_3": psl_order(4, 3),
    "PSU3_3": psu_order(3, 3),
    "PSU3_4": psu_order(3, 4),
    "PSU4_2": psu_order(4, 2),
    "PSU4_3": psu_order(4, 3),
    "PSU5_2": psu_order(5, 2),
    "PSU6_2": psu_order(6, 2),
    "PSp4_3": psp_order(2, 3),
    "PSp6_3": psp_order(3, 3),
    "PO7_3": omega_odd_order(3, 3),
    "PO8p_2": omega_plus_order(4, 2),
    "PO8m_2": omega_minus_order(4, 2),
    "PO8p_3": omega_plus_order(4, 3),
    "PO8m_3": omega_minus_order(4, 3),
    "2D4_3": omega_minus_order(4, 3),
    "D4_2": omega_plus_order(4, 2),
    "G2_3": g2_order(3),
    "3D4_2": triality_d4_order(2),
    "3D4_3": triality_d4_order(3),
    "F4_2": f4_order(2),
    "2F4_2p": TITS_GROUP_ORDER,
    "Sz_8": sz_order(8),
}

# socle name -> (|Aut(G0)|, () -> (Aut(G0), G0)), one row per runnable member;
# the makers look up _real_s8 and _real_psl3_doubled only when called
_REALIZERS = {
    "A6": (1440, lambda: projective_semilinear_2(9)),
    "PSL3_2": (336, lambda: projective_semilinear_2(7)),
    "PSL2_8": (1512, lambda: projective_semilinear_2(8)),
    "PSL2_27": (58968, lambda: projective_semilinear_2(27)),
    "PSL3_3": (11232, lambda: _real_psl3_doubled(3, False)),
    "PSL3_4": (241920, lambda: _real_psl3_doubled(4, True)),
    "PSL4_2": (40320, lambda: _real_s8()),
    "PSU3_3": (12096, lambda: _bundled("PSU3_3")),
    "PSU4_2": (51840, lambda: _bundled("PSU4_2")),
    "PSp4_3": (51840, lambda: _bundled("PSp4_3")),
    "PSU3_4": (249600, lambda: _bundled("PSU3_4")),
    "Sz_8": (87360, lambda: _bundled("Sz_8")),
}


def _entry(name: str) -> CvlEntry:
    row = _REALIZERS.get(name)
    return CvlEntry(name, _SOCLE_ORDERS[name], row[0] if row else None)


CVL_LISTS = {
    "CVL1": CvlList(
        "CVL1", 3, "odd-p",
        tuple(_entry(n) for n in ("G2_3", "PSL3_3", "PSp4_3", "PSU3_3")),
    ),
    # CVL2 lists one group twice: 2D4_3 and PO8m_3 are both POmega8-(3)
    # (2D4(q) is POmega8-(q)). Both names stay as transcribed until the
    # entry is checked against the source list.
    "CVL2": CvlList(
        "CVL2", 2, "odd-p",
        tuple(_entry(n) for n in (
            "A6", "PSL3_2", "PSU4_2", "PSU5_2", "3D4_2", "PSL3_3", "PSL4_3",
            "PO7_3", "PSp4_3", "PSp6_3", "G2_3", "PSU4_3", "2D4_3", "PSU3_3",
            "PO8p_2", "PO8m_2", "PO8p_3", "PO8m_3", "F4_2", "2F4_2p",
        )),
    ),
    "CVL3": CvlList(
        "CVL3", 3, "two-element",
        tuple(_entry(n) for n in (
            "PSU3_3", "PSL3_3", "PSp4_3", "G2_3", "PSU4_3", "3D4_3", "3D4_2",
            "PSL4_2", "PSU6_2", "PSU4_2", "PSL3_4", "PSU3_4", "PSL2_8",
            "PSL2_27", "Sz_8", "D4_2",
        )),
    ),
}


def cvl_lists_for(name: str) -> list[str]:
    return [ln for ln, lst in CVL_LISTS.items() if any(e.socle == name for e in lst.entries)]


def cvl_entry(list_name: str, socle_name: str) -> CvlEntry:
    lst = CVL_LISTS.get(list_name)
    if lst is None:
        raise PreconditionError(f"unknown list {list_name!r}")
    for e in lst.entries:
        if e.socle == socle_name:
            return e
    raise PreconditionError(f"{socle_name!r} is not in {list_name}")


def _real_s8() -> tuple[PermutationGroup, PermutationGroup]:
    a8 = alternating(8)
    swap = Perm.from_images([1, 0] + list(range(2, 8)), 8)
    return PermutationGroup(8, a8.generators + [swap], name="S8"), a8


def _real_psl3_doubled(q: int, with_diag: bool) -> tuple[PermutationGroup, PermutationGroup]:
    k = GF(q)
    dom, idx = doubled_domain(k, 3)
    n = len(dom)
    socle_gens = [doubled_matrix_perm(k, dom, idx, m) for m in sl_generators(k, 3)]
    extra = []
    if with_diag:
        extra.append(doubled_matrix_perm(k, dom, idx, ((k.generator(), 0, 0), (0, 1, 0), (0, 0, 1))))
    if k.deg > 1:
        extra.append(doubled_frobenius_perm(k, dom, idx))
    extra.append(duality_perm(dom, idx))
    g = PermutationGroup(n, socle_gens + extra, name=f"PSL3_{q}_aut")
    return g, PermutationGroup(n, socle_gens, name=f"PSL3_{q}")


def cvl_realization(socle_name: str) -> CvlRealization:
    """Aut(G0) with its distinguished socle, for a runnable list member; both
    orders are checked against its _REALIZERS row and _SOCLE_ORDERS."""
    row = _REALIZERS.get(socle_name)
    if row is None:
        raise PreconditionError(f"no desk-scale realization for {socle_name!r}")
    aut_order, maker = row
    group, socle = maker()
    for what, g, expected in (
        ("automorphism group", group, aut_order),
        ("socle", socle, _SOCLE_ORDERS[socle_name]),
    ):
        if g.order != expected:
            raise OrderMismatchError(f"{socle_name}: {what} order {g.order}, expected {expected}")
    return CvlRealization(socle_name, group, socle)
