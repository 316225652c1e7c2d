"""Generate the bundled automorphism-group files in src/radlab/data/.

The files hold Aut(G0) for the five list members with no catalog recipe:
PSU3(3), PSU4(2) and PSU3(4) from unitary transvections, PSp4(3) from
symplectic transvections, and Sz(8) from its natural 4x4 matrices over
GF(8). Each file marks the simple socle inside the extension with
socle_generators indices, and is read back and checked against
catalog._AUT_ORDERS and catalog._SOCLE_ORDERS. The tool also writes
cvl_index.json from the catalog rosters, and writes nothing else.

Run from the repository root:

    python3 tools/make_bundled_groups.py
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from radlab import catalog
from radlab.errors import OrderMismatchError
from radlab.gf import GF, FiniteField
from radlab.group import PermutationGroup
from radlab.linalg import (
    det,
    frobenius_point_perm,
    identity_matrix,
    mat_mul,
    normalize_point,
    point_perm,
    projective_points,
    transpose,
    vec_mat,
)

OUT_DIR = Path(__file__).resolve().parent.parent / "src" / "radlab" / "data"


# ------------------------------------------------------------ form helpers

def _bar(k: FiniteField, x: int) -> int:
    # the involutory field automorphism of GF(q0^2), x -> x^q0
    return k.frobenius(x, k.deg // 2)


def _herm(k: FiniteField, x, y) -> int:
    d = len(x)
    s = 0
    for i in range(d):
        s = k.add(s, k.mul(x[i], _bar(k, y[d - 1 - i])))
    return s


def _is_unitary(k: FiniteField, m) -> bool:
    d = len(m)
    j_form = tuple(tuple(1 if a + b == d - 1 else 0 for b in range(d)) for a in range(d))
    barmt = transpose(tuple(tuple(_bar(k, x) for x in row) for row in m))
    return mat_mul(k, mat_mul(k, m, j_form), barmt) == j_form


def _symp(k: FiniteField, x, y) -> int:
    # antidiagonal form (1, 1, -1, -1): <x,y> = x1 y4 + x2 y3 - x3 y2 - x4 y1
    d = len(x)
    s = 0
    for i in range(d):
        t = k.mul(x[i], y[d - 1 - i])
        if i >= d // 2:
            t = k.neg(t)
        s = k.add(s, t)
    return s


def _is_symplectic(k: FiniteField, m) -> bool:
    d = len(m)
    e = identity_matrix(d)
    return all(_symp(k, m[a], m[b]) == _symp(k, e[a], e[b]) for a in range(d) for b in range(d))


def _greedy_generators(degree: int, perms, target: int):
    """Smallest-prefix generating subset, in the candidates' given order."""
    chosen = []
    group = None
    for p in perms:
        if group is not None and group.contains(p):
            continue
        chosen.append(p)
        group = PermutationGroup(degree, chosen)
        if group.order == target:
            return chosen
    raise OrderMismatchError(
        f"candidates generate order {0 if group is None else group.order}, wanted {target}"
    )


def _transvection_socle(k: FiniteField, pts, idx, form, preserves, target: int):
    """Greedy socle generators among the transvections w -> w + lam*form(w, v)*v,
    v in pts and lam nonzero, of determinant 1 that preserve the form."""
    d = len(pts[0])
    perms = []
    for v in pts:
        for lam in range(1, k.q):
            m = tuple(
                tuple(k.add(e[j], k.mul(k.mul(lam, form(k, e, v)), v[j])) for j in range(d))
                for e in identity_matrix(d)
            )
            if m != identity_matrix(d) and det(k, m) == 1 and preserves(k, m):
                perms.append(point_perm(k, pts, idx, m))
    return _greedy_generators(len(pts), perms, target)


# ----------------------------------------------------------- constructions
# each returns (degree, socle perms, outer perms) for a socle of order target

def unitary_group(q0: int, d: int, target: int):
    """PSU_d(q0) with its full diagonal+field extension on the isotropic
    points of PG(d-1, q0^2)."""
    k = GF(q0 * q0)
    pts = [p for p in projective_points(k, d) if _herm(k, p, p) == 0]
    idx = {p: i for i, p in enumerate(pts)}
    gens = _transvection_socle(k, pts, idx, _herm, _is_unitary, target)
    return len(pts), gens, [frobenius_point_perm(k, pts, idx)]


def symplectic_4_3(target: int):
    """PSp4(3) with a similitude on the 40 points of PG(3, 3)."""
    k = GF(3)
    pts = projective_points(k, 4)
    idx = {p: i for i, p in enumerate(pts)}
    gens = _transvection_socle(k, pts, idx, _symp, _is_symplectic, target)

    sim = ((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 2, 0), (0, 0, 0, 2))
    mu = 2
    e = identity_matrix(4)
    for a in range(4):
        for b in range(4):
            assert _symp(k, sim[a], sim[b]) == k.mul(mu, _symp(k, e[a], e[b]))
    return len(pts), gens, [point_perm(k, pts, idx, sim)]


def suzuki_8(target: int):
    """Sz(8) with its field automorphisms on its 65-point ovoid in PG(3, 8)."""
    k = GF(8)
    theta = lambda x: k.frobenius(x, 2)  # x -> x^4, the square root of Frobenius

    def u_mat(a, b):
        a_th = theta(a)
        r2c0 = k.add(k.mul(a, a_th), b)  # a^(1+theta) + b
        r3c0 = k.add(k.add(k.mul(k.mul(a, a), a_th), k.mul(a, b)), theta(b))
        return (
            (1, 0, 0, 0),
            (a, 1, 0, 0),
            (r2c0, a_th, 1, 0),
            (r3c0, b, a, 1),
        )

    # multiplication law pins down the parametrization
    for a in range(8):
        for b in range(8):
            for c in range(8):
                for e in range(8):
                    lhs = mat_mul(k, u_mat(a, b), u_mat(c, e))
                    rhs = u_mat(k.add(a, c), k.add(k.add(b, e), k.mul(a, theta(c))))
                    assert lhs == rhs, (a, b, c, e)

    def m_mat(lam):
        l2 = k.mul(lam, lam)
        l3 = k.mul(l2, lam)
        return (
            (l3, 0, 0, 0),
            (0, l2, 0, 0),
            (0, 0, k.inv(l2), 0),
            (0, 0, 0, k.inv(l3)),
        )

    t_mat = ((0, 0, 0, 1), (0, 0, 1, 0), (0, 1, 0, 0), (1, 0, 0, 0))

    g = k.generator()
    mats = [u_mat(1, 0), u_mat(0, 1), u_mat(g, 0), u_mat(0, g), m_mat(g), t_mat]

    # ovoid = orbit of the parabolic fixed point
    start = normalize_point(k, (1, 0, 0, 0))
    orbit = {start}
    frontier = [start]
    while frontier:
        nxt = []
        for p in frontier:
            for m in mats:
                q = normalize_point(k, vec_mat(k, p, m))
                if q not in orbit:
                    orbit.add(q)
                    nxt.append(q)
        frontier = nxt
    pts = sorted(orbit)
    assert len(pts) == 65, len(pts)
    idx = {p: i for i, p in enumerate(pts)}

    gens = _greedy_generators(65, [point_perm(k, pts, idx, m) for m in mats], target)
    return 65, gens, [frobenius_point_perm(k, pts, idx)]


# ----------------------------------------------------------------- emission

def emit_aut_file(name: str, degree: int, socle_gens, extra_gens):
    """Write Aut(G0), socle generators first, and check that the file gives
    back both catalog orders on load."""
    path = OUT_DIR / f"{name}.json"
    aut = PermutationGroup(degree, socle_gens + extra_gens, name=f"{name}_aut")
    catalog.save_group_file(path, aut, socle_indices=range(len(socle_gens)))
    loaded = catalog.load_group_file(path)
    orders = (loaded.group.order, loaded.socle.order)
    wanted = (catalog._AUT_ORDERS[name], catalog._SOCLE_ORDERS[name])
    if orders != wanted:
        raise OrderMismatchError(f"{name}: (aut, socle) orders {orders}, wanted {wanted}")
    print(f"  {name}.json: aut {orders[0]}, socle {orders[1]}, degree {degree}")


def emit_index():
    lists = {}
    for ln, lst in sorted(catalog.CVL_LISTS.items()):
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
        lists[ln] = {
            "x_order": lst.x_order,
            "witness_kind": lst.witness_kind,
            "entries": entries,
        }
    path = OUT_DIR / "cvl_index.json"
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps({"lists": lists}, indent=2, sort_keys=True) + "\n")
    print(f"  cvl_index.json: {sum(len(v['entries']) for v in lists.values())} entries")


def main():
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    print("automorphism groups:")
    for name, build in (
        ("PSU3_3", lambda t: unitary_group(3, 3, t)),
        ("PSU4_2", lambda t: unitary_group(2, 4, t)),
        ("PSU3_4", lambda t: unitary_group(4, 3, t)),
        ("PSp4_3", symplectic_4_3),
        ("Sz_8", suzuki_8),
    ):
        emit_aut_file(name, *build(catalog._SOCLE_ORDERS[name]))
    print("index:")
    emit_index()


if __name__ == "__main__":
    main()
