"""Matrix groups over finite fields, realized as permutation groups.

Matrices are tuples of row tuples of field elements (ints in the encoding of
gf.FiniteField). Vectors are row vectors and act on the right, v -> v*M, so
composing the permutation of M with the permutation of N left to right gives
the permutation of M*N.

Projective points are normalized so the first nonzero coordinate is 1, which
picks a unique scalar representative; the point list is sorted
lexicographically and the induced permutations are what the group-theoretic
layer consumes. Hyperplanes are carried as normalized normal vectors, with g
acting by w -> normalize(w * transpose(g^-1)); the doubled domain
(points then hyperplanes) supports the point-hyperplane duality of PGL_3.
"""

from __future__ import annotations

from itertools import product

from .errors import PreconditionError
from .gf import FiniteField
from .perm import Perm

Mat = tuple
Vec = tuple


def identity_matrix(d: int) -> Mat:
    return tuple(tuple(1 if i == j else 0 for j in range(d)) for i in range(d))


def mat_mul(k: FiniteField, a: Mat, b: Mat) -> Mat:
    d = len(a)
    m = len(b[0])
    bt = tuple(zip(*b))
    out = []
    for i in range(d):
        row = a[i]
        out.append(
            tuple(
                _dot(k, row, bt[j])
                for j in range(m)
            )
        )
    return tuple(out)


def _dot(k: FiniteField, u: Vec, v: Vec) -> int:
    s = 0
    for x, y in zip(u, v):
        if x and y:
            s = k.add(s, k.mul(x, y))
    return s


def vec_mat(k: FiniteField, v: Vec, m: Mat) -> Vec:
    cols = tuple(zip(*m))
    return tuple(_dot(k, v, c) for c in cols)


def transpose(a: Mat) -> Mat:
    return tuple(zip(*a))


def det(k: FiniteField, a: Mat) -> int:
    d = len(a)
    rows = [list(r) for r in a]
    val = 1
    for col in range(d):
        pivot = next((r for r in range(col, d) if rows[r][col]), None)
        if pivot is None:
            return 0
        if pivot != col:
            rows[col], rows[pivot] = rows[pivot], rows[col]
            val = k.neg(val)
        val = k.mul(val, rows[col][col])
        inv_p = k.inv(rows[col][col])
        for r in range(col + 1, d):
            if rows[r][col]:
                f = k.mul(rows[r][col], inv_p)
                rows[r] = [k.sub(x, k.mul(f, y)) for x, y in zip(rows[r], rows[col])]
    return val


def mat_inv(k: FiniteField, a: Mat) -> Mat:
    d = len(a)
    aug = [list(a[i]) + [1 if i == j else 0 for j in range(d)] for i in range(d)]
    for col in range(d):
        pivot = next((r for r in range(col, d) if aug[r][col]), None)
        if pivot is None:
            raise PreconditionError("matrix is singular")
        if pivot != col:
            aug[col], aug[pivot] = aug[pivot], aug[col]
        inv_p = k.inv(aug[col][col])
        aug[col] = [k.mul(inv_p, x) for x in aug[col]]
        for r in range(d):
            if r != col and aug[r][col]:
                f = aug[r][col]
                aug[r] = [k.sub(x, k.mul(f, y)) for x, y in zip(aug[r], aug[col])]
    return tuple(tuple(row[d:]) for row in aug)


def transvection(k: FiniteField, d: int, i: int, j: int, a: int) -> Mat:
    """E_ij(a): identity plus a in row i, column j (i != j); determinant 1."""
    if i == j:
        raise PreconditionError("transvection needs i != j")
    rows = [list(r) for r in identity_matrix(d)]
    rows[i][j] = a
    return tuple(tuple(r) for r in rows)


def sl_generators(k: FiniteField, d: int) -> list[Mat]:
    """Adjacent-position transvections over a field basis generate SL_d(q)."""
    g = k.generator()
    basis = [k.pow(g, t) for t in range(k.deg)] if k.q > 2 else [1]
    out = []
    for i in range(d - 1):
        for a in basis:
            out.append(transvection(k, d, i, i + 1, a))
            out.append(transvection(k, d, i + 1, i, a))
    return out


def normalize_point(k: FiniteField, v: Vec) -> Vec | None:
    """Scale so the first nonzero coordinate is 1; None for the zero vector."""
    for x in v:
        if x:
            if x == 1:
                return tuple(v)
            c = k.inv(x)
            return tuple(k.mul(c, y) for y in v)
    return None


def projective_points(k: FiniteField, d: int) -> list[Vec]:
    pts = []
    for v in product(range(k.q), repeat=d):
        p = normalize_point(k, v)
        if p == v:
            pts.append(p)
    pts.sort()
    return pts


def nonzero_vectors(k: FiniteField, d: int) -> list[Vec]:
    return [v for v in product(range(k.q), repeat=d) if any(v)]


def perm_from_domain_map(domain: list, index: dict, fn) -> Perm:
    """Permutation induced by fn on an indexed domain; checks bijectivity."""
    images = [index[fn(x)] for x in domain]
    if len(set(images)) != len(domain):
        raise PreconditionError("map on domain is not a bijection")
    return Perm.from_images(images)


def point_perm(k: FiniteField, points: list, index: dict, m: Mat) -> Perm:
    return perm_from_domain_map(points, index, lambda v: normalize_point(k, vec_mat(k, v, m)))


def vector_perm(k: FiniteField, vectors: list, index: dict, m: Mat) -> Perm:
    return perm_from_domain_map(vectors, index, lambda v: vec_mat(k, v, m))


def frobenius_point_perm(k: FiniteField, points: list, index: dict) -> Perm:
    def fn(v):
        return tuple(k.frobenius(x) for x in v)

    return perm_from_domain_map(points, index, fn)


def doubled_domain(k: FiniteField, d: int) -> tuple[list, dict]:
    """Points then hyperplanes of PG(d-1, q), both as normalized vectors."""
    pts = projective_points(k, d)
    domain = [(0, p) for p in pts] + [(1, p) for p in pts]
    return domain, {x: i for i, x in enumerate(domain)}


def doubled_matrix_perm(k: FiniteField, domain: list, index: dict, m: Mat) -> Perm:
    minv_t = transpose(mat_inv(k, m))

    def fn(x):
        side, v = x
        if side == 0:
            return (0, normalize_point(k, vec_mat(k, v, m)))
        return (1, normalize_point(k, vec_mat(k, v, minv_t)))

    return perm_from_domain_map(domain, index, fn)


def doubled_frobenius_perm(k: FiniteField, domain: list, index: dict) -> Perm:
    def fn(x):
        side, v = x
        return (side, tuple(k.frobenius(y) for y in v))

    return perm_from_domain_map(domain, index, fn)


def duality_perm(domain: list, index: dict) -> Perm:
    """Swap each point with the hyperplane having the same coordinates.

    Conjugation by this involution sends the action of m to the action of
    the inverse transpose of m, realizing the graph automorphism of PGL_d.
    """
    return perm_from_domain_map(domain, index, lambda x: (1 - x[0], x[1]))
