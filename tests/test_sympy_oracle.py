"""Differential check of pair subgroups against sympy.combinatorics.

witness_is_valid re-checks a witness through the same Schreier-Sims and
derived-subgroup code that found it, so an engine bug would confirm itself.
Here an independent implementation computes the order, the solvability and
the derived series of seeded random pairs <x, y>, on byte tables and on the
tuple tables used above degree 256. sympy is a test-only dependency.
"""

import random

import pytest

from radlab import catalog
from radlab.criteria import _pair_solvable
from radlab.group import group_from_cycles
from radlab.structure import derived_series

combinatorics = pytest.importorskip("sympy.combinatorics")


def sympy_pair(n, x, y):
    return combinatorics.PermutationGroup(
        [combinatorics.Permutation(list(t[:n])) for t in (x, y)]
    )


def involution_of(x):
    """The involution among the powers of x, or x itself at odd order."""
    o = x.order()
    return x ** (o // 2) if o % 2 == 0 else x


def check_pairs(g, count, rng):
    """Compare `count` random pairs of g, and for each pair the pair of their
    involution powers (dihedral, so solvable); return the verdicts seen."""
    n = g.degree
    pairs = []
    for _ in range(count):
        x, y = g.random_element(rng), g.random_element(rng)
        pairs += [(x.t, y.t), (involution_of(x).t, involution_of(y).t)]
    seen = set()
    for x, y in pairs:
        solvable, order, steps, h = _pair_solvable(n, x, y)
        ref = sympy_pair(n, x, y)
        series = ref.derived_series()
        where = (g, x, y)
        assert order == h.order == ref.order(), where
        assert solvable == ref.is_solvable, where
        # strict descents: to the trivial group, or until the series stabilizes
        if solvable:
            assert derived_series(h).derived_length == len(series) - 1, where
        else:
            assert steps == len(series) - 1, where
        seen.add(solvable)
    return seen


def test_pairs_from_corpus_groups(corpus):
    rng = random.Random(20260)
    seen = set()
    for g in corpus.values():
        seen |= check_pairs(g, 3, rng)
    assert seen == {True, False}


def test_pairs_from_automorphism_groups():
    rng = random.Random(20261)
    seen = set()
    for socle in ("PSL2_8", "PSL3_3"):
        seen |= check_pairs(catalog.cvl_realization(socle).group, 6, rng)
    assert seen == {True, False}


def test_pairs_above_byte_degree():
    # S5 x S3 on points 1..5 and 298..300: tuple tables
    g = group_from_cycles(300, ["(1 2 3 4 5)", "(1 2)", "(298 299 300)", "(298 299)"])
    assert type(g._ident) is tuple and g.order == 720
    assert check_pairs(g, 12, random.Random(20262)) == {True, False}
