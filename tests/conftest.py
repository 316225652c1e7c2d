"""Shared fixtures: corpus groups are built once per session.

Group construction is cheap but not free (Schreier-Sims per group), and the
corpus is consulted by several modules, so the built groups are cached and
handed out read-only. PermutationGroup instances are safe to share within a
process as long as nobody calls _adopt on them; tests treat them as frozen.

verify_cvl keeps each realization it builds for the life of the process.
Every test starts with none kept, so a test sees the same cold verify_cvl
calls whichever tests ran before it; a test that wants warm calls makes
them itself.
"""

import pytest

from radlab import catalog, verify


@pytest.fixture(autouse=True)
def cold_realizations():
    verify._REALIZATIONS.clear()


@pytest.fixture(scope="session")
def corpus():
    return {name: catalog.build_named(name) for name in catalog.CORPUS}


@pytest.fixture(scope="session")
def small_corpus(corpus):
    # the exhaustive cross-method sweeps only want the cheap groups
    return {n: g for n, g in corpus.items() if g.order <= 20_000}
