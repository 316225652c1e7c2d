"""The benchmark's workloads: pinned inputs, set-up, timed phase and checks.

Every input is pinned here by name, so growth of the radlab catalog (a new
runnable CVL member, a new corpus group) never changes what a workload runs.
A pinned name the catalog no longer builds, or builds with another order,
counts as a failed item.

radlab is reached through module attributes at call time (``verify.verify_cvl``
rather than a name imported once), so the tracer's wrappers are seen.

Each workload runs in three phases inside one fresh interpreter:

- ``setup()``: catalog construction of the workload's groups (part of
  ``setup_s``), where the workload's entry point takes a built group;
- ``prepare(seed)`` and ``run()``: input generation, untimed, then the timed
  phase, which records one latency per query;
- ``check()``: result checking against independent oracles, untimed.
"""

from __future__ import annotations

import hashlib
import random
import time
import traceback

import radlab
from radlab import catalog, criteria, structure, verify

STATUS_VERIFIED = "verified"

# (name, group order) for the 31 corpus groups, in catalog order.
CORPUS = (
    ("S3", 6), ("S4", 24), ("S5", 120), ("S6", 720), ("S7", 5040),
    ("A4", 12), ("A5", 60), ("A6", 360), ("A7", 2520),
    ("C2", 2), ("C3", 3), ("C6", 6), ("C12", 12),
    ("D4", 8), ("D5", 10), ("D6", 12),
    ("S3xA5", 360), ("C2xA5", 120), ("A5xA5", 3600), ("A5wr2", 7200),
    ("PSL2_3", 12), ("PSL2_4", 60), ("PSL2_5", 60), ("PSL2_7", 168),
    ("PSL2_8", 504), ("PSL2_9", 360), ("PSL2_11", 660), ("PSL2_13", 1092),
    ("PGL2_7", 336), ("PSL3_2", 168), ("SL2_3v", 24),
)
CORPUS_CAP = 200_000  # the CLI default for `radlab verify corpus`

# (list, socle, |Aut(socle)|): the 19 list/member pairs runnable at CVL_CAP.
CVL_PAIRS = (
    ("CVL1", "PSL3_3", 11232), ("CVL1", "PSp4_3", 51840), ("CVL1", "PSU3_3", 12096),
    ("CVL2", "A6", 1440), ("CVL2", "PSL3_2", 336), ("CVL2", "PSU4_2", 51840),
    ("CVL2", "PSL3_3", 11232), ("CVL2", "PSp4_3", 51840), ("CVL2", "PSU3_3", 12096),
    ("CVL3", "PSU3_3", 12096), ("CVL3", "PSL3_3", 11232), ("CVL3", "PSp4_3", 51840),
    ("CVL3", "PSL4_2", 40320), ("CVL3", "PSU4_2", 51840), ("CVL3", "PSL3_4", 241920),
    ("CVL3", "PSU3_4", 249600), ("CVL3", "PSL2_8", 1512), ("CVL3", "PSL2_27", 58968),
    ("CVL3", "Sz_8", 87360),
)
CVL_CAP = 260_000

# S4 x PSL(2,7): order 4032, degree 12, |R(G)| = 24 (the S4 factor).
MEMBER_FACTORS = ("S4", "PSL2_7")
MEMBER_ORDER = 4032
MEMBER_DEGREE = 12
MEMBER_RADICAL_ORDER = 24
STREAM_LENGTH = 240
STREAM_SALT = "member_stream/v1"


class ItemFailure(Exception):
    """A pinned input that cannot be built as pinned."""


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


class Workload:
    """Per-repetition tallies; subclasses define setup, run and check."""

    def __init__(self):
        self.latencies_ms: list[float] = []
        self.failures: list[str] = []
        self.attempted = 0
        self.failed = 0
        self.digest: str | None = None
        self.trace_item = lambda item: None
        self.after_item = lambda seconds: None

    def note(self, item: str, reason: str) -> None:
        if len(self.failures) < 20:
            self.failures.append(f"{item}: {reason}")

    def fail(self, item: str, reason: str, count: int = 1) -> None:
        self.failed += count
        self.note(item, reason)

    def timed(self, item: str, fn, *args, **kwargs):
        """Run one query, record its latency; an exception fails the item.
        The timed phase is the sum of these latencies, so work done in
        ``after_item`` is outside it."""
        self.trace_item(item)
        t0 = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        except Exception as exc:  # the run goes on; check() fails the item
            traceback.print_exc()
            self.note(item, f"{type(exc).__name__}: {exc}")
            return None
        finally:
            seconds = time.perf_counter() - t0
            self.latencies_ms.append(seconds * 1000.0)
            self.after_item(seconds)

    def setup(self) -> None:
        """Catalog construction; none for cvl_runnable."""

    def prepare(self, seed: int) -> None:
        """Untimed input generation; only member_stream has any."""


def _check_reports(wl: Workload, reports: dict, ambient: dict, y_domain: dict) -> None:
    """Shared report check: status verified, every check agreed, every
    negative verdict carries a witness that re-validates."""
    for key, report in reports.items():
        n_items = max(1, len(report.checks)) if report is not None else 1
        wl.attempted += n_items
        if report is None:
            wl.fail(key, "no report", n_items)
            continue
        if report.status != STATUS_VERIFIED:
            wl.fail(key, f"status {report.status}", n_items)
            continue
        for c in report.checks:
            if not c.agreed:
                wl.fail(key, f"{c.x_text} disagrees with the oracle")
            elif c.member != (c.witness is None):
                wl.fail(key, f"{c.x_text} verdict and witness disagree")
            elif c.witness is not None and not criteria.witness_is_valid(
                c.witness, ambient=ambient[key], y_domain=y_domain[key]
            ):
                wl.fail(key, f"{c.x_text} witness does not re-validate")


class Corpus(Workload):
    """verify_equivalence over the 31 pinned corpus groups."""

    def setup(self) -> None:
        self.groups = {}
        for name, _order in CORPUS:
            try:
                self.groups[name] = catalog.build_named(name)
            except radlab.RadlabError as exc:
                self.note(name, str(exc))

    def run(self) -> None:
        self.reports = {}
        for name, order in CORPUS:
            g = self.groups.get(name)
            if g is None or g.order != order:
                self.reports[name] = None
                continue
            self.reports[name] = self.timed(
                name, verify.verify_equivalence, g, name, cap=CORPUS_CAP, workers=1
            )

    def check(self) -> None:
        _check_reports(self, self.reports, self.groups, self.groups)
        done = [r for r in self.reports.values() if r is not None]
        self.digest = _digest(verify.reports_to_json(done))


class CvlRunnable(Workload):
    """verify_cvl over the 19 pinned list/member pairs at cap 260000.

    verify_cvl takes a socle name and builds its realization itself, so the
    catalog construction of this workload is inside the timed phase, and its
    set-up is interpreter start and ``import radlab`` only.
    """

    def run(self) -> None:
        self.reports = {
            f"{lst}/{socle}": self.timed(
                f"{lst}/{socle}", verify.verify_cvl, socle, lst, cap=CVL_CAP, workers=1
            )
            for lst, socle, _aut in CVL_PAIRS
        }

    def check(self) -> None:
        # The realizations built here serve only as the witness oracle.
        self.digest = _digest(verify.reports_to_json(
            [r for r in self.reports.values() if r is not None]))
        ambient, socles = {}, {}
        for lst, socle, aut_order in CVL_PAIRS:
            key = f"{lst}/{socle}"
            try:
                real = catalog.cvl_realization(socle)
                if real.group.order != aut_order:
                    raise ItemFailure(f"|Aut| {real.group.order}, pinned {aut_order}")
            except (radlab.RadlabError, ItemFailure) as exc:
                self.note(key, str(exc))
                self.reports[key] = None
                continue
            ambient[key], socles[key] = real.group, real.socle
        _check_reports(self, self.reports, ambient, socles)


class MemberStream(Workload):
    """A seeded stream of member_combined queries on S4 x PSL(2,7).

    Half the queries come from R(G), each element of R(G) equally often in a
    seeded order; half are uniform over G, stratified by conjugacy class so
    that every class gets its share of the stream and a seed changes which
    elements are asked, not how many of each kind.
    """

    def _build(self):
        a, b = (catalog.build_named(n) for n in MEMBER_FACTORS)
        return catalog.direct_product(a, b, name="x".join(MEMBER_FACTORS))

    def setup(self) -> None:
        try:
            self.group = self._build()
        except radlab.RadlabError as exc:
            self.group = None
            self.note("member group", str(exc))

    def prepare(self, seed: int) -> None:
        self.stream = []
        if self.group is None or (self.group.order, self.group.degree) != (
            MEMBER_ORDER, MEMBER_DEGREE
        ):
            raise ItemFailure(f"member group is {self.group!r}")
        # A second instance serves input generation and the oracle, so the
        # timed group starts as cold as in a fresh CLI call.
        oracle = self._build()
        self.radical = structure.solvable_radical(oracle)
        if self.radical.order != MEMBER_RADICAL_ORDER:
            raise ItemFailure(f"|R(G)| = {self.radical.order}")
        self.oracle = oracle
        rng = random.Random(f"{STREAM_SALT}/{seed}")
        half = STREAM_LENGTH // 2
        radical_elements = list(self.radical.elements())
        members = []
        while len(members) < half:
            block = list(radical_elements)
            rng.shuffle(block)
            members.extend(block)
        members = members[:half]
        classes = oracle.class_representatives()
        quota = [half * c.size / oracle.order for c in classes]
        alloc = [int(q) for q in quota]
        by_remainder = sorted(range(len(classes)), key=lambda i: (alloc[i] - quota[i], i))
        for i in by_remainder[: half - sum(alloc)]:
            alloc[i] += 1
        uniform = []
        for cls, k in zip(classes, alloc):
            for _ in range(k):
                h = oracle.random_element(rng)
                uniform.append(h.inverse() * cls.representative * h)
        rng.shuffle(uniform)
        self.stream = [x for pair in zip(members, uniform) for x in pair]

    def run(self) -> None:
        self.verdicts = [
            self.timed(f"q{i}", criteria.member_combined, self.group, x)
            for i, x in enumerate(self.stream)
        ]

    def check(self) -> None:
        for i, (x, v) in enumerate(zip(self.stream, self.verdicts)):
            self.attempted += 1
            item = f"q{i} {x.cycles()}"
            if v is None:
                self.fail(item, "no verdict")
            elif v.member != self.radical.contains(x):
                self.fail(item, "verdict disagrees with solvable_radical")
            elif v.member != (v.witness is None):
                self.fail(item, "verdict and witness disagree")
            elif v.witness is not None and not criteria.witness_is_valid(
                v.witness, ambient=self.oracle, y_domain=self.oracle
            ):
                self.fail(item, "witness does not re-validate")


WORKLOADS = {
    "corpus": Corpus,
    "cvl_runnable": CvlRunnable,
    "member_stream": MemberStream,
}
