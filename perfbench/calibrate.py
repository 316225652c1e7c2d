"""A fixed reference loop that measures how fast the machine runs right now.

The machine the benchmark was tuned on is shared: identical work took 0.8 s
in one minute and 1.4 s a few minutes later, and its speed changes in spells
of a second or two. So each repetition runs one round of this loop between
the items of its timed phase, about every ``EVERY_S`` seconds, outside the
timing. run.py scales each item's latency by ``REFERENCE_S / ref``, where
``ref`` is the mean of the readings just before and just after it. Set-up is
scaled by ``ROUNDS`` rounds run right after it. A timing then reads as
seconds on a machine where one round takes ``REFERENCE_S``. Slow spells of a
shared machine cancel out, while a change to radlab does not, because the
loop uses only the standard library.

The loop does what radlab's hot paths do, in its own code: it closes a set of
byte-table permutations under composition (``bytes.translate``, set lookups)
and walks the cycles of each element in pure Python.
"""

from __future__ import annotations

import time

DEGREE = 6
_FIXED = bytes(range(DEGREE, 256))  # translate needs 256-entry tables
# (0 1) and (0 1 2 3 4 5): they generate S6, 720 elements. A small group
# keeps the loop's memory far below a repetition's.
GENERATORS = (bytes((1, 0, 2, 3, 4, 5)) + _FIXED, bytes((1, 2, 3, 4, 5, 0)) + _FIXED)
CLOSURES = 8  # per round
ROUNDS = 5
EVERY_S = 0.25
# One round's time on the tuning machine (2.0 GHz shared VM, Python 3.11).
REFERENCE_S = 0.02


def _closure_orders() -> int:
    seen = {g[:DEGREE] for g in GENERATORS}
    frontier = list(GENERATORS)
    while frontier:
        nxt = []
        for a in frontier:
            for g in GENERATORS:
                c = a.translate(g)
                key = c[:DEGREE]
                if key not in seen:
                    seen.add(key)
                    nxt.append(c)
        frontier = nxt
    total = 0
    for t in seen:
        done = bytearray(DEGREE)
        for start in range(DEGREE):
            if done[start]:
                continue
            p, n = start, 0
            while not done[p]:
                done[p] = 1
                p = t[p]
                n += 1
            total += n * n
    return total


def reference_s(rounds: int = ROUNDS) -> float:
    """Seconds one round of the reference loop takes now, over ``rounds``."""
    t0 = time.perf_counter()
    for _ in range(rounds * CLOSURES):
        if _closure_orders() != CHECKSUM:
            raise AssertionError("reference loop computed a wrong result")
    return (time.perf_counter() - t0) / rounds


class Interleaved:
    """Readings between the items of a timed phase.

    ``item_ref_s[i]`` is the reference reading for item i: the mean of the
    readings that bound the stretch of items it belongs to.
    """

    def __init__(self):
        self.item_ref_s: list[float] = []
        self._last = reference_s(1)
        self._pending = 0
        self._busy = 0.0

    def after_item(self, seconds: float) -> None:
        self._pending += 1
        self._busy += seconds
        if self._busy >= EVERY_S:
            self.flush()

    def flush(self) -> None:
        if not self._pending:
            return
        now = reference_s(1)
        self.item_ref_s += [(self._last + now) / 2] * self._pending
        self._last, self._pending, self._busy = now, 0, 0.0


# Sum over S6 of the squared cycle lengths of each element: on average a
# permutation of n points has 1/k cycles of length k, so 720 * (1 + ... + 6).
CHECKSUM = 720 * 21
