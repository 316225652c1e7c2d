"""Micro-run of the permutation kernel (``radlab.perm``).

Rates are operations per second, each the median of several timed passes
over a fixed seeded batch: composition, powering and element order on
degree-42 byte tables (the degree of Aut(PSL(3,4)) in the CVL run), and
composition on degree-300 tuples, the path taken above degree 256.
"""

from __future__ import annotations

import random
import statistics
import time

PASSES = 7
BATCH = 64
BYTE_DEGREE = 42
TUPLE_DEGREE = 300
POW_EXPONENT = 3  # the exponent of the order-3 filter in the CVL lists


def _tables(rng: random.Random, perm, degree: int) -> list:
    out = []
    for _ in range(BATCH):
        images = list(range(degree))
        rng.shuffle(images)
        out.append(perm.Perm.from_images(images, degree).t)
    return out


def _rate(op, args: list, rounds: int) -> float:
    rates = []
    for _ in range(PASSES):
        t0 = time.perf_counter()
        for _ in range(rounds):
            for a in args:
                op(*a)
        rates.append(rounds * len(args) / (time.perf_counter() - t0))
    return statistics.median(rates)


def run(seed: int) -> dict:
    """{metric: ops per second}, plus the names of absent kernel functions."""
    from radlab import perm

    rng = random.Random(f"perm-kernels/{seed}")
    small = _tables(rng, perm, BYTE_DEGREE)
    large = _tables(rng, perm, TUPLE_DEGREE)
    pairs = list(zip(small, small[1:] + small[:1]))
    large_pairs = list(zip(large, large[1:] + large[:1]))
    cases = {
        "perm.mul_per_s": ("mul", pairs, 400),
        "perm.pow_per_s": ("pow_table", [(t, POW_EXPONENT, BYTE_DEGREE) for t in small], 100),
        "perm.order_per_s": ("table_order", [(t, BYTE_DEGREE) for t in small], 40),
        "perm.mul_tuple_per_s": ("mul", large_pairs, 20),
    }
    rates, absent = {}, []
    for metric, (fn_name, args, rounds) in cases.items():
        op = getattr(perm, fn_name, None)
        if op is None:
            absent.append(f"radlab.perm.{fn_name}")
            rates[metric] = 0.0
            continue
        rates[metric] = _rate(op, args, rounds)
    return {"rates": rates, "absent": absent}
