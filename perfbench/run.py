"""radlab benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. Workloads (see README.md in this directory):
``corpus``, ``cvl_runnable`` and ``member_stream``, each a closed loop from
one client with one worker (``workers=1``). Only ``member_stream`` reads the
seed; the other two have fixed inputs.

Each repetition runs in a fresh interpreter (rep.py), as every ``radlab`` CLI
call does, so no cache outlives it. Repetitions run until ``--seconds`` have
passed, and at least ``MIN_REPS`` of them. Set-up is sampled at least
``MIN_SETUP_SAMPLES`` times.

With ``--trace 0`` the result carries the end-to-end metrics named in
BENCHMARK.json; with ``--trace 1`` untraced and traced repetitions alternate
and the result carries the per-layer metrics. The last line of standard
output is the result object; the line before it holds the run's details
(report digests, sample counts, raw timings, absent entry points,
failures).
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

from calibrate import REFERENCE_S

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("corpus", "cvl_runnable", "member_stream")
MIN_REPS = 3
MIN_SETUP_SAMPLES = 11
DEADLINE_S = 170  # every run, builds included, ends within 180 s
# SHA-256 of the canonical report bytes at the commit that defined the
# benchmark. Shown on the details line, not counted as a failure: a change
# of witness choice that still re-validates is correct and changes them.
PINNED_DIGESTS = {
    "corpus": "2b95b5a9c3b2305f7fa13821a812b3125e48ac57d22a0e3a4dad83c6bc840844",
    "cvl_runnable": "cd7410aac273d78e9149031285dc731ee72d427a4982fa31e3defec72e812fae",
}


class RepError(Exception):
    pass


class Runner:
    def __init__(self, workload: str, seed: int):
        self.workload = workload
        self.seed = seed
        self.deadline = time.monotonic() + DEADLINE_S
        self.env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))

    def spawn(self, mode: str) -> dict:
        cmd = [sys.executable, str(HERE / "rep.py"), "--workload", self.workload,
               "--seed", str(self.seed), "--mode", mode]
        remaining = self.deadline - time.monotonic()
        if remaining <= 0:
            raise RepError("out of time")
        spawned_ns = time.monotonic_ns()
        try:
            proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, env=self.env,
                                  cwd=ROOT, timeout=remaining)
        except subprocess.TimeoutExpired:
            raise RepError(f"{mode} repetition ran past the deadline") from None
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            raise RepError(f"{mode} repetition exited with {proc.returncode}")
        out = json.loads(lines[-1])
        if "setup_end_ns" in out:
            out["setup_s"] = (out["setup_end_ns"] - spawned_ns) / 1e9
            out["scaled_setup_s"] = out["setup_s"] * REFERENCE_S / out["setup_ref_s"]
        if "latencies_ms" in out:
            out["wall_s"] = sum(out["latencies_ms"]) / 1000.0
        if "item_ref_s" in out:
            out["scaled_ms"] = [ms * REFERENCE_S / ref for ms, ref in
                                zip(out["latencies_ms"], out["item_ref_s"], strict=True)]
        return out


def _tally(workload: str, reps: list[dict]) -> tuple[int, int, dict]:
    """(attempted, failed, details) over repetitions, digests included: each
    repetition's report digest is one more item, failed when it differs from
    the digest most repetitions produced."""
    attempted = sum(r["attempted"] for r in reps)
    failed = sum(r["failed"] for r in reps)
    digests = Counter(r["digest"] for r in reps if r["digest"] is not None)
    if digests:
        attempted += sum(digests.values())
        failed += sum(digests.values()) - digests.most_common(1)[0][1]
    failures = [f for r in reps for f in r["failures"]][:20]
    details = {"digests": sorted(digests), "failures": failures}
    if workload in PINNED_DIGESTS:
        details["digest_as_pinned"] = details["digests"] == [PINNED_DIGESTS[workload]]
    return attempted, failed, details


def end_to_end(runner: Runner, seconds: int) -> tuple[dict, list[dict], dict]:
    """Timings are scaled to the reference speed (calibrate.py) per item and
    per set-up; the raw medians go on the details line."""
    start = time.monotonic()
    reps = []
    while len(reps) < MIN_REPS or time.monotonic() - start < seconds:
        reps.append(runner.spawn("run"))
    setups = list(reps)
    while len(setups) < MIN_SETUP_SAMPLES:
        setups.append(runner.spawn("setup"))
    latencies = [ms for r in reps for ms in r["scaled_ms"]]
    values = {
        "wall_s": statistics.median(sum(r["scaled_ms"]) / 1000.0 for r in reps),
        "setup_s": statistics.median(r["scaled_setup_s"] for r in setups),
        "peak_rss_mb": statistics.median(r["rss_mb"] for r in reps),
    }
    samples = {"reps": len(reps), "setup_samples": len(setups),
               "query_samples": len(latencies),
               "raw_wall_s": statistics.median(r["wall_s"] for r in reps),
               "raw_setup_s": statistics.median(r["setup_s"] for r in setups),
               "setup_ref_s": statistics.median(r["setup_ref_s"] for r in setups)}
    # With fewer than two the inputs could not be built, which counts as failed.
    enough = len(latencies) >= 2
    values["query_p50_ms"] = statistics.median(latencies) if enough else 0.0
    values["query_p95_ms"] = statistics.quantiles(latencies, n=20)[-1] if enough else 0.0
    return values, reps, samples


def _module_lines() -> dict:
    values = {}
    total = 0
    for path in sorted((ROOT / "src" / "radlab").glob("*.py")):
        n = sum(1 for line in path.read_text(encoding="utf-8").splitlines() if line.strip())
        total += n
        if not path.stem.startswith("_"):
            values[f"{path.stem}.lines"] = n
    values["total.lines"] = total
    return values


def per_layer(runner: Runner, seconds: int) -> tuple[dict, list[dict], dict]:
    start = time.monotonic()
    untraced, traced = [], []
    while not traced or time.monotonic() - start < seconds:
        untraced.append(runner.spawn("run"))
        traced.append(runner.spawn("trace"))
    kernels = runner.spawn("kernels")
    values = dict(kernels["rates"])
    for layer in traced[0]["layers"]:
        for field in traced[0]["layers"][layer]:
            values[f"{layer}.{field}"] = statistics.median(
                r["layers"][layer][field] for r in traced)
    pair_calls = values["criteria.pair_test.calls"]
    values["criteria.pair_test.witness_frac"] = (
        values.pop("criteria.pair_test.witness") / pair_calls if pair_calls else 0.0)
    values["trace.overhead_frac"] = (
        statistics.median(r["wall_s"] for r in traced)
        / statistics.median(r["wall_s"] for r in untraced) - 1.0)
    values.update(_module_lines())
    samples = {
        "untraced_reps": len(untraced), "traced_reps": len(traced),
        "spans_per_traced_rep": statistics.median(r["spans"] for r in traced),
        "absent": sorted(set(traced[0]["absent"]) | set(kernels["absent"])),
    }
    return values, untraced + traced, samples


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args()
    if not (ROOT / "src" / "radlab" / "__init__.py").is_file():
        print(f"no radlab source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    metrics_spec = spec["per_layer" if args.trace else "end_to_end"]

    runner = Runner(args.workload, args.seed)
    try:
        runner.spawn("setup")  # fills the bytecode caches, as an installed package has them
        measure = per_layer if args.trace else end_to_end
        values, reps, samples = measure(runner, args.seconds)
    except RepError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    attempted, failed, details = _tally(args.workload, reps)
    values["pass_frac"] = (attempted - failed) / attempted
    missing = [m["name"] for m in metrics_spec if m["name"] not in values]
    if missing:
        print(f"benchmark failed: no value for {missing}", file=sys.stderr)
        return 1
    print(json.dumps({"workload": args.workload, "seed": args.seed, **samples, **details}))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in metrics_spec},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
