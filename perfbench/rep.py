"""One repetition of a workload, in the fresh interpreter it was started in.

    python3 perfbench/rep.py --workload NAME --seed N --mode MODE

MODE is ``setup`` (set up, then stop), ``run`` (set up, time the workload,
check it), ``trace`` (the same with the layer tracer on during set-up and
the timed phase) or ``kernels`` (the radlab.perm micro-run). run.py starts
this script; radlab must be importable from the checkout's ``src``.

The last line of standard output is one JSON object. The timed phase is the
sum of ``latencies_ms``. ``setup_ref_s`` and ``item_ref_s`` are the readings
of the reference loop (calibrate.py) for set-up and for each item; ``trace``
mode takes none during its timed phase. ``setup_end_ns`` is a
``time.monotonic_ns()`` reading, which run.py compares with its own reading
taken just before it started this process (CLOCK_MONOTONIC on Linux, which
all processes share).
"""

from __future__ import annotations

import argparse
import json
import resource
import time
from pathlib import Path


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--mode", required=True, choices=("setup", "run", "trace", "kernels"))
    args = ap.parse_args()

    if args.mode == "kernels":
        import kernels

        print(json.dumps(kernels.run(args.seed)))
        return

    import calibrate
    import workloads
    from tracer import ROOT, Tracer

    src = Path(__file__).resolve().parent.parent / "src"
    if Path(workloads.radlab.__file__).resolve().parent.parent != src:
        raise SystemExit(f"radlab was imported from {workloads.radlab.__file__}, not {src}")

    wl = workloads.WORKLOADS[args.workload]()
    tracer = None
    if args.mode == "trace":
        tracer = Tracer()
        tracer.install()
        tracer.enabled = True
        wl.trace_item = lambda item: setattr(tracer, "item", item)
    wl.setup()
    setup_end_ns = time.monotonic_ns()
    if tracer is not None:
        tracer.enabled = False
    setup_ref_s = calibrate.reference_s()
    if args.mode == "setup":
        print(json.dumps({"setup_end_ns": setup_end_ns, "setup_ref_s": setup_ref_s}))
        return

    try:
        wl.prepare(args.seed)
    except (workloads.ItemFailure, workloads.radlab.RadlabError) as exc:
        wl.attempted += 1
        wl.fail("inputs", str(exc))
    if tracer is None:
        interleaved = calibrate.Interleaved()
        wl.after_item = interleaved.after_item
        wl.run()
        interleaved.flush()
    else:  # readings would land in the trace's unattributed time
        tracer.enabled = True
        tracer.open(ROOT)
        wl.run()
        tracer.close()
        tracer.uninstall()
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    wl.check()

    out = {
        "setup_end_ns": setup_end_ns,
        "setup_ref_s": setup_ref_s,
        "rss_mb": rss_mb,
        "latencies_ms": wl.latencies_ms,
        "attempted": wl.attempted,
        "failed": wl.failed,
        "failures": wl.failures,
        "digest": wl.digest,
    }
    if tracer is None:
        out["item_ref_s"] = interleaved.item_ref_s
    else:
        out["layers"] = tracer.summary()
        out["absent"] = tracer.absent
        out["spans"] = len(tracer.spans)
    print(json.dumps(out))


if __name__ == "__main__":
    main()
