"""Run one benchmark workload for one seed, check its outputs, print its metrics.

    python3 perfbench/run.py --workload batch_dense_hybrid --seed 1 --seconds 15 --trace 0

Run from the root of a checkout: the package under test is imported from
its ``src/``.  Every metric is printed as a ``metric`` line (name, value,
unit, sample count); the last line of standard output is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics`` — the
end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``.  The exit code is 0 only when every operation matched the
reference.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
from pathlib import Path
from statistics import median

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from measure import percentile, rss_peak_mb, start_tracker, stop_children  # noqa: E402
from reference import ROOT, References, import_repro  # noqa: E402
from spans import (  # noqa: E402
    PER_LAYER_METRICS,
    Tracer,
    install_layer_wrappers,
    per_layer_metrics,
    span_calls,
)
from workloads import (  # noqa: E402
    EXPECTED_SPANS,
    SIZES,
    WORKLOADS,
    Tally,
    fingerprint,
    make_inputs,
    run_pass,
)

#: Scratch space inside the checkout: stores, reference cache, span dumps.
WORK_ROOT = ROOT / ".perfbench"

#: The end-to-end metrics of the final JSON line, with units.  Every
#: workload reports each of them (see README.md for their meaning per
#: workload, and for why read latencies and ``copy_f1`` are printed only).
END_TO_END = (
    ("setup_s", "s"),
    ("job_s", "s"),
    ("truth_accuracy", "ratio"),
    ("rss_peak_mb", "MiB"),
)


def _line(name: str, value, unit: str, samples=None) -> None:
    shown = "n/a" if value is None else f"{value:.6g}"
    count = "" if samples is None else f"  (n={samples})"
    print(f"metric {name} = {shown} {unit}{count}")


def end_to_end(result, tally, rss_mb: float) -> dict[str, tuple]:
    """``name -> (value, unit, samples)`` for every end-to-end metric the run printed."""
    reads_us = [ns / 1000.0 for ns in result.reads_ns]
    out = {
        "setup_s": (median(result.setups), "s", len(result.setups)),
        "job_s": (result.job_s, "s", len(result.jobs)),
        "read_p50_us": (percentile(reads_us, 50), "us", len(reads_us)),
        "read_p90_us": (percentile(reads_us, 90), "us", len(reads_us)),
        "read_p99_us": (percentile(reads_us, 99), "us", len(reads_us)),
        "truth_accuracy": (result.truth_accuracy, "ratio", None),
        "copy_f1": (result.copy_f1, "ratio", None),
        "rss_peak_mb": (rss_mb, "MiB", None),
        "ops_failed_ratio": (tally.failed / max(tally.attempted, 1), "ratio", tally.attempted),
    }
    stream = result.stream
    if stream:
        out["ingest_claims_per_s"] = (stream["ingest_claims_per_s"], "claims/s", stream["epochs"])
        out["epoch_p50_ms"] = (stream["epoch_p50_ms"], "ms", stream["epochs"])
        tail = stream["epoch_tail_pct"]
        samples = f"{stream['epochs']}, p{tail:g}" if tail else stream["epochs"]
        out["epoch_tail_ms"] = (stream["epoch_tail_ms"], "ms", samples)
    return out


def main(argv=None) -> int:
    try:
        return _run(argv)
    finally:
        stop_children()


def _run(argv) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", default="full", choices=SIZES, help="'tiny' runs the test-sized worlds")
    args = parser.parse_args(argv)

    import_repro()
    import numpy

    start_tracker()

    workload, size, seed = args.workload, args.size, args.seed
    inputs = make_inputs(workload, size, seed)
    tag = fingerprint(workload, size, inputs)
    refs = References(WORK_ROOT / "reference")
    reference = refs.digest(workload, size, seed, tag)

    def check(outcome):
        from digest import compare

        return compare(outcome, reference, lambda: refs.full(workload, size, seed, tag))

    tally = Tally()
    tracer = Tracer(workload)
    workdir = WORK_ROOT / f"run-{os.getpid()}"
    result = run_pass(workload, size, seed, args.seconds, inputs, check, tracer, False, workdir, tally)
    rss_mb = rss_peak_mb()

    e2e = end_to_end(result, tally, rss_mb)
    missing = []
    layers = {}
    if args.trace:
        patches = install_layer_wrappers(tracer)
        try:
            traced = run_pass(workload, size, seed, args.seconds, inputs, check, tracer, True, workdir, tally)
        finally:
            patches.restore()
        calls = span_calls(tracer)
        missing = [name for name in EXPECTED_SPANS[workload] if calls[name] == 0]
        layers = per_layer_metrics(tracer, len(traced.jobs) if not traced.stream else 1)
        layers.update(traced.layer_extras)
        layers["trace.overhead_job_s"] = traced.job_s - result.job_s
        if traced.stream:
            layers["trace.overhead_epoch_p50_ms"] = (
                traced.stream["epoch_p50_ms"] - result.stream["epoch_p50_ms"]
            )
        WORK_ROOT.mkdir(exist_ok=True)
        tracer.write(WORK_ROOT / f"spans-{workload}-{size}-{seed}.json")

    context = {
        "workload": workload,
        "size": size,
        "seed": seed,
        "world": result.world,
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "jobs_s": [round(x, 6) for x in result.jobs] if not result.stream else None,
    }
    print("context " + json.dumps(context, sort_keys=True))
    for name, (value, unit, samples) in e2e.items():
        _line(name, value, unit, samples)
    if args.trace:
        for name, unit in PER_LAYER_METRICS:
            _line(name, layers[name], unit)
    for error in tally.errors:
        print(f"error {error}")
    for name in missing:
        print(f"error traced run recorded no call of span {name}")

    correct = tally.failed == 0 and not missing
    if args.trace:
        metrics = {name: {"value": layers[name], "unit": unit} for name, unit in PER_LAYER_METRICS}
    else:
        metrics = {name: {"value": e2e[name][0], "unit": unit} for name, unit in END_TO_END}
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": tally.attempted,
                "failed": tally.failed + len(missing),
                "metrics": metrics,
            }
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
