"""aspkit benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload enumerate --seed 1 --seconds 20 --trace 0

Run from the repository root; aspkit is imported from ``src/`` of that
checkout. The last stdout line is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``. Lines before it
are the same figures for people, plus the input digest. See README.md.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import platform
import shutil
import statistics
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

# Time metrics are reported at the speed where workloads.calibration_ms()
# takes this long: each is scaled by the run's median calibration (one sample
# before every request) over this, so runs on a host whose CPU speed drifts
# between runs stay comparable. The raw figures are printed beside them.
REFERENCE_CALIBRATION_MS = 6.0

# Nearest-rank percentiles the tail is chosen from: the highest one that
# still has at least TAIL_BEYOND samples above it.
TAIL_LADDER = (50, 75, 90, 95, 99, 99.9)
TAIL_BEYOND = 10

END_TO_END_UNITS = {
    "setup_s": "s",
    "latency_ms.p50": "ms",
    "latency_ms.tail": "ms",
    "throughput_rps": "1/s",
    "ok_ratio": "ratio",
    "peak_rss_mb": "MB",
}


def percentile(sorted_values, p: float) -> float:
    rank = max(1, math.ceil(p / 100 * len(sorted_values)))
    return sorted_values[rank - 1]


def tail(latencies_ms) -> tuple[float, float, int]:
    """(percentile, value, samples beyond it) by the ladder rule."""
    ordered = sorted(latencies_ms)
    n = len(ordered)
    chosen = TAIL_LADDER[0]
    for p in TAIL_LADDER:
        if n - math.ceil(p / 100 * n) >= TAIL_BEYOND:
            chosen = p
    return chosen, percentile(ordered, chosen), n - math.ceil(chosen / 100 * n)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("enumerate", "ground", "embed", "batch"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "aspkit" / "__init__.py").is_file():
        sys.stderr.write(f"perfbench: no aspkit sources under {SRC}; run from a checkout\n")
        return 2
    sys.path.insert(0, str(SRC))

    import inputs
    import layers
    import workloads
    from spans import Tracer

    workloads.quiet_aspkit_logging()
    items = inputs.build(args.workload, args.seed)
    digest = inputs.digest(items)
    tracer = Tracer(derive=layers.ground_counters)
    workdir = workloads.workdir_for(args.workload, args.seed, args.trace)
    try:
        workload = workloads.WORKLOADS[args.workload](items, tracer, workdir)
        setup = workload.measure_setup(workloads.SETUP_REPEATS) if not args.trace else []
        workload.prepare()
        gc.collect()
        gc.freeze()
        loop = workloads.Loop(workload, args.seed)
        loop.warm_up(min(items, key=lambda i: len(i.text) + len(i.records)))
        elapsed = loop.run(args.seconds, bool(args.trace))
        samples = loop.samples
        attempted = len(samples)
        failed = sum(not s.ok for s in samples)
        header = {
            "workload": args.workload, "seed": args.seed, "trace": args.trace,
            "inputs": digest, "items": len(items), "requests": attempted,
            "seconds": round(elapsed, 3), "python": platform.python_version(),
            "nproc": os.cpu_count(),
        }
        slow = statistics.median(loop.calibration) / REFERENCE_CALIBRATION_MS
        header["speed"] = round(1 / slow, 4)
        if args.trace:
            traced = [s for s in samples if s.traced]
            units = layers.UNITS
            values = layers.metrics(
                tracer.spans, [s.rid for s in traced],
                [s.latency * 1e3 for s in samples if not s.traced],
                [s.latency * 1e3 for s in traced],
                getattr(workload, "jobs", 0), getattr(workload, "callbacks", 0))
            for name, unit in units.items():
                if unit == "ms":
                    values[name] /= slow
                elif unit == "bytes/ms":
                    values[name] *= slow
            notes = {}
        else:
            latencies = [s.latency * 1e3 for s in samples]
            p, tail_ms, beyond = tail(latencies)
            raw = {
                "setup_s": statistics.median(setup),
                "latency_ms.p50": statistics.median(latencies),
                "latency_ms.tail": tail_ms,
                "throughput_rps": attempted / elapsed,
            }
            values = {name: v * slow if name == "throughput_rps" else v / slow
                      for name, v in raw.items()}
            values["ok_ratio"] = (attempted - failed) / attempted
            values["peak_rss_mb"] = workload.peak_rss_mb()
            units = END_TO_END_UNITS
            notes = {name: f"raw {v:.4f}" for name, v in raw.items()}
            notes["setup_s"] += f", median of {len(setup)}"
            notes["latency_ms.tail"] += f", p{p:g} of {attempted} samples, {beyond} beyond"
            notes["ok_ratio"] = f"failed_ratio {failed / attempted:g} ({failed} of {attempted})"
        print("perfbench " + " ".join(f"{k}={v}" for k, v in header.items()))
        for name in sorted(values):
            line = f"  {name:34s} {values[name]:14.4f} {units[name]:8s} {notes.get(name, '')}"
            print(line.rstrip())
        results = HERE / "results"
        results.mkdir(exist_ok=True)
        stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
        record = dict(header, failed=failed, metrics={k: [v, units[k]] for k, v in values.items()})
        if not args.trace:
            record["raw"] = raw
        (results / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
        if args.trace:
            tracer.write(results / f"{stem}.spans.jsonl")
        print(json.dumps({
            "correct": failed == 0,
            "attempted": attempted,
            "failed": failed,
            "metrics": {k: {"value": v, "unit": units[k]} for k, v in sorted(values.items())},
        }))
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
