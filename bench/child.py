"""One measuring process of the benchmark; bench/run.py starts it.

It times the import of suffixlab plus building the CLI parser (setup),
then, unless --setup-only is given, makes the workload's inputs and runs
passes until --seconds have gone by. With --trace 1 it alternates
untraced and traced passes (U T T U U T ...), so that the traced run's
overhead is measured against untraced passes from the same process. It
prints one JSON record on stdout; the program's own output is captured.

Times are calibrated against the reference in calibrate.py, which runs
between passes; the measured times are kept in the record too.

Nothing heavier than the stdlib is imported before setup is timed.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MIN_PASSES = 3  # untraced passes; with tracing, also traced passes
#: the reference runs for this share of a pass on each side of it
REFERENCE_SHARE = 0.25
SETUP_REFERENCE_S = 0.15
MAX_PROBLEMS = 10


def percentile(sorted_values: list[float], q: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    return sorted_values[min(len(sorted_values) - 1, int(q * len(sorted_values)))]


def measure(workload_name: str, seed: int, seconds: float, trace: bool) -> dict:
    import layers
    import numpy
    from calibrate import NOMINAL_S, reference_s
    from tracer import Tracer
    from workloads import WORKLOADS

    workload = WORKLOADS[workload_name](seed)
    tracer = Tracer(layers.TARGETS) if trace else None
    # the benchmark's own inputs and answers are long-lived: keep them out
    # of the program's garbage collections
    gc.collect()
    gc.freeze()

    untraced, traced, snapshots, problems = [], [], [], []
    refs = [reference_s(SETUP_REFERENCE_S, workload.REFERENCE)]
    spans = None
    deadline = time.perf_counter() + seconds
    i = 0
    while True:
        is_traced = trace and i % 4 in (1, 2)
        if is_traced:
            tracer.install()
            try:
                result = workload.run_pass()
            finally:
                tracer.uninstall()
        else:
            result = workload.run_pass()
        refs.append(reference_s(REFERENCE_SHARE * result.wall_s, workload.REFERENCE))
        # calibrated seconds per measured second during this pass
        result.scale = NOMINAL_S / ((refs[-2] + refs[-1]) / 2)
        if is_traced:
            snapshots.append(layers.snapshot(tracer.stats, result.scale))
            if spans is None:
                spans = tracer.spans
            traced.append(result)
        else:
            untraced.append(result)
        problems.extend(result.problems[: MAX_PROBLEMS - len(problems)])
        gc.collect()
        i += 1
        enough = len(untraced) >= MIN_PASSES and (not trace or len(traced) >= MIN_PASSES)
        if enough and time.perf_counter() >= deadline:
            break

    passes = untraced + traced
    record = {
        "numpy": numpy.__version__,
        "passes": len(passes),
        "attempted": sum(p.attempted for p in passes),
        "failed": sum(p.failed for p in passes),
        "wall_s": [p.wall_s * p.scale for p in untraced],
        "traced_wall_s": [p.wall_s * p.scale for p in traced],
        "raw_wall_s": [p.wall_s for p in untraced],
        "reference_s": refs,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    if trace:
        per_layer, count_problems = layers.traced_metrics(snapshots)
        problems.extend(count_problems)
        builds = [p.build_s * p.scale for p in untraced if p.build_s is not None]
        queries = sorted(q * p.scale for p in untraced if p.query_ns for q in p.query_ns)
        per_layer["build_s"] = statistics.median(builds) if builds else 0.0
        per_layer["query_us.p50"] = percentile(queries, 0.50) / 1e3 if queries else 0.0
        per_layer["query_us.p99"] = percentile(queries, 0.99) / 1e3 if queries else 0.0
        per_layer[layers.OVERHEAD] = (
            statistics.median(record["traced_wall_s"]) / statistics.median(record["wall_s"]) - 1
        )
        record["per_layer"] = per_layer
        record["query_samples"] = len(queries)
        record["spans"] = spans
    record["problems"] = problems
    return record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    sys.path.insert(0, str(ROOT / "src"))
    t0 = time.perf_counter()
    import suffixlab.cli

    suffixlab.cli.build_parser()
    setup_s = time.perf_counter() - t0
    if not Path(suffixlab.__file__).resolve().is_relative_to(ROOT / "src"):
        raise SystemExit(f"suffixlab imported from {suffixlab.__file__}, not this checkout")

    from calibrate import reference_s

    record = {
        "setup_s": setup_s,
        "setup_reference_s": reference_s(SETUP_REFERENCE_S),
    }
    if not args.setup_only:
        record.update(measure(args.workload, args.seed, args.seconds, bool(args.trace)))
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
