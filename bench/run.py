"""suffixlab benchmark.

    python3 bench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 bench/run.py                      # every workload, as a table

Run from the root of a checkout. Each run starts fresh processes: a few
that only time setup (import suffixlab and build the CLI parser), then
one that makes the workload's inputs from the seed, runs passes for the
given seconds and checks every answer against an oracle. Load is one
single-threaded process.

With --trace 0 the last line of stdout is one JSON object holding the
end-to-end metrics; with --trace 1 it holds the per-layer metrics of a
traced run. The line before it is the run's provenance. The full record,
spans included, is written to bench/out/.

Times are in calibrated seconds: each is scaled by a fixed reference
computation timed next to it, so that the drift of a shared host's speed
cancels out (see calibrate.py). The record keeps the measured times.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

from calibrate import NOMINAL_S
from layers import metric_units

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
CHILD = BENCH / "child.py"
WORKLOADS = ("mc-size", "omega-20", "search-long", "verify")
SETUP_PROBES = 5  # on each side of the measuring process
CHILD_TIMEOUT_S = 170

#: end-to-end metrics and their units
E2E_UNITS = {
    "wall_s": "s",  # median time of one pass
    "peak_rss_mb": "MB",  # peak RSS of the measuring process
    "setup_s": "s",  # median time to import suffixlab and build the parser
}


class BenchError(Exception):
    pass


def child(*args: str) -> dict:
    env = dict(os.environ, PYTHONHASHSEED="0")
    proc = subprocess.run(
        [sys.executable, str(CHILD), *args],
        cwd=ROOT, env=env, stdout=subprocess.PIPE, timeout=CHILD_TIMEOUT_S, text=True,
    )
    if proc.returncode != 0:
        raise BenchError(f"measuring process {' '.join(args)} exited with {proc.returncode}")
    return json.loads(proc.stdout.splitlines()[-1])


def git_commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown"
    try:
        proc = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True
        )
    except FileNotFoundError:  # no git on this machine
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def run(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """One benchmark run: setup probes, then the measuring process."""
    if not (ROOT / "src" / "suffixlab" / "__init__.py").is_file():
        raise BenchError(f"no suffixlab source under {ROOT / 'src'}")
    child("--setup-only")  # warm-up: byte-compiles the package, untimed
    # probes before and after the measuring process, so that setup is
    # sampled across the same stretch of time as the passes
    probes = [child("--setup-only") for _ in range(SETUP_PROBES)]
    rec = child(
        "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
        "--trace", str(int(trace)),
    )
    probes.append(rec)
    probes += [child("--setup-only") for _ in range(SETUP_PROBES)]
    setups = [p["setup_s"] * NOMINAL_S / p["setup_reference_s"] for p in probes]
    end_to_end = {
        "wall_s": statistics.median(rec["wall_s"]),
        "peak_rss_mb": rec["peak_rss_mb"],
        "setup_s": statistics.median(setups),
    }
    provenance = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "passes": rec["passes"],
        "python": platform.python_version(),
        "numpy": rec["numpy"],
        "cpus": len(os.sched_getaffinity(0)),
        "commit": git_commit(),
    }
    return {
        "provenance": provenance,
        "correct": rec["failed"] == 0 and not rec["problems"],
        "attempted": rec["attempted"],
        "failed": rec["failed"],
        "problems": rec["problems"],
        "end_to_end": end_to_end,
        "per_layer": rec.get("per_layer"),
        "samples": {
            "setup_s": setups,
            "wall_s": rec["wall_s"],
            "traced_wall_s": rec["traced_wall_s"],
            "uncalibrated_setup_s": [p["setup_s"] for p in probes],
            "uncalibrated_wall_s": rec["raw_wall_s"],
            "reference_s": rec["reference_s"],
        },
        "spans": rec.get("spans"),
    }


def result_line(result: dict, trace: bool) -> dict:
    if trace:
        units, values = metric_units(), result["per_layer"]
    else:
        units, values = E2E_UNITS, result["end_to_end"]
    return {
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }


def save(result: dict) -> Path:
    p = result["provenance"]
    OUT.mkdir(exist_ok=True)
    path = OUT / f"{p['workload']}-seed{p['seed']}-trace{p['trace']}.json"
    path.write_text(json.dumps(result, indent=1) + "\n")
    return path


def run_all(seed: int, seconds: float, trace: bool) -> bool:
    """Every workload in turn, printed as a table with units and fail_frac."""
    ok = True
    for workload in WORKLOADS:
        result = run(workload, seed, seconds, trace)
        save(result)
        line = result_line(result, trace)
        ok = ok and result["correct"]
        print(f"{workload}  (passes={result['provenance']['passes']})")
        for name, m in line["metrics"].items():
            print(f"  {name:45s} {m['value']:>14.6g} {m['unit']}")
        print(f"  {'fail_frac':45s} {result['failed'] / result['attempted']:>14.6g} ratio")
        for problem in result["problems"]:
            print(f"  problem: {problem}")
        sys.stdout.flush()
    return ok


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not 0 < args.seconds <= 60:
        parser.error("--seconds must be in (0, 60]")
    trace = bool(args.trace)
    try:
        if args.workload == "all":
            return 0 if run_all(args.seed, args.seconds, trace) else 1
        result = run(args.workload, args.seed, args.seconds, trace)
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    save(result)
    for problem in result["problems"]:
        print(f"problem: {problem}", file=sys.stderr)
    print("provenance " + json.dumps(result["provenance"]))
    print(json.dumps(result_line(result, trace)))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
