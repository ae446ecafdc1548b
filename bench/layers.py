"""The traced functions of each suffixlab module and the per-layer metrics
derived from them.

A metric is named `<module>.<function>.<field>`:
- `s`: total time in the function per pass; `self_s`: that time minus
  the time of traced calls below it. Times are medians over the traced
  passes, in calibrated seconds (see calibrate.py).
- `calls`: calls per pass.
- `nodes`, `hits`, `strings`: work per pass, read from the results
  (tree node counts, occurrences found, strings enumerated).
- `ns_per_node`, `ns_per_string`: `s` divided by that work.
Counts repeat exactly between passes and runs with the same seed.
"""

from __future__ import annotations

import statistics

from tracer import Stat, Target

TARGETS = [
    Target("trees", "build_suffix_tree", ("s", "calls", "nodes", "ns_per_node"),
           aggregate=True, count=lambda tree: tree.node_count),
    Target("trees", "build_compact_tree", ("s", "self_s", "nodes"),
           count=lambda tree: tree.node_count),
    Target("trees", "find_occurrences", ("s", "calls", "hits"), aggregate=True, count=len),
    Target("trees", "growth_sum_identity", ("s",)),
    Target("trees", "growth_via_tree", ("s",)),
    Target("trees", "growth_via_lcp", ("s", "calls"), aggregate=True),
    Target("counting", "growth_histogram", ("s", "self_s", "calls", "strings", "ns_per_string"),
           count=lambda hist: sum(hist.values())),
    Target("counting", "growth_of_digits", ("s", "calls"), aggregate=True),
    Target("counting", "count_aperiodic_bruteforce", ("s",)),
    Target("counting", "check_growth_bound", ("s",)),
    Target("counting", "growth_bound", ("s",)),
    Target("experiments", "random_string", ("s", "calls"), aggregate=True),
    Target("experiments", "expected_size", ("self_s",)),
    Target("experiments", "growth_count_table", ("self_s",)),
    Target("experiments", "run_verification", ("self_s",)),
    Target("experiments", "rows_to_csv", ("s",)),
    Target("strings", "substring", ("s", "calls"), aggregate=True),
    Target("cli", "main", ("self_s",)),
]

UNITS = {
    "s": "s",
    "self_s": "s",
    "calls": "count",
    "nodes": "count",
    "hits": "count",
    "strings": "count",
    "ns_per_node": "ns",
    "ns_per_string": "ns",
}

#: Metrics of the search-long session, timed by the benchmark as the
#: caller on untraced passes; 0 on workloads that run no search.
SESSION_UNITS = {"build_s": "s", "query_us.p50": "us", "query_us.p99": "us"}

OVERHEAD = "trace.overhead_frac"


def metric_units() -> dict[str, str]:
    """Every per-layer metric name with its unit, in report order."""
    units = {
        f"{t.key}.{field}": UNITS[field] for t in TARGETS for field in t.fields
    }
    units.update(SESSION_UNITS)
    units[OVERHEAD] = "ratio"
    return units


def snapshot(stats: dict[str, Stat], scale: float) -> dict[str, tuple[float, float, int, int]]:
    """Stats of one traced pass, times calibrated by the pass's scale."""
    return {key: (st.s * scale, st.self_s * scale, st.calls, st.count) for key, st in stats.items()}


def traced_metrics(snapshots: list[dict]) -> tuple[dict[str, float], list[str]]:
    """Per-layer metrics over the traced passes of one run.

    Times are medians over the passes. Counts come from the first pass;
    a pass whose counts differ from it is reported as a problem, since the
    same inputs must do the same work.
    """
    out: dict[str, float] = {}
    problems = []
    for t in TARGETS:
        runs = [snap[t.key] for snap in snapshots]
        s = statistics.median(r[0] for r in runs)
        self_s = statistics.median(r[1] for r in runs)
        calls, count = runs[0][2], runs[0][3]
        if any((r[2], r[3]) != (calls, count) for r in runs):
            problems.append(f"{t.key}: calls/work differ between traced passes")
        values = {
            "s": s,
            "self_s": self_s,
            "calls": calls,
            "nodes": count,
            "hits": count,
            "strings": count,
            "ns_per_node": s / count * 1e9 if count else 0.0,
            "ns_per_string": s / count * 1e9 if count else 0.0,
        }
        for field in t.fields:
            out[f"{t.key}.{field}"] = values[field]
    return out, problems
