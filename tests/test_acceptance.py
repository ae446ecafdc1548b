"""Acceptance gate: one test per criterion, each printing its own PASS line.

Criteria 01-09 and 13 run the checks of `suffixlab verify`
(experiments.CHECKS), some at larger sizes than verify uses; criteria
10-12 are the Monte Carlo criteria, which verify does not run.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines and timings.
"""

import contextlib
import inspect
import io
import time
from fractions import Fraction
from pathlib import Path

from suffixlab import cli
from suffixlab.experiments import (
    CHECKS,
    ExpectationRow,
    exact_expected_growth,
    expected_growth,
    expected_size,
    rows_to_csv,
)

#: criterion -> (registry check, sizes it runs at beyond verify's, wall-time bound in s or None)
GATE = {
    1: ("aperiodic-reference-table", {}, 1.0),
    2: ("aperiodic-bruteforce", {"limit": 1 << 20}, 30.0),
    3: ("prime-power-closed-form", {}, None),
    4: ("aperiodic-count-bounds", {}, None),
    5: ("growth-count-bound", {}, 60.0),
    6: ("growth-bound-caps", {}, None),
    7: ("growth-ground-truth", {}, None),
    8: ("tree-identities", {"sizes": ((2, 12),)}, 60.0),
    9: ("reference-trees", {}, None),
    13: ("search-vs-scan", {"seed": 99, "strings": 50, "n_max": 200, "patterns": 100, "pattern_max": 12}, None),
}


def _report(num, detail):
    print(f"\nACCEPTANCE {num:02d} PASS: {detail}")


def _gate(num):
    name, sizes, bound = GATE[num]
    t0 = time.perf_counter()
    ok, detail = CHECKS[name](**sizes)
    elapsed = time.perf_counter() - t0
    assert ok, f"{name}: {detail}"
    assert bound is None or elapsed < bound, (name, elapsed)
    _report(num, f"{name}: {detail} ({elapsed:.1f}s)")
    return detail


def test_criterion_01_aperiodic_golden_table():
    _gate(1)


def test_criterion_02_bruteforce_aperiodic_oracle():
    _gate(2)


def test_criterion_03_prime_power_closed_form():
    _gate(3)


def test_criterion_04_aperiodic_count_bounds():
    _gate(4)


def test_criterion_05_growth_counts_below_bound():
    _gate(5)


def test_criterion_06_bound_cap_and_prefix_sums():
    _gate(6)


def test_criterion_07_growth_ground_truth():
    _gate(7)


def test_criterion_08_oracle_equivalence_and_node_identity():
    _gate(8)


def test_criterion_09_reference_figures():
    _gate(9)


def test_criterion_10_quadratic_mean_size():
    t0 = time.perf_counter()
    rows = expected_size((64, 128, 256), 2, samples=200, seed=1)
    ratios = [row.mean_over_n2 for row in rows]
    for row in rows:
        assert row.mean_over_n2 >= 0.40, (row.n, row.mean_over_n2)
    spread = (max(ratios) - min(ratios)) / (sum(ratios) / len(ratios))
    assert spread < 0.15, ratios
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0
    ratio_text = ", ".join(f"n={row.n}: {row.mean_over_n2:.3f}" for row in rows)
    _report(10, f"mean nodes / n^2 >= 0.40 at every n ({ratio_text}); relative spread {spread:.1%} ({elapsed:.1f}s)")


def test_criterion_11_mean_growth_is_linear():
    t0 = time.perf_counter()
    rows = expected_growth(256, 2, samples=1000, seed=1)
    assert [row.regime for row in rows] == ["uniform", "prefix"]
    for row in rows:
        assert row.mean / 256 >= 0.5, (row.regime, row.mean)
    for n in range(2, 17):
        exact = exact_expected_growth(n, 2)
        assert exact >= Fraction(n, 2), (n, exact)
    elapsed = time.perf_counter() - t0
    means = ", ".join(f"{row.regime}: {row.mean / 256:.3f}" for row in rows)
    _report(
        11,
        f"sampled mean growth / n >= 0.5 in both regimes ({means}) and the exact mean "
        f"is at least n/2 for every n = 2..16 ({elapsed:.1f}s)",
    )


def test_criterion_12_determinism_and_worker_invariance():
    csv_a = rows_to_csv(ExpectationRow, expected_growth(64, 2, samples=100, seed=33))
    csv_b = rows_to_csv(ExpectationRow, expected_growth(64, 2, samples=100, seed=33))
    assert csv_a == csv_b
    outputs = []
    for workers in ("1", "2"):
        args = ["expect-size", "--n-list", "32", "--samples", "50", "--seed", "8", "--workers", workers]
        with contextlib.redirect_stdout(io.StringIO()) as out:
            assert cli.main(args) == 0
        outputs.append(out.getvalue())
    assert outputs[0] == outputs[1]
    _report(12, "seeded commands emit byte-identical CSV, and expect-size's is the same for --workers 1 and 2")


def test_criterion_13_search_equals_scan():
    assert "on 10000 pairs" in _gate(13)


# ---------------------------------------------------------------------------
# the gate and the registry
# ---------------------------------------------------------------------------


def test_each_registered_check_has_a_unique_name_and_one_criterion():
    assert sorted(name for name, _, _ in GATE.values()) == sorted(CHECKS)


def test_size_overrides_are_parameters_of_their_check():
    for name, sizes, _ in GATE.values():
        assert set(sizes) <= set(inspect.signature(CHECKS[name]).parameters), name


def test_registry_order_is_the_order_verify_prints():
    golden = (Path(__file__).parent / "golden" / "verify_seed1.txt").read_text().splitlines()
    assert [line.split(":")[0].split()[1] for line in golden[:-1]] == list(CHECKS)
