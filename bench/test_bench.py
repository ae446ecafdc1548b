"""Self-test of the benchmark: its oracles catch wrong answers, the tracer
leaves the package as it found it, and the names it prints are the ones
BENCHMARK.json declares.

    python3 -m pytest bench
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
for path in (BENCH, ROOT / "src"):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))

import layers  # noqa: E402
import oracles  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from suffixlab import cli, counting, trees  # noqa: E402
from suffixlab.strings import Alphabet, Str, from_text  # noqa: E402
from tracer import Tracer  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def cli_stdout(argv) -> str:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        assert cli.main(argv) == 0
    return buf.getvalue()


def test_node_count_oracle_matches_the_tree():
    alphabet = Alphabet(2)
    for n in range(1, 9):
        for syms in itertools.product((1, 2), repeat=n):
            tree = trees.build_suffix_tree(Str(syms, alphabet))
            assert oracles.simple_tree_nodes(syms) == tree.node_count, syms
    assert oracles.simple_tree_nodes(from_text("aabccb").symbols) == 25


def test_size_oracle_accepts_the_answer_and_flags_a_count_off_by_one():
    n_list, samples = (8, 16), 20
    text = cli_stdout(["expect-size", "--n-list", "8,16", "--samples", "20", "--seed", "5"])
    strings = oracles.replay_strings(5, 2, n_list, samples)
    counts = [[oracles.simple_tree_nodes(s) for s in group] for group in strings]
    assert oracles.check_size_csv(text, n_list, counts, 2) == []
    counts[1][7] += 1
    assert oracles.check_size_csv(text, n_list, counts, 2)


def test_search_oracle_flags_a_dropped_hit():
    s = from_text("abaababaabaab")
    tree = trees.build_compact_tree(s)
    patterns = [from_text(p, 2) for p in ("a", "ab", "aba", "bb", "baab")]
    text = bytes(s.symbols)
    expected = [oracles.scan_positions(text, bytes(p.symbols)) for p in patterns]
    answers = [trees.find_occurrences(tree, p) for p in patterns]
    assert oracles.count_wrong_answers(answers, expected) == 0
    answers[2] = answers[2][1:]
    assert oracles.count_wrong_answers(answers, expected) == 1


def test_omega_and_verify_oracles_flag_wrong_output():
    text = cli_stdout(["omega", "--n", "8"])
    assert oracles.check_omega_csv(text, 8, 2, None) == []
    wrong = text.replace("2,8,1,2,", "2,8,1,3,")
    assert wrong != text
    assert oracles.check_omega_csv(wrong, 8, 2, None)
    assert oracles.check_omega_csv(text, 8, 2, oracles.OMEGA_20_SHA256)
    assert oracles.check_verify_output(0, "PASS x: y\nverification PASSED\n") == []
    assert oracles.check_verify_output(1, "FAIL x: y\nverification FAILED\n")


def test_tracer_counts_calls_and_restores_the_package():
    original = counting.growth_of_digits
    tracer = Tracer(layers.TARGETS)
    tracer.install()
    try:
        counting.growth_histogram(10, 2)
    finally:
        tracer.uninstall()
    assert counting.growth_of_digits is original
    hist = tracer.stats["counting.growth_histogram"]
    kernel = tracer.stats["counting.growth_of_digits"]
    assert (hist.calls, hist.count, kernel.calls) == (1, 1024, 1024)
    assert 0 < hist.self_s < hist.s
    assert abs(hist.s - hist.self_s - kernel.s) < 1e-9
    assert [span[2] for span in tracer.spans] == ["counting.growth_histogram"]


def test_names_match_benchmark_json():
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOADS)
    assert set(run.WORKLOADS) == set(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == run.E2E_UNITS
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == layers.metric_units()


def test_a_real_run_prints_the_declared_metrics():
    result = run.run("verify", seed=3, seconds=0.1, trace=True)
    assert result["correct"], result["problems"]
    for trace, key in ((False, "end_to_end"), (True, "per_layer")):
        line = run.result_line(result, trace)
        assert list(line) == ["correct", "attempted", "failed", "metrics"]
        assert {name: m["unit"] for name, m in line["metrics"].items()} == {
            m["name"]: m["unit"] for m in SPEC[key]
        }
    per_layer = result["per_layer"]
    assert per_layer["trees.build_suffix_tree.calls"] == 16004
    assert per_layer["experiments.run_verification.self_s"] > 0
