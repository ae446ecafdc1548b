"""The benchmark's workloads: the inputs of one pass, the pass itself, and
the check of its answers.

A workload object is made once per run from the run's seed; making it
generates the inputs and the oracle's expected answers, untimed. Each
call to run_pass repeats the same work on the same inputs. The CLI
workloads go through suffixlab.cli.main in-process with stdout captured;
search-long calls the trees module as a library would.

Program functions are looked up on their module at call time, so the
tracer's wrappers are used when it is installed.
"""

from __future__ import annotations

import contextlib
import io
from dataclasses import dataclass, field
from time import perf_counter, perf_counter_ns

import numpy as np

import oracles
from suffixlab import cli, trees
from suffixlab.strings import Alphabet, make_string


@dataclass
class PassResult:
    wall_s: float
    attempted: int
    failed: int
    problems: list[str] = field(default_factory=list)
    #: search-long only: index build time and per-query latencies
    build_s: float | None = None
    query_ns: list[int] | None = None
    #: calibrated seconds per measured second, set by the measuring loop
    scale: float = 1.0


class CliWorkload:
    """One CLI command per pass; the pass is one operation."""

    argv: list[str]
    #: the calibration reference whose loop resembles this workload's
    REFERENCE = "trie"

    def run_pass(self) -> PassResult:
        buf = io.StringIO()
        t0 = perf_counter()
        try:
            with contextlib.redirect_stdout(buf):
                code = cli.main(self.argv)
        except Exception as exc:  # a crash is a failed operation, not a crashed run
            return PassResult(perf_counter() - t0, 1, 1, [f"{self.argv[0]} raised {exc!r}"])
        wall = perf_counter() - t0
        problems = self.check(code, buf.getvalue())
        return PassResult(wall, 1, int(bool(problems)), problems)

    def check(self, code: int, text: str) -> list[str]:
        raise NotImplementedError


class McSize(CliWorkload):
    N_LIST = (64, 128, 256)
    SAMPLES = 200
    SIGMA = 2

    def __init__(self, seed: int):
        self.argv = [
            "expect-size", "--sigma", str(self.SIGMA),
            "--n-list", ",".join(map(str, self.N_LIST)),
            "--samples", str(self.SAMPLES), "--seed", str(seed), "--workers", "1",
        ]
        strings = oracles.replay_strings(seed, self.SIGMA, self.N_LIST, self.SAMPLES)
        self.counts = [[oracles.simple_tree_nodes(s) for s in group] for group in strings]

    def check(self, code: int, text: str) -> list[str]:
        if code != 0:
            return [f"exit code {code}"]
        return oracles.check_size_csv(text, self.N_LIST, self.counts, self.SIGMA)


class Omega(CliWorkload):
    N = 20
    SIGMA = 2
    REFERENCE = "scan"

    def __init__(self, seed: int):
        # exhaustive: there is no random input, so the seed is unused
        self.argv = ["omega", "--sigma", str(self.SIGMA), "--n", str(self.N), "--workers", "1"]

    def check(self, code: int, text: str) -> list[str]:
        if code != 0:
            return [f"exit code {code}"]
        return oracles.check_omega_csv(text, self.N, self.SIGMA, oracles.OMEGA_20_SHA256)


class Verify(CliWorkload):
    def __init__(self, seed: int):
        self.argv = ["verify", "--seed", str(seed), "--workers", "1"]

    def check(self, code: int, text: str) -> list[str]:
        return oracles.check_verify_output(code, text)


class SearchLong:
    """Index one text, then answer many patterns against it.

    Half the patterns are cut from the text, so they hit; half are random
    and mostly miss once they are longer than a few symbols. Short
    patterns have hundreds of hits each and make the latency tail.
    """

    N = 2048
    SIGMA = 4
    QUERIES = 20_000
    MAX_PATTERN = 12
    REFERENCE = "trie"

    def __init__(self, seed: int):
        rng = np.random.Generator(np.random.PCG64(seed))
        alphabet = Alphabet(self.SIGMA)
        syms = rng.integers(1, self.SIGMA + 1, size=self.N)
        self.text = make_string((int(x) for x in syms), alphabet)
        self.patterns = []
        for i in range(self.QUERIES):
            length = int(rng.integers(1, self.MAX_PATTERN + 1))
            if i % 2 == 0:
                start = int(rng.integers(0, self.N - length + 1))
                raw = syms[start : start + length]
            else:
                raw = rng.integers(1, self.SIGMA + 1, size=length)
            self.patterns.append(make_string((int(x) for x in raw), alphabet))
        text_bytes = bytes(self.text.symbols)
        self.expected = [
            oracles.scan_positions(text_bytes, bytes(p.symbols)) for p in self.patterns
        ]

    def run_pass(self) -> PassResult:
        attempted = 1 + len(self.patterns)
        t0 = perf_counter()
        try:
            tree = trees.build_compact_tree(self.text)
        except Exception as exc:  # a crash is a failed operation, not a crashed run
            return PassResult(perf_counter() - t0, attempted, attempted, [f"build raised {exc!r}"])
        t1 = perf_counter()
        find = trees.find_occurrences
        latencies = []
        answers = []
        for pattern in self.patterns:
            q0 = perf_counter_ns()
            try:
                answers.append(find(tree, pattern))
            except Exception:  # counted as a wrong answer below
                answers.append(None)
            latencies.append(perf_counter_ns() - q0)
        t2 = perf_counter()
        wrong = oracles.count_wrong_answers(answers, self.expected)
        problems = [f"{wrong} of {len(self.patterns)} queries answered wrongly"] if wrong else []
        return PassResult(t2 - t0, attempted, wrong, problems, build_s=t1 - t0, query_ns=latencies)


WORKLOADS = {
    "mc-size": McSize,
    "omega-20": Omega,
    "search-long": SearchLong,
    "verify": Verify,
}
