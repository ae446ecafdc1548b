import argparse
import csv
import json
import os
import random
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

import suffixlab
from suffixlab import cli, counting, experiments, trees
from suffixlab.strings import from_text


def run_cli(args, capsys):
    code = cli.main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_tree_stats_line(capsys):
    code, out, _ = run_cli(["tree", "aabccb"], capsys)
    assert code == 0
    assert out == "n=6 sigma=3 nodes=25 internal=19 leaves=6 growth=5\n"


def test_growth_command(capsys):
    code, out, _ = run_cli(["growth", "abcdefabcdab"], capsys)
    assert code == 0
    assert out == "8\n"


def test_mu_table_json(capsys):
    code, out, _ = run_cli(["mu", "--sigma", "4", "--max-j", "5", "--format", "json"], capsys)
    assert code == 0
    rows = json.loads(out)["rows"]
    values = {row["j_or_n"]: row["value"] for row in rows}
    assert values == {"1": "4", "2": "12", "3": "60", "4": "240", "5": "1020"}
    assert all(row["k"] == "" for row in rows)


def test_phi_table_csv(capsys):
    code, out, _ = run_cli(["phi", "--sigma", "2", "--max-k", "3"], capsys)
    assert code == 0
    assert out == "sigma,j_or_n,k,value\n2,,1,2\n2,,2,4\n2,,3,12\n"


def test_omega_table(capsys):
    code, out, _ = run_cli(["omega", "--sigma", "2", "--n", "4"], capsys)
    assert code == 0
    assert out == (
        "sigma,n,k,count,bound,n_ge_2k,holds\n"
        "2,4,1,2,2,true,true\n"
        "2,4,2,4,4,true,true\n"
        "2,4,3,8,12,false,true\n"
        "2,4,4,2,30,false,true\n"
    )


def test_omega_budget_error_exits_2(capsys):
    # the counting route's only limit is a cap on n
    n = counting.MAX_EXACT_N
    assert run_cli(["omega", "--n", str(n), "--format", "json"], capsys)[0] == 0
    code, out, err = run_cli(["omega", "--n", str(n + 1)], capsys)
    assert (code, out) == (2, "")
    assert err == f"error: exact counts reach n = {n}, got n = {n + 1}\n"


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("bound", ["0", "-2"])
@pytest.mark.parametrize("command,flag", [("mu", "--max-j"), ("phi", "--max-k")])
def test_count_table_bound_below_one_exits_2(command, flag, bound, fmt, capsys):
    code, out, err = run_cli([command, flag, bound, "--format", fmt], capsys)
    assert code == 2
    assert out == ""
    assert f"must be at least 1, got {bound}" in err


@pytest.mark.parametrize("command,flag,name", [("mu", "--max-j", "max_j"), ("phi", "--max-k", "max_k")])
def test_count_table_above_the_cap_exits_2_before_any_work(command, flag, name, monkeypatch, capsys):
    cap = experiments.MAX_TABLE_LENGTH
    code, out, _ = run_cli([command, flag, str(cap)], capsys)
    assert code == 0 and out.count("\n") == cap + 1

    def no_work(*_args):
        raise AssertionError("the refusal must come before any work")

    monkeypatch.setattr(counting, "count_aperiodic", no_work)
    for length in (cap + 1, 100_000_000):
        assert run_cli([command, flag, str(length)], capsys) == (
            2, "", f"error: {name} must be at most {cap}, got {length}\n"
        )


BIG_SIGMA = str(10**120)


@pytest.mark.parametrize(
    "args,work,digits",
    [
        (["mu", "--sigma", "28", "--max-j", "3000"], "count_aperiodic", 4342),
        (["mu", "--sigma", "1000000", "--max-j", "800"], "count_aperiodic", 4801),
        (["phi", "--sigma", "28", "--max-k", "3000"], "growth_bounds", 4345),
        (["omega", "--sigma", BIG_SIGMA, "--n", "40"], "growth_counts", 4802),
        (["expect-growth", "--mode", "exhaustive", "--sigma", BIG_SIGMA, "--n", "40"], "growth_counts", 4802),
        (["expect-size", "--mode", "exhaustive", "--sigma", BIG_SIGMA, "--n-list", "40"], "growth_counts_up_to", 4804),
    ],
)
def test_table_past_the_digit_limit_exits_2_before_any_work(args, work, digits, monkeypatch, capsys):
    def no_work(*_args):
        raise AssertionError("the refusal must come before any work")

    monkeypatch.setattr(counting, work, no_work)
    limit = sys.get_int_max_str_digits()
    assert run_cli(args, capsys) == (
        2, "", f"error: table values reach {digits} digits, above Python's int-to-string limit of {limit}\n"
    )


def test_table_below_the_digit_limit_is_printed(capsys):
    # the growth bound at k = 3000 has 4,298 digits, within 4,300
    code, out, _ = run_cli(["phi", "--sigma", "27", "--max-k", "3000"], capsys)
    assert code == 0 and out.count("\n") == 3001
    assert len(out.splitlines()[-1].split(",")[-1]) == 4298


def test_no_digit_limit_refuses_nothing(monkeypatch, capsys):
    class Started(Exception):
        pass

    def started(*_args):
        raise Started

    monkeypatch.setattr(sys, "get_int_max_str_digits", lambda: 0)
    monkeypatch.setattr(counting, "count_aperiodic", started)
    with pytest.raises(Started):
        cli.main(["mu", "--sigma", "28", "--max-j", "3000"])


@pytest.mark.parametrize(
    "args,message",
    [
        (["expect-size", "--n-list", "1000000000", "--samples", "1"], "strings of at most {length} symbols, got 1000000000"),
        (["expect-size", "--n-list", "4,{length1}", "--samples", "1"], "strings of at most {length} symbols, got {length1}"),
        (["expect-growth", "--n", "1000000000"], "strings of at most {length} symbols, got 1000000000"),
        (["expect-size", "--n-list", "4", "--samples", "1000000000"], "at most {samples} samples, got 1000000000"),
        (["expect-growth", "--n", "4", "--samples", "{samples1}"], "at most {samples} samples, got {samples1}"),
    ],
)
def test_sampling_above_the_caps_exits_2_before_any_draw(args, message, monkeypatch, capsys):
    def no_draw(*_args):
        raise AssertionError("the refusal must come before any draw")

    monkeypatch.setattr(experiments, "new_rng", no_draw)
    monkeypatch.setattr(experiments, "_sample_blocks", no_draw)
    caps = dict(
        length=experiments.MAX_SAMPLED_LENGTH, length1=experiments.MAX_SAMPLED_LENGTH + 1,
        samples=experiments.MAX_SAMPLES, samples1=experiments.MAX_SAMPLES + 1,
    )
    args = [arg.format(**caps) for arg in args]
    assert run_cli(args, capsys) == (2, "", f"error: montecarlo mode draws {message.format(**caps)}\n")


def test_simple_tree_over_the_cap_exits_2_before_building(monkeypatch, capsys):
    text = "".join(random.Random(0).choices("abcd", k=3000))
    nodes = trees.simple_tree_size(from_text(text))
    assert nodes > cli.MAX_SIMPLE_TREE_NODES

    def refuse(s):
        raise AssertionError("the simple tree was built")

    monkeypatch.setattr(trees, "build_suffix_tree", refuse)
    code, out, err = run_cli(["tree", text], capsys)
    assert code == 2
    assert out == ""
    assert f"needs {nodes} nodes, cap is {cli.MAX_SIMPLE_TREE_NODES}" in err


def env_with_src() -> dict[str, str]:
    """The environment, with the imported suffixlab's source first on PYTHONPATH."""
    src = str(Path(suffixlab.__file__).resolve().parents[1])
    return dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))


#: Modules a command loads only where it uses them. The probe reads its
#: commands one per argument, split on spaces, and prints one line per
#: step, "label<TAB>modules loaded since it started", so that it imports
#: json itself neither before nor after the checks.
LAZY = (
    "numpy", "concurrent.futures.process",
    "dataclasses", "inspect", "json", "statistics", "fractions", "decimal",
)

IMPORT_PROBE = """
import io, sys

LAZY = %r
before = {m for m in LAZY if m in sys.modules}
lines = []

def record(label):
    loaded = [m for m in LAZY if m in sys.modules and m not in before]
    lines.append(label + "\\t" + " ".join(loaded))

from suffixlab import cli

cli.build_parser()
record("build_parser")
stdout = sys.stdout
for command in sys.argv[1:]:
    sys.stdout = io.StringIO()
    code = cli.main(command.split())
    sys.stdout = stdout
    record(command + " -> " + str(code))
print("\\n".join(lines))
""" % (LAZY,)


def test_commands_that_never_sample_load_neither_numpy_nor_the_process_pool():
    quiet = [
        "omega --n 8",
        "tree aabccb",
        "search aabccb b",
        "mu --max-j 5",
        "phi --max-k 5",
        "growth abcdefabcdab",
    ]
    exact = "expect-size --mode exhaustive --n-list 1,2,4,8"
    as_json = "omega --n 8 --format json"
    # last, the commands here that sample
    sampling = ["expect-size --n-list 8 --samples 5", "expect-growth --n 8 --samples 5"]
    commands = [*quiet, exact, as_json, *sampling]
    proc = subprocess.run(
        [sys.executable, "-c", IMPORT_PROBE, *commands],
        env=env_with_src(), capture_output=True, text=True, check=True, timeout=120,
    )
    report = [line.split("\t") for line in proc.stdout.splitlines()]
    assert [label for label, _ in report] == ["build_parser"] + [c + " -> 0" for c in commands]
    loaded = [set(modules.split()) for _, modules in report]
    for (label, _), now in zip(report[: 1 + len(quiet)], loaded):
        assert now == set(), label
    # exact means are Fractions, and fractions imports decimal
    assert loaded[-4] in ({"fractions"}, {"fractions", "decimal"})
    assert loaded[-3] - loaded[-4] == {"json"}
    # numpy itself imports inspect
    numpy_own = subprocess.run(
        [sys.executable, "-c", f"import sys, numpy; print(*(m for m in {LAZY!r} if m in sys.modules))"],
        capture_output=True, text=True, check=True, timeout=60,
    ).stdout.split()
    # every sampled mean comes from exact running sums, not statistics
    assert not any("statistics" in now for now in loaded)
    assert {"numpy"} <= loaded[-2] - loaded[-3] <= set(numpy_own)
    assert loaded[-1] == loaded[-2]


#: Every subcommand's options: the shared flags of cli.FLAGS it takes, then its own.
OPTIONS = {
    "tree": "--sigma --out --compact --dot",
    "growth": "--sigma --out",
    "search": "--sigma --out",
    "mu": "--sigma --format --out --max-j",
    "phi": "--sigma --format --out --max-k",
    "omega": "--sigma --workers --format --out --n",
    "verify": "--seed --workers --out",
    "expect-growth": "--sigma --seed --samples --format --out --n --mode",
    "expect-size": "--sigma --seed --samples --workers --format --out --n-list --mode",
}


def subcommands() -> dict[str, argparse.ArgumentParser]:
    (sub,) = (a for a in cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    return sub.choices


@pytest.mark.parametrize("command", OPTIONS)
def test_subcommand_takes_only_the_flags_it_reads(command):
    parsers = subcommands()
    assert set(parsers) == set(OPTIONS)
    declared = {opt for action in parsers[command]._actions for opt in action.option_strings}
    declared -= {"-h", "--help"}
    assert declared == set(OPTIONS[command].split())


@pytest.mark.parametrize(
    "args",
    [
        ["tree", "aabccb", "--format", "json"],
        ["growth", "ab", "--budget", "5"],
        ["search", "ab", "a", "--seed", "3"],
        ["mu", "--max-j", "2", "--workers", "0"],
        ["phi", "--max-k", "2", "--samples", "5"],
        ["omega", "--n", "4", "--samples", "5"],
        ["verify", "--sigma", "3"],
        ["expect-growth", "--n", "4", "--workers", "1"],
        ["verify", "--budget", "100"],
    ],
)
def test_flag_the_command_does_not_read_exits_2(args, capsys):
    with pytest.raises(SystemExit) as excinfo:
        cli.main(args)
    assert excinfo.value.code == 2
    assert "unrecognized arguments: " + " ".join(args[-2:]) in capsys.readouterr().err


@pytest.mark.parametrize(
    "args,message",
    [
        (["omega", "--n", "4", "--sigma", "1"], "experiments need sigma >= 2, got 1"),
        (["expect-size", "--n-list", "4", "--samples", "0"], "montecarlo mode needs at least one sample"),
        (["expect-size", "--mode", "exhaustive", "--n-list", "0"], "length must be at least 1, got 0"),
        (["expect-size", "--mode", "exhaustive", "--n-list=-1"], "length must be at least 1, got -1"),
        (["expect-growth", "--n", "0"], "length must be at least 1, got 0"),
        (["expect-size", "--n-list", "4", "--seed", "-1"], "seed must be at least 0, got -1"),
    ],
)
def test_refused_value_exits_2(args, message, capsys):
    assert run_cli(args, capsys) == (2, "", f"error: {message}\n")


@pytest.mark.parametrize("args", [["mu", "--max-j", "2"], ["tree", "aabccb", "--dot"]])
def test_out_that_cannot_be_opened_exits_2(args, tmp_path, capsys):
    path = tmp_path / "missing" / "x.csv"
    code, out, err = run_cli(args + ["--out", str(path)], capsys)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ")
    assert str(path) in err


@pytest.mark.parametrize(
    "args,named",
    [
        (["verify", "--seed", "-1"], "seed must be at least 0, got -1"),
        (["verify", "--out", "{missing}"], "{missing}"),
        (["omega", "--n", "64", "--out", "{missing}"], "{missing}"),
    ],
)
def test_bad_seed_or_out_exits_2_before_any_work(args, named, tmp_path, monkeypatch, capsys):
    def no_work(*_args, **_kwargs):
        raise AssertionError("the refusal must come before any work")

    monkeypatch.setattr(experiments, "run_verification", no_work)
    monkeypatch.setattr(counting, "period_set_populations", no_work)
    missing = str(tmp_path / "missing" / "x.csv")
    code, out, err = run_cli([arg.format(missing=missing) for arg in args], capsys)
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and err.count("\n") == 1
    assert named.format(missing=missing) in err


@pytest.mark.parametrize("existing", ["kept\n", None])
def test_refused_command_leaves_out_as_it_was(existing, tmp_path, capsys):
    # the --out check runs before the work, which then refuses n
    path = tmp_path / "o.csv"
    if existing is not None:
        path.write_text(existing)
    n = counting.MAX_EXACT_N + 1
    assert run_cli(["omega", "--n", str(n), "--out", str(path)], capsys)[0] == 2
    assert (path.read_text() if path.exists() else None) == existing


def test_closed_stdout_pipe_exits_141_quietly():
    # 300 symbols give megabytes of DOT, far more than a pipe buffers
    text = "".join(random.Random(2).choices("ab", k=300))
    proc = subprocess.Popen(
        [sys.executable, "-m", "suffixlab.cli", "tree", text, "--dot"],
        env=env_with_src(), stdout=subprocess.PIPE, stderr=subprocess.PIPE,
    )
    assert proc.stdout.readline() == b"digraph suffixtree {\n"
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert (proc.wait(timeout=60), err) == (141, b"")


@pytest.mark.parametrize("args", [["omega", "--n", "4"], ["expect-size", "--n-list", "4"], ["verify"]])
def test_workers_below_one_exits_2(args, capsys):
    code, out, err = run_cli(args + ["--workers", "0"], capsys)
    assert code == 2
    assert out == ""
    assert "workers must be at least 1" in err


def test_bad_input_text_exits_2(capsys):
    code, _, err = run_cli(["tree", "ab9"], capsys)
    assert code == 2
    assert "error" in err


#: Arguments each subcommand accepts; the cases below add an error to them, so nothing runs.
VALID = {
    "tree": ["aabccb"],
    "growth": ["ab"],
    "mu": ["--max-j", "2"],
    "phi": ["--max-k", "2"],
    "omega": ["--n", "4"],
    "verify": [],
    "expect-growth": ["--n", "4"],
    "expect-size": ["--n-list", "4"],
    "search": ["ab", "a"],
}


def parser_exits():
    """Arguments the parser stops at: help, and usage errors."""
    cases = [[], ["-h"], ["bogus"], ["bogus", "--n", "3"], ["--sigma", "2", "omega"], ["verify", "--budget", "3"]]
    for command, args in VALID.items():
        taken = OPTIONS[command].split()
        foreign = next(flag for flags in OPTIONS.values() for flag in flags.split() if flag not in taken)
        cases += [[command, "-h"], [command, *args, foreign, "1"], [command, *args, "extra"]]
        cases.append([command, *args, "w", "x", "y", "z"])
        # where a standalone parser could part from a subparser: "--" before
        # and after the arguments, help after flags and before a leftover, a
        # flag missing its value, and a repeated flag
        first = taken[0]  # --sigma or --seed, both ints
        cases.append([command, "--", *args, "extra"])
        cases += [[command, first, "2", *args, "-h"], [command, first, "2", *args, "--help"]]
        cases += [[command, *args, "-h", "extra"], [command, *args, first]]
        cases.append([command, *args, first, "2", first, "x"])
        if args:
            cases.append([command, *args, "--", "extra"])  # verify's is the one before
            cases.append([command])  # a required argument missing
            cases.append([command, *args, "--budget", "3"])  # verify's is above
    return cases


def exit_of(call, args, capsys):
    with pytest.raises(SystemExit) as excinfo:
        call(args)
    return (excinfo.value.code, *capsys.readouterr())


@pytest.mark.parametrize("args", parser_exits(), ids=" ".join)
def test_parser_exits_as_the_full_parser_does(args, capsys):
    # the full parser's help and errors name every command; a one-command
    # parser's would name only its own
    assert exit_of(cli.main, args, capsys) == exit_of(cli.build_parser().parse_args, args, capsys)


def test_a_command_builds_only_its_own_parser(monkeypatch, capsys):
    built, added = [], []
    init = argparse.ArgumentParser.__init__
    add_parser = argparse._SubParsersAction.add_parser

    def recording_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        built.append(self.prog)

    def recording_add_parser(self, name, **kwargs):
        added.append(name)
        return add_parser(self, name, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", recording_init)
    monkeypatch.setattr(argparse._SubParsersAction, "add_parser", recording_add_parser)
    assert run_cli(["omega", "--n", "8"], capsys)[0] == 0
    assert (built, added) == (["suffixlab omega"], [])
    for args in (["omega", "--n", "8", "--bogus"], ["verify", "extra"]):
        # argv is parsed once; the leftovers are reported by the full parser
        built.clear()
        added.clear()
        code, _, err = exit_of(cli.main, args, capsys)
        assert code == 2 and "{" + ",".join(cli.COMMANDS) + "}" in err
        assert built == [f"suffixlab {args[0]}", "suffixlab"] + [f"suffixlab {name}" for name in cli.COMMANDS]
        assert added == list(cli.COMMANDS)
    built.clear()
    added.clear()
    assert exit_of(cli.main, ["-h"], capsys)[0] == 0
    assert built == ["suffixlab"] + [f"suffixlab {name}" for name in cli.COMMANDS]
    assert added == list(cli.COMMANDS) and len(added) == 9


#: Arguments a command accepts beyond VALID's: an abbreviated flag, an
#: "="-joined one, and a repeated one, whose last value counts.
ACCEPTED = [
    ["expect-size", "--n-list", "4", "--wor", "1"],
    ["omega", "--n=5"],
    ["omega", "--n", "4", "--n", "5"],
]


@pytest.mark.parametrize(
    "args", [[command, *args] for command, args in VALID.items()] + ACCEPTED, ids=" ".join
)
def test_command_parser_reads_argv_as_the_full_parser_does(args, monkeypatch, capsys):
    seen = []

    def record(namespace):
        seen.append(vars(namespace))
        return 0

    monkeypatch.setitem(cli.COMMANDS, args[0], cli.COMMANDS[args[0]]._replace(func=record))
    assert run_cli(args, capsys) == (0, "", "")
    full = vars(cli.build_parser().parse_args(args))
    assert full.pop("command") == args[0]
    assert seen == [full]


def test_main_reads_sys_argv(monkeypatch, capsys):
    expected = run_cli(["omega", "--n", "4"], capsys)
    monkeypatch.setattr(sys, "argv", ["suffixlab", "omega", "--n", "4"])
    assert run_cli(None, capsys) == expected


def test_unknown_command_exits_2(capsys):
    with pytest.raises(SystemExit) as excinfo:
        cli.main(["frobnicate"])
    assert excinfo.value.code == 2


def test_search_command(capsys):
    code, out, _ = run_cli(["search", "aabccb", "b"], capsys)
    assert code == 0
    assert out == "3 6\n"


def test_search_no_match(capsys):
    code, out, _ = run_cli(["search", "aabccb", "ba"], capsys)
    assert code == 0
    assert out == "\n"


@pytest.mark.parametrize(
    "text,pattern,hits",
    [
        # the period-3 text of 23 symbols has suffixes sharing up to 20
        # symbols, fewer than the 21 a sigma = 3 packed key holds, so its
        # answer comes off the packed keys alone
        ("abc" * 7 + "ab", "bca", range(2, 21, 3)),
        # the period-3 text of 33 symbols shares up to 30 > 21, and the
        # period-2 text of 40 symbols up to 38 > 31 (sigma = 2), so theirs
        # come through the lifted LCPs
        ("abc" * 11, "bca", range(2, 30, 3)),
        ("ab" * 20, "ba", range(2, 39, 2)),
    ],
)
def test_search_on_periodic_texts(text, pattern, hits, capsys):
    assert run_cli(["search", text, pattern], capsys) == (0, " ".join(map(str, hits)) + "\n", "")


def test_expect_growth_exhaustive(capsys):
    code, out, _ = run_cli(
        ["expect-growth", "--sigma", "2", "--n", "2", "--mode", "exhaustive"], capsys
    )
    assert code == 0
    assert out == "sigma,n,mode,regime,samples,mean,stderr,mean_exact\n2,2,exhaustive,uniform,4,1.5,0.0,3/2\n"


def test_expect_size_table(tmp_path):
    out = tmp_path / "size.csv"
    code = cli.main(
        ["expect-size", "--sigma", "2", "--n-list", "8,16", "--samples", "20", "--seed", "4", "--out", str(out)]
    )
    assert code == 0
    with out.open(newline="") as f:
        assert [row["n"] for row in csv.DictReader(f)] == ["8", "16"]


def test_expect_size_rejects_unsorted_n_list(capsys):
    code, _, err = run_cli(["expect-size", "--n-list", "16,8", "--samples", "5"], capsys)
    assert code == 2
    assert "ascending" in err


def test_expect_size_json(capsys):
    code, out, _ = run_cli(
        ["expect-size", "--sigma", "2", "--n-list", "4", "--mode", "exhaustive", "--format", "json"],
        capsys,
    )
    assert code == 0
    assert '"mean_exact"' in out


GOLDEN = Path(__file__).parent / "golden"
MC_SIZE = ["expect-size", "--sigma", "2", "--n-list", "64,128,256", "--samples", "200", "--seed", "1"]
EXPECT_GROWTH_SEED9 = ["expect-growth", "--sigma", "2", "--n", "32", "--samples", "50", "--seed", "9"]


@pytest.mark.parametrize(
    "args,golden",
    [
        (MC_SIZE, "expect_size_seed1.csv"),
        (MC_SIZE + ["--format", "json"], "expect_size_seed1.json"),
        (["expect-size", "--mode", "exhaustive", "--sigma", "2", "--n-list", "1,2,4,8"], "expect_size_exhaustive.csv"),
        (EXPECT_GROWTH_SEED9, "expect_growth_seed9.csv"),
        (EXPECT_GROWTH_SEED9 + ["--format", "json"], "expect_growth_seed9.json"),
        # recorded by the route that merged every length's full period-set
        # populations, with the cap lifted to 128
        (["expect-size", "--mode", "exhaustive", "--sigma", "2", "--n-list", "64,128"], "expect_size_exhaustive_n128.csv"),
        # the n = 2048 block's packed keys all differ, so its sizes come off
        # one sort; each n = 100000 row shares 31 symbols between some
        # suffixes (13 pairs in all) and goes through the whole kernel
        (["expect-size", "--n-list", "2048,100000", "--samples", "4", "--seed", "1"], "expect_size_seed1_long.csv"),
        # at sigma = 3 and 7 the "prefix" regime's values x / sigma are
        # rounded, so a mean of the exact quotients would move these bytes
        (["expect-growth", "--sigma", "3", "--n", "40", "--samples", "200", "--seed", "4"],
         "expect_growth_sigma3_seed4.csv"),
        (["expect-growth", "--sigma", "7", "--n", "64", "--samples", "50", "--seed", "2", "--format", "json"],
         "expect_growth_sigma7_seed2.json"),
    ],
)
def test_expect_size_output_matches_golden_bytes(args, golden, capsys):
    code, out, _ = run_cli(args, capsys)
    assert code == 0
    assert out == (GOLDEN / golden).read_text()


@pytest.mark.parametrize(
    "args,golden",
    [
        (["omega", "--sigma", "2", "--n", "16"], "omega_sigma2_n16.csv"),
        (["omega", "--sigma", "2", "--n", "16", "--format", "json"], "omega_sigma2_n16.json"),
        (["omega", "--sigma", "3", "--n", "9"], "omega_sigma3_n9.csv"),
        (["expect-growth", "--mode", "exhaustive", "--sigma", "2", "--n", "12"], "expect_growth_exhaustive.csv"),
        (["mu", "--sigma", "3", "--max-j", "8"], "mu_sigma3_j8.csv"),
        (["mu", "--sigma", "3", "--max-j", "8", "--format", "json"], "mu_sigma3_j8.json"),
        (["phi", "--sigma", "2", "--max-k", "10"], "phi_sigma2_k10.csv"),
        (["phi", "--sigma", "2", "--max-k", "10", "--format", "json"], "phi_sigma2_k10.json"),
        (["verify", "--seed", "1"], "verify_seed1.txt"),
        (["omega", "--sigma", "2", "--n", "64"], "omega_sigma2_n64.csv"),
        (["expect-growth", "--mode", "exhaustive", "--sigma", "3", "--n", "40"], "expect_growth_exhaustive_sigma3_n40.csv"),
    ],
)
def test_exact_growth_output_matches_golden_bytes(args, golden, capsys):
    code, out, _ = run_cli(args, capsys)
    assert code == 0
    assert out == (GOLDEN / golden).read_text()


@pytest.mark.parametrize(
    "args,golden",
    [
        (["tree", "aabccb", "--compact", "--dot"], "tree_aabccb_compact.dot"),
        (["tree", "abcdefabcdab", "--compact", "--dot"], "tree_abcdefabcdab_compact.dot"),
        (["tree", "aabccb", "--dot"], "tree_aabccb.dot"),
        (["tree", "aabccb", "--compact"], "tree_aabccb_compact.txt"),
        (["tree", "abcdefabcdab", "--compact"], "tree_abcdefabcdab_compact.txt"),
        (["tree", "abcabcabcabcabcabcabcab", "--compact", "--dot"], "tree_abcabcabcabcabcabcabcab_compact.dot"),
    ],
)
def test_tree_output_matches_golden_bytes(args, golden, capsys):
    code, out, _ = run_cli(args, capsys)
    assert code == 0
    assert out == (GOLDEN / golden).read_text()


def test_tree_dot_streams_its_text(tmp_path):
    # a 17.3 MB DOT file: holding the whole text would trace far more than
    # half of it; the size check first imports numpy, outside the trace
    text = "".join(random.Random(5).choices("ab", k=800))
    assert trees.simple_tree_size(from_text(text)) == 314_415
    path = tmp_path / "t.dot"
    tracemalloc.start()
    try:
        assert cli.main(["tree", text, "--dot", "--out", str(path)]) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    size = path.stat().st_size
    assert peak < size / 2, (peak, size)
    assert path.read_text() == "".join(trees.to_dot(trees.build_suffix_tree(from_text(text))))


SEARCH_TEXT = (
    "daacbbabcbddcdcadcabadcdbccdaccdcbbbabaadcabbcdabbdbaabcbbcbdaddddccabbddccbbdabbcbb"
    "abacbacbbccaacdcbcabbbcbdbacdcdbdaaddcdbcbbaadbdbabbcccbbccbadcddddcbaadbaabdbacabaab"
    "adcdbccbccdbdaabdadccacacdddadc"
)
SEARCH_PATTERNS = ["a", "bb", "cdc", "dddd", "abcbddcdca", "daacbbabcbddcdcadcab", "aaaa", "dadc"]


def test_search_output_matches_golden_bytes(capsys):
    # one output line per pattern; "aaaa" does not occur, so its line is empty
    assert len(SEARCH_TEXT) == 200
    outputs = []
    for pattern in SEARCH_PATTERNS:
        code, out, _ = run_cli(["search", SEARCH_TEXT, pattern], capsys)
        assert code == 0
        outputs.append(out)
    assert "".join(outputs) == (GOLDEN / "search_sigma4_n200.txt").read_text()
