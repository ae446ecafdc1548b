import argparse
import csv
import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

import suffixlab
from suffixlab import cli, trees
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
    code, _, err = run_cli(["omega", "--sigma", "2", "--n", "30"], capsys)
    assert code == 2
    assert "budget" in err


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("bound", ["0", "-2"])
@pytest.mark.parametrize("command,flag", [("mu", "--max-j"), ("phi", "--max-k")])
def test_count_table_bound_below_one_exits_2(command, flag, bound, fmt, capsys):
    code, out, err = run_cli([command, flag, bound, "--format", fmt], capsys)
    assert code == 2
    assert out == ""
    assert f"must be at least 1, got {bound}" in err


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


IMPORT_PROBE = """
import contextlib, io, json, sys
from suffixlab import cli

LAZY = ("numpy", "concurrent.futures.process")
report = []

def record(label):
    report.append([label, [m for m in LAZY if m in sys.modules]])

cli.build_parser()
record("build_parser")
for args in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(args)
    record(" ".join(args) + f" -> {code}")
print(json.dumps(report))
"""


def test_commands_that_never_sample_load_neither_numpy_nor_the_process_pool():
    commands = [
        ["omega", "--n", "8"],
        ["tree", "aabccb"],
        ["search", "aabccb", "b"],
        ["mu", "--max-j", "5"],
        ["phi", "--max-k", "5"],
        ["growth", "abcdefabcdab"],
        ["expect-size", "--mode", "exhaustive", "--n-list", "1,2,4,8"],
        # last, the one command here that samples
        ["expect-size", "--n-list", "8", "--samples", "5"],
    ]
    src = str(Path(suffixlab.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-c", IMPORT_PROBE, json.dumps(commands)],
        env=env, capture_output=True, text=True, check=True, timeout=120,
    )
    report = json.loads(proc.stdout)
    assert [label for label, _ in report] == ["build_parser"] + [
        " ".join(args) + " -> 0" for args in commands
    ]
    for label, loaded in report[:-1]:
        assert loaded == [], label
    assert report[-1][1] == ["numpy"]


#: Every subcommand's options: the shared flags of cli.FLAGS it takes, then its own.
OPTIONS = {
    "tree": "--sigma --out --compact --dot",
    "growth": "--sigma --out",
    "search": "--sigma --out",
    "mu": "--sigma --format --out --max-j",
    "phi": "--sigma --format --out --max-k",
    "omega": "--sigma --budget --workers --format --out --n",
    "verify": "--seed --budget --workers --out",
    "expect-growth": "--sigma --seed --samples --budget --format --out --n --mode",
    "expect-size": "--sigma --seed --samples --budget --workers --format --out --n-list --mode",
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
    ],
)
def test_refused_value_exits_2(args, message, capsys):
    assert run_cli(args, capsys) == (2, "", f"error: {message}\n")


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
    ],
)
def test_tree_output_matches_golden_bytes(args, golden, capsys):
    code, out, _ = run_cli(args, capsys)
    assert code == 0
    assert out == (GOLDEN / golden).read_text()


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
