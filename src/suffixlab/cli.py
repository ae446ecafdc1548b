"""Command line front end.

Exit codes: 0 on success, 1 when a verification check fails, 2 for usage
or enumeration-budget errors.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from . import counting, experiments, trees
from .strings import from_text

#: Largest simple tree `tree` builds; at about 290 bytes a node this is
#: over 1 GB, and simple_tree_size reads the size before any is built.
MAX_SIMPLE_TREE_NODES = 1 << 22


#: The flags more than one subcommand takes; each subcommand names its own.
#: --workers does nothing; it stays where the benchmark's argv passes it.
FLAGS = {
    "--sigma": dict(type=int, default=None, help="alphabet size (default: inferred or 2)"),
    "--seed": dict(type=int, default=1, help="RNG seed for sampled commands"),
    "--samples": dict(type=int, default=1000, help="Monte Carlo sample count"),
    "--budget": dict(
        type=int, default=counting.DEFAULT_BUDGET, help="max strings an exhaustive sweep may enumerate"
    ),
    "--workers": dict(type=int, default=1, help="at least 1; no command runs workers today"),
    "--format": dict(choices=("csv", "json"), default="csv", help="table output format"),
    "--out": dict(type=Path, default=None, help="write output to this file instead of stdout"),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="suffixlab",
        description="Suffix trees, growth statistics, and aperiodic-string counting experiments.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, func, flags, help, **defaults) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=help)
        for flag in flags.split():
            p.add_argument(flag, **FLAGS[flag])
        p.set_defaults(func=func, **defaults)
        return p

    p = command("tree", cmd_tree, "--sigma --out", "build a suffix tree, print a stats line or DOT")
    p.add_argument("text", help="input string over a..z")
    p.add_argument("--compact", action="store_true", help="build the compact tree")
    p.add_argument("--dot", action="store_true", help="emit DOT instead of the stats line")

    p = command("growth", cmd_growth, "--sigma --out", "growth of a string")
    p.add_argument("text", help="input string over a..z")

    p = command("mu", cmd_mu, "--sigma --format --out", "aperiodic-string counts for j = 1..max-j", sigma=2)
    p.add_argument("--max-j", type=int, required=True)

    p = command("phi", cmd_phi, "--sigma --format --out", "growth-count bounds for k = 1..max-k", sigma=2)
    p.add_argument("--max-k", type=int, required=True)

    p = command(
        "omega", cmd_omega, "--sigma --budget --workers --format --out",
        "exhaustive growth counts for one n", sigma=2,
    )
    p.add_argument("--n", type=int, required=True)

    command("verify", cmd_verify, "--seed --budget --workers --out", "run every desk-scale correctness check")

    p = command(
        "expect-growth", cmd_expect_growth, "--sigma --seed --samples --budget --format --out",
        "mean growth of random strings", sigma=2,
    )
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--mode", choices=("montecarlo", "exhaustive"), default="montecarlo")

    p = command(
        "expect-size", cmd_expect_size, "--sigma --seed --samples --budget --workers --format --out",
        "mean simple-tree size of random strings", sigma=2,
    )
    p.add_argument("--n-list", type=str, required=True, help="comma-separated lengths, ascending")
    p.add_argument("--mode", choices=("montecarlo", "exhaustive"), default="montecarlo")

    p = command("search", cmd_search, "--sigma --out", "all occurrences of a pattern")
    p.add_argument("text", help="string to index, over a..z")
    p.add_argument("pattern", help="pattern to look up, over a..z")

    return parser


def _emit(text: str, out: Path | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        out.write_text(text)


def _emit_rows(args: argparse.Namespace, row_type, rows, **wrapper) -> None:
    if args.format == "csv":
        text = experiments.rows_to_csv(row_type, rows)
    else:
        text = experiments.rows_to_json(row_type, rows, **wrapper)
    _emit(text, args.out)


def cmd_tree(args: argparse.Namespace) -> int:
    s = from_text(args.text, args.sigma)
    if args.compact:
        tree = trees.build_compact_tree(s)
    else:
        nodes = trees.simple_tree_size(s)
        if nodes > MAX_SIMPLE_TREE_NODES:
            raise ValueError(
                f"simple tree of {len(s)} symbols needs {nodes} nodes, "
                f"cap is {MAX_SIMPLE_TREE_NODES}; use --compact"
            )
        tree = trees.build_suffix_tree(s)
    if args.dot:
        _emit(trees.to_dot(tree), args.out)
    else:
        _emit(trees.stats_line(tree, trees.growth_via_lcp(s)) + "\n", args.out)
    return 0


def cmd_growth(args: argparse.Namespace) -> int:
    s = from_text(args.text, args.sigma)
    _emit(f"{trees.growth_via_lcp(s)}\n", args.out)
    return 0


def cmd_mu(args: argparse.Namespace) -> int:
    rows = experiments.aperiodic_table(args.sigma, args.max_j)
    _emit_rows(args, experiments.CountRow, rows, kind="aperiodic", sigma=args.sigma)
    return 0


def cmd_phi(args: argparse.Namespace) -> int:
    rows = experiments.growth_bound_table(args.sigma, args.max_k)
    _emit_rows(args, experiments.CountRow, rows, kind="growth_bound", sigma=args.sigma)
    return 0


def cmd_omega(args: argparse.Namespace) -> int:
    rows = experiments.growth_count_table(args.n, args.sigma, budget=args.budget)
    _emit_rows(args, experiments.GrowthCountRow, rows)
    return 0


def cmd_verify(args: argparse.Namespace) -> int:
    report = experiments.run_verification(seed=args.seed, budget=args.budget)
    text = "\n".join(report.lines()) + "\n"
    _emit(text, args.out)
    if args.out is not None:
        sys.stdout.write(text)
    return 0 if report.ok else 1


def cmd_expect_growth(args: argparse.Namespace) -> int:
    rows = experiments.expected_growth(
        args.n, args.sigma, mode=args.mode, samples=args.samples, seed=args.seed, budget=args.budget
    )
    _emit_rows(args, experiments.ExpectationRow, rows)
    return 0


def _parse_n_list(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(part) for part in text.split(","))
    except ValueError:
        raise ValueError(f"bad n-list {text!r}, expected comma-separated integers")


def cmd_expect_size(args: argparse.Namespace) -> int:
    rows = experiments.expected_size(
        _parse_n_list(args.n_list), args.sigma,
        mode=args.mode, samples=args.samples, seed=args.seed, budget=args.budget,
    )
    _emit_rows(args, experiments.SizeRow, rows)
    return 0


def cmd_search(args: argparse.Namespace) -> int:
    sigma = args.sigma
    if sigma is None:
        sigma = max(from_text(args.text).alphabet.size, from_text(args.pattern).alphabet.size)
    s = from_text(args.text, sigma)
    pattern = from_text(args.pattern, sigma)
    positions = trees.find_occurrences(trees.build_compact_tree(s), pattern)
    _emit(" ".join(str(p) for p in positions) + "\n", args.out)
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if getattr(args, "workers", 1) < 1:
            raise ValueError("workers must be at least 1")
        return args.func(args)
    except counting.EnumerationBudgetError as exc:
        print(f"budget error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
