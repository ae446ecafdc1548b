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


def _common_flags() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--sigma", type=int, default=None, help="alphabet size (default: inferred or 2)")
    common.add_argument("--seed", type=int, default=1, help="RNG seed for sampled commands")
    common.add_argument("--samples", type=int, default=1000, help="Monte Carlo sample count")
    common.add_argument(
        "--budget",
        type=int,
        default=counting.DEFAULT_BUDGET,
        help="max strings an exhaustive sweep may enumerate",
    )
    common.add_argument("--workers", type=int, default=1, help="parallel workers for enumeration")
    common.add_argument("--format", choices=("csv", "json"), default="csv", help="table output format")
    common.add_argument("--out", type=Path, default=None, help="write output to this file instead of stdout")
    return common


def build_parser() -> argparse.ArgumentParser:
    common = _common_flags()
    parser = argparse.ArgumentParser(
        prog="suffixlab",
        description="Suffix trees, growth statistics, and aperiodic-string counting experiments.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("tree", parents=[common], help="build a suffix tree, print a stats line or DOT")
    p.add_argument("text", help="input string over a..z")
    p.add_argument("--compact", action="store_true", help="build the compact tree")
    p.add_argument("--dot", action="store_true", help="emit DOT instead of the stats line")
    p.set_defaults(func=cmd_tree)

    p = sub.add_parser("growth", parents=[common], help="growth of a string")
    p.add_argument("text", help="input string over a..z")
    p.set_defaults(func=cmd_growth)

    p = sub.add_parser("mu", parents=[common], help="aperiodic-string counts for j = 1..max-j")
    p.add_argument("--max-j", type=int, required=True)
    p.set_defaults(func=cmd_mu)

    p = sub.add_parser("phi", parents=[common], help="growth-count bounds for k = 1..max-k")
    p.add_argument("--max-k", type=int, required=True)
    p.set_defaults(func=cmd_phi)

    p = sub.add_parser("omega", parents=[common], help="exhaustive growth counts for one n")
    p.add_argument("--n", type=int, required=True)
    p.set_defaults(func=cmd_omega)

    p = sub.add_parser("verify", parents=[common], help="run every desk-scale correctness check")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("expect-growth", parents=[common], help="mean growth of random strings")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--mode", choices=("montecarlo", "exhaustive"), default="montecarlo")
    p.set_defaults(func=cmd_expect_growth)

    p = sub.add_parser("expect-size", parents=[common], help="mean simple-tree size of random strings")
    p.add_argument("--n-list", type=str, required=True, help="comma-separated lengths, ascending")
    p.add_argument("--mode", choices=("montecarlo", "exhaustive"), default="montecarlo")
    p.set_defaults(func=cmd_expect_size)

    p = sub.add_parser("search", parents=[common], help="all occurrences of a pattern")
    p.add_argument("text", help="string to index, over a..z")
    p.add_argument("pattern", help="pattern to look up, over a..z")
    p.set_defaults(func=cmd_search)

    return parser


def _emit(text: str, out: Path | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        out.write_text(text)


def _config(args: argparse.Namespace, n: int | None = None, n_list=()) -> experiments.ExperimentConfig:
    return experiments.ExperimentConfig(
        sigma=args.sigma if args.sigma is not None else 2,
        n=n,
        n_list=tuple(n_list),
        samples=args.samples,
        seed=args.seed,
        mode=getattr(args, "mode", "montecarlo"),
        budget=args.budget,
        workers=args.workers,
    )


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
    sigma = args.sigma if args.sigma is not None else 2
    rows = experiments.aperiodic_table(sigma, args.max_j)
    _emit_rows(args, experiments.CountRow, rows, kind="aperiodic", sigma=sigma)
    return 0


def cmd_phi(args: argparse.Namespace) -> int:
    sigma = args.sigma if args.sigma is not None else 2
    rows = experiments.growth_bound_table(sigma, args.max_k)
    _emit_rows(args, experiments.CountRow, rows, kind="growth_bound", sigma=sigma)
    return 0


def cmd_omega(args: argparse.Namespace) -> int:
    config = _config(args, n=args.n)
    _emit_rows(args, experiments.GrowthCountRow, experiments.growth_count_table(config))
    return 0


def cmd_verify(args: argparse.Namespace) -> int:
    config = _config(args)
    report = experiments.run_verification(config)
    text = "\n".join(report.lines()) + "\n"
    _emit(text, args.out)
    if args.out is not None:
        sys.stdout.write(text)
    return 0 if report.ok else 1


def cmd_expect_growth(args: argparse.Namespace) -> int:
    config = _config(args, n=args.n)
    _emit_rows(args, experiments.ExpectationRow, experiments.expected_growth(config))
    return 0


def _parse_n_list(text: str) -> tuple[int, ...]:
    try:
        values = tuple(int(part) for part in text.split(","))
    except ValueError:
        raise ValueError(f"bad n-list {text!r}, expected comma-separated integers")
    if not values:
        raise ValueError("n-list is empty")
    return values


def cmd_expect_size(args: argparse.Namespace) -> int:
    config = _config(args, n_list=_parse_n_list(args.n_list))
    _emit_rows(args, experiments.SizeRow, experiments.expected_size(config))
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
        return args.func(args)
    except counting.EnumerationBudgetError as exc:
        print(f"budget error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
