"""Command line front end.

Exit codes: 0 on success, 1 when a verification check fails, 2 for usage
errors, sizes above a limit, and an --out path that cannot be opened or
written, and 141 (128 + SIGPIPE, what a shell reports for a writer killed
by SIGPIPE) when the reader of the output goes away before it is all
written, as in `suffixlab tree ... --dot | head -1`. A bad --seed or --out
is refused before the command's work starts.
"""

from __future__ import annotations

import argparse
import os
import sys
from collections.abc import Callable, Iterable
from pathlib import Path
from typing import NamedTuple

from . import experiments, trees
from .strings import from_text

#: Largest simple tree `tree` builds. The tree takes about 8 bytes a node
#: (peak RSS growth of a σ=2, n=2048 build, CPython 3.11), and `tree --dot`
#: writes its text as it makes it, so this bounds output size and time, not
#: memory: on a σ=2 text of 2,900 symbols and 4,179,272 nodes, `tree --dot`
#: writes 243 MB of DOT in 6-8 s and peaks at 65 MB RSS, and `tree` at 63 MB.
#: simple_tree_size reads the size off the LCP array before any node is
#: built, in O(n log² n) time.
MAX_SIMPLE_TREE_NODES = 1 << 22


#: The flags more than one subcommand takes; each entry of COMMANDS lists the ones it takes.
#: --workers does nothing; it stays where the benchmark's argv passes it.
FLAGS = {
    "--sigma": dict(type=int, default=None, help="alphabet size (default: inferred or 2)"),
    "--seed": dict(type=int, default=1, help="RNG seed for sampled commands"),
    "--samples": dict(type=int, default=1000, help="Monte Carlo sample count"),
    "--workers": dict(type=int, default=1, help="at least 1; no command runs workers today"),
    "--format": dict(choices=("csv", "json"), default="csv", help="table output format"),
    "--out": dict(type=Path, default=None, help="write output to this file instead of stdout"),
}


def _check_out(out: Path) -> None:
    """Raise the OSError that writing to out would raise, leaving an
    existing file as it was and no new one behind."""
    existed = out.exists()
    out.open("a").close()
    if not existed:
        out.unlink()


def _emit(pieces: Iterable[str], out: Path | None) -> None:
    """Write each piece of text as it comes, to stdout or to out."""
    if out is None:
        sys.stdout.writelines(pieces)
    else:
        with out.open("w") as f:
            f.writelines(pieces)


def _emit_rows(args: argparse.Namespace, row_type, rows, **wrapper) -> None:
    if args.format == "csv":
        text = experiments.rows_to_csv(row_type, rows)
    else:
        text = experiments.rows_to_json(row_type, rows, **wrapper)
    _emit([text], args.out)


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
        _emit([trees.stats_line(tree, trees.growth_via_lcp(s)) + "\n"], args.out)
    return 0


def cmd_growth(args: argparse.Namespace) -> int:
    s = from_text(args.text, args.sigma)
    _emit([f"{trees.growth_via_lcp(s)}\n"], args.out)
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
    rows = experiments.growth_count_table(args.n, args.sigma)
    _emit_rows(args, experiments.GrowthCountRow, rows)
    return 0


def cmd_verify(args: argparse.Namespace) -> int:
    results = experiments.run_verification(seed=args.seed)
    ok = all(passed for passed, _ in results.values())
    lines = [
        f"{'PASS' if passed else 'FAIL'} {name}: {detail}\n"
        for name, (passed, detail) in results.items()
    ]
    lines.append(f"verification {'PASSED' if ok else 'FAILED'}\n")
    _emit(lines, args.out)
    if args.out is not None:
        sys.stdout.writelines(lines)
    return 0 if ok else 1


def cmd_expect_growth(args: argparse.Namespace) -> int:
    rows = experiments.expected_growth(
        args.n, args.sigma, mode=args.mode, samples=args.samples, seed=args.seed
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
        mode=args.mode, samples=args.samples, seed=args.seed,
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
    _emit([" ".join(str(p) for p in positions) + "\n"], args.out)
    return 0


class Command(NamedTuple):
    func: Callable[[argparse.Namespace], int]
    flags: str  # the FLAGS it takes, in order
    help: str
    args: tuple = ()  # its own arguments: (name, add_argument keywords) pairs
    defaults: dict = {}


#: Every subcommand, in the order the top-level help lists them.
COMMANDS = {
    "tree": Command(
        cmd_tree, "--sigma --out", "build a suffix tree, print a stats line or DOT",
        (
            ("text", dict(help="input string over a..z")),
            ("--compact", dict(action="store_true", help="build the compact tree")),
            ("--dot", dict(action="store_true", help="emit DOT instead of the stats line")),
        ),
    ),
    "growth": Command(
        cmd_growth, "--sigma --out", "growth of a string", (("text", dict(help="input string over a..z")),),
    ),
    "mu": Command(
        cmd_mu, "--sigma --format --out", "aperiodic-string counts for j = 1..max-j",
        (("--max-j", dict(type=int, required=True)),), dict(sigma=2),
    ),
    "phi": Command(
        cmd_phi, "--sigma --format --out", "growth-count bounds for k = 1..max-k",
        (("--max-k", dict(type=int, required=True)),), dict(sigma=2),
    ),
    "omega": Command(
        cmd_omega, "--sigma --workers --format --out", "exhaustive growth counts for one n",
        (("--n", dict(type=int, required=True)),), dict(sigma=2),
    ),
    "verify": Command(cmd_verify, "--seed --workers --out", "run every desk-scale correctness check"),
    "expect-growth": Command(
        cmd_expect_growth, "--sigma --seed --samples --format --out", "mean growth of random strings",
        (
            ("--n", dict(type=int, required=True)),
            ("--mode", dict(choices=("montecarlo", "exhaustive"), default="montecarlo")),
        ),
        dict(sigma=2),
    ),
    "expect-size": Command(
        cmd_expect_size, "--sigma --seed --samples --workers --format --out",
        "mean simple-tree size of random strings",
        (
            ("--n-list", dict(type=str, required=True, help="comma-separated lengths, ascending")),
            ("--mode", dict(choices=("montecarlo", "exhaustive"), default="montecarlo")),
        ),
        dict(sigma=2),
    ),
    "search": Command(
        cmd_search, "--sigma --out", "all occurrences of a pattern",
        (
            ("text", dict(help="string to index, over a..z")),
            ("pattern", dict(help="pattern to look up, over a..z")),
        ),
    ),
}


def _add_arguments(parser: argparse.ArgumentParser, spec: Command) -> None:
    """Give parser the arguments and defaults of one command."""
    for flag in spec.flags.split():
        parser.add_argument(flag, **FLAGS[flag])
    for arg, keywords in spec.args:
        parser.add_argument(arg, **keywords)
    parser.set_defaults(func=spec.func, **spec.defaults)


def build_parser() -> argparse.ArgumentParser:
    """The full parser: every command, as a subparser, for the top-level
    help and for an argv that names no command."""
    parser = argparse.ArgumentParser(
        prog="suffixlab",
        description="Suffix trees, growth statistics, and aperiodic-string counting experiments.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, spec in COMMANDS.items():
        _add_arguments(sub.add_parser(name, help=spec.help), spec)
    return parser


def main(argv=None) -> int:
    """Run the command argv names; return its exit code.

    A command builds only its own parser, a standalone one with the prog
    the full parser would give its subparser, and parses the rest of argv
    once. What that parse leaves over is reported by the full parser, so
    the usage line still lists every command. No arguments, help and an
    unknown command go to the full parser.
    """
    if argv is None:
        argv = sys.argv[1:]
    if argv and argv[0] in COMMANDS:
        parser = argparse.ArgumentParser(prog=f"suffixlab {argv[0]}")
        _add_arguments(parser, COMMANDS[argv[0]])
        args, extras = parser.parse_known_args(argv[1:])
        if extras:
            build_parser().error(f"unrecognized arguments: {' '.join(extras)}")
    else:
        args = build_parser().parse_args(argv)
    try:
        if getattr(args, "workers", 1) < 1:
            raise ValueError("workers must be at least 1")
        if getattr(args, "seed", 0) < 0:
            raise ValueError(f"seed must be at least 0, got {args.seed}")
        if args.out is not None:
            _check_out(args.out)
        return args.func(args)
    except BrokenPipeError:
        # stdout's reader is gone; the flush at shutdown goes to devnull, so
        # it cannot raise again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
