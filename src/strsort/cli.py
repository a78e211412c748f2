"""Command-line benchmark runner.

Exit status is 0 on success and nonzero on bad arguments, unknown
algorithms, unreadable inputs, or verification failure.
"""

from __future__ import annotations

import argparse
import sys

from .bench import ALGORITHMS, RunConfig, VerificationError, run


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="strsort-bench",
        description="Benchmark string sorting algorithms on files or generated corpora.",
    )
    p.add_argument("--algo", required=True, help="algorithm id (see --list)")
    p.add_argument("--input", help="input file (newline-delimited text or zero-delimited binary)")
    p.add_argument("--gen", choices=["random", "suffix"], help="generated corpus instead of a file")
    p.add_argument("--n", type=int, help="limit on the number of strings")
    p.add_argument("--bytes", type=int, help="limit on input bytes read or generated; not with --gen random")
    p.add_argument("--threads", type=int, default=1, help="worker count for parallel algorithms")
    p.add_argument("--reps", type=int, default=1, help="timed repetitions")
    p.add_argument("--seed", type=int, default=1, help="seed for generators and sampling")
    p.add_argument("--verify", action="store_true", help="check permutation and order after sorting")
    p.add_argument("--format", choices=["table", "csv"], default="table")
    p.add_argument("--counters", action="store_true",
                   help="report instrumentation counters plus D and L of the instance")
    p.add_argument("--list", action="store_true", help="list algorithm ids and exit")
    return p


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    if argv is None:
        argv = sys.argv[1:]
    if "--list" in argv:
        print("\n".join(sorted(ALGORITHMS)))
        return 0
    args = parser.parse_args(argv)
    cfg = RunConfig(
        algorithm=args.algo,
        input_path=args.input,
        generator=args.gen,
        n=args.n,
        byte_limit=args.bytes,
        threads=args.threads,
        reps=args.reps,
        seed=args.seed,
        verify=args.verify,
        fmt=args.format,
        counters=args.counters,
    )
    try:
        result = run(cfg)
    except VerificationError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except (KeyError, ValueError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    if cfg.fmt == "csv":
        sys.stdout.write(result.to_csv())
    else:
        sys.stdout.write(result.to_table())
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
