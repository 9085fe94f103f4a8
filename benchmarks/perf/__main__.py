"""``python -m benchmarks.perf {run,compare}`` (from the repository root)."""

import argparse
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from benchmarks.perf.compare import compare  # noqa: E402
from benchmarks.perf.suite import run  # noqa: E402


def main(argv=None):
    parser = argparse.ArgumentParser(prog="python -m benchmarks.perf")
    commands = parser.add_subparsers(dest="command", required=True)
    run_parser = commands.add_parser(
        "run", help="run every workload and write out/results.json")
    run_parser.add_argument("--seed", type=int, default=11)
    run_parser.add_argument("--workload", action="append",
                            help="only this workload (repeatable)")
    run_parser.add_argument("--quick", action="store_true",
                            help="1/20 scale, one run: the self-test's size")
    run_parser.add_argument("--out", help="result file "
                            "(default benchmarks/perf/out/results.json)")
    run_parser.set_defaults(function=run)
    compare_parser = commands.add_parser(
        "compare", help="judge result file B against result file A")
    compare_parser.add_argument("a")
    compare_parser.add_argument("b")
    compare_parser.set_defaults(function=compare)
    args = parser.parse_args(argv)
    return args.function(args)


if __name__ == "__main__":
    sys.exit(main())
