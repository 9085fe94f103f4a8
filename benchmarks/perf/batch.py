"""One batch of one workload in a process of its own, started by
``child.py``; prints one JSON record.  ``--seed`` is the batch's own."""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from benchmarks.perf import harness  # noqa: E402

if __name__ == "__main__":
    sys.exit(harness.batch_main(sys.argv[1:]))
