"""One run of one workload: the ``BENCHMARK.json`` command, and the
process ``python -m benchmarks.perf run`` starts for each of its runs.

    python3 benchmarks/perf/child.py --workload match_read --seed 11 \
        --seconds 8 --trace 0

Prints one JSON object as its last line of output.  Run from anywhere;
the program under test is the ``src/`` tree of the checkout this file
sits in, and a checkout without one is an error, not an empty result.
"""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
if not (ROOT / "src" / "repro").is_dir():
    sys.exit(f"{ROOT / 'src' / 'repro'} is missing: nothing to benchmark")
sys.path.insert(0, str(ROOT))

from benchmarks.perf import harness  # noqa: E402

if __name__ == "__main__":
    sys.exit(harness.run_main(sys.argv[1:]))
