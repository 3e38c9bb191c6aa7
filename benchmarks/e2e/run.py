#!/usr/bin/env python3
"""duet-e2e driver entry: one workload in this process.

    python3 benchmarks/e2e/run.py --workload fwd_steady --seed 1 \
        --seconds 12 --trace 0

The last line of standard output is the result as one JSON object.
See README.md in this directory.
"""

import os
import sys
import time

# Single-threaded by construction: set before numpy loads its BLAS.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

_ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
# The program under test, then the benchmark package itself.
sys.path[:0] = [os.path.join(_ROOT, "src"), _ROOT]

try:
    from benchmarks.e2e import harness  # noqa: E402
except ModuleNotFoundError as error:
    # A directory without src/: fail without printing a result.
    sys.exit(f"duet-e2e: cannot import the program under test: {error}")

if __name__ == "__main__":
    sys.exit(harness.main(None, import_s=time.process_time()))
