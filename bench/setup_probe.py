"""Set-up time of a fresh interpreter: import lsvkit.cli and finish one tiny op.

    python3 bench/setup_probe.py <workload> <seed> <out-dir>

Prints the seconds as its last stdout line.  The clock starts before the
package import, so lazy scipy imports and BLAS start-up count.
"""

import sys
import time
from pathlib import Path

from workloads import WORKLOADS, op_seed

start = time.perf_counter()
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
from lsvkit.cli import main  # noqa: E402

workload, seed, out_dir = WORKLOADS[sys.argv[1]], int(sys.argv[2]), Path(sys.argv[3])
for call in workload.warmup_calls():
    code = main(call.argv(op_seed(seed, 0), out_dir))
    if code != 0:
        sys.exit(f"warm-up {call.command} exited {code}")
print(time.perf_counter() - start)
