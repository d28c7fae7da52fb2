"""Regenerate golden.json: sha256 digests of ops 0..N-1 at DEFAULT_SEED.

    python3 bench/make_golden.py [N]    # N defaults to 200, the count stored now

Run it only at a commit whose outputs are known good; the benchmark
then fails any op at DEFAULT_SEED whose bytes differ from these.
"""

import json
import shutil
import sys
import tempfile
from pathlib import Path

from workloads import DEFAULT_SEED, GOLDEN_PATH, WORKLOADS, digest, op_seed

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
from lsvkit.cli import main  # noqa: E402

count = int(sys.argv[1]) if len(sys.argv) > 1 else 200
(ROOT / ".bench_work").mkdir(exist_ok=True)
work = Path(tempfile.mkdtemp(dir=ROOT / ".bench_work"))
ops = {}
try:
    for name, workload in WORKLOADS.items():
        digests = []
        for i in range(count):
            for call in workload.calls:
                if main(call.argv(op_seed(DEFAULT_SEED, i), work)) != 0:
                    sys.exit(f"{name} op {i}: {call.command} failed")
            digests.append(digest([(work / c.out).read_bytes() for c in workload.calls]))
        ops[name] = digests
        print(name, "done", file=sys.stderr)
finally:
    shutil.rmtree(work)
GOLDEN_PATH.write_text(json.dumps({"seed": DEFAULT_SEED, "ops": ops}, indent=1) + "\n",
                       encoding="utf-8")
