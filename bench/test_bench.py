"""Tests of the benchmark's own logic: span arithmetic and output checks.

    python3 -m pytest bench/test_bench.py
"""

import json
import shutil
import subprocess
import sys
import threading
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import pytest

from spans import Recorder, Span, self_times, union_length
from workloads import (DEFAULT_SEED, WORKLOADS, Call, CheckFailed, check_lcd, check_op, digest,
                       op_seed)

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))


def test_union_length_merges_and_clips():
    assert union_length([(1, 5), (3, 8), (9, 12)], 0, 10) == pytest.approx(8.0)
    assert union_length([], 0, 10) == 0.0


def test_self_time_with_overlapping_worker_children():
    # root on thread 1 waits while two worker threads run overlapping
    # children; one child has its own child and one pokes past the root.
    spans = [
        Span(0, "harness.run_tail_sweep", 0.0, 10.0, None, 0, 1),
        Span(1, "linalg.smallest_singular_value", 1.0, 5.0, 0, 0, 2),
        Span(2, "linalg.smallest_singular_value", 3.0, 8.0, 0, 0, 3),
        Span(3, "ensembles.SeedSpec.key", 2.0, 3.0, 1, 0, 2),
        Span(4, "ensembles.sample_matrix", 9.0, 11.0, 0, 0, 3),
    ]
    got = self_times(spans)
    assert got[0] == pytest.approx(10.0 - 7.0 - 1.0)  # union [1,8] and [9,10]
    assert got[1] == pytest.approx(3.0)
    assert got[2] == pytest.approx(5.0)
    assert got[3] == pytest.approx(1.0)
    assert got[4] == pytest.approx(2.0)


def test_worker_thread_spans_take_the_roots_innermost_open_span_as_parent():
    rec = Recorder()

    traced_leaf = rec.wrap(threading.get_ident, "leaf")

    def sweep():
        with ThreadPoolExecutor(max_workers=2) as ex:
            return list(ex.map(lambda _: traced_leaf(), range(4)))

    traced_sweep = rec.wrap(sweep, "sweep")
    with rec.root(7):
        traced_sweep()
    by_name = {}
    for s in rec.spans:
        by_name.setdefault(s.name, []).append(s)
    (root,), (sweep,) = by_name["cli.main"], by_name["sweep"]
    assert sweep.parent == root.id
    assert len(by_name["leaf"]) == 4
    assert all(s.parent == sweep.id and s.op == 7 and s.thread != root.thread
               for s in by_name["leaf"])
    assert all(s.end >= s.start for s in rec.spans)


def _run_calls(calls, seed, out_dir: Path) -> list[bytes]:
    from lsvkit.cli import main

    for call in calls:
        assert main(call.argv(seed, out_dir)) == 0
    return [(out_dir / c.out).read_bytes() for c in calls]


def test_golden_check_fails_on_one_tampered_byte(tmp_path):
    workload = WORKLOADS["witness"]
    blobs = _run_calls(workload.calls, op_seed(DEFAULT_SEED, 0), tmp_path)
    golden = {workload.name: [digest(blobs)]}
    check_op(workload, blobs, DEFAULT_SEED, 0, golden)

    data = bytearray(blobs[0])
    pos = data.index(b'"norm_x": ') + len(b'"norm_x": ') + 2  # a digit after "d."
    data[pos] = ord("1") if data[pos] != ord("1") else ord("2")
    tampered = [bytes(data)]
    check_op(workload, tampered, 1, 0, golden)  # invariants alone still hold
    with pytest.raises(CheckFailed, match="stored digest"):
        check_op(workload, tampered, DEFAULT_SEED, 0, golden)


def test_held_out_seed_runs_invariant_checks_only(tmp_path):
    workload = WORKLOADS["tail-small"]
    seed = 5
    blobs = _run_calls(workload.calls, op_seed(seed, 3), tmp_path)
    wrong = {workload.name: ["0" * 64] * 10}
    check_op(workload, blobs, seed, 3, wrong)  # digests are not consulted off DEFAULT_SEED

    # swap the first and last exceed counts: lower-tail counts must rise with eps
    lines = blobs[0].decode().splitlines()
    rows = [line.split(",") for line in lines[1:]]
    assert rows[0][5] != rows[-1][5]
    rows[0][5], rows[-1][5] = rows[-1][5], rows[0][5]
    broken = "\n".join([lines[0]] + [",".join(r) for r in rows]) + "\n"
    with pytest.raises(CheckFailed):
        check_op(workload, [broken.encode()], seed, 3, wrong)


def test_lcd_check_recomputes_admissibility(tmp_path):
    call = Call("lcd", {"subspace-dim": 2, "n": 3, "gamma": 0.5, "alpha": 10.0,
                        "theta-max": 100, "samples": 2}, "lcd.json")
    (blob,) = _run_calls([call], 11, tmp_path)
    doc = json.loads(blob)
    assert not doc["unbounded"]
    check_lcd(blob, call, 11)
    doc["certificate"][0] += 1
    with pytest.raises(CheckFailed, match="nearest lattice point"):
        check_lcd(json.dumps(doc).encode(), call, 11)


def test_exits_without_result_when_sources_are_missing(tmp_path):
    shutil.copytree(HERE, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "witness",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
