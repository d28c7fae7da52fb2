"""Which lsvkit calls the traced run wraps, and the per-layer metrics built from them.

Each patch rebinds a name in the module that imported it, so a span
covers exactly the calls that cross that module boundary.  Span names
are `<defining module>.<function>`; a name imported into two modules
(smallest_singular_value in harness and witness) feeds one metric.
"""

from __future__ import annotations

import math

import numpy as np

from spans import Recorder, Span, self_times

# Nominal flop counts, labelled "computed": LU with partial pivoting
# 2n^3/3, singular values only (bidiagonalization) 8n^3/3.
_LU_FLOPS = 2 / 3
_SVD_FLOPS = 8 / 3


def _matrix_entries(args, kwargs, result) -> int:
    return result.size


def _ssv_flops(args, kwargs, result) -> int:
    n = args[0].shape[0]
    return round((_LU_FLOPS + (_SVD_FLOPS if result > 0.0 else 0.0)) * n**3)


def _lcd_grid_points(args, kwargs, result) -> int:
    # grid points up to the first admissible one, or the whole horizon
    a, q = args
    step = q.resolved_step(float(np.linalg.norm(a)))
    n_pts = math.floor(q.theta_max / step)
    if result.theta_star is None:
        return n_pts
    return min(n_pts, math.ceil(result.theta_star / step))


def _small_ball_samples(args, kwargs, result) -> int:
    return result.trials


def install(rec: Recorder) -> None:
    from lsvkit import cli, ensembles, harness, structure, witness

    rec.patch(harness, "sample_matrix", "ensembles.sample_matrix", _matrix_entries)
    rec.patch(harness, "smallest_singular_value", "linalg.smallest_singular_value", _ssv_flops)
    rec.patch(harness, "wilson_interval", "stats.wilson_interval")
    rec.patch(witness, "lu_factorization", "linalg.lu_factorization")
    rec.patch(witness, "orthonormalize", "linalg.orthonormalize")
    rec.patch(witness, "dist_to_subspace", "linalg.dist_to_subspace")
    rec.patch(witness, "smallest_singular_value", "linalg.smallest_singular_value", _ssv_flops)
    rec.patch(cli, "audit", "witness.audit")
    rec.patch(cli, "sample_matrix", "ensembles.sample_matrix", _matrix_entries)
    rec.patch(cli, "run_tail_sweep", "harness.run_tail_sweep")
    rec.patch(cli, "write_tail_csv", "harness.write_tail_csv")
    rec.patch(cli, "lcd_subspace_sampled", "structure.lcd_subspace_sampled")
    rec.patch(cli, "small_ball_estimate", "structure.small_ball_estimate", _small_ball_samples)
    rec.patch(structure, "lcd_vector", "structure.lcd_vector", _lcd_grid_points)
    rec.patch(structure, "sample_array", "ensembles.sample_array", _matrix_entries)
    rec.patch(structure, "wilson_interval", "stats.wilson_interval")
    rec.patch(ensembles.SeedSpec, "key", "ensembles.SeedSpec.key")


# (span name, statistics reported for it)
_CALL_METRICS = (
    ("ensembles.sample_matrix", ("calls", "self_s", "mean_us")),
    ("ensembles.SeedSpec.key", ("calls", "self_s")),
    ("ensembles.sample_array", ("calls", "self_s")),
    ("linalg.smallest_singular_value", ("calls", "self_s", "mean_us")),
    ("linalg.lu_factorization", ("calls", "self_s")),
    ("linalg.orthonormalize", ("calls", "self_s")),
    ("linalg.dist_to_subspace", ("calls", "self_s")),
    ("witness.audit", ("calls", "self_s", "mean_ms")),
    ("structure.lcd_vector", ("calls", "self_s")),
    ("structure.small_ball_estimate", ("calls", "self_s")),
    ("stats.wilson_interval", ("calls", "self_s")),
)

COUNTS = ("ensembles.entries", "harness.resample_rounds", "linalg.flops_computed",
          "structure.lcd.grid_points", "cli.bytes_written")

METRIC_UNITS = {
    **{f"{name}.{stat}": {"calls": "count", "self_s": "s", "mean_us": "us", "mean_ms": "ms"}[stat]
       for name, stats in _CALL_METRICS for stat in stats},
    "ensembles.entries": "count",
    "ensembles.entries_per_s": "1/s",
    "linalg.flops_computed": "count",
    "linalg.smallest_singular_value.gflop_s_computed": "GFLOP/s",
    "linalg.orthonormalize.calls_per_audit": "count",
    "harness.self_s": "s",
    "harness.concurrency": "ratio",
    "harness.resample_rounds": "count",
    "harness.useful_draw_ratio": "ratio",
    "structure.lcd.grid_points": "count",
    "structure.lcd.grid_points_per_s": "1/s",
    "structure.small_ball.samples_per_s": "1/s",
    "cli.main.self_s": "s",
    "cli.bytes_written": "count",
    "trace.overhead_ratio": "ratio",
}


def _ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


def layer_metrics(spans: list[Span], trials_per_op: int, ops: int, bytes_written: int,
                  traced_p50: float, untraced_p50: float) -> dict[str, float]:
    """Per-layer metrics from the spans of `ops` traced ops.

    trials_per_op is the number of matrices an op scores (0 when the
    workload draws none), so sample_matrix calls beyond it are resamples.
    """
    self_t = self_times(spans)
    by_name: dict[str, list[Span]] = {}
    for s in spans:
        by_name.setdefault(s.name, []).append(s)

    def calls(name):
        return len(by_name.get(name, ()))

    def self_s(name):
        return sum(self_t[s.id] for s in by_name.get(name, ()))

    def wall(name):
        return sum(s.end - s.start for s in by_name.get(name, ()))

    def work(name):
        return sum(s.work for s in by_name.get(name, ()))

    out: dict[str, float] = {}
    for name, stats in _CALL_METRICS:
        for stat in stats:
            if stat == "calls":
                out[f"{name}.calls"] = calls(name)
            elif stat == "self_s":
                out[f"{name}.self_s"] = self_s(name)
            elif stat == "mean_us":
                out[f"{name}.mean_us"] = _ratio(wall(name), calls(name)) * 1e6
            elif stat == "mean_ms":
                out[f"{name}.mean_ms"] = _ratio(wall(name), calls(name)) * 1e3

    samplers = ("ensembles.sample_matrix", "ensembles.sample_array")
    out["ensembles.entries"] = sum(work(n) for n in samplers)
    out["ensembles.entries_per_s"] = _ratio(out["ensembles.entries"],
                                            sum(wall(n) for n in samplers))

    ssv = "linalg.smallest_singular_value"
    out["linalg.flops_computed"] = work(ssv)
    out[f"{ssv}.gflop_s_computed"] = _ratio(work(ssv), self_s(ssv)) / 1e9
    out["linalg.orthonormalize.calls_per_audit"] = _ratio(calls("linalg.orthonormalize"),
                                                          calls("witness.audit"))

    sweep_ids = {s.id for s in by_name.get("harness.run_tail_sweep", ())}
    child_wall = sum(s.end - s.start for s in spans if s.parent in sweep_ids)
    out["harness.self_s"] = self_s("harness.run_tail_sweep")
    out["harness.concurrency"] = _ratio(child_wall, wall("harness.run_tail_sweep"))
    draws = calls("ensembles.sample_matrix")
    trials = trials_per_op * ops
    out["harness.resample_rounds"] = draws - trials
    out["harness.useful_draw_ratio"] = _ratio(trials, draws)

    out["structure.lcd.grid_points"] = work("structure.lcd_vector")
    out["structure.lcd.grid_points_per_s"] = _ratio(work("structure.lcd_vector"),
                                                    wall("structure.lcd_vector"))
    out["structure.small_ball.samples_per_s"] = _ratio(work("structure.small_ball_estimate"),
                                                       wall("structure.small_ball_estimate"))

    out["cli.main.self_s"] = self_s("cli.main")
    out["cli.bytes_written"] = bytes_written
    out["trace.overhead_ratio"] = _ratio(traced_p50, untraced_p50) - 1.0
    return out
