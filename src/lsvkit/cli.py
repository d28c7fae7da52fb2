"""Command-line frontend: reproducible experiment runs with manifests.

Commands: tail (CSV sweep of s_n tail frequencies), witness (JSON array
of per-trial consistency reports), lcd (JSON least-common-denominator
search result), smallball (JSON concentration estimate).

Every run writes its data file plus `<out>.manifest.json` recording the
resolved parameters; `lsvkit --replay <manifest>` re-executes them and
must reproduce the data file byte for byte.  Exit codes: 0 success,
1 runtime failure (partial data removed), 2 usage error.  The witness
command also exits 1 when any audited invariant was violated; in that
case the report file is kept so the violations can be inspected.

Column indices on the CLI are 1-based (--column 1 is the first column);
the Python API underneath is 0-based.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__
from .ensembles import ENSEMBLES, GAUSSIAN, SeedSpec, get_ensemble, sample_array, sample_matrix
from .errors import InvalidQuery, LsvError, SingularMatrix
from .harness import (
    MAX_WORKERS,
    RESAMPLE_STRIDE,
    TailSweepConfig,
    map_trials,
    run_tail_sweep,
    write_tail_csv,
)
from .linalg import orthonormalize
from .structure import LcdQuery, default_alpha, lcd_subspace_sampled, lcd_vector, small_ball_estimate
from .witness import audit


class UsageError(Exception):
    """Bad arguments detected after parsing; maps to exit code 2."""


# ---- argparse value types ------------------------------------------------

def _uint64(text: str) -> int:
    v = int(text)
    if not 0 <= v < 1 << 64:
        raise argparse.ArgumentTypeError("seed must be in [0, 2**64)")
    return v


def _dim(text: str) -> int:
    v = int(text)
    if v < 2:
        raise argparse.ArgumentTypeError("dimension must be >= 2")
    return v


def _pos_int(text: str) -> int:
    v = int(text)
    if v < 1:
        raise argparse.ArgumentTypeError("must be a positive integer")
    return v


def _trials(text: str) -> int:
    v = _pos_int(text)
    if v > RESAMPLE_STRIDE:
        raise argparse.ArgumentTypeError("must not exceed 2**32 (resample stream layout)")
    return v


def _workers(text: str) -> int:
    v = _pos_int(text)
    if v > MAX_WORKERS:
        raise argparse.ArgumentTypeError(f"must not exceed {MAX_WORKERS}")
    return v


def _finite_float(text: str) -> float:
    v = float(text)
    if not np.isfinite(v):
        raise argparse.ArgumentTypeError("must be a finite real")
    return v


def _pos_float(text: str) -> float:
    v = _finite_float(text)
    if not v > 0:
        raise argparse.ArgumentTypeError("must be a positive real")
    return v


def _nonneg_float(text: str) -> float:
    v = _finite_float(text)
    if not v >= 0:
        raise argparse.ArgumentTypeError("must be a nonnegative real")
    return v


def _gamma01(text: str) -> float:
    v = float(text)
    if not 0.0 < v < 1.0:
        raise argparse.ArgumentTypeError("gamma must lie in the open interval (0,1)")
    return v


def _float_list(text: str) -> list[float]:
    try:
        values = [float(part) for part in text.split(",") if part != ""]
    except ValueError:
        raise argparse.ArgumentTypeError("expected comma-separated reals") from None
    if not all(np.isfinite(v) for v in values):
        raise argparse.ArgumentTypeError("expected finite reals")
    return values


_ENSEMBLE_NAMES = sorted(ENSEMBLES)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lsvkit",
        description="Seeded experiments on the smallest singular value of random matrices.",
    )
    parser.add_argument("--replay", metavar="MANIFEST",
                        help="re-execute a recorded run from its manifest file")
    sub = parser.add_subparsers(dest="command")

    tail = sub.add_parser("tail", help="Monte Carlo tail sweep of s_n, CSV output")
    tail.add_argument("--ensemble", choices=_ENSEMBLE_NAMES, required=True)
    tail.add_argument("--n", dest="n_values", metavar="N", type=_dim, action="append",
                      required=True, help="matrix dimension, repeatable")
    tail.add_argument("--k", dest="k_values", metavar="K", type=_nonneg_float, action="append",
                      required=True, help="threshold K (upper) or eps (lower), repeatable")
    tail.add_argument("--trials", type=_trials, required=True)
    tail.add_argument("--seed", type=_uint64, default=0)
    tail.add_argument("--direction", choices=("upper", "lower"), default="upper")
    tail.add_argument("--workers", type=_workers, default=1)
    tail.add_argument("--out", required=True, help="CSV output path")

    wit = sub.add_parser("witness", help="per-trial witness-system audits, JSON output")
    wit.add_argument("--ensemble", choices=_ENSEMBLE_NAMES, required=True)
    wit.add_argument("--n", type=_dim, required=True)
    wit.add_argument("--trials", type=_trials, required=True)
    wit.add_argument("--seed", type=_uint64, default=0)
    wit.add_argument("--column", type=_pos_int, default=1,
                     help="distinguished column, 1-based (default 1)")
    wit.add_argument("--workers", type=_workers, default=1)
    wit.add_argument("--out", required=True, help="JSON output path")

    lcd = sub.add_parser("lcd", help="least common denominator search, JSON output")
    lcd.add_argument("--vector", type=_float_list,
                     help="direction as comma-separated reals (vector mode)")
    lcd.add_argument("--subspace-dim", type=_pos_int,
                     help="subspace dimension (sampled subspace mode)")
    lcd.add_argument("--n", type=_dim, help="ambient dimension (subspace mode)")
    lcd.add_argument("--samples", type=_pos_int, default=100,
                     help="sampled directions in subspace mode (default 100)")
    lcd.add_argument("--seed", type=_uint64, default=0)
    lcd.add_argument("--alpha", type=_pos_float, default=None,
                     help="admissibility cap (default sqrt(n)/2)")
    lcd.add_argument("--gamma", type=_gamma01, default=0.5)
    lcd.add_argument("--theta-max", type=_pos_float, default=1e4)
    lcd.add_argument("--grid-step", type=_pos_float, default=None)
    lcd.add_argument("--out", required=True, help="JSON output path")

    sb = sub.add_parser("smallball", help="Monte Carlo concentration estimate, JSON output")
    sb.add_argument("--weights", type=_float_list, required=True,
                    help="weight vector, comma-separated, normalized automatically")
    sb.add_argument("--ensemble", choices=_ENSEMBLE_NAMES, required=True)
    sb.add_argument("--epsilon", type=_pos_float, required=True)
    sb.add_argument("--trials", type=_pos_int, required=True)
    sb.add_argument("--seed", type=_uint64, default=0)
    sb.add_argument("--out", required=True, help="JSON output path")

    return parser


# ---- serialization helpers ----------------------------------------------

def _g10(obj):
    """Round every float to 10 significant digits, recursively."""
    if isinstance(obj, bool):
        return obj
    if isinstance(obj, (float, np.floating)):
        return float(format(float(obj), ".10g"))
    if isinstance(obj, np.integer):
        return int(obj)
    if isinstance(obj, dict):
        return {k: _g10(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_g10(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [_g10(v) for v in obj.tolist()]
    return obj


def _write_json(path: Path, doc) -> None:
    text = json.dumps(doc, indent=2, allow_nan=False) + "\n"
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(text)


def _write_data_json(path: Path, doc) -> None:
    _write_json(path, _g10(doc))


# ---- command runners -----------------------------------------------------
# A runner gets the parameter dict built from parsed flags (a replayed
# manifest is parsed as flags too), appends every path it creates to
# `created` so failures can be cleaned up, and returns (exit_code, extra
# manifest fields).

def _run_tail(params: dict, created: list) -> tuple[int, dict]:
    cfg = TailSweepConfig(
        ensemble=get_ensemble(params["ensemble"]),
        n_values=tuple(params["n_values"]),
        k_values=tuple(params["k_values"]),
        trials=params["trials"],
        master_seed=params["seed"],
        direction=params["direction"],
        workers=params["workers"],
    )
    estimates = run_tail_sweep(cfg)
    out = Path(params["out"])
    created.append(out)
    write_tail_csv(estimates, out)
    if cfg.direction == "upper" and any(k < 2.0 for k in cfg.k_values):
        print("note: upper-tail thresholds below 2 are outside the guaranteed range "
              "(curve-shape only)", file=sys.stderr)
    return 0, {}


def _run_witness(params: dict, created: list) -> tuple[int, dict]:
    ens = get_ensemble(params["ensemble"])
    n = params["n"]
    if not 1 <= params["column"] <= n:
        raise UsageError(f"--column must lie in [1, {n}], got {params['column']}")
    column = params["column"] - 1

    def compute(sd: SeedSpec):
        m = sample_matrix(ens, n, sd)
        try:
            return audit(m, column)
        except SingularMatrix:
            return None

    reports, singular = map_trials(compute, params["trials"], params["seed"], params["workers"])
    out = Path(params["out"])
    created.append(out)
    _write_data_json(out, [rep.to_json_dict() for rep in reports])
    violations = sum(len(rep.violations) for rep in reports)
    code = 1 if violations else 0
    return code, {"singular_resamples": singular, "violations_total": violations}


def _run_lcd(params: dict, created: list) -> tuple[int, dict]:
    gamma = params["gamma"]
    theta_max = params["theta_max"]
    grid_step = params["grid_step"]

    if params["mode"] == "vector":
        vec = np.asarray(params["vector"], dtype=np.float64)
        if vec.size == 0:
            raise UsageError("--vector must be a nonzero vector")
        alpha = params["alpha"]
        alpha = default_alpha(vec.size) if alpha is None else alpha
        params["alpha"] = alpha
        query = LcdQuery(alpha=alpha, gamma=gamma, theta_max=theta_max, grid_step=grid_step)
        res = lcd_vector(vec, query)
        doc = {
            "mode": "vector",
            "vector": vec.tolist(),
            "alpha": alpha,
            "gamma": gamma,
            "theta_max": theta_max,
            "grid_step": grid_step,
            "unbounded": res.unbounded,
            "theta_star": res.theta_star,
            "achieved_dist": res.achieved_dist,
            "slack": res.slack,
            "certificate": None if res.certificate is None else res.certificate.tolist(),
        }
    else:
        n = params["n"]
        dim = params["subspace_dim"]
        if not 1 <= dim <= n:
            raise UsageError(f"--subspace-dim must lie in [1, {n}], got {dim}")
        seed = params["seed"]
        samples = params["samples"]
        alpha = params["alpha"]
        alpha = default_alpha(n) if alpha is None else alpha
        params["alpha"] = alpha
        query = LcdQuery(alpha=alpha, gamma=gamma, theta_max=theta_max, grid_step=grid_step)
        # stream 0 builds the subspace, stream 1 drives direction sampling
        cols = sample_array(GAUSSIAN, (n, dim), SeedSpec(seed, 0))
        basis = orthonormalize(cols)
        res = lcd_subspace_sampled(basis, query, samples, SeedSpec(seed, 1))
        doc = {
            "mode": "subspace",
            "n": n,
            "subspace_dim": dim,
            "samples": samples,
            "master_seed": seed,
            "alpha": alpha,
            "gamma": gamma,
            "theta_max": theta_max,
            "grid_step": grid_step,
            "unbounded": res.unbounded,
            "theta_star": res.theta_star,
            "achieved_dist": res.achieved_dist,
            "slack": res.slack,
            "certificate": None if res.certificate is None else res.certificate.tolist(),
            "direction": None if res.direction is None else res.direction.tolist(),
        }

    out = Path(params["out"])
    created.append(out)
    _write_data_json(out, doc)
    return 0, {}


def _run_smallball(params: dict, created: list) -> tuple[int, dict]:
    ens = get_ensemble(params["ensemble"])
    raw = np.asarray(params["weights"], dtype=np.float64)
    norm = float(np.linalg.norm(raw))
    if raw.size == 0 or norm == 0.0:
        raise UsageError("--weights must be a nonzero vector")
    weights = raw / norm
    seed = params["seed"]
    est = small_ball_estimate(weights, ens, params["epsilon"], params["trials"],
                              SeedSpec(seed, 0))
    doc = {
        "weights": weights.tolist(),
        "ensemble": ens.kind,
        "epsilon": est.epsilon,
        "trials": est.trials,
        "master_seed": seed,
        "hits": est.hits,
        "p_hat": est.p_hat,
        "ci_low": est.ci_low,
        "ci_high": est.ci_high,
    }
    out = Path(params["out"])
    created.append(out)
    _write_data_json(out, doc)
    return 0, {}


_RUNNERS = {
    "tail": _run_tail,
    "witness": _run_witness,
    "lcd": _run_lcd,
    "smallball": _run_smallball,
}


# ---- parameter assembly from parsed flags ---------------------------------

def _params_tail(args) -> dict:
    return {
        "ensemble": args.ensemble, "n_values": args.n_values, "k_values": args.k_values,
        "trials": args.trials, "seed": args.seed, "direction": args.direction,
        "workers": args.workers, "out": args.out,
    }


def _params_witness(args) -> dict:
    return {
        "ensemble": args.ensemble, "n": args.n, "trials": args.trials, "seed": args.seed,
        "column": args.column, "workers": args.workers, "out": args.out,
    }


def _params_lcd(args) -> dict:
    vector_mode = args.vector is not None
    subspace_mode = args.subspace_dim is not None
    if vector_mode == subspace_mode:
        raise UsageError("exactly one of --vector and --subspace-dim is required")
    common = {
        "alpha": args.alpha, "gamma": args.gamma, "theta_max": args.theta_max,
        "grid_step": args.grid_step, "out": args.out,
    }
    if vector_mode:
        return {"mode": "vector", "vector": args.vector, **common}
    if args.n is None:
        raise UsageError("--subspace-dim requires --n")
    return {"mode": "subspace", "n": args.n, "subspace_dim": args.subspace_dim,
            "samples": args.samples, "seed": args.seed, **common}


def _params_smallball(args) -> dict:
    return {
        "weights": args.weights, "ensemble": args.ensemble, "epsilon": args.epsilon,
        "trials": args.trials, "seed": args.seed, "out": args.out,
    }


_PARAM_BUILDERS = {
    "tail": _params_tail,
    "witness": _params_witness,
    "lcd": _params_lcd,
    "smallball": _params_smallball,
}


def _cleanup(created: list) -> None:
    for path in created:
        try:
            Path(path).unlink(missing_ok=True)
        except OSError:
            pass


def _execute(command: str, params: dict) -> int:
    runner = _RUNNERS[command]
    created: list = []
    start = time.perf_counter()
    try:
        code, extra = runner(params, created)
        manifest = {
            "command": command,
            "version": __version__,
            "parameters": params,
            "master_seed": params.get("seed"),
            "duration_seconds": float(format(time.perf_counter() - start, ".10g")),
            "outputs": [str(p) for p in created],
            **extra,
        }
        manifest_path = Path(str(params["out"]) + ".manifest.json")
        created.append(manifest_path)
        _write_json(manifest_path, manifest)
    except (UsageError, InvalidQuery) as e:
        _cleanup(created)
        print(f"error: {e}", file=sys.stderr)
        return 2
    except (LsvError, ValueError, OSError, RuntimeError) as e:
        _cleanup(created)
        print(f"error: {e}", file=sys.stderr)
        return 1
    return code


# manifest parameters whose flag repeats once per list element
_REPEATED_FLAGS = {"n_values": "--n", "k_values": "--k"}


def _replay_argv(command: str, params: dict) -> list[str]:
    """The command line a manifest's parameters were built from.

    Floats print with repr, which parses back to the same double, so a
    replay sees exactly the recorded values.
    """
    argv = [command]
    for key, value in params.items():
        if value is None or key == "mode":
            continue  # None is an unset default; the lcd mode follows from the flags
        if key in _REPEATED_FLAGS and isinstance(value, list):
            argv += [f"{_REPEATED_FLAGS[key]}={v}" for v in value]
            continue
        if key in ("vector", "weights") and isinstance(value, list):
            value = ",".join(str(v) for v in value)
        argv.append(f"--{key.replace('_', '-')}={value}")
    return argv


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.replay is not None:
        if args.command is not None:
            parser.error("--replay cannot be combined with a command")
        try:
            manifest = json.loads(Path(args.replay).read_text(encoding="utf-8"))
        except (OSError, ValueError) as e:
            print(f"error: cannot read manifest: {e}", file=sys.stderr)
            return 2
        if not isinstance(manifest, dict):
            manifest = {}
        command = manifest.get("command")
        params = manifest.get("parameters")
        if not isinstance(command, str) or command not in _RUNNERS or not isinstance(params, dict):
            print("error: manifest is missing a valid command/parameters block", file=sys.stderr)
            return 2
        # parsed like a command line, so a replay is validated like one
        args = parser.parse_args(_replay_argv(command, params))
    if args.command is None:
        parser.print_usage(sys.stderr)
        return 2
    try:
        params = _PARAM_BUILDERS[args.command](args)
    except UsageError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    return _execute(args.command, params)


def run() -> None:
    raise SystemExit(main())
