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
import math
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__
from .ensembles import ENSEMBLES, GAUSSIAN, SeedSpec, get_ensemble, sample_array
from .errors import InvalidQuery, LsvError, SingularMatrix
from .harness import (
    MAX_WORKERS,
    RESAMPLE_STRIDE,
    TailSweepConfig,
    fmt_g10,
    map_trials,
    run_tail_sweep,
    write_tail_csv,
)
from .linalg import orthonormalize
from .structure import (
    DEFAULT_GAMMA,
    DEFAULT_THETA_MAX,
    LcdQuery,
    default_alpha,
    lcd_subspace_sampled,
    lcd_vector,
    small_ball_estimate,
)
from .witness import audit

# bench/layers.py traces this per-matrix name by rebinding it here
from .ensembles import sample_matrix  # noqa: F401


class UsageError(Exception):
    """Bad arguments detected after parsing; maps to exit code 2."""


# ---- argparse value types ------------------------------------------------

def _checked(convert, ok, expected: str):
    """An argparse type: convert(text), accepted only when ok(value) holds."""
    def parse(text: str):
        try:
            value = convert(text)
            if ok(value):
                return value
        except ValueError:
            pass
        raise argparse.ArgumentTypeError(f"expected {expected}, got {text!r}")
    return parse


_uint64 = _checked(int, lambda v: 0 <= v < 1 << 64, "an integer in [0, 2**64)")
_dim = _checked(int, lambda v: v >= 2, "an integer >= 2")
_pos_int = _checked(int, lambda v: v >= 1, "an integer >= 1")
_trials = _checked(int, lambda v: 1 <= v <= RESAMPLE_STRIDE, "an integer in [1, 2**32]")
_workers = _checked(int, lambda v: 1 <= v <= MAX_WORKERS, f"an integer in [1, {MAX_WORKERS}]")
_pos_float = _checked(float, lambda v: math.isfinite(v) and v > 0, "a finite real > 0")
_nonneg_float = _checked(float, lambda v: math.isfinite(v) and v >= 0, "a finite real >= 0")
_gamma01 = _checked(float, lambda v: 0 < v < 1, "a real in the open interval (0, 1)")
_float_list = _checked(lambda text: [float(part) for part in text.split(",") if part != ""],
                       lambda values: bool(values) and all(map(math.isfinite, values)),
                       "one or more comma-separated finite reals")


_ENSEMBLE_NAMES = sorted(ENSEMBLES)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lsvkit",
        allow_abbrev=False,
        description="Seeded experiments on the smallest singular value of random matrices.",
    )
    parser.add_argument("--replay", metavar="MANIFEST",
                        help="re-execute a recorded run from its manifest file")
    sub = parser.add_subparsers(dest="command")

    tail = sub.add_parser("tail", allow_abbrev=False,
                          help="Monte Carlo tail sweep of s_n, CSV output")
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

    wit = sub.add_parser("witness", allow_abbrev=False,
                         help="per-trial witness-system audits, JSON output")
    wit.add_argument("--ensemble", choices=_ENSEMBLE_NAMES, required=True)
    wit.add_argument("--n", type=_dim, required=True)
    wit.add_argument("--trials", type=_trials, required=True)
    wit.add_argument("--seed", type=_uint64, default=0)
    wit.add_argument("--column", type=_pos_int, default=1,
                     help="distinguished column, 1-based (default 1)")
    wit.add_argument("--workers", type=_workers, default=1)
    wit.add_argument("--out", required=True, help="JSON output path")

    lcd = sub.add_parser("lcd", allow_abbrev=False,
                         help="least common denominator search, JSON output")
    mode = lcd.add_mutually_exclusive_group(required=True)
    mode.add_argument("--vector", type=_float_list,
                      help="direction as comma-separated reals (vector mode)")
    mode.add_argument("--subspace-dim", type=_pos_int,
                      help="subspace dimension (sampled subspace mode)")
    lcd.add_argument("--n", type=_dim, help="ambient dimension (subspace mode)")
    lcd.add_argument("--samples", type=_pos_int, default=100,
                     help="sampled directions in subspace mode (default 100)")
    lcd.add_argument("--seed", type=_uint64, default=0)
    lcd.add_argument("--alpha", type=_pos_float, default=None,
                     help="admissibility cap (default sqrt(n)/2)")
    lcd.add_argument("--gamma", type=_gamma01, default=DEFAULT_GAMMA)
    lcd.add_argument("--theta-max", type=_pos_float, default=DEFAULT_THETA_MAX)
    lcd.add_argument("--grid-step", type=_pos_float, default=None)
    lcd.add_argument("--out", required=True, help="JSON output path")

    sb = sub.add_parser("smallball", allow_abbrev=False,
                        help="Monte Carlo concentration estimate, JSON output")
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
    """Round every float inside dicts and lists to 10 significant digits."""
    if isinstance(obj, float):
        return float(fmt_g10(obj))
    if isinstance(obj, dict):
        return {k: _g10(v) for k, v in obj.items()}
    if isinstance(obj, list):
        return [_g10(v) for v in obj]
    return obj


def _write_json(path: Path, doc) -> None:
    text = json.dumps(doc, indent=2, allow_nan=False) + "\n"
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(text)


def _write_data_json(path: Path, doc) -> None:
    _write_json(path, _g10(doc))


# ---- command runners -----------------------------------------------------
# A runner gets the parsed flags as a dict keyed by argparse dest (a
# replayed manifest is parsed as flags too); that dict, as the runner
# leaves it, is the manifest's `parameters`.  It writes no file: it
# returns (exit_code, data, extra manifest fields), and _execute writes
# data to --out (the tail estimates as CSV, any other data as JSON).

def _run_tail(params: dict) -> tuple[int, list, dict]:
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
    if not all(e.in_guarantee_range for e in estimates):
        print("note: upper-tail thresholds below 2 are outside the guaranteed range "
              "(curve-shape only)", file=sys.stderr)
    return 0, estimates, {}


def _run_witness(params: dict) -> tuple[int, list, dict]:
    ens = get_ensemble(params["ensemble"])
    n = params["n"]
    if not 1 <= params["column"] <= n:
        raise UsageError(f"--column must lie in [1, {n}], got {params['column']}")
    column = params["column"] - 1

    def audited(m: np.ndarray):
        try:
            return audit(m, column)
        except SingularMatrix:
            return None

    reports, singular = map_trials(lambda stack: [audited(m) for m in stack], ens, n,
                                   params["trials"], params["seed"], params["workers"])
    violations = sum(len(rep.violations) for rep in reports)
    return (1 if violations else 0, [rep.to_json_dict() for rep in reports],
            {"singular_resamples": singular, "violations_total": violations})


def _run_lcd(params: dict) -> tuple[int, dict, dict]:
    vector_mode = params["vector"] is not None
    # the manifest records only the chosen mode's flags
    for key in ("subspace_dim", "n", "samples", "seed") if vector_mode else ("vector",):
        del params[key]

    if vector_mode:
        vec = np.asarray(params["vector"], dtype=np.float64)
        n = vec.size
        head = {"mode": "vector", "vector": vec.tolist()}
    else:
        n = params["n"]
        dim = params["subspace_dim"]
        if n is None:
            raise UsageError("--subspace-dim requires --n")
        if not 1 <= dim <= n:
            raise UsageError(f"--subspace-dim must lie in [1, {n}], got {dim}")
        seed = params["seed"]
        samples = params["samples"]
        head = {"mode": "subspace", "n": n, "subspace_dim": dim, "samples": samples,
                "master_seed": seed}

    params["mode"] = head["mode"]
    if params["alpha"] is None:
        params["alpha"] = default_alpha(n)
    query = LcdQuery(alpha=params["alpha"], gamma=params["gamma"],
                     theta_max=params["theta_max"], grid_step=params["grid_step"])
    if vector_mode:
        res = lcd_vector(vec, query)
    else:
        # stream 0 builds the subspace, stream 1 drives direction sampling
        basis = orthonormalize(sample_array(GAUSSIAN, (n, dim), SeedSpec(seed, 0)))
        res = lcd_subspace_sampled(basis, query, samples, SeedSpec(seed, 1))
    doc = {
        **head,
        "alpha": query.alpha,
        "gamma": query.gamma,
        "theta_max": query.theta_max,
        "grid_step": query.grid_step,
        "unbounded": res.unbounded,
        "theta_star": res.theta_star,
        "achieved_dist": res.achieved_dist,
        "slack": res.slack,
        "certificate": None if res.certificate is None else res.certificate.tolist(),
    }
    if not vector_mode:
        doc["direction"] = None if res.direction is None else res.direction.tolist()
    return 0, doc, {"grid_points_evaluated": res.grid_points_evaluated}


def _run_smallball(params: dict) -> tuple[int, dict, dict]:
    ens = get_ensemble(params["ensemble"])
    raw = np.asarray(params["weights"], dtype=np.float64)
    norm = float(np.linalg.norm(raw))
    if norm == 0.0:
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
    return 0, doc, {}


_RUNNERS = {
    "tail": _run_tail,
    "witness": _run_witness,
    "lcd": _run_lcd,
    "smallball": _run_smallball,
}


def _cleanup(created: list) -> None:
    for path in created:
        try:
            Path(path).unlink(missing_ok=True)
        except OSError:
            pass


def _execute(command: str, params: dict) -> int:
    out = Path(params["out"])
    created: list = []
    start = time.perf_counter()
    try:
        code, data, extra = _RUNNERS[command](params)
        created.append(out)
        if command == "tail":
            write_tail_csv(data, out)
        else:
            _write_data_json(out, data)
        manifest = {
            "command": command,
            "version": __version__,
            "parameters": params,
            "master_seed": params.get("seed"),
            "duration_seconds": float(fmt_g10(time.perf_counter() - start)),
            "outputs": [str(out)],
            **extra,
        }
        manifest_path = Path(str(params["out"]) + ".manifest.json")
        created.append(manifest_path)
        _write_json(manifest_path, manifest)
    except (UsageError, InvalidQuery) as e:
        _cleanup(created)
        print(f"error: {e}", file=sys.stderr)
        return 2
    except (LsvError, ValueError, OSError, RuntimeError, MemoryError) as e:
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
    params = {k: v for k, v in vars(args).items() if k not in ("replay", "command")}
    return _execute(args.command, params)


def run() -> None:
    raise SystemExit(main())
