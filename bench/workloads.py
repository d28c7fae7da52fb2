"""The benchmark's four workloads: what one op runs and how its output is checked.

An op is one or two in-process `lsvkit.cli.main(argv)` calls.  Op i of a
run with workload seed s passes `--seed op_seed(s, i)` to every call, so
the inputs are a pure function of (s, i).  Every op's data files are
checked: at DEFAULT_SEED against the sha256 digests in golden.json, and
at every seed against invariants recomputed here from the bytes alone.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math
from dataclasses import dataclass
from pathlib import Path

DEFAULT_SEED = 0
GOLDEN_PATH = Path(__file__).with_name("golden.json")

# Same as the machine's core count on the reference box; pinned so the
# inputs, not the host, decide the work partition.
WORKERS = 2


def op_seed(seed: int, index: int) -> int:
    return seed * 1_000_000 + index


@dataclass(frozen=True)
class Call:
    command: str
    params: dict  # flag name (without --) -> value, or list of values for repeated flags
    out: str      # data file name inside the op's directory

    def argv(self, seed: int, out_dir: Path) -> list[str]:
        argv = [self.command]
        for flag, value in self.params.items():
            for v in value if isinstance(value, list) else [value]:
                argv += [f"--{flag}", str(v)]
        return argv + ["--seed", str(seed), "--out", str(out_dir / self.out)]


@dataclass(frozen=True)
class Workload:
    name: str
    calls: tuple[Call, ...]
    # shrunken params for the untimed warm-up op that ends set-up
    warmup: dict

    @property
    def has_workers(self) -> bool:
        return all("workers" in c.params for c in self.calls)

    def warmup_calls(self) -> tuple[Call, ...]:
        return tuple(Call(c.command, {**c.params, **self.warmup.get(c.command, {})}, c.out)
                     for c in self.calls)

    def single_worker_calls(self) -> tuple[Call, ...]:
        return tuple(Call(c.command, {**c.params, "workers": 1}, c.out) for c in self.calls)


def _tail(ensemble: str, n: int, ks: list, direction: str, trials: int) -> Call:
    return Call("tail", {"ensemble": ensemble, "n": n, "k": ks, "direction": direction,
                         "trials": trials, "workers": WORKERS}, "tail.csv")


WORKLOADS = {w.name: w for w in (
    # Why each workload was chosen is recorded in BENCHMARK.json.  tail-large
    # is left out of it: with two workers over a two-thread BLAS on two cores
    # one op's time varies by a factor of ten (IQR/median of single op times
    # about 1, five times tail-small's), so in one interleaved set of 25-s
    # runs its op_s.p75 spread 0.28 between runs against 0.07-0.20 for the
    # other three; a fourth workload would also force shorter runs on all.
    # Run it by name to see the oversubscription.
    Workload(
        "tail-large",
        (_tail("gaussian", 200, [0.5, 2, 4], "upper", 16),),
        {"tail": {"trials": 2}},
    ),
    Workload(
        "tail-small",
        (_tail("rademacher", 16, [0.05, 0.1, 0.5], "lower", 2000),),
        {"tail": {"trials": 20}},
    ),
    Workload(
        "witness",
        (Call("witness", {"ensemble": "rademacher", "n": 60, "trials": 16,
                          "workers": WORKERS}, "witness.json"),),
        {"witness": {"trials": 2}},
    ),
    Workload(
        "structure",
        (Call("lcd", {"subspace-dim": 18, "n": 20, "gamma": 0.05, "alpha": 0.5,
                      "theta-max": 1000, "samples": 6}, "lcd.json"),
         Call("smallball", {"weights": ",".join(["1"] * 20), "ensemble": "gaussian",
                            "epsilon": 0.1, "trials": 150_000}, "smallball.json")),
        {"lcd": {"samples": 1}, "smallball": {"trials": 1000}},
    ),
)}


# ---- output checks ---------------------------------------------------------

class CheckFailed(Exception):
    pass


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise CheckFailed(message)


def _g10(x: float) -> str:
    return format(float(x), ".10g")


def check_tail(data: bytes, call: Call, seed: int) -> None:
    p = call.params
    rows = list(csv.DictReader(io.StringIO(data.decode("utf-8"))))
    ks = sorted(float(k) for k in p["k"])
    _require(len(rows) == len(ks), f"expected {len(ks)} rows, got {len(rows)}")
    counts = []
    for row, k in zip(rows, ks):
        _require(float(row["K"]) == k and int(row["n"]) == p["n"], f"row order/keys: {row}")
        _require(row["direction"] == p["direction"] and row["ensemble"] == p["ensemble"],
                 f"row labels: {row}")
        _require(int(row["trials"]) == p["trials"] and int(row["master_seed"]) == seed,
                 f"row trials/seed: {row}")
        count = int(row["exceed_count"])
        _require(0 <= count <= p["trials"], f"count out of range: {row}")
        _require(row["p_hat"] == _g10(count / p["trials"]), f"p_hat != count/trials: {row}")
        _require(float(row["ci_low"]) <= float(row["p_hat"]) <= float(row["ci_high"]),
                 f"CI excludes p_hat: {row}")
        counts.append(count)
    _require(len({r["singular_count"] for r in rows}) == 1, "singular_count differs across K")
    # upper counts fall as K grows, lower counts rise
    pairs = list(zip(counts, counts[1:]))
    if p["direction"] == "upper":
        _require(all(a >= b for a, b in pairs), f"upper counts not monotone: {counts}")
    else:
        _require(all(a <= b for a, b in pairs), f"lower counts not monotone: {counts}")


def check_witness(data: bytes, call: Call, seed: int) -> None:
    reports = json.loads(data)
    _require(len(reports) == call.params["trials"], f"expected {call.params['trials']} reports")
    for i, rep in enumerate(reports):
        _require(rep["ok"] is True and rep["violations"] == [], f"report {i} not ok")
        _require(rep["n"] == call.params["n"], f"report {i} has n={rep['n']}")


def check_lcd(data: bytes, call: Call, seed: int) -> None:
    doc = json.loads(data)
    p = call.params
    _require(doc["mode"] == "subspace" and doc["n"] == p["n"] and doc["master_seed"] == seed,
             "lcd header fields")
    if doc["unbounded"]:
        _require(doc["theta_star"] is None and doc["certificate"] is None
                 and doc["direction"] is None, "unbounded result carries a certificate")
        return
    # Recompute admissibility from the rounded output: the direction has
    # 10 significant digits, so distances carry an error of about
    # theta * sqrt(n) * 1e-10, far below the 1e-6 allowance.
    theta = doc["theta_star"]
    d = [float(v) for v in doc["direction"]]
    norm = math.sqrt(sum(v * v for v in d))
    _require(abs(norm - 1.0) < 1e-8, f"direction norm {norm}")
    pts = [theta * v for v in d]
    cert = doc["certificate"]
    _require(cert == [int(math.floor(abs(x) + 0.5)) * (1 if x >= 0 else -1) for x in pts],
             "certificate is not the nearest lattice point")
    dist = math.sqrt(sum((x - c) ** 2 for x, c in zip(pts, cert)))
    allowed = min(p["gamma"] * theta * norm, p["alpha"])
    _require(dist <= allowed + 1e-6, f"certificate not admissible: {dist} > {allowed}")
    _require(abs(dist - doc["achieved_dist"]) <= 1e-6, "achieved_dist disagrees")
    _require(theta <= p["theta-max"] and doc["slack"] >= 0, "theta_star/slack out of range")


def check_smallball(data: bytes, call: Call, seed: int) -> None:
    doc = json.loads(data)
    trials = call.params["trials"]
    _require(doc["trials"] == trials and doc["master_seed"] == seed, "smallball header fields")
    _require(0 <= doc["hits"] <= trials, "hits out of range")
    _require(doc["p_hat"] == float(_g10(doc["hits"] / trials)), "p_hat != hits/trials")
    _require(doc["ci_low"] <= doc["p_hat"] <= doc["ci_high"], "CI excludes p_hat")


CHECKS = {"tail": check_tail, "witness": check_witness, "lcd": check_lcd,
          "smallball": check_smallball}


def digest(blobs: list[bytes]) -> str:
    h = hashlib.sha256()
    for b in blobs:
        h.update(hashlib.sha256(b).digest())
    return h.hexdigest()


def load_golden() -> dict:
    doc = json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))
    if doc["seed"] != DEFAULT_SEED:
        raise ValueError("golden.json was generated at another seed")
    return doc["ops"]


def check_op(workload: Workload, blobs: list[bytes], seed: int, index: int,
             golden: dict | None) -> None:
    """Raise CheckFailed unless op `index` of a run at `seed` produced `blobs`.

    golden is consulted only at DEFAULT_SEED and only for ops it covers;
    every other op gets the invariant checks alone.
    """
    s = op_seed(seed, index)
    for blob, call in zip(blobs, workload.calls, strict=True):
        try:
            CHECKS[call.command](blob, call, s)
        except (ValueError, KeyError, TypeError) as e:
            raise CheckFailed(f"{call.command} output unreadable: {e!r}") from None
    if seed == DEFAULT_SEED and golden is not None:
        stored = golden[workload.name]
        if index < len(stored) and digest(blobs) != stored[index]:
            raise CheckFailed(f"op {index}: output differs from the stored digest")
