"""jacdecomp benchmark: three seeded workloads, end to end and layer by layer.

    python3 perfbench/run.py --workload ladder_cold --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30 --trace 0

Workloads (closed loops with one client; every repetition and every CLI op
runs in a fresh interpreter, one at a time):

* ladder_cold  - all group-level structure of D44, D60, D84 and Z2^5 from
  scratch: conjugacy classes, character table, rational classes, subgroup
  lattice.  An op is one group; a repetition is the whole ladder.
* action_sweep - seeded random generating vectors round-robin over a library
  of ten small groups whose tables and lattices are built during set-up.  An
  op validates, analyzes and profiles one action and checks admissibility and
  Theorem 1 on a seeded collection and a conjugate of it; a repetition is
  SWEEP_OPS ops.
* cli_cold     - a seeded mix of ``python -m jacdecomp`` commands.  An op is
  one command; a repetition (round) runs the whole pool once, seeded order.

A run repeats whole repetitions while the next one is expected to end within
--seconds (at least one), then tops the set-up samples up to SETUP_SAMPLES
with fresh interpreters that only set up.  ladder_cold and cli_cold repeat
the same inputs; action_sweep draws other inputs for each repetition.

Every timing, per-layer self times too, is scaled to a steady machine by the
host-speed reference that each interpreter samples while it works
(hostspeed.py); the stderr table and the record also give the end-to-end
figures unscaled.

End-to-end metrics (--trace 0): setup_s is the median spawn-to-ready time of
those interpreters, wall_s the median repetition time, ops_per_s all ops over
all repetition time, op_p50_ms the median and op_p90_ms the nearest-rank 90th
percentile over the distinct ops of the run, each op's latency the median
over its repetitions, peak_rss_mb the largest child's maximum resident set.
Failed ops (an op that raises or fails its correctness gate) go to "failed" in
the result line.

--trace 1 runs one untraced and one traced repetition of the same inputs and
reports the per-layer metrics of the traced one (see tracer.LAYER_METRICS for
what each should move) plus trace.overhead_s, their difference in wall time.

The last stdout line is the result JSON; a table with sample counts goes to
stderr, and the run's full record (seed, commit, Python version, nproc, every
sample) to perfbench/out/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import climix
import hostspeed
import tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

WORKLOADS = ("ladder_cold", "action_sweep", "cli_cold")
SWEEP_OPS = 200
SETUP_SAMPLES = 7
CHILD_TIMEOUT_S = 170

E2E_UNITS = {"setup_s": "s", "wall_s": "s", "ops_per_s": "1/s",
             "op_p50_ms": "ms", "op_p90_ms": "ms", "peak_rss_mb": "MB"}


class BenchmarkError(Exception):
    """The benchmark itself could not run (as opposed to a failed op)."""


# -- children ------------------------------------------------------------------------


def spawn_worker(spec: dict) -> dict:
    spec = dict(spec, spawned=time.monotonic())
    proc = subprocess.run(
        [sys.executable, str(HERE / "worker.py"), json.dumps(spec)],
        cwd=ROOT, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
    )
    if proc.returncode != 0:
        raise BenchmarkError(f"worker ({spec['mode']}) failed:\n{proc.stderr.strip()}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def cli_op(argv, expected: dict, trace: bool, span_file: str) -> dict:
    """One command in a fresh interpreter, timed from spawn to exit.

    The command samples the host-speed reference while it runs; its latency
    is the time minus that sampling, scaled by those samples.
    """
    start = time.monotonic()
    result = spawn_worker({"mode": "cli", "workload": "cli_cold", "argv": argv,
                           "trace": trace, "spans": span_file})
    end = time.monotonic()
    result["raw_latency_s"] = end - start - result["busy_s"]
    scale = hostspeed.HostScale(result.pop("samples"))
    result["latency_s"] = result["raw_latency_s"] * scale(start, end)
    result["error"] = climix.cli_gate(argv, result["exit"], result["sha256"], expected)
    return result


def repetition(workload: str, seed: int, draw: int, trace: bool, cli_round,
               expected: dict) -> dict:
    """One repetition: a worker for ladder_cold / action_sweep, a round for cli_cold.

    "inputs" names what the repetition ran: action_sweep draws other inputs
    for every repetition; ladder_cold and cli_cold repeat theirs.
    """
    spans = OUT / f"{workload}-seed{seed}"
    if workload != "cli_cold":
        rep = spawn_worker({"mode": "rep", "workload": workload, "seed": seed, "draw": draw,
                            "ops": SWEEP_OPS, "trace": trace, "spans": f"{spans}.spans.json"})
        rep["inputs"] = f"{seed}:{draw}" if workload == "action_sweep" else f"{seed}"
        return rep
    scaled, raw, errors, layers = [], [], [], []
    for i, argv in enumerate(cli_round):
        result = cli_op(argv, expected, trace, f"{spans}-op{i}.spans.json")
        scaled.append(result["latency_s"])
        raw.append(result["raw_latency_s"])
        if result["error"] is not None:
            errors.append(f"op {i}: {result['error']}")
        if trace:
            layers.append(dict(result["layers"], import_s=result["import_s"]))
    rep = {"inputs": f"{seed}", "wall_s": sum(scaled), "raw_wall_s": sum(raw), "errors": errors,
           "latencies_ms": [t * 1000.0 for t in scaled],
           "raw_latencies_ms": [t * 1000.0 for t in raw]}
    if trace:
        rep["layers"] = tracer.merge(layers)
    return rep


def setup_probe(workload: str, seed: int) -> dict:
    """Spawn-to-ready time of a fresh interpreter that only sets up."""
    return spawn_worker({"mode": "setup", "workload": workload, "seed": seed, "draw": 0,
                         "ops": SWEEP_OPS, "trace": False})


# -- statistics ------------------------------------------------------------------------


def nearest_rank(values, q: float) -> float:
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def end_to_end(reps: list[dict], setups: list[dict], prefix: str = "") -> tuple[dict, dict]:
    """End-to-end figures of one run; prefix "raw_" gives them unscaled.

    An op's latency is its median over the repetitions that ran the same
    inputs, so op_p50_ms and op_p90_ms are percentiles over the distinct ops
    of the run: a ladder group, a sweep action or a CLI command of the pool,
    each counted once however often it ran.
    """
    by_op: dict[tuple, list[float]] = {}
    for rep in reps:
        for i, latency in enumerate(rep[prefix + "latencies_ms"]):
            by_op.setdefault((rep["inputs"], i), []).append(latency)
    latencies = [statistics.median(xs) for xs in by_op.values()]
    walls = [rep[prefix + "wall_s"] for rep in reps]
    ops = sum(len(rep["latencies_ms"]) for rep in reps)
    values = {
        "setup_s": statistics.median(s[prefix + "setup_s"] for s in setups),
        "wall_s": statistics.median(walls),
        "ops_per_s": ops / sum(walls),
        "op_p50_ms": statistics.median(latencies),
        "op_p90_ms": nearest_rank(latencies, 0.9),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0,
    }
    samples = {"setup_s": len(setups), "wall_s": len(walls), "ops_per_s": ops,
               "op_p50_ms": len(latencies), "op_p90_ms": len(latencies),
               "peak_rss_mb": len(reps)}
    return values, samples


# -- one run -----------------------------------------------------------------------------


def run(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    expected = climix.load_expected()
    cli_round = climix.cli_round(seed)

    def rep(traced: bool, draw: int = 0) -> dict:
        return repetition(workload, seed, draw, traced, cli_round, expected)

    # the first probe also proves that the program imports from this checkout
    setups = [setup_probe(workload, seed)]
    raw_values = {}
    if trace:
        plain, traced = rep(False), rep(True)
        reps = [plain, traced]
        values = tracer.layer_metrics(traced["layers"])
        values["trace.overhead_s"] = traced["wall_s"] - plain["wall_s"]
        units = {name: unit for name, unit, _, _ in tracer.LAYER_METRICS}
        units["trace.overhead_s"] = "s"
        samples = {name: 1 for name in values}
    else:
        start = time.monotonic()
        reps, durations = [], []
        while not reps or time.monotonic() - start + statistics.median(durations) <= seconds:
            t0 = time.monotonic()
            reps.append(rep(False, len(reps)))
            durations.append(time.monotonic() - t0)
        setups += [r for r in reps if "setup_s" in r]
        while len(setups) < SETUP_SAMPLES:
            setups.append(setup_probe(workload, seed))
        values, samples = end_to_end(reps, setups)
        raw_values = end_to_end(reps, setups, "raw_")[0]
        units = E2E_UNITS
    errors = [e for r in reps for e in r["errors"]]
    attempted = sum(len(r["latencies_ms"]) for r in reps)
    return {
        "result": {
            "correct": not errors,
            "attempted": attempted,
            "failed": len(errors),
            "metrics": {name: {"value": v, "unit": units[name]} for name, v in values.items()},
        },
        "samples": samples,
        "record": {"workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
                   **provenance(), "raw_metrics": raw_values, "errors": errors,
                   "setups": setups, "repetitions": reps},
    }


# -- provenance ----------------------------------------------------------------------------


def git_commit() -> str | None:
    """HEAD of the checkout, read from .git without running git (None if absent)."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def source_digest() -> str:
    """sha256 over src/, which identifies the code measured where git is absent."""
    digest = hashlib.sha256()
    for path in sorted(p for p in SRC.rglob("*") if p.is_file() and "__pycache__" not in p.parts):
        digest.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def provenance() -> dict:
    return {"commit": git_commit(), "src_sha256": source_digest(),
            "python": platform.python_version(), "nproc": os.cpu_count()}


# -- output ------------------------------------------------------------------------------------


def report(workload: str, outcome: dict, stream) -> None:
    result, record = outcome["result"], outcome["record"]
    print(f"{workload}  seed={record['seed']}  commit={record['commit']}  "
          f"src={record['src_sha256'][:12]}  python={record['python']}  "
          f"nproc={record['nproc']}", file=stream)
    raw = record["raw_metrics"]
    for name, metric in result["metrics"].items():
        unscaled = f"  unscaled {raw[name]:.6g}" if name in raw else ""
        print(f"  {name:52s} {metric['value']:>14.6g} {metric['unit']:<6s} "
              f"n={outcome['samples'][name]}{unscaled}", file=stream)
    ratio = result["failed"] / result["attempted"]
    print(f"  {'fail_ratio':52s} {ratio:>14.6g} {'':6s} "
          f"({result['failed']} of {result['attempted']} ops)", file=stream)
    for error in record["errors"][:10]:
        print(f"  FAILED {error}", file=stream)


def run_all(args) -> int:
    """Every workload, each in its own parent process so that peak_rss_mb (the
    largest child of that process) belongs to that workload alone."""
    results = {}
    for workload in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True,
        )
        if proc.returncode != 0:
            return proc.returncode
        results[workload] = json.loads(proc.stdout.strip().splitlines()[-1])
    print(json.dumps(results))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)

    OUT.mkdir(exist_ok=True)
    try:
        outcome = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except (BenchmarkError, OSError, subprocess.TimeoutExpired, KeyError, ValueError) as exc:
        print(f"benchmark could not run {args.workload}: {exc}", file=sys.stderr)
        return 1
    record_path = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    record_path.write_text(json.dumps(dict(outcome["record"], result=outcome["result"],
                                           samples=outcome["samples"])) + "\n")
    report(args.workload, outcome, sys.stderr)
    print(json.dumps(outcome["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
