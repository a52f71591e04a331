"""Alternating parent/change benchmark pairs, summarised into BENCH_<pr>.json.

    python3 tools/bench_pairs.py run --pr 36 --parent ../parent --change . \\
        --workloads ladder_cold --seeds 1 2 --out BENCH_36.json
    python3 tools/bench_pairs.py check BENCH_*.json

``run`` runs ``perfbench/run.py`` in each checkout for PAIRS pairs at a time,
each run as long as BENCHMARK.json's ``run_seconds``, the parent first in
even pairs and the change first in odd ones, for each workload and seed in
turn.  Each run's result line (the last line ``run.py``
prints) and the unscaled metrics and provenance of the record it writes to
``perfbench/out/`` are kept in the file, so the summary can be recomputed
from it.  Per workload, seed and end-to-end metric the summary gives the
parent's and the change's median and quartiles (inclusive method) and the
pairs the change wins and loses (ties count for neither), in the direction
``BENCHMARK.json`` declares, and each side's median host scale.

``check`` parses each file and exits 1 when a series has fewer than PAIRS
pairs, a command other than ``run``'s at the current ``run_seconds``, or a
summary that differs from the one recomputed from its runs in the directions
the summary itself records.  The script needs only the standard library.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
PAIRS = 10  # alternating pairs per workload and seed


def directions() -> dict[str, str]:
    """Each end-to-end metric's better direction, "lower" or "higher"."""
    return {metric["name"]: metric["better"] for metric in SPEC["end_to_end"]}


def command(workload: str, seed: int) -> list[str]:
    return ["perfbench/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", str(SPEC["run_seconds"]), "--trace", "0"]


def one_run(checkout: Path, workload: str, seed: int) -> dict:
    """One run of the benchmark in the checkout: its result line, and the
    provenance and unscaled metrics from the record it wrote."""
    proc = subprocess.run([sys.executable, *command(workload, seed)], cwd=checkout,
                          stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True, check=True)
    record = json.loads((checkout / "perfbench" / "out" / f"{workload}-seed{seed}-trace0.json").read_text())
    return {
        "result": json.loads(proc.stdout.strip().splitlines()[-1]),
        "unscaled": record["raw_metrics"],
        "provenance": {key: record[key] for key in ("commit", "src_sha256", "python", "nproc")},
    }


def quartiles(values: list[float]) -> dict[str, float]:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"q1": q1, "median": median, "q3": q3}


def summarize(pairs: list[dict], better: dict[str, str]) -> dict:
    """Per metric: both sides' quartiles, the change's wins and losses over the
    pairs, and the change in the median in percent of the parent's.  Under
    "host_scale", each side's median of scaled over unscaled wall_s: the
    factor by which run.py's host-speed reference scaled its timings."""
    summary = {"host_scale": {
        side: statistics.median(
            pair[side]["result"]["metrics"]["wall_s"]["value"] / pair[side]["unscaled"]["wall_s"]
            for pair in pairs
        )
        for side in ("parent", "change")
    }}
    for name, direction in better.items():
        parent = [pair["parent"]["result"]["metrics"][name]["value"] for pair in pairs]
        change = [pair["change"]["result"]["metrics"][name]["value"] for pair in pairs]
        sign = 1 if direction == "lower" else -1
        a, b = quartiles(parent), quartiles(change)
        summary[name] = {
            "better": direction,
            "parent": a,
            "change": b,
            "wins": sum(sign * (p - c) > 0 for p, c in zip(parent, change)),
            "losses": sum(sign * (p - c) < 0 for p, c in zip(parent, change)),
            "pairs": len(pairs),
            "median_change_pct": 100 * (b["median"] - a["median"]) / a["median"],
            "beyond_parent_iqr": sign * (a["median"] - b["median"]) > a["q3"] - a["q1"],
        }
    return summary


def run(args) -> int:
    better = directions()
    series = []
    for workload in args.workloads:
        for seed in args.seeds:
            pairs = []
            for i in range(PAIRS):
                sides = ("parent", "change") if i % 2 == 0 else ("change", "parent")
                pair = {"first": sides[0]}
                for side in sides:
                    checkout = Path(args.parent if side == "parent" else args.change)
                    pair[side] = one_run(checkout, workload, seed)
                pairs.append(pair)
                print(f"{workload} seed {seed} pair {i + 1}/{PAIRS} done", file=sys.stderr)
            series.append({
                "workload": workload,
                "seed": seed,
                "command": "python3 " + " ".join(command(workload, seed)),
                "pairs": pairs,
                "summary": summarize(pairs, better),
            })
    document = {"pr": args.pr, "note": args.note, "series": series}
    Path(args.out).write_text(json.dumps(document, indent=1) + "\n")
    return 0


def check(args) -> int:
    status = 0
    for path in args.files:
        try:
            document = json.loads(Path(path).read_text())
            for series in document["series"]:
                name = f"{series['workload']} seed {series['seed']}"
                if len(series["pairs"]) < PAIRS:
                    raise ValueError(f"{name}: {len(series['pairs'])} pairs, fewer than {PAIRS}")
                if series["command"] != "python3 " + " ".join(command(series["workload"], series["seed"])):
                    raise ValueError(f"{name}: command {series['command']!r} is not the benchmark's")
                # the directions the file was written with, so a later BENCHMARK.json
                # that adds or drops a metric leaves committed files valid
                summary = series["summary"]
                better = {metric: summary[metric]["better"] for metric in summary if metric != "host_scale"}
                if summarize(series["pairs"], better) != summary:
                    raise ValueError(f"{name}: summary does not match its runs")
        except (OSError, ValueError, KeyError, TypeError) as exc:
            print(f"{path}: {exc!r}", file=sys.stderr)
            status = 1
        else:
            print(f"{path}: {len(document['series'])} series parse and match their runs")
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="action", required=True)
    p_run = sub.add_parser("run", help="run alternating pairs and write BENCH_<pr>.json")
    p_run.add_argument("--pr", type=int, required=True)
    p_run.add_argument("--parent", required=True, help="checkout of the parent commit")
    p_run.add_argument("--change", required=True, help="checkout of the change")
    p_run.add_argument("--workloads", nargs="+", required=True)
    p_run.add_argument("--seeds", type=int, nargs="+", required=True)
    p_run.add_argument("--note", default="", help="what the change claims, in one line")
    p_run.add_argument("--out", required=True)
    p_check = sub.add_parser("check", help="parse files and recompute their summaries")
    p_check.add_argument("files", nargs="+")
    args = parser.parse_args(argv)
    return run(args) if args.action == "run" else check(args)


if __name__ == "__main__":
    raise SystemExit(main())
