"""tools/bench_pairs.py: committed BENCH_<pr>.json files match their own runs."""

from __future__ import annotations

import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
spec = importlib.util.spec_from_file_location("bench_pairs", ROOT / "tools" / "bench_pairs.py")
bench_pairs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_pairs)

BENCH_FILES = sorted(ROOT.glob("BENCH_*.json"))


def test_at_least_one_bench_file_is_committed():
    assert BENCH_FILES


@pytest.mark.parametrize("path", BENCH_FILES, ids=lambda p: p.name)
def test_a_committed_bench_file_matches_its_runs(path):
    assert bench_pairs.main(["check", str(path)]) == 0


def _result(value: float) -> dict:
    metrics = {name: {"value": value} for name in bench_pairs.directions()}
    return {"result": {"metrics": metrics}, "unscaled": {"wall_s": value / 2}}


def _document(pairs, better) -> dict:
    command = "python3 " + " ".join(bench_pairs.command("ladder_cold", 1))
    series = {"workload": "ladder_cold", "seed": 1, "command": command, "pairs": pairs,
              "summary": bench_pairs.summarize(pairs, better)}
    return {"pr": 0, "note": "", "series": [series]}


def _check(tmp_path, document) -> int:
    path = tmp_path / "BENCH_0.json"
    path.write_text(json.dumps(document))
    return bench_pairs.main(["check", str(path)])


def test_the_summary_counts_wins_in_each_metric_direction_and_check_catches_an_edit(tmp_path):
    """Ten pairs where the change reads 1.0 and the parent 2.0 in seven, 1.0 in
    three: seven wins for a lower-is-better metric, seven losses for a
    higher-is-better one."""
    pairs = [{"first": "parent", "parent": _result(p), "change": _result(1.0)} for p in [2.0] * 7 + [1.0] * 3]
    document = _document(pairs, bench_pairs.directions())
    summary = document["series"][0]["summary"]
    assert (summary["wall_s"]["wins"], summary["wall_s"]["losses"]) == (7, 0)
    assert (summary["ops_per_s"]["wins"], summary["ops_per_s"]["losses"]) == (0, 7)
    assert summary["wall_s"]["parent"] == {"q1": 1.25, "median": 2.0, "q3": 2.0}
    assert summary["host_scale"] == {"parent": 2.0, "change": 2.0}
    assert _check(tmp_path, document) == 0
    summary["wall_s"]["wins"] = 9
    assert _check(tmp_path, document) == 1


def test_check_rejects_fewer_pairs_or_another_run_length(tmp_path):
    pairs = [{"first": "parent", "parent": _result(2.0), "change": _result(1.0)}] * bench_pairs.PAIRS
    short = _document(pairs[1:], bench_pairs.directions())
    assert _check(tmp_path, short) == 1
    document = _document(pairs, bench_pairs.directions())
    series = document["series"][0]
    series["command"] = series["command"].replace(f"--seconds {bench_pairs.SPEC['run_seconds']} ", "--seconds 2 ")
    assert "--seconds 2 " in series["command"]
    assert _check(tmp_path, document) == 1


def test_check_reads_the_directions_a_file_was_written_with(tmp_path):
    """A file written when the benchmark declared other end-to-end metrics
    stays valid: its summary is recomputed over the metrics it records."""
    pairs = [{"first": "parent", "parent": _result(2.0), "change": _result(1.0)}] * bench_pairs.PAIRS
    assert _check(tmp_path, _document(pairs, {"wall_s": "lower"})) == 0
