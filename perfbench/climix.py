"""The cli_cold command mix and the recorded outputs every gate compares with.

Import-free of the program: the benchmark's parent process uses this module
while every command runs in a fresh interpreter of its own.
"""

from __future__ import annotations

import json
import random
from pathlib import Path

EXPECTED_PATH = Path(__file__).resolve().with_name("expected.json")

ANALYZE_Q = (3, 5, 7, 11, 13)
# The flags must not move a command across the round's median or 90th-percentile
# rank, or op_p50_ms and op_p90_ms would follow the seed instead of the program.
# --ambient join adds 0.1 s on q = 3 but 0.4-4.7 s on larger q, so it stays on
# q = 3; --format json is drawn where its 0.05-0.45 s keeps every rank: not on
# q = 11, the command at the 90th-percentile rank.
JOIN_Q = 3
JSON_Q = (5, 7, 13)


def load_expected() -> dict:
    return json.loads(EXPECTED_PATH.read_text(encoding="utf-8"))


def cli_pool(json_q: int) -> list[tuple[str, ...]]:
    pool = []
    for q in ANALYZE_Q:
        argv = ("analyze", f"d2q?q={q}")
        if q == json_q:
            argv += ("--format", "json")
        if q == JOIN_Q:
            argv += ("--ambient", "join")
        pool.append(argv)
    pool += [
        ("chartable", "d2q?q=11"),
        ("search", "d2q?q=5", "--max-t", "3"),
        ("search", "d2q?q=7", "--max-t", "3"),
        ("fiber", "--genera", "1,1,1,1"),
        ("fiber", "--genera", "1,1,1,1,1"),
        ("fiber", "--elliptic", "8"),
        ("theorem-b", "d2q?q=7"),
    ]
    return pool


def cli_round(seed: int) -> list[tuple[str, ...]]:
    """The seeded round: which analyze gets --format json, and the order in
    which the whole pool runs."""
    rng = random.Random(f"cli:{seed}")
    pool = cli_pool(rng.choice(JSON_Q))
    rng.shuffle(pool)
    return pool


def all_cli_commands() -> list[tuple[str, ...]]:
    """Every command any seed can draw."""
    return list(dict.fromkeys(argv for json_q in JSON_Q for argv in cli_pool(json_q)))


def cli_key(argv) -> str:
    return " ".join(argv)


def cli_gate(argv, exit_code: int, stdout_sha256: str, expected: dict) -> str | None:
    """None when exit code and stdout digest match the recorded ones, else why not.

    analyze on the d2q presets exits 2 by design (the pinned h1h4 reference
    discrepancy); the recorded exit code says so, and matching it is a pass.
    """
    want = expected["cli"][cli_key(argv)]
    if exit_code != want["exit"]:
        return f"{cli_key(argv)}: exit {exit_code}, expected {want['exit']}"
    if stdout_sha256 != want["sha256"]:
        return f"{cli_key(argv)}: stdout sha256 {stdout_sha256[:12]}, expected {want['sha256'][:12]}"
    return None
