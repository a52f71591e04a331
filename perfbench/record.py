"""Record the expected outputs the correctness gates compare against.

    python3 perfbench/record.py

Writes perfbench/expected.json: the seed-independent invariants of every
ladder group, and the exit code and stdout sha256 of every CLI command any
seed can draw.  Each command runs twice under different hash seeds and must
print the same bytes both times.  Record only from a commit whose outputs
are known to be right; the gates then hold later commits to them.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import subprocess
import sys

import climix
import worker


def cli_output(argv, hash_seed: str) -> tuple[int, str]:
    env = dict(os.environ, PYTHONPATH=str(worker.SRC), PYTHONHASHSEED=hash_seed)
    proc = subprocess.run([sys.executable, "-m", "jacdecomp", *argv], env=env,
                          cwd=worker.ROOT, capture_output=True, timeout=300)
    return proc.returncode, hashlib.sha256(proc.stdout).hexdigest()


def main() -> None:
    worker.import_program()
    import workloads

    rng = random.Random(0)
    ladder = {}
    for name in workloads.LADDER:
        result = workloads.ladder_structure(*workloads.relabelled_generators(name, rng))
        if result.pop("degree_square_sum") != result["order"]:
            raise SystemExit(f"{name}: squared degrees do not sum to the order")
        ladder[name] = result
    cli = {}
    for argv in climix.all_cli_commands():
        first, second = cli_output(argv, "1"), cli_output(argv, "2")
        if first != second:
            raise SystemExit(f"{climix.cli_key(argv)}: output depends on the hash seed")
        cli[climix.cli_key(argv)] = {"exit": first[0], "sha256": first[1]}
    climix.EXPECTED_PATH.write_text(
        json.dumps({"ladder": ladder, "cli": cli}, indent=1, sort_keys=True) + "\n",
        encoding="utf-8",
    )


if __name__ == "__main__":
    main()
