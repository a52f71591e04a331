"""One fresh interpreter of the benchmark: a set-up probe, a repetition or a CLI op.

Run by run.py as ``python3 perfbench/worker.py '<json spec>'``; prints one JSON
line.  Every repetition gets its own interpreter, so no cache of the program
(the preset and validate_action lru_caches, decomposition._ANALYSES, the
per-group tables) carries over between repetitions or workloads.

Spec keys: mode ("setup", "rep" or "cli"), workload, seed, draw, ops, trace,
spawned (time.monotonic() just before the parent started this process),
spans (path for the span dump when tracing) and argv (cli mode).

Every worker samples the host-speed reference (hostspeed.py) from its first
statement on.  It reports op and set-up timings twice, net of the sampling
("raw_*") and scaled to the steady machine (the plain names); a CLI op hands
its samples to the parent, which times the command from outside.
"""

from __future__ import annotations

import hashlib
import io
import json
import sys
import time
from contextlib import redirect_stdout
from pathlib import Path

import hostspeed

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
SAMPLES_AFTER = hostspeed.MIN_SAMPLES


def import_program():
    """Import jacdecomp from this checkout's src/ and nowhere else."""
    sys.path.insert(0, str(SRC))
    import jacdecomp

    if not Path(jacdecomp.__file__).resolve().is_relative_to(SRC):
        raise ImportError(f"jacdecomp imported from {jacdecomp.__file__}, not from {SRC}")


def run_ops(spec: dict, active, sampler) -> dict:
    """Set up, then (mode "rep") run every op; (time, busy_s) marks only."""
    import climix
    import workloads

    expected = climix.load_expected()
    if spec["workload"] == "ladder_cold":
        inputs = workloads.ladder_inputs(spec["seed"])
    else:
        inputs = workloads.sweep_setup(spec["seed"], spec["draw"], spec["ops"])
    ready = (time.monotonic(), sampler.busy_s)
    if spec["mode"] == "setup":
        return {"ready": ready}

    marks, errors = [], []
    for i, item in enumerate(inputs):
        if active is not None:
            active.op = i
        t0, b0 = time.monotonic(), sampler.busy_s
        try:
            if spec["workload"] == "ladder_cold":
                name, gens, names = item
                result = workloads.ladder_structure(gens, names)
                t1, b1 = time.monotonic(), sampler.busy_s
                error = workloads.ladder_gate(name, result, expected)
            else:
                error = workloads.sweep_op(*item)
                t1, b1 = time.monotonic(), sampler.busy_s
        except Exception as exc:  # an op that raises counts as failed; the run goes on
            t1, b1 = time.monotonic(), sampler.busy_s
            error = f"{type(exc).__name__}: {exc}"
        marks.append((t0, t1, t1 - t0 - (b1 - b0)))
        if error is not None:
            errors.append(f"op {i}: {error}")
    return {"ready": ready, "ops": marks, "errors": errors}


def timings(result: dict, spawned: float, scale) -> dict:
    """Turn the marks of run_ops into raw and scaled seconds."""
    ready, ready_busy = result.pop("ready")
    raw_setup = ready - spawned - ready_busy
    result.update(setup_s=raw_setup * scale(spawned, ready), raw_setup_s=raw_setup)
    ops = result.pop("ops", None)
    if ops is not None:
        raw = [net for _, _, net in ops]
        scaled = [net * scale(t0, t1) for t0, t1, net in ops]
        result.update(wall_s=sum(scaled), raw_wall_s=sum(raw),
                      latencies_ms=[t * 1000.0 for t in scaled],
                      raw_latencies_ms=[t * 1000.0 for t in raw])
    return result


def run_cli(spec: dict, started: tuple, sampler) -> dict:
    """One CLI command through jacdecomp.cli.main, as ``python -m jacdecomp``
    runs it, with stdout captured for the gate."""
    import jacdecomp.cli

    imported = (time.monotonic(), sampler.busy_s)
    active = start_tracer(spec, sampler)
    buffer = io.StringIO()
    with redirect_stdout(buffer):
        code = jacdecomp.cli.main(list(spec["argv"]))
    return {"exit": code, "sha256": hashlib.sha256(buffer.getvalue().encode()).hexdigest(),
            "import": (started, imported), "tracer": active}


def start_tracer(spec: dict, sampler):
    if not spec["trace"]:
        return None
    import tracer

    active = tracer.Tracer(sampler)
    active.install()
    return active


def main() -> None:
    spec = json.loads(sys.argv[1])
    sampler = hostspeed.Sampler()
    sampler.start()
    started = (time.monotonic(), sampler.busy_s)
    import_program()
    if spec["mode"] == "cli":
        result = run_cli(spec, started, sampler)
        active = result.pop("tracer")
    elif spec["workload"] == "cli_cold":  # set-up probe: what every command pays first
        import jacdecomp.cli  # noqa: F401

        result, active = {"ready": (time.monotonic(), sampler.busy_s)}, None
    else:
        active = start_tracer(spec, sampler)
        result = run_ops(spec, active, sampler)
    sampler.stop()
    sampler.sample(SAMPLES_AFTER)  # so that a short interval has samples near it
    scale = hostspeed.HostScale(sampler.samples)
    if spec["mode"] == "cli":  # the parent times the command from outside
        (t0, b0), (t1, b1) = result.pop("import")
        result.update(samples=sampler.samples, busy_s=sampler.busy_s,
                      import_s=(t1 - t0 - (b1 - b0)) * scale(t0, t1))
    else:
        result = timings(result, spec["spawned"], scale)
    if active is not None:
        result["layers"] = active.summary(scale)
        active.write_spans(spec["spans"])
    print(json.dumps(result))


if __name__ == "__main__":
    main()
