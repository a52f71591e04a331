"""Per-layer tracing installed from outside the program.

The tracer wraps public functions and methods of the jacdecomp modules.  A
span wrapper records (name, start, end, parent span, op id) in memory; a
count wrapper only counts calls and is used on the hottest entry points
(``FiniteGroup.mul`` and ``Cyclotomic`` arithmetic).  A function imported by
name into other modules (``from .characters import fixed_dim``) is replaced in
every jacdecomp module namespace that binds it, so calls between modules go
through the wrapper too.

Self time of a span is its duration minus the durations of its direct child
spans and minus the host-speed reference samples taken inside it (every
duration here is net of those), scaled like every other timing of the
benchmark (hostspeed.py); per-layer metrics sum self times and counts over
the traced process.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import Counter

# (module, attribute) pairs wrapped with a span; "Class.method" names a method.
SPANS = (
    ("groups", "conjugacy_classes"),
    ("groups", "enumerate_subgroups"),
    ("groups", "coset_action"),
    ("characters", "character_table"),
    ("characters", "inner_product"),
    ("characters", "fixed_dim"),
    ("characters", "permutation_character"),
    ("characters", "rational_classes"),
    ("covering", "validate_action"),
    ("covering", "genus_from_branch_data"),
    ("decomposition", "analyze"),
    ("decomposition", "ActionAnalysis.factors"),
    ("decomposition", "ActionAnalysis.profile"),
    ("decomposition", "ActionAnalysis.admissibility"),
    ("decomposition", "ActionAnalysis.theorem1"),
    ("decomposition", "ActionAnalysis.search_admissible"),
    ("decomposition", "fiber_product_action"),
    ("decomposition", "cor3_plan"),
    ("decomposition", "induced_join_analysis"),
    ("scenario", "parse_scenario"),
    ("reporting", "render_text"),
    ("reporting", "ReportDocument.to_json"),
    ("cli", "run_command"),
)

# (module, attribute, counter) wrapped with a call counter only.
COUNTS = (
    ("groups", "FiniteGroup.mul", "groups.mul"),
    ("characters", "frobenius_schur", "characters.frobenius_schur"),
    ("covering", "orbit_count", "covering.orbit_count"),
) + tuple(
    ("cyclotomic", f"Cyclotomic.{op}", "cyclotomic")
    for op in ("__add__", "__radd__", "__sub__", "__rsub__", "__neg__",
               "__mul__", "__rmul__", "galois", "conjugate")
)


class Tracer:
    def __init__(self, sampler):
        self.sampler = sampler  # its busy_s, read at both ends of every span
        # [name, start, end, parent index, op id, busy_s at start, busy_s at end]
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.calls: Counter = Counter()
        self.keys: dict[str, set] = {}  # distinct call keys per counter
        self.primes: list[int] = []
        self.subgroups = 0
        self.op = -1
        self._alive: dict = {}  # keeps objects whose id() is part of a key alive

    # -- wrappers -------------------------------------------------------------

    def span(self, name: str, fn, on_call=None, on_result=None):
        spans, stack, clock, calls = self.spans, self.stack, time.monotonic, self.calls
        sampler = self.sampler

        def wrapper(*args, **kwargs):
            calls[name] += 1
            if on_call is not None:
                on_call(*args, **kwargs)
            record = [name, 0.0, 0.0, stack[-1] if stack else -1, self.op, 0.0, 0.0]
            stack.append(len(spans))
            spans.append(record)
            record[5] = sampler.busy_s
            record[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = clock()
                record[6] = sampler.busy_s
                stack.pop()
            if on_result is not None:
                on_result(result)
            return result

        functools.update_wrapper(wrapper, fn)
        if hasattr(fn, "cache_clear"):
            wrapper.cache_clear = fn.cache_clear
        return wrapper

    def counter(self, name: str, fn):
        calls = self.calls

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        functools.update_wrapper(wrapper, fn)
        return wrapper

    def _hooks(self, name: str) -> dict:
        """Extra bookkeeping for the spans whose metrics need more than calls."""
        alive = self._alive
        if name in ("groups.coset_action", "characters.fixed_dim"):
            # the program's own cache key: (group or character, subgroup members)
            keys = self.keys.setdefault(name, set())

            def on_call(owner, subgroup):
                alive[id(owner)] = owner
                keys.add((id(owner), subgroup.members))
            return {"on_call": on_call}
        if name == "characters.character_table":
            return {"on_result": lambda table: self.primes.append(table.modulus)}
        if name == "groups.enumerate_subgroups":
            def on_result(lattice):
                self.subgroups += len(lattice)
            return {"on_result": on_result}
        return {}

    # -- installation -----------------------------------------------------------

    def install(self) -> None:
        """Wrap every traced name in every loaded jacdecomp module."""
        import jacdecomp  # noqa: F401  (loads every module but reporting and cli)

        for module_name, attr in SPANS:
            if f"jacdecomp.{module_name}" not in sys.modules:
                continue
            owner, leaf = _owner(module_name, attr)
            name = f"{module_name}.{attr}"
            original = owner.__dict__[leaf]
            if isinstance(original, property):
                wrapped = property(self.span(name, original.fget, **self._hooks(name)))
                setattr(owner, leaf, wrapped)
            else:
                _rebind(owner, leaf, original, self.span(name, original, **self._hooks(name)))
        reporting = sys.modules.get("jacdecomp.reporting")
        if reporting is not None:
            for leaf, original in list(vars(reporting).items()):
                if leaf.endswith("_section") and callable(original):
                    _rebind(reporting, leaf, original,
                            self.span(f"reporting.{leaf}", original))
        for module_name, attr, name in COUNTS:
            owner, leaf = _owner(module_name, attr)
            original = owner.__dict__[leaf]
            _rebind(owner, leaf, original, self.counter(name, original))

    # -- results ------------------------------------------------------------------

    def self_times(self, scale) -> dict[str, float]:
        """Scaled self time per span name; scale maps (start, end) to a factor."""
        net = [end - start - (b1 - b0) for _, start, end, _, _, b0, b1 in self.spans]
        inner = [0.0] * len(self.spans)
        for record, duration in zip(self.spans, net):
            if record[3] >= 0:
                inner[record[3]] += duration
        totals: dict[str, float] = {}
        for record, duration, child in zip(self.spans, net, inner):
            name, start, end = record[:3]
            totals[name] = totals.get(name, 0.0) + (duration - child) * scale(start, end)
        return totals

    def summary(self, scale) -> dict:
        return {
            "self_s": self.self_times(scale),
            "calls": dict(self.calls),
            "distinct": {name: len(keys) for name, keys in self.keys.items()},
            "primes": self.primes,
            "subgroups": self.subgroups,
            "spans": len(self.spans),
        }

    def write_spans(self, path) -> None:
        with open(path, "w", encoding="utf-8") as out:
            out.write('{"fields": ["name", "start", "end", "parent", "op", "busy_start", '
                      '"busy_end"], "spans": [\n')
            out.write(",\n".join(json.dumps(record) for record in self.spans))
            out.write("\n]}\n")


def _owner(module_name: str, attr: str):
    module = sys.modules[f"jacdecomp.{module_name}"]
    if "." in attr:
        cls_name, leaf = attr.split(".")
        return getattr(module, cls_name), leaf
    return module, attr


def _rebind(owner, leaf: str, original, wrapper) -> None:
    """Replace original by wrapper on its owner and in every jacdecomp namespace."""
    setattr(owner, leaf, wrapper)
    if isinstance(owner, type):
        return
    for name, module in list(sys.modules.items()):
        if name == "jacdecomp" or name.startswith("jacdecomp."):
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, wrapper)


# -- per-layer metrics ---------------------------------------------------------------
# (metric, unit, better, the end-to-end metric it should move and on which workload)

_TABLE = "wall_s on ladder_cold, setup_s on action_sweep, op_p50_ms on cli_cold"
_GROUPS = "wall_s on ladder_cold, setup_s on action_sweep, op_p90_ms on cli_cold (search)"
_PER_ACTION = "ops_per_s, op_p50_ms and op_p90_ms on action_sweep"
_REPORTS = "op_p50_ms on action_sweep, op_p90_ms on cli_cold"
_FRONT = "op_p50_ms on cli_cold"

LAYER_METRICS = (
    ("groups.conjugacy_classes.self_s", "s", "lower", _GROUPS),
    ("groups.enumerate_subgroups.self_s", "s", "lower", _GROUPS),
    ("groups.enumerate_subgroups.subgroups", "count", "lower", _GROUPS),
    ("groups.coset_action.calls", "count", "lower", _GROUPS),
    ("groups.coset_action.distinct", "count", "lower", _GROUPS),
    ("groups.mul.calls", "count", "lower", _GROUPS),
    ("cyclotomic.ops", "count", "lower", "wall_s on ladder_cold, ops_per_s on action_sweep"),
    ("characters.character_table.self_s", "s", "lower", _TABLE),
    ("characters.inner_product.calls", "count", "lower", _TABLE),
    ("characters.inner_product.self_s", "s", "lower", _TABLE),
    ("characters.table.prime", "prime", "lower", _TABLE),
    ("characters.fixed_dim.calls", "count", "lower", _PER_ACTION),
    ("characters.fixed_dim.distinct", "count", "lower", _PER_ACTION),
    ("characters.fixed_dim.reuse_ratio", "ratio", "higher", _PER_ACTION),
    ("characters.fixed_dim.self_s", "s", "lower", _PER_ACTION),
    ("characters.permutation_character.self_s", "s", "lower", _PER_ACTION),
    ("characters.rational_classes.self_s", "s", "lower", _PER_ACTION),
    ("characters.frobenius_schur.calls", "count", "lower", _PER_ACTION),
    ("covering.validate_action.self_s", "s", "lower", "ops_per_s on action_sweep"),
    ("covering.genus_from_branch_data.calls", "count", "lower", "ops_per_s on action_sweep"),
    ("covering.genus_from_branch_data.self_s", "s", "lower", "ops_per_s on action_sweep"),
    ("covering.orbit_count.calls", "count", "lower", "ops_per_s on action_sweep"),
    ("decomposition.analyze.calls", "count", "lower", _REPORTS),
) + tuple(
    (f"decomposition.ActionAnalysis.{method}.{stat}", unit, "lower", _REPORTS)
    for method in ("factors", "profile", "admissibility", "theorem1", "search_admissible")
    for stat, unit in (("self_s", "s"), ("calls", "count"))
) + (
    ("decomposition.fiber_product_action.self_s", "s", "lower", _REPORTS),
    ("decomposition.cor3_plan.self_s", "s", "lower", _REPORTS),
    ("decomposition.induced_join_analysis.self_s", "s", "lower", _REPORTS),
    ("scenario.parse_scenario.self_s", "s", "lower", _FRONT),
    ("reporting.sections.self_s", "s", "lower", _FRONT),
    ("reporting.render_text.self_s", "s", "lower", _FRONT),
    ("reporting.ReportDocument.to_json.self_s", "s", "lower", _FRONT),
    ("cli.run_command.self_s", "s", "lower", _FRONT),
    ("cli.import_s", "s", "lower", _FRONT),
)


def merge(summaries: list[dict]) -> dict:
    """Sum the summaries of several traced processes (one per CLI op)."""
    merged = {"self_s": Counter(), "calls": Counter(), "distinct": Counter(),
              "primes": [], "subgroups": 0, "spans": 0, "import_s": 0.0}
    for summary in summaries:
        for key in ("self_s", "calls", "distinct"):
            merged[key].update(summary[key])
        merged["primes"] += summary["primes"]
        for key in ("subgroups", "spans", "import_s"):
            merged[key] += summary.get(key, 0)
    return merged


def layer_metrics(summary: dict) -> dict[str, float]:
    """Every LAYER_METRICS value from a (merged) summary; 0 where a layer never ran."""
    self_s, calls, distinct = summary["self_s"], summary["calls"], summary["distinct"]
    values = {}
    for metric, _, _, _ in LAYER_METRICS:
        span, _, stat = metric.rpartition(".")
        if metric == "reporting.sections.self_s":
            value = sum(t for name, t in self_s.items()
                        if name.startswith("reporting.") and name.endswith("_section"))
        elif metric == "cli.import_s":
            value = summary.get("import_s", 0.0)
        elif metric == "cyclotomic.ops":
            value = calls.get("cyclotomic", 0)
        elif metric == "characters.table.prime":
            value = max(summary["primes"], default=0)
        elif metric == "groups.enumerate_subgroups.subgroups":
            value = summary["subgroups"]
        elif stat == "reuse_ratio":
            n = calls.get(span, 0)
            value = 1.0 - distinct.get(span, 0) / n if n else 0.0
        else:
            value = {"self_s": self_s, "calls": calls, "distinct": distinct}[stat].get(span, 0)
        values[metric] = value
    return values
