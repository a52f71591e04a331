"""Command-line front end.

Commands: analyze, chartable, search, fiber, theorem-b.  Exit codes follow a
CI-friendly contract: 0 when every assertion passed, 1 for usage or parse
errors, 2 when a reference-identity check failed (a bundled expectation
disagrees with what the engine computes), so discrepancies are machine
readable.
"""

from __future__ import annotations

import argparse
import sys
from functools import partial
from typing import Sequence

from . import decomposition as dec
from .characters import CharacterError
from .covering import CoveringError
from .cyclotomic import CyclotomicError
from .groups import GroupError, parse_integer
from .reporting import (
    Labels,
    ReportDocument,
    action_section,
    admissibility_section,
    base_document,
    character_table_section,
    corollary1_section,
    factors_section,
    fiber_section,
    group_section,
    profile_entry,
    proposition1_section,
    proposition2_section,
    rational_classes_section,
    rational_rep_section,
    theorem1_section,
    theorem_b_section,
    theorem_c_section,
)
from .scenario import (
    CollectionSpec,
    ScenarioError,
    ScenarioFile,
    class_labels,
    parse_scenario,
)


class UsageError(ScenarioError):
    """Bad command usage that is not a parse failure of the scenario itself."""


def _parse_schur(items: Sequence[str]) -> dict[int, int]:
    overrides = {}
    for item in items or ():
        key, eq, value = item.partition("=")
        if not eq:
            raise UsageError(f"--schur expects INDEX=VALUE, got {item!r}")
        row = parse_integer("--schur INDEX", key, UsageError)
        if row in overrides:
            raise UsageError(f"--schur INDEX {key!r} repeats row {row}")
        overrides[row] = parse_integer("--schur VALUE", value, UsageError)
    return overrides


def _analysis(scenario: ScenarioFile, args) -> dec.ActionAnalysis:
    """Analysis of the scenario's action under its own and the --schur overrides."""
    overrides = dict(scenario.schur_overrides)
    overrides.update(_parse_schur(args.schur))
    return dec.analyze(scenario.action, overrides)


def _discrepancy(collection: str | None, kind: str, expected, computed, detail: str) -> dict:
    return {
        "collection": collection,
        "kind": kind,
        "expected": expected,
        "computed": computed,
        "detail": detail,
    }


def _check_collection_expectations(
    spec: CollectionSpec,
    analysis: dec.ActionAnalysis,
    labels: Labels,
    profiles: Sequence[dec.SubgroupProfile],
    ambient: str,
    admissibility: dec.AdmissibilityReport,
    theorem1: dec.DecompositionReport | None,
) -> list[dict]:
    """Compare computed results against the scenario's reference expectations."""
    expect = spec.expect

    def verdict(admissible: bool) -> str:
        return "admissible" if admissible else "not admissible"

    genera = [p.genus for p in profiles]
    # (kind, engine value c, detail for a reference value e); dim P and fullness come
    # from Theorem 1, which an inadmissible collection does not reach
    checks = [
        ("genera", genera, lambda e, c: f"quotient genera: reference {e}, engine computes {c}"),
        (
            "complement_dim", analysis.genus - sum(genera),
            lambda e, c: f"genus complement: reference {e}, engine computes {c}",
        ),
        (
            "admissible" if ambient == "acting" else "join_admissible",
            admissibility.admissible,
            lambda e, c: f"reference calls the collection {verdict(e)} (ambient {ambient}); "
            f"engine verdict is {verdict(c)}",
        ),
    ]
    if theorem1 is None:
        checks.append((
            "dim_p", None,
            lambda e, c: f"reference expects a decomposition with dim P = {e}, "
            f"but the collection is not admissible (ambient {ambient})",
        ))
    else:
        checks += [
            ("dim_p", theorem1.dim_p, lambda e, c: f"dim P: reference {e}, engine computes {c}"),
            ("full", theorem1.full, lambda e, c: f"full decomposition: reference {e}, engine {c}"),
        ]
    notes = [
        _discrepancy(spec.name, kind, expect[kind], computed, detail(expect[kind], computed))
        for kind, computed, detail in checks
        if kind in expect and computed != expect[kind]
    ]

    if "fixed_dims" in expect:
        columns = expect["fixed_dims"]["columns"]
        # only the dihedral family's classes carry V-labels
        named = {label: i for i, label in labels if label[0] == "V"}
        if not set(columns) <= named.keys():
            raise UsageError(
                "fixed_dims expectations need the dihedral preset labels V1..V6"
            )
        for i, (profile, row) in enumerate(zip(profiles, expect["fixed_dims"]["rows"])):
            for label, expected_cell in zip(columns, row):
                rc = analysis.rational_classes[named[label]]
                computed_cell = profile.fixed_dims[named[label]]
                if computed_cell != expected_cell:
                    notes.append(
                        _discrepancy(
                            spec.name, "fixed_dims",
                            expected_cell, computed_cell,
                            f"fixed dim of {label} (degree {rc.degree}) under H{i + 1}: "
                            f"reference table gives {expected_cell}, engine computes "
                            f"{computed_cell}",
                        )
                    )
    return notes


def _cmd_analyze(scenario: ScenarioFile, args) -> ReportDocument:
    analysis = _analysis(scenario, args)
    labels = class_labels(analysis)

    doc = base_document("analyze", scenario)
    doc["options"] = {"ambient": args.ambient, "collections": args.collections or "all"}
    doc["group"] = group_section(scenario.group, analysis)
    doc["action"] = action_section(scenario)
    doc["character_table"] = character_table_section(analysis)
    doc["rational_classes"] = rational_classes_section(analysis, labels)
    doc["factors"] = factors_section(analysis, labels)
    doc["rational_rep"] = rational_rep_section(analysis.rational_rep(), labels)
    doc["collections"] = {}

    if args.collections:
        missing = [n for n in args.collections if n not in scenario.collections]
        if missing:
            raise UsageError(f"unknown collection(s): {', '.join(missing)}")
        selected = {n: scenario.collections[n] for n in args.collections}
        if len(selected) < len(args.collections):
            raise UsageError(f"a collection is named twice in {', '.join(args.collections)}")
    else:
        selected = scenario.collections

    for name, spec in selected.items():
        body: dict = {}
        profiles = [analysis.profile(h) for h in spec.subgroups]
        body["profiles"] = [
            profile_entry(f"H{i + 1}", spec.word_lists[i], h, p, analysis, labels)
            for i, (h, p) in enumerate(zip(spec.subgroups, profiles))
        ]

        if args.ambient == "join":
            join_analysis, translated, join = dec.induced_join_analysis(
                scenario.action, spec.subgroups
            )
            ambient_analysis, ambient_subgroups = join_analysis, translated
            body["join"] = {
                "order": join.order,
                "orbit_genus": join_analysis.orbit_genus,
                "dims": [f.dim for f in join_analysis.factors],
            }
            ambient_labels = tuple(
                (i, f"U{i + 1}") for i in range(len(join_analysis.rational_classes))
            )
        else:
            ambient_analysis, ambient_subgroups = analysis, spec.subgroups
            body["join"] = None
            ambient_labels = labels

        # theorem1 computes the admissibility report, and raises it when it fails
        try:
            theorem1 = ambient_analysis.theorem1(ambient_subgroups)
            admissibility = theorem1.admissibility
        except dec.NotAdmissible as exc:
            theorem1, admissibility = None, exc.report
        body["admissibility"] = admissibility_section(admissibility, ambient_labels)

        if theorem1 is not None:
            body["theorem1"] = theorem1_section(theorem1, ambient_labels)
            body["corollary1"] = corollary1_section(ambient_analysis.corollary1(theorem1))
        else:
            body["theorem1"] = None
            body["theorem1_skipped"] = "collection is not admissible"

        if len(spec.subgroups) == 2:
            body["proposition2"] = proposition2_section(
                analysis.proposition2(*spec.subgroups), labels
            )
        acting = admissibility if ambient_analysis is analysis else analysis.admissibility(spec.subgroups)
        body["proposition1"] = proposition1_section(analysis.proposition1(acting), labels)
        body["theorem_c"] = theorem_c_section(analysis.theorem_c(spec.subgroups))

        notes = _check_collection_expectations(
            spec, analysis, labels, profiles, args.ambient, admissibility, theorem1
        )
        body["discrepancies"] = notes
        doc["discrepancies"].extend(notes)
        doc["collections"][name] = body
    return ReportDocument(doc)


def _cmd_chartable(scenario: ScenarioFile, args) -> ReportDocument:
    analysis = _analysis(scenario, args)
    labels = class_labels(analysis)
    doc = base_document("chartable", scenario)
    doc["group"] = group_section(scenario.group, analysis)
    doc["character_table"] = character_table_section(analysis)
    doc["rational_classes"] = rational_classes_section(analysis, labels)
    return ReportDocument(doc)


def _cmd_search(scenario: ScenarioFile, args) -> ReportDocument:
    if args.max_t < 1:
        raise UsageError(f"--max-t must be at least 1, got {args.max_t}")
    analysis = _analysis(scenario, args)
    reports = analysis.search_admissible(
        max_t=args.max_t,
        require_full=args.require_full,
        dedupe_conjugates=args.dedupe_conjugates,
    )
    doc = base_document("search", scenario)
    doc["group"] = group_section(scenario.group, analysis)
    doc["action"] = action_section(scenario)
    doc["search"] = {
        "max_t": args.max_t,
        "require_full": args.require_full,
        "dedupe_conjugates": args.dedupe_conjugates,
    }
    results = []
    for index, report in enumerate(reports, start=1):
        results.append(
            {
                "index": index,
                "subgroups": [h.describe() for h in report.subgroups],
                "orders": [h.order for h in report.subgroups],
                "genera": list(report.quotient_genera),
                "genus_sum": sum(report.quotient_genera),
                "dim_p": report.dim_p,
                "full": report.full,
            }
        )
    doc["results"] = results
    return ReportDocument(doc)


def _cmd_fiber(scenario: None, args) -> ReportDocument:
    if (args.genera is None) == (args.elliptic is None):
        raise UsageError("fiber needs exactly one of --genera or --elliptic")
    if args.genera is not None:
        plan = dec.fiber_product_action([parse_integer("--genera", x, UsageError) for x in args.genera.split(",")])
    else:
        plan = dec.cor3_plan(args.elliptic)
    doc = base_document("fiber")
    doc["plan"] = fiber_section(plan)
    return ReportDocument(doc)


def _cmd_theorem_b(scenario: ScenarioFile, args) -> ReportDocument:
    analysis = _analysis(scenario, args)
    name = args.collection
    if name is None:
        name = next(
            (n for n, s in scenario.collections.items() if s.expect.get("partition")),
            None,
        )
        if name is None:
            raise UsageError("no partition collection found; pass --collection NAME")
    if name not in scenario.collections:
        raise UsageError(f"unknown collection {name!r}")
    spec = scenario.collections[name]

    doc = base_document("theorem-b", scenario)
    doc["group"] = group_section(scenario.group, analysis)
    doc["action"] = action_section(scenario)

    section: dict = {"collection": name, "t": len(spec.subgroups)}
    try:
        report = analysis.theorem_b(spec.subgroups)
    except dec.NotAPartition:
        if not spec.expect.get("partition"):
            raise
        section["partition"] = False
        doc["discrepancies"].append(
            _discrepancy(
                name, "partition", True, False,
                "reference marks the collection as a partition; engine disagrees",
            )
        )
    else:
        section["partition"] = True
        section.update(theorem_b_section(report))
        if not report.holds:
            doc["discrepancies"].append(
                _discrepancy(
                    name, "theorem_b", True, False,
                    "partition identities failed despite a valid partition",
                )
            )
    doc["theorem_b"] = section
    return ReportDocument(doc)


_COMMANDS = {"analyze": _cmd_analyze, "chartable": _cmd_chartable, "search": _cmd_search,
             "fiber": _cmd_fiber, "theorem-b": _cmd_theorem_b}


def run_command(command: str, scenario: ScenarioFile | None, args) -> tuple[ReportDocument, int]:
    """Execute one command and return its report plus the exit code."""
    if command not in _COMMANDS:
        raise UsageError(f"unknown command {command!r}")
    doc = _COMMANDS[command](scenario, args)
    if not doc.data["discrepancies"]:
        return doc, 0
    doc.data["status"] = "discrepancy"
    return doc, 2


def _integer(option: str):
    """argparse type of an integer option: the strict reader, exit 1 naming it."""
    return partial(parse_integer, option, error=argparse.ArgumentTypeError, signed=True)


def _collection_names(text: str) -> list[str]:
    """argparse type of --collections: comma-separated names, none of them empty."""
    names = [n.strip() for n in text.split(",")]
    if not all(names):
        raise argparse.ArgumentTypeError(f"--collections has an empty name in {text!r}")
    return names


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # exit 1 on usage errors, per the exit-code contract
        self.exit(1, f"{self.prog}: error: {message}\n")


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="jacdecomp",
        description=(
            "Exact decomposition bookkeeping for Jacobians with group action: "
            "character tables, isotypical factors, admissible collections."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_format(p):
        p.add_argument("--format", choices=("text", "json"), default="text")

    def add_common(p):
        p.add_argument(
            "scenario",
            help="preset reference (d2q?q=3, fiber?genera=1,1), JSON file path, or JSON text",
        )
        add_format(p)
        p.add_argument("--schur", action="append", default=[], metavar="INDEX=VALUE",
                       help="override the Schur index of an orbit representative row")
        p.add_argument("--max-order", type=_integer("--max-order"), default=None,
                       help="cap on group order during construction")

    p_analyze = sub.add_parser("analyze", help="full decomposition report")
    add_common(p_analyze)
    p_analyze.add_argument("--collections", type=_collection_names, default=None,
                           help="comma-separated collection names (default: all)")
    p_analyze.add_argument("--ambient", choices=("acting", "join"), default="acting",
                           help="test admissibility against the acting group or the join")

    p_chartable = sub.add_parser("chartable", help="character table and rational classes")
    add_common(p_chartable)

    p_search = sub.add_parser("search", help="search admissible collections")
    add_common(p_search)
    p_search.add_argument("--max-t", type=_integer("--max-t"), default=3)
    p_search.add_argument("--require-full", action="store_true")
    p_search.add_argument("--dedupe-conjugates", action="store_true")

    p_fiber = sub.add_parser("fiber", help="fiber-product construction plan")
    add_format(p_fiber)
    p_fiber.add_argument("--genera", default=None, help="comma-separated factor genera")
    p_fiber.add_argument("--elliptic", type=_integer("--elliptic"), default=None,
                         help="plan for this many elliptic factors")

    p_tb = sub.add_parser("theorem-b", help="partition decomposition identities")
    add_common(p_tb)
    p_tb.add_argument("--collection", default=None,
                      help="collection name (default: the one marked as a partition)")
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 1
    try:
        scenario = None
        if getattr(args, "scenario", None) is not None:
            scenario = parse_scenario(args.scenario, max_order=args.max_order)
        doc, code = run_command(args.command, scenario, args)
    except (ScenarioError, GroupError, CoveringError, CharacterError,
            CyclotomicError, dec.DecompositionError) as exc:
        print(f"jacdecomp: error: {exc}", file=sys.stderr)
        return 1
    output = doc.to_json() if args.format == "json" else doc.to_text()
    sys.stdout.write(output)
    return code


if __name__ == "__main__":
    raise SystemExit(main())
