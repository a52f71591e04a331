"""Report documents: a JSON-safe structured record plus a text rendering.

The structured form uses only plain JSON types so it round-trips losslessly;
the text form is generated purely from the structured record, so every number
a reader sees in the text is present in the record.  Rendering is
deterministic: no timestamps, no hash-ordered iteration.

Per-class sections take the (rational-class index, label) pairs that
``scenario.class_labels`` returns, already in display order, and list their
values in that order; no function here sorts or permutes class indices.
"""

from __future__ import annotations

import json
from typing import Iterable, Iterator, NamedTuple, Sequence

from .decomposition import (
    ActionAnalysis,
    AdmissibilityReport,
    Corollary1Report,
    DecompositionReport,
    FiberPlan,
    Proposition1Report,
    Proposition2Report,
    RationalRepProfile,
    SubgroupProfile,
    TheoremBReport,
    TheoremCReport,
)
from . import __version__ as ENGINE_VERSION
from .groups import FiniteGroup, Subgroup
from .scenario import ScenarioFile

ENGINE_NAME = "jacdecomp"


class ReportDocument(NamedTuple):
    """Structured report with deterministic JSON and text renderings."""

    data: dict

    def to_json(self) -> str:
        return json.dumps(self.data, indent=2, sort_keys=True) + "\n"

    def to_text(self) -> str:
        return render_text(self.data)


Labels = Sequence[tuple[int, str]]  # scenario.class_labels's (index, label) pairs


def _ordered(labels: Labels, values: Sequence) -> list:
    """One value per rational class, in display order."""
    return [values[i] for i, _ in labels]


def base_document(command: str, scenario: ScenarioFile | None = None) -> dict:
    doc = {
        "engine": {"name": ENGINE_NAME, "version": ENGINE_VERSION},
        "command": command,
        "discrepancies": [],
        "status": "ok",
    }
    if scenario is not None:
        doc["scenario"] = {
            "name": scenario.name,
            "description": scenario.description,
        }
    return doc


def group_section(group: FiniteGroup, analysis: ActionAnalysis) -> dict:
    classes = analysis.table.classes
    return {
        "order": group.order,
        "degree": group.degree,
        "exponent": group.exponent,
        "generators": {
            name: group.element_word(idx)
            for name, idx in sorted(group.generator_names.items())
        },
        "classes": [
            {
                "index": i,
                "representative": group.element_word(rep),
                "size": size,
                "element_order": group.element_order(rep),
            }
            for i, (rep, size) in enumerate(zip(classes.representatives, classes.sizes))
        ],
    }


def action_section(scenario: ScenarioFile) -> dict:
    group = scenario.group
    return {
        "orbit_genus": scenario.action.orbit_genus,
        "periods": list(scenario.action.periods),
        "vector": [group.element_word(c) for c in scenario.action.branch_elements],
        "handles": [
            [group.element_word(a), group.element_word(b)]
            for a, b in scenario.action.handles
        ],
        "genus": scenario.genus,
    }


def character_table_section(analysis: ActionAnalysis) -> dict:
    table = analysis.table
    group = analysis.group
    return {
        "conductor": table.conductor,
        "columns": [
            group.element_word(rep) for rep in table.classes.representatives
        ],
        "class_sizes": list(table.classes.sizes),
        "rows": [
            {
                "index": i + 1,
                "degree": table.degrees[i],
                "values": [str(v) for v in row.values],
            }
            for i, row in enumerate(table.irreducibles)
        ],
    }


def rational_classes_section(analysis: ActionAnalysis, labels: Labels) -> dict:
    classes = analysis.rational_classes
    return {
        "classes": [
            {
                "label": label,
                "rows": [j + 1 for j in classes[i].member_indices],
                "degree": classes[i].degree,
                "field_degree": classes[i].field_degree,
                "schur_index": classes[i].schur_index,
                "schur_source": classes[i].schur_source,
                "exponent": classes[i].n,
                "dim_w": classes[i].dim_w,
            }
            for i, label in labels
        ]
    }


def _b_term(label: str, exponent: int) -> str:
    """The factor B_l of class V_l (or W_l, U_l), with its exponent when above 1."""
    return "B" + label[1:] + (f"^{exponent}" if exponent > 1 else "")


def factors_section(analysis: ActionAnalysis, labels: Labels) -> dict:
    factors = _ordered(labels, analysis.factors)
    return {
        "genus": analysis.genus,
        "orbit_genus": analysis.orbit_genus,
        "dims": [f.dim for f in factors],
        "exponents": [f.exponent for f in factors],
        "labels": [label for _, label in labels],
        "statement": "JC ~G " + " x ".join(
            _b_term(label, f.exponent) for (_, label), f in zip(labels, factors)
        ),
    }


def _profile_statement(
    name: str, profile: SubgroupProfile, analysis: ActionAnalysis, labels: Labels
) -> str:
    parts = [
        _b_term(label, profile.exponents[i])
        for i, label in labels
        if profile.exponents[i] > 0 and analysis.factors[i].dim > 0
    ]
    product = " x ".join(parts) if parts else "0"
    return f"JC_{name} ~ {product}"


def profile_entry(
    name: str,
    words: Sequence[str],
    subgroup: Subgroup,
    profile: SubgroupProfile,
    analysis: ActionAnalysis,
    labels: Labels,
) -> dict:
    return {
        "name": name,
        "generators": list(words),
        "description": subgroup.describe(),
        "order": subgroup.order,
        "genus": profile.genus,
        "fixed_dims": _ordered(labels, profile.fixed_dims),
        "exponents": _ordered(labels, profile.exponents),
        "statement": _profile_statement(name, profile, analysis, labels),
    }


def admissibility_section(report: AdmissibilityReport, labels: Labels) -> dict:
    return {
        "ambient": report.ambient,
        "ambient_order": report.ambient_order,
        "labels": [label for _, label in labels],
        "degrees": _ordered(labels, report.degrees),
        "sums": _ordered(labels, report.sums),
        "support": _ordered(labels, report.support),
        "slacks": _ordered(labels, report.slacks),
        "admissible": report.admissible,
    }


def theorem1_section(report: DecompositionReport, labels: Labels) -> dict:
    return {
        "quotient_genera": list(report.quotient_genera),
        "deltas": _ordered(labels, report.deltas),
        "dim_p": report.dim_p,
        "full": report.full,
        "statement": report.statement,
    }


def proposition2_section(report: Proposition2Report, labels: Labels) -> dict:
    return {
        "join_description": report.join.describe(),
        "join_order": report.join.order,
        "genus": report.genus,
        "join_genus": report.join_genus,
        "h1_genus": report.h1_genus,
        "h2_genus": report.h2_genus,
        "deltas": _ordered(labels, report.deltas),
        "dim_p": report.dim_p,
        "degenerate_full": report.degenerate_full,
        "statement": report.statement,
    }


def proposition1_section(report: Proposition1Report, labels: Labels) -> dict:
    return {
        "statement2": report.statement2,
        "statement3": report.statement3,
        "special_case": report.special_case,
        "eq8_holds": report.eq8_holds,
        "a1": report.a1,
        "sums": _ordered(labels, report.sums),
        "degrees": _ordered(labels, report.degrees),
        "statement": report.statement,
    }


def corollary1_section(reports: Sequence[Corollary1Report]) -> list[dict]:
    return [
        {
            "k": rep.k + 1,
            "prym_dim": rep.prym_dim,
            "complement_sum": rep.complement_sum,
            "equality": rep.equality,
            "full": rep.full,
        }
        for rep in reports
    ]


def theorem_c_section(report: TheoremCReport) -> dict:
    return {
        "pairs_permute": report.pairs_permute,
        "non_permuting_pair": (
            None
            if report.non_permuting_pair is None
            else [report.non_permuting_pair[0] + 1, report.non_permuting_pair[1] + 1]
        ),
        "pairwise_genera": list(report.pairwise_genera),
        "pairwise_zero": report.pairwise_zero,
        "genus_sum": report.genus_sum,
        "genus_matches": report.genus_matches,
        "applicable": report.applicable,
    }


def theorem_b_section(report: TheoremBReport) -> dict:
    return report._asdict()


def rational_rep_section(profile: RationalRepProfile, labels: Labels) -> dict:
    return {
        "labels": [label for _, label in labels],
        "multiplicities": _ordered(labels, profile.multiplicities),
        "total_degree": profile.total_degree,
    }


def fiber_section(plan: FiberPlan) -> dict:
    t = len(plan.genera)
    names = " x ".join(f"JC_{i + 1}" for i in range(t))
    tail = "" if plan.dim_p == 0 else f" x P,  dim P = {plan.dim_p}"
    entry = {
        "genera": list(plan.genera),
        "group_order": plan.action.group.order,
        "branch_points": len(plan.action.branch_elements),
        "genus": plan.genus,
        "predicted_genus": plan.predicted_genus,
        "dim_p": plan.dim_p,
        "predicted_dim_p": plan.predicted_dim_p,
        "deck_genera": [g for g in plan.genera],
        "admissible": plan.admissibility.admissible,
        "full": plan.theorem1.full,
        "statement": f"JC ~ {names}{tail}",
    }
    if plan.elliptic_count is not None:
        entry["elliptic_count"] = plan.elliptic_count
        entry["pairing"] = [list(p) for p in plan.pairing or ()]
        names = " x ".join(f"E{i + 1}" for i in range(plan.elliptic_count))
        entry["elliptic_statement"] = f"JC ~ {names}{tail}"
    return entry


# -- text rendering ---------------------------------------------------------------


def _grid(headers: Sequence[str], rows: Iterable[Sequence]) -> list[str]:
    """Right-aligned columns; every cell is turned into text here, None as "-"."""
    cells = [["-" if cell is None else str(cell) for cell in row] for row in [headers, *rows]]
    widths = [max(map(len, column)) for column in zip(*cells)]
    return ["  ".join(cell.rjust(w) for cell, w in zip(row, widths)) for row in cells]


def _yesno(flag: bool) -> str:
    return "yes" if flag else "no"


def _listed(values: Iterable, sep: str = ", ") -> str:
    return sep.join(map(str, values))


def render_text(doc: dict) -> str:
    engine, scenario = doc["engine"], doc.get("scenario")
    lines = [f"{engine['name']} {engine['version']} :: {doc['command']}"]
    if scenario is not None:
        lines.append(f"scenario: {scenario['name']}")
        if scenario.get("description"):
            lines.append(f"  {scenario['description']}")
    lines.append("")
    for title, body in _text_sections(doc):
        lines += [title, "-" * len(title), *body, ""]
    for d in doc.get("discrepancies") or []:
        scope = f" [{d['collection']}]" if d.get("collection") else ""
        lines.append(f"DISCREPANCY{scope}: {d['detail']}")
    lines.append(f"status: {doc['status']}")
    return "\n".join(lines) + "\n"


def _text_sections(doc: dict) -> Iterator[tuple[str, list[str]]]:
    """Each section of the text report, as its title and its lines, in report order."""
    if "group" in doc:
        g = doc["group"]
        yield "group", [
            f"order {g['order']}, degree {g['degree']}, exponent {g['exponent']}, "
            f"{len(g['classes'])} conjugacy classes",
            *_grid(
                ["class", "rep", "size", "order"],
                [[c["index"], c["representative"], c["size"], c["element_order"]]
                 for c in g["classes"]],
            ),
        ]

    if "action" in doc:
        a = doc["action"]
        lines = [
            f"orbit genus {a['orbit_genus']}, periods ({_listed(a['periods'])})",
            f"vector: ({_listed(a['vector'])})",
        ]
        if a["handles"]:
            lines.append(f"handles: {_listed(f'[{x}, {y}]' for x, y in a['handles'])}")
        yield "action", lines + [f"total genus: {a['genus']}"]

    if "character_table" in doc:
        t = doc["character_table"]
        yield f"character table (values in Q(zeta_{t['conductor']}))", _grid(
            ["row", "deg", *t["columns"]],
            [[f"X{r['index']}", r["degree"], *r["values"]] for r in t["rows"]],
        )

    if "rational_classes" in doc:
        yield "rational classes", _grid(
            ["label", "rows", "degree", "[K:Q]", "schur", "n", "dim W"],
            [
                [c["label"], _listed((f"X{j}" for j in c["rows"]), ","), c["degree"],
                 c["field_degree"], f"{c['schur_index']} ({c['schur_source']})",
                 c["exponent"], c["dim_w"]]
                for c in doc["rational_classes"]["classes"]
            ],
        )

    if "factors" in doc:
        f = doc["factors"]
        yield "group algebra decomposition", [
            f["statement"],
            *_grid(["class", "dim B", "exponent"], zip(f["labels"], f["dims"], f["exponents"])),
            f"conservation: sum n_l dim B_l = {f['genus']} = genus  "
            f"(orbit genus {f['orbit_genus']})",
        ]

    for name, body in (doc.get("collections") or {}).items():
        adm = body["admissibility"]
        lines = _grid(
            ["", "subgroup", "order", "genus", "fixed dims", "induced"],
            [[p["name"], p["description"], p["order"], p["genus"],
              f"({_listed(p['fixed_dims'], ',')})", p["statement"]]
             for p in body["profiles"]],
        )
        lines.append(
            f"admissibility (ambient {adm['ambient']}, order {adm['ambient_order']}): "
            f"{_yesno(adm['admissible'])}"
        )
        lines += _grid(
            ["class", "degree", "sum", "support", "slack"],
            [[label, d, s, _yesno(sup), slack] for label, d, s, sup, slack in zip(
                adm["labels"], adm["degrees"], adm["sums"], adm["support"], adm["slacks"]
            )],
        )
        j = body.get("join")
        if j is not None:
            lines.append(
                f"join ambient: order {j['order']}, orbit genus {j['orbit_genus']}, "
                f"factor dims ({_listed(j['dims'])})"
            )
        th = body.get("theorem1")
        if th is not None:
            lines.append(
                f"decomposition: {th['statement']}  "
                f"[quotient genera {_listed(th['quotient_genera'])}; full: {_yesno(th['full'])}]"
            )
        elif body.get("theorem1_skipped"):
            lines.append(f"decomposition: skipped ({body['theorem1_skipped']})")
        p2 = body.get("proposition2")
        if p2 is not None:
            lines.append(
                f"pair bookkeeping: {p2['statement']}  "
                f"[g = {p2['genus']}, g_join = {p2['join_genus']}, "
                f"g_1 = {p2['h1_genus']}, g_2 = {p2['h2_genus']}]"
            )
        p1 = body.get("proposition1")
        if p1 is not None:
            line = (
                f"equivalence check: statement2 {_yesno(p1['statement2'])}, "
                f"statement3 {_yesno(p1['statement3'])}"
            )
            if p1["eq8_holds"] is not None:
                line += f", regular-form {_yesno(p1['eq8_holds'])} (a1 = {p1['a1']})"
            lines.append(line)
            if p1.get("statement"):
                lines.append(f"  {p1['statement']}")
        tc = body.get("theorem_c")
        if tc is not None:
            if tc["non_permuting_pair"] is not None:
                i, k = tc["non_permuting_pair"]
                detail = f"H{i} and H{k} do not permute"
            else:
                detail = f"all pairs permute; pairwise quotient genera ({_listed(tc['pairwise_genera'])})"
            lines.append(
                f"pairwise-permuting criterion: applicable {_yesno(tc['applicable'])} "
                f"({detail}; genus sum {tc['genus_sum']})"
            )
        for c1 in body.get("corollary1") or []:
            lines.append(
                f"Prym containment (k = {c1['k']}): complement sum {c1['complement_sum']}"
                f" <= Prym dim {c1['prym_dim']}" + ("  (equality)" if c1["equality"] else "")
            )
        lines += [f"DISCREPANCY: {d['detail']}" for d in body.get("discrepancies") or []]
        yield f"collection '{name}'", lines

    if "rational_rep" in doc:
        rr = doc["rational_rep"]
        yield "homology representation", [
            *_grid(["class", "multiplicity"], zip(rr["labels"], rr["multiplicities"])),
            f"total degree {rr['total_degree']} = 2g",
        ]

    if "results" in doc:
        search = doc["search"]
        yield f"admissible collections (max size {search['max_t']})", [
            f"require_full: {_yesno(search['require_full'])}, "
            f"dedupe_conjugates: {_yesno(search['dedupe_conjugates'])}, "
            f"found: {len(doc['results'])}",
            *_grid(
                ["#", "collection", "genera", "sum", "dim P"],
                [[r["index"], _listed(r["subgroups"]), _listed(r["genera"], ","),
                  r["genus_sum"], r["dim_p"]] for r in doc["results"]],
            ),
        ]

    if "plan" in doc:
        p = doc["plan"]
        lines = [
            f"factor genera ({_listed(p['genera'])}) over group of order "
            f"{p['group_order']}, {p['branch_points']} branch points",
            f"genus {p['genus']} (formula {p['predicted_genus']}), "
            f"dim P {p['dim_p']} (formula {p['predicted_dim_p']})",
            f"admissible: {_yesno(p['admissible'])}, full: {_yesno(p['full'])}",
            p["statement"],
        ]
        if "elliptic_count" in p:
            pairs = _listed("(" + _listed((f"E{i}" for i in pair), ",") + ")" for pair in p["pairing"])
            lines += [f"elliptic factors: {p['elliptic_count']}, pairing {pairs}", p["elliptic_statement"]]
        yield "fiber-product plan", lines

    if "theorem_b" in doc:
        tb = doc["theorem_b"]
        lines = [
            f"collection '{tb['collection']}' (t = {tb['t']}): partition {_yesno(tb['partition'])}"
        ]
        if tb["partition"]:
            lines += [
                f"character identity: {_yesno(tb['character_identity'])}; "
                f"per-class identities: {_yesno(tb['class_identities'])}",
                f"dimension identity: {tb['dimension_lhs']} = {tb['dimension_rhs']}",
                f"all identities hold: {_yesno(tb['holds'])}",
            ]
        yield "partition decomposition", lines
