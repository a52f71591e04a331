"""Command front end: exit codes, documents, golden reports, determinism."""

import copy
import json
import os
import random
import re
import subprocess
import sys
import time
from pathlib import Path

import pytest

from jacdecomp import cli, groups
from jacdecomp import scenario as scenario_module
from jacdecomp.scenario import make_dihedral_scenario, make_fiber_scenario, parse_scenario

GOLDEN_DIR = Path(__file__).parent / "goldens"


def run(argv):
    """Parse argv exactly as main does and return (document, exit code)."""
    parser = cli._build_parser()
    args = parser.parse_args(argv)
    scenario = None
    if getattr(args, "scenario", None) is not None:
        scenario = parse_scenario(args.scenario, max_order=args.max_order)
    return cli.run_command(args.command, scenario, args)


# -- exit code contract ---------------------------------------------------------


def test_analyze_main_collection_passes():
    doc, code = run(["analyze", "d2q?q=3", "--collections", "main"])
    assert code == 0
    assert doc.data["status"] == "ok"
    body = doc.data["collections"]["main"]
    assert body["theorem1"]["dim_p"] == 0
    assert body["theorem1"]["full"] is True
    assert body["admissibility"]["admissible"] is True


def test_analyze_h1h4_emits_discrepancies_and_exit_2():
    doc, code = run(["analyze", "d2q?q=3", "--collections", "h1h4"])
    assert code == 2
    assert doc.data["status"] == "discrepancy"
    kinds = {d["kind"] for d in doc.data["discrepancies"]}
    assert kinds == {"admissible", "fixed_dims"}
    note = next(d for d in doc.data["discrepancies"] if d["kind"] == "fixed_dims")
    assert note["expected"] == 1
    assert note["computed"] == 2
    assert "V6" in note["detail"]


def test_analyze_h1h4_join_ambient_still_flags_table_cell():
    doc, code = run(
        ["analyze", "d2q?q=3", "--collections", "h1h4", "--ambient", "join"]
    )
    assert code == 2
    kinds = {d["kind"] for d in doc.data["discrepancies"]}
    assert kinds == {"fixed_dims"}  # the join verdict itself matches the reference
    body = doc.data["collections"]["h1h4"]
    assert body["join"]["order"] == 4
    assert body["admissibility"]["ambient"] == "join"
    assert body["admissibility"]["admissible"] is False


# one wrong reference expectation per probe collection, on top of the d2q q = 3 scenario
_PROBES = {
    "wrong_genera": {"subgroups": [["s"]], "expect": {"genera": [4]}},
    "wrong_complement": {"subgroups": [["s"]], "expect": {"complement_dim": 5}},
    "wrong_verdict": {
        "subgroups": [["s"]], "expect": {"admissible": False, "join_admissible": False},
    },
    "wrong_join_verdict": {"subgroups": [["s"], ["r^3"]], "expect": {"join_admissible": True}},
    "wrong_dim_p": {"subgroups": [["s"]], "expect": {"dim_p": 5}},
    "wrong_dim_p_inadmissible": {"subgroups": [["s"], ["s"]], "expect": {"dim_p": 1}},
    "full_on_inadmissible": {"subgroups": [["s"], ["s"]], "expect": {"full": True}},
    "wrong_full": {"subgroups": [["s"], ["r"]], "expect": {"full": True}},
    "wrong_fixed_dims": {
        "subgroups": [["s"]],
        "expect": {"fixed_dims": {"columns": ["V2", "V3"], "rows": [[1, 1]]}},
    },
}

_H1H4_CELL = (
    "h1h4", "fixed_dims", 1, 2,
    "fixed dim of V6 (degree 2) under H2: reference table gives 1, engine computes 2",
)
_SHARED_NOTES = {
    "genera": ("wrong_genera", "genera", [4], [5],
               "quotient genera: reference [4], engine computes [5]"),
    "complement": ("wrong_complement", "complement_dim", 5, 6,
                   "genus complement: reference 5, engine computes 6"),
    "dim_p": ("wrong_dim_p", "dim_p", 5, 6, "dim P: reference 5, engine computes 6"),
    "full": ("wrong_full", "full", True, False,
             "full decomposition: reference True, engine False"),
    "cell": ("wrong_fixed_dims", "fixed_dims", 1, 0,
             "fixed dim of V2 (degree 1) under H1: reference table gives 1, engine computes 0"),
}


def _inadmissible_dim_p(ambient):
    return (
        "wrong_dim_p_inadmissible", "dim_p", 1, None,
        "reference expects a decomposition with dim P = 1, but the collection is not "
        f"admissible (ambient {ambient})",
    )


EXPECTATION_NOTES = {
    "acting": [
        ("h1h4", "admissible", True, False,
         "reference calls the collection admissible (ambient acting); "
         "engine verdict is not admissible"),
        _H1H4_CELL,
        _SHARED_NOTES["genera"],
        _SHARED_NOTES["complement"],
        ("wrong_verdict", "admissible", False, True,
         "reference calls the collection not admissible (ambient acting); "
         "engine verdict is admissible"),
        _SHARED_NOTES["dim_p"],
        _inadmissible_dim_p("acting"),
        _SHARED_NOTES["full"],
        _SHARED_NOTES["cell"],
    ],
    "join": [
        _H1H4_CELL,
        _SHARED_NOTES["genera"],
        _SHARED_NOTES["complement"],
        ("wrong_verdict", "join_admissible", False, True,
         "reference calls the collection not admissible (ambient join); "
         "engine verdict is admissible"),
        ("wrong_join_verdict", "join_admissible", True, False,
         "reference calls the collection admissible (ambient join); "
         "engine verdict is not admissible"),
        _SHARED_NOTES["dim_p"],
        _inadmissible_dim_p("join"),
        _SHARED_NOTES["full"],
        _SHARED_NOTES["cell"],
    ],
}


@pytest.mark.parametrize("ambient", sorted(EXPECTATION_NOTES))
def test_every_reference_expectation_branch_notes_exactly(ambient):
    """Each probe carries one wrong expectation; the notes, in order, are pinned."""
    scenario = make_dihedral_scenario(3)
    scenario["collections"].update(copy.deepcopy(_PROBES))
    doc, code = run(["analyze", json.dumps(scenario), "--ambient", ambient])
    assert code == 2
    notes = [
        tuple(d[k] for k in ("collection", "kind", "expected", "computed", "detail"))
        for d in doc.data["discrepancies"]
    ]
    assert notes == EXPECTATION_NOTES[ambient]


def test_analyze_whole_scenario_exits_2_because_of_h1h4():
    doc, code = run(["analyze", "d2q?q=3"])
    assert code == 2
    flagged = {d["collection"] for d in doc.data["discrepancies"]}
    assert flagged == {"h1h4"}


def test_analyze_scores_each_collection_once(monkeypatch):
    """Theorem 1 and Proposition 1 read one admissibility report per collection."""
    scored = []
    admissibility = cli.dec.ActionAnalysis.admissibility

    def counted(self, collection):
        scored.append(tuple(h.members for h in collection))
        return admissibility(self, collection)

    monkeypatch.setattr(cli.dec.ActionAnalysis, "admissibility", counted)
    doc, code = run(["analyze", "d2q?q=3"])
    assert code == 2
    assert len(doc.data["collections"]) == len(scored) == len(set(scored)) == 5


def test_analyze_decides_the_class_labels_once(monkeypatch, capsys):
    """Every section and the fixed_dims check read one class_labels result, although
    main and h1h4 both carry fixed_dims expectations."""
    calls = []
    labels = scenario_module.dihedral_class_labels

    def counted(analysis):
        calls.append(analysis)
        return labels(analysis)

    monkeypatch.setattr(scenario_module, "dihedral_class_labels", counted)
    monkeypatch.setattr(cli, "dihedral_class_labels", counted, raising=False)
    assert cli.main(["analyze", "d2q?q=3"]) == 2
    capsys.readouterr()
    assert len(calls) == 1


def test_a_profile_describes_its_named_subgroup_whichever_collection_ran_first(capsys):
    """pair's join has the members of single's H1; a profile cached for the join must not
    lend single's H1 the join's generators."""
    scenario = make_dihedral_scenario(3)
    scenario["collections"] = {
        "pair": {"subgroups": [["s"], ["s*r^3"]]},
        "single": {"subgroups": [["r^3", "s"]]},
    }
    sections = []
    for order in ("pair,single", "single,pair"):
        assert cli.main(["analyze", json.dumps(scenario), "--collections", order]) == 0
        paragraphs = capsys.readouterr().out.split("\n\n")
        sections.append(next(p for p in paragraphs if p.startswith("collection 'single'")))
    assert sections[0] == sections[1]
    assert "\nH1   <s,r^3>      4      2" in sections[0]


@pytest.mark.parametrize("q", [3, 5, 7])
def test_analyze_reference_collections_clean_for_all_q(q):
    doc, code = run(["analyze", f"d2q?q={q}", "--collections", "main,h1,h1h3"])
    assert code == 0


def test_fiber_command_matches_reference_numbers():
    doc, code = run(["fiber", "--genera", "1,1"])
    assert code == 0
    assert doc.data["plan"]["genus"] == 5
    assert doc.data["plan"]["dim_p"] == 3


def test_fiber_elliptic_command():
    doc, code = run(["fiber", "--elliptic", "5"])
    assert code == 0
    assert doc.data["plan"]["genus"] == 25
    assert doc.data["plan"]["dim_p"] == 20
    assert doc.data["plan"]["elliptic_count"] == 5


def test_fiber_elliptic_over_the_limit_names_the_count_asked_for(capsys):
    """ceil(t/2) factors must fit (Z_2)^11, so t = 22 is the largest plan."""
    assert cli.main(["fiber", "--elliptic", "23"]) == 1
    assert capsys.readouterr().err == "jacdecomp: error: need at most 22 elliptic factors, got 23\n"


def test_fiber_requires_exactly_one_mode():
    with pytest.raises(cli.UsageError):
        run(["fiber"])
    with pytest.raises(cli.UsageError):
        run(["fiber", "--genera", "1,1", "--elliptic", "3"])


def test_theorem_b_command_dihedral():
    doc, code = run(["theorem-b", "d2q?q=3"])
    assert code == 0
    section = doc.data["theorem_b"]
    assert section["holds"] is True
    assert section["dimension_lhs"] == section["dimension_rhs"] == 66


def test_theorem_b_command_fiber():
    doc, code = run(["theorem-b", "fiber?genera=1,1"])
    assert code == 0
    assert doc.data["theorem_b"]["dimension_lhs"] == 10


def test_chartable_command():
    doc, code = run(["chartable", "d2q?q=5"])
    assert code == 0
    assert [r["degree"] for r in doc.data["character_table"]["rows"]] == [1, 1, 1, 1, 2, 2, 2, 2]


def test_search_command_counts():
    doc, code = run(["search", "d2q?q=3", "--max-t", "3", "--require-full"])
    assert code == 0
    assert len(doc.data["results"]) == 11
    assert all(r["genus_sum"] == 11 for r in doc.data["results"])


def test_search_renders_the_reports_it_is_given(monkeypatch):
    """search scores each combination once: rendering a hit builds no second report."""
    expected, _ = run(["search", "d2q?q=3", "--max-t", "2"])

    def refuse(self, collection):
        raise AssertionError("search called theorem1 for a hit it already holds")

    monkeypatch.setattr(cli.dec.ActionAnalysis, "theorem1", refuse)
    doc, code = run(["search", "d2q?q=3", "--max-t", "2"])
    assert code == 0
    assert doc.to_text() == expected.to_text()


def test_unknown_collection_is_usage_error():
    with pytest.raises(cli.UsageError):
        run(["analyze", "d2q?q=3", "--collections", "nope"])


def test_a_repeated_collection_is_usage_error(capsys):
    with pytest.raises(cli.UsageError, match="named twice in h1h4, h1h4"):
        run(["analyze", "d2q?q=3", "--collections", "h1h4,h1h4"])
    assert cli.main(["analyze", "d2q?q=3", "--collections", "main,h1h4,main"]) == 1
    assert "a collection is named twice in main, h1h4, main" in capsys.readouterr().err


def test_main_exit_codes(capsys):
    assert cli.main(["analyze", "d2q?q=3", "--collections", "main"]) == 0
    capsys.readouterr()
    assert cli.main(["analyze", "d2q?q=3", "--collections", "h1h4"]) == 2
    capsys.readouterr()
    assert cli.main(["analyze", "no-such-scenario"]) == 1
    capsys.readouterr()
    assert cli.main(["analyze", "d2q?q=3", "--collections", "nope"]) == 1
    capsys.readouterr()
    assert cli.main(["not-a-command"]) == 1
    capsys.readouterr()
    assert cli.main(["analyze", "d2q?q=4"]) == 1
    capsys.readouterr()


def test_schur_flag_parsing(capsys):
    assert cli.main(["analyze", "d2q?q=3", "--collections", "main", "--schur", "bad"]) == 1
    capsys.readouterr()
    assert cli.main(["search", "d2q?q=3", "--schur", "bad"]) == 1
    capsys.readouterr()
    assert cli.main(["theorem-b", "d2q?q=3", "--schur", "bad"]) == 1
    capsys.readouterr()
    # fiber builds its own action: scenario options are not accepted
    assert cli.main(["fiber", "--genera", "1,1", "--schur", "1=1"]) == 1
    capsys.readouterr()


def test_module_entry_point_subprocess():
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parent.parent / "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    result = subprocess.run(
        [sys.executable, "-m", "jacdecomp", "analyze", "d2q?q=3", "--collections", "h1h4"],
        capture_output=True,
        text=True,
        env=env,
    )
    assert result.returncode == 2
    assert "DISCREPANCY" in result.stdout


# -- document properties ------------------------------------------------------------


@pytest.mark.parametrize("argv", [
    ["analyze", "d2q?q=3"],
    ["analyze", "d2q?q=3", "--ambient", "join"],
    ["chartable", "d2q?q=3"],
    ["search", "d2q?q=3"],
    ["search", "d2q?q=3", "--require-full", "--dedupe-conjugates"],
    ["fiber", "--genera", "2,1"],
    ["fiber", "--elliptic", "5"],
    ["theorem-b", "d2q?q=3"],
    ["theorem-b", "fiber?genera=1,1"],
], ids=["analyze", "analyze-join", "chartable", "search", "search-full-dedupe",
        "fiber-genera", "fiber-elliptic", "theorem-b-d2q", "theorem-b-fiber"])
def test_json_round_trips_losslessly(argv):
    doc, _ = run(argv)
    assert json.loads(doc.to_json()) == doc.data


def test_reports_are_deterministic():
    doc1, _ = run(["analyze", "d2q?q=3"])
    doc2, _ = run(["analyze", "d2q?q=3"])
    assert doc1.to_text() == doc2.to_text()
    assert doc1.to_json() == doc2.to_json()


def _digit_tokens(text: str) -> set[str]:
    return set(re.findall(r"\d+", text))


def _collect_tokens(node, out: set[str]) -> None:
    if isinstance(node, bool) or node is None:
        return
    if isinstance(node, int):
        out.add(str(abs(node)))
    elif isinstance(node, str):
        out.update(_digit_tokens(node))
    elif isinstance(node, dict):
        for key, value in node.items():
            out.update(_digit_tokens(key))
            _collect_tokens(value, out)
    elif isinstance(node, (list, tuple)):
        for value in node:
            _collect_tokens(value, out)


@pytest.mark.parametrize("argv", [
    ["analyze", "d2q?q=3"],
    ["analyze", "fiber?genera=1,1"],
    ["search", "d2q?q=3", "--max-t", "2"],
    ["fiber", "--elliptic", "4"],
    ["theorem-b", "d2q?q=3"],
])
def test_every_number_in_text_exists_in_structured_record(argv):
    doc, _ = run(argv)
    structured: set[str] = set()
    _collect_tokens(doc.data, structured)
    assert _digit_tokens(doc.to_text()) <= structured


# -- golden reports --------------------------------------------------------------------


# Z3 acting freely on a torus: an explicit generators group and one handle pair
Z3_TORUS = json.dumps({
    "name": "z3_torus", "description": "Z3 acting freely on a torus, by translations",
    "group": {"generators": [[1, 2, 0]], "names": ["a"]},
    "action": {"orbit_genus": 1, "periods": [], "vector": [], "handles": [["a", "1"]]},
    "collections": {"main": {"subgroups": [["a"]]}},
})

GOLDEN_CASES = {
    "analyze_d2q_q3.txt": ["analyze", "d2q?q=3"],
    "analyze_d2q_q5.txt": ["analyze", "d2q?q=5"],
    "analyze_d2q_q7.txt": ["analyze", "d2q?q=7"],
    "analyze_d2q_q3_join.txt": ["analyze", "d2q?q=3", "--ambient", "join"],
    "analyze_d2q_q5.json": ["analyze", "d2q?q=5", "--format", "json"],
    "analyze_fiber_1_1.txt": ["analyze", "fiber?genera=1,1"],
    "analyze_fiber_1_1_1.txt": ["analyze", "fiber?genera=1,1,1"],
    "theorem_b_d2q_q3.txt": ["theorem-b", "d2q?q=3"],
    "search_d2q_q5.txt": ["search", "d2q?q=5", "--max-t", "3"],
    "search_d2q_q3_dedupe.txt": ["search", "d2q?q=3", "--max-t", "2", "--dedupe-conjugates"],
    "analyze_z3_torus.txt": ["analyze", Z3_TORUS],
    "fiber_2_1.txt": ["fiber", "--genera", "2,1"],
    "fiber_elliptic_5.txt": ["fiber", "--elliptic", "5"],
    "chartable_d2q_q3.txt": ["chartable", "d2q?q=3"],
}


@pytest.mark.parametrize("name", sorted(GOLDEN_CASES))
def test_golden_reports(name):
    doc, _ = run(GOLDEN_CASES[name])
    rendered = doc.to_json() if name.endswith(".json") else doc.to_text()
    path = GOLDEN_DIR / name
    if os.environ.get("REGEN_GOLDENS") == "1":
        GOLDEN_DIR.mkdir(exist_ok=True)
        path.write_text(rendered, encoding="utf-8")
    assert path.exists(), f"golden file {name} missing; run with REGEN_GOLDENS=1"
    assert rendered == path.read_text(encoding="utf-8")


def test_join_of_trivial_subgroups_is_a_group_with_no_names(capsys):
    """The join of two trivial subgroups is repackaged with no generator names, so its
    spanning tree gives no letters: the report is the one pinned here, exit 0."""
    scenario = json.loads(Z3_TORUS)
    scenario["collections"] = {"trivial": {"subgroups": [["1"], ["1"]]}}
    assert cli.main(["analyze", json.dumps(scenario), "--ambient", "join"]) == 0
    golden = GOLDEN_DIR / "analyze_z3_torus_trivial_join.txt"
    assert capsys.readouterr().out == golden.read_text(encoding="utf-8")


# -- exit-code contract under malformed input ----------------------------------------


def test_closure_stops_at_the_cayley_table_limit(monkeypatch, capsys):
    """A --max-order above the table's limit stops the closure at the limit, before the
    whole group is closed: S5 (order 120) against a limit lowered to 100."""
    monkeypatch.setattr(groups, "TABLE_ORDER_LIMIT", 100)
    s5 = json.dumps({
        "name": "s5", "group": {"generators": [[1, 2, 3, 4, 0], [1, 0, 2, 3, 4]], "names": ["c", "t"]},
        "action": {"orbit_genus": 1, "periods": [], "vector": [], "handles": [["c", "1"]]},
    })
    assert cli.main(["chartable", s5, "--max-order", "1000"]) == 1
    assert "closure exceeded the Cayley table limit 100" in capsys.readouterr().err


def test_order_cap_below_one_exits_1(capsys, tmp_path):
    for cap in ("0", "-5"):
        assert cli.main(["chartable", "d2q?q=3", "--max-order", cap]) == 1
        assert "max_order must be at least 1" in capsys.readouterr().err
    scenario = make_dihedral_scenario(3)
    scenario["options"] = {"max_order": 0}
    path = tmp_path / "capped.json"
    path.write_text(json.dumps(scenario), encoding="utf-8")
    assert cli.main(["chartable", str(path)]) == 1
    assert "max_order must be at least 1" in capsys.readouterr().err


@pytest.mark.parametrize("q", [1000000007 * 1000000009, 318665857834031151167461, 1000000007])
def test_a_huge_d2q_parameter_exits_1_within_a_second(capsys, q):
    """A product of two primes near 10^9, a q at or above psi_12, where primality
    is unproven, and a prime whose 2q reflections would fill the collections:
    each is rejected before any group or collection is built."""
    start = time.monotonic()
    assert cli.main(["chartable", f"d2q?q={q}"]) == 1
    assert time.monotonic() - start < 1.0
    err = capsys.readouterr().err
    assert err.startswith("jacdecomp: error:") and str(q) in err


def test_mistyped_or_misspelt_expectations_exit_1(capsys):
    for expect in ({"admissible": "false"}, {"genra": [99]}):
        scenario = make_dihedral_scenario(3)
        scenario["collections"] = {"probe": {"subgroups": [["s"]], "expect": expect}}
        assert cli.main(["analyze", json.dumps(scenario)]) == 1
        assert "expectation" in capsys.readouterr().err


@pytest.mark.parametrize("fixed_dims, message", [
    # one row under one column, although main has three subgroups and five labels
    ({"columns": ["V2"], "rows": [[0, 1, 0, 1, 1]]}, "has 1 rows for 3 subgroups"),
    (
        {"columns": ["V2", "V3", "V4", "V5", "V6"],
         "rows": [[0, 1, 0, 1, 1], [0, 0, 1, 1], [1, 0, 0, 0, 0]]},
        "row 2 has 4 cells for 5 columns",
    ),
], ids=["one-row", "short-row"])
def test_fixed_dims_table_of_the_wrong_shape_exits_1(capsys, fixed_dims, message):
    """A truncated table is a parse error, not a table checked only as far as it goes."""
    scenario = make_dihedral_scenario(3)
    scenario["collections"]["main"]["expect"]["fixed_dims"] = fixed_dims
    assert cli.main(["analyze", json.dumps(scenario), "--collections", "main"]) == 1
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("preset, column", [
    ((1, 1), "W1"), ((1, 1), "V2"), (None, "W1"),
], ids=["fiber-W1", "fiber-V2", "d2q-W1"])
def test_fixed_dims_columns_off_the_dihedral_labels_exit_1(capsys, preset, column):
    scenario = make_dihedral_scenario(3) if preset is None else make_fiber_scenario(preset)
    rows = len(scenario["collections"]["main"]["subgroups"])
    scenario["collections"]["main"]["expect"]["fixed_dims"] = {
        "columns": [column], "rows": [[0]] * rows,
    }
    assert cli.main(["analyze", json.dumps(scenario), "--collections", "main"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("jacdecomp: error:")
    assert "need the dihedral preset labels" in err


def _d2q_schur_overrides(overrides):
    raw = make_dihedral_scenario(3)
    raw["options"]["schur_overrides"] = overrides
    return json.dumps(raw)


@pytest.mark.parametrize("argv, field", [
    (["chartable", "d2q?q=3", "--schur", "4=1", "--schur", "4=2"], "--schur INDEX '4' repeats row 4"),
    (["chartable", "d2q?q=3", "--schur", "4=1", "--schur", "04=2"], "--schur INDEX '04' repeats row 4"),
    (["chartable", _d2q_schur_overrides({"4": 1, "04": 2})], "schur_overrides key '04' repeats row 4"),
    (["analyze", "d2q?q=3", "--collections", ""], "--collections has an empty name in ''"),
    (["analyze", "d2q?q=3", "--collections", "main,,h1"], "--collections has an empty name"),
    (["analyze", "d2q?q=3", "--collections", "main, "], "--collections has an empty name"),
], ids=["schur-twice", "schur-leading-zero", "scenario-key-leading-zero", "collections-empty",
        "collections-inner-empty", "collections-trailing-blank"])
def test_a_name_given_twice_or_left_empty_exits_1_naming_it(capsys, argv, field):
    """As a collection named twice does, a repeated --schur row or schur_overrides
    key and an empty collection name exit 1: no value silently wins or is dropped."""
    assert cli.main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("jacdecomp") and field in captured.err


def test_a_schur_row_the_scenario_also_sets_takes_the_schur_value():
    doc, code = run(["chartable", _d2q_schur_overrides({"4": 2}), "--schur", "4=1"])
    assert code == 0
    x5 = next(c for c in doc.data["rational_classes"]["classes"] if c["rows"] == [5])
    assert (x5["schur_index"], x5["schur_source"]) == (1, "override")
    doc, _ = run(["chartable", _d2q_schur_overrides({"4": 2})])
    x5 = next(c for c in doc.data["rational_classes"]["classes"] if c["rows"] == [5])
    assert (x5["schur_index"], x5["schur_source"]) == (2, "override")


def test_search_stops_once_no_collection_extends():
    """A --max-t far above the number of subgroups ends as soon as no admissible
    collection is left, with the results of a bound that admits every size.  It
    runs in a child with a timeout, so a search that keeps looping fails."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(Path(__file__).resolve().parent.parent / "src")
    results = []
    for max_t in ("1000000000000", "16"):  # D12 has 16 subgroups
        done = subprocess.run(
            [sys.executable, "-m", "jacdecomp", "search", "d2q?q=3", "--max-t", max_t,
             "--format", "json"],
            capture_output=True, text=True, env=env, timeout=60,
        )
        assert done.returncode == 0, done.stderr
        results.append(json.loads(done.stdout)["results"])
    assert results[0] == results[1] and results[0]


def test_search_max_t_below_one_exits_1(capsys):
    for max_t in ("0", "-1"):
        assert cli.main(["search", "d2q?q=3", "--max-t", max_t]) == 1
        assert "--max-t must be at least 1" in capsys.readouterr().err


_FUZZ_VALUES = (None, "x", "", 0, -1, 7, 2.5, True, [], {}, ["s"], {"q": 3})


def _fuzz_nodes(node):
    """Every (container, key) position in a JSON document, depth first."""
    items = node.items() if isinstance(node, dict) else enumerate(node)
    for key, value in items:
        yield node, key
        if isinstance(value, (dict, list)):
            yield from _fuzz_nodes(value)


def _mutate(doc, rng: random.Random) -> None:
    for _ in range(rng.randint(1, 3)):
        positions = list(_fuzz_nodes(doc))
        if not positions:
            return
        container, key = rng.choice(positions)
        value = container[key]
        kind = rng.choice(("drop", "swap", "word", "empty"))
        if kind == "drop" and isinstance(container, dict):
            del container[key]
        elif kind == "word" and isinstance(value, str) and value:
            i = rng.randrange(len(value))
            container[key] = value[:i] + rng.choice("rsqe*^-0123 ") + value[i + 1:]
        elif kind == "empty" and isinstance(value, (list, dict)):
            container[key] = type(value)()
        else:
            container[key] = copy.deepcopy(rng.choice(_FUZZ_VALUES))


def test_exit_contract_fuzz(capsys):
    """Seeded mutations of the preset scenarios: main returns 0, 1 or 2 and never raises."""
    rng = random.Random(20261018)
    # keys sorted, so the mutations walk the document's positions in a fixed order
    seeds = {
        name: json.dumps(doc, sort_keys=True)
        for name, doc in (
            ("d2q_q3", make_dihedral_scenario(3)),
            ("fiber_1_1", make_fiber_scenario((1, 1))),
            ("fiber_1_1_1", make_fiber_scenario((1, 1, 1))),
        )
    }
    names = tuple(seeds)
    commands = (
        ["analyze"], ["chartable"], ["search", "--max-t", "2"], ["theorem-b"],
        ["chartable", "--schur", "1=2"], ["search", "--max-t", "0"],
    )
    cases = [(["chartable", "d2q?q=3"], ["--max-order", "0"])]
    for _ in range(200):
        doc = json.loads(seeds[rng.choice(names)])
        _mutate(doc, rng)
        command = rng.choice(commands)
        cases.append(([command[0], json.dumps(doc)], command[1:] + ["--max-order", "64"]))
    for head, tail in cases:
        code = cli.main(head + tail)
        capsys.readouterr()
        assert code in (0, 1, 2), (head, tail)


# Non-canonical spellings of a small integer v: int() reads every one but
# "point", "fraction" and "empty" as v (or 10v), and the strict reader none.
_SPELLINGS = {
    "plus": "+{}", "space": " {}", "trailing-space": "{} ", "underscore": "0_{}",
    "arabic-indic": "{}", "fullwidth": "{}", "point": "{}.0", "fraction": "{}/1", "empty": "",
}
_SCRIPTS = {"arabic-indic": 0x660, "fullwidth": 0xFF10}


def _spell(kind: str, value: int) -> str:
    text = _SPELLINGS[kind].format(value)
    if kind in _SCRIPTS:
        text = "".join(chr(_SCRIPTS[kind] + int(c)) for c in text)
    return text


def _word_scenario(exponent: str) -> str:
    doc = make_dihedral_scenario(3)
    doc["action"]["vector"][4] = f"r^{exponent}"  # "r^1" is the canonical word
    return json.dumps(doc)


def _option_error(command: str, option: str) -> str:
    """The start of argparse's message for an option its type rejects."""
    return f"jacdecomp {command}: error: argument {option}: {option} "


# entry point -> (argv for a spelled value, the start of the error that names the field)
_INTEGER_ENTRIES = {
    "preset q": (lambda t: ["chartable", f"d2q?q={t}"], lambda t: "jacdecomp: error: bad parameters for preset 'd2q': q "),
    "preset genera": (
        lambda t: ["chartable", f"fiber?genera={t},1"],
        lambda t: "jacdecomp: error: bad parameters for preset 'fiber': genera ",
    ),
    "--genera": (lambda t: ["fiber", "--genera", f"1,{t}"], lambda t: "jacdecomp: error: --genera "),
    "--schur": (lambda t: ["chartable", "d2q?q=3", f"--schur=1={t}"], lambda t: "jacdecomp: error: --schur VALUE "),
    "word exponent": (
        lambda t: ["chartable", _word_scenario(t)],
        lambda t: f"jacdecomp: error: exponent in word {'r^' + t!r} ",
    ),
    "--max-order": (
        lambda t: ["chartable", "d2q?q=3", "--max-order", t], lambda t: _option_error("chartable", "--max-order"),
    ),
    "--max-t": (lambda t: ["search", "d2q?q=3", "--max-t", t], lambda t: _option_error("search", "--max-t")),
    "--elliptic": (lambda t: ["fiber", "--elliptic", t], lambda t: _option_error("fiber", "--elliptic")),
}


@pytest.mark.parametrize("kind", sorted(_SPELLINGS))
@pytest.mark.parametrize("entry", sorted(_INTEGER_ENTRIES))
def test_every_non_canonical_integer_spelling_exits_1_naming_its_field(capsys, entry, kind):
    """Each integer the input spells goes through one strict reader: a preset
    value, a --genera entry, a --schur side, a word's exponent in a scenario,
    --max-order, --max-t or --elliptic exits 1, and the message names the
    field.  A word may pad its factors and a scenario source is trimmed as a
    whole, so a trailing space at the end of either is no misspelling."""
    argv_of, prefix_of = _INTEGER_ENTRIES[entry]
    value = 3 if entry == "preset q" else 1
    text = _spell(kind, value)
    if entry in ("word exponent", "preset q") and kind == "trailing-space":
        assert cli.main(argv_of(text)) == 0
        return
    assert cli.main(argv_of(text)) == 1, (entry, text)
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(prefix_of(text)), captured.err


@pytest.mark.parametrize("entry", sorted(_INTEGER_ENTRIES))
def test_an_integer_with_more_digits_than_int_reads_exits_1(capsys, entry):
    argv_of, prefix_of = _INTEGER_ENTRIES[entry]
    text = "1" * 5000
    assert cli.main(argv_of(text)) == 1
    assert capsys.readouterr().err.startswith(prefix_of(text))
