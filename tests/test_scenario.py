"""Scenario parsing: presets, JSON documents, words, labeling, expectations."""

import json
import random
import re
from pathlib import Path

import pytest

from jacdecomp import cli
from jacdecomp.decomposition import analyze, fiber_product_action
from jacdecomp.groups import (
    OrderCapExceeded,
    UnknownGenerator,
    build_group,
    preset_elementary_abelian_2,
    preset_quaternion,
)
from jacdecomp.scenario import (
    ParseError,
    ValidationError,
    class_labels,
    dihedral_class_labels,
    make_dihedral_scenario,
    make_fiber_scenario,
    parse_scenario,
)
from conftest import dicyclic_group, dihedral_action, group_library, random_action, semidirect_7_9


def test_preset_reference_d2q():
    scenario = parse_scenario("d2q?q=3")
    assert scenario.name == "d2q_q3"
    assert scenario.group.order == 12
    assert scenario.genus == 11
    assert set(scenario.collections) == {"main", "h1", "h1h3", "h1h4", "partition"}
    assert [h.order for h in scenario.collections["main"].subgroups] == [2, 2, 6]


def test_preset_reference_fiber():
    scenario = parse_scenario("fiber?genera=2,1")
    assert scenario.group.order == 4
    assert scenario.genus == 7
    assert len(scenario.collections["main"].subgroups) == 2


def test_preset_default_parameters():
    assert parse_scenario("d2q").name == "d2q_q3"
    assert parse_scenario("fiber").name == "fiber_1_1"


def test_preset_rejects_non_prime_q():
    with pytest.raises(ParseError):
        parse_scenario("d2q?q=4")
    with pytest.raises(ParseError):
        parse_scenario("d2q?q=9")


def test_unknown_preset_and_bad_params():
    with pytest.raises(ParseError):
        parse_scenario("nonexistent?x=1")
    with pytest.raises(ParseError):
        parse_scenario("d2q?q=three")
    with pytest.raises(ParseError):
        parse_scenario("d2q?q3")
    for reference in ("d2q?Q=7", "d2q?p=5", "fiber?q=3", "fiber?genera=1,1&g=2",
                      "d2q?q=3&q=5", "d2q?q=5&q=5", "fiber?genera=1,1&genera=1,2"):
        with pytest.raises(ParseError, match="takes (q|genera), once$"):
            parse_scenario(reference)
    assert parse_scenario("d2q").genus == parse_scenario("d2q?q=3").genus == 11
    assert parse_scenario("fiber").genus == parse_scenario("fiber?genera=1,1").genus == 5


def test_an_unknown_or_repeated_preset_parameter_exits_1(capsys):
    for reference in ("d2q?Q=7", "d2q?q=3&q=5"):
        assert cli.main(["chartable", reference]) == 1
        err = capsys.readouterr().err
        assert err.startswith("jacdecomp: error:") and "'d2q' takes q, once" in err


def test_parse_from_json_text_and_dict():
    raw = make_fiber_scenario((1, 1))
    from_text = parse_scenario(json.dumps(raw))
    from_dict = parse_scenario(raw)
    assert from_text.genus == from_dict.genus == 5


def test_parse_from_file(tmp_path):
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(make_dihedral_scenario(3)), encoding="utf-8")
    scenario = parse_scenario(str(path))
    assert scenario.genus == 11
    scenario_via_path = parse_scenario(Path(path))
    assert scenario_via_path.genus == 11


def test_bad_json_reports_location():
    with pytest.raises(ParseError) as err:
        parse_scenario('{"group": [,]}')
    assert "line 1" in str(err.value)


def test_non_object_json_rejected():
    with pytest.raises(ParseError):
        parse_scenario("[1, 2]")


def test_missing_sections_rejected():
    with pytest.raises(ParseError):
        parse_scenario({"group": {"preset": "quaternion"}})


def test_unknown_generator_in_vector():
    raw = make_dihedral_scenario(3)
    raw["action"]["vector"][0] = "t"
    with pytest.raises(UnknownGenerator):
        parse_scenario(raw)


def test_invalid_vector_wrapped_as_validation_error():
    raw = make_dihedral_scenario(3)
    raw["action"]["vector"] = ["s", "s", "s*r", "s*r", "r", "r"]
    with pytest.raises(ValidationError) as err:
        parse_scenario(raw)
    assert "long relation" in str(err.value)


def test_element_index_literals_accepted():
    raw = make_fiber_scenario((1, 1))
    scenario = parse_scenario(raw)
    indices = list(scenario.action.branch_elements)
    raw["action"]["vector"] = indices
    again = parse_scenario(raw)
    assert again.action.branch_elements == scenario.action.branch_elements
    assert again.genus == scenario.genus


def test_word_subgroups_resolve():
    scenario = parse_scenario("d2q?q=5")
    h4 = scenario.collections["h1h4"].subgroups[1]
    assert h4.order == 2
    r = scenario.group.generator_names["r"]
    assert scenario.group.power(r, 5) in h4


def test_schur_overrides_parsed():
    raw = make_dihedral_scenario(3)
    raw["options"]["schur_overrides"] = {"0": 1}
    scenario = parse_scenario(raw)
    assert scenario.schur_overrides == {0: 1}


def test_dihedral_class_labels_complete():
    for q in (3, 5, 7):
        scenario = parse_scenario(f"d2q?q={q}")
        analysis = analyze(scenario.action)
        labels = dihedral_class_labels(analysis)
        assert labels is not None
        assert sorted(labels) == ["V1", "V2", "V3", "V4", "V5", "V6"]
        assert analysis.rational_classes[labels["V1"]].is_trivial()
        assert analysis.rational_classes[labels["V5"]].degree == 2
        assert analysis.rational_classes[labels["V6"]].degree == 2
        assert labels["V5"] != labels["V6"]


LINEAR_LABELS = {"V1": 0, "V4": 1, "V3": 2, "V2": 3}


@pytest.mark.parametrize("q, expected", [
    (3, {**LINEAR_LABELS, "V6": 4, "V5": 5}),
    (4, {**LINEAR_LABELS, "V5": 4, "V6": 5}),  # the primitive 2q-th root's class comes first here
    (6, None),  # eight rational classes, as for q = 9
    (9, None),
], ids=["q3", "q4", "q6", "q9"])
def test_dihedral_class_labels_are_pinned(q, expected):
    assert dihedral_class_labels(analyze(dihedral_action(q)[1])) == expected


@pytest.mark.parametrize(
    "build", [preset_quaternion, lambda: preset_elementary_abelian_2(3)], ids=["Q8", "Z2^3"]
)
def test_dihedral_class_labels_are_none_off_the_dihedral_family(build):
    action = random_action(build(), random.Random(5))
    assert dihedral_class_labels(analyze(action)) is None


def _labels_from_character_values(analysis):
    """The labelling read off each representative's complex values, as an
    oracle: a value that is not an integer leaves the group unlabelled."""
    group = analysis.group
    names = group.generator_names
    if set(names) != {"r", "s"}:
        return None
    r_idx, s_idx = names["r"], names["s"]
    two_q = group.element_order(r_idx)
    if two_q % 2 or group.order != 2 * two_q or group.exponent != two_q:
        return None
    if len(analysis.rational_classes) != 6:
        return None
    class_of = analysis.table.classes.class_of
    r_cls, s_cls = class_of[r_idx], class_of[s_idx]
    half_cls = class_of[group.power(r_idx, two_q // 2)]
    labels = {}
    for idx, rc in enumerate(analysis.rational_classes):
        values = rc.character.values
        try:
            if rc.is_trivial():
                key = "V1"
            elif rc.degree == 1:
                key = {(1, -1): "V2", (-1, 1): "V3", (-1, -1): "V4"}.get(
                    (values[r_cls].as_integer(), values[s_cls].as_integer()))
            elif rc.degree == 2:
                key = {-2: "V5", 2: "V6"}.get(values[half_cls].as_integer())
            else:
                return None
        except ValueError:
            return None
        if key is None:
            return None
        labels[key] = idx
    return labels if len(labels) == 6 else None


@pytest.mark.parametrize("q", [3, 5, 7, 11, 13])
def test_dihedral_class_labels_agree_with_the_character_values_on_d2q(q):
    analysis = analyze(parse_scenario(f"d2q?q={q}").action)
    labels = dihedral_class_labels(analysis)
    assert labels is not None and labels == _labels_from_character_values(analysis)


TWO_GENERATOR_GROUPS = [g for g in group_library() if len(g.generator_names) == 2] + [
    semidirect_7_9(), dicyclic_group(3), dicyclic_group(4)
]


@pytest.mark.parametrize("group", TWO_GENERATOR_GROUPS,
                         ids=lambda g: f"{g.order}:{','.join(sorted(g.generator_names))}")
@pytest.mark.parametrize("swap", [False, True], ids=["rs", "sr"])
def test_dihedral_class_labels_agree_with_the_character_values_under_names_r_and_s(group, swap):
    """Each two-generator group, rebuilt with its generators named r and s (in
    either order), gets the labels its representatives' values give."""
    gens = sorted(group.generator_names.values(), reverse=swap)
    rebuilt = build_group([group.elements[g] for g in gens], ["r", "s"])
    analysis = analyze(random_action(rebuilt, random.Random(7)))
    assert dihedral_class_labels(analysis) == _labels_from_character_values(analysis)


@pytest.mark.parametrize("genera", [(1, 1), (2, 1), (1, 1, 1), (3, 1, 2)], ids=str)
def test_the_fiber_preset_and_the_fiber_plan_build_one_action(genera):
    scenario = parse_scenario(make_fiber_scenario(genera))
    plan = fiber_product_action(genera)
    assert scenario.action.periods == plan.action.periods
    assert scenario.action.branch_elements == plan.action.branch_elements
    assert [set(h) for h in scenario.collections["main"].subgroups] == [
        set(k) for k in plan.deck_subgroups
    ]


def test_class_labels_generic_fallback():
    scenario = parse_scenario("fiber?genera=1,1")
    analysis = analyze(scenario.action)
    assert dihedral_class_labels(analysis) is None
    assert class_labels(analysis) == ((0, "W1"), (1, "W2"), (2, "W3"), (3, "W4"))


@pytest.mark.parametrize("q, expected", [
    (3, ((0, "V1"), (3, "V2"), (2, "V3"), (1, "V4"), (5, "V5"), (4, "V6"))),
    (4, ((0, "V1"), (3, "V2"), (2, "V3"), (1, "V4"), (4, "V5"), (5, "V6"))),
], ids=["q3", "q4"])
def test_class_labels_are_v1_to_v6_in_display_order(q, expected):
    """The two engine class orders (see the pinned label maps) give one display order."""
    assert class_labels(analyze(dihedral_action(q)[1])) == expected


def _with_expectations(**expect):
    raw = make_dihedral_scenario(3)
    raw["collections"] = {"probe": {"subgroups": [["s"]], "expect": expect}}
    return raw


def test_expectations_are_read_as_given():
    expect = parse_scenario(_with_expectations(
        admissible=True, full=False, dim_p=6, genera=[5],
        fixed_dims={"columns": ["V2"], "rows": [[0]]},
    )).collections["probe"].expect
    assert expect == {
        "admissible": True, "full": False, "dim_p": 6, "genera": [5],
        "fixed_dims": {"columns": ["V2"], "rows": [[0]]},
    }


@pytest.mark.parametrize("key, value", [
    ("admissible", "false"),
    ("join_admissible", 0),
    ("full", None),
    ("partition", 1),
    ("dim_p", True),
    ("dim_p", 6.0),
    ("complement_dim", "1"),
    ("genera", 5),
    ("genera", [5, "5"]),
    ("genera", [False]),
    ("fixed_dims", {"columns": ["V2"], "rows": [[0.0]]}),
    ("fixed_dims", {"columns": ["V2"], "rows": [True]}),
    ("fixed_dims", {"columns": [2], "rows": [[0]]}),
])
def test_expectations_of_the_wrong_type_are_parse_errors(key, value):
    with pytest.raises(ParseError, match=f"expectation '{key}'"):
        parse_scenario(_with_expectations(**{key: value}))


@pytest.mark.parametrize("fixed_dims", [
    {"columns": ["V2"], "rows": []},
    {"columns": ["V2"], "rows": [[0], [0]]},
    {"columns": ["V2"], "rows": [[0, 1]]},
    {"columns": ["V2", "V3"], "rows": [[0]]},
])
def test_fixed_dims_needs_one_row_per_subgroup_and_one_cell_per_column(fixed_dims):
    with pytest.raises(ParseError, match="expectation 'fixed_dims' (has|row 1 has)"):
        parse_scenario(_with_expectations(fixed_dims=fixed_dims))


def test_unknown_expectation_is_a_parse_error_naming_it():
    with pytest.raises(ParseError, match="unknown expectation 'genra'"):
        parse_scenario(_with_expectations(admissible=True, genra=[99]))


def _misspelt(path, key=None, value=None):
    """A scenario that runs as it stands, with key: value (if a key is given)
    added to the object at path: in d2q's q = 3 document, or in the "fiber",
    "quaternion" or "klein" one that path starts with."""
    head = path[0] if path else None
    if head == "fiber":
        raw = make_fiber_scenario((1, 1))
    elif head == "quaternion":  # i, j and (ij)^-1, each of order 4: genus 2
        raw = {"group": {"preset": "quaternion"},
               "action": {"orbit_genus": 0, "periods": [4, 4, 4], "vector": ["i", "j", "j^-1*i^-1"]}}
    elif head == "klein":
        raw = _klein()
    else:
        raw = make_dihedral_scenario(3)
    node = raw
    for step in path[1:] if head in ("fiber", "quaternion", "klein") else path:
        node = node[step]
    if key is not None:
        node[key] = value
    return raw


@pytest.mark.parametrize("path, key, value, field", [
    ((), "descripton", "a typo", "scenario"),
    (("group",), "qq", 5, "group"),
    (("fiber", "group"), "tt", 2, "group"),
    (("quaternion", "group"), "q", 3, "group"),
    (("klein", "group"), "name", ["a", "b"], "group"),
    (("action",), "handle", [], "action"),
    (("collections", "h1"), "expects", {"admissible": False}, "collection 'h1'"),
    (("options",), "schur_override", {"4": 2}, "options"),
    (("collections", "main", "expect", "fixed_dims"), "row", [], "expectation 'fixed_dims'"),
], ids=["top-level", "dihedral-group", "elementary-abelian-group", "quaternion-group",
        "generators-group", "action", "collection", "options", "fixed-dims"])
def test_a_misspelt_key_exits_1_naming_its_object_and_the_key(capsys, tmp_path, path, key, value, field):
    """No object drops a key it does not read: each misspelling, in a document that
    runs without it, exits 1 as text and as a file, naming the object and the key."""
    raw = _misspelt(path, key, value)
    file = tmp_path / "misspelt.json"
    file.write_text(json.dumps(raw), encoding="utf-8")
    for source in (json.dumps(raw), str(file)):
        assert cli.main(["chartable", source]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"jacdecomp: error: {field} has unknown key {key!r}")


@pytest.mark.parametrize("path", [(), ("fiber",), ("quaternion",), ("klein",)],
                         ids=["d2q", "fiber", "quaternion", "klein"])
def test_each_document_a_key_is_misspelt_in_runs_without_it(capsys, path):
    assert cli.main(["chartable", json.dumps(_misspelt(path))]) == 0
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize("group", [
    {"preset": "quaternion"},
    {"preset": "dihedral", "q": 3},
    {"preset": "elementary_abelian_2", "t": 3},
])
def test_group_presets_honour_the_order_cap(group):
    with pytest.raises(OrderCapExceeded):
        parse_scenario({"group": group, "action": {}, "options": {"max_order": 4}})


def _d2q_with(value, *path):
    """The q = 3 dihedral scenario with raw[path[0]]...[path[-1]] set to value."""
    raw = make_dihedral_scenario(3)
    node = raw
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    return raw


@pytest.mark.parametrize("raw, field", [
    (_d2q_with(2.7, "action", "periods", 0), "action 'periods'"),
    (_d2q_with(0.9, "action", "orbit_genus"), "action 'orbit_genus'"),
    (_d2q_with(True, "action", "orbit_genus"), "action 'orbit_genus'"),
    (_d2q_with(3.6, "group", "q"), "group 'q'"),
    (_d2q_with("3", "group", "q"), "group 'q'"),
    ({"group": {"preset": "elementary_abelian_2", "t": 2.0}, "action": {}}, "group 't'"),
    (_d2q_with(12.9, "options", "max_order"), "max_order"),
    (_d2q_with("12", "options", "max_order"), "max_order"),
    (_d2q_with({"0": 1.5}, "options", "schur_overrides"), "schur_overrides"),
    (_d2q_with(True, "action", "vector", 0), "element must be a word or index"),
    ({"group": {"generators": [[True, 0]]}, "action": {}}, "group 'generators'"),
], ids=[
    "period-float", "orbit-genus-float", "orbit-genus-bool", "q-float", "q-string", "t-float",
    "max-order-float", "max-order-string", "schur-override-float", "element-bool",
    "generator-image-bool",
])
def test_a_count_that_is_not_an_exact_json_integer_is_a_parse_error(raw, field):
    with pytest.raises(ParseError, match=f"^{field}"):
        parse_scenario(raw)


@pytest.mark.parametrize("body, field", [
    ("sr", "collection needs a JSON dict"),
    (["s", "r"], "collection needs a JSON dict"),
    ({"subgroups": "sr"}, "collection subgroups needs a JSON list"),
    ({"subgroups": ["sr"]}, "collection subgroups needs a JSON list"),
    ({"subgroups": [["s"]], "expect": [["admissible", True]]}, "collection expect needs a JSON dict"),
], ids=["string", "word-list", "subgroups-string", "word-list-string", "expect-pairs"])
def test_a_collection_of_another_shape_is_a_parse_error(body, field):
    raw = make_dihedral_scenario(3)
    raw["collections"] = {"c": body}
    with pytest.raises(ParseError, match=f"^{field}"):
        parse_scenario(raw)


@pytest.mark.parametrize("path, value", [
    (("collections",), ""),
    (("collections",), []),
    (("collections",), None),
    (("name",), 7),
    (("options",), ""),
    (("options",), []),
    (("options",), None),
    (("options", "schur_overrides"), ""),
    (("options", "schur_overrides"), []),
    (("options", "schur_overrides"), None),
    (("description",), [1, 2]),
    (("description",), {"x": 1}),
], ids=[
    "collections-empty-string", "collections-empty-list", "collections-null", "name-int",
    "options-empty-string", "options-empty-list", "options-null",
    "schur-overrides-empty-string", "schur-overrides-empty-list", "schur-overrides-null",
    "description-list", "description-object",
])
def test_a_top_level_field_of_another_type_exits_1_naming_it(capsys, path, value):
    raw = _d2q_with(value, *path)
    with pytest.raises(ParseError, match=f"^{path[-1]} needs a JSON"):
        parse_scenario(raw)
    assert cli.main(["chartable", json.dumps(raw)]) == 1
    assert capsys.readouterr().err.startswith(f"jacdecomp: error: {path[-1]} needs a JSON")


@pytest.mark.parametrize("text", [" 1", "+1", "\u0661", "1_0", "1.5", "-1", ""],
                         ids=["space", "plus", "arabic-indic-one", "underscore", "point", "minus", "empty"])
@pytest.mark.parametrize("entry", ["scenario key", "--schur INDEX", "--schur VALUE"])
def test_a_schur_row_or_index_that_is_not_plain_ascii_digits_exits_1_naming_it(capsys, entry, text):
    """int() would read " 1", "+1" and "\u0661" as 1 and "1_0" as 10: one strict parser
    serves the scenario's schur_overrides keys and both sides of --schur."""
    if entry == "scenario key":
        raw = _d2q_with({text: 1}, "options", "schur_overrides")
        field = "schur_overrides key"
        with pytest.raises(ParseError, match=f"^{field} needs plain ASCII decimal digits"):
            parse_scenario(raw)
        argv = ["chartable", json.dumps(raw)]
    else:
        field = entry
        pair = f"{text}=1" if entry.endswith("INDEX") else f"1={text}"
        argv = ["chartable", "d2q?q=3", f"--schur={pair}"]  # one token, so "-1=1" is no option
    assert cli.main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"jacdecomp: error: {field} needs plain ASCII decimal digits, got {text!r}\n"


def test_plain_ascii_digits_are_read_as_the_schur_row_and_index():
    raw = _d2q_with({"01": 1, "2": 1}, "options", "schur_overrides")
    assert parse_scenario(raw).schur_overrides == {1: 1, 2: 1}
    assert cli._parse_schur(["1=2", "03=1"]) == {1: 2, 3: 1}


def test_an_absent_name_collections_or_options_takes_its_default():
    raw = make_fiber_scenario((1, 1))
    for key in ("name", "description", "collections", "options"):
        del raw[key]
    scenario = parse_scenario(raw)
    assert (scenario.name, scenario.description, scenario.collections, scenario.schur_overrides) == (
        "scenario", "", {}, {}
    )
    presets = {"d2q?q=3": "d2q_q3", "d2q?q=13": "d2q_q13",
               "fiber?genera=1,1": "fiber_1_1", "fiber?genera=2,1,1": "fiber_2_1_1"}
    for reference, name in presets.items():
        assert parse_scenario(reference).name == name


@pytest.mark.parametrize("genera", [(True, 1), (True, 1.9), (2.7, 1), (1, 1.0), ("1", 1)],
                         ids=["bool", "bool-and-float", "float", "integral-float", "string"])
def test_a_fiber_genus_that_is_not_an_exact_int_is_a_parse_error(genera):
    with pytest.raises(ParseError, match="^fiber scenario: factor genera must be ints >= 1"):
        make_fiber_scenario(genera)


def test_the_fiber_preset_reads_its_genera_as_ints(capsys):
    assert parse_scenario("fiber?genera=1,1").name == "fiber_1_1"
    assert cli.main(["chartable", "fiber?genera=1.5,1"]) == 1
    assert capsys.readouterr().err.startswith("jacdecomp: error: bad parameters for preset 'fiber'")


def test_a_fractional_period_exits_1_naming_the_field(capsys):
    raw = make_dihedral_scenario(3)
    raw["action"]["periods"][0] = 2.5
    assert cli.main(["chartable", json.dumps(raw)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("jacdecomp: error:") and "action 'periods'" in err


def _klein(**changes):
    """V4 on four points, generated by a and b, acting with four branch points of
    periods (2, 2, 2, 2) over a sphere.  Each keyword names a path through the
    document, its keys joined by "__", and replaces the value there."""
    raw = {
        "group": {"generators": [[1, 0, 3, 2], [2, 3, 0, 1]], "names": ["a", "b"]},
        "action": {"orbit_genus": 0, "periods": [2, 2, 2, 2],
                   "vector": ["a", "b", "a", "b"], "handles": []},
    }
    for path, value in changes.items():
        *outer, last = path.split("__")
        target = raw
        for key in outer:
            target = target[key]
        target[last] = value
    return raw


@pytest.mark.parametrize("raw, field", [
    (_klein(action__vector="abab"), "action 'vector' needs a JSON list"),
    (_klein(action__orbit_genus=1, action__periods=[], action__vector=[], action__handles=["ab"]),
     "action 'handles' needs a JSON list"),
    (_klein(action__handles="ab"), "action 'handles' needs a JSON list"),
    (_klein(action__orbit_genus=1, action__handles=[["a", "b", "a"]]),
     "action 'handles' needs pairs of two elements"),
    (_klein(action=[1]), "action needs a JSON dict"),
    (_klein(group__names="ab"), "group 'names' needs a JSON list"),
    (_klein(group__names=["a", 2]), "group 'names' needs a JSON str"),
], ids=["vector-string", "handle-string", "handles-string", "handle-of-three", "action-list",
        "names-string", "name-int"])
def test_the_action_and_group_containers_exit_1_naming_their_field(capsys, raw, field):
    """A string is not read letter by letter as a vector, a handle pair or a list of
    names, and a container of another shape names its field, not a Python error."""
    assert cli.main(["chartable", json.dumps(_klein())]) == 0
    capsys.readouterr()
    with pytest.raises(ParseError, match=f"^{field}"):
        parse_scenario(raw)
    assert cli.main(["chartable", json.dumps(raw)]) == 1
    assert capsys.readouterr().err.startswith(f"jacdecomp: error: {field}")


_D2Q3_TEXT = json.dumps(_d2q_with({"4": 1}, "options", "schur_overrides"))


@pytest.mark.parametrize("text, key", [
    (_D2Q3_TEXT.replace('{"4": 1}', '{"4": 1, "4": 2}'), "'4'"),
    (_D2Q3_TEXT.replace('"collections": {', '"collections": {"main": {"subgroups": [["r"]]}, '), "'main'"),
    (_D2Q3_TEXT.replace('"subgroups": [["s"]], ', '"subgroups": [["s"]], "subgroups": [["r"]], '), "'subgroups'"),
    (_D2Q3_TEXT.replace('"options": {', '"options": {"max_order": 64, "max_order": 8, '), "'max_order'"),
], ids=["schur-override", "collection", "collection-subgroups", "option"])
def test_a_repeated_key_at_any_depth_exits_1_naming_it(capsys, tmp_path, text, key):
    """JSON lets an object repeat a key, and a plain load keeps the last value:
    a scenario's file or text that repeats one is rejected instead."""
    assert text != _D2Q3_TEXT
    assert parse_scenario(_D2Q3_TEXT).schur_overrides == {4: 1}
    path = tmp_path / "repeated.json"
    path.write_text(text, encoding="utf-8")
    for source, origin in ((text, "<text>"), (path, str(path))):
        with pytest.raises(ParseError, match=f"^{re.escape(origin)}: repeated key {key}$"):
            parse_scenario(source)
    assert cli.main(["chartable", text]) == 1
    assert capsys.readouterr().err == f"jacdecomp: error: <text>: repeated key {key}\n"
