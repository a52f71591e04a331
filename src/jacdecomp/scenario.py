"""Scenario files: JSON descriptions of a group action plus named collections.

A scenario resolves to a validated covering action, named subgroup
collections (with optional reference expectations used for discrepancy
checks), and engine options.  Presets for the bundled families are generated
here, as the same JSON documents a scenario file holds.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Mapping, NamedTuple, Sequence

from .covering import CoveringAction, CoveringError, validate_action
from .cyclotomic import is_prime
from .decomposition import ActionAnalysis, DecompositionError, fiber_closed_forms, fiber_generators
from .groups import (
    DEFAULT_ORDER_CAP,
    TABLE_ORDER_LIMIT,
    FiniteGroup,
    Permutation,
    Subgroup,
    UnknownGenerator,
    build_group,
    element_from_word,
    parse_integer,
    preset_dihedral,
    preset_elementary_abelian_2,
    preset_quaternion,
    subgroup_generate,
)


class ScenarioError(Exception):
    """Base error for scenario handling."""


class ParseError(ScenarioError):
    """The scenario document or preset reference cannot be parsed."""


class ValidationError(ScenarioError):
    """The scenario parsed but its action data failed validation."""


class CollectionSpec(NamedTuple):
    """One named subgroup collection with optional reference expectations."""

    name: str
    word_lists: tuple[tuple[str, ...], ...]
    subgroups: tuple[Subgroup, ...]
    expect: dict


class ScenarioFile(NamedTuple):
    """A parsed scenario: group, validated action, named collections."""

    name: str
    description: str
    group: FiniteGroup
    action: CoveringAction
    genus: int
    collections: dict[str, CollectionSpec]
    schur_overrides: dict[int, int]


# -- preset scenario generators -------------------------------------------------


def make_dihedral_scenario(q: int) -> dict:
    """Bundled dihedral family: order 4q acting on a genus 4q-1 surface.

    Six branch points: two with reflection stabilizer of each conjugacy type
    and two with the full rotation stabilizer.  q must be an odd prime, and
    4q must fit the Cayley table, since a collection lists all 2q reflections.
    """
    if q < 3 or q % 2 == 0 or 4 * q > TABLE_ORDER_LIMIT or not is_prime(q):
        raise ParseError(f"the d2q family needs an odd prime q with 4q <= {TABLE_ORDER_LIMIT}, got {q}")
    gq = 2 * q - 1
    reflections = [
        ["s"] if i == 0 else (["s*r"] if i == 1 else [f"s*r^{i}"])
        for i in range(2 * q)
    ]
    return {
        "name": f"d2q_q{q}",
        "description": (
            f"Dihedral group of order {4 * q} acting with six branch points "
            f"on a surface of genus {4 * q - 1}"
        ),
        "group": {"preset": "dihedral", "q": q},
        "action": {
            "orbit_genus": 0,
            "periods": [2, 2, 2, 2, 2 * q, 2 * q],
            "vector": ["s", "s", "s*r", "s*r", "r", "r^-1"],
            "handles": [],
        },
        "collections": {
            "main": {
                "subgroups": [["s"], ["s*r"], ["r"]],
                "expect": {
                    "admissible": True,
                    "genera": [gq, gq, 1],
                    "dim_p": 0,
                    "full": True,
                    "fixed_dims": {
                        "columns": ["V2", "V3", "V4", "V5", "V6"],
                        "rows": [
                            [0, 1, 0, 1, 1],
                            [0, 0, 1, 1, 1],
                            [1, 0, 0, 0, 0],
                        ],
                    },
                },
            },
            "h1": {
                "subgroups": [["s"]],
                "expect": {"admissible": True, "genera": [gq], "dim_p": 2 * q},
            },
            "h1h3": {
                "subgroups": [["s"], ["r"]],
                "expect": {
                    "admissible": True,
                    "genera": [gq, 1],
                    "dim_p": gq,
                    "full": False,
                },
            },
            "h1h4": {
                "subgroups": [["s"], [f"r^{q}"]],
                "expect": {
                    "admissible": True,
                    "join_admissible": False,
                    "genera": [gq, gq],
                    "complement_dim": 1,
                    "fixed_dims": {
                        "columns": ["V2", "V3", "V4", "V5", "V6"],
                        "rows": [
                            [0, 1, 0, 1, 1],
                            [1, 0, 0, 0, 1],
                        ],
                    },
                },
            },
            "partition": {
                "subgroups": [["r"]] + reflections,
                "expect": {"partition": True},
            },
        },
        "options": {},
    }


def make_fiber_scenario(genera: Sequence[int]) -> dict:
    """Bundled fiber-product family over an elementary abelian 2-group."""
    genera = list(genera)
    if len(genera) < 2:
        raise ParseError(f"fiber scenarios need at least two genera, got {genera}")
    try:
        total, dim_p = fiber_closed_forms(genera)
    except DecompositionError as exc:
        raise ParseError(f"fiber scenario: {exc}") from None
    t = len(genera)
    vector, deck = fiber_generators(genera)
    collections: dict = {
        "main": {
            "subgroups": deck,
            "expect": {
                "admissible": True,
                "genera": genera,
                "dim_p": dim_p,
                "full": dim_p == 0,
            },
        }
    }
    if t == 2:
        collections["partition"] = {
            "subgroups": [["e1"], ["e2"], ["e1*e2"]],
            "expect": {"partition": True},
        }
    tag = "_".join(str(g) for g in genera)
    return {
        "name": f"fiber_{tag}",
        "description": (
            f"Fiber product of {t} hyperelliptic double covers with factor "
            f"genera {genera}; total genus {total}"
        ),
        "group": {"preset": "elementary_abelian_2", "t": t},
        "action": {
            "orbit_genus": 0,
            "periods": [2] * len(vector),
            "vector": vector,
            "handles": [],
        },
        "collections": collections,
        "options": {},
    }


# each preset's one parameter, its default, and the builder that reads it
_PRESETS = {
    "d2q": ("q", "3", lambda field, q: make_dihedral_scenario(parse_integer(field, q, ParseError))),
    "fiber": ("genera", "1,1", lambda field, genera: make_fiber_scenario(
        [parse_integer(field, g, ParseError) for g in genera.split(",")]
    )),
}


def _resolve_preset(reference: str) -> dict:
    name, _, query = reference.partition("?")
    if name not in _PRESETS:
        raise ParseError(f"unknown preset {name!r}; available: {', '.join(sorted(_PRESETS))}")
    key, value, build = _PRESETS[name]
    for n, part in enumerate(query.split("&") if query else ()):
        given, eq, value = part.partition("=")
        if not eq or n or given.strip() != key:  # a second part repeats or is unknown
            raise ParseError(f"bad preset parameter {part!r}; {name!r} takes {key}, once")
    return build(f"bad parameters for preset {name!r}: {key}", value)


# -- document -> ScenarioFile -----------------------------------------------------


def _build_group(spec, order_cap: int) -> FiniteGroup:
    if not isinstance(spec, dict):
        raise ParseError("group spec must be an object")
    if "preset" in spec:
        preset = spec["preset"]
        if preset == "dihedral":
            _known("group", spec, ("preset", "q"))
            return preset_dihedral(_typed("group 'q'", spec["q"], int), order_cap=order_cap)
        if preset == "elementary_abelian_2":
            _known("group", spec, ("preset", "t"))
            return preset_elementary_abelian_2(_typed("group 't'", spec["t"], int), order_cap=order_cap)
        if preset == "quaternion":
            _known("group", spec, ("preset",))
            return preset_quaternion(order_cap=order_cap)
        raise ParseError(f"unknown group preset {preset!r}")
    if "generators" in spec:
        _known("group", spec, ("generators", "names"))
        perms = [
            Permutation(tuple(_typed("group 'generators'", x, int) for x in images))
            for images in spec["generators"]
        ]
        names = spec.get("names")
        if names is not None:
            names = [_typed("group 'names'", n, str) for n in _typed("group 'names'", names, list)]
        return build_group(perms, names, order_cap=order_cap)
    raise ParseError("group spec needs either 'preset' or 'generators'")


def _resolve_element(group: FiniteGroup, token) -> int:
    if type(token) is int:  # the rule of _typed: a bool is no index
        return group.check_index(token)
    if isinstance(token, str):
        return element_from_word(group, token)
    raise ParseError(f"element must be a word or index, got {token!r}")


_EXPECTATION_TYPES = {
    "admissible": bool, "join_admissible": bool, "full": bool, "partition": bool,
    "dim_p": int, "complement_dim": int, "genera": list, "fixed_dims": dict,
}


def _typed(field: str, value, kind: type):
    """The value itself, if its type is exactly ``kind`` (so a bool, a float or a
    numeric string is no int); else a ParseError naming the field."""
    if type(value) is not kind:
        raise ParseError(f"{field} needs a JSON {kind.__name__}, got {value!r}")
    return value


def _known(field: str, spec: dict, keys: tuple[str, ...]) -> dict:
    """The object itself, if it has no key outside ``keys``, the keys its reader
    reads; else a ParseError naming the object and the first unknown key."""
    unknown = [key for key in spec if key not in keys]
    if unknown:
        raise ParseError(f"{field} has unknown key {unknown[0]!r}; it reads {', '.join(keys)}")
    return spec


def _expectations(raw, subgroups: int) -> dict:
    """A collection's reference expectations, every value checked to be of its type.

    A fixed_dims table needs one row per subgroup and one cell per column.
    """
    expect = _typed("collection expect", raw, dict)
    for key, value in expect.items():
        if key not in _EXPECTATION_TYPES:
            raise ParseError(f"unknown expectation {key!r}")
        _typed(f"expectation {key!r}", value, _EXPECTATION_TYPES[key])
    for g in expect.get("genera", ()):
        _typed("expectation 'genera'", g, int)
    if "fixed_dims" in expect:
        _known("expectation 'fixed_dims'", expect["fixed_dims"], ("columns", "rows"))
        columns = _typed("expectation 'fixed_dims'", expect["fixed_dims"]["columns"], list)
        for c in columns:
            _typed("expectation 'fixed_dims'", c, str)
        rows = _typed("expectation 'fixed_dims'", expect["fixed_dims"]["rows"], list)
        if len(rows) != subgroups:
            raise ParseError(
                f"expectation 'fixed_dims' has {len(rows)} rows for {subgroups} subgroups"
            )
        for i, row in enumerate(rows, 1):
            if len(_typed("expectation 'fixed_dims'", row, list)) != len(columns):
                raise ParseError(
                    f"expectation 'fixed_dims' row {i} has {len(row)} cells "
                    f"for {len(columns)} columns"
                )
            for cell in row:
                _typed("expectation 'fixed_dims'", cell, int)
    return expect


def parse_scenario(
    source: str | Path | Mapping,
    max_order: int | None = None,
) -> ScenarioFile:
    """Load a scenario from a preset reference, JSON text, file path or dict.

    Raises ParseError for malformed documents (missing keys, wrong types, a
    cap below 1), UnknownGenerator for bad words, and ValidationError wrapping
    any covering-data failure.  The order cap is the max_order argument, else
    the scenario's options, else (when both are None) the package default.
    """
    try:
        return _parse_scenario(source, max_order)
    except (KeyError, IndexError, TypeError, ValueError, AttributeError) as exc:
        raise ParseError(f"malformed scenario: {exc!r}") from exc


def _parse_scenario(source: str | Path | Mapping, max_order: int | None) -> ScenarioFile:
    if isinstance(source, Mapping):
        raw = dict(source)
    elif isinstance(source, Path):
        raw = _load_json_text(source.read_text(encoding="utf-8"), str(source))
    elif isinstance(source, str):
        stripped = source.strip()
        if stripped.startswith("{"):
            raw = _load_json_text(stripped, "<text>")
        elif stripped.partition("?")[0] in _PRESETS:
            raw = _resolve_preset(stripped)
        elif Path(stripped).exists():
            raw = _load_json_text(Path(stripped).read_text(encoding="utf-8"), stripped)
        else:
            raise ParseError(
                f"{source!r} is neither a preset reference, a JSON object nor a file"
            )
    else:
        raise ParseError(f"cannot parse scenario from {type(source).__name__}")

    for key in ("group", "action"):
        if key not in raw:
            raise ParseError(f"scenario is missing the {key!r} section")
    _known("scenario", raw, ("name", "description", "group", "action", "collections", "options"))

    options = _known("options", _typed("options", raw.get("options", {}), dict),
                     ("max_order", "schur_overrides"))
    order_cap = options.get("max_order") if max_order is None else max_order
    order_cap = DEFAULT_ORDER_CAP if order_cap is None else _typed("max_order", order_cap, int)
    if order_cap < 1:
        raise ParseError(f"max_order must be at least 1, got {order_cap}")
    group = _build_group(raw["group"], order_cap)

    action_spec = _known("action", _typed("action", raw["action"], dict),
                         ("orbit_genus", "periods", "vector", "handles"))
    handles = []
    for pair in _typed("action 'handles'", action_spec.get("handles", []), list):
        if len(_typed("action 'handles'", pair, list)) != 2:
            raise ParseError(f"action 'handles' needs pairs of two elements, got {pair!r}")
        handles.append(tuple(_resolve_element(group, x) for x in pair))
    vector = tuple(
        _resolve_element(group, x) for x in _typed("action 'vector'", action_spec.get("vector", []), list)
    )
    action = CoveringAction(
        group=group,
        orbit_genus=_typed("action 'orbit_genus'", action_spec.get("orbit_genus", 0), int),
        periods=tuple(_typed("action 'periods'", m, int) for m in action_spec.get("periods", [])),
        handles=tuple(handles),
        branch_elements=vector,
    )
    try:
        certificate = validate_action(action)
    except CoveringError as exc:
        raise ValidationError(f"action data invalid: {exc}") from exc

    collections: dict[str, CollectionSpec] = {}
    for name, body in _typed("collections", raw.get("collections", {}), dict).items():
        body = _known(f"collection {name!r}", _typed("collection", body, dict), ("subgroups", "expect"))
        word_lists = _typed("collection subgroups", body.get("subgroups", []), list)
        expect = _expectations(body.get("expect", {}), len(word_lists))
        subgroups, normalized = [], []
        for words in word_lists:
            seeds = tuple(_resolve_element(group, w) for w in _typed("collection subgroups", words, list))
            subgroups.append(subgroup_generate(group, seeds))
            normalized.append(tuple(str(w) for w in words))
        collections[name] = CollectionSpec(name, tuple(normalized), tuple(subgroups), expect)

    overrides: dict[int, int] = {}
    for key, value in _typed("schur_overrides", options.get("schur_overrides", {}), dict).items():
        row = parse_integer("schur_overrides key", key, ParseError)
        if row in overrides:
            raise ParseError(f"schur_overrides key {key!r} repeats row {row}")
        overrides[row] = _typed("schur_overrides", value, int)
    return ScenarioFile(
        name=_typed("name", raw.get("name", "scenario"), str),
        description=_typed("description", raw.get("description", ""), str),
        group=group,
        action=action,
        genus=certificate.total_genus,
        collections=collections,
        schur_overrides=overrides,
    )


def _unique_keys(pairs: list) -> dict:
    """json's object_pairs_hook, so a key repeated in any object is a ParseError."""
    data = {}
    for key, value in pairs:
        if key in data:
            raise ParseError(f"repeated key {key!r}")
        data[key] = value
    return data


def _load_json_text(text: str, origin: str) -> dict:
    try:
        data = json.loads(text, object_pairs_hook=_unique_keys)
    except json.JSONDecodeError as exc:
        raise ParseError(
            f"{origin}: invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from exc
    except ParseError as exc:  # from _unique_keys
        raise ParseError(f"{origin}: {exc}") from None
    if not isinstance(data, dict):
        raise ParseError(f"{origin}: scenario document must be a JSON object")
    return data


# -- labeling of the dihedral family's rational classes -----------------------------


def dihedral_class_labels(analysis: ActionAnalysis) -> dict[str, int] | None:
    """Map labels V1..V6 to rational-class indices for the d2q family.

    V1 is trivial; V2..V4 are the sign characters identified by their values
    on r and s; V5 carries the primitive 2q-th root on r and V6 the primitive
    q-th root.  A 2-dimensional irreducible rho_k (r -> zeta_2q^k) has
    rho_k(r^q) = (-1)^k I, so V5 is the one with value -2 at r^q and V6 the
    one with +2.  Returns None when the group is not a 4q dihedral with the
    six-class structure.
    """
    group = analysis.group
    names = group.generator_names
    if set(names) != {"r", "s"}:
        return None
    r_idx, s_idx = names["r"], names["s"]
    two_q = group.element_order(r_idx)
    if two_q % 2 or group.order != 2 * two_q or group.exponent != two_q:
        return None
    classes = analysis.rational_classes
    if len(classes) != 6:
        return None
    class_of = analysis.table.classes.class_of
    r_cls, s_cls = class_of[r_idx], class_of[s_idx]
    half_cls = class_of[group.power(r_idx, two_q // 2)]
    linear = {(1, -1): "V2", (-1, 1): "V3", (-1, -1): "V4"}  # by the values on r and s
    planar = {-1: "V5", 1: "V6"}  # by the sign of the value on r^q
    labels: dict[str, int] = {}
    for idx, rc in enumerate(classes):
        # psi(g) = +-psi(1) exactly when g acts as +-1 under every member of the orbit
        sign = {rc.psi[0]: 1, -rc.psi[0]: -1}.get
        if rc.is_trivial():
            key = "V1"
        elif rc.degree == 1 and rc.field_degree == 1:
            key = linear.get((sign(rc.psi[r_cls]), sign(rc.psi[s_cls])))
        elif rc.degree == 2:
            key = planar.get(sign(rc.psi[half_cls]))
        else:
            return None
        if key is None:
            return None
        labels[key] = idx
    return labels if len(labels) == 6 else None


def class_labels(analysis: ActionAnalysis) -> tuple[tuple[int, str], ...]:
    """Each rational class's (index, display label), in display order: V1..V6
    for the dihedral family, else W1, W2, ... in class order.  Every report
    section lists the classes in this order."""
    named = dihedral_class_labels(analysis)
    if named is not None:
        return tuple((named[label], label) for label in sorted(named))
    return tuple((i, f"W{i + 1}") for i in range(len(analysis.rational_classes)))
