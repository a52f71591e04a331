"""Record types: the cold-import contract and the semantics every record keeps.

Records that are only built and read are ``typing.NamedTuple``s; the two
that validate their input (``Permutation`` and ``ClassFunction``) are plain
classes.  Neither needs ``dataclasses``, whose import pulls in ``inspect``,
``ast`` and ``dis``, so a fresh ``python -m jacdecomp`` never loads it.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

from jacdecomp.characters import (
    CharacterError,
    ClassFunction,
    character_table,
)
from jacdecomp.covering import CoveringAction, validate_action
from jacdecomp.decomposition import analyze
from jacdecomp.groups import (
    Permutation,
    conjugacy_classes,
    full_subgroup,
    is_partition,
    preset_dihedral,
    subgroup_generate,
)

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "jacdecomp"


# -- the cold-import contract -------------------------------------------------------


def test_cli_import_leaves_dataclasses_unloaded():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(PACKAGE.parent) + os.pathsep + env.get("PYTHONPATH", "")
    result = subprocess.run(
        [sys.executable, "-c", "import sys, jacdecomp.cli; print('dataclasses' in sys.modules)"],
        capture_output=True,
        text=True,
        env=env,
        check=True,
    )
    assert result.stdout.strip() == "False"


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda path: path.name)
def test_no_module_imports_dataclasses(path):
    imported = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            imported.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module:
            imported.add(node.module)
    assert "dataclasses" not in {name.partition(".")[0] for name in imported}


# -- record semantics -----------------------------------------------------------------


def test_inadmissible_report_is_falsy(d2q):
    group, action = d2q(3)
    h = subgroup_generate(group, (group.generator_names["s"],))
    analysis = analyze(action)
    report = analysis.admissibility([h, h])  # a repeated subgroup overshoots the degrees
    assert not report.admissible
    assert bool(report) is False
    assert bool(analysis.admissibility([h])) is True


def test_failing_partition_verdict_is_falsy():
    group = preset_dihedral(3)
    rotations = subgroup_generate(group, (group.generator_names["r"],))
    verdict = is_partition(group, [rotations])  # the reflections stay uncovered
    assert not verdict.is_partition
    assert bool(verdict) is False
    assert bool(is_partition(group, [full_subgroup(group)])) is True


def test_permutation_validates_and_compares_by_images():
    with pytest.raises(ValueError):
        Permutation((0, 0))
    swap = Permutation((1, 0))
    assert swap == Permutation((1, 0)) and hash(swap) == hash(Permutation((1, 0)))
    assert swap != Permutation((0, 1)) and swap != (1, 0)


def test_class_function_checks_its_length():
    group = preset_dihedral(3)
    table = character_table(group)
    with pytest.raises(CharacterError):
        ClassFunction(group, table.irreducibles[0].values[1:])
    row = table.irreducibles[1]
    twin = ClassFunction(group, tuple(row.values))
    assert twin == row and hash(twin) == hash(row) and twin != table.irreducibles[0]


def test_table_and_partition_lengths_count_rows_and_classes():
    group = preset_dihedral(5)
    table = character_table(group)
    classes = conjugacy_classes(group)
    assert len(table) == len(table.irreducibles) == len(classes) == len(classes.classes)


def test_equal_covering_actions_share_the_validation_cache(d2q):
    _, action = d2q(5)
    twin = CoveringAction(
        group=action.group,
        orbit_genus=action.orbit_genus,
        periods=tuple(list(action.periods)),
        handles=tuple(list(action.handles)),
        branch_elements=tuple(list(action.branch_elements)),
    )
    assert twin is not action and twin == action and hash(twin) == hash(action)
    validate_action.cache_clear()
    certificate = validate_action(action)
    hits = validate_action.cache_info().hits
    assert validate_action(twin) is certificate
    assert validate_action.cache_info().hits == hits + 1
