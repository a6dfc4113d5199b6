"""The P001/P002 class registries must name classes that exist.

Both rules skip any class they cannot find, so a registry entry whose
class was deleted or renamed silently turns its guard off.  These checks
make that drift fail loudly: delete or rename a class, and its
``WIRE_CLASSES`` / ``HOT_PATH_SLOTS_CLASSES`` entry has to follow."""

from __future__ import annotations

import ast
from pathlib import Path

from repro.analysis.rules_wire import HOT_PATH_SLOTS_CLASSES, WIRE_CLASSES

SRC_ROOT = Path(__file__).resolve().parents[2] / "src" / "repro"


def _class_names(path: Path) -> set[str]:
    tree = ast.parse(path.read_text(), filename=str(path))
    return {node.name for node in ast.walk(tree)
            if isinstance(node, ast.ClassDef)}


def test_every_wire_class_is_defined_under_src():
    defined: set[str] = set()
    for path in sorted(SRC_ROOT.rglob("*.py")):
        defined |= _class_names(path)
    assert sorted(WIRE_CLASSES - defined) == []


def test_every_hot_path_slots_pair_names_a_class_in_that_file():
    missing = [(suffix, name) for suffix, name in HOT_PATH_SLOTS_CLASSES
               if not (SRC_ROOT / suffix).is_file()
               or name not in _class_names(SRC_ROOT / suffix)]
    assert missing == []
