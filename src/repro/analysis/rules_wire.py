"""P-rules: pickle/wire safety for objects crossing the backend boundary.

The process backend (and the planned SSH/Slurm backends) ship
:class:`~repro.harness.runner.ScenarioPoint` /
:class:`~repro.harness.runner.ExecutionPolicy` objects to workers and
:class:`~repro.harness.runner.PointOutcome` payloads back — pickled.  A
lambda, nested function, generator or open file handle stored in a field
of one of those classes pickles either not at all or (worse) differently
per process, which surfaces as a crash only when the first distributed
backend fans out.  And the simkit hot-path classes were deliberately made
``__slots__`` classes in the fast-kernel PR — silently losing slots (a
refactor dropping ``slots=True``) would re-grow per-instance dicts and
walk back a measured speedup without any test noticing.
"""

from __future__ import annotations

import ast
from typing import Iterator

from .engine import Rule, SourceFile, register_rule

__all__ = ["WIRE_CLASSES", "HOT_PATH_SLOTS_CLASSES"]

#: Classes whose instances cross the process-backend boundary (or are
#: documented as picklable).  Fields holding lambdas, nested functions,
#: generator expressions, or open handles break that contract.
WIRE_CLASSES = frozenset({
    "ScenarioPoint",
    "ScenarioSet",
    "PointOutcome",
    "ExecutionPolicy",
    "ExperimentConfig",
    "ExperimentResult",
    "FaultSpec",
    "FaultPlan",
    "Session",
    "SerialBackend",
    "ProcessPoolBackend",
})

#: (file suffix, class name) pairs that must stay ``__slots__`` classes:
#: the fast-kernel hot path allocates these per event/message, and losing
#: slots re-grows instance dicts (a silent perf regression).
HOT_PATH_SLOTS_CLASSES = (
    ("simkit/core.py", "Event"),
    ("simkit/core.py", "Timeout"),
    ("simkit/core.py", "Process"),
    ("simkit/core.py", "AnyOf"),
    ("simkit/core.py", "Environment"),
    ("simkit/resources.py", "HandoffServer"),
    ("simkit/monitor.py", "Counter"),
    ("simkit/rand.py", "BatchedUniform"),
    ("netsim/message.py", "Message"),
)


def _nested_function_names(func: ast.AST) -> set[str]:
    """Names of functions defined inside ``func``'s immediate body."""
    names: set[str] = set()
    for node in ast.walk(func):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) \
                and node is not func:
            names.add(node.name)
    return names


def _unpicklable_reason(value: ast.AST,
                        nested_names: set[str]) -> str:
    """Why this assigned expression cannot cross the wire ('' = fine)."""
    if isinstance(value, ast.Lambda):
        return "a lambda (unpicklable)"
    if isinstance(value, ast.GeneratorExp):
        return "a generator (unpicklable, and single-use)"
    if isinstance(value, ast.Call):
        func = value.func
        if isinstance(func, ast.Name) and func.id == "open":
            return "an open file handle (unpicklable, process-local)"
        if isinstance(func, ast.Name) and func.id in nested_names:
            # Calling a nested factory is fine; storing it is the hazard —
            # but a call *returning* its closure is indistinguishable
            # statically, so only direct storage is flagged below.
            return ""
    if isinstance(value, ast.Name) and value.id in nested_names:
        return "a nested function (unpicklable closure)"
    return ""


def check_wire_fields(source: SourceFile) -> Iterator[tuple[int, str]]:
    """P001: wire classes must not store unpicklable values in fields."""
    for node in ast.walk(source.tree):
        if not isinstance(node, ast.ClassDef) or node.name not in WIRE_CLASSES:
            continue
        # Class-level (dataclass field) defaults.
        for stmt in node.body:
            value = None
            if isinstance(stmt, ast.Assign):
                value = stmt.value
            elif isinstance(stmt, ast.AnnAssign):
                value = stmt.value
            if value is not None:
                reason = _unpicklable_reason(value, set())
                if reason:
                    yield (stmt.lineno,
                           f"wire class {node.name} default is {reason}; "
                           f"it cannot cross the process-backend boundary")
        # Instance attributes assigned in methods.
        for method in node.body:
            if not isinstance(method, (ast.FunctionDef,
                                       ast.AsyncFunctionDef)):
                continue
            nested = _nested_function_names(method)
            for stmt in ast.walk(method):
                if not isinstance(stmt, (ast.Assign, ast.AnnAssign)):
                    continue
                targets = (stmt.targets if isinstance(stmt, ast.Assign)
                           else [stmt.target])
                stores_self_attr = any(
                    isinstance(t, ast.Attribute)
                    and isinstance(t.value, ast.Name)
                    and t.value.id == "self" for t in targets)
                if not stores_self_attr or stmt.value is None:
                    continue
                reason = _unpicklable_reason(stmt.value, nested)
                if reason:
                    yield (stmt.lineno,
                           f"wire class {node.name} stores {reason} in an "
                           f"instance field; it cannot cross the "
                           f"process-backend boundary")


def _has_slots(node: ast.ClassDef) -> bool:
    for stmt in node.body:
        if isinstance(stmt, ast.Assign):
            if any(isinstance(t, ast.Name) and t.id == "__slots__"
                   for t in stmt.targets):
                return True
        elif isinstance(stmt, ast.AnnAssign):
            target = stmt.target
            if isinstance(target, ast.Name) and target.id == "__slots__":
                return True
    for decorator in node.decorator_list:
        if isinstance(decorator, ast.Call):
            for keyword in decorator.keywords:
                if keyword.arg == "slots" and isinstance(
                        keyword.value, ast.Constant) \
                        and keyword.value.value is True:
                    return True
    return False


def check_hot_path_slots(source: SourceFile) -> Iterator[tuple[int, str]]:
    """P002: hot-path slots classes must keep their ``__slots__``."""
    required = {name for suffix, name in HOT_PATH_SLOTS_CLASSES
                if source.rel_path.endswith(suffix)}
    if not required:
        return
    for node in ast.walk(source.tree):
        if isinstance(node, ast.ClassDef) and node.name in required \
                and not _has_slots(node):
            yield (node.lineno,
                   f"hot-path class {node.name} lost its __slots__ "
                   f"(declare __slots__ or @dataclass(slots=True)); "
                   f"instance dicts walk back the fast-kernel speedup")


register_rule(Rule(
    code="P001", name="wire-safe-fields", category="wire",
    rationale="classes crossing the process-backend boundary must not "
              "hold lambdas, nested functions, generators or open handles",
    check=check_wire_fields))

register_rule(Rule(
    code="P002", name="hot-path-slots", category="wire",
    rationale="slots dataclasses on the simkit/metrics hot path must stay "
              "slots (losing them is a silent perf regression)",
    check=check_hot_path_slots))
