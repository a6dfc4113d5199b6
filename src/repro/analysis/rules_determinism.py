"""D-rules: determinism invariants.

Every simulation result in this repo is pinned by sha256 golden digests
and a parallel-vs-serial byte-identity matrix.  Those guarantees hold
only because *all* randomness derives from a scenario's config through
:func:`repro.simkit.rand.derive_seed` / :class:`~repro.simkit.rand.RandomStreams`,
no result-bearing code reads the wall clock, and no iteration order
depends on hash seeds or filesystem enumeration.  These rules make each
of those conventions a checkable contract.
"""

from __future__ import annotations

import ast
from typing import Iterator, Optional

from .engine import Rule, SourceFile, call_name, register_rule

__all__ = ["WALL_CLOCK_CALLS", "WALL_CLOCK_ALLOWED_FILES"]

#: (module-ish, attr) tails identifying a wall-clock read.  Matched on the
#: last two dotted components, so ``time.time()``, ``datetime.now()`` and
#: ``datetime.datetime.utcnow()`` all resolve.
WALL_CLOCK_CALLS = frozenset({
    ("time", "time"),
    ("time", "time_ns"),
    ("datetime", "now"),
    ("datetime", "utcnow"),
    ("date", "today"),
})

#: Files (suffix-matched on "/"-separated relative paths) allowed to read
#: the wall clock: cache-admin *metadata* (profile manifests, display
#: timestamps) never feeds a simulation result.  Anything else needs a
#: line pragma or a baseline entry with a reviewed rationale.
WALL_CLOCK_ALLOWED_FILES = (
    "harness/cache_admin.py",
)

#: Calls that enumerate a directory in filesystem order.
_LISTING_CALLS = frozenset({"os.listdir", "os.scandir",
                            "glob.glob", "glob.iglob"})
_LISTING_METHODS = frozenset({"iterdir", "glob", "rglob"})

#: Wrapping one of these normalizes (or is insensitive to) input order.
_ORDER_NORMALIZERS = frozenset({"sorted", "min", "max", "len", "set",
                                "frozenset", "any", "all"})

#: Calls that schedule simulation events or feed ordered accumulators —
#: iteration order reaching one of these from an unordered container is a
#: reproducibility hazard.
_SCHEDULING_CALLS = frozenset({"schedule", "timeout", "succeed", "fail",
                               "process", "heappush", "heappop",
                               "call_later", "defer"})

#: Reductions whose float result depends on operand order.
_ORDER_SENSITIVE_REDUCERS = frozenset({"sum", "fsum", "mean", "median",
                                       "stdev", "variance", "cumsum",
                                       "dot", "prod"})

_ARITH_OPS = (ast.Add, ast.Sub, ast.Mult, ast.Div, ast.FloorDiv, ast.Pow)

#: ``uuid`` constructors that differ on every call: uuid4 draws OS
#: entropy, uuid1 reads the clock and the host's MAC address.
_ENTROPY_UUIDS = frozenset({"uuid1", "uuid4"})


def _stdlib_random_aliases(source: SourceFile) -> set[str]:
    """Names the stdlib ``random`` module is bound to in this file."""
    aliases: set[str] = set()
    for node in ast.walk(source.tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name == "random" or alias.name.startswith("random."):
                    aliases.add((alias.asname or alias.name).split(".")[0])
    return aliases


def _entropy_uuid_names(source: SourceFile) -> set[str]:
    """Dotted call names that reach ``uuid.uuid1``/``uuid.uuid4`` here."""
    names: set[str] = set()
    for node in ast.walk(source.tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name == "uuid":
                    names.update(f"{alias.asname or 'uuid'}.{func}"
                                 for func in _ENTROPY_UUIDS)
        elif isinstance(node, ast.ImportFrom) and node.level == 0 \
                and node.module == "uuid":
            names.update(alias.asname or alias.name for alias in node.names
                         if alias.name in _ENTROPY_UUIDS)
    return names


def check_no_stdlib_random(source: SourceFile) -> Iterator[tuple[int, str]]:
    """D001: neither the stdlib ``random`` module nor ``uuid.uuid1`` /
    ``uuid.uuid4`` may be used at all."""
    aliases = _stdlib_random_aliases(source)
    uuid_calls = _entropy_uuid_names(source)
    for node in ast.walk(source.tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name == "random" or alias.name.startswith("random."):
                    yield (node.lineno,
                           "stdlib `random` imported; every stream must "
                           "derive from RandomStreams/derive_seed "
                           "(numpy Generators seeded per component)")
        elif isinstance(node, ast.ImportFrom):
            if node.level == 0 and node.module and (
                    node.module == "random"
                    or node.module.startswith("random.")):
                yield (node.lineno,
                       "import from stdlib `random`; use "
                       "RandomStreams/derive_seed-seeded numpy Generators")
        elif isinstance(node, ast.Call):
            name = call_name(node)
            if name and name.split(".")[0] in aliases and "." in name:
                yield (node.lineno,
                       f"call to stdlib `{name}` draws from global, "
                       f"process-wide RNG state — parallel runs would "
                       f"diverge from serial")
            elif name in uuid_calls:
                yield (node.lineno,
                       f"call to `{name}` returns a different id on every "
                       f"run (OS entropy, or clock and MAC address); "
                       f"derive ids from derive_seed instead")


def check_derived_rng_seed(source: SourceFile) -> Iterator[tuple[int, str]]:
    """D002: ``default_rng`` needs a derived seed, not a constant/nothing."""
    for node in ast.walk(source.tree):
        if not isinstance(node, ast.Call):
            continue
        name = call_name(node)
        if not name or name.split(".")[-1] != "default_rng":
            continue
        seed = node.args[0] if node.args else None
        if seed is None:
            for keyword in node.keywords:
                if keyword.arg == "seed":
                    seed = keyword.value
        if seed is None:
            yield (node.lineno,
                   "default_rng() without a seed draws OS entropy — "
                   "irreproducible; derive the seed with "
                   "derive_seed/RandomStreams")
        elif isinstance(seed, ast.Constant) and not isinstance(
                seed.value, str):
            yield (node.lineno,
                   f"default_rng({seed.value!r}) hard-codes one seed, "
                   f"collapsing every caller onto the same stream; derive "
                   f"it with derive_seed/RandomStreams instead")


def check_no_wall_clock(source: SourceFile) -> Iterator[tuple[int, str]]:
    """D003: no wall-clock reads outside the metadata allowlist."""
    if any(source.rel_path.endswith(suffix)
           for suffix in WALL_CLOCK_ALLOWED_FILES):
        return
    for node in ast.walk(source.tree):
        if not isinstance(node, ast.Call):
            continue
        name = call_name(node)
        parts = name.split(".")
        if len(parts) >= 2 and tuple(parts[-2:]) in WALL_CLOCK_CALLS:
            yield (node.lineno,
                   f"wall-clock read `{name}()` — results must not depend "
                   f"on when they ran (bench/cache-admin metadata is "
                   f"allowlisted; elsewhere pragma or baseline a reviewed "
                   f"exception)")


def _is_unordered_iterable(node: ast.AST) -> bool:
    """Does this expression enumerate in an order the language does not
    pin?  Sets always; ``.values()``/``.keys()`` views count too — their
    order is insertion order, which concurrent writers and JSON merges do
    not reproduce."""
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    if isinstance(node, ast.Call):
        name = call_name(node)
        tail = name.split(".")[-1] if name else ""
        if tail in ("set", "frozenset") and "." not in name:
            return True
        if isinstance(node.func, ast.Attribute) and node.func.attr in (
                "union", "intersection", "difference",
                "symmetric_difference"):
            return True
        if isinstance(node.func, ast.Attribute) and node.func.attr in (
                "values", "keys") and not node.args:
            return True
    return False


def _feeds_arithmetic_or_scheduling(body: list[ast.stmt]) -> Optional[int]:
    """First line in ``body`` doing order-sensitive accumulation or event
    scheduling, or None."""
    for stmt in body:
        for node in ast.walk(stmt):
            if isinstance(node, ast.AugAssign) and isinstance(
                    node.op, _ARITH_OPS):
                return node.lineno
            if isinstance(node, ast.Call):
                name = call_name(node)
                if name.split(".")[-1] in _SCHEDULING_CALLS:
                    return node.lineno
    return None


def check_ordered_iteration(source: SourceFile
                            ) -> Iterator[tuple[int, str]]:
    """D004: unordered iteration must not feed arithmetic or scheduling."""
    for node in ast.walk(source.tree):
        if isinstance(node, ast.For):
            if not _is_unordered_iterable(node.iter):
                continue
            if source.inside_call_named(node.iter, _ORDER_NORMALIZERS):
                continue
            hazard = _feeds_arithmetic_or_scheduling(node.body)
            if hazard is not None:
                yield (node.lineno,
                       "iterating an unordered container into arithmetic/"
                       "event scheduling (line %d) — float accumulation "
                       "and event order become insertion-order-dependent; "
                       "sort the iterable first" % hazard)
        elif isinstance(node, (ast.GeneratorExp, ast.ListComp)):
            if not any(_is_unordered_iterable(gen.iter)
                       for gen in node.generators):
                continue
            parent = source.parent(node)
            if not isinstance(parent, ast.Call):
                continue
            reducer = call_name(parent).split(".")[-1]
            if reducer in _ORDER_SENSITIVE_REDUCERS:
                yield (node.lineno,
                       f"`{reducer}()` over an unordered container — "
                       f"float reduction order is not pinned; sort the "
                       f"iterable first")


def check_sorted_listings(source: SourceFile) -> Iterator[tuple[int, str]]:
    """D005: directory listings must be wrapped in ``sorted(...)``."""
    for node in ast.walk(source.tree):
        if not isinstance(node, ast.Call):
            continue
        name = call_name(node)
        is_listing = (name in _LISTING_CALLS
                      or (isinstance(node.func, ast.Attribute)
                          and node.func.attr in _LISTING_METHODS))
        if not is_listing:
            continue
        if source.inside_call_named(node, _ORDER_NORMALIZERS):
            continue
        yield (node.lineno,
               f"`{name or node.func.attr}()` enumerates in filesystem "
               f"order; wrap it in sorted(...) so shard census, GC and "
               f"compaction output cannot vary between filesystems")


register_rule(Rule(
    code="D001", name="no-stdlib-random", category="determinism",
    rationale="stdlib random draws from hidden process-global state, and "
              "uuid1/uuid4 from entropy or the clock; parallel workers "
              "would diverge from serial runs",
    check=check_no_stdlib_random))

register_rule(Rule(
    code="D002", name="derived-rng-seed", category="determinism",
    rationale="default_rng() without a derive_seed/stream-factory argument "
              "is either irreproducible (no seed) or stream-collapsing "
              "(constant seed)",
    check=check_derived_rng_seed))

register_rule(Rule(
    code="D003", name="no-wall-clock", category="determinism",
    rationale="time.time()/datetime.now() outside allowlisted metadata "
              "makes results depend on when they ran",
    check=check_no_wall_clock))

register_rule(Rule(
    code="D004", name="ordered-iteration", category="determinism",
    rationale="iterating sets/dict views into float accumulation or event "
              "scheduling ties results to insertion order",
    check=check_ordered_iteration))

register_rule(Rule(
    code="D005", name="sorted-listings", category="determinism",
    rationale="os.listdir/glob/iterdir enumerate in filesystem order; "
              "unsorted results make stats and compaction "
              "filesystem-dependent",
    check=check_sorted_listings))
