"""Every public name under ``src/repro`` has a caller, and every config knob a setter.

The census decides what is public API.  It reads source with :mod:`ast`
only, and matches names, not types: ``x.run`` is a caller of every
public ``run``.

* **Scanned:** every public module-level function, class, constant
  (``UPPER_CASE``) and type alias (``CamelCase``), and every public
  method, under ``src/repro``.
* **Callers:** a load of the name (a ``Name`` or ``Attribute`` in load
  context, or a ``from ... import name`` outside an ``__init__.py``) in
  ``src``, ``benchmarks``, ``examples`` or ``perfbench``, plus the
  ``module:attr`` and ``module:Class.method`` target strings perfbench
  wraps by name.  Definitions, ``__init__`` re-exports and ``__all__``
  are not callers.  Tests are not callers either.
* **Config knobs:** every field of :data:`CONFIG_CLASSES` must be set
  somewhere, tests included: by keyword to the class, by keyword to
  ``replace(...)``, or from the CLI (which builds its configs by
  keyword).  ``WorldConfig`` is exempt: it is written to store meta,
  and reading a store rejects unknown keys, so its fields are part of
  the store format.
* **Allow-list:** a flagged name passes only if :data:`ALLOWED` names
  it, with one of :data:`REASONS`.  An entry whose name gained a caller,
  no longer exists, or no longer meets its reason fails too.
"""

from __future__ import annotations

import ast
import asyncio
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "repro"
CALLER_DIRS = ("src", "benchmarks", "examples", "perfbench")
SETTER_DIRS = CALLER_DIRS + ("tests",)
API_GUIDE = ROOT / "docs" / "api_guide.md"

CONFIG_CLASSES = ("FaultConfig", "FarmConfig", "CrawlerConfig", "MilkingConfig", "FleetConfig")

#: Why a name without a caller may stay public.
REASONS = {
    "documented": "named in docs/api_guide.md",
    "test seam": "tests substitute or drive it",
    "test reference": "tests compare against it",
    "protocol callback": "asyncio calls it (an asyncio.Protocol method)",
}

#: Qualified name (``repro.module.name`` or ``repro.module.Class.method``)
#: -> reason.
ALLOWED: dict[str, str] = {
    "repro.analysis.export.export_screenshot_gallery": "documented",
    "repro.store.base.STREAMS": "documented",
    "repro.chaos.plan.seeded_schedule": "test seam",
    "repro.chaos.points.active_plan": "test seam",
    "repro.chaos.points.install": "test seam",
    "repro.chaos.points.reset": "test seam",
    "repro.net.http.server_error": "test seam",
    "repro.net.server.FunctionServer": "test seam",
    "repro.ecosystem.benign.BenignWeb.dead_hosts": "test reference",
    "repro.telemetry.export.canonical_trace_bytes": "test reference",
    "repro.feed.asyncserve.FeedProtocol.connection_lost": "protocol callback",
    "repro.feed.asyncserve.FeedProtocol.connection_made": "protocol callback",
    "repro.feed.asyncserve.FeedProtocol.data_received": "protocol callback",
    "repro.feed.asyncserve.FeedProtocol.pause_writing": "protocol callback",
    "repro.feed.asyncserve.FeedProtocol.resume_writing": "protocol callback",
}

#: A perfbench wrap target: ``repro.module:attr`` or ``repro.module:Class.method``.
TARGET = re.compile(r"repro(?:\.\w+)+:(\w+(?:\.\w+)*)")
#: Module-level constants (``UPPER_CASE``) and type aliases (``CamelCase``).
CONSTANT = re.compile(r"[A-Z]\w*")


def _python_files(*dirs: str):
    for name in dirs:
        yield from sorted((ROOT / name).rglob("*.py"))


def _parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(), str(path))


def _is_public(name: str) -> bool:
    return not name.startswith("_")


def _is_accessor(node: ast.FunctionDef) -> bool:
    """A property setter or deleter: stored through, never loaded by name."""
    return any(
        isinstance(decorator, ast.Attribute) and decorator.attr in ("setter", "deleter")
        for decorator in node.decorator_list
    )


def definitions() -> dict[str, tuple[str, str]]:
    """Every public name under ``src/repro``: qualified name -> (name, ``file:line``)."""
    found = {}
    for path in sorted(PACKAGE.rglob("*.py")):
        parts = path.relative_to(PACKAGE.parent).with_suffix("").parts
        module = ".".join(parts[:-1] if parts[-1] == "__init__" else parts)
        site = path.relative_to(ROOT)
        for node in _parse(path).body:
            names = []
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                names.append((node.name, node))
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names += [
                    (target.id, node)
                    for target in targets
                    if isinstance(target, ast.Name) and CONSTANT.fullmatch(target.id)
                ]
            for name, where in names:
                if _is_public(name):
                    found[f"{module}.{name}"] = (name, f"{site}:{where.lineno}")
            if not isinstance(node, ast.ClassDef):
                continue
            for member in node.body:
                if (
                    isinstance(member, (ast.FunctionDef, ast.AsyncFunctionDef))
                    and _is_public(member.name)
                    and not _is_accessor(member)
                ):
                    found[f"{module}.{node.name}.{member.name}"] = (
                        member.name,
                        f"{site}:{member.lineno}",
                    )
    return found


def loads(*dirs: str) -> set[str]:
    """Every name loaded, imported or named as a perfbench target under ``dirs``."""
    names = set()
    for path in _python_files(*dirs):
        in_init = path.name == "__init__.py"
        for node in ast.walk(_parse(path)):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                names.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                names.add(node.attr)
            elif isinstance(node, ast.ImportFrom) and not in_init:
                names.update(alias.name for alias in node.names)
            elif (
                path.parts[-2] == "perfbench"
                and isinstance(node, ast.Constant)
                and isinstance(node.value, str)
                and (match := TARGET.fullmatch(node.value))
            ):
                names.update(match.group(1).split("."))
    return names


def uncalled() -> dict[str, str]:
    """Qualified name -> ``file:line`` of every public name without a caller."""
    called = loads(*CALLER_DIRS)
    return {
        qualified: site
        for qualified, (name, site) in definitions().items()
        if name not in called
    }


def config_fields() -> dict[str, tuple[str, str]]:
    """``Class.field`` -> (field, ``file:line``) for every :data:`CONFIG_CLASSES` field."""
    fields = {}
    for path in sorted(PACKAGE.rglob("*.py")):
        for node in _parse(path).body:
            if isinstance(node, ast.ClassDef) and node.name in CONFIG_CLASSES:
                for member in node.body:
                    if isinstance(member, ast.AnnAssign) and isinstance(member.target, ast.Name):
                        name = member.target.id
                        site = f"{path.relative_to(ROOT)}:{member.lineno}"
                        fields[f"{node.name}.{name}"] = (name, site)
    return fields


def _callee(node: ast.Call) -> str | None:
    func = node.func
    if isinstance(func, ast.Name):
        return func.id
    if isinstance(func, ast.Attribute):
        return func.attr
    return None


def settings() -> set[tuple[str, str]]:
    """(class or ``replace``, keyword) of every config-building call, tests included."""
    found = set()
    setters = set(CONFIG_CLASSES) | {"replace"}
    for path in _python_files(*SETTER_DIRS):
        for node in ast.walk(_parse(path)):
            if isinstance(node, ast.Call) and (callee := _callee(node)) in setters:
                found.update((callee, keyword.arg) for keyword in node.keywords if keyword.arg)
    return found


def unset_fields() -> dict[str, str]:
    """``Class.field`` -> ``file:line`` of every config field nothing sets."""
    done = settings()
    return {
        qualified: site
        for qualified, (name, site) in config_fields().items()
        if (qualified.split(".")[0], name) not in done and ("replace", name) not in done
    }


def _listing(found: dict[str, str]) -> str:
    return "\n".join(f"  {site}: {name}" for name, site in sorted(found.items()))


def test_every_public_name_has_a_caller():
    flagged = {name: site for name, site in uncalled().items() if name not in ALLOWED}
    assert not flagged, (
        "public names with no caller in src, benchmarks, examples or perfbench "
        "(delete them, make them private, or allow-list them with a reason):\n"
        + _listing(flagged)
    )


def test_every_config_field_is_set_somewhere():
    unset = unset_fields()
    assert not unset, (
        "config fields nothing sets (make each a module constant):\n" + _listing(unset)
    )


def test_allow_list_is_not_stale():
    defined = definitions()
    flagged = uncalled()
    guide = API_GUIDE.read_text()
    in_tests = loads("tests")
    stale = {}
    for qualified, reason in sorted(ALLOWED.items()):
        name = qualified.rsplit(".", 1)[1]
        if reason not in REASONS:
            stale[qualified] = f"unknown reason {reason!r}"
        elif qualified not in defined:
            stale[qualified] = "no longer defined"
        elif qualified not in flagged:
            stale[qualified] = "has a caller now"
        elif reason == "documented" and name not in guide:
            stale[qualified] = "not named in docs/api_guide.md"
        elif reason in ("test seam", "test reference") and name not in in_tests:
            stale[qualified] = "no test uses it"
        elif reason == "protocol callback" and not hasattr(asyncio.Protocol, name):
            stale[qualified] = "not an asyncio.Protocol method"
    assert not stale, "stale allow-list entries:\n" + "\n".join(
        f"  {name}: {why}" for name, why in stale.items()
    )
