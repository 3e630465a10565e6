"""Every public name under ``src/repro`` has a caller, and every knob a setter.

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
* **Parameters:** every defaulted parameter of a ``def`` under
  ``src/repro`` must be passed by some call in :data:`SETTER_DIRS`: by
  keyword, by position, or through ``*args``/``**kwargs``.  Calls are
  matched by callee name; ``__init__`` is matched by its class name, and
  ``cls(...)`` inside a class is a call of that class.  A function
  referenced as a value (a call argument other than to ``isinstance`` or
  ``issubclass``, a dict value, a sequence element, an assignment's right
  side) is exempt, because its callers cannot be seen.
* **Allow-list:** a flagged name or parameter passes only if
  :data:`ALLOWED` names it, with one of :data:`REASONS`.  An entry whose
  name gained a caller, no longer exists, or no longer meets its reason
  fails too.
"""

from __future__ import annotations

import ast
import asyncio
import math
import re
from dataclasses import dataclass, field
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

#: Qualified name (``repro.module.name``, ``repro.module.Class.method`` or,
#: for a parameter, ``repro.module.Class.method(param)``) -> reason.
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
#: Calls that name a function without taking it as a value.
TYPE_CHECKS = ("isinstance", "issubclass")


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


def _module_name(path: Path) -> str:
    parts = path.relative_to(PACKAGE.parent).with_suffix("").parts
    return ".".join(parts[:-1] if parts[-1] == "__init__" else parts)


def definitions() -> dict[str, tuple[str, str]]:
    """Every public name under ``src/repro``: qualified name -> (name, ``file:line``)."""
    found = {}
    for path in sorted(PACKAGE.rglob("*.py")):
        module = _module_name(path)
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


@dataclass
class Parameter:
    """One defaulted parameter, as the call matcher sees it."""

    #: The name its calls go by: the function's, or its class's for ``__init__``.
    callee: str
    name: str
    #: Its index among a call's positional arguments (``self`` and ``cls``
    #: are not counted), or ``None`` for a keyword-only parameter.
    position: int | None
    site: str


@dataclass
class Passed:
    """What the calls of one callee name pass, taken together."""

    keywords: set[str] = field(default_factory=set)
    #: The most positional arguments one call passes (``inf`` through ``*args``).
    positional: float = 0
    #: Some call passes ``**kwargs``.
    any_keyword: bool = False

    def passes(self, parameter: Parameter) -> bool:
        return (
            self.any_keyword
            or parameter.name in self.keywords
            or (parameter.position is not None and parameter.position < self.positional)
        )


def defaulted_parameters(
    modules: dict[str, tuple[ast.Module, str]],
) -> dict[str, Parameter]:
    """``module.Qual.func(param)`` -> :class:`Parameter` for every defaulted
    parameter of every ``def`` in ``modules`` (module name -> (tree, file))."""
    found = {}

    def visit(node: ast.AST, scope: list[str], module: str, path: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                visit(child, scope + [child.name], module, path)
                continue
            if not isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, scope, module, path)
                continue
            in_class = isinstance(node, ast.ClassDef)
            static = any(
                isinstance(decorator, ast.Name) and decorator.id == "staticmethod"
                for decorator in child.decorator_list
            )
            skip = 1 if in_class and not static else 0
            callee = node.name if in_class and child.name == "__init__" else child.name
            qualified = ".".join([module, *scope, child.name])
            args = child.args
            positional = args.posonlyargs + args.args
            first = len(positional) - len(args.defaults)
            defaulted = [
                (arg, index - skip)
                for index, arg in enumerate(positional)
                if index >= first
            ]
            defaulted += [
                (arg, None)
                for arg, default in zip(args.kwonlyargs, args.kw_defaults)
                if default is not None
            ]
            for arg, position in defaulted:
                found[f"{qualified}({arg.arg})"] = Parameter(
                    callee, arg.arg, position, f"{path}:{arg.lineno}"
                )
            visit(child, scope + [child.name], module, path)

    for module, (tree, path) in modules.items():
        visit(tree, [], module, path)
    return found


def _value_names(nodes) -> set[str]:
    """The names of the functions ``nodes`` (expressions) take as values."""
    names = set()
    for node in nodes:
        if isinstance(node, ast.Starred):
            node = node.value
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            names.add(node.attr)
    return names


def call_sites(trees) -> tuple[dict[str, Passed], set[str]]:
    """What every callee name is passed, and every name taken as a value."""
    passed: dict[str, Passed] = {}
    values: set[str] = set()

    def record(call: ast.Call, cls: str | None) -> None:
        callee = _callee(call)
        target = cls if callee == "cls" and cls is not None else callee
        if target is not None:
            entry = passed.setdefault(target, Passed())
            positional = 0
            for arg in call.args:
                if isinstance(arg, ast.Starred):
                    positional = math.inf
                    break
                positional += 1
            entry.positional = max(entry.positional, positional)
            for keyword in call.keywords:
                if keyword.arg is None:
                    entry.any_keyword = True
                else:
                    entry.keywords.add(keyword.arg)
        if callee not in TYPE_CHECKS:
            values.update(_value_names(call.args))
            values.update(_value_names(keyword.value for keyword in call.keywords))

    def visit(node: ast.AST, cls: str | None) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                visit(child, child.name)
                continue
            if isinstance(child, ast.Call):
                record(child, cls)
            elif isinstance(child, ast.Dict):
                values.update(_value_names(child.values))
            elif isinstance(child, (ast.List, ast.Tuple, ast.Set)):
                values.update(_value_names(child.elts))
            elif isinstance(child, (ast.Assign, ast.AnnAssign)) and child.value is not None:
                values.update(_value_names([child.value]))
            visit(child, cls)

    for tree in trees:
        visit(tree, None)
    return passed, values


def unpassed(modules: dict[str, tuple[ast.Module, str]], trees) -> dict[str, str]:
    """``module.Qual.func(param)`` -> ``file:line`` of every defaulted
    parameter in ``modules`` that no call in ``trees`` passes."""
    passed, values = call_sites(trees)
    return {
        qualified: parameter.site
        for qualified, parameter in defaulted_parameters(modules).items()
        if parameter.callee not in values
        and not passed.get(parameter.callee, Passed()).passes(parameter)
    }


def package_modules() -> dict[str, tuple[ast.Module, str]]:
    return {
        _module_name(path): (_parse(path), str(path.relative_to(ROOT)))
        for path in sorted(PACKAGE.rglob("*.py"))
    }


def unpassed_parameters() -> dict[str, str]:
    """Every defaulted parameter under ``src/repro`` that no call passes."""
    return unpassed(package_modules(), map(_parse, _python_files(*SETTER_DIRS)))


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


def test_every_defaulted_parameter_is_passed():
    flagged = {
        name: site for name, site in unpassed_parameters().items() if name not in ALLOWED
    }
    assert not flagged, (
        "defaulted parameters no call in src, benchmarks, examples, perfbench "
        "or tests passes (make each default the body's value or a module "
        "constant, or allow-list it with a reason):\n" + _listing(flagged)
    )


PLANTED = """
class Widget:
    def __init__(self, size, colour="red"):
        self.size = size

    def resize(self, factor=2, *, snap=False):
        return self.size * factor

    @classmethod
    def small(cls, label="s"):
        return cls(1, colour="blue")


def render(widget, scale=1.0):
    return widget


def hook(event, verbose=False):
    return event


HOOKS = {"render": hook}
Widget(3).resize(4)
render(Widget.small())
"""


def test_parameter_rule_on_a_planted_module():
    tree = ast.parse(PLANTED)
    flagged = unpassed({"planted": (tree, "planted.py")}, [tree])
    assert set(flagged) == {
        # Never passed: neither by keyword nor by position.
        "planted.Widget.resize(snap)",
        "planted.Widget.small(label)",
        "planted.render(scale)",
    }
    # ``resize(factor)`` is passed by position (``self`` is not counted),
    # ``__init__(colour)`` by keyword through ``cls(...)``, and ``hook`` is
    # exempt only because it is referenced as a value.
    bare = ast.parse(PLANTED.replace('HOOKS = {"render": hook}\n', ""))
    assert "planted.hook(verbose)" in unpassed({"planted": (bare, "planted.py")}, [bare])


def test_allow_list_is_not_stale():
    defined = definitions()
    flagged = uncalled()
    parameters = defaulted_parameters(package_modules())
    flagged_parameters = unpassed_parameters()
    guide = API_GUIDE.read_text()
    in_tests = loads("tests")
    stale = {}
    for qualified, reason in sorted(ALLOWED.items()):
        if "(" in qualified:
            if reason not in REASONS:
                stale[qualified] = f"unknown reason {reason!r}"
            elif qualified not in parameters:
                stale[qualified] = "no longer defined"
            elif qualified not in flagged_parameters:
                stale[qualified] = "is passed now"
            continue
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
