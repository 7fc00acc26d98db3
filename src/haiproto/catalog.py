"""Loading and querying a catalog of actions, messages, and patterns.

A catalog is built from one or more ``.hai`` files plus an optional JSON
sidecar (``catalog.json``) holding what the grammar does not express:
*scenarios* (named pattern compositions), per-pattern *annotations*
(implementation concerns), the *provide_only* list (patterns of pure
provides), and *interpretations* (reading notes for figure-derived flows).

Loading resolves names in a single forward pass over files sorted by name:
later declarations may reference earlier ones, never the reverse.  Names are
corpus-global — declaring the same action, message, or pattern name twice is
an error, while roles are their own namespace and re-declaring one is
harmless.  The loader's rules have their owners in :mod:`haiproto.check`:
``E-DUP-NAME`` is :func:`~haiproto.check.name_rule`, ``E-UNRESOLVED`` is
:func:`~haiproto.check.reference_rule` and an empty scenario's
``E-EMPTY-PATTERN`` is :func:`~haiproto.check.pattern_rule`.  Only
``E-UNKNOWN-ROLE`` and the sidecar's ``E-SYNTAX`` (its shape) are its own.

The loader records where each name is declared (:attr:`Catalog.declared`),
and every finding on a declaration, from the loader or from
:func:`check_catalog`, is placed there: at the declaration's keyword in its
``.hai`` file, or at its key or ``provide_only`` item in a sidecar.
``json.loads`` keeps no positions, so a key is found in its sidecar's text
only when a finding is placed there.
"""

from __future__ import annotations

import functools
import json
from dataclasses import dataclass, field, replace
from json.decoder import WHITESPACE, scanstring
from pathlib import Path
from typing import Iterable, Iterator, Sequence

from .check import (
    CheckReport,
    Flow,
    Step,
    check_action,
    check_flow,
    check_message,
    check_pattern,  # unused here; perfbench/spans.py looks it up as a span boundary
    name_rule,
    pattern_rule,
    placed,
    reference_rule,
)
from .core import (
    PREDECLARED_ROLES,
    TAGS,
    ActionDef,
    Diagnostic,
    Message,
    Pattern,
    Span,
)
from .dsl import parse, print_type


class CatalogError(Exception):
    """Raised by :func:`load` when the corpus has errors."""

    def __init__(self, diagnostics: Sequence[Diagnostic]):
        self.diagnostics = tuple(diagnostics)
        lines = "\n".join(d.format() for d in self.diagnostics)
        super().__init__(f"catalog has {len(self.diagnostics)} error(s):\n{lines}")


@dataclass(frozen=True)
class Catalog:
    """A fully resolved corpus.  Its tables must not change after load:
    :meth:`flow` keeps what it checked from them.  ``declared[kind][name]``
    is where the action, message, pattern or scenario ``name`` is declared:
    ``(path, line, col)`` of its keyword, or ``(path,)`` for a sidecar's
    scenario, whose key :meth:`place` finds; plain tuples, as a corpus may
    declare thousands of names."""

    actions: dict[str, ActionDef]
    messages: dict[str, Message]
    patterns: dict[str, Pattern]
    scenarios: dict[str, tuple[str, ...]]
    annotations: dict[str, str]
    interpretations: dict[str, str]
    provide_only: frozenset[str]
    roles: frozenset[str]
    declared: dict[str, dict[str, tuple]] = field(default_factory=dict)
    sources: tuple[str, ...] = ()
    _flows: dict[str, Flow] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )
    _shared: dict = field(  # check_flow's table: a Step per message, a tuple per value
        default_factory=dict, init=False, repr=False, compare=False
    )
    _keys: dict[str, dict[tuple, Span]] = field(  # each sidecar's keys, once placed
        default_factory=lambda: {"<catalog>": {}}, init=False, repr=False, compare=False
    )

    def resolve_flow(self, name: str) -> Pattern:
        """Return the pattern called ``name``, or a scenario's patterns
        joined into one pattern of that name.  Nothing is checked."""
        if name in self.patterns:
            return self.patterns[name]
        if name in self.scenarios:
            return _join(self, self.scenarios[name], name)
        raise KeyError(f"no pattern or scenario named {name!r}")

    def flow(self, name: str) -> Flow:
        """The pattern or scenario called ``name``, resolved and checked at
        its own scope (:func:`~haiproto.check.check_flow`): a scenario must
        close every request it opens.  Every consumer of a named flow, from
        :func:`check_catalog` to runs and replays, checks it here; its report
        is on ``"{kind} {name}"``, placed at the declaration of ``name``.
        ``KeyError`` if there is no such flow, ``ValueError`` if a scenario
        does not join.

        A name is checked once per catalog, and kept: later calls return the
        same :class:`~haiproto.check.Flow`.  Flows naming one message share
        its :class:`~haiproto.check.Step`, and equal tuples are one object
        (``check_flow``'s ``shared``), so every flow is small enough to keep.
        The tables must not change after load; ``dataclasses.replace`` gives
        a copy that starts with no flow checked."""
        flow = self._flows.get(name)
        if flow is None:
            kind = "pattern" if name in self.patterns else "scenario"
            pattern = self.resolve_flow(name)
            flow = check_flow(pattern, self.messages, self.actions, kind, self._shared)
            if flow.report.diagnostics:
                flow = replace(flow, report=self.place(kind, name, flow.report))
            self._flows[name] = flow
        return flow

    def place(self, kind: str, name: str, report: CheckReport) -> CheckReport:
        """``report``, on the ``kind`` called ``name``, placed at its keyword
        (whose text is ``kind``), at a sidecar scenario's key, or, if it is not
        declared, at ``<catalog>`` with no span: ``_keys`` holds it, no file."""
        if not report.diagnostics:
            return report
        path, *at = self.declared.get(kind, {}).get(name, ("<catalog>",))
        if at:
            span = Span(*at, len(kind))
        else:  # a sidecar's scenario: its file is read again, once
            if path not in self._keys:
                self._keys[path] = _sidecar_keys(path)
            span = self._keys[path].get(("scenarios", name))
        return CheckReport(report.target, placed(report.diagnostics, path, span))

    def steps(self, name: str) -> tuple[Step, ...]:
        """The resolved steps of the flow called ``name`` (:meth:`flow`);
        ``ValueError`` if a message does not resolve."""
        flow = self.flow(name)
        if len(flow.steps) < len(flow.pattern.messages):
            raise ValueError("; ".join(d.message for d in flow.report.errors))
        return flow.steps


def _collect_paths(paths: Sequence[str | Path]) -> tuple[list[Path], list[Path]]:
    """Expand the given paths into ``.hai`` files and JSON sidecars."""
    hai: list[Path] = []
    sidecars: list[Path] = []
    for raw in paths:
        p = Path(raw)
        if p.is_dir():
            hai.extend(sorted(p.glob("*.hai")))
            sidecar = p / "catalog.json"
            if sidecar.exists():
                sidecars.append(sidecar)
        elif p.suffix == ".json":
            sidecars.append(p)
        else:
            hai.append(p)
    return hai, sidecars


def _sidecar_shape(data: object) -> list[tuple[str, str | None, str | None]]:
    """Each way a parsed sidecar is not the shape the loader reads, with the
    table and key it is about (see :func:`_keys`): an object whose ``scenarios``
    map names to pattern-name lists, whose ``annotations`` and ``interpretations``
    map names to strings, and whose ``provide_only`` lists pattern names."""
    if not isinstance(data, dict):
        return [("sidecar must be a JSON object", None, None)]

    def names(value: object) -> bool:
        return isinstance(value, list) and all(isinstance(s, str) for s in value)

    problems: list[tuple[str, str | None, str | None]] = []
    for key in ("scenarios", "annotations", "interpretations"):
        table = data.get(key, {})
        if not isinstance(table, dict):
            problems.append((f"sidecar key {key!r} must be an object", None, key))
            continue
        lists = key == "scenarios"
        what = "a list of pattern names" if lists else "a string"
        problems.extend(
            (f"sidecar key {key!r}: entry {name!r} must be {what}", key, name)
            for name, value in table.items()
            if not (names(value) if lists else isinstance(value, str))
        )
    if not names(data.get(key := "provide_only", [])):
        problems.append((f"sidecar key {key!r} must be a list of pattern names", None, key))
    return problems


#: Decodes the JSON value at an offset of a text: the value, and where it ends.
_decode_at = json.JSONDecoder().raw_decode


def _members(text: str, at: int) -> Iterator[tuple[object, int, int, int]]:
    """Each member of the JSON object or list whose bracket is at offset ``at``
    of ``text``, which ``json.loads`` reads: an object's key or a list's item,
    where it starts and ends, and where its value (an item: itself) starts."""
    keyed = text[at] == "{"
    at = WHITESPACE.match(text, at + 1).end()
    while text[at] not in "]}":
        key, end = scanstring(text, at + 1) if keyed else _decode_at(text, at)
        value = WHITESPACE.match(text, WHITESPACE.match(text, end).end() + 1).end() if keyed else at
        yield key, at, end, value
        at = WHITESPACE.match(text, _decode_at(text, value)[1]).end()
        if text[at] == ",":
            at = WHITESPACE.match(text, at + 1).end()


def _keys(text: str) -> dict[tuple, Span]:
    """Where the sidecar ``text``, which ``json.loads`` reads, has itself
    ``(None, None)``, each key of its object ``(None, key)``, each key of a
    top-level table ``(table, key)``, a repeated key's last as ``json.loads``
    keeps it, and each item of a top-level list ``(table, index)``."""
    at = WHITESPACE.match(text).end()
    places = [(None, None, at, at + 1)]
    for table, start, end, value in _members(text, at) if text[at] == "{" else ():
        places.append((None, table, start, end))
        members = _members(text, value) if text[value] in "[{" else ()
        keyed = text[value] == "{"
        places += [(table, m[0] if keyed else n, *m[1:3]) for n, m in enumerate(members)]
    spans: dict[tuple, Span] = {}
    line, start = 1, 0
    for table, key, at, end in places:
        line += text.count("\n", start, at)
        start = at
        spans[table, key] = Span(line, at - text.rfind("\n", 0, at), end - at)
    return spans


def _sidecar_keys(path: str) -> dict[tuple, Span]:
    """:func:`_keys` of the sidecar at ``path``; none if it no longer reads as one."""
    try:
        text = Path(path).read_text(encoding="utf-8")
        shape = _sidecar_shape(json.loads(text))
    except (OSError, ValueError, RecursionError):
        return {}
    return {} if shape else _keys(text)


#: The sidecar's tables of notes on flows, each with the kind of flow its
#: entries name: a pattern or scenario, or (``provide_only``) a pattern.
_NOTES = {"annotations": "flow", "interpretations": "flow", "provide_only": "pattern"}


def read_source(path: Path) -> str | Diagnostic:
    """The text of a ``.hai`` file, or the E-LEX finding that it does not
    read: a file that cannot be opened, or that is not UTF-8."""
    try:
        return path.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        return Diagnostic("error", "E-LEX", f"cannot read file: {exc}", str(path))


def load_with_diagnostics(
    paths: Sequence[str | Path],
) -> tuple[Catalog | None, tuple[Diagnostic, ...]]:
    """Build a catalog, returning ``None`` plus diagnostics on any error."""
    hai_files, sidecars = _collect_paths(paths)
    diags: list[Diagnostic] = []
    actions: dict[str, ActionDef] = {}
    messages: dict[str, Message] = {}
    patterns: dict[str, Pattern] = {}
    declared: dict[str, dict] = {kind: {} for kind in ("action", "message", "pattern", "scenario")}
    action_at, message_at, pattern_at, scenario_at = declared.values()
    roles: set[str] = set(PREDECLARED_ROLES)

    def err(code: str, message: str, path: str, span: Span | None = None) -> None:
        diags.append(Diagnostic("error", code, message, path, span))

    for file_path in hai_files:
        path = str(file_path)
        text = read_source(file_path)
        if isinstance(text, Diagnostic):
            diags.append(text)
            continue
        result = parse(text, path)
        diags.extend(result.diagnostics)
        if result.file is None:
            continue
        for decl in result.file.decls:
            node, name, span = decl.node, decl.name, decl.span
            if isinstance(node, str):  # roles are their own namespace
                roles.add(node)
                continue
            first = action_at.get(name) or message_at.get(name) or pattern_at.get(name)
            if first:
                diags.extend(placed([name_rule(name, first[0])], path, span))
                continue
            at = (path, span.line, span.col)
            if isinstance(node, ActionDef):
                actions[name], action_at[name] = node, at
            elif isinstance(node, Message):
                message_at[name] = at
                if node.action not in actions:
                    owner = f"message {name!r}"
                    diags.extend(placed([reference_rule(owner, "action", node.action)], path, span))
                    continue
                for endpoint in (node.sender, node.receiver):
                    if endpoint not in roles:
                        err(
                            "E-UNKNOWN-ROLE",
                            f"message {name!r} uses undeclared role {endpoint!r}",
                            path,
                            span,
                        )
                messages[name] = node
            else:
                pattern_at[name] = at
                unknown = [m for m in node.messages if m not in messages]
                found = [reference_rule(f"pattern {name!r}", "message", m) for m in unknown]
                diags.extend(placed(found, path, span))
                if not unknown:
                    patterns[name] = node

    scenarios: dict[str, tuple[str, ...]] = {}
    notes: dict[str, dict[str, str]] = {key: {} for key in _NOTES}
    for sidecar in sidecars:
        path = str(sidecar)
        try:
            text = sidecar.read_text(encoding="utf-8")
            data = json.loads(text)
        except (OSError, ValueError, RecursionError) as exc:  # not UTF-8, JSON, or too deep
            at = Span(exc.lineno, exc.colno) if isinstance(exc, json.JSONDecodeError) else None
            err("E-SYNTAX", f"cannot read sidecar: {exc}", path, at)
            continue
        keys = functools.cache(functools.partial(_keys, text))  # for the first finding
        shape = _sidecar_shape(data)
        for problem, *at in shape:
            err("E-SYNTAX", problem, path, keys()[tuple(at)])
        if shape:
            continue
        for name, steps in data.get("scenarios", {}).items():
            first = pattern_at.get(name) or scenario_at.get(name)
            if first:  # patterns and scenarios are both runnable flows
                found = [name_rule(name, first[0])]
            elif not steps:
                found = pattern_rule(Pattern(name, ()))
            else:
                owner = f"scenario {name!r}"
                found = [reference_rule(owner, "pattern", s) for s in steps if s not in patterns]
                if not found:
                    scenarios[name] = tuple(steps)
                    scenario_at[name] = (path,)
                    continue
            diags.extend(placed(found, path, keys()["scenarios", name]))
        for key, kind in _NOTES.items():
            entries = data.get(key, {})  # an object, or provide_only's list
            places = entries if isinstance(entries, dict) else range(len(entries))
            for place, name in zip(places, entries):  # a key, or an item and its index
                if name in patterns or (kind == "flow" and name in scenarios):
                    notes[key][name] = entries[name] if kind == "flow" else name
                else:
                    found = [reference_rule(f"sidecar key {key!r}", kind, name)]
                    diags.extend(placed(found, path, keys()[key, place]))

    if any(d.severity == "error" for d in diags):
        return None, tuple(diags)
    catalog = Catalog(
        actions=actions,
        messages=messages,
        patterns=patterns,
        scenarios=scenarios,
        annotations=notes["annotations"],
        interpretations=notes["interpretations"],
        provide_only=frozenset(notes["provide_only"]),
        roles=frozenset(roles),
        declared=declared,
        sources=tuple(str(p) for p in hai_files + sidecars),
    )
    return catalog, tuple(diags)


def fixtures_dir() -> Path:
    """The fixture corpus packaged with the library."""
    return Path(__file__).with_name("fixtures")


def load(paths: Sequence[str | Path]) -> Catalog:
    """Load a corpus, raising :class:`CatalogError` on any error."""
    catalog, diags = load_with_diagnostics(paths)
    if catalog is None:
        raise CatalogError([d for d in diags if d.severity == "error"])
    return catalog


def check_catalog(catalog: Catalog) -> list[CheckReport]:
    """Run every check over a loaded catalog, deterministically ordered; a
    flow's report is its own, as :meth:`Catalog.flow` keeps it."""
    reports: list[CheckReport] = []
    for name in sorted(catalog.actions):
        reports.append(catalog.place("action", name, check_action(catalog.actions[name])))
    for name in sorted(catalog.messages):
        report = check_message(catalog.messages[name], catalog.actions)
        reports.append(catalog.place("message", name, report))
    for flows in (catalog.patterns, catalog.scenarios):
        reports.extend(catalog.flow(name).report for name in sorted(flows))
    return reports


# ---------------------------------------------------------------------------
# Query / diff / compose
# ---------------------------------------------------------------------------


def query(catalog: Catalog, tags: Iterable[str] = ()) -> list[Pattern]:
    """Patterns carrying *all* the given tags, sorted by name.

    With no tags, every pattern is returned.  Unknown tags raise
    ``ValueError`` rather than silently matching nothing.
    """
    wanted = frozenset(tags)
    unknown = sorted(wanted - TAGS)
    if unknown:
        raise ValueError(f"unknown tag(s): {', '.join(unknown)}")
    return [
        catalog.patterns[name]
        for name in sorted(catalog.patterns)
        if wanted <= catalog.patterns[name].tags
    ]


#: One diff unit: the direction and action of a message, e.g.
#: ``("user>model", "annotate-sample")``.
DiffItem = tuple[str, str]


@dataclass(frozen=True)
class PatternDiff:
    """Result of comparing two patterns step by step."""

    a: str
    b: str
    shared: tuple[DiffItem, ...]
    only_in_a: tuple[DiffItem, ...]
    only_in_b: tuple[DiffItem, ...]

    def transpose(self) -> "PatternDiff":
        return PatternDiff(self.b, self.a, self.shared, self.only_in_b, self.only_in_a)


def _diff_sequence(catalog: Catalog, name: str) -> list[DiffItem]:
    return [
        (f"{step.message.sender}>{step.message.receiver}", step.action.name)
        for step in catalog.steps(name)
    ]


def _lcs_diff(a: list[DiffItem], b: list[DiffItem]) -> tuple[
    tuple[DiffItem, ...], tuple[DiffItem, ...], tuple[DiffItem, ...]
]:
    """Classic longest-common-subsequence split with a fixed tie-break."""
    n, m = len(a), len(b)
    dp = [[0] * (m + 1) for _ in range(n + 1)]
    for i in range(n - 1, -1, -1):
        for j in range(m - 1, -1, -1):
            if a[i] == b[j]:
                dp[i][j] = dp[i + 1][j + 1] + 1
            else:
                dp[i][j] = max(dp[i + 1][j], dp[i][j + 1])
    shared: list[DiffItem] = []
    only_a: list[DiffItem] = []
    only_b: list[DiffItem] = []
    i = j = 0
    while i < n and j < m:
        if a[i] == b[j]:
            shared.append(a[i])
            i += 1
            j += 1
        elif dp[i + 1][j] >= dp[i][j + 1]:
            only_a.append(a[i])
            i += 1
        else:
            only_b.append(b[j])
            j += 1
    only_a.extend(a[i:])
    only_b.extend(b[j:])
    return tuple(shared), tuple(only_a), tuple(only_b)


def diff(catalog: Catalog, name_a: str, name_b: str) -> PatternDiff:
    """Compare two patterns as sequences of ``(direction, action)`` steps.

    Anti-symmetric by construction: ``diff(c, b, a)`` is exactly
    ``diff(c, a, b).transpose()``.
    """
    for name in (name_a, name_b):
        if name not in catalog.patterns:
            raise KeyError(f"no pattern named {name!r}")
    if name_b < name_a:
        return diff(catalog, name_b, name_a).transpose()
    seq_a = _diff_sequence(catalog, name_a)
    seq_b = _diff_sequence(catalog, name_b)
    shared, only_a, only_b = _lcs_diff(seq_a, seq_b)
    return PatternDiff(name_a, name_b, shared, only_a, only_b)


def compose(
    catalog: Catalog, names: Sequence[str]
) -> tuple[Pattern, CheckReport]:
    """Concatenate patterns into one flow and check it at scenario scope.

    Returns the composed (anonymous) pattern together with the scenario-scope
    check report; composing an empty list raises ``ValueError``.
    """
    combined = _join(catalog, names, "+".join(names))
    flow = check_flow(combined, catalog.messages, catalog.actions, "scenario", catalog._shared)
    return combined, flow.report


def _join(catalog: Catalog, names: Sequence[str], name: str) -> Pattern:
    """The named patterns' messages in order, with the union of their tags."""
    if not names:
        raise ValueError("cannot compose an empty list of patterns")
    for part in names:
        if part not in catalog.patterns:
            raise ValueError(f"no pattern named {part!r}")
    parts = [catalog.patterns[part] for part in names]
    return Pattern(
        name=name,
        messages=tuple(m for p in parts for m in p.messages),
        tags=frozenset().union(*(p.tags for p in parts)),
    )


# ---------------------------------------------------------------------------
# Export
# ---------------------------------------------------------------------------


def _arg_json(arg) -> dict:
    if arg.var is None:
        return {
            "group": [
                {"var": var, "type": print_type(typ)} for var, typ in arg.type.members
            ]
        }
    return {"var": arg.var, "type": print_type(arg.type)}


def export_json(catalog: Catalog) -> dict:
    """A deterministic JSON-ready view of the whole catalog."""
    actions = [
        {
            "name": a.name,
            "params": list(a.params),
            "primitive": a.primitive.kind.value,
            "head": _arg_json(a.primitive.head),
            "refs": [_arg_json(r) for r in a.primitive.refs],
            "operations": [
                {"op": op.kind.value, "args": list(op.args)} for op in a.operations
            ],
        }
        for a in (catalog.actions[n] for n in sorted(catalog.actions))
    ]
    patterns = [
        {
            "name": p.name,
            "tags": sorted(p.tags),
            "provide_only": p.name in catalog.provide_only,
            "messages": [
                {
                    "name": m.name,
                    "sender": m.sender,
                    "receiver": m.receiver,
                    "action": m.action,
                    "args": list(m.args),
                    "modifiers": {mod.key: mod.value for mod in m.modifiers},
                }
                for m in (catalog.messages[mn] for mn in p.messages)
            ],
        }
        for p in (catalog.patterns[n] for n in sorted(catalog.patterns))
    ]
    scenarios = [
        {
            "name": name,
            "patterns": list(catalog.scenarios[name]),
            "messages": len(catalog.resolve_flow(name).messages),
        }
        for name in sorted(catalog.scenarios)
    ]
    notes = (("annotation", catalog.annotations), ("interpretation", catalog.interpretations))
    for entry in patterns + scenarios:  # the sidecar's notes on a flow
        for key, table in notes:
            if entry["name"] in table:
                entry[key] = table[entry["name"]]
    return {"actions": actions, "patterns": patterns, "scenarios": scenarios}
