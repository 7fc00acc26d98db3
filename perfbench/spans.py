"""Span tracing installed from outside the package.

:class:`Tracer` replaces each layer-boundary function at the attribute its
callers look it up through (``haiproto.catalog.parse`` is the parser as the
catalog loader sees it) with a wrapper that records a span: name, start,
end and the index of the enclosing span.  Spans stay in memory; per-layer
call counts and self times are derived from them after each operation.

``core.intersect`` and ``Binding.narrow`` are not wrapped: they are leaf
helpers called tens of thousands of times per operation, so wrapping them
would swamp the trace.  Their time counts toward their caller's self time.
"""

from __future__ import annotations

import importlib
import time
from collections import defaultdict


def _tokens(counts, args, result):
    counts["dsl.tokenize.tokens"] += len(result[0])


def _decls(counts, args, result):
    counts["dsl.parse.decls"] += len(result.file.decls) if result.file else 0


def _load(counts, args, result):
    catalog, diags = result
    counts["catalog.load.files"] += len(catalog.sources) if catalog else 0
    counts["catalog.load.errors"] += sum(d.severity == "error" for d in diags)
    counts["check.diagnostics"] += len(diags)


def _reports(counts, args, result):
    counts["check.diagnostics"] += sum(len(r.diagnostics) for r in result)


def _replay(counts, args, result):
    counts["check.diagnostics"] += len(result)


def _run(counts, args, result):
    counts["runtime.run.steps"] += len(result.steps)
    counts["runtime.run.aborted"] += result.outcome != "completed"


def _jsonl(counts, args, result):
    counts["runtime.to_jsonl.bytes"] += len(result.encode("utf-8"))


#: (object path, attribute, span name, counter).  The object path is a module
#: or ``module:Class``; several lookup sites may share one span name.
BOUNDARIES = [
    ("haiproto", "load_with_diagnostics", "catalog.load", _load),
    ("haiproto", "check_catalog", "catalog.check_catalog", _reports),
    ("haiproto", "run_scenario", "runtime.run_scenario", None),
    ("haiproto", "replay_check", "runtime.replay_check", _replay),
    ("haiproto.catalog", "parse", "dsl.parse", _decls),
    ("haiproto.catalog", "check_action", "check.check_action", None),
    ("haiproto.catalog", "check_message", "check.check_message", None),
    ("haiproto.catalog", "check_pattern", "check.check_pattern", None),
    ("haiproto.catalog", "compose", "catalog.compose", None),
    ("haiproto.dsl", "tokenize", "dsl.tokenize", _tokens),
    ("haiproto.check", "message_slots", "check.message_slots", None),
    ("haiproto.runtime", "message_slots", "check.message_slots", None),
    ("haiproto.runtime", "compose", "catalog.compose", None),
    ("haiproto.runtime", "run", "runtime.run", _run),
    ("haiproto.runtime", "check_pattern", "check.check_pattern", None),
    ("haiproto.runtime", "classify", "runtime.classify", None),
    ("haiproto.runtime", "parse_type", "dsl.parse_type", None),
    ("haiproto.runtime:Trace", "to_jsonl", "runtime.to_jsonl", _jsonl),
    ("haiproto.runtime:Trace", "all_from_jsonl", "runtime.from_jsonl", None),
    ("haiproto.runtime:AgentBehavior", "on_receive", "runtime.agent.on_receive", None),
    ("haiproto.runtime:ScriptedAgent", "produce", "runtime.agent.produce", None),
    ("haiproto.runtime:StubModelAgent", "produce", "runtime.agent.produce", None),
    ("haiproto.runtime:StubModelAgent", "on_receive", "runtime.agent.on_receive", None),
]

ROOT = "bench.op"


def _resolve(path: str):
    module, _, cls = path.partition(":")
    obj = importlib.import_module(module)
    return getattr(obj, cls) if cls else obj


class Tracer:
    """Records nested spans around the boundaries in :data:`BOUNDARIES`."""

    def __init__(self) -> None:
        self.spans: list = []  # (name, start, end, parent index) per span
        self.counts: defaultdict = defaultdict(int)
        self.absent: list[str] = []
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def wrap(self, name, fn, counter=None):
        spans, stack, counts, clock = self.spans, self._stack, self.counts, time.perf_counter

        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name, start, end, parent)
            if counter is not None:
                counter(counts, args, result)
            return result

        return traced

    def install(self) -> None:
        """Wrap every boundary that exists; record the ones that do not."""
        self.absent = []
        for path, attr, name, counter in BOUNDARIES:
            try:
                owner = _resolve(path)
            except (ImportError, AttributeError):
                owner = None
            if isinstance(owner, type):
                original = owner.__dict__.get(attr)
            else:
                original = getattr(owner, attr, None)
            if original is None:
                self.absent.append(f"{path}.{attr}")
                continue
            if isinstance(original, classmethod):
                wrapped = classmethod(self.wrap(name, original.__func__, counter))
            else:
                wrapped = self.wrap(name, original, counter)
            self._saved.append((owner, attr, original))
            setattr(owner, attr, wrapped)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    def reset(self) -> None:
        self.spans.clear()
        self.counts.clear()


def self_times(spans) -> dict[str, list[float]]:
    """Self time of every span, grouped by span name.

    A span's self time is its duration minus the durations of its direct
    children.  Calls on one thread nest strictly, so children never overlap
    and the self times of all spans under a root add up to the root's
    duration.
    """
    child_time = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            child_time[parent] += end - start
    out: dict[str, list[float]] = defaultdict(list)
    for (name, start, end, _), inner in zip(spans, child_time):
        out[name].append(end - start - inner)
    return out
