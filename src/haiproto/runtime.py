"""Deterministic simulation of patterns and scenarios.

The runtime steps through a checked flow: at each step the *sender*
produces payloads for the variables the flow says it must introduce, the
runtime validates them, binds them, and delivers the message to the
*receiver*.  Producibility follows the primitive: a provide's sender may
produce every variable of the message, a request's sender only its
references (the head is what the other party is being asked for).

Violations abort the run with a coded verdict, in this order of precedence:

* ``V-AGENT`` — the agent raised, or produced a key that is not a variable of
  the message it may produce, or a value that is not a :class:`Payload` or
  that the trace cannot write (a NaN, say).
* ``V-REBIND`` — a produced value differs from the variable's bound value.
* ``V-MISSING`` — a producible unbound variable was not produced.
* ``V-TYPE`` — a produced or bound value does not fit its variable's type here.

Runs are reproducible: deterministic agents and canonical JSON lines make
the same pattern, agents and seed yield byte-identical traces.  A trace is
linear in its length: each step records only the values it produced, plus a
fixed-size ``digest`` chained over every step so far, and
:meth:`Trace.bindings_at` rebuilds the values bound after any step.  Replay
re-runs a trace as it reads it, through :func:`run`'s step interpreter, and
compares each line with its re-run's canonical line; a run whose lines are
those of a run of its flow already verified in the same call is not re-run.
"""

from __future__ import annotations

import functools
import json
import math
import sys
import zlib
from dataclasses import dataclass, replace
from types import MappingProxyType
from typing import Callable, Iterable, Iterator, Mapping, NamedTuple, Sequence, Union

from .agents import AgentBehavior
from .agents import ScriptedAgent, StubModelAgent, classify  # noqa: F401, for perfbench/spans.py
from .catalog import Catalog
from .check import Flow, check_flow, reference_rule
from .core import (
    Diagnostic,
    Pattern,
    Payload,
    Span,
    TypeExpr,
    Vector,
    _NESTING,
    _TOO_DEEP,
    _nests_over,
    _value_from_json,
    _value_json,
    intersect,
)
from .dsl import parse_type, print_type


# ---------------------------------------------------------------------------
# Traces
# ---------------------------------------------------------------------------


_ascii = json.encoder.encode_basestring_ascii
_encode = json.JSONEncoder(
    sort_keys=True, separators=(",", ":"), allow_nan=False, check_circular=False
).encode


def _dump(value: object) -> str:
    """Canonical JSON of finite numbers: a trace line's bytes, a type-strict
    equality.  Given no record of the containers it is in, the encoder raises
    ``RecursionError`` for a cycle."""
    try:
        return _encode(value)
    except ValueError as exc:  # allow_nan=False's "Out of range float values ..."
        if str(exc).startswith("Out of range float"):
            raise ValueError("a number is not finite: JSON has no NaN or Infinity") from None
        raise


def _text(value: object) -> str:
    """``_dump(_value_json(value))``, a field's or a payload value's canonical
    JSON written from the value; any other type, a subclass too, is encoded."""
    cls = type(value)
    if cls is str:
        return _ascii(value)
    if cls is int:
        return int.__repr__(value)  # the encoder's own text for an int
    if cls is Vector:
        return f'{{"vec":[{",".join(map(float.__repr__, value.values))}]}}'
    if cls is tuple:
        return f'[{",".join(map(_text, value))}]'
    return _dump(_value_json(value))


def _needed(steps: Sequence[Iterable[tuple[str, TypeExpr]]]) -> tuple[tuple, ...]:
    """Each step's needed ``(var, type)`` pairs, sorted, each with the text of its
    ``produced`` entry before a value of that type and the first of its two places
    in a :func:`_produced` memo; each type's text is made once."""
    types: dict[TypeExpr, str] = {}
    plan, slot = [], 0
    for pairs in steps:
        entry = []
        for var, typ in pairs if len(pairs) < 2 else sorted(pairs):  # fresh: no var twice
            text = types.get(typ) or types.setdefault(
                typ, f'{{"type":{_ascii(print_type(typ))},"value":')
            entry.append((var, typ, f"{_ascii(var)}:{text}", slot))
            slot += 2
        plan.append(tuple(entry))
    return tuple(plan)


def _produced(needed: tuple, produced: Mapping[str, Payload], memo: list | None = None) -> str:
    """``_dump`` of a step's ``produced`` JSON, written from its payloads, given
    its :func:`_needed`: a payload whose type is not that very object has its
    type printed again.  ``memo``, one :func:`run_scenario` call's, holds at each
    slot the value last written there and its entry, which serves the very same
    value."""
    pieces = []
    for var, typ, prefix, at in needed:
        if (p := produced[var]).type is not typ:
            typed = f'{{"type":{_ascii(str(p.type))},"value":{_text(p.value)}}}'
            pieces.append(f"{_ascii(var)}:{typed}")
        elif memo is not None and memo[at] is p.value:
            pieces.append(memo[at + 1])
        else:
            pieces.append(f"{prefix}{_text(p.value)}}}")
            if memo is not None:
                memo[at], memo[at + 1] = p.value, pieces[-1]
    return "{%s}" % ",".join(pieces)


def _template(step, message, sender, receiver, action, verdict='"ok"', detail="null") -> tuple:
    """A step's line before its digest, between its digest and its ``produced``,
    and after, given the JSON texts of its other fields: the keys sorted, and a
    ``null`` detail left out, as :meth:`TraceStep.to_json` leaves it out.  It
    depends on neither the digest nor ``produced``."""
    detail = "" if detail == "null" else f'"detail":{detail},'
    return (
        f'{{"action":{action},{detail}"digest":',
        f',"message":{message},"produced":',
        f',"receiver":{receiver},"sender":{sender},"step":{step},"verdict":{verdict}}}',
    )


def _outcome_line(outcome: object, run: object, steps: int) -> str:
    return f'{{"outcome":{_text(outcome)},"run":{_text(run)},"steps":{steps}}}'


def _not_json(constant: str) -> float:
    raise ValueError(f"{constant} is not a JSON number")


def _finite(text: str) -> float:
    if math.isfinite(value := float(text)):
        return value
    raise ValueError(f"{text} is not a finite number")


#: Read a trace line, and a value at an offset of one; ``NaN``, ``Infinity``
#: and ``1e999``, which no run writes, do not read.
_decoder = json.JSONDecoder(parse_float=_finite, parse_constant=_not_json)
_load, _decode_at = _decoder.decode, _decoder.raw_decode
#: Read a value at an offset; the re-run's line, which is all finite, checks its numbers.
_scan_value = json.JSONDecoder(parse_constant=_not_json).scan_once
_space, _scan_key = json.decoder.WHITESPACE.match, json.decoder.scanstring


def _lines(text: str, block: int = 1 << 16) -> Iterator[str]:
    """``text.split("\\n")``, a block of about ``block`` characters at a time.
    Not ``splitlines``: a JSON string may hold a raw U+2028, which it splits
    at, and the ``\\r`` of a CRLF line is JSON whitespace."""
    start = 0
    while end := text.find("\n", start + block) + 1:
        yield from text[start : end - 1].split("\n")
        start = end
    yield from text[start:].split("\n")


class _Unreadable(ValueError):
    """Trace text that does not read at line ``line``, which its message names,
    and column ``col``: the JSON decoder's, or 1."""

    def __init__(self, line: int, text: str, col: int = 1) -> None:
        super().__init__(f"line {line}: {text}")
        self.line, self.col = line, col


def _key_column(line: str, key: str) -> int:
    """The column of top-level key ``key``'s opening quote in ``line``, an object
    that decodes, at its last place, whose value is kept; 1 if it lacks ``key``."""
    column, at = 1, _space(line).end()
    while line.startswith('"', at := _space(line, at + 1).end()):  # past "{" or ","
        name, end = _scan_key(line, at + 1)
        column = at + 1 if name == key else column
        _, end = _decode_at(line, _space(line, _space(line, end).end() + 1).end())  # past ":"
        at = _space(line, end).end()
    return column


def _entry(lineno: int, line: str) -> dict:
    """Trace line ``line`` decoded in full; ``_Unreadable`` if no JSON object, or too deep."""
    try:
        entry = _load(line)
    except json.JSONDecodeError as exc:
        raise _Unreadable(lineno, f"{exc.msg} (column {exc.colno})", exc.colno) from None
    except (ValueError, RecursionError) as exc:  # a number, or deeper than this stack reads
        raise _Unreadable(lineno, _TOO_DEEP if type(exc) is RecursionError else str(exc)) from None
    if _nests_over(entry, _NESTING):
        raise _Unreadable(lineno, _TOO_DEEP)
    if not isinstance(entry, dict):
        raise _Unreadable(lineno, "not a JSON object")
    return entry


class TraceStep(NamedTuple):  # a tuple: one record per step read
    """One executed message: what its sender produced, and the trace digest.

    ``digest`` is 8 hex digits of a running ``zlib.crc32`` over the canonical
    JSON of each step's ``produced`` (and of an aborted step's ``detail``),
    from the first step through this one.  It is the trace's only record of
    what came before, so replay, which re-runs the recorded values, notices a
    changed value.  :meth:`Trace.bindings_at` rebuilds the values bound.  A
    step is a named tuple: it iterates and compares as its values in field
    order, and ``_replace`` gives an edited copy; its ``produced`` dict must
    not be changed in place (see :class:`Trace`).
    """

    step: int
    message: str
    sender: str
    receiver: str
    action: str
    produced: dict[str, dict]
    digest: str
    verdict: str
    detail: str | None = None

    def to_json(self) -> dict:
        data = self._asdict()
        if self.detail is None:
            del data["detail"]
        return data


#: Decode a run's own step line, each key and each text but the digest
#: interned: the names, types and labels that steps repeat are each one string.
_read_line = json.JSONDecoder(object_pairs_hook=lambda pairs: {
    sys.intern(k): sys.intern(v) if type(v) is str and k != "digest" else v for k, v in pairs
}).decode


#: A step line's fields in order, and the fields it may not leave out.
_STEP_FIELDS = TraceStep._fields
_REQUIRED = [name for name in _STEP_FIELDS if name not in TraceStep._field_defaults]


def _misfit(entry: dict, known=_STEP_FIELDS, required=_REQUIRED) -> str | None:
    """Why ``entry`` is not a line of fields ``known`` that needs ``required`` (a
    :class:`TraceStep`): its first unknown or missing field; ``None`` if none."""
    unknown = sorted(entry.keys() - known)
    if unknown:
        return f"{unknown[0]} is not a trace field"
    missing = [name for name in required if name not in entry]
    return f"{missing[0]} is missing" if missing else None


@dataclass(frozen=True)
class Trace:
    """A full run: header, steps, and outcome, serializable to JSON lines.

    A trace from :func:`run` is its lines: one string a step, and no
    :class:`TraceStep` until ``steps`` is first read, which decodes the lines
    and keeps the steps.  :meth:`to_jsonl` writes and counts the lines, decoding
    none, so a step's ``produced`` dict must not be changed in place.  The lines
    are no field: ``fields`` names the five below, and ``==``, ``repr`` and
    ``replace`` read ``steps``.  A trace built by hand, or a ``replace`` copy,
    writes its lines from its steps each time it is written.
    """

    run_id: str
    pattern: str
    seed: int
    steps: tuple[TraceStep, ...]
    outcome: Union[str, dict]

    def __getattr__(self, name: str):  # only for what is not set: a run's unread steps
        if name != "steps" or "_lines" not in vars(self):
            raise AttributeError(name)
        steps = vars(self)["steps"] = tuple(TraceStep(**_read_line(line)) for line in self._lines)
        return steps

    def to_jsonl(self) -> str:
        """The header, step and outcome lines, each ``_dump`` of its dict."""
        lines = vars(self).get("_lines")
        if lines is None:  # written from the steps, a field at a time
            lines = [f"{head}{_text(s.digest)}{middle}{_dump(s.produced)}{tail}" for s in self.steps
                     for head, middle, tail in [_template(*map(_text, s[:5] + s[7:]))]]
        return "\n".join([
            f'{{"format":2,"pattern":{_text(self.pattern)},"run":{_text(self.run_id)},'
            f'"seed":{_text(self.seed)}}}',
            *lines,
            _outcome_line(self.outcome, self.run_id, len(lines)),
        ]) + "\n"

    def bindings_at(self, step: int) -> dict[str, dict]:
        """The values bound after step ``step`` (0 for none), by variable name.

        Values bind once, so these are the ``produced`` values of steps 1 to
        ``step``, in the JSON form a step records them; ``IndexError`` if there
        is no such step.
        """
        if not 0 <= step <= len(self.steps):
            raise IndexError(f"run {self.run_id} has no step {step}")
        bound: dict[str, dict] = {}
        for each in self.steps[:step]:
            bound.update(each.produced)
        return dict(sorted(bound.items()))

    @classmethod
    def from_jsonl(cls, text: str) -> "Trace":
        traces = cls.all_from_jsonl(text)
        if len(traces) != 1:
            raise ValueError(f"expected one trace, found {len(traces)}")
        return traces[0]

    @classmethod
    def all_from_jsonl(cls, text: str) -> list["Trace"]:
        """Parse a stream of traces, e.g. a ``--repeat K --trace FILE`` file;
        ``ValueError``, naming the line, if a line is not a JSON object or nests
        over 64 deep, a header is not format 2, a step's fields are not
        :class:`TraceStep`'s, or an outcome line contradicts its run."""
        return [run.trace for run in _each_run(_lines(text), _Run)]


class _Run:
    """A run of a trace file, checked as its lines are read, its steps kept.
    The first problem, in this order, raises ``ValueError`` at its outcome
    line: a header not format 2, a step without :class:`TraceStep`'s fields,
    a header with a field not ``format``, ``run``, ``pattern`` or ``seed``, or
    without one of the last three, an outcome line with a field not ``outcome``,
    ``run`` or ``steps``, or whose ``run`` or ``steps`` is not the run's."""

    count, problem, misfit, steps = 0, None, None, ()  # a run started from a kept header sets none
    over = False  # True once it took its outcome line itself

    def __init__(self, lineno: int, line: str):
        header = _entry(lineno, line)
        if "outcome" in header:
            raise _Unreadable(lineno, "an outcome line without a header")
        self.header, self.run_id, self.steps = header, header.get("run"), []
        version = header.get("format", 1)
        self.problem = None if type(version) is int and version == 2 else _Unreadable(
            lineno, f"the trace is format {_dump(version)}, this reader reads "
            "format 2: regenerate it with `haiproto run`"
        )
        named = ("run", "pattern", "seed")
        misfit = _misfit(header, ("format", *named), named)
        self.misfit = misfit and _Unreadable(lineno, misfit)

    def take(self, lineno: int, line: str) -> bool:  # a step line is decoded in full
        return False

    def step(self, lineno: int, line: str, entry: dict) -> None:
        self.count += 1
        if self.fits(lineno, entry):
            self.steps.append(TraceStep(**entry))

    def fits(self, lineno: int, entry: dict) -> bool:
        misfit = _misfit(entry)
        if misfit is not None and self.problem is None:
            self.problem = _Unreadable(lineno, f"step {self.count}: {misfit}")
        return misfit is None

    def end(self, lineno: int, line: str, entry: dict) -> None:
        misfit = _misfit(entry, ("outcome", "run", "steps"), ())
        problem = self.problem or self.misfit or (misfit and _Unreadable(lineno, misfit))
        footer = {**entry, "run": self.run_id, "steps": self.count}
        if problem is None and _dump(entry) != _dump(footer):
            problem = _Unreadable(lineno, f"outcome line of run {self.run_id!r} contradicts it")
        if problem is not None:
            raise problem
        run_id, pattern, seed = (self.header[key] for key in ("run", "pattern", "seed"))
        self.trace = Trace(run_id, pattern, seed, tuple(self.steps), entry["outcome"])


def _each_run(lines: Iterable[str], start: Callable[[int, str], _Run]) -> Iterator[_Run]:
    """Each run of a trace file's ``lines`` once its outcome line is read;
    ``start`` makes a run from its first line's text, which it need not decode;
    a later line, the outcome line too, is decoded in full only if the run does
    not :meth:`~_Run.take` it.  ``ValueError``, naming the line, for a line that
    is not a JSON object or does not decode, a run that does not read, or, at
    its header line, a run too deep to write back or check at this stack depth."""
    run, lineno, head = None, 0, 1
    try:
        for lineno, line in enumerate(lines, start=1):
            if not line or line.isspace():
                continue
            last = lineno
            if run is None:
                run = start(head := lineno, line)
            elif run.take(lineno, line):
                if run.over:
                    yield run
                    run = None
            elif "outcome" in (entry := _entry(lineno, line)):
                run.end(lineno, line, entry)
                yield run
                run = None
            else:
                run.step(lineno, line, entry)
    except UnicodeDecodeError as exc:  # from ``lines``, reading the next line
        raise _Unreadable(lineno + 1, str(exc)) from None
    except RecursionError:  # a value read at a shallower stack than it is written or checked at
        raise _Unreadable(head, "values nest too deep to check at this stack depth") from None
    if run is not None:
        raise _Unreadable(last, "trace ends without an outcome line")


class RunViolation(Exception):
    """Internal: aborts a run with a coded verdict."""

    def __init__(self, code: str, detail: str):
        super().__init__(f"{code}: {detail}")
        self.code, self.detail = code, detail


# ---------------------------------------------------------------------------
# Running
# ---------------------------------------------------------------------------


def run(
    catalog: Catalog,
    flow: Union[str, Pattern, Flow],
    agents: Mapping[str, AgentBehavior],
    seed: int = 0,
    run_id: str | None = None,
) -> Trace:
    """Simulate one pass over a flow.

    ``flow`` is a pattern or scenario name, checked at its own scope by
    ``catalog.flow``; an ad-hoc pattern, checked at pattern scope; or a checked
    :class:`~haiproto.check.Flow`, used as given.  It must check without errors
    (``ValueError`` otherwise); every participating role must have an agent
    (``LookupError`` otherwise).  A violation aborts the run and is recorded in
    the trace outcome rather than raised.  The trace keeps only its step
    lines, written straight from the payloads; its ``steps`` are read from
    them when first asked for (see :class:`Trace`).
    """
    if isinstance(flow, str):
        flow = catalog.flow(flow)
    elif not isinstance(flow, Flow):
        flow = check_flow(flow, catalog.messages, catalog.actions, shared=catalog._shared)
    roles = _kept(flow)[3]
    if not agents.keys() >= roles.keys():
        raise LookupError(f"no agent for role {next(r for r in roles if r not in agents)!r}")
    if run_id is None:
        run_id = f"{flow.pattern.name}-s{seed}-r0"
    lines: list[str] = []
    last = None
    for last, line in _execute(flow, agents):
        lines.append(line)
    trace = object.__new__(Trace)  # its lines, and no steps until they are read
    vars(trace).update(run_id=run_id, pattern=flow.pattern.name, seed=seed,
                       outcome=_outcome(last), _lines=tuple(lines))
    return trace


def _kept(flow: Flow) -> tuple[tuple[str, ...], tuple[Mapping, ...], tuple[tuple, ...], dict]:
    """What runs and replays need of ``flow`` alone, made once and kept on it:
    each step's 3 line texts, flat (no tuple a step for GC); each step's needed
    types as a read-only view, which its sender is given, and as its
    :func:`_needed`; and the flow's roles, in order of first use.  Each role's,
    action's and type's text is made once.  ``ValueError`` if the flow does not
    check: it has no plan."""
    kept = vars(flow)
    if "_kept" not in kept:
        if errors := flow.report.errors:
            messages = "; ".join(e.message for e in errors)
            raise ValueError(f"cannot run {flow.pattern.name!r}: {messages}")
        steps, needed = flow.steps, flow.needed
        roles = dict.fromkeys(role for m, _, _, _ in steps for role in (m.sender, m.receiver))
        actions = dict.fromkeys(a.name for _, a, _, _ in steps)
        texts = {name: _ascii(name) for name in [*roles, *actions]}
        templates: list[str] = []
        for index, (m, a, _, _) in enumerate(steps, start=1):
            names = texts[m.sender], texts[m.receiver], texts[a.name]
            templates += _template(str(index), _ascii(m.name), *names)
        views = tuple([MappingProxyType(dict(pairs)) for pairs in needed])
        kept["_kept"] = tuple(templates), views, _needed(needed), roles
    return kept["_kept"]


def _execute(flow: Flow, agents: Mapping[str, AgentBehavior]) -> Iterator[tuple]:
    """Take the steps of a run of ``flow``, yielding each as it is taken: its
    number and verdict, and its canonical line.  Stops after a step that is
    not ``ok``."""
    memo = agents.memo if type(agents) is _Cast else None
    values: dict[str, Payload] = {}
    binding = MappingProxyType(values)  # what agents see: read-only, never copied
    digest, plain = 0, True  # plain: each value bound is a Payload of its plan's very type
    templates, needs, texts, _ = _kept(flow)
    steps = zip(flow.steps, needs, texts, *[iter(templates)] * 3)
    for index, (step, needed, sorted_needed, head, middle, tail) in enumerate(steps, start=1):
        message, action = step.message, step.action  # needed: the flow's read-only view
        text, verdict, detail = "{}", "ok", None
        try:
            try:
                produced = agents[message.sender].produce(message, action, needed, binding)
                if type(produced) is not dict:  # a dict is read in full before agents run
                    produced = dict(produced)
            except RunViolation:
                raise
            except Exception as exc:
                raise RunViolation("V-AGENT", f"producer failed: {exc}") from exc
            # Clean: a Payload of the plan's very type for each needed variable and no
            # more, as every value bound so far; check_flow proved no check below fires.
            clean = plain and len(produced) == len(sorted_needed)
            for var, typ, _, _ in sorted_needed if clean else ():
                if type(payload := produced.get(var)) is not Payload or payload.type is not typ:
                    clean = False
                    break
            if not clean:
                order = sorted(produced, key=str)  # a key that is no str is not a variable
                for var in order:
                    if var not in message.args:
                        problem = f"agent produced {var!r}, not a variable of {message.name!r}"
                        raise RunViolation("V-AGENT", problem)
                    if var not in needed and var not in values:
                        problem = f"sender of {message.name!r} may not produce {var!r}"
                        raise RunViolation("V-AGENT", problem)
                    if not isinstance(produced[var], Payload):
                        problem = f"agent produced {var!r} as a {type(produced[var]).__name__}"
                        raise RunViolation("V-AGENT", problem)
                for var in order:
                    if var in values and produced[var] != values[var]:
                        problem = f"{var!r} is already bound to a different value"
                        raise RunViolation("V-REBIND", problem)
                for var in needed:
                    if var not in produced:
                        problem = f"sender of {message.name!r} did not produce {var!r}"
                        raise RunViolation("V-MISSING", problem)
            try:  # before the V-TYPE check, which an unwritable value would pass
                written = _produced(sorted_needed, produced, memo) if sorted_needed else "{}"
            except (TypeError, ValueError) as exc:  # no JSON, or an int too long to print
                raise RunViolation("V-AGENT", f"the trace cannot write a value: {exc}") from exc
            if not clean:
                for var, declared in step.slots:  # a bound value must fit every use
                    payload = produced[var] if var in needed else values.get(var)
                    typ = needed.get(var, declared)
                    if payload is not None and intersect(payload.type, typ) is None:
                        problem = f"{var!r} expects {typ}, got {payload.type}"
                        raise RunViolation("V-TYPE", problem)
                plain = plain and all(produced[var].type is typ for var, typ, _, _ in sorted_needed)
            for var, _, _, _ in sorted_needed:
                values[var] = produced[var]
            text = written
            try:
                agents[message.receiver].on_receive(message, action, binding)
            except RunViolation:
                raise
            except Exception as exc:
                raise RunViolation("V-AGENT", f"receiver failed: {exc}") from exc
        except RunViolation as violation:
            verdict, detail = violation.code, violation.detail
        digest = zlib.crc32(text.encode(), digest)
        if detail is not None:  # replay raises the recorded detail again: check it here
            digest = zlib.crc32(_dump(detail).encode(), digest)
        if verdict != "ok":  # an aborted step's line: a template of its own
            fields = index, message.name, message.sender, message.receiver, action.name
            head, middle, tail = _template(*map(_text, (*fields, verdict, detail)))
        yield (index, verdict), f'{head}"{digest:08x}"{middle}{text}{tail}'
        if verdict != "ok":
            return


def _outcome(last: tuple | None) -> Union[str, dict]:
    """The outcome of a run whose last step has number and verdict ``last``."""
    if last is None or last[1] == "ok":
        return "completed"
    return {"aborted": {"code": last[1], "step": last[0]}}


def run_scenario(
    catalog: Catalog,
    name: str,
    agents: Mapping[str, AgentBehavior],
    seed: int = 0,
    repeat: int = 1,
) -> list[Trace]:
    """Run a named scenario (or pattern) ``repeat`` times.

    The flow is checked once, at its own scope, by ``catalog.flow``; each run
    refuses it if it has errors.  Each repetition starts from empty bindings
    but keeps the same agent objects, so stateful agents accumulate across
    repetitions.  ``repeat=0`` returns an empty list.  The runs of one call write
    a value's text once per distinct value object at each needed variable.
    """
    flow = catalog.flow(name)
    if repeat > 1:  # a value can repeat only across runs; a fresh object is no value
        agents = _Cast(agents)
        agents.memo = [object(), None] * sum(map(len, _kept(flow)[2]))
    return [
        run(catalog, flow, agents, seed=seed, run_id=f"{name}-s{seed}-r{rep}")
        for rep in range(repeat)
    ]


class _Cast(dict):
    """One :func:`run_scenario` call's agents, and its own memo for :func:`_produced`."""


def replay_check(
    trace: Union[Trace, str, Iterable[str]], catalog: Catalog
) -> list[Diagnostic]:
    """Re-run each trace as it is read, a step per recorded step, and report
    each run's first difference, at the trace line it is about.

    ``trace`` is a trace file's text, its lines (an open file, say), read lazily, or
    a :class:`Trace`, read as its :meth:`~Trace.to_jsonl` text; a line ends at
    ``\\n`` only.  The re-run is a function of the flow and the lines it is served
    alone, so a run whose step lines, whole, are those of a run of the same flow that
    replayed clean earlier in the call, and whose outcome line is the canonical one
    for them, its own run id and its count, is clean with no step re-run and that
    outcome line not decoded.  The call keeps those lines as a trie per flow name, up
    to ``_SERVED_LINES`` lines, a clean run's joining it at the next header, and a
    flow's first canonical header: one that is its text around another run id has
    only the id decoded.  At a run's first line off the trie, the lines read along it
    are re-run in order, as below, and so is the rest of the run.  A step line that
    is its flow's template for the step, verdict ``ok``, around a 10-character digest
    slot and a ``produced`` whose entries start at its plan's prefixes
    (``"X":{"type":"<type>","value":``) has only the values decoded, at the plan's
    types; other lines are decoded in full.  A re-run line equal to the recorded one
    verifies it; another is compared field by field, type-strictly (1 ≠ 1.0).  A run
    reports, by precedence: ``E-TRACE`` for text that does not read (see
    :meth:`Trace.all_from_jsonl`), where reading stops, as text never raises, or for a
    Trace that does not write (a NaN, say); ``E-UNRESOLVED`` if the catalog lacks the
    flow, at the header's ``pattern`` key, or any step's message, at its ``message``
    key; the first differing field, at its key's column, ``E-BINDING`` where the
    re-run aborts ``V-TYPE`` and the trace says ``ok``, else ``E-TRACE``.
    """
    if isinstance(trace, Trace):
        try:
            trace = trace.to_jsonl()
        except (TypeError, ValueError, RecursionError) as exc:  # built by hand
            return [Diagnostic("error", "E-TRACE", f"the trace does not write: {exc}")]
    found: list[Diagnostic] = []
    lines = _lines(trace) if isinstance(trace, str) else (  # an item: a line or more
        line for item in trace for line in item.removesuffix("\n").split("\n")
    )
    try:
        for replayed in _each_run(lines, _Verified(catalog).start):
            if replayed.found or replayed.difference:
                found.append(replayed.found or replayed.difference)
    except ValueError as exc:  # from reading: replay raises no ValueError
        span = Span(exc.line, exc.col) if isinstance(exc, _Unreadable) else None
        found.append(Diagnostic("error", "E-TRACE", f"unreadable trace: {exc}", span=span))
    return found


#: The most step lines one :func:`replay_check` call keeps of the runs that
#: replayed clean.
_SERVED_LINES = 1024


class _Verified(dict):
    """The step lines of the runs that replayed clean in one :func:`replay_check`
    call over ``catalog``, a trie per flow name: a node maps a step line, whole, to
    the next node, and holds the outcome of a run that ended there, whose line is
    then not decoded, at key ``None``.  A clean run waits in ``later`` to join its
    trie at the next header: a file of one run builds none.  ``lines`` counts both."""

    def __init__(self, catalog: Catalog):
        self.catalog, self.heads, self.later, self.lines = catalog, {}, None, 0

    def start(self, lineno: int, line: str) -> _Replay:
        """The run that header ``line`` starts.  A flow's first header that is its
        canonical text and starts a run with a flow is kept in ``heads``, split around
        its run id, with its flow and trie; a header that is a kept one's text around
        another JSON string starts a run from those, only that value decoded."""
        if self.later is not None:
            node, lines, outcome = self.later
            for step in lines:
                node[step] = node = {}
            node[None], self.later = outcome, None
        cut = line.find(',"run":') + 7  # ',"' is in no JSON string
        kept = self.heads.get(head := line[:cut])
        if kept is not None:
            after, header, flow, node = kept
            try:
                run_id, end = _decode_at(line, cut)
            except (ValueError, RecursionError):  # the full decode says why
                end = None
            if end == len(line) - len(after) and line.endswith(after) and type(run_id) is str:
                run = object.__new__(_Replay)  # as __init__ leaves a run of that header
                run.verified, run.flow, run.node, run.read = self, flow, node, []
                run.header, run.run_id = {**header, "run": run_id}, run_id
                return run
        run = _Replay(self, lineno, line)
        if kept is None and run.read is not None and line == _dump(run.header):
            self.heads[head] = line[cut + len(_dump(run.run_id)) :], run.header, run.flow, run.node
        return run


@functools.lru_cache(maxsize=1024)
def _parse_type(text: str) -> TypeExpr:
    """:func:`~haiproto.dsl.parse_type`, once per type string across replays:
    a type is frozen, so every replay may share it."""
    return parse_type(text)


class _Replay(_Run, AgentBehavior):
    """A run re-run as it is read, and compared with the trace up to the first
    difference.  It plays every role: it serves the step just read and raises
    its violation again, from ``produce`` if it produced nothing, else from
    ``on_receive``.  Of the findings, ``found``, for the flow or a message,
    wins over ``difference``.  While its lines follow the call's trie of
    verified runs, it only keeps them (``read``); the re-run is built when a
    line leaves the trie."""

    entry = rerun = last = found = difference = node = read = fresh = None

    def __init__(self, verified: _Verified, lineno: int, line: str):
        super().__init__(lineno, line)
        self.verified = verified
        if self.problem or self.misfit:
            return
        name = self.header["pattern"]
        try:
            flow = verified.catalog.flow(name)
        except (KeyError, TypeError, ValueError):  # unknown, not a name, an empty scenario
            self.found = reference_rule(f"run {self.run_id}", "flow", name)
        else:
            if flow.report.errors:  # it has no plan
                error = flow.report.errors[0]
                text = f"run {self.run_id}: flow {name!r} does not check: {error.message}"
                self.found = Diagnostic("error", error.code, text)
        if self.found is not None:
            self.found = replace(self.found, span=Span(lineno, _key_column(line, "pattern")))
            return
        self.flow, self.node, self.read = flow, verified.setdefault(name, {}), []

    def produce(self, message, action, needed, binding):
        step = self.entry
        if type(step) is list:  # the prefix walk's values, each at its plan entry's type
            return {var: Payload(typ, _value_from_json(value))
                    for (var, typ, _, _), value in zip(self.plan[self.count - 1], step)}
        if step["verdict"] != "ok" and not step["produced"]:
            raise RunViolation(step["verdict"], step.get("detail"))
        return {var: Payload(_parse_type(data["type"]), _value_from_json(data["value"]))
                for var, data in step["produced"].items()}  # interned: the flow's types

    def on_receive(self, message, action, binding):
        if type(self.entry) is dict and self.entry["verdict"] != "ok":
            raise RunViolation(self.entry["verdict"], self.entry.get("detail"))

    def take(self, lineno: int, line: str) -> bool:
        """Keep ``line`` if it follows the trie, and end the run, ``over`` and
        clean, at the outcome line the trie's node wants.  Off the trie,
        re-run the lines kept, as each was read, and from then on keep each step
        line for the trie while it has room.  Replay ``line`` if it is the next
        step's template, verdict ``ok``, around a 10-character digest slot and a
        ``produced`` object whose entries start at its plan's prefixes: each value
        alone is decoded, its depth checked if its text is long enough to pass the
        line's bound, and the re-run's line checks the rest; else return False."""
        if self.read is not None:
            node = self.node.get(line)
            if node is not None:
                self.node = node
                self.read.append((lineno, line))
                return True
            ended = self.node.get(None)
            if ended is not None and line == _outcome_line(ended, self.run_id, len(self.read)):
                self.over = True  # clean: its outcome line is not decoded
                return True
            read, self.read = self.read, None
            self.templates, _, self.plan, _ = _kept(self.flow)
            # a cycle through the agents, broken when the re-run ends
            self.rerun = _execute(self.flow, dict.fromkeys(self.verified.catalog.roles, self))
            for at, kept in read:
                if not self.take(at, kept):
                    self.step(at, kept, _entry(at, kept))
            self.fresh, self.room = [], _SERVED_LINES - self.verified.lines
        index = self.count
        if self.rerun is None or 3 * index >= len(self.templates):
            return False
        head, middle, tail = self.templates[3 * index : 3 * index + 3]
        at = len(head) + 10
        if not (line.startswith(head) and line.endswith(tail) and line.startswith(middle, at)):
            return False
        at, values = at + len(middle), []  # at the "{" of produced
        for _, _, prefix, _ in self.plan[index]:
            if not line.startswith(prefix, at + 1):  # past a "{" or ","
                return False
            try:
                value, at = _scan_value(line, start := at + 1 + len(prefix))
            except (StopIteration, ValueError, RecursionError):  # the full decode says why
                return False
            # a text nests at most half its length deep; the value sits 3 deep in its line
            if at - start > 2 * (_NESTING - 3) and _nests_over(value, _NESTING - 3):
                return False
            values.append(value)
            at += 1  # past its entry's "}": the re-run's line checks each character passed over
        close = "}" if values else "{}"  # what is left of produced
        if not line.startswith(close, at) or at + len(close) != len(line) - len(tail):
            return False
        self.step(lineno, line, values)
        return True

    def step(self, lineno: int, line: str, entry: dict | list) -> None:
        self.count += 1
        fresh = self.fresh
        if fresh is not None:
            if len(fresh) < self.room:
                fresh.append(line)
            else:  # too long for the trie: the run is re-run if it comes again
                self.fresh = None
        if self.rerun is not None:
            self.entry = entry
            taken = next(self.rerun, None)
            if taken is not None:
                self.last = taken[0]
                if line == taken[1]:
                    return  # the same text: the same fields, type for type
            entry = entry if type(entry) is dict else _entry(lineno, line)  # take's: in full
            self.compare(lineno, line, self.count, taken, entry)
        if self.fits(lineno, entry) and self.found is None:
            message = entry["message"]
            if not isinstance(message, str) or message not in self.verified.catalog.messages:
                owner = f"run {self.run_id} step {entry['step']}"
                found = reference_rule(owner, "message", message)
                self.found = replace(found, span=Span(lineno, _key_column(line, "message")))

    def end(self, lineno: int, line: str, entry: dict) -> None:
        rerun, self.rerun, self.entry = self.rerun, None, None  # past the end
        if rerun is not None:
            taken = next(rerun, None)
            outcome = _outcome(self.last)
            if taken is None and self.problem is None and line == _outcome_line(
                outcome, self.run_id, self.count
            ):
                if self.fresh is not None:  # clean: its lines join the trie at the next header
                    self.verified.later = self.node, self.fresh, outcome
                    self.verified.lines += len(self.fresh)
                return
        super().end(lineno, line, entry)
        if rerun is not None:
            self.compare(lineno, line, self.count + 1, taken, {"outcome": entry["outcome"]})

    def compare(self, lineno: int, line: str, number: int, taken: tuple | None, theirs: dict):
        """Name the first difference of the trace's entry ``theirs``, read at
        line ``lineno`` from ``line``, at place ``number`` from the re-run's (its step
        ``taken``, or its outcome once it has stopped), at its key's column.
        Comparing ends there, and after the re-run's outcome."""
        ours = _decoder.decode(taken[1]) if taken else {"outcome": _outcome(self.last)}
        where = f"step {number}" if "step" in ours.keys() | theirs.keys() else "outcome"
        if ours.get("verdict") == "V-TYPE" and theirs.get("verdict") == "ok":
            key, code = "verdict", "E-BINDING"
            text = f"{where}: {ours['detail']}, the trace says ok"
        else:
            code, text = "E-TRACE", None
            for key in sorted(ours.keys() | theirs.keys()):
                was, now = _dump(theirs.get(key)), _dump(ours.get(key))
                if was != now:
                    text = f"{where}: {key} is {was} in the trace, {now} on re-run"
                    break
        if text is not None:
            text, at = f"run {self.run_id}: {text}", Span(lineno, _key_column(line, key))
            self.difference = Diagnostic("error", code, text, span=at)
        if text is not None or taken is None:
            self.rerun = None
