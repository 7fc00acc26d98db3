"""Deterministic simulation of patterns and scenarios.

The runtime steps through a checked flow: at each step the *sender*
produces payloads for the variables the flow says it must introduce, the
runtime validates them, binds them, and delivers the message to the
*receiver*.  Producibility follows the primitive: a provide's sender may
produce every variable of the message, a request's sender only its
references (the head is what the other party is being asked for).

Violations abort the run with a coded verdict, in this order of precedence:

* ``V-AGENT`` — the agent raised, or produced a variable outside the message.
* ``V-REBIND`` — a produced value differs from the variable's bound value.
* ``V-MISSING`` — a producible unbound variable was not produced.
* ``V-TYPE`` — a produced or bound value does not fit its variable's type here.

Runs are reproducible: deterministic agents and canonical JSON lines make
the same pattern, agents and seed yield byte-identical traces.  A trace is
linear in its length: each step records only the values it produced, plus a
fixed-size ``digest`` chained over every step so far, and
:meth:`Trace.bindings_at` rebuilds the values bound after any step.  Replay
re-runs a trace through :func:`run` and compares every field.
"""

from __future__ import annotations

import functools
import marshal
import math
import operator
import re
import zlib
from dataclasses import MISSING, dataclass, fields
from types import MappingProxyType
from typing import Callable, ClassVar, Iterable, Iterator, Mapping, Sequence, Union

from .catalog import Catalog
from .check import Flow, check_flow, reference_rule
from .core import (
    ActionDef,
    BaseType,
    Diagnostic,
    GroupType,
    ListType,
    Message,
    OpKind,
    Pattern,
    Role,
    TypeExpr,
    intersect,
)
from .dsl import parse_type, print_type
import json


@dataclass(frozen=True)
class Vector:
    """A numeric feature vector: ``ValueError`` if a coordinate is not finite,
    since a trace writes each as a JSON number."""

    values: tuple[float, ...]

    def __post_init__(self) -> None:
        values = tuple(float(v) for v in self.values)
        if not all(map(math.isfinite, values)):
            raise ValueError(f"vector coordinates must be finite, got {values!r}")
        object.__setattr__(self, "values", values)


@dataclass(frozen=True)
class Blob:
    """An opaque artifact stood in for by a stable name (e.g. a rendering)."""

    ref: str


Scalar = Union[str, int, float, Vector, Blob]
Value = Union[Scalar, tuple]


def _is_scalar(value: object) -> bool:
    """A string, an int (not a bool), a finite float, a vector or a blob."""
    if isinstance(value, float):
        return math.isfinite(value)
    return isinstance(value, (str, int, Vector, Blob)) and not isinstance(value, bool)


@dataclass(frozen=True)
class Payload:
    """A typed runtime value: list types hold tuples, base types scalars."""

    type: TypeExpr
    value: Value

    def __post_init__(self) -> None:
        if isinstance(self.type, GroupType):
            raise ValueError("payloads carry base or list types, not groups")
        if isinstance(self.type, ListType):
            if not isinstance(self.value, tuple) or not all(
                _is_scalar(v) for v in self.value
            ):
                raise ValueError(
                    f"list-typed payload needs a tuple of scalars, got "
                    f"{self.value!r}"
                )
        elif not _is_scalar(self.value):
            raise ValueError(f"payload value {self.value!r} is not a scalar")

    def to_json(self) -> dict:
        return {"type": print_type(self.type), "value": _value_json(self.value)}


def _value_json(value: Value) -> object:
    if isinstance(value, Vector):
        return {"vec": list(value.values)}
    if isinstance(value, Blob):
        return {"blob": value.ref}
    if isinstance(value, tuple):
        return [_value_json(v) for v in value]
    return value


def _value_from_json(data: object) -> Value:
    if isinstance(data, dict):
        if "vec" in data:
            return Vector(tuple(data["vec"]))
        if "blob" in data:
            return Blob(data["blob"])
        raise ValueError(f"unknown value encoding {data!r}")
    if isinstance(data, list):
        return tuple(_value_from_json(v) for v in data)
    return data  # type: ignore[return-value]


def coerce_value(raw: object) -> Value:
    """Normalize a literal into a payload value (lists become tuples)."""
    if isinstance(raw, (list, tuple)):
        return tuple(coerce_value(v) for v in raw)  # type: ignore[misc]
    if isinstance(raw, (str, int, float, Vector, Blob)):
        return raw
    raise ValueError(f"unsupported payload literal {raw!r}")


# ---------------------------------------------------------------------------
# Classification used by the stub model
# ---------------------------------------------------------------------------


class _Centroids:
    """Per-label running sums and counts of example vectors, and the
    nearest-centroid rule over them.

    Each example is added coordinate by coordinate, in the order given, so
    the same examples give the same floats however they arrive.  Example
    lengths are kept in order of first appearance; once there are two, no
    point fits every example, so the sums stop being kept.
    """

    def __init__(self) -> None:
        self.sums: dict[str, list[float]] = {}
        self.counts: dict[str, int] = {}
        self.dims: dict[int, None] = {}  # an ordered set

    def add(self, vec: tuple[float, ...], label: str) -> None:
        self.dims.setdefault(len(vec))
        if len(self.dims) > 1:
            return
        total = self.sums.get(label)
        if total is None:
            total = self.sums[label] = [0.0] * len(vec)
            self.counts[label] = 0
        for i, v in enumerate(vec):
            total[i] += v
        self.counts[label] += 1

    def nearest(self, point: Union[Vector, Sequence[float]]) -> str:
        """The label whose centroid has the smallest squared Euclidean
        distance to ``point``; exact ties go to the smaller label.
        ``ValueError`` if a squared distance overflows a float."""
        if not self.dims:
            raise ValueError("cannot classify without examples")
        coords = point.values if isinstance(point, Vector) else tuple(
            float(v) for v in point
        )
        for dims in self.dims:  # the first example that does not fit
            if dims != len(coords):
                raise ValueError(
                    f"dimension mismatch: example has {dims} coordinates, "
                    f"point has {len(coords)}"
                )

        def distance(label: str) -> float:
            count = self.counts[label]
            return sum((s / count - p) ** 2 for s, p in zip(self.sums[label], coords))

        try:  # ** 2 raises where d * d would give inf, a tie
            return min((distance(label), label) for label in self.sums)[1]
        except OverflowError:
            raise ValueError("a squared distance to a centroid overflows") from None


def classify(
    examples: Sequence[tuple[Sequence[float], str]],
    point: Union[Vector, Sequence[float]],
) -> str:
    """Nearest-centroid label for ``point`` given labeled example vectors.

    Examples with the same label are averaged into one centroid; the label of
    the centroid with the smallest squared Euclidean distance wins, with exact
    ties broken toward the lexicographically smaller label.  ``ValueError``
    without examples, if an example's length is not the point's, or if a
    squared distance overflows a float.
    """
    centroids = _Centroids()
    for vec, label in examples:
        centroids.add(tuple(float(v) for v in vec), label)
    return centroids.nearest(point)


# ---------------------------------------------------------------------------
# Agents
# ---------------------------------------------------------------------------


class AgentBehavior:
    """Base class for pluggable agents.

    ``produce`` returns payloads for the variables in ``needed`` (a mapping
    of variable name to its current narrowed type); ``on_receive`` lets the
    receiver observe a delivered message.  Both see ``binding``, a live
    read-only view of the values bound so far, valid during the call (copy it
    to keep it), and must be deterministic.
    """

    def produce(
        self,
        message: Message,
        action: ActionDef,
        needed: Mapping[str, TypeExpr],
        binding: Mapping[str, Payload],
    ) -> Mapping[str, Payload]:
        raise NotImplementedError

    def on_receive(
        self,
        message: Message,
        action: ActionDef,
        binding: Mapping[str, Payload],
    ) -> None:
        return None


class ScriptedAgent(AgentBehavior):
    """Replays configured values, keyed by ``"<message>.<variable>"``.

    Each key holds a queue consumed across produce calls (and across
    scenario repetitions); when exhausted, the last value repeats.  A needed
    variable with no queue is simply not produced, which the runtime reports
    as ``V-MISSING``.
    """

    def __init__(self, script: Mapping[str, Sequence[object]]):
        self.script = {key: list(values) for key, values in script.items()}
        for key, values in self.script.items():
            if not values:
                raise ValueError(f"empty script queue for {key!r}")
        self._cursor: dict[str, int] = {}

    def produce(self, message, action, needed, binding):
        out: dict[str, Payload] = {}
        for var, typ in needed.items():
            key = f"{message.name}.{var}"
            queue = self.script.get(key)
            if queue is None:
                continue
            index = self._cursor.get(key, 0)
            raw = queue[min(index, len(queue) - 1)]
            self._cursor[key] = index + 1
            out[var] = Payload(typ, coerce_value(raw))
        return out


class StubModelAgent(AgentBehavior):
    """A minimal learner: remembers labeled vectors, answers by similarity.

    Receiving a provide whose head is an output label bound to a symbol, with
    a map operation linking it to a vector-valued variable, stores the
    ``(vector, label)`` pair as a training example.  When asked to produce:

    * a list of output labels — the sorted vocabulary seen so far,
    * an output value tied by ``map`` to a bound vector — the nearest-centroid
      label over stored examples,
    * feedback — a stable placeholder blob named after the subtype,
    * any other input or output — the next queued sample vector,

    with per-variable scripted overrides taking precedence.  Anything else
    raises, which the runtime reports as ``V-AGENT``.

    The learner is incremental: each example, from ``examples=`` or from a
    delivered message, updates per-label running sums and the vocabulary, so
    learning and prediction each cost O(labels × dims), however many examples
    are stored.  Predictions equal :func:`classify` over :attr:`examples`.
    :attr:`examples` is the learner's record of what it was taught, in order;
    treat it as read-only, since changing it does not change the sums.
    """

    def __init__(
        self,
        labels: Sequence[str] = (),
        examples: Sequence[tuple[Sequence[float], str]] = (),
        samples: Sequence[object] = (),
        script: Mapping[str, Sequence[object]] | None = None,
    ):
        self.labels = tuple(labels)
        self.examples: list[tuple[tuple[float, ...], str]] = []
        self._centroids = _Centroids()
        self._vocab = set(self.labels)
        self._sorted_vocab: tuple[str, ...] | None = None
        for vec, label in examples:
            self._learn(Vector(vec).values, label)
        self.samples = list(samples)
        self._sample_cursor = 0
        self._override = ScriptedAgent(script) if script else None

    # -- learning ------------------------------------------------------------

    def _learn(self, vec: tuple[float, ...], label: str) -> None:
        self.examples.append((vec, label))
        self._centroids.add(vec, label)
        if label not in self._vocab:
            self._vocab.add(label)
            self._sorted_vocab = None

    def on_receive(self, message, action, binding):
        head = action.primitive.head
        if head.var is None:
            return
        if not isinstance(head.type, BaseType) or head.type.role is not Role.OUTPUT:
            return
        if head.type.subtypes and "label" not in head.type.subtypes:
            return
        to_message = dict(zip(action.params, message.args))
        label_payload = binding.get(to_message[head.var])
        if label_payload is None or not isinstance(label_payload.value, str):
            return
        source = self._map_source(action, to_message, head.var, binding, {})
        if source is not None:
            self._learn(source.values, label_payload.value)

    # -- producing -----------------------------------------------------------

    def _vocabulary(self) -> tuple[str, ...]:
        if self._sorted_vocab is None:
            self._sorted_vocab = tuple(sorted(self._vocab))
        return self._sorted_vocab

    def _next_sample(self) -> Value:
        if not self.samples:
            raise RuntimeError("stub has no sample values configured")
        raw = self.samples[min(self._sample_cursor, len(self.samples) - 1)]
        self._sample_cursor += 1
        return coerce_value(raw)

    def produce(self, message, action, needed, binding):
        out: dict[str, Payload] = {}
        if self._override is not None:
            out.update(self._override.produce(message, action, needed, binding))
        to_message = dict(zip(action.params, message.args))
        to_param = {msg: param for param, msg in to_message.items()}
        for var, typ in needed.items():
            if var in out:
                continue
            out[var] = Payload(typ, self._produce_value(
                action, typ, to_message, to_param[var], binding, out
            ))
        return out

    def _produce_value(self, action, typ, to_message, param, binding, pending):
        if isinstance(typ, ListType) and typ.element.role is Role.OUTPUT:
            return self._vocabulary()
        if isinstance(typ, BaseType):
            if typ.role is Role.OUTPUT and "raw_data" not in typ.subtypes:
                source = self._map_source(action, to_message, param, binding, pending)
                if source is not None and self.examples:
                    return self._centroids.nearest(source)
            if typ.role is Role.FEEDBACK:
                return Blob(typ.subtypes[0] if typ.subtypes else "feedback")
            if typ.role in (Role.INPUT, Role.OUTPUT):
                return self._next_sample()
        raise RuntimeError(f"stub cannot produce a value of type {typ}")

    def _map_source(self, action, to_message, param, binding, pending):
        """A vector bound to a variable that shares a map with ``param``."""
        for op in action.operations:
            if op.kind is not OpKind.MAP or param not in op.args:
                continue
            for other in op.args:
                if other == param:
                    continue
                var = to_message.get(other)
                payload = pending.get(var) or binding.get(var)
                if payload is not None and isinstance(payload.value, Vector):
                    return payload.value
        return None


# ---------------------------------------------------------------------------
# Agent configuration files
# ---------------------------------------------------------------------------

_SECTION_RE = re.compile(r"^\[([A-Za-z_][A-Za-z0-9_]*)\s+(scripted|stub)\]$")
_NUMBER_RE = re.compile(r"^-?\d+(\.\d+)?$")


def _parse_literal(text: str, where: str) -> object:
    try:
        return _literal(text, where)
    except RecursionError:
        raise ValueError(f"{where}: literal nested too deeply") from None


def _literal(text: str, where: str) -> object:
    text = text.strip()
    if text.startswith('"') and text.endswith('"') and len(text) >= 2:
        return text[1:-1].replace('\\"', '"').replace("\\\\", "\\")
    if _NUMBER_RE.match(text):
        return float(text) if "." in text else int(text)
    if text.startswith("vec(") and text.endswith(")"):
        inner = text[4:-1].strip()
        parts = [p.strip() for p in inner.split(",")] if inner else []
        try:
            return Vector(tuple(float(p) for p in parts))
        except ValueError:
            raise ValueError(f"{where}: malformed vector {text!r}") from None
    if text.startswith("blob(") and text.endswith(")"):
        return Blob(text[5:-1].strip())
    if text.startswith("[") and text.endswith("]"):
        inner = text[1:-1].strip()
        if not inner:
            return ()
        return tuple(_literal(p, where) for p in _split_top(inner))
    if re.match(r"^[A-Za-z][A-Za-z0-9_-]*$", text):
        return text
    raise ValueError(f"{where}: cannot parse literal {text!r}")


def _split_top(text: str) -> list[str]:
    """Split on commas not nested inside parentheses or brackets."""
    parts: list[str] = []
    depth = 0
    current: list[str] = []
    for ch in text:
        if ch in "([":
            depth += 1
        elif ch in ")]":
            depth -= 1
        if ch == "," and depth == 0:
            parts.append("".join(current))
            current = []
        else:
            current.append(ch)
    parts.append("".join(current))
    return parts


def parse_agents(text: str, path: str = "<agents>") -> dict[str, AgentBehavior]:
    """Parse an ``.agents`` configuration into agents keyed by role.

    The format is line-based::

        [user scripted]
        A2.Y = "happy"        // repeat a key to queue several values
        A4.X = vec(0.0, 0.0)

        [model stub]
        labels = calm, happy, sad
        example = vec(0.0, 0.0) -> happy
        sample = vec(1.0, 1.0)

    Raises ``ValueError`` on malformed input.
    """
    agents: dict[str, AgentBehavior] = {}
    section: tuple[str, str] | None = None
    script: dict[str, list[object]] = {}
    stub: dict[str, list] = {}

    def flush() -> None:
        nonlocal script, stub
        if section is None:
            return
        role, kind = section
        if role in agents:
            raise ValueError(f"{path}: duplicate section for role {role!r}")
        if kind == "scripted":
            agents[role] = ScriptedAgent(script)
        else:
            agents[role] = StubModelAgent(
                labels=stub.get("labels", []),
                examples=stub.get("examples", []),
                samples=stub.get("samples", []),
                script=script or None,
            )
        script, stub = {}, {}

    for lineno, raw_line in enumerate(text.splitlines(), start=1):
        line = raw_line.split("//", 1)[0].strip()
        if not line:
            continue
        where = f"{path}:{lineno}"
        match = _SECTION_RE.match(line)
        if match:
            flush()
            section = (match.group(1), match.group(2))
            continue
        if section is None:
            raise ValueError(f"{where}: expected a [role kind] section header")
        if "=" not in line:
            raise ValueError(f"{where}: expected 'key = value'")
        key, value = (part.strip() for part in line.split("=", 1))
        kind = section[1]
        if kind == "stub" and key == "labels":
            stub.setdefault("labels", []).extend(
                str(_parse_literal(p, where)) for p in _split_top(value)
            )
        elif kind == "stub" and key == "example":
            if "->" not in value:
                raise ValueError(f"{where}: example needs 'vec(...) -> label'")
            vec_text, label_text = value.rsplit("->", 1)
            vec = _parse_literal(vec_text, where)
            if not isinstance(vec, Vector):
                raise ValueError(f"{where}: example input must be a vector")
            stub.setdefault("examples", []).append(
                (vec.values, str(_parse_literal(label_text, where)))
            )
        elif kind == "stub" and key == "sample":
            stub.setdefault("samples", []).append(_parse_literal(value, where))
        elif re.match(r"^[A-Za-z][A-Za-z0-9_-]*\.[A-Za-z][A-Za-z0-9_]*$", key):
            script.setdefault(key, []).append(_parse_literal(value, where))
        else:
            raise ValueError(f"{where}: unknown key {key!r}")
    flush()
    if not agents:
        raise ValueError(f"{path}: no agent sections found")
    return agents


# ---------------------------------------------------------------------------
# Traces
# ---------------------------------------------------------------------------


#: Canonical JSON of finite numbers: a trace line's bytes, a type-strict equality.
_dump = json.JSONEncoder(sort_keys=True, separators=(",", ":"), allow_nan=False).encode
_ascii = json.encoder.encode_basestring_ascii


def _scalar(value: object) -> str:
    """``_dump(value)``; a string or an int skips the encoder's set-up, which
    costs more than the encoding."""
    if type(value) is str:
        return _ascii(value)
    if type(value) is int:
        return int.__repr__(value)  # the encoder's own text for an int
    return _dump(value)


def _step_line(step: "TraceStep", produced: str) -> str:
    """``_dump(step.to_json())``, given ``produced``, ``_dump(step.produced)``:
    the keys in sorted order, each value encoded by itself."""
    detail = "" if step.detail is None else f'"detail":{_scalar(step.detail)},'
    return (
        f'{{"action":{_scalar(step.action)},{detail}"digest":{_scalar(step.digest)},'
        f'"message":{_scalar(step.message)},"produced":{produced},'
        f'"receiver":{_scalar(step.receiver)},"sender":{_scalar(step.sender)},'
        f'"step":{_scalar(step.step)},"verdict":{_scalar(step.verdict)}}}'
    )


def _not_json(constant: str) -> float:
    raise ValueError(f"{constant} is not a JSON number")


def _finite(text: str) -> float:
    if math.isfinite(value := float(text)):
        return value
    raise ValueError(f"{text} is not a finite number")


#: Reads one trace line; ``NaN``, ``Infinity`` and ``1e999``, which no run
#: writes, do not read.
_load = json.JSONDecoder(parse_float=_finite, parse_constant=_not_json).decode


def _lines(text: str, block: int = 1 << 16) -> Iterator[str]:
    """``text.splitlines()``, split a block of about ``block`` characters at a
    time: each block but the last ends with a newline, which ends a line."""
    start = 0
    while end := text.find("\n", start + block) + 1:
        yield from text[start:end].splitlines()
        start = end
    yield from text[start:].splitlines()


@dataclass(frozen=True)
class TraceStep:
    """One executed message: what its sender produced, and the trace digest.

    ``digest`` is 8 hex digits of a running ``zlib.crc32`` over the canonical
    JSON of each step's ``produced`` (and of an aborted step's ``detail``),
    from the first step through this one.  It is the trace's only record of
    what came before, so replay, which re-runs the recorded values, notices a
    changed value.  :meth:`Trace.bindings_at` rebuilds the values bound.
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
        data = dict(zip(_STEP_FIELDS, _step_values(self)))
        if self.detail is None:
            del data["detail"]
        return data


#: A step line's fields in order, their values, and the fields it may not leave out.
_STEP_FIELDS = tuple(field.name for field in fields(TraceStep))
_step_values = operator.attrgetter(*_STEP_FIELDS)
_REQUIRED = [field.name for field in fields(TraceStep) if field.default is MISSING]


def _misfit(entry: dict) -> str:
    """Why ``entry`` is not a :class:`TraceStep`: its first unknown or missing field."""
    unknown = sorted(entry.keys() - _STEP_FIELDS)
    if unknown:
        return f"{unknown[0]} is not a trace field"
    missing = [name for name in _REQUIRED if name not in entry]
    return f"{missing[0]} is missing"


@dataclass(frozen=True)
class Trace:
    """A full run: header, steps, and outcome, serializable to JSON lines.

    A trace from :func:`run` is a value: it keeps the canonical JSON of each
    step's ``produced`` that its digest was computed over, and
    :meth:`to_jsonl` writes that text, so a step's ``produced`` dict must not
    be changed in place.  The kept text is not a field: ``fields``, ``==`` and
    ``repr`` do not see it, and a ``dataclasses.replace`` copy or a trace
    built by hand encodes its steps' ``produced`` when written.
    """

    run_id: str
    pattern: str
    seed: int
    steps: tuple[TraceStep, ...]
    outcome: Union[str, dict]

    #: ``_dump(step.produced)`` for each step, kept by :func:`run`.
    _produced: ClassVar[tuple[str, ...] | None] = None

    def to_jsonl(self) -> str:
        """The header, step and outcome lines, each ``_dump`` of its dict."""
        produced = self._produced
        if produced is None:
            produced = [_dump(step.produced) for step in self.steps]
        run_id = _scalar(self.run_id)
        lines = [
            f'{{"format":2,"pattern":{_scalar(self.pattern)},"run":{run_id},'
            f'"seed":{_scalar(self.seed)}}}',
            *map(_step_line, self.steps, produced),
            f'{{"outcome":{_scalar(self.outcome)},"run":{run_id},'
            f'"steps":{len(self.steps)}}}',
        ]
        return "\n".join(lines) + "\n"

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
        ``ValueError``, naming the line, if a line is not a JSON object, a
        header is not format 2, a step's fields are not :class:`TraceStep`'s,
        or an outcome line contradicts its run."""
        return list(cls._read_each(text))

    @classmethod
    def _read_each(cls, text: str) -> Iterator["Trace"]:
        """Each run when its outcome line is read, and only then checked; the
        text is split into lines as it is read, not all at once."""
        lines: list[tuple[int, dict]] = []
        for lineno, line in enumerate(_lines(text), start=1):
            if not line.strip():
                continue
            try:
                entry = _load(line)
            except json.JSONDecodeError as exc:
                problem = f"line {lineno}: {exc.msg} (column {exc.colno})"
                raise ValueError(problem) from None
            except (ValueError, RecursionError) as exc:  # a number, or nesting too deep
                raise ValueError(f"line {lineno}: {exc}") from None
            if not isinstance(entry, dict):
                raise ValueError(f"line {lineno} is not a JSON object")
            if "outcome" not in entry:
                lines.append((lineno, entry))
                continue
            if not lines:
                raise ValueError(f"line {lineno}: an outcome line without a header")
            (first, header), body, lines = lines[0], lines[1:], []
            version = header.get("format", 1)
            if type(version) is not int or version != 2:
                raise ValueError(
                    f"line {first}: the trace is format {_dump(version)}, this reader "
                    f"reads format 2: regenerate it with `haiproto run`"
                )
            steps = []
            for number, (at, step) in enumerate(body, start=1):
                try:
                    steps.append(TraceStep(**step))
                except TypeError:
                    problem = f"malformed trace line {at}: step {number}: {_misfit(step)}"
                    raise ValueError(problem) from None
            try:
                run_id, pattern, seed = header["run"], header["pattern"], header["seed"]
            except KeyError as exc:
                problem = f"malformed trace line {first}: {exc.args[0]} is missing"
                raise ValueError(problem) from None
            if _dump(entry) != _dump({**entry, "run": run_id, "steps": len(body)}):
                raise ValueError(
                    f"line {lineno}: outcome line of run {run_id!r} contradicts it"
                )
            yield cls(run_id, pattern, seed, tuple(steps), entry["outcome"])
        if lines:
            raise ValueError("trace ends without an outcome line")


class RunViolation(Exception):
    """Internal: aborts a run with a coded verdict."""

    def __init__(self, code: str, detail: str):
        super().__init__(f"{code}: {detail}")
        self.code = code
        self.detail = detail


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
    the trace outcome rather than raised.  The trace is a value: it keeps the
    text its digest was computed over and writes it, so its steps' ``produced``
    dicts must not be changed in place (see :class:`Trace`).
    """
    if isinstance(flow, str):
        flow = catalog.flow(flow)
    elif not isinstance(flow, Flow):
        flow = check_flow(flow, catalog.messages, catalog.actions)
    if flow.report.errors:
        raise ValueError(
            f"cannot run {flow.pattern.name!r}: "
            + "; ".join(d.message for d in flow.report.errors)
        )
    for step in flow.steps:
        for role in (step.message.sender, step.message.receiver):
            if role not in agents:
                raise LookupError(f"no agent for role {role!r}")
    if run_id is None:
        run_id = f"{flow.pattern.name}-s{seed}-r0"

    values: dict[str, Payload] = {}
    binding = MappingProxyType(values)  # what agents see: read-only, never copied
    steps: list[TraceStep] = []
    texts: list[str] = []  # each step's produced, as digested and as written
    outcome: Union[str, dict] = "completed"
    digest = 0

    for index, (step, pairs) in enumerate(zip(flow.steps, flow.needed), start=1):
        message, action = step.message, step.action
        needed = dict(pairs)
        produced_json: dict[str, dict] = {}
        verdict, detail = "ok", None
        try:
            try:
                produced = dict(
                    agents[message.sender].produce(
                        message, action, dict(needed), binding
                    )
                )
            except RunViolation:
                raise
            except Exception as exc:
                raise RunViolation("V-AGENT", f"producer failed: {exc}") from exc
            order = sorted(produced)
            for var in order:
                if var not in message.args:
                    raise RunViolation(
                        "V-AGENT",
                        f"agent produced {var!r}, not a variable of "
                        f"{message.name!r}",
                    )
                if var not in needed and var not in values:
                    raise RunViolation(
                        "V-AGENT",
                        f"sender of {message.name!r} may not produce {var!r}",
                    )
            for var in order:
                if var in values and produced[var] != values[var]:
                    raise RunViolation(
                        "V-REBIND",
                        f"{var!r} is already bound to a different value",
                    )
            for var in needed:
                if var not in produced:
                    raise RunViolation(
                        "V-MISSING",
                        f"sender of {message.name!r} did not produce {var!r}",
                    )
            for var, declared in step.slots:  # a bound value must fit every use
                payload = produced[var] if var in needed else values.get(var)
                typ = needed.get(var, declared)
                if payload is not None and intersect(payload.type, typ) is None:
                    raise RunViolation(
                        "V-TYPE", f"{var!r} expects {typ}, got {payload.type}"
                    )
            for var in sorted(needed):  # the key order of a parsed trace
                values[var] = produced[var]
                produced_json[var] = produced[var].to_json()
            try:
                agents[message.receiver].on_receive(message, action, binding)
            except RunViolation:
                raise
            except Exception as exc:
                raise RunViolation("V-AGENT", f"receiver failed: {exc}") from exc
        except RunViolation as violation:
            verdict, detail = violation.code, violation.detail
            outcome = {"aborted": {"code": violation.code, "step": index}}
        text = _dump(produced_json) if produced_json else "{}"
        texts.append(text)
        digest = zlib.crc32(text.encode(), digest)
        if detail is not None:  # replay raises the recorded detail again: check it here
            digest = zlib.crc32(_dump(detail).encode(), digest)
        steps.append(
            TraceStep(
                step=index,
                message=message.name,
                sender=message.sender,
                receiver=message.receiver,
                action=action.name,
                produced=produced_json,
                digest=f"{digest:08x}",
                verdict=verdict,
                detail=detail,
            )
        )
        if verdict != "ok":
            break
    trace = Trace(run_id, flow.pattern.name, seed, tuple(steps), outcome)
    object.__setattr__(trace, "_produced", tuple(texts))
    return trace


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
    repetitions.  ``repeat=0`` returns an empty list.
    """
    flow = catalog.flow(name)
    return [
        run(catalog, flow, agents, seed=seed, run_id=f"{name}-s{seed}-r{rep}")
        for rep in range(repeat)
    ]


def replay_check(
    trace: Union[Trace, str, Iterable[str]], catalog: Catalog
) -> list[Diagnostic]:
    """Re-run each trace through :func:`run` and report its first difference.

    One agent plays every role: it serves each step's recorded payloads and
    re-raises its recorded violation.  ``E-UNRESOLVED``: the catalog lacks the
    flow or a message; ``E-BINDING``: the re-run aborts ``V-TYPE`` where the
    trace records ``ok``; ``E-TRACE``: any other difference, or text that does
    not read, where reading stops (text never raises).  Concatenated traces (a
    ``--repeat`` file) are read and checked one run at a time.  A flow is checked
    once per catalog, by ``catalog.flow``; fields compare type-strictly (1 ≠ 1.0).
    """
    if not isinstance(trace, (Trace, str)):
        trace = "\n".join(trace)
    traces = [trace] if isinstance(trace, Trace) else Trace._read_each(trace)
    parse = functools.lru_cache(maxsize=None)(parse_type)  # once per type string
    found: list[Diagnostic | None] = []
    try:
        for parsed in traces:  # one run's objects at a time, its lines read lazily
            found.append(_replay_one(parsed, catalog, parse))
    except ValueError as exc:  # from reading: _replay_one raises no ValueError
        found.append(Diagnostic("error", "E-TRACE", f"unreadable trace: {exc}"))
    return [diag for diag in found if diag is not None]


class _Recording(AgentBehavior):
    """Serves each step's recorded payloads and re-raises its violation: from
    ``produce`` if it produced nothing, else from ``on_receive``."""

    def __init__(self, steps: Sequence[TraceStep], parse: Callable[[str], TypeExpr]):
        self.steps = steps
        self.parse = parse
        self.index = -1

    def produce(self, message, action, needed, binding):
        self.index += 1
        step = self.steps[self.index]
        if step.verdict != "ok" and not step.produced:
            raise RunViolation(step.verdict, step.detail)
        return {
            var: Payload(self.parse(data["type"]), _value_from_json(data["value"]))
            for var, data in step.produced.items()
        }

    def on_receive(self, message, action, binding):
        step = self.steps[self.index]
        if step.verdict != "ok":
            raise RunViolation(step.verdict, step.detail)


def _replay_one(
    trace: Trace, catalog: Catalog, parse: Callable[[str], TypeExpr]
) -> Diagnostic | None:
    """``trace``'s first difference from its re-run."""

    def found(code: str, text: str) -> Diagnostic:
        return Diagnostic("error", code, f"run {trace.run_id}: {text}")

    name = trace.pattern
    try:
        flow = catalog.flow(name)
    except (KeyError, TypeError, ValueError):  # unknown, not a name, an empty scenario
        return reference_rule(f"run {trace.run_id}", "flow", name)
    if flow.report.errors:
        error = flow.report.errors[0]
        return found(error.code, f"flow {name!r} does not check: {error.message}")
    agents = dict.fromkeys(catalog.roles, _Recording(trace.steps, parse))
    rerun = run(catalog, flow, agents, trace.seed, trace.run_id)
    # unlike ==, marshal tells 1, 1.0 and True apart (format 2: no back-references)
    replayed, recorded = ([*map(_step_values, t.steps), t.outcome] for t in (rerun, trace))
    if marshal.dumps(replayed, 2) == marshal.dumps(recorded, 2):
        return None
    replayed = [step.to_json() for step in rerun.steps] + [{"outcome": rerun.outcome}]
    recorded = [step.to_json() for step in trace.steps] + [{"outcome": trace.outcome}]
    for step in trace.steps:
        if not isinstance(step.message, str) or step.message not in catalog.messages:
            owner = f"run {trace.run_id} step {step.step}"
            return reference_rule(owner, "message", step.message)
    for number, (ours, theirs) in enumerate(zip(replayed, recorded), start=1):
        where = f"step {number}" if "step" in ours.keys() | theirs.keys() else "outcome"
        if ours.get("verdict") == "V-TYPE" and theirs.get("verdict") == "ok":
            return found("E-BINDING", f"{where}: {ours['detail']}, the trace says ok")
        for key in sorted(ours.keys() | theirs.keys()):
            was, now = _dump(theirs.get(key)), _dump(ours.get(key))
            if was != now:
                text = f"{where}: {key} is {was} in the trace, {now} on re-run"
                return found("E-TRACE", text)
    return None
