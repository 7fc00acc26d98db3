"""The parties of a run, human or model, that produce its values, and their ``.agents`` reader."""

from __future__ import annotations

import math
import re
from typing import Mapping, Sequence, Union

from .core import (
    ActionDef,
    BaseType,
    Blob,
    ListType,
    Message,
    OpKind,
    Payload,
    Role,
    TypeExpr,
    Value,
    Vector,
    coerce_value,
)
from .dsl import _NAME, _STRING, _text as _unquote


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
    to keep it), and must be deterministic.  Payloads are immutable, so an
    agent may hand back a :class:`Payload` it made before, and ``run`` writes
    a value's text once per distinct value object.
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
    as ``V-MISSING``.  An edit to ``script`` is seen at the next ``produce``: a
    key's last payload serves only its very value at its very type.
    """

    def __init__(self, script: Mapping[str, Sequence[object]]):
        self.script = {key: list(values) for key, values in script.items()}
        for key, values in self.script.items():
            if not values:
                raise ValueError(f"empty script queue for {key!r}")
        self._cursor: dict[str, int] = {}
        self._made: dict[str, Payload] = {}  # per key, the last payload

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
            made = self._made.get(key)  # a list entry's value is a new tuple: never served
            if made is None or made.value is not raw or made.type is not typ:
                made = self._made[key] = Payload(typ, coerce_value(raw))
            out[var] = made
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
        for vec, label in examples:
            self._learn(Vector(vec).values, label)
        self.samples = list(samples)
        self._sample_cursor = 0
        self._override = ScriptedAgent(script) if script else None
        self._pairings: dict[tuple, tuple[dict, dict]] = {}
        self._teaches: dict[int, tuple[ActionDef, bool]] = {}  # can each action teach
        self._listing: Payload | None = None  # the sorted vocabulary, until a new label

    def _names(self, message: Message, action: ActionDef) -> tuple[dict, dict]:
        """Each parameter's message variable and each variable's parameter."""
        key = (action.params, message.args)  # all that they depend on
        if (names := self._pairings.get(key)) is None:
            to_message = dict(zip(*key))
            names = self._pairings[key] = to_message, {m: p for p, m in to_message.items()}
        return names

    # -- learning ------------------------------------------------------------

    def _learn(self, vec: tuple[float, ...], label: str) -> None:
        self.examples.append((vec, label))
        self._centroids.add(vec, label)
        if label not in self._vocab:
            self._vocab.add(label)
            self._listing = None

    def on_receive(self, message, action, binding):
        teaches = self._teaches.get(id(action))  # by id: a frozen action hashes every field
        if teaches is None or teaches[0] is not action:
            typ = action.primitive.head.type
            teaches = self._teaches[id(action)] = action, (
                action.primitive.head.var is not None and isinstance(typ, BaseType)
                and typ.role is Role.OUTPUT and (not typ.subtypes or "label" in typ.subtypes)
            )
        if not teaches[1]:
            return
        head = action.primitive.head
        to_message = self._names(message, action)[0]
        label_payload = binding.get(to_message[head.var])
        if label_payload is None or not isinstance(label_payload.value, str):
            return
        source = self._map_source(action, to_message, head.var, binding, {})
        if source is not None:
            self._learn(source.values, label_payload.value)

    # -- producing -----------------------------------------------------------

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
        to_message, to_param = self._names(message, action)
        for var, typ in needed.items():
            if var in out:
                continue
            if isinstance(typ, ListType) and typ.element.role is Role.OUTPUT:
                listing = self._listing  # its labels' tuple is kept for another type
                if listing is None or listing.type is not typ:
                    labels = listing.value if listing else tuple(sorted(self._vocab))
                    listing = self._listing = Payload(typ, labels)
                out[var] = listing
                continue
            out[var] = Payload(typ, self._produce_value(
                action, typ, to_message, to_param[var], binding, out
            ))
        return out

    def _produce_value(self, action, typ, to_message, param, binding, pending):
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

_NUMBER_RE = re.compile(r"^-?\d+(\.\d+)?$")
#: A section header, its role a ``.hai`` name; the pieces of a line, a ``.hai``
#: string or an unclosed one to the line's end being one; a line up to its comment.
_SECTION_RE = re.compile(rf"\[({_NAME.pattern})\s+(scripted|stub)\]")
_PIECE_RE = re.compile(rf'{_STRING.pattern}|".*|.')
_CODE_RE = re.compile(rf'(?:[^"/]|/(?!/)|{_STRING.pattern}|".*)*')


def _literal(text: str, where: str) -> object:
    text = text.strip()
    if _STRING.fullmatch(text):
        return _unquote(text)
    if _NUMBER_RE.match(text):
        try:
            number = float(text) if "." in text else int(text)
        except ValueError:  # more digits than ``int`` reads
            number = math.inf
        if abs(number) != math.inf:
            return number
        raise ValueError(f"{where}: number out of range")
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
    """Split on commas not inside a string or nested inside parentheses or brackets."""
    parts: list[str] = []
    depth = start = 0
    for piece in _PIECE_RE.finditer(text):
        ch = piece.group()
        if ch in "([":
            depth += 1
        elif ch in ")]":
            depth -= 1
        elif ch == "," and depth == 0:
            parts.append(text[start : piece.start()])
            start = piece.end()
    parts.append(text[start:])
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

    for lineno, raw_line in enumerate(text.split("\n"), start=1):
        line = _CODE_RE.match(raw_line).group().strip()
        if not line:
            continue
        where = f"{path}:{lineno}"
        match = _SECTION_RE.fullmatch(line)
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
        try:
            if kind == "stub" and key == "labels":
                stub.setdefault("labels", []).extend(
                    str(_literal(p, where)) for p in _split_top(value)
                )
            elif kind == "stub" and key == "example":
                if "->" not in value:
                    raise ValueError(f"{where}: example needs 'vec(...) -> label'")
                vec_text, label_text = value.split("->", 1)
                vec = _literal(vec_text, where)
                if not isinstance(vec, Vector):
                    raise ValueError(f"{where}: example input must be a vector")
                stub.setdefault("examples", []).append(
                    (vec.values, str(_literal(label_text, where)))
                )
            elif kind == "stub" and key == "sample":
                stub.setdefault("samples", []).append(_literal(value, where))
            elif re.fullmatch(rf"{_NAME.pattern}\.{_NAME.pattern}", key):  # MESSAGE.VARIABLE
                script.setdefault(key, []).append(_literal(value, where))
            else:
                raise ValueError(f"{where}: unknown key {key!r}")
        except RecursionError:  # from _literal, a list nested too deeply
            raise ValueError(f"{where}: literal nested too deeply") from None
    flush()
    if not agents:
        raise ValueError(f"{path}: no agent sections found")
    return agents
