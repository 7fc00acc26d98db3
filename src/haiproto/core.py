"""Core value types for the interaction calculus.

The calculus describes human-AI interactions as typed exchanges: *actions*
wrap a communication primitive (``provide`` or ``request``) over typed
variables, *messages* instantiate actions between agent roles, and *patterns*
sequence messages into reusable dialogue shapes.  Everything in this module is
an immutable value: constructing a type from the same inputs always yields an
equal value, and nothing here performs I/O.

Validation philosophy: constructors enforce only basic shape (so that
deliberately malformed definitions can be constructed and then *rejected* by
the checker); semantic rules live in :mod:`haiproto.check`.

Types are interned: the parser and :func:`intersect` make them through
:func:`interned`, one live object per distinct type, and a type computes its
hash once.  A type built by hand compares and hashes equal to it.  The
:class:`Diagnostic` values those rules report are defined here, so the parser
and the checker share them without importing each other.  So are the values
a run exchanges, each a typed :class:`Payload`, which agents and traces share.
"""

from __future__ import annotations

import enum
import math
import zlib
from dataclasses import dataclass, field
from typing import TypeVar, Union
from weakref import WeakValueDictionary


class Role(str, enum.Enum):
    """Communication role of a typed value."""

    INPUT = "input"
    OUTPUT = "output"
    FEEDBACK = "feedback"


@dataclass(frozen=True)
class Span:
    """A source location: 1-based line and column, plus length in chars."""

    line: int
    col: int
    length: int = 1


@dataclass(frozen=True)
class Diagnostic:
    """A single checker or parser finding."""

    severity: str  # "error" | "warning"
    code: str
    message: str
    path: str = "<input>"
    span: Span | None = field(default=None, compare=False)

    def format(self) -> str:
        line = self.span.line if self.span else 0
        col = self.span.col if self.span else 0
        return f"{self.path}:{line}:{col}: {self.severity}[{self.code}]: {self.message}"


#: Paradigm tags a pattern may carry (closed vocabulary).
TAGS: frozenset[str] = frozenset({"xai", "hitl", "hi", "control", "query"})

#: Agent roles that are always available without declaration.
PREDECLARED_ROLES: frozenset[str] = frozenset({"user", "model"})

#: How deep a value read from a file may nest: far below any stack's limit, it reads alike.
_NESTING = 64
_TOO_DEEP = f"values nest more than {_NESTING} deep"


def _nests_over(value: object, levels: int) -> bool:
    """Whether ``value``'s lists and objects nest over ``levels`` deep, a level at a time."""
    row = [value]
    while levels >= 0 and (row := [x for x in row if type(x) in (list, dict)]):
        row, levels = [v for x in row for v in (x.values() if type(x) is dict else x)], levels - 1
    return levels < 0


def _kept_hash(typ: TypeExpr) -> int:
    """A type's hash, kept from first use: the CRC-32 of its printed form, so
    that a pickled type's holds in any process, where ``hash``'s would not."""
    try:
        return typ._hash  # type: ignore[union-attr]
    except AttributeError:
        object.__setattr__(typ, "_hash", zlib.crc32(str(typ).encode()))
        return typ._hash  # type: ignore[union-attr]


@dataclass(frozen=True)
class BaseType:
    """A role with an optional union of subtype names.

    An empty ``subtypes`` tuple is the role-only wildcard: it is compatible
    with any subtype of the same role.
    """

    role: Role
    subtypes: tuple[str, ...] = ()
    __hash__ = _kept_hash

    def __post_init__(self) -> None:
        if len(set(self.subtypes)) != len(self.subtypes):
            raise ValueError(f"duplicate subtypes in {self.subtypes!r}")

    def __str__(self) -> str:
        if not self.subtypes:
            return self.role.value
        return f"{self.role.value}.{'|'.join(self.subtypes)}"


@dataclass(frozen=True)
class ListType:
    """A homogeneous list of a base type."""

    element: BaseType
    __hash__ = _kept_hash

    def __str__(self) -> str:
        return f"[{self.element}]"


@dataclass(frozen=True)
class GroupType:
    """An ordered group of named members (no nesting).

    Members are ``(variable, type)`` pairs; member types may be base types or
    lists, never groups.  Member names are local to the owning action and are
    ignored by compatibility.
    """

    members: tuple[tuple[str, Union[BaseType, ListType]], ...]
    __hash__ = _kept_hash

    def __str__(self) -> str:
        inner = ", ".join(f"{var}: {typ}" for var, typ in self.members)
        return f"[{inner}]"


TypeExpr = Union[BaseType, ListType, GroupType]
T = TypeVar("T", BaseType, ListType, GroupType)

#: ``(class, *fields)`` -> the one live type made of them.  Weak, so the types
#: of untrusted traces go with their last holder and do not pile up here.
_TYPES: WeakValueDictionary = WeakValueDictionary()


def interned(cls: type[T], *fields: object) -> T:
    """The one ``cls(*fields)`` there is, made on first use."""
    key = (cls, *fields)
    return _TYPES.get(key) or _TYPES.setdefault(key, cls(*fields))


def intersect(a: TypeExpr, b: TypeExpr) -> TypeExpr | None:
    """Return the greatest common refinement of two types, or ``None``.

    Base types intersect when their roles match and their subtype sets share a
    member; the role-only wildcard absorbs (intersecting with it yields the
    other operand).  Lists intersect element-wise, groups pointwise with equal
    arity.  Differing kinds never intersect.  A result that is not one of the
    operands is :func:`interned`.
    """
    if a is b:
        return a
    if isinstance(a, BaseType) and isinstance(b, BaseType):
        if a.role is not b.role:
            return None
        if not a.subtypes or a.subtypes == b.subtypes:
            return b
        if not b.subtypes:
            return a
        common = tuple(s for s in a.subtypes if s in b.subtypes)
        if not common:
            return None
        return a if common == a.subtypes else interned(BaseType, a.role, common)
    if isinstance(a, ListType) and isinstance(b, ListType):
        element = intersect(a.element, b.element)
        return None if element is None else interned(ListType, element)
    if isinstance(a, GroupType) and isinstance(b, GroupType):
        if len(a.members) != len(b.members):
            return None
        members: list[tuple[str, Union[BaseType, ListType]]] = []
        for (var, ta), (_, tb) in zip(a.members, b.members):
            common = intersect(ta, tb)
            if common is None or isinstance(common, GroupType):
                return None
            members.append((var, common))
        return interned(GroupType, tuple(members))
    return None


def type_compatible(a: TypeExpr, b: TypeExpr) -> bool:
    """True when the two types have a common refinement (symmetric)."""
    return intersect(a, b) is not None


class PrimitiveKind(str, enum.Enum):
    """The two communication primitives."""

    PROVIDE = "provide"
    REQUEST = "request"


@dataclass(frozen=True)
class Arg:
    """One argument of a primitive: a named type or an anonymous group.

    ``var`` is ``None`` exactly when ``type`` is a :class:`GroupType` (group
    members carry their own names).
    """

    var: str | None
    type: TypeExpr

    def variables(self) -> tuple[tuple[str, TypeExpr], ...]:
        """The ``(variable, type)`` pairs this argument declares, in order."""
        if isinstance(self.type, GroupType):
            return tuple(self.type.members)
        assert self.var is not None
        return ((self.var, self.type),)


@dataclass(frozen=True)
class PrimitiveSpec:
    """A primitive with its head argument and reference arguments.

    The head is the value the act is *about* (the thing provided, or the thing
    requested); refs carry the context the head relates to.
    """

    kind: PrimitiveKind
    head: Arg
    refs: tuple[Arg, ...] = ()

    def args(self) -> tuple[Arg, ...]:
        return (self.head,) + self.refs


class OpKind(str, enum.Enum):
    """Operation kinds relating variables inside an action."""

    SELECT = "select"
    MAP = "map"
    MODIFY = "modify"
    CREATE = "create"


#: Inclusive arity bounds per operation kind.
OP_ARITY: dict[OpKind, tuple[int, int]] = {
    OpKind.SELECT: (1, 2),
    OpKind.MAP: (2, 3),
    OpKind.MODIFY: (2, 2),
    OpKind.CREATE: (1, 1),
}


@dataclass(frozen=True)
class Operation:
    """An operation over declared variables, e.g. ``modify(Y, Z)``."""

    kind: OpKind
    args: tuple[str, ...]


@dataclass(frozen=True)
class ActionDef:
    """A named action: a primitive over typed variables plus operations.

    ``params`` is the author-facing parameter order used by messages; it must
    contain exactly the variables declared by the primitive (set equality),
    but may order them differently than the primitive declares them.
    """

    name: str
    params: tuple[str, ...]
    primitive: PrimitiveSpec
    operations: tuple[Operation, ...] = ()


def action_scope(action: ActionDef) -> tuple[tuple[str, TypeExpr], ...]:
    """The typed variables an action declares, in declaration order.

    The head's variables come first, then each ref's, with group members
    flattened in place.  Raises ``ValueError`` with the first finding of
    :func:`haiproto.check.variable_rule` (duplicate variables or parameters,
    or ``params`` not matching the declared set).
    """
    from .check import variable_rule  # check builds on this module

    problems = variable_rule(action)
    if problems:
        raise ValueError(problems[0].message)
    return tuple(pair for arg in action.primitive.args() for pair in arg.variables())


@dataclass(frozen=True)
class Modifier:
    """A presentation annotation on a message.

    Two styles exist: variable annotations (``X: WalkStand`` — ``key`` is a
    message argument, ``value`` an identifier) and key-value strings
    (``ui="drag-drop"``).
    """

    key: str
    value: str
    style: str = "var"  # "var" | "kv"

    def __post_init__(self) -> None:
        if self.style not in ("var", "kv"):
            raise ValueError(f"unknown modifier style {self.style!r}")


@dataclass(frozen=True)
class Message:
    """A named, directed instantiation of an action between two roles.

    Modifiers are stored sorted by key, making message equality independent of
    the order they were written in.
    """

    name: str
    sender: str
    receiver: str
    action: str
    args: tuple[str, ...]
    modifiers: tuple[Modifier, ...] = ()

    def __post_init__(self) -> None:
        ordered = tuple(sorted(self.modifiers, key=lambda m: (m.key, m.value)))
        object.__setattr__(self, "modifiers", ordered)


@dataclass(frozen=True)
class Pattern:
    """A named sequence of message names with paradigm tags."""

    name: str
    messages: tuple[str, ...]
    tags: frozenset[str] = frozenset()


@dataclass
class Binding:
    """A variable environment that narrows types as messages bind variables."""

    types: dict[str, TypeExpr] = field(default_factory=dict)

    def narrow(self, var: str, typ: TypeExpr) -> TypeExpr | None:
        """Intersect ``var``'s type with ``typ``; ``None`` if incompatible.

        On success the narrowed type is stored and returned.  On failure the
        previous type is kept unchanged.
        """
        current = self.types.get(var)
        common = typ if current is None else intersect(current, typ)
        if common is not None:
            self.types[var] = common
        return common


@dataclass(frozen=True)
class Vector:
    """A numeric feature vector: ``ValueError`` if a coordinate is not finite,
    since a trace writes each as a JSON number."""

    values: tuple[float, ...]

    def __post_init__(self) -> None:
        values = tuple(map(float, self.values))
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
        if type(self.type) is BaseType and type(self.value) in (str, int, Vector, Blob):
            return  # a base type and a value that is a scalar by its class alone
        if isinstance(self.type, GroupType):
            raise ValueError("payloads carry base or list types, not groups")
        if isinstance(self.type, ListType):
            if not isinstance(self.value, tuple) or not all(map(_is_scalar, self.value)):
                raise ValueError(
                    f"list-typed payload needs a tuple of scalars, got "
                    f"{self.value!r}"
                )
        elif not _is_scalar(self.value):
            raise ValueError(f"payload value {self.value!r} is not a scalar")

    def to_json(self) -> dict:
        return {"type": str(self.type), "value": _value_json(self.value)}


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
    """Normalize a literal into a payload value: a list or tuple becomes a new
    tuple of its items, each normalized."""
    if isinstance(raw, (list, tuple)):
        return tuple(coerce_value(v) for v in raw)  # type: ignore[misc]
    if isinstance(raw, (str, int, float, Vector, Blob)):
        return raw
    raise ValueError(f"unsupported payload literal {raw!r}")
