"""Semantic checks for actions, messages, and patterns.

All checks report :class:`~haiproto.core.Diagnostic` values instead of
raising.  A rule says what it found, not where: its findings carry the
default path and no span until :func:`placed` puts them at the declaration
they concern, which only the parser, the loader and
:meth:`~haiproto.catalog.Catalog.place` know.  Each rule has one owner, the
function every layer enforcing it calls; the parser's calls make the first
three codes come out at parse time:

* :func:`variable_rule` — ``E-DUP-VAR``, ``E-PARAMS`` (parser, check_action,
  :func:`~haiproto.core.action_scope`);
* :func:`arity_rule` — ``E-ARITY`` (parser, check_action);
* :func:`pattern_rule` — ``E-EMPTY-PATTERN``, ``E-TAG`` (parser, loader, check_flow);
* :func:`name_rule` — ``E-DUP-NAME`` (parser per file, loader across files
  and for scenarios);
* :func:`reference_rule` — ``E-UNRESOLVED`` (loader, check_flow, replay);
* :func:`instantiation_rule` — ``E-UNKNOWN-ACTION``, ``E-ARG-COUNT``
  (check_message, resolve_step).

The resolver, :func:`resolve_step`, turns a message into a :class:`Step`:
its action, typed slots and carried arguments, named by the message's own
variables.  The checker, simulator and replay pair message arguments with
action parameters only there; :class:`~haiproto.agents.StubModelAgent` pairs
them itself, once per pairing.  :func:`check_flow` resolves, checks and narrows
a pattern once (``Flow.needed``), at the scope :meth:`~haiproto.catalog.Catalog.flow`
picks for a named flow; everything else reads its Flow.  A catalog keeps each
flow, resolves each message once, and shares equal tuples across its flows.

* :func:`check_action` — the variable and arity rules, plus operations over
  declared variables with legal type shapes.
* :func:`check_message` — the instantiation rule, distinct modifier keys and
  distinct endpoints.
* :func:`check_pattern` — the pattern rule, every message resolves, shared
  variables keep compatible types (binding consistency), and every request
  is eventually answered (dialogue coherence).

Dialogue coherence: a request by ``s`` to ``r`` opens an *obligation* for a
value of the request's head type.  A later message from ``r`` to ``s``
discharges the obligation when any type it carries is compatible with the
obligation's head — provides carry everything they mention, requests carry
only their references (asking about a value shows you hold it).  An open
obligation at the end of a pattern is a warning, with one exemption: a request
that itself discharged an obligation *and* creates one of its own references
is a productive counter-request (it answers by proposing new material whose
acceptance lies outside the pattern).  At scenario scope there is no
exemption: composed flows must close every request.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Iterable, Mapping, NamedTuple

from .core import (
    OP_ARITY,
    TAGS,
    ActionDef,
    Binding,
    Diagnostic,
    GroupType,
    ListType,
    Message,
    Operation,
    OpKind,
    Pattern,
    PrimitiveKind,
    Span,
    TypeExpr,
    type_compatible,
)


@dataclass(frozen=True, slots=True)  # slotted: a check returns one per declaration
class CheckReport:
    """All findings for one checked object."""

    target: str
    diagnostics: tuple[Diagnostic, ...]

    @property
    def errors(self) -> tuple[Diagnostic, ...]:
        return tuple(d for d in self.diagnostics if d.severity == "error")

    @property
    def warnings(self) -> tuple[Diagnostic, ...]:
        return tuple(d for d in self.diagnostics if d.severity == "warning")

    @property
    def verdict(self) -> str:
        if self.errors:
            return "fail"
        if self.warnings:
            return "warn"
        return "pass"


def _err(code: str, message: str) -> Diagnostic:
    return Diagnostic("error", code, message)


def placed(
    found: Iterable[Diagnostic], path: str, span: Span | None = None
) -> tuple[Diagnostic, ...]:
    """Each finding in ``found`` placed at ``path`` and ``span``: the rules
    report what they found, and the parser, loader and catalog, which know
    the declaration it was found in, say where."""
    return tuple(replace(d, path=path, span=span) for d in found)


def variable_rule(action: ActionDef) -> list[Diagnostic]:
    """``E-DUP-VAR`` for each repeated variable and the first repeated
    parameter; otherwise ``E-PARAMS`` if the parameters are not the
    declared variables."""
    diags: list[Diagnostic] = []
    declared: set[str] = set()
    for arg in action.primitive.args():
        for var, _ in arg.variables():
            if var in declared:
                diags.append(_err("E-DUP-VAR", f"duplicate variable {var!r} in {action.name!r}"))
            declared.add(var)
    params = action.params
    if len(set(params)) != len(params):
        repeat = next(p for i, p in enumerate(params) if p in params[:i])
        diags.append(_err("E-DUP-VAR", f"duplicate parameter {repeat!r} in {action.name!r}"))
    elif set(params) != declared:
        diags.append(
            _err(
                "E-PARAMS",
                f"parameters of {action.name!r} do not match declared variables",
            )
        )
    return diags


def arity_rule(op: Operation, action: ActionDef) -> Diagnostic | None:
    """``E-ARITY``: ``op`` takes as many arguments as its kind allows."""
    lo, hi = OP_ARITY[op.kind]
    if lo <= len(op.args) <= hi:
        return None
    return _err(
        "E-ARITY",
        f"{op.kind.value} in {action.name!r} takes "
        f"{lo if lo == hi else f'{lo} to {hi}'} arguments, got {len(op.args)}",
    )


def pattern_rule(pattern: Pattern) -> list[Diagnostic]:
    """``E-EMPTY-PATTERN``, or else ``E-TAG`` for each unknown tag."""
    if not pattern.messages:
        return [_err("E-EMPTY-PATTERN", f"pattern {pattern.name!r} has no messages")]
    return [
        _err("E-TAG", f"pattern {pattern.name!r} carries unknown tag {tag!r}")
        for tag in sorted(pattern.tags - TAGS)
    ]


def name_rule(name: str, origin: str) -> Diagnostic:
    """``E-DUP-NAME``: ``name`` is already declared in the file ``origin``.
    Actions, messages and patterns share one namespace, and scenarios share
    the patterns'; roles are their own, so re-declaring one is harmless."""
    return _err("E-DUP-NAME", f"{name!r} is already declared in {origin}")


def reference_rule(owner: str, kind: str, name: str) -> Diagnostic:
    """``E-UNRESOLVED``: ``owner`` (say ``pattern 'p'``) references ``name``,
    which is no ``kind`` (say ``message``) that is known."""
    return _err("E-UNRESOLVED", f"{owner} references unknown {kind} {name!r}")


class Step(NamedTuple):  # a tuple: built once per message of every checked flow
    """A message resolved against its action.

    ``slots`` pairs each message argument with its declared type, in
    parameter order.  ``carried`` holds the arguments the message puts on the
    table — every argument of a provide, a request's references only — each
    as its message variables (several for a group) and its type."""

    message: Message
    action: ActionDef
    slots: tuple[tuple[str, TypeExpr], ...]
    carried: tuple[tuple[tuple[str, ...], TypeExpr], ...]


def instantiation_rule(
    message: Message, actions: Mapping[str, ActionDef]
) -> tuple[ActionDef | None, list[Diagnostic]]:
    """``E-UNKNOWN-ACTION``, or else ``E-ARG-COUNT`` if the action does not
    take one argument per message argument.  Returns the action, if known."""
    action = actions.get(message.action)
    if action is None:
        return None, [
            _err(
                "E-UNKNOWN-ACTION",
                f"message {message.name!r} uses unknown action {message.action!r}",
            )
        ]
    if len(message.args) != len(action.params):
        return action, [
            _err(
                "E-ARG-COUNT",
                f"message {message.name!r} passes {len(message.args)} arguments "
                f"to {action.name!r}, which takes {len(action.params)}",
            )
        ]
    return action, []


def resolve_step(
    message: Message, actions: Mapping[str, ActionDef]
) -> tuple[Step | None, list[Diagnostic]]:
    """Resolve ``message``, or report why it does not resolve.

    The action is not checked again: it must satisfy :func:`variable_rule`,
    as every action the parser accepts does.
    """
    action, diags = instantiation_rule(message, actions)
    if action is None or diags:
        return None, diags
    names = dict(zip(action.params, message.args))
    prim = action.primitive
    declared: dict[str, TypeExpr] = {}
    carried = []
    for index, arg in enumerate(prim.args()):
        variables = arg.variables()
        declared.update(variables)
        if index or prim.kind is PrimitiveKind.PROVIDE:  # a request's head is asked for
            carried.append((tuple([names[var] for var, _ in variables]), arg.type))
    slots = tuple([(names[param], declared[param]) for param in action.params])
    return Step(message, action, slots, tuple(carried)), []


# ---------------------------------------------------------------------------
# Actions
# ---------------------------------------------------------------------------


def check_action(action: ActionDef) -> CheckReport:
    """Validate an action's variables and operations."""
    diags = variable_rule(action)
    scope: dict[str, TypeExpr] = {}
    for arg in action.primitive.args():
        for var, typ in arg.variables():
            scope.setdefault(var, typ)

    for op in action.operations:
        arity = arity_rule(op, action)
        unknown = [v for v in op.args if v not in scope]
        call = f"{op.kind.value}({', '.join(op.args)}) in {action.name!r}"
        if arity is not None:
            diags.append(arity)
        elif unknown:
            listed = f"variable{'s' if len(unknown) > 1 else ''} {', '.join(map(repr, unknown))}"
            text = f"{op.kind.value} in {action.name!r} uses undeclared {listed}"
            diags.append(_err("E-OP-VAR", text))
        elif op.kind is OpKind.MODIFY:
            a, b = (scope[v] for v in op.args)
            if not type_compatible(a, b):
                diags.append(_err("E-MODIFY-TYPE", f"{call} relates incompatible types {a} and {b}"))
        elif op.kind is OpKind.SELECT and len(op.args) == 2:
            item, source = (scope[v] for v in op.args)
            if not isinstance(source, ListType):
                text = f"{call} needs a list to select from, got {source}"
                diags.append(_err("E-SELECT-LIST", text))
            elif not type_compatible(item, source.element):
                text = f"{call} selects {item} from a list of {source.element}"
                diags.append(_err("E-SELECT-ELEM", text))
    return CheckReport(f"action {action.name}", tuple(diags))


# ---------------------------------------------------------------------------
# Messages
# ---------------------------------------------------------------------------


def check_message(message: Message, actions: Mapping[str, ActionDef]) -> CheckReport:
    """Validate a message against the actions it may instantiate."""
    target = f"message {message.name}"
    action, found = instantiation_rule(message, actions)
    if action is None:
        return CheckReport(target, tuple(found))
    if message.sender == message.receiver:
        found.insert(0, _err("E-SELF-SEND", f"message {message.name!r} has sender and "
                             f"receiver {message.sender!r}"))
    seen_keys: set[str] = set()
    for mod in message.modifiers:
        if mod.key in seen_keys:
            found.append(_err("E-DUP-MOD", f"message {message.name!r} repeats modifier key "
                              f"{mod.key!r}"))
        seen_keys.add(mod.key)
        if mod.style == "var" and mod.key not in message.args:
            found.append(_err("E-UNKNOWN-MOD-VAR", f"modifier {mod.key!r} on message "
                              f"{message.name!r} names no argument of the message"))
    return CheckReport(target, tuple(found))


# ---------------------------------------------------------------------------
# Patterns and coherence
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Flow:
    """A pattern resolved once; ``steps`` is complete if ``report`` has no
    errors.  ``needed[i]``: what step i's sender must produce (the variables it
    carries that no earlier step did), each at its type narrowed so far."""

    pattern: Pattern
    steps: tuple[Step, ...]
    report: CheckReport
    needed: tuple[tuple[tuple[str, TypeExpr], ...], ...]


def _carried_types(step: Step) -> tuple[TypeExpr, ...]:
    """Types the step puts on the table; a group contributes both the group
    type and each member type."""
    carried: list[TypeExpr] = []
    for _, typ in step.carried:
        carried.append(typ)
        if isinstance(typ, GroupType):
            carried.extend(member for _, member in typ.members)
    return tuple(carried)


def _creates_reference(action: ActionDef) -> bool:
    """True when the action has a ``create`` over one of its references."""
    ref_vars = {
        var for arg in action.primitive.refs for var, _ in arg.variables()
    }
    return any(
        op.kind is OpKind.CREATE and any(v in ref_vars for v in op.args)
        for op in action.operations
    )


@dataclass
class _Obligation:
    requester: str
    requestee: str
    head: TypeExpr
    message: str
    exempt: bool


def check_flow(
    pattern: Pattern,
    messages: Mapping[str, Message],
    actions: Mapping[str, ActionDef],
    scope: str = "pattern",
    shared: dict | None = None,
) -> Flow:
    """Resolve ``pattern`` and check it, on target ``"{scope} {name}"``; see
    :func:`check_pattern`.  ``shared``, kept across calls on the same tables,
    holds each resolved message's :class:`Step` under its name, and each
    ``slots``, ``carried`` and ``needed`` tuple under itself, so equal ones
    are one object; a message that does not resolve is resolved again."""
    if scope not in ("pattern", "scenario"):
        raise ValueError(f"unknown scope {scope!r}")
    shared = {} if shared is None else shared
    share = shared.setdefault  # share(value, value): the first tuple equal to value
    target = f"{scope} {pattern.name}"
    diags = pattern_rule(pattern)
    resolved: list[Step] = []
    for name in pattern.messages:  # one that does not resolve is reported, left out
        step = shared.get(name)
        if step is None:
            message = messages.get(name)
            if message is None:
                diags.append(reference_rule(f"pattern {pattern.name!r}", "message", name))
                continue
            step, found = resolve_step(message, actions)
            diags.extend(found)
            if step is None:
                continue
            slots, carried = share(step.slots, step.slots), share(step.carried, step.carried)
            if slots is not step.slots or carried is not step.carried:
                step = Step(message, step.action, slots, carried)
            shared[name] = step
        resolved.append(step)
    steps = tuple(resolved)
    if len(steps) < len(pattern.messages):
        return Flow(pattern, steps, CheckReport(target, tuple(diags)), ())

    # Binding consistency: a variable shared between messages must keep a
    # compatible type everywhere it appears; each use narrows it.
    binding = Binding()
    introduced: set[str] = set()
    needed = []
    for step in steps:
        for var, declared in step.slots:
            before = binding.types.get(var)
            if binding.narrow(var, declared) is None:
                diags.append(
                    _err(
                        "E-BINDING",
                        f"variable {var!r} is {before} but message "
                        f"{step.message.name!r} uses it as {declared}",
                    )
                )
        unbound = {var for variables, _ in step.carried for var in variables} - introduced
        fresh = [var for var in dict(step.slots) if var in unbound]  # carried first here
        introduced.update(fresh)
        pairs = tuple([(var, binding.types[var]) for var in fresh])  # often equal to slots
        needed.append(step.slots if pairs == step.slots else share(pairs, pairs))

    # Dialogue coherence.
    open_obligations: list[_Obligation] = []
    for step in steps:
        message, action = step.message, step.action
        carried = _carried_types(step) if open_obligations else ()  # only to answer one
        discharged_any = False
        remaining: list[_Obligation] = []
        for ob in open_obligations:
            answers = (
                ob.requester == message.receiver
                and ob.requestee == message.sender
                and any(type_compatible(t, ob.head) for t in carried)
            )
            if answers:
                discharged_any = True
            else:
                remaining.append(ob)
        open_obligations = remaining
        if action.primitive.kind is PrimitiveKind.REQUEST:
            open_obligations.append(
                _Obligation(
                    requester=message.sender,
                    requestee=message.receiver,
                    head=action.primitive.head.type,
                    message=message.name,
                    exempt=discharged_any and _creates_reference(action),
                )
            )
    for ob in open_obligations:
        if scope == "pattern" and ob.exempt:
            continue
        detail = (
            f"request {ob.message!r} ({ob.requester} -> {ob.requestee}, "
            f"for {ob.head}) is never answered"
        )
        if scope == "scenario":
            diags.append(_err("E-UNANSWERED", detail))
        else:
            diags.append(Diagnostic("warning", "W-UNANSWERED", detail))
    per_step = tuple(needed)
    return Flow(pattern, steps, CheckReport(target, tuple(diags)), share(per_step, per_step))


def check_pattern(
    pattern: Pattern,
    messages: Mapping[str, Message],
    actions: Mapping[str, ActionDef],
    scope: str = "pattern",
) -> CheckReport:
    """Validate a pattern's structure, bindings, and dialogue coherence.

    ``scope`` is ``"pattern"`` (open requests may be excused as productive
    counter-requests and otherwise warn) or ``"scenario"`` (every open request
    is an error).
    """
    return check_flow(pattern, messages, actions, scope).report
