"""The parser and the checker enforce the same declaration rules, and
each rule has one owner in ``haiproto.check``."""

from __future__ import annotations

import ast
import dataclasses
import inspect
import itertools
import json
from pathlib import Path

import pytest
from hypothesis import example, given, settings, target
from hypothesis import strategies as st

import haiproto
import haiproto.check
from conftest import AGENTS_DIR, FIXTURES
from haiproto import (
    TAGS,
    ActionDef,
    AgentBehavior,
    Arg,
    BaseType,
    Catalog,
    GroupType,
    ListType,
    Message,
    Operation,
    OpKind,
    Pattern,
    Payload,
    PrimitiveKind,
    PrimitiveSpec,
    Role,
    Trace,
    TraceStep,
    check_action,
    check_catalog,
    check_pattern,
    intersect,
    load,
    load_with_diagnostics,
    parse,
    parse_agents,
    print_action,
    print_message,
    print_pattern,
    replay_check,
    run,
    run_scenario,
)
from haiproto.check import check_flow, placed

ACTION_RULES = {"E-DUP-VAR", "E-PARAMS", "E-ARITY"}
PATTERN_RULES = {"E-EMPTY-PATTERN", "E-TAG"}

# Few names, so that duplicates and mismatches are common.
VARS = st.sampled_from(["X", "Y", "Z"])
BASE = st.builds(
    BaseType,
    st.sampled_from(list(Role)),
    st.lists(st.sampled_from(["a", "b", "c"]), unique=True, max_size=2).map(tuple),
)
NONGROUP = st.one_of(BASE, BASE.map(ListType))
ARG = st.one_of(
    st.builds(Arg, VARS, NONGROUP),
    st.lists(st.tuples(VARS, NONGROUP), min_size=2, max_size=3).map(
        lambda members: Arg(None, GroupType(tuple(members)))
    ),
)
OPERATION = st.builds(
    Operation,
    st.sampled_from(list(OpKind)),
    st.lists(VARS, min_size=1, max_size=4).map(tuple),
)
ACTION = st.builds(
    lambda params, kind, head, refs, ops: ActionDef(
        "a", tuple(params), PrimitiveSpec(kind, head, tuple(refs)), tuple(ops)
    ),
    st.lists(VARS, max_size=4),
    st.sampled_from(list(PrimitiveKind)),
    ARG,
    st.lists(ARG, max_size=2),
    st.lists(OPERATION, max_size=3),
)
PATTERN = st.builds(
    lambda messages, tags: Pattern("p", tuple(messages), frozenset(tags)),
    st.lists(st.sampled_from(["M1", "M2"]), max_size=3),
    st.sets(st.sampled_from(sorted(TAGS) + ["nonsense", "later"]), max_size=3),
)

INPUT = BaseType(Role.INPUT)
OUTPUT = BaseType(Role.OUTPUT)


def _parse_codes(text: str) -> list[str]:
    result = parse(text)
    assert (result.file is None) == bool(result.diagnostics)
    for diag in result.diagnostics:
        assert diag.span is not None and diag.span.line >= 1, diag
    return [d.code for d in result.diagnostics]


@settings(max_examples=300, deadline=None)
@given(ACTION)
@example(
    # action a(X, X) := provide(X: input);
    ActionDef("a", ("X", "X"), PrimitiveSpec(PrimitiveKind.PROVIDE, Arg("X", INPUT)))
)
@example(
    # action a(X, Y) := provide(X: input, Y: input, Y: output) <- create(X, Y);
    ActionDef(
        "a",
        ("X", "Y"),
        PrimitiveSpec(
            PrimitiveKind.PROVIDE,
            Arg("X", INPUT),
            (Arg("Y", INPUT), Arg("Y", OUTPUT)),
        ),
        (Operation(OpKind.CREATE, ("X", "Y")),),
    )
)
def test_parser_and_checker_agree_on_action_rules(action: ActionDef):
    checked = [
        d.code for d in check_action(action).diagnostics if d.code in ACTION_RULES
    ]
    assert _parse_codes(print_action(action)) == checked


@settings(max_examples=200, deadline=None)
@given(PATTERN)
def test_parser_and_checker_agree_on_pattern_rules(pattern: Pattern):
    checked = [
        d.code
        for d in check_pattern(pattern, {}, {}).diagnostics
        if d.code in PATTERN_RULES
    ]
    assert _parse_codes(print_pattern(pattern)) == checked


def test_a_rule_finding_does_not_hide_the_next_declaration():
    text = (
        "action a(X, Z) := provide(X: input.a, Y: output.b);\n"
        "action b(X) := provide(X: input) <- create(X, X);\n"
    )
    result = parse(text)
    assert [(d.code, d.span.line) for d in result.diagnostics] == [
        ("E-PARAMS", 1),
        ("E-ARITY", 2),
    ]


def test_truncated_group_is_a_syntax_error():
    result = parse("action a(X) := provide([")
    assert result.file is None
    assert [d.code for d in result.diagnostics] == ["E-SYNTAX"]


def test_loader_and_checker_report_an_unknown_message_alike(tmp_path):
    path = tmp_path / "p.hai"
    path.write_text("pattern p := [M1, M2, M1] @ hitl;\n")
    _, loaded = load_with_diagnostics([path])
    checked = check_pattern(Pattern("p", ("M1", "M2", "M1"), frozenset({"hitl"})), {}, {})
    assert loaded == placed(checked.diagnostics, str(path))
    assert [d.message for d in loaded] == [
        f"pattern 'p' references unknown message {m!r}" for m in ("M1", "M2", "M1")
    ]


GIVE = """action give(X) := provide(X: input.raw_data);
message M1 := user -> model : give(A);
pattern p := [M1];
"""


def _load(tmp_path: Path, files: dict[str, str]):
    """Write ``files`` (sidecars given as objects) under ``tmp_path`` and load
    each directory they name, in order."""
    dirs: dict[Path, None] = {}
    for name, content in files.items():
        path = tmp_path / name
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(content if isinstance(content, str) else json.dumps(content))
        dirs[path.parent] = None
    return load_with_diagnostics(list(dirs))[1]


def _with_sidecar(tmp: Path, sidecar: dict):
    return _load(tmp, {"a.hai": GIVE, "catalog.json": sidecar})


def _replayed(edit):
    catalog = load([FIXTURES])
    agents = parse_agents((AGENTS_DIR / "robot_demo.agents").read_text())
    (trace,) = run_scenario(catalog, "D1", agents, seed=3)
    return replay_check(edit(trace).to_jsonl(), catalog)


def _renamed(trace):
    return dataclasses.replace(trace, pattern="nosuch")


def _unknown_first_message(trace):
    step = trace.steps[0]._replace(message="nosuch")
    return dataclasses.replace(trace, steps=(step, *trace.steps[1:]))


#: Every source of E-DUP-NAME and E-UNRESOLVED: how to raise it, then its
#: code, its message, its path under the test's directory (``None``: no
#: file) and its ``line:col`` (``None``: placed at no line, an unplaced
#: rule).  A finding on a sidecar's scenario or note is placed at its key, or
#: at its item of ``provide_only``; replay places one at its trace line.
NAME_AND_REFERENCE_SOURCES = {
    "parser": (
        lambda tmp: parse(
            "action a(X) := provide(X: input);\n  action a(Y) := provide(Y: input);\n",
            str(tmp / "x.hai"),
        ).diagnostics,
        "E-DUP-NAME",
        "'a' is already declared in {tmp}/x.hai",
        "x.hai",
        (2, 3),
    ),
    "loader, across files": (
        lambda tmp: _load(
            tmp, {"a.hai": GIVE, "b.hai": "role r;\n message M1 := user -> r : give(B);\n"}
        ),
        "E-DUP-NAME",
        "'M1' is already declared in {tmp}/a.hai",
        "b.hai",
        (2, 2),
    ),
    "scenario and pattern": (
        lambda tmp: _with_sidecar(tmp, {"scenarios": {"p": ["p"]}}),
        "E-DUP-NAME",
        "'p' is already declared in {tmp}/a.hai",
        "catalog.json",
        (1, 16),
    ),
    "scenario and scenario": (
        lambda tmp: _load(
            tmp,
            {
                "a.hai": GIVE,
                "one/catalog.json": {"scenarios": {"s": ["p"]}},
                "two/catalog.json": {"scenarios": {"s": ["p", "p"]}},
            },
        ),
        "E-DUP-NAME",
        "'s' is already declared in {tmp}/one/catalog.json",
        "two/catalog.json",
        (1, 16),
    ),
    "message to action": (
        lambda tmp: _load(tmp, {"a.hai": "\n\nmessage M := user -> model : ghost(A);\n"}),
        "E-UNRESOLVED",
        "message 'M' references unknown action 'ghost'",
        "a.hai",
        (3, 1),
    ),
    "pattern to message, at load": (
        lambda tmp: _load(tmp, {"a.hai": GIVE + "   pattern q := [M1, M9];\n"}),
        "E-UNRESOLVED",
        "pattern 'q' references unknown message 'M9'",
        "a.hai",
        (4, 4),
    ),
    "pattern to message, at check": (
        lambda tmp: check_pattern(Pattern("q", ("M9",)), {}, {}).diagnostics,
        "E-UNRESOLVED",
        "pattern 'q' references unknown message 'M9'",
        None,
        None,
    ),
    "scenario to pattern": (
        lambda tmp: _with_sidecar(tmp, {"scenarios": {"s": ["ghost"]}}),
        "E-UNRESOLVED",
        "scenario 's' references unknown pattern 'ghost'",
        "catalog.json",
        (1, 16),
    ),
    "annotation": (
        lambda tmp: _with_sidecar(tmp, {"annotations": {"q": ""}}),
        "E-UNRESOLVED",
        "sidecar key 'annotations' references unknown flow 'q'",
        "catalog.json",
        (1, 18),
    ),
    "interpretation, of a message's name": (
        lambda tmp: _with_sidecar(tmp, {"interpretations": {"M1": ""}}),
        "E-UNRESOLVED",
        "sidecar key 'interpretations' references unknown flow 'M1'",
        "catalog.json",
        (1, 22),
    ),
    "provide_only, of a scenario's name": (
        lambda tmp: _with_sidecar(tmp, {"scenarios": {"s": ["p"]}, "provide_only": ["s"]}),
        "E-UNRESOLVED",
        "sidecar key 'provide_only' references unknown pattern 's'",
        "catalog.json",
        (1, 46),
    ),
    "replay, flow": (
        lambda tmp: _replayed(_renamed),
        "E-UNRESOLVED",
        "run D1-s3-r0 references unknown flow 'nosuch'",
        None,
        (1, 1),
    ),
    "replay, message": (
        lambda tmp: _replayed(_unknown_first_message),
        "E-UNRESOLVED",
        "run D1-s3-r0 step 1 references unknown message 'nosuch'",
        None,
        (2, 1),
    ),
}


@pytest.mark.parametrize("source", NAME_AND_REFERENCE_SOURCES)
def test_each_name_and_reference_source_reports_alike(tmp_path, source):
    raise_it, code, message, path, place = NAME_AND_REFERENCE_SOURCES[source]
    (diag,) = raise_it(tmp_path)
    assert (diag.code, diag.message) == (code, message.format(tmp=tmp_path))
    assert diag.path == (str(tmp_path / path) if path else "<input>")
    assert (diag.span and (diag.span.line, diag.span.col)) == place


def test_only_placed_says_where_a_finding_is_in_check():
    functions = inspect.getmembers(haiproto.check, inspect.isfunction)
    placing = [
        name
        for name, function in functions
        if function.__module__ == "haiproto.check"
        and {"path", "span"} & inspect.signature(function).parameters.keys()
    ]
    assert placing == ["placed"]


def test_name_and_reference_rules_are_written_in_check_only():
    package = Path(haiproto.__file__).parent
    for code in ("E-DUP-NAME", "E-UNRESOLVED"):
        owners = [p.name for p in package.glob("*.py") if f'"{code}"' in p.read_text()]
        assert owners == ["check.py"], code


def test_a_flow_is_resolved_in_check_flow_only():
    assert not hasattr(haiproto.check, "resolve")
    package = Path(haiproto.__file__).parent
    callers = [
        (path.name, function.name)
        for path in sorted(package.glob("*.py"))
        for function in ast.walk(ast.parse(path.read_text()))
        if isinstance(function, ast.FunctionDef)
        for call in ast.walk(function)
        if isinstance(call, ast.Call) and "resolve_step" in ast.dump(call.func)
    ]
    assert callers == [("check.py", "check_flow")]


def _distinct(args: list[Arg]) -> list[Arg]:
    """``args`` with every variable renamed apart, so the action they make
    declares each once; messages reuse names, not actions."""
    fresh = (f"P{n}" for n in range(100))
    return [
        Arg(next(fresh), arg.type) if arg.var is not None
        else Arg(None, GroupType(tuple((next(fresh), t) for _, t in arg.type.members)))
        for arg in args
    ]


@st.composite
def _flows(draw):
    """A pattern of 1 to 4 messages, each of its own action, over variables
    ``X``, ``Y`` and ``Z``, with the tables it resolves against."""
    actions, messages = {}, {}
    for index in range(draw(st.integers(1, 4))):
        head, *refs = _distinct([draw(ARG), *draw(st.lists(ARG, max_size=2))])
        kind = draw(st.sampled_from(list(PrimitiveKind)))
        params = tuple(var for arg in (head, *refs) for var, _ in arg.variables())
        name = f"a{index}"
        actions[name] = ActionDef(name, params, PrimitiveSpec(kind, head, tuple(refs)))
        args = tuple(draw(VARS) for _ in params)
        sender, receiver = draw(st.permutations(["user", "model"]))
        messages[f"M{index}"] = Message(f"M{index}", sender, receiver, name, args)
    return Pattern("p", tuple(messages)), messages, actions


def _needed_meets_every_later_use(flow) -> int:
    """Assert that each variable's needed type, where a step binds it,
    intersects every type a later step declares for it; count those uses."""
    uses = 0
    for index, pairs in enumerate(flow.needed):
        for var, bound in pairs:
            for later in flow.steps[index + 1 :]:
                for used, declared in later.slots:
                    if used == var:
                        assert intersect(bound, declared) is not None, (var, bound, declared)
                        uses += 1
    return uses


@settings(max_examples=400, deadline=None)
@given(_flows(), st.sampled_from(["pattern", "scenario"]))
def test_a_needed_type_meets_every_later_use_in_a_flow_that_checks(drawn, scope):
    """What lets a run skip the check of a value bound at its needed type.
    Most drawn flows do not check; the search is steered to those with more
    later uses to check."""
    flow = check_flow(*drawn, scope)
    target(0.0 if flow.report.errors else float(_needed_meets_every_later_use(flow)))


def test_a_needed_type_meets_every_later_use_in_the_corpus_and_traces_read_back():
    catalog = load([FIXTURES])
    uses = 0
    for name in sorted({*catalog.patterns, *catalog.scenarios}):
        flow = catalog.flow(name)
        assert not flow.report.errors, name
        uses += _needed_meets_every_later_use(flow)
        for agents_file in ("rl_demo.agents", "robot_demo.agents"):
            agents = parse_agents((AGENTS_DIR / agents_file).read_text())
            try:
                traces = run_scenario(catalog, name, agents, seed=7, repeat=2)
            except LookupError:  # no agent for a role
                continue
            text = "".join(trace.to_jsonl() for trace in traces)
            read = [trace.steps for trace in Trace.all_from_jsonl(text)]
            assert read == [trace.steps for trace in traces]
            assert all(type(step) is TraceStep for steps in read for step in steps)
    assert uses > 0


class _Exact(AgentBehavior):
    """Produces exactly what it is asked for, at the type asked: a string, or a
    tuple of one string for a list type."""

    def produce(self, message, action, needed, binding):
        return {
            var: Payload(typ, (var,) if isinstance(typ, ListType) else var)
            for var, typ in needed.items()
        }


#: A flow that checks, whatever is drawn: a list-typed value bound, then used again.
_LIST_THEN_USED = (
    Pattern("p", ("M0", "M1")),
    {
        "M0": Message("M0", "user", "model", "a0", ("X",)),
        "M1": Message("M1", "model", "user", "a1", ("X", "Y")),
    },
    {
        "a0": ActionDef("a0", ("P0",), PrimitiveSpec(
            PrimitiveKind.PROVIDE, Arg("P0", ListType(INPUT))
        )),
        "a1": ActionDef("a1", ("P0", "P1"), PrimitiveSpec(
            PrimitiveKind.PROVIDE, Arg("P1", OUTPUT), (Arg("P0", ListType(INPUT)),)
        )),
    },
)


@settings(max_examples=300, deadline=None)  # about one drawn flow in six checks
@given(_flows())
@example(_LIST_THEN_USED)
def test_a_flow_that_checks_runs_and_replays_clean_and_prints_back(drawn):
    """The pipeline's promise: printed declarations parse back equal, and a
    pattern that checks completes with agents that produce what it needs,
    and its trace replays clean, as a Trace and as text.  Each step needs fresh
    variables of its message, which a run's one-pass clean step relies on, and
    the lines a run writes from its step plan are what a trace writes field by
    field."""
    pattern, messages, actions = drawn
    declared = [*actions.values(), *messages.values(), pattern]
    printed = [*map(print_action, actions.values()), *map(print_message, messages.values())]
    result = parse("\n".join([*printed, print_pattern(pattern)]))
    assert result.diagnostics == () and [decl.node for decl in result.file.decls] == declared
    roles = frozenset({"user", "model"})
    catalog = Catalog(actions, messages, {"p": pattern}, {}, {}, {}, frozenset(), roles)
    flow = catalog.flow("p")
    if flow.report.errors:  # as most drawn flows do
        return
    earlier: set[str] = set()
    for step, pairs in zip(flow.steps, flow.needed):
        names = [var for var, _ in pairs]
        assert set(names) <= set(step.message.args) and len(set(names)) == len(names)
        assert earlier.isdisjoint(names)
        earlier.update(names)
    trace = run(catalog, "p", dict.fromkeys(roles, _Exact()))
    assert trace.outcome == "completed" and len(trace.steps) == len(pattern.messages)
    assert trace.to_jsonl() == dataclasses.replace(trace, steps=trace.steps).to_jsonl()
    assert replay_check(trace, catalog) == []
    assert replay_check(trace.to_jsonl(), catalog) == []


@settings(max_examples=300, deadline=None)
@given(_flows())
@example(_LIST_THEN_USED)
def test_a_flow_check_catalog_keeps_is_a_fresh_check_of_its_pattern(drawn):
    """A catalog checks each flow once and keeps it, its steps resolved once
    per message and its equal tuples shared with the catalog's other flows;
    each kept flow is what a fresh ``check_flow`` gives, and runs the same."""
    pattern, messages, actions = drawn
    roles = frozenset({"user", "model"})
    scenarios = {"s": ("p", "p")}  # names every message twice, at scenario scope
    catalog = Catalog(actions, messages, {"p": pattern}, scenarios, {}, {}, frozenset(), roles)
    reports = check_catalog(catalog)
    kept = [catalog.flow("p"), catalog.flow("s")]
    assert [flow.report for flow in kept] == reports[-2:]
    assert all(flow.report is report for flow, report in zip(kept, reports[-2:]))
    for flow, (name, scope) in zip(kept, [("p", "pattern"), ("s", "scenario")]):
        fresh = check_flow(catalog.resolve_flow(name), messages, actions, scope)
        assert (flow.pattern, flow.steps, flow.needed) == (fresh.pattern, fresh.steps, fresh.needed)
        assert flow.report.target == f"{scope} {name}" == fresh.report.target
        assert flow.report.diagnostics == placed(fresh.report.diagnostics, "<catalog>")
        if not flow.report.errors:
            agents = dict.fromkeys(roles, _Exact())
            assert run(catalog, flow, agents).to_jsonl() == run(catalog, fresh, agents).to_jsonl()
    steps = [step for flow in kept for step in flow.steps]
    for a, b in itertools.combinations(steps, 2):
        assert (a is b) == (a.message.name == b.message.name)
        assert (a.slots is b.slots) == (a.slots == b.slots)
        assert (a.carried is b.carried) == (a.carried == b.carried)
    needed = [pairs for flow in kept for pairs in flow.needed]
    assert all((a is b) == (a == b) for a, b in itertools.combinations(needed, 2))
