"""Unit tests for action, message, and pattern checking."""

from __future__ import annotations

import dataclasses
import json

import pytest

from haiproto import (
    ActionDef,
    Arg,
    BaseType,
    GroupType,
    ListType,
    Message,
    Operation,
    OpKind,
    Pattern,
    PrimitiveKind,
    PrimitiveSpec,
    Role,
    check_action,
    check_catalog,
    check_message,
    check_pattern,
    load_with_diagnostics,
    parse,
)

RAW = BaseType(Role.INPUT, ("raw_data",))
VEC = BaseType(Role.INPUT, ("fvector",))
LABEL = BaseType(Role.OUTPUT, ("label",))


def _action(name, params, kind, head, refs=(), ops=()) -> ActionDef:
    return ActionDef(
        name=name,
        params=tuple(params),
        primitive=PrimitiveSpec(kind, head, tuple(refs)),
        operations=tuple(ops),
    )


def _env(src: str):
    """Parse a snippet into (actions, messages, patterns) name maps."""
    result = parse(src)
    assert result.file is not None, [d.format() for d in result.diagnostics]
    actions, messages, patterns = {}, {}, {}
    for decl in result.file.decls:
        if isinstance(decl.node, ActionDef):
            actions[decl.name] = decl.node
        elif isinstance(decl.node, Message):
            messages[decl.name] = decl.node
        elif isinstance(decl.node, Pattern):
            patterns[decl.name] = decl.node
    return actions, messages, patterns


def _codes(report) -> list[str]:
    return [d.code for d in report.diagnostics]


# ---------------------------------------------------------------------------
# check_action
# ---------------------------------------------------------------------------


def test_valid_action_passes():
    action = _action(
        "annotate",
        ("X", "Y"),
        PrimitiveKind.PROVIDE,
        Arg("Y", LABEL),
        [Arg("X", RAW)],
        [Operation(OpKind.MAP, ("X", "Y"))],
    )
    report = check_action(action)
    assert report.verdict == "pass"
    assert report.target == "action annotate"


def test_modify_rejects_incompatible_types():
    action = _action(
        "bad-modify",
        ("X", "Y"),
        PrimitiveKind.PROVIDE,
        Arg("Y", LABEL),
        [Arg("X", RAW)],
        [Operation(OpKind.MODIFY, ("X", "Y"))],
    )
    assert _codes(check_action(action)) == ["E-MODIFY-TYPE"]


def test_select_needs_a_list_source():
    action = _action(
        "bad-select",
        ("X", "Y"),
        PrimitiveKind.PROVIDE,
        Arg("X", LABEL),
        [Arg("Y", LABEL)],
        [Operation(OpKind.SELECT, ("X", "Y"))],
    )
    assert _codes(check_action(action)) == ["E-SELECT-LIST"]


def test_select_element_must_match_list():
    action = _action(
        "bad-select-elem",
        ("X", "Y"),
        PrimitiveKind.PROVIDE,
        Arg("X", RAW),
        [Arg("Y", ListType(LABEL))],
        [Operation(OpKind.SELECT, ("X", "Y"))],
    )
    assert _codes(check_action(action)) == ["E-SELECT-ELEM"]


def test_operation_over_undeclared_variable():
    action = _action(
        "bad-op-var",
        ("X",),
        PrimitiveKind.PROVIDE,
        Arg("X", RAW),
        ops=[Operation(OpKind.MAP, ("X", "Z"))],
    )
    assert _codes(check_action(action)) == ["E-OP-VAR"]


def test_duplicate_variable_between_head_and_refs():
    action = _action(
        "bad-dup",
        ("X",),
        PrimitiveKind.PROVIDE,
        Arg("X", RAW),
        [Arg("X", LABEL)],
    )
    assert "E-DUP-VAR" in _codes(check_action(action))


def test_operation_arity_out_of_bounds():
    action = _action(
        "bad-arity",
        ("X", "Y"),
        PrimitiveKind.PROVIDE,
        Arg("X", RAW),
        [Arg("Y", LABEL)],
        [Operation(OpKind.CREATE, ("X", "Y"))],
    )
    assert _codes(check_action(action)) == ["E-ARITY"]


def test_params_must_match_declared_variables():
    action = _action(
        "bad-params",
        ("X", "Z"),
        PrimitiveKind.PROVIDE,
        Arg("X", RAW),
        [Arg("Y", LABEL)],
    )
    assert _codes(check_action(action)) == ["E-PARAMS"]


def test_group_members_enter_the_scope():
    group = GroupType((("S", RAW), ("A", LABEL)))
    action = _action(
        "grouped",
        ("B", "S", "A"),
        PrimitiveKind.REQUEST,
        Arg("B", BaseType(Role.FEEDBACK)),
        [Arg(None, group)],
        [Operation(OpKind.MAP, ("S", "B"))],
    )
    assert check_action(action).verdict == "pass"


def test_all_catalog_actions_pass(catalog):
    for name in sorted(catalog.actions):
        report = check_action(catalog.actions[name])
        assert report.verdict == "pass", (name, _codes(report))


# ---------------------------------------------------------------------------
# check_message
# ---------------------------------------------------------------------------

MESSAGE_SRC = """
action greet(X) := provide(X: output.label);
action trade(X, Y) := request(Y: output.label, X: input.raw_data) <- map(X, Y);
message ok := user -> model : trade(A, B) [A: sample; note="fine"];
message ghost := user -> model : vanish(A);
message selfsend := user -> user : greet(A);
message shortargs := user -> model : trade(A);
message dupmod := user -> model : greet(A) [note="x"; note="y"];
message strayvar := user -> model : greet(A) [B: sample];
"""


def test_check_message_accepts_valid():
    actions, messages, _ = _env(MESSAGE_SRC)
    assert check_message(messages["ok"], actions).verdict == "pass"


@pytest.mark.parametrize(
    "name,code",
    [
        ("ghost", "E-UNKNOWN-ACTION"),
        ("selfsend", "E-SELF-SEND"),
        ("shortargs", "E-ARG-COUNT"),
        ("dupmod", "E-DUP-MOD"),
        ("strayvar", "E-UNKNOWN-MOD-VAR"),
    ],
)
def test_check_message_rejections(name: str, code: str):
    actions, messages, _ = _env(MESSAGE_SRC)
    assert _codes(check_message(messages[name], actions)) == [code]


def test_all_catalog_messages_pass(catalog):
    for name in sorted(catalog.messages):
        report = check_message(catalog.messages[name], catalog.actions)
        assert report.verdict == "pass", (name, _codes(report))


# ---------------------------------------------------------------------------
# check_pattern: structure and bindings
# ---------------------------------------------------------------------------


def test_empty_pattern_is_an_error():
    report = check_pattern(Pattern("p", (), frozenset()), {}, {})
    assert _codes(report) == ["E-EMPTY-PATTERN"]


def test_unknown_tag_is_an_error(catalog):
    pattern = Pattern("p", ("A6",), frozenset({"bogus", "hitl"}))
    report = check_pattern(pattern, catalog.messages, catalog.actions)
    assert "E-TAG" in _codes(report)


def test_unresolved_message_reference():
    report = check_pattern(Pattern("p", ("nosuch",), frozenset()), {}, {})
    assert _codes(report) == ["E-UNRESOLVED"]


def test_arg_count_mismatch_stops_coherence_walk():
    actions, messages, patterns = _env(
        """
        action trade(X, Y) := request(Y: output.label, X: input.raw_data) <- map(X, Y);
        message M1 := user -> model : trade(A);
        pattern p := [M1];
        """
    )
    report = check_pattern(patterns["p"], messages, actions)
    assert _codes(report) == ["E-ARG-COUNT"]


def test_binding_conflict_between_messages():
    actions, messages, patterns = _env(
        """
        action give-raw(X) := provide(X: input.raw_data);
        action give-label(X) := provide(X: output.label);
        message M1 := user -> model : give-raw(V);
        message M2 := model -> user : give-label(V);
        pattern p := [M1, M2];
        """
    )
    report = check_pattern(patterns["p"], messages, actions)
    assert _codes(report) == ["E-BINDING"]
    assert "'V' is input.raw_data" in report.diagnostics[0].message
    assert "'M2' uses it as output.label" in report.diagnostics[0].message


def test_binding_narrows_union_types():
    actions, messages, patterns = _env(
        """
        action send-any(X) := provide(X: input.raw_data|fvector);
        action send-vec(X) := provide(X: input.fvector);
        message M1 := user -> model : send-any(V);
        message M2 := user -> model : send-vec(V);
        pattern p := [M1, M2];
        """
    )
    assert check_pattern(patterns["p"], messages, actions).verdict == "pass"


def test_scope_name_is_validated(catalog):
    with pytest.raises(ValueError):
        check_pattern(
            catalog.patterns["sample-annotation"],
            catalog.messages,
            catalog.actions,
            scope="bogus",
        )


# ---------------------------------------------------------------------------
# check_pattern: dialogue coherence
# ---------------------------------------------------------------------------

COHERENCE_SRC = """
action ask-label(X, Y) := request(Y: output.label, X: input.raw_data) <- map(X, Y);
action give-label(X, Y) := provide(Y: output.label, X: input.raw_data) <- map(X, Y);
message ASK := user -> model : ask-label(S, L);
message ANSWER := model -> user : give-label(S, L);
message ECHO := user -> model : give-label(S, L);
pattern answered := [ASK, ANSWER];
pattern unanswered := [ASK];
pattern wrong-direction := [ASK, ECHO];
"""


def test_answered_request_is_clean():
    actions, messages, patterns = _env(COHERENCE_SRC)
    report = check_pattern(patterns["answered"], messages, actions)
    assert report.verdict == "pass"


def test_open_request_warns_at_pattern_scope():
    actions, messages, patterns = _env(COHERENCE_SRC)
    report = check_pattern(patterns["unanswered"], messages, actions)
    assert _codes(report) == ["W-UNANSWERED"]
    assert report.verdict == "warn"
    assert (
        report.diagnostics[0].message
        == "request 'ASK' (user -> model, for output.label) is never answered"
    )


def test_provide_in_the_wrong_direction_does_not_answer():
    actions, messages, patterns = _env(COHERENCE_SRC)
    report = check_pattern(patterns["wrong-direction"], messages, actions)
    assert _codes(report) == ["W-UNANSWERED"]


def test_request_refs_discharge_but_its_head_stays_open(catalog):
    # Q6 answers Q4 by referencing the prediction it questions, yet its own
    # request (a modified label) stays open within the pattern.
    pattern = Pattern("q4-q6", ("Q4", "Q6"), frozenset({"query"}))
    report = check_pattern(pattern, catalog.messages, catalog.actions)
    assert _codes(report) == ["W-UNANSWERED"]
    assert "'Q6'" in report.diagnostics[0].message


def test_productive_counter_request_is_exempt_at_pattern_scope(catalog):
    pattern = catalog.patterns["new_sample-annotation"]
    report = check_pattern(pattern, catalog.messages, catalog.actions)
    assert report.verdict == "pass"


def test_scenario_scope_escalates_open_requests(catalog):
    pattern = catalog.patterns["new_sample-annotation"]
    report = check_pattern(
        pattern, catalog.messages, catalog.actions, scope="scenario"
    )
    assert _codes(report) == ["E-UNANSWERED"]
    assert "'Q3'" in report.diagnostics[0].message
    assert report.verdict == "fail"


def test_non_exempt_open_request_warns_even_after_discharging(catalog):
    # query-P2 closes every request: Q6 discharges Q4 and Q7 answers Q6.
    report = check_pattern(
        catalog.patterns["query-P2"], catalog.messages, catalog.actions
    )
    assert report.verdict == "pass"


def test_every_catalog_pattern_is_warning_free(catalog):
    for name in sorted(catalog.patterns):
        report = check_pattern(catalog.patterns[name], catalog.messages, catalog.actions)
        assert report.verdict == "pass", (name, [d.format() for d in report.diagnostics])


# ---------------------------------------------------------------------------
# Where findings are placed
# ---------------------------------------------------------------------------

GIVE = """action give(X) := provide(X: input.raw_data);
message M1 := user -> model : give(A);
pattern p := [M1];
"""

ASK = """action ask(Y) := request(Y: output.label);
message Q := user -> model : ask(Y);
pattern asking := [Q];
"""


def _no_actions(catalog):
    return dataclasses.replace(catalog, actions={})


#: Every code the loader and checker report, each from a corpus of ``.hai``
#: files and sidecars (objects), as ``haiproto check DIR`` prints it: the
#: path under the corpus, ``line:col``, severity and code.  A declaration's
#: finding from the checker sits at its keyword; the parser's rules sit at
#: the token at fault; a sidecar's scenario has no line.  ``edit`` changes
#: the loaded catalog before it is checked.
PLACES = {
    "E-DUP-VAR": (
        {"a.hai": "action a(X, X) := provide(X: input);\n"},
        ["a.hai:1:8: error[E-DUP-VAR]"],
    ),
    "E-PARAMS": (
        {"a.hai": "action a(Y) := provide(X: input);\n"},
        ["a.hai:1:8: error[E-PARAMS]"],
    ),
    "E-ARITY": (
        {"a.hai": "action a(X) := provide(X: input) <- create(X, X);\n"},
        ["a.hai:1:37: error[E-ARITY]"],
    ),
    "E-EMPTY-PATTERN": (
        {"a.hai": GIVE + "pattern q := [];\n"},
        ["a.hai:4:9: error[E-EMPTY-PATTERN]"],
    ),
    "E-TAG": ({"a.hai": GIVE + "pattern q := [M1] @ nope;\n"}, ["a.hai:4:9: error[E-TAG]"]),
    "E-DUP-NAME": (
        {"a.hai": GIVE, "b.hai": "\n  pattern p := [M1];\n"},
        ["b.hai:2:3: error[E-DUP-NAME]"],
    ),
    "E-UNRESOLVED": ({"a.hai": GIVE + "pattern q := [M9];\n"}, ["a.hai:4:1: error[E-UNRESOLVED]"]),
    "E-DUP-NAME, of a name whose first declaration does not resolve": (
        {"a.hai": "message M1 := user -> model : ghost(A);\n", "b.hai": GIVE},
        [
            "a.hai:1:1: error[E-UNRESOLVED]",
            "b.hai:2:1: error[E-DUP-NAME]",
            "b.hai:3:1: error[E-UNRESOLVED]",
        ],
    ),
    "E-UNKNOWN-ROLE": (
        {"a.hai": GIVE + "message M2 := user -> nobody : give(A);\n"},
        ["a.hai:4:1: error[E-UNKNOWN-ROLE]"],
    ),
    "E-UNKNOWN-ACTION": (
        {"a.hai": GIVE},
        ["a.hai:2:1: error[E-UNKNOWN-ACTION]", "a.hai:3:1: error[E-UNKNOWN-ACTION]"],
        _no_actions,
    ),
    "E-OP-VAR": (
        {"a.hai": "action a(X) := provide(X: input) <- create(Z);\n"},
        ["a.hai:1:1: error[E-OP-VAR]"],
    ),
    "E-SELECT-LIST": (
        {"a.hai": "\naction s(X, Y) := provide(X: input, Y: output.label) <- select(X, Y);\n"},
        ["a.hai:2:1: error[E-SELECT-LIST]"],
    ),
    "E-SELECT-ELEM": (
        {"a.hai": "action s(X, Y) := provide(X: input, Y: [output.label]) <- select(X, Y);\n"},
        ["a.hai:1:1: error[E-SELECT-ELEM]"],
    ),
    "E-MODIFY-TYPE, E-ARG-COUNT and W-UNANSWERED": (
        {
            "a.hai": "action give(X) := provide(X: input.raw_data);\n"
            "action swap(X, Y) := provide(X: input.raw_data, Y: output.label) <- modify(X, Y);\n"
            "message M1 := user -> model : give(A, B);\n"
            "action ask(Y) := request(Y: output.label);\n"
            "message Q := user -> model : ask(Y);\n"
            "pattern p := [Q];\n"
        },
        [
            "a.hai:2:1: error[E-MODIFY-TYPE]",
            "a.hai:3:1: error[E-ARG-COUNT]",
            "a.hai:6:1: warning[W-UNANSWERED]",
        ],
    ),
    "E-SELF-SEND, on a message named as a scenario": (
        {
            "a.hai": "action give(X) := provide(X: input.raw_data);\n"
            "message D1 := user -> user : give(A);\n"
            "pattern p := [D1];\n",
            "catalog.json": {"scenarios": {"D1": ["p"]}},
        },
        ["a.hai:2:1: error[E-SELF-SEND]"],
    ),
    "E-DUP-MOD": (
        {"a.hai": GIVE + 'message M2 := user -> model : give(A) [note="x"; note="y"];\n'},
        ["a.hai:4:1: error[E-DUP-MOD]"],
    ),
    "E-UNKNOWN-MOD-VAR": (
        {"a.hai": GIVE + "message M2 := user -> model : give(A) [B: sample];\n"},
        ["a.hai:4:1: error[E-UNKNOWN-MOD-VAR]"],
    ),
    "E-BINDING": (
        {
            "a.hai": GIVE + "action label(X) := provide(X: output.label);\n"
            "message M2 := model -> user : label(A);\n"
            "pattern q := [M1, M2];\n"
        },
        ["a.hai:6:1: error[E-BINDING]"],
    ),
    "E-UNANSWERED": (
        {"a.hai": ASK, "catalog.json": {"scenarios": {"s": ["asking"]}}},
        ["a.hai:3:1: warning[W-UNANSWERED]", "catalog.json:1:16: error[E-UNANSWERED]"],
    ),
    "E-UNANSWERED, of a scenario on a later line of its sidecar": (
        {
            "a.hai": GIVE + ASK,
            "catalog.json": '{\n  "scenarios": {\n    "given": ["p"],\n'
            '    "s": ["p", "asking"]\n  }\n}\n',
        },
        ["a.hai:6:1: warning[W-UNANSWERED]", "catalog.json:4:5: error[E-UNANSWERED]"],
    ),
    "E-EMPTY-PATTERN, of a scenario on a later line of its sidecar": (
        {"a.hai": GIVE, "catalog.json": '{"annotations": {"p": "{"},\n "scenarios":\n\t{"s": []}}'},
        ["catalog.json:3:3: error[E-EMPTY-PATTERN]"],
    ),
}


@pytest.mark.parametrize("case", PLACES)
def test_each_finding_is_placed_at_its_declaration(tmp_path, case):
    files, expected, *edits = PLACES[case]
    for name, content in files.items():
        text = content if isinstance(content, str) else json.dumps(content)
        (tmp_path / name).write_text(text, encoding="utf-8")
    catalog, found = load_with_diagnostics([tmp_path])
    if catalog is not None:
        for edit in edits:
            catalog = edit(catalog)
        found += tuple(d for report in check_catalog(catalog) for d in report.diagnostics)
    printed = [d.format().split("]:")[0] + "]" for d in found]
    assert [p.removeprefix(f"{tmp_path}/") for p in printed] == expected
