"""The parser and the checker enforce the same declaration rules."""

from __future__ import annotations

from hypothesis import example, given, settings
from hypothesis import strategies as st

from haiproto import (
    TAGS,
    ActionDef,
    Arg,
    BaseType,
    GroupType,
    ListType,
    Operation,
    OpKind,
    Pattern,
    PrimitiveKind,
    PrimitiveSpec,
    Role,
    check_action,
    check_pattern,
    load_with_diagnostics,
    parse,
    print_action,
    print_pattern,
)

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
    checked = check_pattern(
        Pattern("p", ("M1", "M2", "M1"), frozenset({"hitl"})), {}, {}, path=str(path)
    ).diagnostics
    assert loaded == checked
    assert [d.message for d in loaded] == [
        f"pattern 'p' references unknown message {m!r}" for m in ("M1", "M2", "M1")
    ]
