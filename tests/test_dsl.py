"""Unit tests for the .hai parser and canonical printer."""

from __future__ import annotations

from pathlib import Path
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from haiproto import dsl, parse, parse_type, print_source
from haiproto.core import Span
from haiproto.dsl import print_action, print_message, print_pattern, tokenize

from conftest import FIXTURES
import oracles
from oracles import OracleLexError, oracle_tokenize

CANONICAL = """\
role supervisor;
action annotate-sample(X, Y) := provide(Y: output.label, X: input.raw_data|fvector) <- map(X, Y);
message A6 := user -> model : annotate-sample(X, Y) [X: WalkStand; Y: SelfReport];
pattern sample-annotation := [A6] @ hitl;
"""


def _codes(result) -> list[str]:
    return [d.code for d in result.diagnostics]


def test_tokenize_hyphen_identifiers_and_arrows():
    values, ends, _ = tokenize("req-class_selection user -> model <- :=")
    assert values == ["req-class_selection", "user", "->", "model", "<-", ":=", ""]
    assert ends == [19, 24, 27, 33, 36, 39, 39]


def test_tokenize_rejects_stray_characters():
    result = parse("action x- := provide(X: input);")
    assert result.file is None
    assert _codes(result) == ["E-LEX"]
    assert result.diagnostics[0].span is not None


def test_parse_canonical_file_and_exact_reprint():
    result = parse(CANONICAL, "demo.hai")
    assert result.file is not None and not result.diagnostics
    assert print_source(result.file) == CANONICAL


def test_spans_are_one_based():
    text = "action bad(X) := provide(X: nothing);"
    result = parse(text, "f.hai")
    assert result.file is None
    diag = result.diagnostics[0]
    col = text.index("nothing") + 1
    assert (diag.span.line, diag.span.col) == (1, col)
    assert diag.format().startswith(f"f.hai:1:{col}: error[E-SYNTAX]")


@pytest.mark.parametrize("path", sorted(FIXTURES.glob("*.hai")), ids=lambda p: p.name)
def test_round_trip_fixture(path: Path):
    original = parse(path.read_text(), str(path))
    assert original.file is not None, [d.format() for d in original.diagnostics]
    printed = print_source(original.file)
    reparsed = parse(printed, str(path))
    assert reparsed.file is not None
    assert reparsed.file == original.file
    # Printing is idempotent: the canonical form reprints to itself.
    assert print_source(reparsed.file) == printed


def test_comments_survive_round_trip():
    text = (
        "// all actions live here\n"
        "// and this explains why\n"
        "action a(X) := provide(X: input.raw_data);  // trailing note\n"
        "// file epilogue\n"
    )
    result = parse(text)
    assert result.file is not None
    decl = result.file.decls[0]
    assert decl.leading_comments == ("all actions live here", "and this explains why")
    assert decl.trailing_comment == "trailing note"
    assert result.file.trailing_comments == ("file epilogue",)
    assert parse(print_source(result.file)).file == result.file


def test_a_comment_inside_a_declaration_stays_with_it():
    text = "action a(X) :=  // why a provides\n    provide(X: input.raw_data);\nrole r;\n"
    result = parse(text)
    assert result.file is not None
    action, role = result.file.decls
    assert action.leading_comments == ("why a provides",)
    assert role.leading_comments == ()
    printed = print_source(result.file)
    assert printed == (
        "// why a provides\naction a(X) := provide(X: input.raw_data);\nrole r;\n"
    )
    assert print_source(parse(printed).file) == printed


def test_recovery_reports_each_bad_declaration_once():
    text = (
        "action ok(X) := provide(X: input.raw_data);\n"
        "pattern broken := ;\n"
        "message M := user -> ;\n"
        "pattern fine := [M1];\n"
    )
    result = parse(text)
    assert result.file is None
    assert _codes(result) == ["E-SYNTAX", "E-SYNTAX"]


@pytest.mark.parametrize(
    "text,code",
    [
        ("action a(X) := provide(X: input); action a(Y) := provide(Y: input);", "E-DUP-NAME"),
        ("pattern p := [];", "E-EMPTY-PATTERN"),
        ("pattern p := [M1] @ nonsense;", "E-TAG"),
        ("action a(X) := provide(X: input) <- create(X, X);", "E-ARITY"),
        ("action a(X, X) := provide(X: input);", "E-DUP-VAR"),
        ("action a(X, Y) := provide(X: input.a, Y: output.b, Y: output.c);", "E-DUP-VAR"),
        ("action a(X, Z) := provide(X: input.a, Y: output.b);", "E-PARAMS"),
        ('message M := user -> model : act(X) [k="unterminated;', "E-LEX"),
        ("action a(X) := offer(X: input);", "E-SYNTAX"),
        ("action a(X) := provide(X: data.raw);", "E-SYNTAX"),
    ],
)
def test_parse_rejections(text: str, code: str):
    result = parse(text)
    assert result.file is None
    assert code in _codes(result)


def test_group_needs_two_members_and_no_nesting():
    assert parse("action a(X) := provide([X: input.a]);").file is None
    # A group member must be a base or list type, never another group.
    nested = parse("action a(X, Y, Z) := provide([X: input.a, Y: [Z: input.b]]);")
    assert nested.file is None


def test_empty_message_args_allowed_by_parser():
    text = "action a(X) := provide(X: input.a);\nmessage M := user -> model : a();\n"
    result = parse(text)
    # Arity against the action is the checker's job, not the parser's.
    assert result.file is not None
    assert result.file.decls[1].node.args == ()


def test_parse_type_standalone():
    assert str(parse_type("input.raw_data|fvector")) == "input.raw_data|fvector"
    assert str(parse_type("[output.label]")) == "[output.label]"
    assert (
        str(parse_type("[S: input.state, A: output.action]"))
        == "[S: input.state, A: output.action]"
    )
    with pytest.raises(ValueError):
        parse_type("input.")
    with pytest.raises(ValueError):
        parse_type("input.raw_data extra")
    with pytest.raises(ValueError):
        parse_type("$")
    with pytest.raises(ValueError):
        parse_type('input."x')
    with pytest.raises(ValueError):
        parse_type("[")


def test_a_comment_in_a_type_expression_is_trailing_input():
    for text in ("input.a // note", "[input.a]extra", "// note\ninput.a"):
        with pytest.raises(ValueError, match="trailing input in type expression"):
            parse_type(text)


def test_printer_golden_lines(catalog):
    assert print_action(catalog.actions["req-sample_class"]) == (
        "action req-sample_class(X, Y) := "
        "request(Y: output.label, X: input.raw_data|fvector) <- map(X, Y);"
    )
    assert print_message(catalog.messages["A6"]) == (
        "message A6 := user -> model : annotate-sample(X, Y) "
        "[X: WalkStand; Y: SelfReport];"
    )
    assert print_pattern(catalog.patterns["sample-annotation"]) == (
        "pattern sample-annotation := [A5, A6] @ hitl;"
    )


def test_printer_sorts_tags_and_escapes_strings():
    text = 'message M := user -> model : a(X) [note="say \\"hi\\""];\n'
    result = parse("action a(X) := provide(X: input.a);\n" + text)
    assert result.file is not None
    printed = print_source(result.file)
    assert 'note="say \\"hi\\""' in printed
    tagged = parse("pattern p := [M1] @ query, control, hi;")
    # The declaration parser records messages without resolving them.
    assert tagged.file is not None
    assert "@ control, hi, query;" in print_source(tagged.file)


@settings(max_examples=300, deadline=None)
@given(st.text(max_size=400))
def test_parser_never_crashes_on_arbitrary_text(text: str):
    result = parse(text)
    assert (result.file is None) == any(
        d.severity == "error" for d in result.diagnostics
    )


# Text the two lexers are compared on: a window of a corpus file with a few
# characters inserted or replaced, drawn from those the lexer treats specially
# (or must refuse): quotes, escapes, line ends, hyphens, slashes, a
# superscript digit (alphanumeric but not alphabetic), non-ASCII letters,
# form feed and no-break space.
MUTATIONS = '$"\\\n\t\r-/\u00b2\u00aa\u00e9\x0c\xa0'
CORPUS_TEXTS = [path.read_text() for path in sorted(FIXTURES.glob("*.hai"))]
ACTION = "action a(X) := provide(X: input.a);\n"


@st.composite
def mutated_corpus(draw) -> str:
    text = draw(st.sampled_from(CORPUS_TEXTS))
    start = draw(st.integers(0, len(text)))
    text = text[start : start + draw(st.integers(0, 600))]
    edit = st.tuples(st.integers(0, len(text)), st.sampled_from(MUTATIONS), st.booleans())
    for pos, char, replace in sorted(draw(st.lists(edit, max_size=4)), reverse=True):
        text = text[:pos] + char + text[pos + replace :]
    return text


def _oracle_as_tokenize(text: str):
    """The oracle's output in :func:`dsl.tokenize`'s form, to parse through."""
    try:
        tokens, comments = oracle_tokenize(text)
    except OracleLexError as exc:
        raise dsl.LexError(exc.message, Span(*exc.where)) from None
    return (
        [text[at : at + length] for *_, length, at in tokens],
        [at + length for *_, length, at in tokens],
        [(at, at + length, body) for _, _, length, body, at in comments],
    )


_KINDS = {**oracles._ORACLE_PUNCT, **oracles._ORACLE_PAIRS, "": "EOF"}


def _kind(token: str) -> str:
    """The oracle's kind of a token, from its text."""
    return _KINDS.get(token) or ("STRING" if token[0] == '"' else "ID")


def _parsed(text: str):
    result = parse(text)
    where = [(d.span.line, d.span.col, d.span.length) for d in result.diagnostics]
    return result.file, [(d.code, d.message) for d in result.diagnostics], where


@settings(max_examples=400, deadline=None)
@given(mutated_corpus())
@example("role \u00b2x;")
@example("role \u00e9t\u00e9-\u00aa1;")
@example(ACTION + 'message M := user -> model : a(X) [k="open')
@example(ACTION + 'message M := user -> model : a(X) [k="open\n];')
@example(ACTION + 'message M := user -> model : a(X) [k="a\\\\"];')
@example(ACTION + 'message M := user -> model : a(X) [k="a\\q"];')
@example('"a\\\\" "a\\q" "a\\"')
@example("action x- := provide(X: input);")
@example("pattern a--b := [M];")
@example("role r;  // closing note")
@example("// only a note")
@example("role r;\r\n// note\r\nrole s;  // after\r\n")
@example("role r; $")  # a bad last character, no line end after it
@example("role\x0cr;")
@example("role\xa0r;")
@example('role r;\nrole "s')  # unterminated on the last line, no line end
@example("role r;\n" * 3400 + "$")  # after about 10k good tokens
@example(ACTION.replace("\n", "\r\n") + "role r;\r\nrole $;\r\n")
@example(ACTION + "role \u00e9cole;\n")  # one non-ASCII name, ASCII otherwise
@example(ACTION + "role x\u00b2;  // \u00b2")
def test_lexer_matches_the_character_loop_oracle(text: str):
    try:
        expected = oracle_tokenize(text)
    except OracleLexError as exc:
        with pytest.raises(dsl.LexError) as raised:
            tokenize(text)
        span = raised.value.span
        assert (raised.value.message, span.line, span.col, span.length) == (
            exc.message,
            *exc.where,
        )
    else:
        values, ends, comments = tokenize(text)
        line_starts = dsl._line_starts(text)
        spans = [dsl._span(line_starts, end - len(v), end) for v, end in zip(values, ends)]
        got = [(_kind(v), dsl._text(v), s.line, s.col, s.length) for v, s in zip(values, spans)]
        assert got == [token[:5] for token in expected[0]]
        assert comments == [(at, at + n, body) for _, _, n, body, at in expected[1]]
    with mock.patch.object(dsl, "tokenize", _oracle_as_tokenize):
        oracle = _parsed(text)
    assert _parsed(text) == oracle


def test_superscript_digit_does_not_start_a_name():
    result = parse("role \u00b2x;")
    assert [(d.code, d.message) for d in result.diagnostics] == [
        ("E-LEX", "unexpected character '\u00b2'")
    ]
    assert result.diagnostics[0].span == Span(1, 6, 1)
