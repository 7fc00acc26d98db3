"""Parser and canonical printer for the ``.hai`` protocol language.

A ``.hai`` file is a sequence of declarations, each ended by ``;``::

    role supervisor;
    action annotate-sample(X, Y) :=
        provide(Y: output.label, X: input.raw_data|fvector) <- map(X, Y);
    message A6 := user -> model : annotate-sample(X, Y) [X: WalkStand];
    pattern sample-annotation := [A5, A6] @ hitl;

The lexer is one compiled regex.  A token is a ``(kind, value, start, end)``
tuple of source offsets; a :class:`~haiproto.core.Span` (line, column,
length) is built from a table of line starts only where one is stored or
reported: declaration spans, rule findings and diagnostics.

``//`` starts a comment running to end of line.  Comments are preserved:
full-line comments attach to the following declaration, and so do comments
inside a declaration; a same-line comment after the closing ``;`` attaches
to that declaration, and comments after the last declaration attach to the
file.

:func:`parse` never raises on bad input; it reports diagnostics and recovers
at the next ``;``.  Besides syntax, it applies the checker's declaration
rules (:mod:`haiproto.check`) to each declaration it builds.
:func:`print_source` emits the canonical form, and
``parse(print_source(parse(text)))`` reproduces the same declarations.
"""

from __future__ import annotations

import re
from bisect import bisect_right
from dataclasses import dataclass, field
from sys import intern
from typing import Callable, TypeVar

from .check import arity_rule, name_rule, pattern_rule, placed, variable_rule
from .core import (
    ActionDef,
    Arg,
    BaseType,
    Diagnostic,
    GroupType,
    ListType,
    Message,
    Modifier,
    OpKind,
    Operation,
    Pattern,
    PrimitiveKind,
    PrimitiveSpec,
    Role,
    Span,
    TypeExpr,
)

# ---------------------------------------------------------------------------
# Lexer
# ---------------------------------------------------------------------------

_PUNCT = {
    "(": "LPAREN",
    ")": "RPAREN",
    "[": "LBRACKET",
    "]": "RBRACKET",
    ",": "COMMA",
    ";": "SEMI",
    ".": "DOT",
    ":": "COLON",
    "|": "PIPE",
    "@": "AT",
    "=": "EQ",
}

_PAIRS = {":=": "ASSIGN", "->": "ARROW", "<-": "LARROW"}

# One match per token: the whitespace before it, then the token, named by its
# kind.  A hyphen continues an identifier only when a word character follows,
# so "user -> model" still lexes an arrow.  ``\w`` is exactly ``isalnum`` or
# ``_``, but ``[^\W\d_]`` also admits non-letters such as ``²``, so a name
# with a non-ASCII start (WORD) must pass ``str.isalpha``.  In a string, a
# backslash before ``"`` or ``\`` always escapes it, so no match backtracks
# into another reading.  BAD is any other character, the ``"`` of an
# unterminated string among them.
_TOKEN = re.compile(
    r"[ \t\r\n]*(?:(?P<ID>[A-Za-z]\w*(?:-\w+)*)"
    + "".join(f"|(?P<{kind}>{re.escape(s)})" for s, kind in {**_PAIRS, **_PUNCT}.items())
    + r'|(?P<STRING>"(?:[^"\\\n]|\\["\\]|\\(?!["\\]))*")|(?P<COMMENT>//[^\n]*)'
    r"|(?P<WORD>[^\W\d_]\w*(?:-\w+)*)|(?P<EOF>\Z)|(?P<BAD>.))"
)
_PLAIN = frozenset(["ID", *_PAIRS.values(), *_PUNCT.values()])  # value = source
_ESCAPE = re.compile(r'\\(["\\])')

#: ``(kind, value, start, end)``: kind is ID, STRING, EOF or a _PAIRS or
#: _PUNCT name, and ``text[start:end]`` is the token's source.
Token = tuple[str, str, int, int]
#: ``(start, end, text)``: the comment's text is without ``//`` and outer spaces.
Comment = tuple[int, int, str]


class LexError(Exception):
    def __init__(self, message: str, span: Span) -> None:
        super().__init__(message)
        self.message = message
        self.span = span


def _line_starts(text: str) -> list[int]:
    return [0, *(m.end() for m in re.finditer("\n", text))]


def _span(line_starts: list[int], start: int, end: int) -> Span:
    """The ``Span`` of ``text[start:end]``, given ``_line_starts(text)``."""
    line = bisect_right(line_starts, start)
    return Span(line, start - line_starts[line - 1] + 1, end - start)


def tokenize(text: str) -> tuple[list[Token], list[Comment]]:
    """Split ``text`` into tokens and comments, one regex match each.

    A token is a plain :data:`Token` tuple of source offsets, and the list
    ends with an ``EOF`` token at ``len(text)``.  No ``Span`` is built here:
    the parser makes one from the offsets (:func:`_span`) only for what it
    stores or reports.  Comments are returned separately, as :data:`Comment`
    tuples.  Raises :class:`LexError` on characters outside the language.
    """
    tokens: list[Token] = []
    comments: list[Comment] = []
    append = tokens.append
    for m in _TOKEN.finditer(text):
        kind = m.lastgroup
        start, end = m.span(kind)
        if kind in _PLAIN:
            append((kind, text[start:end], start, end))
        elif kind == "STRING":
            append((kind, _ESCAPE.sub(r"\1", text[start + 1 : end - 1]), start, end))
        elif kind == "COMMENT":
            comments.append((start, end, text[start + 2 : end].strip()))
        elif kind == "WORD" and text[start].isalpha():
            append(("ID", intern(text[start:end]), start, end))  # a name kept once
        elif kind == "EOF":
            append((kind, "", start, end))
            break
        elif text[start] == '"':  # closes no string on its line
            end = text.find("\n", start)
            end = len(text) if end < 0 else end
            raise LexError("unterminated string", _span(_line_starts(text), start, end))
        else:
            message = f"unexpected character {text[start]!r}"
            raise LexError(message, _span(_line_starts(text), start, start + 1))
    return tokens, comments


# ---------------------------------------------------------------------------
# Syntax tree
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Decl:
    """One declaration: ``node`` is the role name, or the action, message or
    pattern declared."""

    node: str | ActionDef | Message | Pattern
    leading_comments: tuple[str, ...] = ()
    trailing_comment: str | None = None
    span: Span = field(default=Span(0, 0, 0), compare=False)

    @property
    def name(self) -> str:
        return self.node if isinstance(self.node, str) else self.node.name


@dataclass(frozen=True)
class SourceFile:
    decls: tuple[Decl, ...]
    trailing_comments: tuple[str, ...] = ()
    path: str = field(default="<input>", compare=False)


@dataclass(frozen=True)
class ParseResult:
    """Outcome of :func:`parse`: a file (or ``None`` on error) + diagnostics."""

    file: SourceFile | None
    diagnostics: tuple[Diagnostic, ...]


T = TypeVar("T")


class _ParseAbort(Exception):
    """Internal: unwinds to the recovery point after a syntax error."""


class _Parser:
    def __init__(self, text: str, tokens: list[Token], comments: list[Comment], path: str):
        self.text = text
        self.tokens = tokens
        self.comments = comments
        self.path = path
        self.pos = 0
        self.comment_pos = 0
        self.diagnostics: list[Diagnostic] = []
        self.line_starts = _line_starts(text)

    # -- token helpers ------------------------------------------------------

    def span(self, tok: Token) -> Span:
        return _span(self.line_starts, tok[2], tok[3])

    def peek(self) -> Token:
        return self.tokens[self.pos]

    def advance(self) -> Token:
        tok = self.tokens[self.pos]
        if tok[0] != "EOF":
            self.pos += 1
        return tok

    def error(self, message: str, span: Span, code: str = "E-SYNTAX") -> None:
        self.diagnostics.append(Diagnostic("error", code, message, self.path, span))

    def fail(self, message: str, tok: Token) -> None:
        self.error(message, self.span(tok))
        raise _ParseAbort()

    def report(self, found: list[Diagnostic | None], tok: Token) -> None:
        """Keep a rule's findings, placed at ``tok`` (a span is built only
        when there are any)."""
        if any(found):
            self.diagnostics.extend(placed(filter(None, found), self.path, self.span(tok)))

    # ``expect`` and ``match`` are the parser's hottest calls, so they index
    # the tokens directly; no caller asks for EOF, so neither moves past it.
    def expect(self, kind: str, what: str) -> Token:
        tok = self.tokens[self.pos]
        if tok[0] != kind:
            got = tok[1] if tok[0] != "EOF" else "end of file"
            self.fail(f"expected {what}, got {got!r}", tok)
        self.pos += 1
        return tok

    def expect_var(self, what: str) -> Token:
        tok = self.expect("ID", what)
        if not tok[1][0].isupper():
            self.fail(
                f"variable names start with an uppercase letter, got {tok[1]!r}", tok
            )
        return tok

    def match(self, kind: str) -> Token | None:
        tok = self.tokens[self.pos]
        if tok[0] != kind:
            return None
        self.pos += 1
        return tok

    def separated(self, item: Callable[[], T], separator: str = "COMMA") -> list[T]:
        """Parse ``item``, then parse it again after each ``separator``."""
        items = [item()]
        while self.match(separator):
            items.append(item())
        return items

    # -- comments -----------------------------------------------------------

    def take_comments(self, before: int) -> tuple[str, ...]:
        """Consume comments that start before source offset ``before``."""
        out: list[str] = []
        while self.comment_pos < len(self.comments):
            start, _, text = self.comments[self.comment_pos]
            if start > before:
                break
            out.append(text)
            self.comment_pos += 1
        return tuple(out)

    def take_trailing_comment(self, semi: Token) -> str | None:
        """Consume a comment sitting on the same line as the closing ``;``."""
        if self.comment_pos < len(self.comments):
            start, _, text = self.comments[self.comment_pos]
            if start > semi[2] and self.text.find("\n", semi[3], start) < 0:
                self.comment_pos += 1
                return text
        return None

    # -- grammar ------------------------------------------------------------

    def parse_file(self) -> tuple[SourceFile | None, list[Diagnostic]]:
        decls: list[Decl] = []
        names: set[str] = set()
        while True:
            if self.peek()[0] == "EOF":
                trailing_file = self.take_comments(self.peek()[2])
                break
            try:
                decl = self.parse_decl()
            except _ParseAbort:  # fail() has reported it
                self.recover()
                continue
            if not isinstance(decl.node, str):  # roles are their own namespace
                if decl.name in names:
                    found = [name_rule(decl.name, self.path)]
                    self.diagnostics.extend(placed(found, self.path, decl.span))
                names.add(decl.name)
            decls.append(decl)
        if any(d.severity == "error" for d in self.diagnostics):
            return None, self.diagnostics
        return SourceFile(tuple(decls), trailing_file, self.path), self.diagnostics

    def recover(self) -> None:
        """Skip tokens until just past the next ``;`` (or EOF)."""
        while True:
            if self.advance()[0] in ("SEMI", "EOF"):
                return

    def parse_decl(self) -> Decl:
        """A keyword, the declaration's body, and the closing ``;``.  Comments
        before the ``;``, ahead of the keyword or inside the body, lead it."""
        keyword = self.peek()
        if keyword[0] != "ID" or keyword[1] not in _DECLS:
            self.fail(
                "expected 'role', 'action', 'message' or 'pattern', "
                f"got {keyword[1]!r}",
                keyword,
            )
        node = _DECLS[self.advance()[1]](self)
        semi = self.expect("SEMI", "';'")
        leading = self.take_comments(semi[2])
        return Decl(node, leading, self.take_trailing_comment(semi), self.span(keyword))

    # role NAME
    def parse_role(self) -> str:
        return self.expect("ID", "role name")[1]

    # action NAME(P, Q) := provide(...) <- op(...), op(...)
    def parse_action(self) -> ActionDef:
        name = self.expect("ID", "action name")
        self.expect("LPAREN", "'('")
        params: list[Token] = []
        if self.peek()[0] != "RPAREN":
            params = self.separated(lambda: self.expect_var("parameter name"))
        self.expect("RPAREN", "')'")
        self.expect("ASSIGN", "':='")
        kind_tok = self.expect("ID", "'provide' or 'request'")
        try:
            kind = PrimitiveKind(kind_tok[1])
        except ValueError:
            self.fail(f"expected 'provide' or 'request', got {kind_tok[1]!r}", kind_tok)
        self.expect("LPAREN", "'('")
        args = self.separated(self.parse_arg)
        self.expect("RPAREN", "')'")
        operations: list[tuple[Token, Operation]] = []
        if self.match("LARROW"):
            operations = self.separated(lambda: (self.peek(), self.parse_operation()))
        action = ActionDef(
            name=name[1],
            params=tuple(p[1] for p in params),
            primitive=PrimitiveSpec(kind, args[0], tuple(args[1:])),
            operations=tuple(op for _, op in operations),
        )
        self.report(variable_rule(action), name)
        for tok, op in operations:
            self.report([arity_rule(op, action)], tok)
        return action

    def parse_arg(self) -> Arg:
        if self.peek()[0] == "LBRACKET" and self._bracket_is_group():
            return Arg(None, self.parse_group())
        return Arg(*self.parse_typed_var())

    def _bracket_is_group(self) -> bool:
        """Disambiguate a group ``[X: t, ...]`` from a list type ``[base]``.

        At an argument position a ``[`` always opens a group (list-typed
        arguments are written ``V: [base]``), so this only confirms shape.
        """
        last = len(self.tokens) - 1  # EOF, which ends every token list
        nxt = self.tokens[min(self.pos + 1, last)]
        after = self.tokens[min(self.pos + 2, last)]
        return nxt[0] == "ID" and after[0] == "COLON"

    def parse_group(self) -> GroupType:
        open_tok = self.expect("LBRACKET", "'['")
        members = self.separated(self.parse_typed_var)
        self.expect("RBRACKET", "']'")
        if len(members) < 2:
            self.fail("a group needs at least two members", open_tok)
        return GroupType(tuple(members))

    def parse_typed_var(self) -> tuple[str, BaseType | ListType]:
        var = self.expect_var("variable name")
        self.expect("COLON", "':'")
        return var[1], self.parse_nongroup_type()

    def parse_nongroup_type(self) -> BaseType | ListType:
        if self.match("LBRACKET"):
            element = self.parse_base_type()
            self.expect("RBRACKET", "']'")
            return ListType(element)
        return self.parse_base_type()

    def parse_base_type(self) -> BaseType:
        role_tok = self.expect("ID", "a role ('input', 'output' or 'feedback')")
        try:
            role = Role(role_tok[1])
        except ValueError:
            self.fail(
                f"expected 'input', 'output' or 'feedback', got {role_tok[1]!r}", role_tok
            )
        subtypes: list[Token] = []
        if self.match("DOT"):
            subtypes = self.separated(lambda: self.expect("ID", "subtype name"), "PIPE")
        names = [sub[1] for sub in subtypes]
        for index, sub in enumerate(subtypes):
            if sub[1] in names[:index]:
                self.fail(f"duplicate subtype {sub[1]!r}", sub)
        return BaseType(role, tuple(names))

    def parse_operation(self) -> Operation:
        op_tok = self.expect("ID", "operation name")
        try:
            kind = OpKind(op_tok[1])
        except ValueError:
            self.fail(
                f"expected 'select', 'map', 'modify' or 'create', got {op_tok[1]!r}",
                op_tok,
            )
        self.expect("LPAREN", "'('")
        args = self.separated(lambda: self.expect("ID", "variable name"))
        self.expect("RPAREN", "')'")
        return Operation(kind, tuple(arg[1] for arg in args))

    # message NAME := sender -> receiver : action(A, B) [mods]
    def parse_message(self) -> Message:
        name = self.expect("ID", "message name")
        self.expect("ASSIGN", "':='")
        sender = self.expect("ID", "sender role")
        self.expect("ARROW", "'->'")
        receiver = self.expect("ID", "receiver role")
        self.expect("COLON", "':'")
        action = self.expect("ID", "action name")
        self.expect("LPAREN", "'('")
        args: list[Token] = []
        if self.peek()[0] != "RPAREN":
            args = self.separated(lambda: self.expect_var("argument variable"))
        self.expect("RPAREN", "')'")
        modifiers: list[Modifier] = []
        if self.match("LBRACKET"):
            modifiers = self.separated(self.parse_modifier, "SEMI")
            self.expect("RBRACKET", "']'")
        return Message(
            name=name[1],
            sender=sender[1],
            receiver=receiver[1],
            action=action[1],
            args=tuple(arg[1] for arg in args),
            modifiers=tuple(modifiers),
        )

    def parse_modifier(self) -> Modifier:
        key = self.expect("ID", "modifier key")
        if self.match("COLON"):
            value = self.expect("ID", "modifier value")
            return Modifier(key[1], value[1], "var")
        self.expect("EQ", "':' or '='")
        value = self.expect("STRING", "a string value")
        return Modifier(key[1], value[1], "kv")

    # pattern NAME := [M1, M2] @ tag1, tag2
    def parse_pattern(self) -> Pattern:
        name = self.expect("ID", "pattern name")
        self.expect("ASSIGN", "':='")
        self.expect("LBRACKET", "'['")
        messages: list[Token] = []
        if self.peek()[0] != "RBRACKET":
            messages = self.separated(lambda: self.expect("ID", "message name"))
        self.expect("RBRACKET", "']'")
        tags: list[Token] = []
        if self.match("AT"):
            tags = self.separated(lambda: self.expect("ID", "tag name"))
        pattern = Pattern(
            name[1],
            tuple(m[1] for m in messages),
            frozenset(t[1] for t in tags),
        )
        self.report(pattern_rule(pattern), name)
        return pattern


#: Declaration keyword -> the parser method for its body.
_DECLS = {
    "role": _Parser.parse_role,
    "action": _Parser.parse_action,
    "message": _Parser.parse_message,
    "pattern": _Parser.parse_pattern,
}


def parse(text: str, path: str = "<input>") -> ParseResult:
    """Parse ``.hai`` source; on errors, ``file`` is ``None``.

    Recovery is per-declaration: a syntax error skips to the next ``;`` and
    parsing continues, so one bad declaration yields one diagnostic without
    hiding later ones.
    """
    try:
        tokens, comments = tokenize(text)
    except LexError as exc:
        diag = Diagnostic("error", "E-LEX", exc.message, path, exc.span)
        return ParseResult(None, (diag,))
    parser = _Parser(text, tokens, comments, path)
    source, diagnostics = parser.parse_file()
    return ParseResult(source, tuple(diagnostics))


def parse_type(text: str) -> TypeExpr:
    """Parse a standalone type expression (base, list, or named group).

    Used when reading types back from traces and exports.  Raises
    ``ValueError`` on malformed input.
    """
    try:
        parser = _Parser(text, tokenize(text)[0], [], "<type>")
        if parser.peek()[0] == "LBRACKET" and parser._bracket_is_group():
            typ: TypeExpr = parser.parse_group()
        else:
            typ = parser.parse_nongroup_type()
    except (LexError, _ParseAbort):
        raise ValueError(f"malformed type expression {text!r}") from None
    if parser.peek()[0] != "EOF":
        raise ValueError(f"trailing input in type expression {text!r}")
    return typ


# ---------------------------------------------------------------------------
# Canonical printer
# ---------------------------------------------------------------------------


def print_type(typ: TypeExpr) -> str:
    return str(typ)


def _print_arg(arg: Arg) -> str:
    if arg.var is None:
        return str(arg.type)
    return f"{arg.var}: {arg.type}"


def print_action(action: ActionDef) -> str:
    params = ", ".join(action.params)
    prim = action.primitive
    args = ", ".join(_print_arg(a) for a in prim.args())
    text = f"action {action.name}({params}) := {prim.kind.value}({args})"
    if action.operations:
        ops = ", ".join(
            f"{op.kind.value}({', '.join(op.args)})" for op in action.operations
        )
        text += f" <- {ops}"
    return text + ";"


def _print_modifier(mod: Modifier) -> str:
    if mod.style == "var":
        return f"{mod.key}: {mod.value}"
    escaped = mod.value.replace("\\", "\\\\").replace('"', '\\"')
    return f'{mod.key}="{escaped}"'


def print_message(message: Message) -> str:
    args = ", ".join(message.args)
    text = (
        f"message {message.name} := {message.sender} -> {message.receiver} : "
        f"{message.action}({args})"
    )
    if message.modifiers:
        mods = "; ".join(_print_modifier(m) for m in message.modifiers)
        text += f" [{mods}]"
    return text + ";"


def print_pattern(pattern: Pattern) -> str:
    messages = ", ".join(pattern.messages)
    text = f"pattern {pattern.name} := [{messages}]"
    if pattern.tags:
        text += f" @ {', '.join(sorted(pattern.tags))}"
    return text + ";"


def print_decl(decl: Decl) -> str:
    node = decl.node
    if isinstance(node, str):
        body = f"role {node};"
    elif isinstance(node, ActionDef):
        body = print_action(node)
    elif isinstance(node, Message):
        body = print_message(node)
    else:
        body = print_pattern(node)
    lines = [f"// {c}" if c else "//" for c in decl.leading_comments]
    if decl.trailing_comment is not None:
        body += f"  // {decl.trailing_comment}" if decl.trailing_comment else "  //"
    lines.append(body)
    return "\n".join(lines)


def print_source(source: SourceFile) -> str:
    """Emit the canonical text of a parsed file (ends with a newline)."""
    blocks = [print_decl(d) for d in source.decls]
    blocks.extend(f"// {c}" if c else "//" for c in source.trailing_comments)
    return "\n".join(blocks) + "\n" if blocks else ""
