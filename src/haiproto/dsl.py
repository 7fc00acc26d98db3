"""Parser and canonical printer for the ``.hai`` protocol language.

A ``.hai`` file is a sequence of declarations, each ended by ``;``::

    role supervisor;
    action annotate-sample(X, Y) :=
        provide(Y: output.label, X: input.raw_data|fvector) <- map(X, Y);
    message A6 := user -> model : annotate-sample(X, Y) [X: WalkStand];
    pattern sample-annotation := [A5, A6] @ hitl;

``//`` starts a comment running to end of line.  Comments are preserved:
full-line comments attach to the following declaration, a same-line comment
after the closing ``;`` attaches to that declaration, and comments after the
last declaration attach to the file.

:func:`parse` never raises on bad input; it reports diagnostics and recovers
at the next ``;``.  Besides syntax, it applies the checker's declaration
rules (:mod:`haiproto.check`) to each declaration it builds.
:func:`print_source` emits the canonical form, and
``parse(print_source(parse(text)))`` reproduces the same declarations.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, TypeVar, Union

from .check import arity_rule, pattern_rule, variable_rule
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


@dataclass(frozen=True)
class Token:
    kind: str  # ID, STRING, EOF, or a _PAIRS or _PUNCT name
    value: str
    span: Span


class LexError(Exception):
    def __init__(self, message: str, span: Span) -> None:
        super().__init__(message)
        self.message = message
        self.span = span


def tokenize(text: str) -> tuple[list[Token], list[tuple[Span, str]]]:
    """Split ``text`` into tokens and comments.

    Comments are returned separately as ``(span, text)`` pairs with the
    leading ``//`` and surrounding whitespace stripped.  Raises
    :class:`LexError` on characters outside the language.
    """
    tokens: list[Token] = []
    comments: list[tuple[Span, str]] = []
    line, col = 1, 1
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch == "\n":
            i += 1
            line += 1
            col = 1
            continue
        if ch in " \t\r":
            i += 1
            col += 1
            continue
        if ch == "/" and text[i : i + 2] == "//":
            start = i
            while i < n and text[i] != "\n":
                i += 1
            body = text[start + 2 : i].strip()
            comments.append((Span(line, col, i - start), body))
            col += i - start
            continue
        pair = text[i : i + 2]
        if pair in _PAIRS:
            tokens.append(Token(_PAIRS[pair], pair, Span(line, col, 2)))
            i += 2
            col += 2
            continue
        if ch in _PUNCT:
            tokens.append(Token(_PUNCT[ch], ch, Span(line, col, 1)))
            i += 1
            col += 1
            continue
        if ch == '"':
            j = i + 1
            out: list[str] = []
            while j < n and text[j] != '"':
                if text[j] == "\n":
                    raise LexError("unterminated string", Span(line, col, j - i))
                if text[j] == "\\" and j + 1 < n and text[j + 1] in ('"', "\\"):
                    out.append(text[j + 1])
                    j += 2
                    continue
                out.append(text[j])
                j += 1
            if j >= n:
                raise LexError("unterminated string", Span(line, col, j - i))
            length = j + 1 - i
            tokens.append(Token("STRING", "".join(out), Span(line, col, length)))
            i = j + 1
            col += length
            continue
        if ch.isalpha():
            j = i + 1
            while j < n:
                if text[j].isalnum() or text[j] == "_":
                    j += 1
                elif text[j] == "-" and j + 1 < n and (
                    text[j + 1].isalnum() or text[j + 1] == "_"
                ):
                    # Hyphen continues an identifier only when followed by a
                    # word character, so "user -> model" still lexes an arrow.
                    j += 2
                else:
                    break
            value = text[i:j]
            tokens.append(Token("ID", value, Span(line, col, j - i)))
            col += j - i
            i = j
            continue
        raise LexError(f"unexpected character {ch!r}", Span(line, col, 1))
    tokens.append(Token("EOF", "", Span(line, col, 0)))
    return tokens, comments


# ---------------------------------------------------------------------------
# Syntax tree
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RoleDecl:
    name: str
    leading_comments: tuple[str, ...] = ()
    trailing_comment: str | None = None
    span: Span = field(default=Span(0, 0, 0), compare=False)


@dataclass(frozen=True)
class ActionDecl:
    action: ActionDef
    leading_comments: tuple[str, ...] = ()
    trailing_comment: str | None = None
    span: Span = field(default=Span(0, 0, 0), compare=False)


@dataclass(frozen=True)
class MessageDecl:
    message: Message
    leading_comments: tuple[str, ...] = ()
    trailing_comment: str | None = None
    span: Span = field(default=Span(0, 0, 0), compare=False)


@dataclass(frozen=True)
class PatternDecl:
    pattern: Pattern
    leading_comments: tuple[str, ...] = ()
    trailing_comment: str | None = None
    span: Span = field(default=Span(0, 0, 0), compare=False)


Decl = Union[RoleDecl, ActionDecl, MessageDecl, PatternDecl]


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

    @property
    def ok(self) -> bool:
        return self.file is not None


T = TypeVar("T")


class _ParseAbort(Exception):
    """Internal: unwinds to the recovery point after a syntax error."""


class _Parser:
    def __init__(self, tokens: list[Token], comments: list[tuple[Span, str]], path: str):
        self.tokens = tokens
        self.comments = comments
        self.path = path
        self.pos = 0
        self.comment_pos = 0
        self.diagnostics: list[Diagnostic] = []

    # -- token helpers ------------------------------------------------------

    def peek(self) -> Token:
        return self.tokens[self.pos]

    def advance(self) -> Token:
        tok = self.tokens[self.pos]
        if tok.kind != "EOF":
            self.pos += 1
        return tok

    def error(self, message: str, span: Span, code: str = "E-SYNTAX") -> None:
        self.diagnostics.append(Diagnostic("error", code, message, self.path, span))

    def fail(self, message: str, span: Span, code: str = "E-SYNTAX") -> None:
        self.error(message, span, code)
        raise _ParseAbort()

    # ``expect`` and ``match`` are the parser's hottest calls, so they index
    # the tokens directly; no caller asks for EOF, so neither moves past it.
    def expect(self, kind: str, what: str) -> Token:
        tok = self.tokens[self.pos]
        if tok.kind != kind:
            got = tok.value if tok.kind != "EOF" else "end of file"
            self.fail(f"expected {what}, got {got!r}", tok.span)
        self.pos += 1
        return tok

    def expect_var(self, what: str) -> Token:
        tok = self.expect("ID", what)
        if not tok.value[0].isupper():
            self.fail(
                f"variable names start with an uppercase letter, got {tok.value!r}",
                tok.span,
            )
        return tok

    def match(self, kind: str) -> Token | None:
        tok = self.tokens[self.pos]
        if tok.kind != kind:
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

    def take_leading_comments(self) -> tuple[str, ...]:
        """Consume comments that occur before the next token."""
        next_tok = self.peek()
        out: list[str] = []
        while self.comment_pos < len(self.comments):
            span, text = self.comments[self.comment_pos]
            before = next_tok.kind == "EOF" or (span.line, span.col) < (
                next_tok.span.line,
                next_tok.span.col,
            )
            if not before:
                break
            out.append(text)
            self.comment_pos += 1
        return tuple(out)

    def take_trailing_comment(self, semi: Token) -> str | None:
        """Consume a comment sitting on the same line as the closing ``;``."""
        if self.comment_pos < len(self.comments):
            span, text = self.comments[self.comment_pos]
            if span.line == semi.span.line and span.col > semi.span.col:
                self.comment_pos += 1
                return text
        return None

    # -- grammar ------------------------------------------------------------

    def parse_file(self) -> tuple[SourceFile | None, list[Diagnostic]]:
        decls: list[Decl] = []
        names: set[str] = set()
        had_error = False
        while True:
            leading = self.take_leading_comments()
            if self.peek().kind == "EOF":
                trailing_file = leading
                break
            try:
                decl = self.parse_decl(leading)
            except _ParseAbort:
                had_error = True
                self.recover()
                continue
            name = decl_name(decl)
            if name in names:
                self.error(
                    f"duplicate declaration name {name!r}",
                    decl.span,
                    "E-DUP-NAME",
                )
                had_error = True
                continue
            names.add(name)
            decls.append(decl)
        if had_error or any(d.severity == "error" for d in self.diagnostics):
            return None, self.diagnostics
        return SourceFile(tuple(decls), trailing_file, self.path), self.diagnostics

    def recover(self) -> None:
        """Skip tokens until just past the next ``;`` (or EOF)."""
        while True:
            tok = self.advance()
            if tok.kind in ("SEMI", "EOF"):
                return

    def parse_decl(self, leading: tuple[str, ...]) -> Decl:
        """A keyword, the declaration's body, and the closing ``;``."""
        keyword = self.peek()
        if keyword.kind != "ID" or keyword.value not in _DECLS:
            self.fail(
                "expected 'role', 'action', 'message' or 'pattern', "
                f"got {keyword.value!r}",
                keyword.span,
            )
        parse_body, decl = _DECLS[self.advance().value]
        body = parse_body(self)
        semi = self.expect("SEMI", "';'")
        return decl(body, leading, self.take_trailing_comment(semi), keyword.span)

    # role NAME
    def parse_role(self) -> str:
        return self.expect("ID", "role name").value

    # action NAME(P, Q) := provide(...) <- op(...), op(...)
    def parse_action(self) -> ActionDef:
        name = self.expect("ID", "action name")
        self.expect("LPAREN", "'('")
        params: list[Token] = []
        if self.peek().kind != "RPAREN":
            params = self.separated(lambda: self.expect_var("parameter name"))
        self.expect("RPAREN", "')'")
        self.expect("ASSIGN", "':='")
        kind_tok = self.expect("ID", "'provide' or 'request'")
        try:
            kind = PrimitiveKind(kind_tok.value)
        except ValueError:
            self.fail(
                f"expected 'provide' or 'request', got {kind_tok.value!r}",
                kind_tok.span,
            )
        self.expect("LPAREN", "'('")
        args = self.separated(self.parse_arg)
        self.expect("RPAREN", "')'")
        operations: list[tuple[Token, Operation]] = []
        if self.match("LARROW"):
            operations = self.separated(lambda: (self.peek(), self.parse_operation()))
        action = ActionDef(
            name=name.value,
            params=tuple(p.value for p in params),
            primitive=PrimitiveSpec(kind, args[0], tuple(args[1:])),
            operations=tuple(op for _, op in operations),
        )
        self.diagnostics.extend(variable_rule(action, self.path, name.span))
        for tok, op in operations:
            arity = arity_rule(op, action, self.path, tok.span)
            if arity is not None:
                self.diagnostics.append(arity)
        return action

    def parse_arg(self) -> Arg:
        if self.peek().kind == "LBRACKET" and self._bracket_is_group():
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
        return nxt.kind == "ID" and after.kind == "COLON"

    def parse_group(self) -> GroupType:
        open_tok = self.expect("LBRACKET", "'['")
        members = self.separated(self.parse_typed_var)
        self.expect("RBRACKET", "']'")
        if len(members) < 2:
            self.fail("a group needs at least two members", open_tok.span)
        return GroupType(tuple(members))

    def parse_typed_var(self) -> tuple[str, BaseType | ListType]:
        var = self.expect_var("variable name")
        self.expect("COLON", "':'")
        return var.value, self.parse_nongroup_type()

    def parse_nongroup_type(self) -> BaseType | ListType:
        if self.match("LBRACKET"):
            element = self.parse_base_type()
            self.expect("RBRACKET", "']'")
            return ListType(element)
        return self.parse_base_type()

    def parse_base_type(self) -> BaseType:
        role_tok = self.expect("ID", "a role ('input', 'output' or 'feedback')")
        try:
            role = Role(role_tok.value)
        except ValueError:
            self.fail(
                f"expected 'input', 'output' or 'feedback', got {role_tok.value!r}",
                role_tok.span,
            )
        subtypes: list[Token] = []
        if self.match("DOT"):
            subtypes = self.separated(lambda: self.expect("ID", "subtype name"), "PIPE")
        names = [sub.value for sub in subtypes]
        for index, sub in enumerate(subtypes):
            if sub.value in names[:index]:
                self.fail(f"duplicate subtype {sub.value!r}", sub.span)
        return BaseType(role, tuple(names))

    def parse_operation(self) -> Operation:
        op_tok = self.expect("ID", "operation name")
        try:
            kind = OpKind(op_tok.value)
        except ValueError:
            self.fail(
                f"expected 'select', 'map', 'modify' or 'create', got {op_tok.value!r}",
                op_tok.span,
            )
        self.expect("LPAREN", "'('")
        args = self.separated(lambda: self.expect("ID", "variable name"))
        self.expect("RPAREN", "')'")
        return Operation(kind, tuple(arg.value for arg in args))

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
        if self.peek().kind != "RPAREN":
            args = self.separated(lambda: self.expect_var("argument variable"))
        self.expect("RPAREN", "')'")
        modifiers: list[Modifier] = []
        if self.match("LBRACKET"):
            modifiers = self.separated(self.parse_modifier, "SEMI")
            self.expect("RBRACKET", "']'")
        return Message(
            name=name.value,
            sender=sender.value,
            receiver=receiver.value,
            action=action.value,
            args=tuple(arg.value for arg in args),
            modifiers=tuple(modifiers),
        )

    def parse_modifier(self) -> Modifier:
        key = self.expect("ID", "modifier key")
        if self.match("COLON"):
            value = self.expect("ID", "modifier value")
            return Modifier(key.value, value.value, "var")
        self.expect("EQ", "':' or '='")
        value = self.expect("STRING", "a string value")
        return Modifier(key.value, value.value, "kv")

    # pattern NAME := [M1, M2] @ tag1, tag2
    def parse_pattern(self) -> Pattern:
        name = self.expect("ID", "pattern name")
        self.expect("ASSIGN", "':='")
        self.expect("LBRACKET", "'['")
        messages: list[Token] = []
        if self.peek().kind != "RBRACKET":
            messages = self.separated(lambda: self.expect("ID", "message name"))
        self.expect("RBRACKET", "']'")
        tags: list[Token] = []
        if self.match("AT"):
            tags = self.separated(lambda: self.expect("ID", "tag name"))
        pattern = Pattern(
            name.value,
            tuple(m.value for m in messages),
            frozenset(t.value for t in tags),
        )
        self.diagnostics.extend(pattern_rule(pattern, self.path, name.span))
        return pattern


#: Declaration keyword -> (the parser method for its body, its syntax node).
_DECLS = {
    "role": (_Parser.parse_role, RoleDecl),
    "action": (_Parser.parse_action, ActionDecl),
    "message": (_Parser.parse_message, MessageDecl),
    "pattern": (_Parser.parse_pattern, PatternDecl),
}


def decl_name(decl: Decl) -> str:
    if isinstance(decl, RoleDecl):
        return decl.name
    if isinstance(decl, ActionDecl):
        return decl.action.name
    if isinstance(decl, MessageDecl):
        return decl.message.name
    return decl.pattern.name


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
    parser = _Parser(tokens, comments, path)
    source, diagnostics = parser.parse_file()
    return ParseResult(source, tuple(diagnostics))


def parse_type(text: str) -> TypeExpr:
    """Parse a standalone type expression (base, list, or named group).

    Used when reading types back from traces and exports.  Raises
    ``ValueError`` on malformed input.
    """
    try:
        parser = _Parser(tokenize(text)[0], [], "<type>")
        if parser.peek().kind == "LBRACKET" and parser._bracket_is_group():
            typ: TypeExpr = parser.parse_group()
        else:
            typ = parser.parse_nongroup_type()
    except (LexError, _ParseAbort):
        raise ValueError(f"malformed type expression {text!r}") from None
    if parser.peek().kind != "EOF":
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
    if isinstance(decl, RoleDecl):
        body = f"role {decl.name};"
    elif isinstance(decl, ActionDecl):
        body = print_action(decl.action)
    elif isinstance(decl, MessageDecl):
        body = print_message(decl.message)
    else:
        body = print_pattern(decl.pattern)
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
