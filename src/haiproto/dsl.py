"""Parser and canonical printer for the ``.hai`` protocol language.

A ``.hai`` file is a sequence of declarations, each ended by ``;``::

    role supervisor;
    action annotate-sample(X, Y) :=
        provide(Y: output.label, X: input.raw_data|fvector) <- map(X, Y);
    message A6 := user -> model : annotate-sample(X, Y) [X: WalkStand];
    pattern sample-annotation := [A5, A6] @ hitl;

The lexer is one compiled regex, run by ``findall``: tokens are two lists,
each token's source text, which is also its kind, and its end offset.  The
parser walks them by index.  A :class:`~haiproto.core.Span` (line, column,
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
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from itertools import accumulate, compress, repeat
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
    interned,
)

# ---------------------------------------------------------------------------
# Lexer
# ---------------------------------------------------------------------------

# A name, in which a hyphen continues only before a word character, so
# "user -> model" has an arrow.  ``\w`` is exactly ``isalnum`` or ``_``, but
# ``[^\W\d_]`` also admits non-letters such as ``²``, so a name with a
# non-ASCII start must pass ``str.isalpha``.
_NAME = re.compile(r"[^\W\d_]\w*(?:-\w+)*")
# A string on one line, in which a backslash before ``"`` or ``\`` always
# escapes it, so no match backtracks.
_STRING = re.compile(r'"(?:[^"\\\n]|\\["\\]|\\(?!["\\]))*"')
# A token: a punctuation mark or a pair, first as the commonest; a name; a string; a comment.
_ONE = re.compile(rf"[()\[\],;.|@=]|:=?|->|<-|{_NAME.pattern}|{_STRING.pattern}|//[^\n]*")
# One match per token, with the whitespace before it.  At a character that
# starts no token, the ``"`` of an unterminated string among them, the last
# match takes the rest of the text, so the matches tile it.
_TOKEN = re.compile(rf"[ \t\r\n]*(?:{_ONE.pattern}|[^ \t\r\n](?s:.*))")
_SPACE = " \t\r\n"
_ESCAPE = re.compile(r'\\(["\\])')

#: ``(start, end, text)``: the comment's text is without ``//`` and outer spaces.
Comment = tuple[int, int, str]


class LexError(Exception):
    def __init__(self, message: str, span: Span) -> None:
        super().__init__(message)
        self.message = message
        self.span = span


def _line_starts(text: str) -> list[int]:
    return [0, *map(re.Match.end, re.finditer("\n", text))]


def _span(line_starts: list[int], start: int, end: int) -> Span:
    """The ``Span`` of ``text[start:end]``, given ``_line_starts(text)``."""
    line = bisect_right(line_starts, start)
    return Span(line, start - line_starts[line - 1] + 1, end - start)


def _fault(text: str, values: list[str], ends: list[int]) -> None:
    """Raise :class:`LexError` at the first match that is no token: a name
    that starts with a non-letter, or the last match, if it is the rest of
    the text from a character that starts no token.  Return if there is none."""
    for value, end in zip(values, ends):
        if not value[0].isascii() and not value[0].isalpha():
            break
    else:
        value, end = values[-1], ends[-1]
        if end < len(text) or _ONE.fullmatch(value):
            return
    at = end - len(value)
    if value[0] == '"':  # closes no string on its line
        line = value.partition("\n")[0]
        raise LexError("unterminated string", _span(_line_starts(text), at, at + len(line)))
    raise LexError(f"unexpected character {value[0]!r}", _span(_line_starts(text), at, at + 1))


def tokenize(text: str) -> tuple[list[str], list[int], list[Comment]]:
    """Split ``text`` into tokens and comments, with no Python work per token.

    Tokens are two parallel lists: each token's source text (a string keeps
    its quotes and escapes), and the offset where it ends; the last token is
    EOF, ``""`` at ``len(text)``.  A token's kind is its text: a name starts
    with a letter, a string with ``"``, and punctuation is itself.  The parser
    makes a ``Span`` from the offsets (:func:`_span`) only for what it stores
    or reports.  Comments are returned separately, as :data:`Comment` tuples.
    Raises :class:`LexError` on characters outside the language.
    """
    found = _TOKEN.findall(text)
    ends = list(accumulate(map(len, found)))
    values = list(map(str.lstrip, found, repeat(_SPACE)))
    if found and (ends[-1] == len(text) or not text.isascii()):  # where a fault may be
        _fault(text, values, ends)
    notes = []  # the comments' token indices
    at = text.find("//")
    while at >= 0:  # in a comment's token, or in a string's
        i = bisect_right(ends, at)
        if values[i][0] == "/":
            notes.append(i)
        at = text.find("//", ends[i])
    comments = [(ends[i] - len(values[i]), ends[i], values[i][2:].strip()) for i in notes]
    if notes:
        keep = [True] * len(values)
        for i in notes:
            keep[i] = False
        values, ends = list(compress(values, keep)), list(compress(ends, keep))
    values.append("")
    ends.append(len(text))
    return values, ends, comments


def _text(token: str) -> str:
    """A token's value: a string's text between its quotes, unescaped."""
    return _ESCAPE.sub(r"\1", token[1:-1]) if token[:1] == '"' else token


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
    """Walks :func:`tokenize`'s lists by index: ``self.pos`` is the next token."""

    def __init__(self, text: str, tokens: tuple[list[str], list[int], list[Comment]], path: str):
        self.text = text
        self.values, self.ends, self.comments = tokens  # as tokenize() returns them
        self.path = path
        self.pos = 0
        self.comment_pos = 0
        self.diagnostics: list[Diagnostic] = []
        self.line_starts = _line_starts(text)

    # -- token helpers ------------------------------------------------------

    def span(self, i: int) -> Span:
        end = self.ends[i]
        return _span(self.line_starts, end - len(self.values[i]), end)

    def fail(self, message: str, i: int) -> None:
        self.diagnostics.append(Diagnostic("error", "E-SYNTAX", message, self.path, self.span(i)))
        raise _ParseAbort()

    def fail_expected(self, what: str) -> None:
        token = self.values[self.pos]
        got = _text(token) if token else "end of file"
        self.fail(f"expected {what}, got {got!r}", self.pos)

    def report(self, found: list[Diagnostic | None], i: int) -> None:
        """Keep a rule's findings, placed at token ``i`` (a span is built only
        when there are any)."""
        if any(found):
            self.diagnostics.extend(placed(filter(None, found), self.path, self.span(i)))

    # The parser's hottest calls: each reads the next token, and moves past
    # it if it fits.  No caller asks for EOF, so none moves past it.
    def expect(self, symbol: str, what: str) -> None:
        if self.values[self.pos] != symbol:
            self.fail_expected(what)
        self.pos += 1

    def match(self, symbol: str) -> bool:
        if self.values[self.pos] != symbol:
            return False
        self.pos += 1
        return True

    def name(self, what: str) -> str:
        token = self.values[self.pos]
        if not token[:1].isalpha():
            self.fail_expected(what)
        self.pos += 1
        return token

    def names(self, what: str, separator: str | None = ",", upper: bool = False) -> list[str]:
        """One name or more, ``separator`` between each two (one name if it is
        ``None``); with ``upper``, each is a variable: it starts uppercase."""
        values, i = self.values, self.pos
        found = []
        while True:
            token = values[i]
            if not token[:1].isalpha():
                self.pos = i
                self.fail_expected(what)
            if upper and not token[0].isupper():
                self.fail(f"variable names start with an uppercase letter, got {token!r}", i)
            found.append(token)
            if values[i + 1] != separator:
                self.pos = i + 1
                return found
            i += 2

    def one_of(self, members: dict[str, T], what: str) -> T:
        """The member of ``members`` that the next token, a name, names."""
        member = members.get(self.name(what))
        if member is None:
            *first, last = map(repr, members)
            got = self.values[self.pos - 1]
            self.fail(f"expected {', '.join(first)} or {last}, got {got!r}", self.pos - 1)
        return member

    def separated(self, item: Callable[[], T], separator: str = ",") -> list[T]:
        """Parse ``item``, then parse it again after each ``separator``."""
        items = [item()]
        while self.match(separator):
            items.append(item())
        return items

    # -- comments -----------------------------------------------------------

    def take_comments(self, before: int) -> tuple[str, ...]:
        """Consume the comments that start before source offset ``before``."""
        first = self.comment_pos  # in order; (before,) sorts ahead of a comment at before
        self.comment_pos = bisect_left(self.comments, (before,), first)
        if self.comment_pos == first:  # as for most declarations
            return ()
        return tuple(text for _, _, text in self.comments[first : self.comment_pos])

    # -- grammar ------------------------------------------------------------

    def parse_file(self) -> tuple[SourceFile | None, list[Diagnostic]]:
        decls: list[Decl] = []
        names: set[str] = set()
        last = len(self.values) - 1  # EOF
        while self.pos < last:
            try:
                decl = self.parse_decl()
            except _ParseAbort:  # fail() has reported it; skip past the next ';'
                try:
                    self.pos = self.values.index(";", self.pos) + 1
                except ValueError:
                    self.pos = last
                continue
            if not isinstance(decl.node, str):  # roles are their own namespace
                if decl.name in names:
                    found = [name_rule(decl.name, self.path)]
                    self.diagnostics.extend(placed(found, self.path, decl.span))
                names.add(decl.name)
            decls.append(decl)
        if any(d.severity == "error" for d in self.diagnostics):
            return None, self.diagnostics
        trailing = self.take_comments(len(self.text))
        return SourceFile(tuple(decls), trailing, self.path), self.diagnostics

    def parse_decl(self) -> Decl:
        """A keyword, the declaration's body, and the closing ``;``.  Comments
        before the ``;``, ahead of the keyword or inside the body, lead it."""
        keyword = self.pos
        node = self.one_of(_DECLS, "'role', 'action', 'message' or 'pattern'")(self)
        self.expect(";", "';'")
        leading = self.take_comments(self.ends[self.pos - 1])
        newline = self.text.find("\n", self.ends[self.pos - 1])  # a comment before it trails
        trailing = self.take_comments(len(self.text) if newline < 0 else newline)
        return Decl(node, leading, trailing[0] if trailing else None, self.span(keyword))

    # role NAME
    def parse_role(self) -> str:
        return self.name("role name")

    # action NAME(P, Q) := provide(...) <- op(...), op(...)
    def parse_action(self) -> ActionDef:
        at = self.pos
        name = self.name("action name")
        self.expect("(", "'('")
        params: list[str] = []
        if self.values[self.pos] != ")":
            params = self.names("parameter name", upper=True)
        self.expect(")", "')'")
        self.expect(":=", "':='")
        kind = self.one_of(_PRIMITIVES, "'provide' or 'request'")
        self.expect("(", "'('")
        args = self.separated(self.parse_arg)
        self.expect(")", "')'")
        operations: list[tuple[int, Operation]] = []
        if self.match("<-"):
            operations = self.separated(lambda: (self.pos, self.parse_operation()))
        action = ActionDef(
            name=name,
            params=tuple(params),
            primitive=PrimitiveSpec(kind, args[0], tuple(args[1:])),
            operations=tuple(op for _, op in operations),
        )
        self.report(variable_rule(action), at)
        for i, op in operations:
            self.report([arity_rule(op, action)], i)
        return action

    def parse_arg(self) -> Arg:
        if self._bracket_is_group():
            return Arg(None, self.parse_group())
        return Arg(*self.parse_typed_var())

    def _bracket_is_group(self) -> bool:
        """Disambiguate a group ``[X: t, ...]`` from a list type ``[base]``.

        At an argument position a ``[`` always opens a group (list-typed
        arguments are written ``V: [base]``), so this only confirms shape.
        No token after ``[`` or a name is past EOF.
        """
        values, i = self.values, self.pos
        return values[i] == "[" and values[i + 1][:1].isalpha() and values[i + 2] == ":"

    def parse_group(self) -> GroupType:
        at = self.pos
        self.expect("[", "'['")
        members = self.separated(self.parse_typed_var)
        self.expect("]", "']'")
        if len(members) < 2:
            self.fail("a group needs at least two members", at)
        return interned(GroupType, tuple(members))

    def parse_typed_var(self) -> tuple[str, BaseType | ListType]:
        [var] = self.names("variable name", None, upper=True)
        self.expect(":", "':'")
        return var, self.parse_nongroup_type()

    def parse_nongroup_type(self) -> BaseType | ListType:
        if self.match("["):
            element = self.parse_base_type()
            self.expect("]", "']'")
            return interned(ListType, element)
        return self.parse_base_type()

    def parse_base_type(self) -> BaseType:
        at = self.pos
        role = self.one_of(_ROLES, "a role ('input', 'output' or 'feedback')")
        subtypes: tuple[str, ...] = ()
        if self.match("."):
            subtypes = tuple(self.names("subtype name", "|"))
            if len(set(subtypes)) < len(subtypes):
                index = next(i for i, sub in enumerate(subtypes) if sub in subtypes[:i])
                self.fail(f"duplicate subtype {subtypes[index]!r}", at + 2 + 2 * index)
        return interned(BaseType, role, subtypes)

    def parse_operation(self) -> Operation:
        kind = self.one_of(_OPERATIONS, "operation name")
        self.expect("(", "'('")
        args = self.names("variable name")
        self.expect(")", "')'")
        return Operation(kind, tuple(args))

    # message NAME := sender -> receiver : action(A, B) [mods]
    def parse_message(self) -> Message:
        name = self.name("message name")
        self.expect(":=", "':='")
        sender = self.name("sender role")
        self.expect("->", "'->'")
        receiver = self.name("receiver role")
        self.expect(":", "':'")
        action = self.name("action name")
        self.expect("(", "'('")
        args: list[str] = []
        if self.values[self.pos] != ")":
            args = self.names("argument variable", upper=True)
        self.expect(")", "')'")
        modifiers: list[Modifier] = []
        if self.match("["):
            modifiers = self.separated(self.parse_modifier, ";")
            self.expect("]", "']'")
        return Message(name, sender, receiver, action, tuple(args), tuple(modifiers))

    def parse_modifier(self) -> Modifier:
        key = self.name("modifier key")
        if self.match(":"):
            return Modifier(key, self.name("modifier value"), "var")
        self.expect("=", "':' or '='")
        value = self.values[self.pos]
        if value[:1] != '"':
            self.fail_expected("a string value")
        self.pos += 1
        return Modifier(key, _text(value), "kv")

    # pattern NAME := [M1, M2] @ tag1, tag2
    def parse_pattern(self) -> Pattern:
        at = self.pos
        name = self.name("pattern name")
        self.expect(":=", "':='")
        self.expect("[", "'['")
        messages: list[str] = []
        if self.values[self.pos] != "]":
            messages = self.names("message name")
        self.expect("]", "']'")
        tags: list[str] = []
        if self.match("@"):
            tags = self.names("tag name")
        pattern = Pattern(name, tuple(messages), frozenset(tags))
        self.report(pattern_rule(pattern), at)
        return pattern


#: Declaration keyword -> the parser method for its body; each enum's members.
_DECLS = {word: getattr(_Parser, f"parse_{word}")
          for word in ("role", "action", "message", "pattern")}
_ROLES, _PRIMITIVES, _OPERATIONS = ({m.value: m for m in e} for e in (Role, PrimitiveKind, OpKind))


def parse(text: str, path: str = "<input>") -> ParseResult:
    """Parse ``.hai`` source; on errors, ``file`` is ``None``.

    Recovery is per-declaration: a syntax error skips to the next ``;`` and
    parsing continues, so one bad declaration yields one diagnostic without
    hiding later ones.
    """
    try:
        tokens = tokenize(text)
    except LexError as exc:
        diag = Diagnostic("error", "E-LEX", exc.message, path, exc.span)
        return ParseResult(None, (diag,))
    source, diagnostics = _Parser(text, tokens, path).parse_file()
    return ParseResult(source, tuple(diagnostics))


def parse_type(text: str) -> TypeExpr:
    """Parse a standalone type expression (base, list, or named group).

    Used when reading types back from traces and exports.  The type is
    interned (:func:`~haiproto.core.interned`).  Raises ``ValueError`` on
    malformed input, a comment among it.
    """
    try:
        parser = _Parser(text, tokenize(text), "<type>")
        if parser._bracket_is_group():
            typ: TypeExpr = parser.parse_group()
        else:
            typ = parser.parse_nongroup_type()
    except (LexError, _ParseAbort):
        raise ValueError(f"malformed type expression {text!r}") from None
    if parser.comments or parser.values[parser.pos]:
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
