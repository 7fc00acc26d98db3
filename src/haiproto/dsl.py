"""Parser and canonical printer for the ``.hai`` protocol language.

A ``.hai`` file is a sequence of declarations, each ended by ``;``::

    role supervisor;
    action annotate-sample(X, Y) :=
        provide(Y: output.label, X: input.raw_data|fvector) <- map(X, Y);
    message A6 := user -> model : annotate-sample(X, Y) [X: WalkStand];
    pattern sample-annotation := [A5, A6] @ hitl;

The lexer is one compiled regex, run by ``findall``: tokens are two lists,
each token's text, which is also its kind, and its end offset.  The parser
reads each declaration in one walk over them by index, each type through the
one reader :func:`parse_type` shares; a :class:`~haiproto.core.Span` is built
from line starts only for declarations, rule findings and diagnostics.

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
from itertools import accumulate, repeat

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
# A token: a punctuation mark or a pair, first as the commonest; a name, its
# ASCII start tried first as the commonest and cheapest; a string; a comment.
_ONE = re.compile(
    rf"[()\[\],;.|@=]|:=?|->|<-|[A-Za-z]\w*(?:-\w+)*|{_NAME.pattern}|{_STRING.pattern}|//[^\n]*"
)
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
    values.append("")
    ends.append(len(text))
    kept_values, kept_ends, start = [], [], 0  # the runs of tokens between comments, and EOF
    for i in [*notes, len(values)]:
        kept_values += values[start:i]
        kept_ends += ends[start:i]
        start = i + 1
    return kept_values, kept_ends, comments


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


class _ParseAbort(Exception):
    """Internal: unwinds to the recovery point after a syntax error."""


class _Parser:
    """Walks :func:`tokenize`'s lists by index, one walk per declaration from
    ``self.pos``, the next token; no check moves past EOF, which fits none."""

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
        """Report ``message`` at token ``i``, and unwind: recovery starts there."""
        self.diagnostics.append(Diagnostic("error", "E-SYNTAX", message, self.path, self.span(i)))
        self.pos = i
        raise _ParseAbort()

    def fail_expected(self, what: str, i: int) -> None:
        token = self.values[i]
        got = _text(token) if token else "end of file"
        self.fail(f"expected {what}, got {got!r}", i)

    def fail_name(self, what: str, i: int, members: dict | None = None) -> None:
        """Fail at token ``i``, which is not ``what``: no name, or a name that
        is no member of ``members``, or, with none, no variable."""
        token = self.values[i]
        if not token[:1].isalpha():
            self.fail_expected(what, i)
        if members is None:
            self.fail(f"variable names start with an uppercase letter, got {token!r}", i)
        *first, last = map(repr, members)
        self.fail(f"expected {', '.join(first)} or {last}, got {token!r}", i)

    def report(self, found: list[Diagnostic | None], i: int) -> None:
        """Keep a rule's findings, placed at token ``i`` (a span is built only
        when there are any)."""
        if any(found):
            self.diagnostics.extend(placed(filter(None, found), self.path, self.span(i)))

    def expect(self, i: int, *expected: str) -> int:
        """The index past the tokens from ``i``, each the mark ``expected``
        holds for it, or, where that is words ("sender role"), a name."""
        values = self.values
        for what in expected:
            if values[i] != what and not (what[0].isalpha() and values[i][:1].isalpha()):
                self.fail_expected(what if what[0].isalpha() else f"'{what}'", i)
            i += 1
        return i

    def names(self, i: int, what: str, separator: str | None = ",", upper: bool = False) -> int:
        """The index past one name or more from token ``i``, ``separator`` between
        each two, which are ``values[i:end:2]``; with ``upper``, each is a variable."""
        values, fits = self.values, str.isupper if upper else str.isalpha
        while fits(values[i][:1]):
            if values[i + 1] != separator:
                return i + 1
            i += 2
        self.fail_name(what, i)

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
        """Each declaration: a keyword, its body, and the closing ``;``.  Comments
        before the ``;``, ahead of the keyword or inside the body, lead it."""
        decls: list[Decl] = []
        names: set[str] = set()
        values, comments, text, last = self.values, self.comments, self.text, len(self.values) - 1
        what = "'role', 'action', 'message' or 'pattern'"
        while self.pos < last:
            keyword = self.pos
            try:
                body = _DECLS.get(values[keyword]) or self.fail_name(what, keyword, _DECLS)
                self.pos += 1
                node = body(self)
                if values[self.pos] != ";":
                    self.expect(self.pos, ";")
            except _ParseAbort:  # fail() has reported it; skip past the next ';'
                try:
                    self.pos = values.index(";", self.pos) + 1
                except ValueError:
                    self.pos = last
                continue
            end = self.ends[self.pos]  # of the ';'
            self.pos += 1
            newline = text.find("\n", end) % (len(text) + 1)  # -1: the end; one before trails
            leading, trailing = (), ()
            if self.comment_pos < len(comments) and comments[self.comment_pos][0] < newline:
                leading, trailing = self.take_comments(end), self.take_comments(newline)
            decl = Decl(node, leading, trailing[0] if trailing else None, self.span(keyword))
            if not isinstance(node, str):  # roles are their own namespace
                if node.name in names:
                    found = [name_rule(node.name, self.path)]
                    self.diagnostics.extend(placed(found, self.path, decl.span))
                names.add(node.name)
            decls.append(decl)
        if any(d.severity == "error" for d in self.diagnostics):
            return None, self.diagnostics
        trailing = self.take_comments(len(text))
        return SourceFile(tuple(decls), trailing, self.path), self.diagnostics

    # role NAME
    def parse_role(self) -> str:
        self.pos = self.expect(self.pos, "role name")
        return self.values[self.pos - 1]

    # action NAME(P, Q) := provide(X: t, [Y: u, Z: [v]]) <- op(X, Y), op(Z)
    def parse_action(self) -> ActionDef:
        values, at = self.values, self.pos
        if not (values[at][:1].isalpha() and values[at + 1] == "("):
            self.expect(at, "action name", "(")
        i = at + 2
        if values[i] != ")":
            i = self.names(i, "parameter name", upper=True)
        params = tuple(values[at + 2 : i : 2])
        if not (values[i] == ")" and values[i + 1] == ":="):
            self.expect(i, ")", ":=")
        kind = _PRIMITIVES.get(values[i + 2]) or self.fail_name(_PROVIDE, i + 2, _PRIMITIVES)
        args: list[Arg] = []
        i = i + 3 if values[i + 3] == "(" else self.expect(i + 3, "(")  # which fails
        while values[i] == ("," if args else "("):  # each argument: a group [X: t, Y: u], or X: t
            var = values[i := i + 1]
            if var == "[" and values[i + 1][:1].isalpha() and values[i + 2] == ":":
                var, (typ, i) = None, self.parse_group(i)
            else:
                if not (var[:1].isupper() and values[i + 1] == ":"):
                    self.expect(self.names(i, "variable name", None, True), ":")
                typ, i = self.parse_type_at(i + 2)
            args.append(Arg(var, typ))
        if values[i] != ")":
            self.expect(i, ")")
        starts, operations = [], []
        while values[i + 1] == ("," if starts else "<-"):  # each operation: op(X, Y)
            i += 2
            op = _OPERATIONS.get(values[i]) or self.fail_name("operation name", i, _OPERATIONS)
            if values[i + 1] != "(":
                self.expect(i + 1, "(")
            end = self.names(i + 2, "variable name")
            if values[end] != ")":
                self.expect(end, ")")
            starts.append(i)
            operations.append(Operation(op, tuple(values[i + 2 : end : 2])))
            i = end
        self.pos = i + 1
        primitive = PrimitiveSpec(kind, args[0], tuple(args[1:]))
        action = ActionDef(values[at], params, primitive, tuple(operations))
        self.report(variable_rule(action), at)
        for i, op in zip(starts, operations):
            self.report([arity_rule(op, action)], i)
        return action

    def parse_group(self, i: int) -> tuple[GroupType, int]:
        """The group ``[X: t, Y: u]`` at token ``i``, its shape checked, and the index past it."""
        values, at, members = self.values, i, []
        while values[i] == ("," if members else "["):  # each member: X: t
            var = values[i + 1]
            if not (var[:1].isupper() and values[i + 2] == ":"):
                self.expect(self.names(i + 1, "variable name", None, True), ":")
            typ, i = self.parse_type_at(i + 3)
            members.append((var, typ))
        i = self.expect(i, "]")
        if len(members) < 2:
            self.fail("a group needs at least two members", at)
        return interned(GroupType, tuple(members)), i

    def parse_type_at(self, i: int) -> tuple[BaseType | ListType, int]:
        """The type ``role.sub|sub`` or ``[role.sub|sub]`` at token ``i``, and the index
        past it: the one type reader, of arguments, group members and :func:`parse_type`."""
        values = self.values
        listed = values[i] == "["
        at = i + listed
        role = _ROLES.get(values[at]) or self.fail_name(_ROLE, at, _ROLES)
        i = at + 1
        subtypes: tuple[str, ...] = ()
        if values[i] == ".":
            i = self.names(i + 1, "subtype name", "|")
            subtypes = tuple(values[at + 2 : i : 2])
            if len(subtypes) > 1 and len(set(subtypes)) < len(subtypes):
                index = next(n for n, sub in enumerate(subtypes) if sub in subtypes[:n])
                self.fail(f"duplicate subtype {subtypes[index]!r}", at + 2 + 2 * index)
        typ = interned(BaseType, role, subtypes)
        if listed and values[i] != "]":
            self.expect(i, "]")
        return (interned(ListType, typ), i + 1) if listed else (typ, i)

    # message NAME := sender -> receiver : action(A, B) [K: v; K="s"]
    def parse_message(self) -> Message:
        values, at = self.values, self.pos
        if values[at + 1 : at + 8 : 2] != [":=", "->", ":", "("] or not (  # marks, then names
            values[at][:1] + values[at + 2][:1] + values[at + 4][:1] + values[at + 6][:1]
        ).isalpha():
            self.expect(at, "message name", ":=", "sender role", "->", "receiver role", ":",
                        "action name", "(")
        i = at + 8
        if values[i] != ")":
            i = self.names(i, "argument variable", upper=True)
        args = tuple(values[at + 8 : i : 2])
        if values[i] != ")":
            self.expect(i, ")")
        modifiers = []
        while values[i + 1] == (";" if modifiers else "["):  # each modifier: K: v, or K="s"
            key, i = values[i + 2], i + 3  # at its ':' or '='
            if not key[:1].isalpha():
                self.fail_expected("modifier key", i - 1)
            if values[i] == ":" and values[i + 1][:1].isalpha():
                modifiers.append(Modifier(key, values[i + 1], "var"))
            elif values[i] == "=" and values[i + 1][:1] == '"':
                modifiers.append(Modifier(key, _text(values[i + 1]), "kv"))
            else:
                what = {":": "modifier value", "=": "a string value"}.get(values[i])
                self.fail_expected(what or "':' or '='", i + 1 if what else i)
            i += 1
        self.pos = self.expect(i + 1, "]") if modifiers else i + 1
        return Message(values[at], values[at + 2], values[at + 4], values[at + 6], args,
                       tuple(modifiers))

    # pattern NAME := [M1, M2] @ tag1, tag2
    def parse_pattern(self) -> Pattern:
        values, at = self.values, self.pos
        if not (values[at][:1].isalpha() and values[at + 1] == ":=" and values[at + 2] == "["):
            self.expect(at, "pattern name", ":=", "[")
        i = at + 3
        if values[i] != "]":
            i = self.names(i, "message name")
        messages = tuple(values[at + 3 : i : 2])
        self.pos = i = self.expect(i, "]")
        if values[i] == "@":
            self.pos = self.names(i + 1, "tag name")
        pattern = Pattern(values[at], messages, frozenset(values[i + 1 : self.pos : 2]))
        self.report(pattern_rule(pattern), at)
        return pattern


#: Declaration keyword -> the parser method for its body; each enum's members.
_DECLS = {word: getattr(_Parser, f"parse_{word}")
          for word in ("role", "action", "message", "pattern")}
_ROLES, _PRIMITIVES, _OPERATIONS = ({m.value: m for m in e} for e in (Role, PrimitiveKind, OpKind))
_ROLE, _PROVIDE = "a role ('input', 'output' or 'feedback')", "'provide' or 'request'"


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
        values = parser.values
        group = values[0] == "[" and values[1][:1].isalpha() and values[2] == ":"
        typ, end = (parser.parse_group if group else parser.parse_type_at)(0)
    except (LexError, _ParseAbort):
        raise ValueError(f"malformed type expression {text!r}") from None
    if parser.comments or values[end]:
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
