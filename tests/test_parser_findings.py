"""A pinned table of the parser's findings on single-token edits.

For the first declaration of each kind in each packaged ``.hai`` file, each
token is deleted, and replaced by ``,``, ``)`` and ``Z``; ``parse`` of each
edited declaration gives ``(code, message, line, col)`` rows, which must equal
those in ``parser_findings.json``.  The table pins every syntax finding's
token and text, so a rewrite of the parser's walk that moves one fails here.

To write the table again, after a fixture changes::

    PYTHONPATH=src python tests/test_parser_findings.py
"""

from __future__ import annotations

import json
from pathlib import Path

from haiproto import parse
from haiproto.dsl import tokenize

from conftest import FIXTURES

TABLE = Path(__file__).with_name("parser_findings.json")
#: Each edit: its name and what stands in for the token (spaced, so no
#: neighbour joins it).
EDITS = (("del", " "), ("comma", " , "), ("paren", " ) "), ("Z", " Z "))


def _first_declarations(text: str) -> dict[str, str]:
    """Each kind's first declaration in ``text``: its keyword through the
    ``;`` that ends it, outside brackets (a message's modifiers hold more)."""
    values, ends, _ = tokenize(text)
    found: dict[str, str] = {}
    start = depth = 0
    for i, value in enumerate(values[:-1]):
        depth += (value == "[") - (value == "]")
        if value == ";" and not depth:
            first = ends[start] - len(values[start])
            found.setdefault(values[start], text[first : ends[i]])
            start = i + 1
    return found


def findings() -> dict[str, list[list]]:
    """``"file kind edit index"`` -> the rows ``parse`` gives for that edit."""
    table: dict[str, list[list]] = {}
    for path in sorted(FIXTURES.glob("*.hai")):
        for kind, decl in _first_declarations(path.read_text(encoding="utf-8")).items():
            values, ends, _ = tokenize(decl)
            for i, value in enumerate(values[:-1]):
                start = ends[i] - len(value)
                for edit, stand_in in EDITS:
                    if stand_in.strip() == value:
                        continue
                    result = parse(decl[:start] + stand_in + decl[ends[i] :])
                    table[f"{path.stem} {kind} {edit} {i}"] = [
                        [d.code, d.message, d.span.line, d.span.col] for d in result.diagnostics
                    ]
    return table


def _pinned() -> dict[str, list[list]]:
    """The table as :func:`findings` gives it: the file lists each finding's
    ``"code message"`` text once, and each row by its index in that list."""
    data = json.loads(TABLE.read_text(encoding="utf-8"))
    texts = [text.split(" ", 1) for text in data["findings"]]
    return {
        key: [[*texts[n], line, col] for n, line, col in rows]
        for key, rows in data["edits"].items()
    }


def _write() -> None:
    table = findings()
    texts = sorted({f"{code} {message}" for rows in table.values() for code, message, *_ in rows})
    number = {text: n for n, text in enumerate(texts)}
    edits = {
        key: [[number[f"{code} {message}"], line, col] for code, message, line, col in rows]
        for key, rows in table.items()
    }
    lines = [json.dumps(text, ensure_ascii=False) for text in texts]
    rows = [f"{json.dumps(key)}:{json.dumps(found, separators=(',', ':'))}" for key, found in edits.items()]
    TABLE.write_text(
        '{"findings":[\n' + ",\n".join(lines) + '\n],\n"edits":{\n' + ",\n".join(rows) + "\n}}\n",
        encoding="utf-8",
    )


def test_each_single_token_edit_gives_the_pinned_findings():
    pinned, found = _pinned(), findings()
    assert found.keys() == pinned.keys()
    assert [key for key in found if found[key] != pinned[key]] == []


if __name__ == "__main__":
    _write()
