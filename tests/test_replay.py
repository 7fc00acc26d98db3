"""Replay re-runs a trace through ``run()`` and flags any field that differs."""

from __future__ import annotations

import dataclasses
import io
import json
import random
import re
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from conftest import AGENTS_DIR, FIXTURES
from haiproto import (
    AgentBehavior,
    BaseType,
    CatalogError,
    Diagnostic,
    Pattern,
    Payload,
    Role,
    ScriptedAgent,
    StubModelAgent,
    Trace,
    Vector,
    intersect,
    load,
    parse_agents,
    replay_check,
    run,
    run_scenario,
    runtime,
)
from haiproto.runtime import _lines

GIVE_USE = """
action give(X) := provide(X: input);
action use(X) := provide(X: input.raw_data);
message G := user -> model : give(X);
message U := model -> user : use(X);
pattern give-use := [G, U] @ hitl;
"""


def _d1_lines(catalog, repeat: int = 1) -> list[dict]:
    agents = parse_agents((AGENTS_DIR / "robot_demo.agents").read_text())
    traces = run_scenario(catalog, "D1", agents, seed=3, repeat=repeat)
    assert all(trace.outcome == "completed" for trace in traces)
    text = "".join(trace.to_jsonl() for trace in traces)
    return [json.loads(line) for line in text.splitlines()]


def _aborted_lines(catalog) -> list[dict]:
    agents = parse_agents((AGENTS_DIR / "rl_demo.agents").read_text())
    trace = run(catalog, "sample-annotation", agents)
    assert trace.outcome == {"aborted": {"code": "V-MISSING", "step": 2}}
    return [json.loads(line) for line in trace.to_jsonl().splitlines()]


def _text(lines: list[dict]) -> str:
    return "".join(json.dumps(line, separators=(",", ":")) + "\n" for line in lines)


def _codes(diags) -> list[str]:
    return [d.code for d in diags]


def _replay(text: str, catalog) -> list[Diagnostic]:
    """``replay_check(text)``, which must equal the whole-trace reference's."""
    diags = replay_check(text, catalog)
    assert diags == oracles.oracle_replay_check(text, catalog)
    assert [d.message for d in diags] == [
        d.message for d in oracles.oracle_replay_check(text, catalog)
    ]
    return diags


class _Fvector(AgentBehavior):
    def produce(self, message, action, needed, binding):
        return {
            var: Payload(BaseType(Role.INPUT, ("fvector",)), Vector((1.0,)))
            for var in needed
        }


def test_a_bound_value_must_fit_every_later_use(tmp_path, catalog):
    (tmp_path / "give_use.hai").write_text(GIVE_USE)
    give_use = load([tmp_path])
    agents = {"user": _Fvector(), "model": _Fvector()}
    trace = run(give_use, "give-use", agents)
    assert trace.outcome == {"aborted": {"step": 2, "code": "V-TYPE"}}
    assert "input.raw_data" in trace.steps[1].detail
    assert replay_check(trace, give_use) == []

    lines = [json.loads(line) for line in trace.to_jsonl().splitlines()]
    lines[2]["verdict"] = "ok"
    del lines[2]["detail"]
    lines[3]["outcome"] = "completed"
    diags = replay_check(_text(lines), give_use)
    assert _codes(diags) == ["E-BINDING"]
    assert "step 2" in diags[0].message


def _reverse_steps(lines):
    lines[1:-1] = lines[-2:0:-1]


def _swap_sender(lines):
    lines[3]["sender"] = lines[3]["receiver"]


def _contradict_outcome(lines):
    lines[-1]["outcome"] = {"aborted": {"step": 4, "code": "V-AGENT"}}


def _string_for_list(lines):
    lines[1]["produced"]["L"]["value"] = "calm"


def _bogus_bindings(lines):
    lines[3]["bindings"] = {"Z": {"type": "input", "value": 1}}


@pytest.mark.parametrize(
    "edit, where",
    [
        (_reverse_steps, "step 1:"),
        (_swap_sender, "step 3: sender"),
        (_contradict_outcome, "outcome"),
        (_string_for_list, "step 1:"),
        (_bogus_bindings, "step 3: bindings"),
    ],
)
def test_edited_d1_traces_are_flagged(catalog, edit, where):
    lines = _d1_lines(catalog)
    edit(lines)
    diags = replay_check(_text(lines), catalog)
    assert _codes(diags) == ["E-TRACE"]
    assert where in diags[0].message


def test_unknown_flows_are_unresolved(catalog):
    lines = _d1_lines(catalog)
    lines[0]["pattern"] = "nosuch"
    assert _codes(replay_check(_text(lines), catalog)) == ["E-UNRESOLVED"]
    model = StubModelAgent(samples=[Vector((0.0,))])
    agents = {"user": ScriptedAgent({}), "model": model}
    adhoc = run(catalog, Pattern("solo-request", ("A5",), frozenset()), agents)
    assert _codes(replay_check(adhoc, catalog)) == ["E-UNRESOLVED"]


def test_an_empty_scenario_does_not_resolve(tmp_path):
    (tmp_path / "give_use.hai").write_text(GIVE_USE)
    (tmp_path / "catalog.json").write_text(json.dumps({"scenarios": {"nothing": []}}))
    with pytest.raises(CatalogError, match="E-EMPTY-PATTERN"):
        load([tmp_path])
    # a catalog built by hand may still hold one: replay reports it, never raises
    catalog = dataclasses.replace(
        load([tmp_path / "give_use.hai"]), scenarios={"nothing": ()}
    )
    header = {"format": 2, "pattern": "nothing", "run": "x", "seed": 0}
    footer = {"outcome": "completed", "run": "x", "steps": 0}
    diags = replay_check(_text([header, footer]), catalog)
    assert _codes(diags) == ["E-UNRESOLVED"]


def test_runs_read_before_unreadable_text_are_still_checked(catalog):
    first, second = _d1_lines(catalog), _d1_lines(catalog)
    first[3]["sender"] = "nobody"
    text = _text(first) + _text(second)
    cut = text[: text.rindex('{"outcome"')]
    diags = replay_check(cut, catalog)
    assert _codes(diags) == ["E-TRACE", "E-TRACE"]
    assert "step 3: sender" in diags[0].message
    last = cut.count("\n")  # the last line read, a step of the second run
    assert diags[1].message == f"unreadable trace: line {last}: trace ends without an outcome line"
    assert diags[1].span.line == last


def test_lines_are_read_as_replay_needs_them(catalog):
    lines = _d1_lines(catalog, repeat=2)
    lines[3]["sender"] = "nobody"
    text = _text(lines).splitlines(keepends=True)

    def source():
        yield from text[:8]  # the first run
        raise UnicodeDecodeError("utf-8", b"\xff", 0, 1, "invalid start byte")

    diags = replay_check(source(), catalog)
    assert _codes(diags) == ["E-TRACE", "E-TRACE"]
    assert "step 3: sender" in diags[0].message
    assert diags[1].message.startswith("unreadable trace: line 9: 'utf-8' codec can't decode")
    assert (diags[0].span.line, diags[1].span.line) == (4, 9)
    assert replay_check(iter(text[:8] + ["", "\n"] + text[8:]), catalog) == diags[:1]
    assert replay_check(["".join(text[:8]), "".join(text[8:])], catalog) == diags[:1]


def _missing_field(text):
    lines = text.splitlines()
    step = json.loads(lines[2])
    del step["sender"]
    lines[2] = json.dumps(step)
    return "\n".join(lines)


@pytest.mark.parametrize(
    "corrupt",
    [
        _missing_field,
        lambda text: text.replace('"seed":3}', '"seed":3', 1),
        lambda text: text.replace('"type":"[output.label]"', '"type":"[output.$]"', 1),
        lambda text: text.rsplit("\n", 2)[0] + "\n",
        lambda text: text + "7\n",
    ],
    ids=["missing field", "not json", "bad type", "no outcome", "not an object"],
)
def test_unreadable_traces_are_diagnosed(catalog, corrupt):
    text = _text(_d1_lines(catalog))
    assert replay_check(text, catalog) == []
    diags = replay_check(corrupt(text), catalog)
    assert _codes(diags) == ["E-TRACE"]


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
def test_non_finite_numbers_are_one_finding(catalog, bad):
    lines = _d1_lines(catalog)
    assert lines[4]["message"] == "A4" and "vec" in lines[4]["produced"]["X"]["value"]
    lines[4]["produced"]["X"]["value"]["vec"][1] = bad
    text = _text(lines)
    constant = json.dumps(bad)
    assert constant in text  # not standard JSON, as Python writes it
    (diag,) = replay_check(text, catalog)
    assert diag.code == "E-TRACE"
    assert f"line 5: {constant} is not a JSON number" in diag.message
    lines = _d1_lines(catalog)
    lines[0]["seed"] = bad
    (diag,) = replay_check(_text(lines), catalog)
    assert diag.code == "E-TRACE" and "line 1: " in diag.message
    # a trace built in memory cannot re-run a non-finite vector either
    trace = Trace.from_jsonl(_text(_d1_lines(catalog)))
    step = trace.steps[3]
    produced = {"X": {**step.produced["X"], "value": {"vec": [0.0, bad]}}}
    steps = list(trace.steps)
    steps[3] = step._replace(produced=produced)
    (diag,) = replay_check(dataclasses.replace(trace, steps=tuple(steps)), catalog)
    assert diag.code == "E-TRACE" and "finite" in diag.message


def _found(diags) -> list[tuple]:
    """What a finding says and where: ``Diagnostic`` equality ignores its span."""
    return [(d.code, d.message, d.span) for d in diags]


def _edits(trace) -> dict:
    """``trace``, and copies of it with a produced value changed, its first
    step dropped and its first message unknown (those it has steps for)."""
    steps = trace.steps
    edits = {"as run": trace}
    if steps:
        edits["dropped step"] = dataclasses.replace(trace, steps=steps[1:])
        unknown = steps[0]._replace(message="ZZ")
        edits["unknown message"] = dataclasses.replace(trace, steps=(unknown, *steps[1:]))
    for index, step in enumerate(steps):
        if step.produced:
            var, data = next(iter(step.produced.items()))
            edited = step._replace(produced={**step.produced, var: {**data, "value": "edited"}})
            changed = (*steps[:index], edited, *steps[index + 1 :])
            edits["changed value"] = dataclasses.replace(trace, steps=changed)
            break
    return edits


def test_a_trace_replays_as_its_text_does(catalog):
    """Every runnable corpus run, as run and edited: the same findings, each
    at the line of the trace's text that it is about."""
    replayed: Counter = Counter()
    for name in sorted({*catalog.patterns, *catalog.scenarios}):
        for agents_file in ("rl_demo.agents", "robot_demo.agents"):
            agents = parse_agents((AGENTS_DIR / agents_file).read_text())
            try:
                trace = run(catalog, name, agents, seed=7)
            except (LookupError, ValueError):  # no agent for a role, check errors
                continue
            for edit, recorded in _edits(trace).items():
                found = _found(replay_check(recorded, catalog))
                assert found == _found(replay_check(recorded.to_jsonl(), catalog)), name
                assert (found == []) == (edit == "as run"), (name, edit)
                assert all(span is not None and span.line > 1 for _, _, span in found)
                replayed[edit] += 1
    assert replayed == {
        "as run": 64, "dropped step": 64, "unknown message": 64, "changed value": 23
    }


def test_a_clean_trace_is_replayed_from_its_lines_with_no_field_compared(
    catalog, monkeypatch
):
    compared = []
    compare = runtime._Replay.compare
    monkeypatch.setattr(
        runtime._Replay, "compare", lambda self, *args: compared.append(args) or compare(self, *args)
    )
    agents = parse_agents((AGENTS_DIR / "robot_demo.agents").read_text())
    for trace in run_scenario(catalog, "D1", agents, seed=3, repeat=2):
        assert replay_check(trace, catalog) == []
    assert compared == []
    copy = dataclasses.replace(trace, seed=4)  # written from its steps: replay reads no seed
    assert replay_check(copy, catalog) == [] and compared == []


def test_replays_parse_each_type_string_once_across_calls(catalog, monkeypatch):
    parsed = []
    parse_type = runtime.parse_type
    monkeypatch.setattr(runtime, "parse_type", lambda text: parsed.append(text) or parse_type(text))
    runtime._parse_type.cache_clear()
    agents = parse_agents((AGENTS_DIR / "robot_demo.agents").read_text())
    traces = run_scenario(catalog, "D1", agents, seed=3, repeat=300)
    assert all(replay_check(trace, catalog) == [] for trace in traces)  # one call each
    assert 0 < len(parsed) <= 3 and len(set(parsed)) == len(parsed)


def _counting_payloads(monkeypatch) -> list:
    """The ``(type, value)`` of each payload built from now on."""
    built, check = [], Payload.__post_init__
    monkeypatch.setattr(
        Payload, "__post_init__", lambda self: built.append((self.type, self.value)) or check(self)
    )
    return built


#: The robot demo's agents with one value a key: every run of D1 is the same.
ONE_VALUE_AGENTS = """
[user scripted]
A2.Y = "happy"
A4.X = vec(0.0, 0.0)
PE2.V = "confirm"

[model stub]
labels = calm, happy, sad
"""


def _cycling_d1_texts(catalog, repeat: int) -> list[str]:
    """Each run's text of D1 ``repeat`` times with the robot demo's agents, its
    user cycling A2.Y through three labels, so runs alternate between lines at
    the same step."""
    agents = parse_agents((AGENTS_DIR / "robot_demo.agents").read_text())
    cycle = {"A2.Y": ["happy", "sad", "calm"] * 100}
    agents["user"] = ScriptedAgent({**agents["user"].script, **cycle})
    return [trace.to_jsonl() for trace in run_scenario(catalog, "D1", agents, seed=3, repeat=repeat)]


def test_a_repeated_step_line_is_served_from_what_it_was_decoded_to(catalog, monkeypatch):
    """A run whose step lines are those of a run that replayed clean before is
    verified by its text, so the payloads a replay builds do not grow with the
    number of runs."""
    traces = run_scenario(catalog, "D1", parse_agents(ONE_VALUE_AGENTS), seed=3, repeat=50)
    per_run = sum(len(step.produced) for step in traces[0].steps)
    built = _counting_payloads(monkeypatch)
    assert replay_check("".join(trace.to_jsonl() for trace in traces), catalog) == []
    assert 0 < len(built) <= 2 * per_run
    counts = []
    for repeat in (7, 50):  # the demo's queues run out after six runs; then runs repeat
        text = _text(_d1_lines(catalog, repeat))
        built.clear()
        assert replay_check(text, catalog) == []
        counts.append(len(built))
    assert counts[0] == counts[1] > 0


def test_a_replay_decodes_each_line_of_a_cycle_once(catalog, monkeypatch):
    """Runs that cycle through the same step lines are each re-run once: a
    line's payloads are built once for each distinct run it is in, and not
    again however many runs follow."""
    built, counts = _counting_payloads(monkeypatch), []
    for repeat in (30, 300):
        runs = _cycling_d1_texts(catalog, repeat)
        built.clear()
        assert replay_check("".join(runs), catalog) == []
        counts.append(len(built))
    distinct = {tuple(line for line in run.splitlines() if '"step":' in line) for run in runs}
    each = sum(len(json.loads(line)["produced"]) for lines in distinct for line in lines)
    assert 0 < counts[0] == counts[1] == each


def test_a_flow_replayed_once_decodes_every_step(tmp_path, monkeypatch):
    """A run of more distinct lines than replay keeps builds each payload once."""
    steps = runtime._SERVED_LINES + 10
    source = "action give(X) := provide(X: input.raw_data);\n" + "".join(
        f"message G{k} := user -> model : give(X{k});\n" for k in range(steps)
    ) + f"pattern long := [{', '.join(f'G{k}' for k in range(steps))}];\n"
    (tmp_path / "long.hai").write_text(source)
    long = load([tmp_path])
    script = {f"G{k}.X{k}": [Vector((float(k),))] for k in range(steps)}
    trace = run(long, "long", {"user": ScriptedAgent(script), "model": ScriptedAgent({})})
    assert trace.outcome == "completed"
    built = _counting_payloads(monkeypatch)
    assert replay_check(trace.to_jsonl(), long) == []
    assert [args[1] for args in built] == [Vector((float(k),)) for k in range(steps)]


def _counting_reruns(monkeypatch) -> list:
    """One item per re-run step that its receiver took, from now on."""
    taken, on_receive = [], runtime._Replay.on_receive
    count = lambda self, *args: taken.append(1) or on_receive(self, *args)  # noqa: E731
    monkeypatch.setattr(runtime._Replay, "on_receive", count)
    return taken


def _verified(monkeypatch) -> list:
    """Each run's trie of verified runs (the call's one), from now on."""
    tries, init = [], runtime._Replay.__init__

    def keep(self, lineno, header, catalog, verified):  # another signature fails here
        tries.append(verified)
        init(self, lineno, header, catalog, verified)

    monkeypatch.setattr(runtime._Replay, "__init__", keep)
    return tries


def _trie_lines(node: dict) -> list[str]:
    return [
        each for line, child in node.items() if line is not None
        for each in [line, *_trie_lines(child)]
    ]


def test_a_replay_re_runs_each_distinct_run_once(catalog, monkeypatch):
    """Every run of D1 with one value a key has the same step lines: the
    first is re-run, and the others follow the trie of verified runs."""
    traces = run_scenario(catalog, "D1", parse_agents(ONE_VALUE_AGENTS), seed=3, repeat=50)
    per_run = len(traces[0].steps)
    taken = _counting_reruns(monkeypatch)
    assert replay_check("".join(trace.to_jsonl() for trace in traces), catalog) == []
    assert 0 < len(taken) <= 2 * per_run


def test_the_trie_of_verified_runs_keeps_at_most_its_bound(catalog, monkeypatch):
    """Runs of more distinct step lines than the bound fill the trie up to it."""
    monkeypatch.setattr(runtime, "_SERVED_LINES", 20)
    text = _text(_d1_lines(catalog, repeat=12))
    distinct = {line for line in text.splitlines() if '"step":' in line}
    assert len(distinct) > runtime._SERVED_LINES
    tries = _verified(monkeypatch)
    assert _replay(text, catalog) == []
    verified = tries[-1]
    assert all(each is verified for each in tries)
    lines = _trie_lines(verified["D1"])
    assert 0 < len(lines) == verified.lines <= runtime._SERVED_LINES
    assert set(lines) < distinct


def test_a_run_longer_than_the_bound_is_never_kept_whole(catalog, monkeypatch):
    """A run of more step lines than the bound keeps no more of them, is not
    verified by the trie, and so is re-run each time it comes."""
    monkeypatch.setattr(runtime, "_SERVED_LINES", 4)  # D1 runs 6 steps
    traces = run_scenario(catalog, "D1", parse_agents(ONE_VALUE_AGENTS), seed=3, repeat=3)
    kept, step = [], runtime._Replay.step
    monkeypatch.setattr(
        runtime._Replay, "step", lambda self, *args: step(self, *args) or kept.append(self.fresh)
    )
    tries, taken = _verified(monkeypatch), _counting_reruns(monkeypatch)
    assert replay_check("".join(trace.to_jsonl() for trace in traces), catalog) == []
    assert len(taken) == 3 * len(traces[0].steps)
    assert max(len(fresh) for fresh in kept if fresh is not None) == runtime._SERVED_LINES
    assert tries[-1].lines == len(_trie_lines(tries[-1]["D1"])) == 0


def _value_edited(line: str, data) -> str:
    """``line`` with one value nested in it changed, if it is a JSON object
    that holds one."""
    try:
        header_and_entry = [{}, json.loads(line)]  # an empty header: the line's values
    except ValueError:  # a line an earlier edit made unreadable
        return line
    if not isinstance(header_and_entry[1], dict) or not header_and_entry[1]:
        return line
    _change_one_value(header_and_entry, data)
    return _text(header_and_entry[1:]).removesuffix("\n")


def _character_edited(line: str, data) -> str:
    """``line`` with a character replaced, or one inserted."""
    char = data.draw(st.characters(blacklist_characters="\n", blacklist_categories=("Cs",)))
    where = data.draw(st.integers(0, max(len(line) - 1, 0)))
    cut = where + data.draw(st.integers(0, 1))
    return line[:where] + char + line[cut:]


def _edit_run_lines(lines: list[str], data) -> None:
    """One edit of a repeat file's line texts, in any run: a changed value, a
    changed or inserted character, a line dropped, repeated or cut off, or an
    outcome line's ``steps`` or ``run`` changed."""
    edit = data.draw(st.sampled_from(
        ["value", "character", "drop", "repeat", "cut", "steps", "run"]
    ))
    if edit in ("steps", "run"):
        outcomes = [i for i, line in enumerate(lines) if line.startswith('{"outcome":')]
        if not outcomes:
            return
        at = data.draw(st.sampled_from(outcomes))
        try:
            entry = json.loads(lines[at])
        except ValueError:  # a line an earlier edit made unreadable
            return
        new = st.integers(0, 8) if edit == "steps" else st.integers(0, 12).map(
            lambda k: f"D1-s3-r{k}"
        )
        entry[edit] = data.draw(new.filter(lambda value: value != entry.get(edit)))
        lines[at] = _text([entry]).removesuffix("\n")
        return
    at = data.draw(st.integers(0, len(lines) - 1))
    if edit == "value":
        lines[at] = _value_edited(lines[at], data)
    elif edit == "character":
        lines[at] = _character_edited(lines[at], data)
    elif edit == "drop":
        del lines[at]
    elif edit == "repeat":
        lines.insert(at, lines[at])
    else:
        lines[at] = lines[at][: data.draw(st.integers(0, max(len(lines[at]) - 1, 0)))]


@settings(max_examples=300, deadline=None)
@given(data=st.data(), one_value=st.booleans())
def test_edited_repeating_runs_replay_as_the_whole_trace_reference(catalog, data, one_value):
    """Runs that repeat are verified by the trie; an edit anywhere in them
    reports what the whole-trace reference does, messages included."""
    text = ONE_VALUE_AGENTS if one_value else (AGENTS_DIR / "robot_demo.agents").read_text()
    traces = run_scenario(catalog, "D1", parse_agents(text), seed=3, repeat=12)
    lines = "".join(trace.to_jsonl() for trace in traces).splitlines()
    for _ in range(data.draw(st.integers(1, 3))):
        if lines:
            _edit_run_lines(lines, data)
    _replay("".join(line + "\n" for line in lines), catalog)


_UNREADABLE_AT = re.compile(r"^unreadable trace: line (\d+)")


def _shifted(diag: Diagnostic, lines: int) -> tuple:
    """What ``diag`` says and where, ``lines`` further down its text."""
    message = _UNREADABLE_AT.sub(
        lambda at: f"unreadable trace: line {int(at[1]) + lines}", diag.message
    )
    return diag.code, message, dataclasses.replace(diag.span, line=diag.span.line + lines)


def _edit_step_line(texts: list[list[str]], data) -> None:
    """One edit of a step line of trace ``a`` or ``b``, each a list of line
    texts: a changed value, a changed character, or (in ``b``) a line made
    equal to the line of the same step in a run of ``a``."""
    edit = data.draw(st.sampled_from(["value", "character", "copy"]))
    lines = texts[1 if edit == "copy" else data.draw(st.integers(0, 1))]
    at = data.draw(st.sampled_from([i for i in range(len(lines)) if i % 8 not in (0, 7)]))
    if edit == "copy":
        lines[at] = texts[0][data.draw(st.integers(0, len(texts[0]) // 8 - 1)) * 8 + at % 8]
    elif edit == "value":
        lines[at] = _value_edited(lines[at], data)
    else:
        lines[at] = _character_edited(lines[at], data)


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_two_traces_replayed_as_one_text_report_what_each_reports_alone(catalog, data):
    """What one call keeps across its runs, the lines of each run that
    replayed clean, changes no finding: a run of ``b`` whose lines ``a``
    verified before reports what ``b`` alone does, and ``a + b`` reports
    ``a``'s findings, then ``b``'s, unless reading stopped in ``a``."""
    lines = _text(_d1_lines(catalog, repeat=9)).splitlines()  # 8 lines a run
    split = 8 * data.draw(st.integers(1, 8))
    texts = [lines[:split], lines[split:]]
    for _ in range(data.draw(st.integers(1, 3))):
        _edit_step_line(texts, data)
    a, b = ("".join(line + "\n" for line in text) for text in texts)
    alone = [replay_check(a, catalog), replay_check(b, catalog)]
    expected = _found(alone[0])
    if not (alone[0] and alone[0][-1].message.startswith("unreadable trace")):
        expected += [_shifted(diag, len(texts[0])) for diag in alone[1]]
    assert _found(replay_check(a + b, catalog)) == expected


@pytest.mark.parametrize(
    "bad, why",
    [(float("nan"), "not finite"), (float("-inf"), "not finite"), (object(), "serializable")],
)
def test_a_trace_that_does_not_write_is_one_finding_and_never_raises(catalog, bad, why):
    trace = Trace.from_jsonl(_text(_d1_lines(catalog)))
    step = trace.steps[3]
    produced = {"X": {**step.produced["X"], "value": {"vec": [0.0, bad]}}}
    edited = dataclasses.replace(
        trace, steps=(*trace.steps[:3], step._replace(produced=produced), *trace.steps[4:])
    )
    with pytest.raises((TypeError, ValueError), match=why):
        edited.to_jsonl()
    (diag,) = replay_check(edited, catalog)
    assert (diag.code, diag.span) == ("E-TRACE", None)
    assert diag.message.startswith("the trace does not write: ") and why in diag.message


def test_reading_names_the_file_line(catalog):
    lines = _d1_lines(catalog) + _d1_lines(catalog)
    text = _text(lines).splitlines()
    text[9] = text[9][:-1]  # the second run's step 1 loses its closing brace
    with pytest.raises(ValueError, match=r"^line 10: .* \(column \d+\)$"):
        Trace.all_from_jsonl("\n".join(text))
    for given_text in ("\n".join(text), io.StringIO("\n".join(text)), [f"{t}\r\n" for t in text]):
        (diag,) = replay_check(given_text, catalog)
        assert diag.code == "E-TRACE" and "line 10: " in diag.message

    edited = [dict(line) for line in lines]
    edited[12]["bindings"] = {}
    with pytest.raises(ValueError, match="line 13: step 4: bindings is not a trace field"):
        Trace.all_from_jsonl(_text(edited))
    edited = [dict(line) for line in lines]
    del edited[10]["digest"]
    with pytest.raises(ValueError, match="line 11: step 2: digest is missing"):
        Trace.all_from_jsonl(_text(edited))


def test_deep_nesting_is_one_finding(catalog):
    deep = "[" * 100000 + "]" * 100000
    (diag,) = replay_check(deep, catalog)
    assert diag.code == "E-TRACE" and "line 1: " in diag.message
    with pytest.raises(ValueError, match="^line 1: "):
        Trace.all_from_jsonl(deep)
    text = _text(_d1_lines(catalog)) + deep + "\n"  # after a run that replays
    (diag,) = replay_check(text, catalog)
    assert diag.code == "E-TRACE" and "line 9: " in diag.message
    with pytest.raises(ValueError, match="^line 9: "):
        Trace.all_from_jsonl(text)


#: Every line boundary of ``str.splitlines``, and characters that are none.
_PIECES = [
    *("\n", "\r", "\r\n", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85"),
    *("\u2028", "\u2029", "a", "{}", " ", "\t", "\x1f"),
]


@given(st.lists(st.sampled_from(_PIECES)).map("".join), st.integers(0, 12))
def test_trace_lines_split_at_line_feeds_only(text, block):
    assert list(_lines(text, block)) == text.split("\n")
    assert list(_lines(text)) == text.split("\n")


def test_a_string_holding_a_raw_line_separator_reads_and_replays(catalog, tmp_path):
    lines = _d1_lines(catalog)
    lines[0]["run"] = lines[-1]["run"] = "D1\u2028\u2029\x85"
    text = "".join(json.dumps(line, ensure_ascii=False) + "\n" for line in lines)
    assert "\u2028" in text
    assert Trace.from_jsonl(text).run_id == "D1\u2028\u2029\x85"
    assert _replay(text, catalog) == []
    assert _replay(text.replace("\n", "\r\n"), catalog) == []
    path = tmp_path / "d1.jsonl"
    path.write_text(text, encoding="utf-8")
    with open(path, encoding="utf-8") as lines_of_a_file:
        assert replay_check(lines_of_a_file, catalog) == []


def test_format_1_traces_are_rejected(catalog):
    lines = _d1_lines(catalog)
    del lines[0]["format"]  # a format 1 trace: no format, a bindings snapshot per step
    for step in lines[1:-1]:
        del step["digest"]
        step["bindings"] = {}
    with pytest.raises(ValueError, match="format 1, .*`haiproto run`"):
        Trace.all_from_jsonl(_text(lines))
    (diag,) = replay_check(_text(lines), catalog)
    assert diag.code == "E-TRACE"
    assert "format 1" in diag.message
    assert "regenerate it with `haiproto run`" in diag.message
    for version in (3, 2.0, "2"):
        lines[0]["format"] = version
        with pytest.raises(ValueError, match="this reader reads format 2"):
            Trace.all_from_jsonl(_text(lines))


def test_trace_footer_must_match_header_and_body(catalog):
    lines = _d1_lines(catalog)
    for field, value in (("run", "other"), ("steps", 5), ("steps", 6.0)):
        edited = [dict(line) for line in lines]
        edited[-1][field] = value
        with pytest.raises(ValueError, match="outcome line"):
            Trace.from_jsonl(_text(edited))
    edited = [dict(line) for line in lines]
    edited[2]["extra"] = 1
    with pytest.raises(ValueError, match="^line 3: step 2: extra is not a trace field$"):
        Trace.all_from_jsonl(_text(edited))


def test_a_header_field_a_trace_does_not_have_does_not_read(catalog):
    lines = _d1_lines(catalog)
    lines[0]["zzz"] = 1
    with pytest.raises(ValueError, match="^line 1: zzz is not a trace field$"):
        Trace.all_from_jsonl(_text(lines))
    (diag,) = _replay(_text(lines), catalog)
    assert (diag.code, diag.span.line) == ("E-TRACE", 1)
    assert diag.message == "unreadable trace: line 1: zzz is not a trace field"


def test_an_outcome_field_a_trace_does_not_have_does_not_read(catalog):
    lines = _d1_lines(catalog)
    lines[-1]["zzz"] = 1
    last = len(lines)
    with pytest.raises(ValueError, match=f"^line {last}: zzz is not a trace field$"):
        Trace.all_from_jsonl(_text(lines))
    (diag,) = _replay(_text(lines), catalog)
    assert (diag.code, diag.span.line) == ("E-TRACE", last)
    assert diag.message == f"unreadable trace: line {last}: zzz is not a trace field"


def test_a_value_of_its_needed_type_is_not_intersected_again(tmp_path, monkeypatch):
    names = [f"G{k}" for k in range(1, 51)]
    (tmp_path / "gives.hai").write_text(
        "action give(X) := provide(X: input);\n"
        + "".join(f"message {m} := user -> model : give(X{m});\n" for m in names)
        + f"pattern gives := [{', '.join(names)}];\n"
    )
    catalog = load([tmp_path])
    calls = []

    def counted(a, b):
        calls.append((a, b))
        return intersect(a, b)

    monkeypatch.setattr(runtime, "intersect", counted)
    agents = {"user": StubModelAgent(samples=["s"]), "model": StubModelAgent()}
    (trace,) = run_scenario(catalog, "gives", agents)
    assert (trace.outcome, len(trace.steps), len(calls)) == ("completed", 50, 0)
    text = trace.to_jsonl()
    assert replay_check(text, catalog) == [] and calls == []
    other = text.replace('"type":"input"', '"type":"input.raw_data"', 1)  # fits, is not it
    (diag,) = replay_check(other, catalog)
    assert "step 1: digest" in diag.message and len(calls) == 1


def _counting_intersect(monkeypatch) -> list:
    calls = []

    def counted(a, b):
        calls.append((a, b))
        return intersect(a, b)

    monkeypatch.setattr(runtime, "intersect", counted)
    return calls


def test_a_value_bound_at_its_needed_type_is_not_intersected_at_a_later_use(
    catalog, monkeypatch
):
    """D1 uses bound variables again at later steps: a clean run and a clean
    replay of it intersect no type."""
    agents = parse_agents((AGENTS_DIR / "robot_demo.agents").read_text())
    catalog.flow("D1")  # checked before counting: the checker intersects too
    calls = _counting_intersect(monkeypatch)
    (trace,) = run_scenario(catalog, "D1", agents, seed=3)
    assert (trace.outcome, calls) == ("completed", [])
    assert replay_check(trace.to_jsonl(), catalog) == [] and calls == []


def test_a_value_bound_at_another_fitting_type_is_intersected_at_each_use(
    tmp_path, monkeypatch
):
    (tmp_path / "label.hai").write_text(
        "action give(X) := provide(X: output);\n"
        "action label(X) := provide(X: output.label);\n"
        "message G := model -> user : give(X);\n"
        "message L := model -> user : label(X);\n"
        "pattern give-label := [G, L];\n"
    )
    catalog = load([tmp_path])

    class Score(AgentBehavior):
        def produce(self, message, action, needed, binding):
            return {var: Payload(BaseType(Role.OUTPUT, ("score",)), "s") for var in needed}

    calls = _counting_intersect(monkeypatch)
    trace = run(catalog, "give-label", {"model": Score(), "user": Score()})
    assert trace.outcome == {"aborted": {"code": "V-TYPE", "step": 2}}
    assert trace.steps[1].detail == "'X' expects output.label, got output.score"
    assert len(calls) == 2  # at its binding step, and at its later use
    assert replay_check(trace.to_jsonl(), catalog) == []


JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False) | st.text(),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=6,
)


def _paths(value, prefix=()):
    """Every path to a value nested in ``value``, itself excluded."""
    items = value.items() if isinstance(value, dict) else (
        enumerate(value) if isinstance(value, list) else ()
    )
    for key, inner in items:
        yield prefix + (key,)
        yield from _paths(inner, prefix + (key,))


def _dump(value) -> str:
    return json.dumps(value, sort_keys=True)


def _change_one_value(lines: list[dict], data) -> None:
    """Replace one value nested anywhere in ``lines`` by different JSON."""
    targets = [
        (index, path)
        for index, line in enumerate(lines)
        for path in _paths(line)
        if index or path[0] == "pattern"  # the header's run and seed are labels
    ]
    index, path = data.draw(st.sampled_from(targets))
    *parents, last = path
    holder = lines[index]
    for key in parents:
        holder = holder[key]
    old = _dump(holder[last])
    holder[last] = data.draw(JSON.filter(lambda new: _dump(new) != old))


@given(data=st.data())
def test_any_single_field_change_is_flagged(catalog, data):
    lines = _d1_lines(catalog)
    _change_one_value(lines, data)
    assert _replay(_text(lines), catalog) != []


def test_a_trace_that_ends_early_or_holds_a_null_extra_field_is_flagged(catalog):
    lines = _d1_lines(catalog)
    del lines[6]
    lines[-1]["steps"] = 5
    (diag,) = _replay(_text(lines), catalog)
    assert diag.message == (
        'run D1-s3-r0: step 6: action is null in the trace, "annotate-sample" on re-run'
    )
    lines = _d1_lines(catalog)
    lines[3]["bindings"] = None  # the same values as the re-run's, but no trace field
    (diag,) = _replay(_text(lines), catalog)
    assert diag.message.endswith("line 4: step 3: bindings is not a trace field")


def test_a_changed_violation_detail_is_flagged(catalog):
    lines = _aborted_lines(catalog)
    lines[2]["detail"] = "sender of 'A6' did not produce 'X'"  # re-raised as recorded
    (diag,) = replay_check(_text(lines), catalog)
    assert diag.code == "E-TRACE" and "step 2: digest" in diag.message


@given(data=st.data())
def test_any_single_field_change_of_an_aborted_trace_is_flagged(catalog, data):
    lines = _aborted_lines(catalog)
    _change_one_value(lines, data)
    assert _replay(_text(lines), catalog) != []


@pytest.mark.parametrize(
    "index, path",
    [
        (0, ("seed",)),
        (4, ("produced", "X", "value", "vec", 0)),
        (2, ("step",)),
        (7, ("steps",)),
    ],
    ids=["header seed", "vector coordinate", "step number", "footer"],
)
def test_numbers_that_overflow_do_not_read(catalog, index, path):
    lines = _d1_lines(catalog)
    *parents, last = path
    holder = lines[index]
    for key in parents:
        holder = holder[key]
    holder[last] = 0.125  # written as 1e999, which no JSON writer emits
    text = _text(lines)
    assert text.count("0.125") == 1
    text = text.replace("0.125", "1e999")
    problem = f"line {index + 1}: 1e999 is not a finite number"
    with pytest.raises(ValueError) as raised:
        Trace.all_from_jsonl(text)
    assert str(raised.value) == problem
    (diag,) = replay_check(text, catalog)
    assert diag.code == "E-TRACE" and diag.message.endswith(problem)


def test_a_trace_never_writes_a_non_finite_number(catalog):
    trace = Trace.from_jsonl(_text(_d1_lines(catalog)))
    for bad in (float("nan"), float("inf")):
        with pytest.raises(ValueError):
            dataclasses.replace(trace, seed=bad).to_jsonl()


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_byte_mutated_traces_give_diagnostics_never_exceptions(catalog, data):
    raw = bytearray(_text(_d1_lines(catalog)).encode())
    for _ in range(data.draw(st.integers(1, 4))):
        at = data.draw(st.integers(0, len(raw) - 1))
        byte = data.draw(st.integers(0, 255))
        edit = data.draw(st.sampled_from(["replace", "delete", "insert"]))
        if edit == "replace":
            raw[at] = byte
        elif edit == "delete":
            del raw[at]
        else:
            raw.insert(at, byte)
    text = raw.decode("utf-8", errors="replace")
    diags = _replay(text, catalog)
    assert all(isinstance(diag, Diagnostic) for diag in diags)
    try:
        Trace.all_from_jsonl(text)
    except ValueError:
        pass


def _edit_lines(lines: list[dict], data) -> None:
    """One edit: a changed value, an added field, a run's last steps dropped
    (its footer kept true), or a line deleted, repeated or moved."""
    edit = data.draw(st.sampled_from(["change", "add", "drop", "delete", "repeat", "move"]))
    if edit == "change":
        _change_one_value(lines, data)
        return
    at = data.draw(st.integers(0, len(lines) - 1))
    if edit == "add":
        lines[at][data.draw(st.sampled_from(["bindings", "detail", "step"]))] = data.draw(JSON)
    elif edit == "drop":
        end = next(i for i in range(at, len(lines)) if "outcome" in lines[i])
        start = max(i for i in range(end) if "format" in lines[i]) + 1
        cut = data.draw(st.integers(start, end))
        lines[cut:end] = []
        lines[cut]["steps"] = cut - start
    elif edit == "delete":
        del lines[at]
    elif edit == "repeat":
        lines.insert(at, lines[at])
    else:
        lines.insert(data.draw(st.integers(0, len(lines) - 1)), lines.pop(at))


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_replay_of_an_edited_repeat_file_matches_the_whole_trace_reference(catalog, data):
    lines = _d1_lines(catalog, repeat=3)
    _edit_lines(lines, data)
    _replay(_text(lines), catalog)


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_replay_of_truncated_text_matches_the_whole_trace_reference(catalog, data):
    text = _text(_d1_lines(catalog, repeat=2) + _aborted_lines(catalog))
    cut = data.draw(st.integers(0, len(text)))
    _replay(text[:cut], catalog)
    _replay(text[cut:], catalog)


def _shuffled(value, rng: random.Random):
    """``value`` with the keys of every object in a random order."""
    if isinstance(value, dict):
        items = [(key, _shuffled(inner, rng)) for key, inner in value.items()]
        rng.shuffle(items)
        return dict(items)
    if isinstance(value, list):
        return [_shuffled(inner, rng) for inner in value]
    return value


@settings(max_examples=50, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_a_clean_trace_written_another_way_replays_clean(catalog, seed):
    rng = random.Random(seed)
    lines = _d1_lines(catalog, repeat=2) + _aborted_lines(catalog)
    text = "".join(json.dumps(_shuffled(line, rng)) + "\n" for line in lines)
    assert text != _text(lines)
    assert _replay(text, catalog) == []


def _decoded(monkeypatch) -> list[str]:
    """The lines that replay decodes in full from now on."""
    decoded, decode = [], runtime._load

    def counting(line):
        decoded.append(line)
        return decode(line)

    monkeypatch.setattr(runtime, "_load", counting)
    return decoded


def test_a_clean_trace_is_decoded_in_full_only_at_its_header_and_outcome_lines(
    catalog, monkeypatch
):
    text = _text(_d1_lines(catalog, repeat=3))
    decoded = _decoded(monkeypatch)
    assert replay_check(text, load([FIXTURES])) == []  # no run has made its templates
    kinds = [json.loads(line).keys() & {"format", "outcome"} for line in decoded]
    assert kinds == [{"format"}, {"outcome"}] * 3


def _edited(index: int, edit):
    """An edit of the D1 trace's line ``index`` as JSON, written canonically."""

    def apply(lines: list[str]) -> list[str]:
        entry = json.loads(lines[index])
        edit(entry)
        lines[index] = json.dumps(entry, sort_keys=True, separators=(",", ":"))
        return lines

    return apply


def _digest_slot(slot: str):
    """Step 2's digest slot, quotes included, replaced by ``slot``."""

    def apply(lines: list[str]) -> list[str]:
        at = lines[2].index('"digest":') + len('"digest":')
        lines[2] = lines[2][:at] + slot + lines[2][at + 10 :]
        return lines

    return apply


#: Edits of the D1 trace's lines that replay cannot verify against the step's
#: template, what it then reports, and the step lines it decodes in full: the
#: edited line, and every line after a difference, where comparing stops.
FALLBACKS = {
    "CRLF": (lambda lines: [line + "\r" for line in lines], [], range(1, 7)),
    "other spacing": (
        lambda lines: lines[:3] + [json.dumps(json.loads(lines[3]))] + lines[4:], [], [3]
    ),
    "a non-hex digest": (_digest_slot('"8A0CDE19"'), ["E-TRACE"], range(2, 7)),
    "an escaped digest": (_digest_slot('"\\"abcdef"'), ["E-TRACE"], range(2, 7)),
    "a field in the digest slot": (_digest_slot('1,"step":2'), ["E-TRACE"], range(2, 7)),
    "a list for produced": (
        _edited(2, lambda entry: entry.update(produced=[])), ["E-TRACE"], range(2, 7)
    ),
    "a repeated produced key": (
        lambda lines: lines[:4] + [lines[4].replace('"produced":{', '"produced":{"X":0,')]
        + lines[5:],
        [],
        [4],
    ),
    "a step past the flow's end": (
        lambda lines: lines[:7] + [lines[6].replace('"step":6', '"step":7')]
        + [lines[7].replace('"steps":6', '"steps":7')],
        ["E-TRACE"],
        [7],
    ),
}


@pytest.mark.parametrize("edit, codes, full", FALLBACKS.values(), ids=list(FALLBACKS))
def test_a_line_off_its_template_is_decoded_in_full(catalog, monkeypatch, edit, codes, full):
    lines = edit(_text(_d1_lines(catalog)).splitlines())
    decoded = _decoded(monkeypatch)
    assert _codes(_replay("\n".join(lines) + "\n", catalog)) == codes
    assert decoded == [lines[0], *(lines[at] for at in full), lines[-1]]


def test_an_unreadable_line_wins_over_a_changed_value_read_by_its_template(catalog):
    lines = _text(_d1_lines(catalog)).splitlines()
    changed = _edited(2, lambda entry: entry["produced"]["Y"].update(value="sad"))(lines)
    assert replay_check("\n".join(changed) + "\n", catalog)[0].message.startswith(
        "run D1-s3-r0: step 2: digest is"
    )
    changed[5] = changed[5][:-1]
    (diag,) = _replay("\n".join(changed) + "\n", catalog)
    assert diag.message.startswith("unreadable trace: line 6: ")
    assert diag.span.line == 6
    lines = _text(_d1_lines(catalog)).splitlines()
    unclosed = _digest_slot('"abcdefg\\"')(lines)  # its string runs into the next field
    (diag,) = _replay("\n".join(unclosed) + "\n", catalog)
    assert diag.message.startswith("unreadable trace: line 3: ")
