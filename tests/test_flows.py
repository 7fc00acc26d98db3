"""Flows are resolved once, at their own scope, and resolving them leaves
every trace unchanged."""

from __future__ import annotations

import dataclasses
import hashlib
import itertools
import json
from collections import Counter

import pytest

import haiproto.catalog
import haiproto.check
import oracles
from conftest import AGENTS_DIR, FIXTURES
from haiproto import (
    ScriptedAgent,
    Trace,
    check_catalog,
    load,
    parse_agents,
    replay_check,
    run,
    run_scenario,
    runtime,
)
from haiproto.check import check_flow

#: sha256 over every flow of the packaged corpus run with each demo agents
#: file (seed 7, three repetitions), recorded before flows were resolved once,
#: in trace format 1: no header ``format``, no step ``digest``, and each step
#: with ``bindings``, every value bound so far.
GOLDEN_SHA256 = "1e168d0053e4a082dfb67c4fadca2750407fed62dd2cbf8d4cd4821a07513a05"

#: The same over the format 2 text that ``Trace.to_jsonl`` writes.
GOLDEN_V2_SHA256 = "648961f73e24ad308eda21951654ed8834de5a169bf3119ee1ae6e8ad746ae42"


def _line(value: dict) -> str:
    return json.dumps(value, sort_keys=True, separators=(",", ":")) + "\n"


def _v1_jsonl(trace) -> str:
    """``trace`` as format 1 wrote it, with the bound values rebuilt."""
    text = _line({"run": trace.run_id, "pattern": trace.pattern, "seed": trace.seed})
    for step in trace.steps:
        line = {key: value for key, value in step.to_json().items() if key != "digest"}
        text += _line({**line, "bindings": trace.bindings_at(step.step)})
    footer = {"run": trace.run_id, "steps": len(trace.steps), "outcome": trace.outcome}
    return text + _line(footer)


def test_every_corpus_flow_keeps_its_golden_trace(catalog):
    flows = sorted({*catalog.patterns, *catalog.scenarios})
    assert len(flows) == 44
    digest = hashlib.sha256()
    digest_v2 = hashlib.sha256()
    outcomes: Counter = Counter()
    replayed: Counter = Counter()
    for name in flows:
        for agents_file in ("rl_demo.agents", "robot_demo.agents"):
            agents = parse_agents((AGENTS_DIR / agents_file).read_text())
            try:
                traces = run_scenario(catalog, name, agents, seed=7, repeat=3)
            except LookupError:
                outcomes["no agent"] += 1
                continue
            except ValueError:
                outcomes["check errors"] += 1
                continue
            completed = traces[0].outcome == "completed"
            outcomes["completed" if completed else "aborted"] += 1
            for trace in traces:
                assert replay_check(trace, catalog) == [], trace.run_id
                assert replay_check(trace.to_jsonl(), catalog) == [], trace.run_id
                replayed[trace.outcome == "completed"] += 1
                bound: dict = {}
                for step in trace.steps:  # values bind once: the union of produced
                    bound.update(step.produced)
                    assert trace.bindings_at(step.step) == bound
            for each, traces_text in ((digest, _v1_jsonl), (digest_v2, Trace.to_jsonl)):
                each.update(f"{name}|{agents_file}\n".encode())
                each.update("".join(traces_text(t) for t in traces).encode())
    assert outcomes == {"completed": 5, "aborted": 59, "no agent": 24}
    assert replayed == {True: 15, False: 177}
    assert digest.hexdigest() == GOLDEN_SHA256
    assert digest_v2.hexdigest() == GOLDEN_V2_SHA256


def _agents(agents_file: str) -> dict:
    return parse_agents((AGENTS_DIR / agents_file).read_text())


def test_step_templates_write_what_a_fresh_run_writes(catalog):
    """A flow keeps the template of each step's line from its first run on.
    Runs that reuse them, after an aborted run or interleaved with another
    run, write what runs on a catalog that has run nothing write."""
    shared = dataclasses.replace(catalog)  # runs every flow, keeping its templates
    aborted = completed = 0
    for name in sorted({*catalog.patterns, *catalog.scenarios}):
        for agents_file in ("rl_demo.agents", "robot_demo.agents"):
            agents = _agents(agents_file)
            try:  # each run on a copy of the catalog that has run nothing
                fresh = [
                    run(dataclasses.replace(catalog), name, agents, 7, f"{name}-s7-r{rep}")
                    for rep in range(3)
                ]
            except (LookupError, ValueError):  # no agent for a role, check errors
                continue
            expected = "".join(map(oracles.oracle_to_jsonl, fresh))
            assert "".join(trace.to_jsonl() for trace in fresh) == expected
            mute = run(shared, name, dict.fromkeys(catalog.roles, ScriptedAgent({})))
            aborted += mute.outcome != "completed"
            traces = run_scenario(shared, name, _agents(agents_file), seed=7, repeat=3)
            assert "".join(trace.to_jsonl() for trace in traces) == expected
            completed += traces[0].outcome == "completed"

            flow, taken = shared.flow(name), ([], [])
            runs = [runtime._execute(flow, _agents(agents_file)) for _ in taken]
            for steps in itertools.zip_longest(*runs):  # a step of each in turn
                for kept, step in zip(taken, steps):
                    kept.extend([step] if step else [])
            for kept in taken:
                assert [line for _, line in kept] == fresh[0].to_jsonl().split("\n")[1:-2]
                for (number, verdict), line in kept:
                    assert [json.loads(line)[key] for key in ("step", "verdict")] == [
                        number, verdict
                    ]
    assert (aborted, completed) == (64, 5)


def test_run_scenario_resolves_and_checks_the_flow_once(monkeypatch):
    """``check_catalog`` checks each flow and resolves each message once, and
    keeps them: the runs and replays after it check and resolve nothing."""
    catalog = load([FIXTURES])  # a fresh catalog: nothing checked yet
    calls: Counter = Counter()

    def counted(module, name):
        original = getattr(module, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(module, name, wrapper)

    counted(haiproto.catalog, "check_flow")
    counted(haiproto.check, "resolve_step")
    d1_once = {"check_flow": 1, "resolve_step": len(catalog.resolve_flow("D1").messages)}

    def d1_runs(catalog, repeat):
        agents = parse_agents((AGENTS_DIR / "robot_demo.agents").read_text())
        return run_scenario(catalog, "D1", agents, repeat=repeat)

    flows = sorted({*catalog.patterns, *catalog.scenarios})
    named = {m for name in flows for m in catalog.resolve_flow(name).messages}
    check_catalog(catalog)
    assert dict(calls) == {"check_flow": len(flows), "resolve_step": len(named)}
    calls.clear()
    assert len(d1_runs(catalog, 1)) == 1
    assert dict(calls) == {}
    traces = d1_runs(catalog, 50)
    assert replay_check("".join(trace.to_jsonl() for trace in traces), catalog) == []
    assert dict(calls) == {}
    copy = dataclasses.replace(catalog)  # a copy starts with no checked flow
    assert copy == catalog and len(d1_runs(copy, 1)) == 1
    assert dict(calls) == d1_once


def test_flows_naming_one_message_share_its_step():
    catalog = load([FIXTURES])
    check_catalog(catalog)
    parts = [step for part in catalog.scenarios["D1"] for step in catalog.flow(part).steps]
    steps = catalog.flow("D1").steps
    assert len(steps) == len(parts) == 6
    assert all(step is part for step, part in zip(steps, parts))


@pytest.fixture(scope="module")
def open_scenario(tmp_path_factory):
    """The packaged ``.hai`` files and one scenario, ``S``, made of a pattern
    whose request is excused at pattern scope but open at scenario scope."""
    sidecar = tmp_path_factory.mktemp("open") / "catalog.json"
    sidecar.write_text(json.dumps({"scenarios": {"S": ["new_sample-annotation"]}}))
    return load([*sorted(FIXTURES.glob("*.hai")), sidecar]), str(sidecar)


#: Agents that complete ``new_sample-annotation``: the user offers a sample.
def _open_agents():
    return {"model": ScriptedAgent({}), "user": ScriptedAgent({"Q3.X": ["s1"]})}


def test_check_catalog_checks_a_scenario_at_scenario_scope(open_scenario):
    catalog, sidecar = open_scenario
    (report,) = [r for r in check_catalog(catalog) if r.target == "scenario S"]
    assert [(d.code, d.path) for d in report.diagnostics] == [("E-UNANSWERED", sidecar)]
    assert "request 'Q3'" in report.diagnostics[0].message


def test_run_refuses_an_open_scenario_as_run_scenario_does(open_scenario):
    catalog, _ = open_scenario
    assert run(catalog, "new_sample-annotation", _open_agents()).outcome == "completed"
    with pytest.raises(ValueError) as by_run:
        run(catalog, "S", _open_agents())
    with pytest.raises(ValueError) as by_run_scenario:
        run_scenario(catalog, "S", _open_agents())
    assert str(by_run.value) == str(by_run_scenario.value)
    assert "never answered" in str(by_run.value)


def test_replay_checks_a_scenario_at_scenario_scope(open_scenario):
    catalog, _ = open_scenario
    loose = check_flow(catalog.resolve_flow("S"), catalog.messages, catalog.actions)
    trace = run(catalog, loose, _open_agents())  # checked at pattern scope by hand
    assert (trace.pattern, trace.outcome) == ("S", "completed")
    for recorded in (trace, trace.to_jsonl()):
        (diag,) = replay_check(recorded, catalog)
        assert diag.code == "E-UNANSWERED"
        assert "flow 'S' does not check" in diag.message
