"""Unit tests for payloads, agents, the simulator, and trace replay."""

from __future__ import annotations

import dataclasses
import gc
import json
import math
import random
import tracemalloc

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
from conftest import AGENTS_DIR, FIXTURES
from haiproto import (
    ActionDef,
    AgentBehavior,
    BaseType,
    Blob,
    CheckReport,
    GroupType,
    ListType,
    Message,
    Pattern,
    Payload,
    Role,
    ScriptedAgent,
    StubModelAgent,
    Trace,
    TraceStep,
    Vector,
    check_catalog,
    classify,
    compose,
    load,
    parse,
    parse_agents,
    replay_check,
    run,
    run_scenario,
)
from haiproto import check, core, dsl, runtime
from haiproto.core import coerce_value

LABEL = BaseType(Role.OUTPUT, ("label",))
RAW = BaseType(Role.INPUT, ("raw_data",))


def _env(src: str):
    result = parse(src)
    assert result.file is not None, [d.format() for d in result.diagnostics]
    actions = {
        d.name: d.node for d in result.file.decls if isinstance(d.node, ActionDef)
    }
    messages = {
        d.name: d.node for d in result.file.decls if isinstance(d.node, Message)
    }
    return actions, messages


def _demo_agents():
    return parse_agents((AGENTS_DIR / "robot_demo.agents").read_text())


# ---------------------------------------------------------------------------
# Values and payloads
# ---------------------------------------------------------------------------


def test_vector_coerces_to_floats():
    assert Vector((1, 2)).values == (1.0, 2.0)
    assert isinstance(Vector((1, 2)).values[0], float)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_vector_coordinates_are_finite(bad):
    with pytest.raises(ValueError, match="finite"):
        Vector((0.0, bad))
    with pytest.raises(ValueError, match="finite"):
        Vector((str(bad),))  # coerced first, then checked
    with pytest.raises(ValueError):
        Payload(RAW, bad)
    with pytest.raises(ValueError):
        Payload(ListType(RAW), (1.0, bad))
    with pytest.raises(ValueError, match="finite"):
        StubModelAgent(examples=[((0.0, 0.0), "a"), ((bad, 0.0), "b")])


def test_payload_shape_validation():
    Payload(LABEL, "happy")
    Payload(ListType(LABEL), ("a", "b"))
    Payload(RAW, Vector((0.0,)))
    with pytest.raises(ValueError, match="group"):
        Payload(GroupType((("X", RAW), ("Y", LABEL))), "x")
    with pytest.raises(ValueError):
        Payload(ListType(LABEL), ["a"])  # lists must be tuples
    with pytest.raises(ValueError):
        Payload(ListType(LABEL), ("a", ("b",)))  # no nesting
    with pytest.raises(ValueError):
        Payload(LABEL, ("a",))
    with pytest.raises(ValueError):
        Payload(LABEL, True)


@pytest.mark.parametrize("value", [(True,), ("a", False), (1, math.nan), (object(),), ("a", [])])
def test_a_list_payload_refuses_what_is_no_scalar_past_its_fast_path(value):
    """A tuple of plain ``str``, ``int``, ``Vector`` and ``Blob`` items passes by
    their classes alone; a bool is an int by ``isinstance`` and is refused."""
    Payload(ListType(LABEL), ("a", 1, Vector((0.0,)), Blob("b")))
    with pytest.raises(ValueError):
        Payload(ListType(LABEL), value)


def test_coerce_value_normalizes_lists():
    assert coerce_value([1, [2, 3]]) == (1, (2, 3))
    plain, nested = ("a", (1, 2.5)), ("a", [1])
    assert coerce_value(plain) is plain and coerce_value(nested) == ("a", (1,))
    with pytest.raises(ValueError):
        coerce_value({"not": "supported"})


# ---------------------------------------------------------------------------
# classify
# ---------------------------------------------------------------------------


def test_classify_matches_hand_checked_points():
    for point, expected in oracles.SIX_POINT_EXPECTED.items():
        assert classify(oracles.SIX_POINT_EXAMPLES, point) == expected


def test_classify_breaks_ties_lexicographically():
    assert classify(oracles.TIE_EXAMPLES, oracles.TIE_POINT) == oracles.TIE_EXPECTED


def test_classify_accepts_vectors():
    assert classify(oracles.SIX_POINT_EXAMPLES, Vector((0.0, 0.0))) == "happy"


def test_classify_rejects_bad_input():
    with pytest.raises(ValueError):
        classify([], (0.0, 0.0))
    with pytest.raises(ValueError, match="dimension"):
        classify(oracles.SIX_POINT_EXAMPLES, (0.0, 0.0, 0.0))


def test_classify_turns_an_overflowing_distance_into_value_error():
    with pytest.raises(ValueError, match="overflows"):
        classify([((0.0,), "a")], (1.3407807929942597e154,))
    assert classify([((0.0,), "a")], (1.3407807929942596e154,)) == "a"  # the float below


# ---------------------------------------------------------------------------
# Agents
# ---------------------------------------------------------------------------

AGENT_ENV = """
action offer-vocab(L) := provide(L: [output.label]);
action reply-label(X, Y) := provide(Y: output.label, X: input.fvector) <- map(X, Y);
action give-eval(V) := provide(V: feedback.eval);
action give-sample(X) := provide(X: input.raw_data);
message V1 := model -> user : offer-vocab(L);
message R1 := model -> user : reply-label(S, P);
message F1 := user -> model : give-eval(V);
message S1 := user -> model : give-sample(X);
"""


def test_scripted_agent_consumes_queue_then_repeats_last():
    actions, messages = _env(AGENT_ENV)
    agent = ScriptedAgent({"F1.V": ["first", "second"]})
    needed = {"V": BaseType(Role.FEEDBACK, ("eval",))}
    got = [
        agent.produce(messages["F1"], actions["give-eval"], needed, {})["V"].value
        for _ in range(3)
    ]
    assert got == ["first", "second", "second"]


def test_scripted_agent_hands_back_its_payload_until_its_entry_or_type_changes():
    actions, messages = _env(AGENT_ENV)
    agent = ScriptedAgent({"F1.V": ["first", "second"], "V1.L": [("c", "d"), ["a", "b"]]})
    needed = {"V": BaseType(Role.FEEDBACK, ("eval",))}

    def produce(message="F1", action="give-eval", needed=needed):
        (payload,) = agent.produce(messages[message], actions[action], needed, {}).values()
        return payload

    first, second, again = produce(), produce(), produce()
    assert (first.value, second.value) == ("first", "second") and again is second
    agent.script["F1.V"][-1] = "edited"  # in place: seen at the next produce
    assert produce().value == "edited"
    retyped = produce(needed={"V": dataclasses.replace(needed["V"])})
    assert retyped.value == "edited" and retyped.type is not needed["V"]
    # a list entry may change in place, so it is read each time, as a tuple
    listed = {"L": ListType(LABEL)}
    assert produce("V1", "offer-vocab", listed).value == ("c", "d")
    assert produce("V1", "offer-vocab", listed).value == ("a", "b")
    agent.script["V1.L"][-1].append("c")
    assert produce("V1", "offer-vocab", listed).value == ("a", "b", "c")
    agent.script["V1.L"][-1] = ("e",)  # a tuple entry: served while it stays
    assert produce("V1", "offer-vocab", listed) is produce("V1", "offer-vocab", listed)


def test_scripted_agent_skips_unscripted_variables():
    actions, messages = _env(AGENT_ENV)
    agent = ScriptedAgent({"F1.V": ["x"]})
    assert agent.produce(messages["S1"], actions["give-sample"], {"X": RAW}, {}) == {}


def test_scripted_agent_rejects_empty_queue():
    with pytest.raises(ValueError):
        ScriptedAgent({"F1.V": []})


def test_stub_produces_sorted_vocabulary():
    actions, messages = _env(AGENT_ENV)
    stub = StubModelAgent(labels=("sad", "happy"), examples=[((0.0,), "calm")])
    out = stub.produce(
        messages["V1"], actions["offer-vocab"], {"L": ListType(LABEL)}, {}
    )
    assert out["L"].value == ("calm", "happy", "sad")
    again = stub.produce(messages["V1"], actions["offer-vocab"], {"L": out["L"].type}, {})
    assert again["L"] is out["L"]  # no new label, the same type: the same payload


def test_a_stub_taught_a_new_label_lists_it_at_the_next_a1(catalog):
    agents = _demo_agents()
    agents["user"].script["A2.Y"] = ["happy", "proud"]
    listed = [
        trace.steps[0].produced["L"]["value"]
        for trace in run_scenario(catalog, "D1", agents, repeat=3)
    ]
    assert listed == [["calm", "happy", "sad"]] * 2 + [["calm", "happy", "proud", "sad"]]


def test_stub_classifies_through_a_map_link():
    actions, messages = _env(AGENT_ENV)
    stub = StubModelAgent(examples=oracles.D2_SEED_EXAMPLES)
    binding = {"S": Payload(BaseType(Role.INPUT, ("fvector",)), Vector(oracles.D2_POINT))}
    out = stub.produce(messages["R1"], actions["reply-label"], {"P": LABEL}, binding)
    assert out["P"].value == oracles.D2_EXPECTED_PREDICTION


def test_stub_feedback_and_sample_fallbacks():
    actions, messages = _env(AGENT_ENV)
    stub = StubModelAgent(samples=[Vector((1.0,)), Vector((2.0,))])
    eval_type = BaseType(Role.FEEDBACK, ("eval",))
    out = stub.produce(messages["F1"], actions["give-eval"], {"V": eval_type}, {})
    assert out["V"].value == Blob("eval")
    produce = lambda: stub.produce(
        messages["S1"], actions["give-sample"], {"X": RAW}, {}
    )["X"].value
    assert [produce(), produce(), produce()] == [
        Vector((1.0,)),
        Vector((2.0,)),
        Vector((2.0,)),  # exhausted queues repeat their last value
    ]


def test_stub_without_samples_raises():
    actions, messages = _env(AGENT_ENV)
    stub = StubModelAgent()
    with pytest.raises(RuntimeError):
        stub.produce(messages["S1"], actions["give-sample"], {"X": RAW}, {})


def test_stub_learns_from_annotations(catalog):
    stub = StubModelAgent()
    binding = {
        "X": Payload(BaseType(Role.INPUT, ("raw_data",)), Vector((3.0, 4.0))),
        "Y": Payload(LABEL, "happy"),
    }
    stub.on_receive(catalog.messages["A6"], catalog.actions["annotate-sample"], binding)
    assert stub.examples == [((3.0, 4.0), "happy")]
    # A non-symbolic label is not a training example.
    stub.on_receive(
        catalog.messages["A6"],
        catalog.actions["annotate-sample"],
        {"X": binding["X"], "Y": Payload(BaseType(Role.OUTPUT), Blob("x"))},
    )
    assert len(stub.examples) == 1


# ---------------------------------------------------------------------------
# Agents files
# ---------------------------------------------------------------------------


def test_parse_agents_demo_files():
    agents = _demo_agents()
    assert isinstance(agents["user"], ScriptedAgent)
    assert isinstance(agents["model"], StubModelAgent)
    assert agents["user"].script["A2.Y"] == oracles.D1_SCRIPT_LABELS
    assert agents["model"].labels == ("calm", "happy", "sad")
    rl = parse_agents((AGENTS_DIR / "rl_demo.agents").read_text())
    assert rl["model"].examples == [((0.0, 0.0), "left"), ((10.0, 10.0), "right")]


def test_parse_agents_literal_forms():
    agents = parse_agents(
        """
        [user scripted]
        M.A = "with \\"quotes\\""
        M.B = -2.5
        M.C = vec(1, 2.5)
        M.D = blob(sketch)
        M.E = [1, vec(0, 0), ok-ish]
        """
    )
    script = agents["user"].script
    assert script["M.A"] == ['with "quotes"']
    assert script["M.B"] == [-2.5]
    assert script["M.C"] == [Vector((1.0, 2.5))]
    assert script["M.D"] == [Blob("sketch")]
    assert script["M.E"] == [(1, Vector((0.0, 0.0)), "ok-ish")]


@pytest.mark.parametrize(
    "text, read",
    [
        ('[u scripted]\nA.Y = "ha\x85ppy"\n', {"script": {"A.Y": ["ha\x85ppy"]}}),
        ('[u scripted]\nA.Y = "http://x"  // a comment\n', {"script": {"A.Y": ["http://x"]}}),
        ('[u scripted]\nA.Y = ["a,b"]\n', {"script": {"A.Y": [("a,b",)]}}),
        ('[u stub]\nlabels = "a,b", c\n', {"labels": ("a,b", "c")}),
        ('[u stub]\nexample = vec(1) -> "x->y"\n', {"examples": [((1.0,), "x->y")]}),
        ('[u scripted]\nA.Y = "a" "b"\n', "<agents>:2: cannot parse literal '\"a\" \"b\"'"),
        ('[u scripted]\r\nA.Y = "a\u2028b"  // c\r\n\r\nA.Z = 2\r\n', {"script": {"A.Y": ["a\u2028b"], "A.Z": [2]}}),
    ],
)
def test_parse_agents_reads_a_string_whole(text, read):
    if isinstance(read, str):
        with pytest.raises(ValueError) as caught:
            parse_agents(text)
        assert str(caught.value) == read
    else:
        agent = parse_agents(text)["u"]
        assert {key: getattr(agent, key) for key in read} == read


def _one_name_token(text: str) -> bool:
    try:
        return dsl.tokenize(text)[0] == [text, ""]  # the name, then EOF
    except dsl.LexError:
        return False


@settings(max_examples=150, deadline=None)
@given(name=st.from_regex(dsl._NAME, fullmatch=True).filter(_one_name_token))
@example(name="super-visor")  # a role, a message and a variable the .hai lexer reads
@example(name="Émoi")
@example(name="Y-2")
def test_parse_agents_reads_names_as_the_hai_lexer_does(name):
    agents = parse_agents(f"[{name} scripted]\n{name}.{name} = vec(1.0)\n")
    assert agents[name].script == {f"{name}.{name}": [Vector((1.0,))]}


@pytest.mark.parametrize(
    "text",
    [
        "M.A = 1\n",  # key before any section
        "[user scripted]\n[user scripted]\nM.A = 1\n",
        "[model stub]\nexample = 3 -> happy\n",
        "[model stub]\nmystery = 1\n",
        "[user scripted]\njust a line\n",
        "// only a comment\n",
    ],
)
def test_parse_agents_rejects_malformed(text: str):
    with pytest.raises(ValueError):
        parse_agents(text)


def test_parse_agents_rejects_non_finite_vectors():
    path = AGENTS_DIR / "robot_demo.agents"
    text = path.read_text()
    assert "A4.X = vec(0.0, 0.0)" in text
    bad = text.replace("A4.X = vec(0.0, 0.0)", "A4.X = vec(nan, inf)")
    lineno = bad.splitlines().index("A4.X = vec(nan, inf)") + 1
    with pytest.raises(ValueError) as caught:
        parse_agents(bad, str(path))
    assert str(caught.value) == f"{path}:{lineno}: malformed vector 'vec(nan, inf)'"
    with pytest.raises(ValueError, match="malformed vector"):
        parse_agents("[model stub]\nexample = vec(1.0, -inf) -> happy\n")


@pytest.mark.parametrize("line", ["A2.Y = {}", "A2.Y = [1, {}]", "sample = {}"])
@pytest.mark.parametrize("number", ["9" * 400 + ".5", "-" + "9" * 400 + ".5", "9" * 5000])
def test_parse_agents_reports_a_number_out_of_range_at_its_line(line, number):
    """A float that reads as infinite, or an int of more digits than ``int``
    reads, is refused at its line, as ``vec(...)`` refuses a coordinate."""
    section = "[model stub]" if line.startswith("sample") else "[user scripted]"
    with pytest.raises(ValueError) as caught:
        parse_agents(f"{section}\n{line.format(number)}\n", "big.agents")
    assert str(caught.value) == "big.agents:2: number out of range"
    longest = "9" * 4300  # as many digits as ``int`` reads
    assert parse_agents(f"{section}\n{line.format(longest)}\n")


@pytest.mark.parametrize(
    "line", ["A.X = {}", "sample = {}", "labels = calm, {}", "example = vec(0.0) -> {}"]
)
def test_parse_agents_rejects_deep_nesting(line):
    deep = "[" * 3000 + "]" * 3000
    section = "[model stub]" if line.split()[0] != "A.X" else "[user scripted]"
    with pytest.raises(ValueError, match=r"^deep\.agents:3: literal nested too deeply$"):
        parse_agents(f"{section}\n\n{line.format(deep)}\n", "deep.agents")
    assert parse_agents(f"{section}\n\n{line.format('[[1], []]')}\n")  # not too deep


AGENTS_TEXTS = [path.read_text() for path in sorted(AGENTS_DIR.glob("*.agents"))]
#: What a mutation writes into an ``.agents`` file: its syntax, literals that
#: do not read, and line breaks ``splitlines`` splits at.
AGENTS_PIECES = ["[", "]", "=", "(", ")", ",", "->", "//", '"', "\n", "\u2028", "vec(", "1e999"]


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_mutated_agents_text_gives_agents_or_a_value_error(data):
    text = data.draw(st.sampled_from(AGENTS_TEXTS))
    for _ in range(data.draw(st.integers(1, 4))):
        at, cut = data.draw(st.integers(0, len(text))), data.draw(st.integers(0, 3))
        text = text[:at] + data.draw(st.sampled_from(AGENTS_PIECES)) + text[at + cut :]
    try:
        agents = parse_agents(text)
    except ValueError:
        return
    assert agents and all(isinstance(agent, AgentBehavior) for agent in agents.values())


# ---------------------------------------------------------------------------
# The stub learner against the reference classifier
# ---------------------------------------------------------------------------

LEARN_LABELS = ("a", "b", "c", "d")  # the stub's labels are drawn from b to d
INTEGRAL = st.integers(-3, 3).map(float)  # small grid: exact ties are common
FINITE = st.floats(allow_nan=False, allow_infinity=False)


def _taught(coordinate, dims):
    vector = st.lists(coordinate, min_size=dims, max_size=dims).map(tuple)
    return st.lists(st.tuples(vector, st.sampled_from(LEARN_LABELS)), max_size=25)


@st.composite
def _lessons(draw, coordinate):
    """Stub labels, taught examples, how many of them the constructor takes,
    and a point, all of one length."""
    dims = draw(st.integers(1, 3))
    labels = draw(st.lists(st.sampled_from(LEARN_LABELS[1:]), max_size=3))
    taught = draw(_taught(coordinate, dims))
    given_first = draw(st.integers(0, len(taught)))
    point = draw(st.lists(coordinate, min_size=dims, max_size=dims).map(tuple))
    return labels, taught, given_first, point


def _stub_after(labels, taught, given_first):
    """A stub given the first examples and taught the rest through R1."""
    actions, messages = _env(AGENT_ENV)
    stub = StubModelAgent(labels=labels, examples=taught[:given_first])
    for vec, label in taught[given_first:]:
        binding = {"S": Payload(RAW, Vector(vec)), "P": Payload(LABEL, label)}
        stub.on_receive(messages["R1"], actions["reply-label"], binding)
    return stub


def _predict(stub, point):
    actions, messages = _env(AGENT_ENV)
    binding = {"S": Payload(RAW, Vector(point))}
    out = stub.produce(messages["R1"], actions["reply-label"], {"P": LABEL}, binding)
    return out["P"].value


def _vocabulary(stub):
    actions, messages = _env(AGENT_ENV)
    needed = {"L": ListType(LABEL)}
    return stub.produce(messages["V1"], actions["offer-vocab"], needed, {})["L"].value


def _outcome(call):
    """What ``call()`` returns, or the type and text of what it raises."""
    try:
        return call()
    except Exception as exc:
        return type(exc), str(exc)


def _check_stub(labels, taught, given_first, point):
    stub = _stub_after(labels, taught, given_first)
    assert stub.examples == taught
    assert _vocabulary(stub) == tuple(
        sorted(set(labels) | {label for _, label in taught})
    )
    if not taught:
        return None
    predicted = _outcome(lambda: _predict(stub, point))
    assert predicted == _outcome(lambda: classify(stub.examples, point))
    return predicted


@settings(max_examples=300, deadline=None)
@given(_lessons(INTEGRAL))
def test_stub_matches_classify_and_the_oracle(lesson):
    """On a small integer grid the float arithmetic of the stub, ``classify``
    and the brute-force oracle round alike, so all three agree, ties included."""
    labels, taught, given_first, point = lesson
    predicted = _check_stub(labels, taught, given_first, point)
    if taught:
        assert predicted == oracles.oracle_classify(taught, point)


@settings(max_examples=300, deadline=None)
@given(_lessons(FINITE))
def test_stub_matches_classify_on_any_finite_floats(lesson):
    """Running sums are added in example order, as ``classify`` adds them, so
    the two agree on any finite input: on the label, or on what they raise
    when a sum or a squared distance overflows."""
    _check_stub(*lesson)


def test_stub_raises_what_classify_raises_on_an_overflowing_distance():
    examples, point = [((0.0,), "a")], (1.3407807929942597e154,)
    with pytest.raises(ValueError) as from_classify:
        classify(examples, point)
    for given_first in (0, 1):
        with pytest.raises(ValueError) as from_stub:
            _predict(_stub_after([], examples, given_first), point)
        assert str(from_stub.value) == str(from_classify.value)


def test_stub_adds_examples_in_the_order_taught():
    taught = [((1e16,), "a"), ((-1e16,), "a"), ((1.0,), "a"), ((0.5,), "b")]
    # a's sum is 1.0 in this order and 0.0 in sorted order, which flips the answer
    assert classify(taught, (0.3,)) == "a"
    assert classify(sorted(taught), (0.3,)) == "b"
    for given_first in range(len(taught) + 1):
        assert _predict(_stub_after([], taught, given_first), (0.3,)) == "a"


@settings(max_examples=100, deadline=None)
@given(
    st.lists(st.integers(1, 3), min_size=1, max_size=12),
    st.integers(0, 12),
    st.integers(1, 3),
)
def test_stub_vocabulary_and_predictions_track_every_lesson(dims, given_first, point_dims):
    """After each lesson the vocabulary and prediction are those of the
    examples so far; mixed lengths raise the text ``classify`` raises."""
    taught = [
        (tuple(float(i + d) for d in range(n)), LEARN_LABELS[i % len(LEARN_LABELS)])
        for i, n in enumerate(dims)
    ]
    given_first = min(given_first, len(taught))
    actions, messages = _env(AGENT_ENV)
    stub = StubModelAgent(labels=("c",), examples=taught[:given_first])
    point = tuple(float(d) for d in range(point_dims))
    for count in range(given_first, len(taught) + 1):
        assert stub.examples == taught[:count]
        assert _vocabulary(stub) == tuple(
            sorted({"c"} | {label for _, label in taught[:count]})
        )
        if count:
            assert _outcome(lambda: _predict(stub, point)) == _outcome(
                lambda: classify(stub.examples, point)
            )
        if count < len(taught):
            vec, label = taught[count]
            binding = {"S": Payload(RAW, Vector(vec)), "P": Payload(LABEL, label)}
            stub.on_receive(messages["R1"], actions["reply-label"], binding)


def test_stub_dimension_mismatch_names_the_first_misfit(catalog):
    taught = [((1.0, 2.0), "a"), ((1.0, 2.0, 3.0), "b"), ((1.0,), "a")]
    stub = StubModelAgent(examples=taught)
    for point, first in [((0.0, 0.0), 3), ((0.0,), 2), ((0.0, 0.0, 0.0), 2)]:
        text = f"dimension mismatch: example has {first} coordinates, point has {len(point)}"
        for predict in (lambda: classify(taught, point), lambda: _predict(stub, point)):
            with pytest.raises(ValueError) as caught:
                predict()
            assert str(caught.value) == text
    # in a run, the same text is the V-AGENT detail
    user = ScriptedAgent({"A2.Y": ["a"], "A4.X": [Vector((4.0, 4.0))], "PE2.V": ["x"]})
    (trace,) = run_scenario(catalog, "D2", {"user": user, "model": stub})
    assert trace.outcome == {"aborted": {"code": "V-AGENT", "step": 5}}
    assert trace.steps[4].detail == (
        "producer failed: dimension mismatch: example has 3 coordinates, point has 2"
    )


# ---------------------------------------------------------------------------
# Running patterns and scenarios
# ---------------------------------------------------------------------------


def test_run_scenario_d1_follows_the_script(catalog):
    traces = run_scenario(catalog, "D1", _demo_agents(), seed=7, repeat=6)
    assert [t.run_id for t in traces] == [f"D1-s7-r{i}" for i in range(6)]
    for rep, trace in enumerate(traces):
        assert trace.outcome == "completed"
        assert [s.message for s in trace.steps] == oracles.D1_MESSAGE_SEQUENCE
        select = trace.steps[1]
        assert select.produced["Y"]["value"] == oracles.D1_SCRIPT_LABELS[rep]
        annotate = trace.steps[5]
        assert annotate.produced == {}  # label and sample are already bound
        assert trace.bindings_at(annotate.step)["X"]["value"] == {
            "vec": list(oracles.D1_SCRIPT_POINTS[rep])
        }


def test_run_scenario_trains_the_stub(catalog):
    agents = _demo_agents()
    run_scenario(catalog, "D1", agents, seed=7, repeat=6)
    assert agents["model"].examples == [
        (point, label) for point, label in oracles.SIX_POINT_EXAMPLES
    ]


def _teach(params: str, vector: str, predict: str) -> str:
    return f"""
action show(X) := provide(X: input.fvector);
action annotate{params} := provide(Y: output.label, X: input.fvector) <- map(X, Y);
message S := user -> model : show({vector});
message T := user -> model : annotate(V, L);
message S2 := user -> model : show(W);
message P := model -> user : annotate{predict};
pattern teach := [S, T, S2, P];
"""


def test_one_stub_on_catalogs_that_pair_names_differently_acts_as_fresh_stubs(tmp_path):
    """Message T pairs action annotate's parameters with V and L one way in one
    catalog and the other way in the other, so V is the vector in one and the
    label in the other.  The model learns from T and predicts P's label M."""
    runs = []
    for params, vector, label, predict, point, name in (
        ("(X, Y)", "V", "L", "(W, M)", (1.0, 2.0), "happy"),
        ("(Y, X)", "L", "V", "(M, W)", (8.0, 9.0), "sad"),
    ):
        (tmp_path / label).mkdir()
        (tmp_path / label / "teach.hai").write_text(_teach(params, vector, predict))
        script = {f"S.{vector}": [Vector(point)], f"T.{label}": [name], "S2.W": [Vector(point)]}
        runs.append((load([tmp_path / label]), script, point, name))
    shared = StubModelAgent(labels=["calm"], examples=[((0.0, 0.0), "calm")])
    for catalog, script, point, name in runs + runs:  # each catalog twice, in turn
        fresh = StubModelAgent(labels=["calm"], examples=shared.examples)
        written = [
            run(catalog, "teach", {"user": ScriptedAgent(script), "model": stub}).to_jsonl()
            for stub in (shared, fresh)
        ]
        assert written[0] == written[1] and shared.examples == fresh.examples
        assert shared.examples[-1] == (point, name)  # learned from T
        *_, predicted, outcome = map(json.loads, written[0].splitlines())
        assert predicted["produced"]["M"]["value"] == name
        assert outcome["outcome"] == "completed"


def test_runs_are_deterministic(catalog):
    first = [
        t.to_jsonl() for t in run_scenario(catalog, "D1", _demo_agents(), 7, repeat=3)
    ]
    second = [
        t.to_jsonl() for t in run_scenario(catalog, "D1", _demo_agents(), 7, repeat=3)
    ]
    assert first == second


def test_run_scenario_repeat_zero(catalog):
    assert run_scenario(catalog, "D1", _demo_agents(), repeat=0) == []


class _Rebuilt(AgentBehavior):
    """``agent``'s payloads, each rebuilt every time as an equal new payload of
    a value read back from its JSON, or handed back as the first payload equal
    to it that this agent saw (``same``)."""

    def __init__(self, agent: AgentBehavior, same: bool):
        self.agent, self.same, self.seen = agent, same, {}

    def produce(self, message, action, needed, binding):
        out = {}
        for var, p in self.agent.produce(message, action, needed, binding).items():
            if self.same:
                key = (message.name, var, runtime._dump(p.to_json()))  # type-strict: 1 is not 1.0
                out[var] = self.seen.setdefault(key, p)
            else:
                value = json.loads(json.dumps(core._value_json(p.value)))
                out[var] = Payload(p.type, core._value_from_json(value))
        return out

    def on_receive(self, message, action, binding):
        self.agent.on_receive(message, action, binding)


def _taught_and_asked(catalog, agents) -> list[str]:
    return [
        trace.to_jsonl() for flow, repeat in (("D1", 8), ("D2", 3), ("D1", 2))
        for trace in run_scenario(catalog, flow, agents, seed=4, repeat=repeat)
    ]


def test_payloads_handed_back_and_rebuilt_write_the_same_traces(catalog):
    written = []
    for same in (True, False):
        agents = {role: _Rebuilt(agent, same) for role, agent in _demo_agents().items()}
        written.append(_taught_and_asked(catalog, agents))
    agents = _demo_agents()
    one_by_one = [  # no scenario: each run alone
        run(catalog, flow, agents, seed=4, run_id=f"{flow}-s4-r{rep}").to_jsonl()
        for flow, repeat in (("D1", 8), ("D2", 3), ("D1", 2)) for rep in range(repeat)
    ]
    assert written[0] == written[1] == one_by_one


def test_a_script_entry_replaced_between_scenarios_is_written(catalog):
    agents = _demo_agents()
    before = run_scenario(catalog, "D1", agents, repeat=8)  # the last A2.Y repeats
    agents["user"].script["A2.Y"][-1] = "happy"
    after = run_scenario(catalog, "D1", agents, repeat=2)
    assert [t.steps[1].produced["Y"]["value"] for t in before[-2:] + after] == [
        "calm", "calm", "happy", "happy"
    ]


def test_agent_sets_alternating_on_one_catalog_write_what_fresh_catalogs_write(catalog):
    texts = [
        (AGENTS_DIR / "robot_demo.agents").read_text(),
        (AGENTS_DIR / "robot_demo.agents").read_text().replace('"happy"', '"proud"'),
    ]
    shared = [parse_agents(text) for text in texts]
    alone = [parse_agents(text) for text in texts]
    for _ in range(3):  # the two sets take turns on one catalog
        for agents, fresh in zip(shared, alone):
            got = _taught_and_asked(catalog, agents)
            assert got == _taught_and_asked(load([FIXTURES]), fresh)


def test_d2_surfaces_a_disagreement(catalog):
    user = ScriptedAgent(
        {
            "A2.Y": [oracles.D2_USER_LABEL],
            "A4.X": [Vector(oracles.D2_POINT)],
            "PE2.V": ["reject"],
        }
    )
    model = StubModelAgent(examples=oracles.D2_SEED_EXAMPLES)
    (trace,) = run_scenario(catalog, "D2", {"user": user, "model": model})
    assert trace.outcome == "completed"
    prediction = trace.steps[4]
    assert prediction.message == "PE1"
    assert prediction.produced["P"]["value"] == oracles.D2_EXPECTED_PREDICTION
    assert trace.steps[1].produced["Y"]["value"] == oracles.D2_USER_LABEL
    assert trace.steps[5].produced["V"]["value"] == "reject"


def test_predictions_at_scale_equal_classify(catalog):
    """D1 x300 then D2 x30: every PE1 prediction is ``classify`` over what the
    stub was taught.  Seeded decimal vectors make the sums round, so the
    order in which they are added matters."""
    rng = random.Random(0x5CA1E)
    extra = []
    for _ in range(330 - len(oracles.D1_SCRIPT_POINTS)):
        x, y = (round(rng.uniform(-5.0, 15.0), 3) for _ in range(2))
        extra.append(f'A2.Y = "{rng.choice(("calm", "happy", "sad"))}"')
        extra.append(f"A4.X = vec({x}, {y})")
    text = (AGENTS_DIR / "robot_demo.agents").read_text().replace(
        "PE2.V =", "\n".join(extra) + "\nPE2.V =", 1
    )
    agents = parse_agents(text)
    stub = agents["model"]
    run_scenario(catalog, "D1", agents, repeat=300)
    assert len(stub.examples) == 300
    predictions = []
    for trace in run_scenario(catalog, "D2", agents, repeat=30):
        assert trace.outcome == "completed"
        (step,) = [s for s in trace.steps if s.message == "PE1"]
        x = trace.bindings_at(step.step)["X"]["value"]["vec"]
        predictions.append(step.produced["P"]["value"])
        assert predictions[-1] == classify(stub.examples, x)
    assert len(stub.examples) == 300
    assert len(set(predictions)) > 1


def test_run_accepts_anonymous_patterns(catalog):
    flow = Pattern("solo-request", ("A5",), frozenset())
    agents = {"user": ScriptedAgent({"X.X": ["x"]}), "model": StubModelAgent(
        samples=[Vector((0.0, 0.0))]
    )}
    trace = run(catalog, flow, agents)
    assert trace.pattern == "solo-request"
    assert trace.run_id == "solo-request-s0-r0"
    assert trace.outcome == "completed"


def test_an_ad_hoc_pattern_resolves_no_message_the_catalog_resolved(catalog, monkeypatch):
    fresh = dataclasses.replace(catalog)  # a copy with no flow checked
    check_catalog(fresh)
    resolved, resolve_step = [], check.resolve_step
    monkeypatch.setattr(
        check, "resolve_step", lambda message, *args: resolved.append(message.name)
        or resolve_step(message, *args)
    )
    ad_hoc = Pattern("ad-hoc", fresh.flow("D1").pattern.messages, frozenset())
    assert run(fresh, ad_hoc, _demo_agents()).outcome == "completed"
    assert compose(fresh, fresh.scenarios["D1"])[1].errors == ()
    assert resolved == []


def test_run_rejects_flows_with_check_errors(catalog):
    with pytest.raises(ValueError, match="unknown message"):
        run(catalog, Pattern("bad", ("nosuch",), frozenset()), {})


def test_the_runs_of_a_flow_read_its_errors_once(catalog, monkeypatch):
    reads, errors = [], CheckReport.errors
    monkeypatch.setattr(
        CheckReport, "errors", property(lambda report: reads.append(report) or errors.fget(report))
    )
    traces = run_scenario(dataclasses.replace(catalog), "D1", _demo_agents(), repeat=50)
    assert len(traces) == 50 and len(reads) <= 1


def test_run_requires_an_agent_per_role(catalog):
    with pytest.raises(LookupError, match="no agent for role 'model'"):
        run(catalog, "sample-annotation", {"user": ScriptedAgent({"A6.Y": ["x"]})})


# ---------------------------------------------------------------------------
# Violations
# ---------------------------------------------------------------------------


class _Custom(AgentBehavior):
    """Produces whatever the test says, ignoring what is needed."""

    def __init__(self, make):
        self.make = make

    def produce(self, message, action, needed, binding):
        return self.make(needed, binding)


def _run_sample_annotation(catalog, model, user):
    return run(catalog, "sample-annotation", {"model": model, "user": user})


def test_agents_cannot_assign_into_the_binding(catalog):
    def assign(needed, binding):
        binding["X"] = Payload(RAW, Vector((0.0, 0.0)))
        return {}

    trace = _run_sample_annotation(catalog, _Custom(assign), ScriptedAgent({}))
    assert trace.outcome == {"aborted": {"step": 1, "code": "V-AGENT"}}
    assert "does not support item assignment" in trace.steps[0].detail

    class Receiver(AgentBehavior):
        def on_receive(self, message, action, binding):
            del binding["X"]

    model = StubModelAgent(samples=[Vector((0.0, 0.0))])
    trace = _run_sample_annotation(catalog, model, Receiver())
    assert trace.outcome == {"aborted": {"step": 1, "code": "V-AGENT"}}
    assert "receiver failed" in trace.steps[0].detail
    assert trace.bindings_at(1) == trace.steps[0].produced != {}


def test_agent_exception_aborts_with_v_agent(catalog):
    trace = _run_sample_annotation(
        catalog, StubModelAgent(), ScriptedAgent({"A6.Y": ["x"]})
    )
    assert trace.outcome == {"aborted": {"step": 1, "code": "V-AGENT"}}
    assert trace.steps[0].verdict == "V-AGENT"
    assert "producer failed" in trace.steps[0].detail
    assert len(trace.steps) == 1


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_non_finite_values_abort_with_v_agent(catalog, bad):
    for make in (lambda: Vector((0.0, bad)), lambda: bad):
        model = _Custom(lambda needed, binding: {"X": Payload(RAW, make())})
        trace = _run_sample_annotation(catalog, model, ScriptedAgent({"A6.Y": ["x"]}))
        assert trace.outcome == {"aborted": {"step": 1, "code": "V-AGENT"}}
        assert trace.steps[0].detail.startswith("producer failed: ")
        assert "NaN" not in trace.to_jsonl() and "Infinity" not in trace.to_jsonl()


def test_stray_variable_aborts_with_v_agent(catalog):
    model = _Custom(lambda needed, binding: {
        "Z": Payload(RAW, Vector((0.0, 0.0)))
    })
    trace = _run_sample_annotation(catalog, model, ScriptedAgent({"A6.Y": ["x"]}))
    assert trace.outcome == {"aborted": {"step": 1, "code": "V-AGENT"}}
    assert "not a variable" in trace.steps[0].detail


def test_producing_the_request_head_is_v_agent(catalog):
    model = _Custom(lambda needed, binding: {
        "X": Payload(RAW, Vector((0.0, 0.0))),
        "Y": Payload(LABEL, "early"),  # the head of a request is not the asker's to give
    })
    trace = _run_sample_annotation(catalog, model, ScriptedAgent({"A6.Y": ["x"]}))
    assert trace.outcome == {"aborted": {"step": 1, "code": "V-AGENT"}}
    assert "may not produce" in trace.steps[0].detail


def test_rebinding_a_value_is_v_rebind(catalog):
    model = StubModelAgent(samples=[Vector((0.0, 0.0))])
    user = _Custom(lambda needed, binding: {
        "Y": Payload(LABEL, "happy"),
        "X": Payload(RAW, Vector((9.0, 9.0))),  # X was bound at step 1
    })
    trace = _run_sample_annotation(catalog, model, user)
    assert trace.outcome == {"aborted": {"step": 2, "code": "V-REBIND"}}


def test_reproducing_the_same_value_is_allowed(catalog):
    model = StubModelAgent(samples=[Vector((0.0, 0.0))])
    user = _Custom(lambda needed, binding: {
        "Y": Payload(needed["Y"], "happy"),
        "X": binding["X"],
    })
    trace = _run_sample_annotation(catalog, model, user)
    assert trace.outcome == "completed"


def test_missing_production_is_v_missing(catalog):
    model = StubModelAgent(samples=[Vector((0.0, 0.0))])
    trace = _run_sample_annotation(catalog, model, ScriptedAgent({"A2.Y": ["x"]}))
    assert trace.outcome == {"aborted": {"step": 2, "code": "V-MISSING"}}
    assert trace.steps[1].verdict == "V-MISSING"


def test_wrongly_typed_payload_is_v_type(catalog):
    model = _Custom(lambda needed, binding: {
        "X": Payload(BaseType(Role.FEEDBACK), Blob("oops"))
    })
    trace = _run_sample_annotation(catalog, model, ScriptedAgent({"A6.Y": ["x"]}))
    assert trace.outcome == {"aborted": {"step": 1, "code": "V-TYPE"}}
    assert "expects" in trace.steps[0].detail


def test_violation_precedence_agent_before_missing(catalog):
    # A stray variable and a missing one at the same step: the agent fault wins.
    model = _Custom(lambda needed, binding: {
        "Z": Payload(RAW, Vector((0.0, 0.0)))
    })
    trace = _run_sample_annotation(catalog, model, ScriptedAgent({"A6.Y": ["x"]}))
    assert trace.outcome == {"aborted": {"step": 1, "code": "V-AGENT"}}


def test_violation_precedence_rebind_before_missing(catalog):
    model = StubModelAgent(samples=[Vector((0.0, 0.0))])
    user = _Custom(lambda needed, binding: {
        "X": Payload(RAW, Vector((5.0, 5.0)))  # rebind, while Y stays missing
    })
    trace = _run_sample_annotation(catalog, model, user)
    assert trace.outcome == {"aborted": {"step": 2, "code": "V-REBIND"}}


class _Bent(AgentBehavior):
    """The robot demo's user, with what it produces for ``A2`` bent by ``bend``."""

    def __init__(self, bend):
        self.user, self.bend = _demo_agents()["user"], bend

    def produce(self, message, action, needed, binding):
        produced = self.user.produce(message, action, needed, binding)
        return self.bend(produced) if message.name == "A2" else produced


def _run_bent_d1(catalog, bend):
    trace = run(catalog, "D1", {**_demo_agents(), "user": _Bent(bend)})
    assert trace.outcome == {"aborted": {"step": 2, "code": "V-AGENT"}}
    assert replay_check(trace, catalog) == []
    return trace.steps[1].detail


@pytest.mark.parametrize(
    "value", [10**5000, Blob(object()), Blob(math.nan)], ids=["long int", "object", "NaN"]
)
def test_a_value_the_trace_cannot_write_aborts_with_v_agent(catalog, value):
    """An int too long to print, or a blob that JSON cannot hold, is the
    agent's fault, recorded at its step: the trace writes and replays."""
    bend = lambda produced: {"Y": Payload(produced["Y"].type, value)}
    assert _run_bent_d1(catalog, bend).startswith("the trace cannot write a value: ")


def test_a_produced_value_that_is_no_payload_aborts_with_v_agent(catalog):
    assert _run_bent_d1(catalog, lambda produced: {"Y": produced["Y"].value}) == (
        "agent produced 'Y' as a str"
    )
    # an agent fault, so it wins over the variable that a list leaves missing
    assert _run_bent_d1(catalog, lambda produced: {"L": ["happy"]}) == (
        "agent produced 'L' as a list"
    )


def test_a_produced_key_that_is_no_variable_name_aborts_with_v_agent(catalog):
    assert _run_bent_d1(catalog, lambda produced: {**produced, 2: produced["Y"]}) == (
        "agent produced 2, not a variable of 'A2'"
    )
    assert _run_bent_d1(catalog, lambda produced: {"Z": 1, None: produced["Y"]}) == (
        "agent produced None, not a variable of 'A2'"
    )


# ---------------------------------------------------------------------------
# Traces and replay
# ---------------------------------------------------------------------------


def test_trace_jsonl_round_trip(catalog):
    (trace,) = run_scenario(catalog, "D1", _demo_agents(), seed=3)
    text = trace.to_jsonl()
    lines = text.splitlines()
    assert lines[0] == '{"format":2,"pattern":"D1","run":"D1-s3-r0","seed":3}'
    assert lines[-1] == '{"outcome":"completed","run":"D1-s3-r0","steps":6}'
    assert Trace.from_jsonl(text) == trace
    assert replay_check(text, catalog) == []
    assert replay_check(trace, catalog) == []
    assert replay_check(lines, catalog) == []


def _flat_run(directory, length: int):
    """Run a flow of ``length`` provides, each binding its own vector."""
    directory.mkdir()
    names = [f"G{k}" for k in range(1, length + 1)]
    text = "action give(X) := provide(X: input.raw_data);\n"
    text += "".join(f"message {m} := user -> model : give(X{m});\n" for m in names)
    text += f"pattern flat := [{', '.join(names)}];\n"
    (directory / "flat.hai").write_text(text)
    script = {f"{m}.X{m}": [Vector((0.125 * k, -1.5))] for k, m in enumerate(names)}
    agents = {"user": ScriptedAgent(script), "model": ScriptedAgent({})}
    catalog = load([directory])
    trace = run(catalog, "flat", agents)
    assert trace.outcome == "completed" and len(trace.steps) == length
    return catalog, trace, agents


def _longest_step_line(directory, length: int) -> int:
    _, trace, _ = _flat_run(directory, length)
    return max(len(line) for line in trace.to_jsonl().splitlines()[1:-1])


def test_trace_step_lines_do_not_grow_with_the_flow(tmp_path):
    short = _longest_step_line(tmp_path / "short", 10)
    assert _longest_step_line(tmp_path / "long", 1000) < 2 * short


def test_replay_memory_follows_the_values_bound_not_the_trace(tmp_path):
    steps = 8000
    catalog, trace, _ = _flat_run(tmp_path / "flat", steps)
    text = trace.to_jsonl()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        assert replay_check(text, catalog) == []
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert peak / steps <= 1000, f"{peak / steps:.0f} B per step"


JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.text()
    | st.floats(allow_nan=False, allow_infinity=False),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=5), inner, max_size=4),
    max_leaves=12,
)
_CANONICAL = json.JSONEncoder(sort_keys=True, separators=(",", ":"), allow_nan=False).encode


@given(JSON)
def test_dump_is_the_canonical_encoder(value):
    assert runtime._dump(value) == _CANONICAL(value)


def test_dump_refuses_non_finite_numbers_with_or_without_the_c_encoder(monkeypatch):
    for make in (json.encoder.c_make_encoder, None):  # the encoder looks it up per call
        monkeypatch.setattr(json.encoder, "c_make_encoder", make)
        assert runtime._dump({"b": [1, 2.5, True, None], "a": "\u00e9"}) == (
            '{"a":"\\u00e9","b":[1,2.5,true,null]}'
        )
        for bad in (math.nan, math.inf, -math.inf):
            for value in (bad, [bad], {"x": {"y": bad}}):
                with pytest.raises(ValueError, match="^a number is not finite"):
                    runtime._dump(value)
        cycle: list = []
        cycle.append(cycle)
        with pytest.raises(RecursionError):  # kept no record of the containers it is in
            runtime._dump(cycle)


class _Int(int):
    def __repr__(self) -> str:  # the encoder writes an int's own text, not this
        return "not JSON"


class _Str(str):
    pass


_ODD = st.sampled_from(["\u2028", "\ud800", "a\udfff", "\u00e9\u6f22", '"\\\x00'])
_TEXT = st.text() | _ODD | (st.text() | _ODD).map(_Str)
_NUMBER = (
    st.integers() | st.integers(min_value=2**63, max_value=2**200) | st.integers().map(_Int)
    | st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from([-0.0, 5e-324, 1e16])
)
_FINITE = st.floats(allow_nan=False, allow_infinity=False)
_SCALAR = (
    _TEXT | _NUMBER | st.lists(_FINITE, max_size=3).map(lambda v: Vector(tuple(v)))
    | _TEXT.map(Blob)
)
_BASES = [RAW, LABEL, BaseType(Role.FEEDBACK), BaseType(Role.INPUT, ("raw_data", "x"))]
_PAYLOAD = st.one_of(
    st.builds(Payload, st.sampled_from(_BASES), _SCALAR),
    st.builds(
        Payload, st.sampled_from(_BASES).map(ListType), st.lists(_SCALAR, max_size=3).map(tuple)
    ),
)


@given(st.recursive(_SCALAR, lambda inner: st.lists(inner, max_size=3).map(tuple), max_leaves=8))
def test_the_value_encoder_writes_what_the_canonical_encoder_writes(value):
    assert runtime._text(value) == runtime._dump(runtime._value_json(value))


@settings(max_examples=200, deadline=None)
@given(st.dictionaries(_TEXT, st.tuples(_PAYLOAD, st.sampled_from(["own", "equal", "other"]))))
def test_a_steps_produced_text_is_the_canonical_json_of_its_payloads(entries):
    """A payload of the needed type's very object is written after that type's
    prefix; one of an equal type, or another, takes the encoder."""
    needed_as = {
        "own": lambda typ: typ,
        "equal": dataclasses.replace,
        "other": lambda typ: BaseType(Role.OUTPUT, ("other",)),
    }
    (needed,) = runtime._needed([[(var, needed_as[how](p.type)) for var, (p, how) in entries.items()]])
    produced = {var: payload for var, (payload, _) in entries.items()}
    expected = runtime._dump({var: payload.to_json() for var, payload in produced.items()})
    assert runtime._produced(needed, produced) == expected
    # With a memo: written, then served, and a memo's entry is written only for
    # the very value at the needed type's very object.
    memo = [object(), None] * len(needed)
    assert runtime._produced(needed, produced, memo) == expected
    assert runtime._produced(needed, produced, memo) == expected
    memo[1::2] = ["poisoned"] * len(needed)
    served = runtime._produced(needed, produced, memo)
    assert ("poisoned" in served) == any(how == "own" for _, how in entries.values())
    retyped = {var: Payload(dataclasses.replace(p.type), p.value) for var, p in produced.items()}
    assert runtime._produced(needed, retyped, memo) == expected  # equal types: the encoder


def _tracked(objects) -> int:
    """How many objects the garbage collector tracks among ``objects`` and all
    they hold, classes aside."""
    seen, todo = set(), list(objects)
    while todo:
        obj = todo.pop()
        if id(obj) not in seen and not isinstance(obj, type):
            seen.add(id(obj))
            todo.extend(o for o in gc.get_referents(obj) if gc.is_tracked(o))
    return len(seen)


def test_a_finished_run_keeps_no_tracked_object_per_step(catalog, tmp_path):
    per_trace = []
    for repeat in (4, 32):
        traces = run_scenario(catalog, "D1", _demo_agents(), repeat=repeat)
        gc.collect()
        lines = [line for trace in traces for line in vars(trace)["_lines"]]
        assert len(lines) == 6 * repeat and not any(map(gc.is_tracked, lines))
        per_trace.append(_tracked(traces) / repeat)
    assert per_trace[0] == per_trace[1] < 6  # whatever a trace holds, it is not per step
    # Nor does the flow, shared by every run of it, keep anything of a scenario's runs.
    kept_on_flow = []
    for length in (10, 200):
        flat, _, agents = _flat_run(tmp_path / str(length), length)  # the flow's plan is made
        gc.collect()
        before = _tracked([flat.flow("flat")])
        assert len(run_scenario(flat, "flat", agents, repeat=3)) == 3
        gc.collect()
        kept_on_flow.append(_tracked([flat.flow("flat")]) - before)
    assert kept_on_flow == [0, 0]


def _instances(cls) -> int:
    return sum(type(obj) is cls for obj in gc.get_objects())


def test_a_run_builds_no_step_record_until_its_steps_are_read(catalog, monkeypatch):
    calls = []
    for owner, name in [
        (runtime, "_value_json"), (core, "_value_json"), (runtime, "_dump"), (Payload, "to_json")
    ]:
        original = getattr(owner, name)
        monkeypatch.setattr(owner, name, lambda *a, f=original, n=name: calls.append(n) or f(*a))
    gc.collect()
    before = _instances(TraceStep)
    traces = run_scenario(catalog, "D1", _demo_agents(), repeat=3)
    text = "".join(trace.to_jsonl() for trace in traces)
    assert (calls, _instances(TraceStep)) == ([], before)
    assert all("steps" not in vars(trace) for trace in traces)
    steps = traces[1].steps
    assert len(steps) == 6 and _instances(TraceStep) == before + 6
    assert traces[1].steps is steps  # read once, then kept
    assert Trace.all_from_jsonl(text) == traces


def test_a_run_trace_reads_as_a_trace_built_from_its_steps(catalog):
    (trace,) = run_scenario(catalog, "D1", _demo_agents(), seed=5)
    built = Trace(trace.run_id, trace.pattern, trace.seed, trace.steps, trace.outcome)
    assert [f.name for f in dataclasses.fields(Trace)] == [
        "run_id", "pattern", "seed", "steps", "outcome"
    ]
    assert built == trace and repr(built) == repr(trace)
    assert built.to_jsonl() == trace.to_jsonl() == dataclasses.replace(trace).to_jsonl()
    edited = dataclasses.replace(trace, steps=trace.steps[:2])
    assert edited.to_jsonl().splitlines()[1:3] == trace.to_jsonl().splitlines()[1:3]
    assert edited.to_jsonl().endswith('"steps":2}\n') and edited != trace


def test_trace_from_jsonl_needs_header_and_outcome():
    with pytest.raises(ValueError):
        Trace.from_jsonl('{"run":"x","pattern":"p","seed":0}\n')


def test_multi_run_trace_files_read_back(catalog):
    traces = run_scenario(catalog, "D1", _demo_agents(), seed=7, repeat=3)
    text = "".join(trace.to_jsonl() for trace in traces)
    assert Trace.all_from_jsonl(text) == traces
    assert replay_check(text, catalog) == []
    with pytest.raises(ValueError, match="found 3"):
        Trace.from_jsonl(text)
    last = text.count("\n") + 1  # the header that no outcome line follows
    with pytest.raises(ValueError, match=f"^line {last}: trace ends without an outcome line$"):
        Trace.all_from_jsonl(text + '{"run":"x","pattern":"p","seed":0}\n\n')


def test_replay_check_catches_tampered_payload_types(catalog):
    (trace,) = run_scenario(catalog, "D1", _demo_agents())
    step = trace.steps[1]
    tampered = step._replace(
        produced={"Y": {"type": "feedback.eval", "value": {"blob": "x"}}}
    )
    bad = dataclasses.replace(
        trace, steps=trace.steps[:1] + (tampered,) + trace.steps[2:]
    )
    diags = replay_check(bad, catalog)
    assert [d.code for d in diags] == ["E-BINDING"]
    assert "step 2" in diags[0].message


def test_replay_check_flags_unknown_messages(catalog):
    (trace,) = run_scenario(catalog, "D1", _demo_agents())
    tampered = trace.steps[0]._replace(message="ZZ")
    bad = dataclasses.replace(trace, steps=(tampered,) + trace.steps[1:])
    assert [d.code for d in replay_check(bad, catalog)] == ["E-UNRESOLVED"]


def test_aborted_runs_still_serialize(catalog):
    trace = _run_sample_annotation(
        catalog, StubModelAgent(), ScriptedAgent({"A6.Y": ["x"]})
    )
    parsed = Trace.from_jsonl(trace.to_jsonl())
    assert parsed.outcome == {"aborted": {"step": 1, "code": "V-AGENT"}}
    assert parsed == trace


def _raise(message):
    def make(needed, binding):
        raise RuntimeError(message)

    return make


FEEDBACK = BaseType(Role.FEEDBACK)

#: Agents for sample-annotation that complete, or abort with each verdict,
#: given a vector and a label; each verdict's detail carries one of them.
_OUTCOMES = {
    "completed": lambda x, label: (
        _Custom(lambda needed, binding: {"X": Payload(RAW, Vector(x))}),
        ScriptedAgent({"A6.Y": [label]}),
    ),
    "V-AGENT": lambda x, label: (_Custom(_raise(label)), ScriptedAgent({})),
    "V-REBIND": lambda x, label: (
        _Custom(lambda needed, binding: {"X": Payload(RAW, Vector(x))}),
        _Custom(lambda needed, binding: {
            "Y": Payload(LABEL, label),
            "X": Payload(RAW, Vector((*x, 0.0))),
        }),
    ),
    "V-MISSING": lambda x, label: (
        _Custom(lambda needed, binding: {"X": Payload(RAW, Vector(x))}),
        ScriptedAgent({"A2.Y": [label]}),
    ),
    "V-TYPE": lambda x, label: (
        _Custom(lambda needed, binding: {"X": Payload(FEEDBACK, Blob(label))}),
        ScriptedAgent({}),
    ),
}

_FLOATS = st.floats(allow_nan=False, allow_infinity=False)


@settings(max_examples=60, deadline=None)
@given(
    outcome=st.sampled_from(sorted(_OUTCOMES)),
    x=st.lists(_FLOATS, min_size=1, max_size=3).map(tuple),
    label=st.text(max_size=8),
)
def test_trace_lines_equal_the_per_line_encoder(catalog, outcome, x, label):
    trace = _run_sample_annotation(catalog, *_OUTCOMES[outcome](x, label))
    code = trace.outcome if outcome == "completed" else trace.outcome["aborted"]["code"]
    assert code == outcome
    assert (outcome == "completed") == (trace.steps[-1].detail is None)
    expected = oracles.oracle_to_jsonl(trace)
    assert trace.to_jsonl() == expected
    assert dataclasses.replace(trace).to_jsonl() == expected  # no kept text


_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=6,
)


def _written(write, trace):
    try:
        return write(trace)
    except Exception as exc:  # noqa: BLE001 - the type is what must agree
        return type(exc)


@settings(max_examples=200, deadline=None)
@given(
    fields=st.lists(st.fixed_dictionaries({
        name: _JSON for name in
        ("step", "message", "sender", "receiver", "action", "produced", "digest", "verdict")
    }, optional={"detail": _JSON}), max_size=3),
    header=st.tuples(_JSON, _JSON, _JSON, _JSON),
)
def test_hand_built_traces_write_as_the_per_line_encoder(fields, header):
    run_id, pattern, seed, outcome = header
    trace = Trace(run_id, pattern, seed, tuple(TraceStep(**f) for f in fields), outcome)
    assert _written(Trace.to_jsonl, trace) == _written(oracles.oracle_to_jsonl, trace)


def test_seeded_random_agents_stay_deterministic(catalog):
    class Sampler(AgentBehavior):
        def __init__(self, seed):
            self.rng = random.Random(seed)

        def produce(self, message, action, needed, binding):
            return {
                var: Payload(typ, Vector((self.rng.random(), self.rng.random())))
                for var, typ in needed.items()
            }

    flow = Pattern("sampled", ("A5",), frozenset())
    runs = [
        run(catalog, flow, {"model": Sampler(11), "user": ScriptedAgent({"A.B": [1]})})
        for _ in range(2)
    ]
    assert runs[0].to_jsonl() == runs[1].to_jsonl()
