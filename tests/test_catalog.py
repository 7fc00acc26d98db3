"""Unit tests for catalog loading, querying, diffing, and composing."""

from __future__ import annotations

import dataclasses
import json
import threading
from json.decoder import scanstring
from pathlib import Path

import pytest
from click.testing import CliRunner
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import haiproto.catalog as catalog_module
import oracles
from conftest import FIXTURES
from haiproto import (
    CatalogError,
    PrimitiveKind,
    check_catalog,
    compose,
    diff,
    export_json,
    load,
    load_with_diagnostics,
    query,
)
from haiproto.cli import main
from haiproto.core import Span


def _write(path: Path, text: str) -> Path:
    path.write_text(text)
    return path


# ---------------------------------------------------------------------------
# Loading
# ---------------------------------------------------------------------------


def test_packaged_corpus_counts(catalog):
    assert len(catalog.actions) == 45
    assert len(catalog.messages) == 77
    assert len(catalog.patterns) == 36
    assert len(catalog.scenarios) == 8
    assert catalog.roles == oracles.ROLES_EXPECTED


def test_load_accepts_individual_files(tmp_path):
    src = _write(
        tmp_path / "one.hai",
        "action give(X) := provide(X: input.raw_data);\n"
        "message M1 := user -> model : give(A);\n"
        "pattern p := [M1];\n",
    )
    catalog = load([src])
    assert set(catalog.patterns) == {"p"}
    assert catalog.declared["message"]["M1"] == (str(src), 2, 1)
    assert catalog.sources == (str(src),)


def test_duplicate_names_across_files_are_errors(tmp_path):
    _write(tmp_path / "a.hai", "action give(X) := provide(X: input.raw_data);\n")
    _write(tmp_path / "b.hai", "action give(X) := provide(X: input.fvector);\n")
    with pytest.raises(CatalogError) as excinfo:
        load([tmp_path])
    codes = [d.code for d in excinfo.value.diagnostics]
    assert codes == ["E-DUP-NAME"]
    assert "a.hai" in str(excinfo.value)


@pytest.mark.parametrize(
    "first,second",
    [
        ("role r;\n", "role r;\n"),
        ("role x;\n", "action x(X) := provide(X: input);\n"),
    ],
)
def test_roles_are_their_own_namespace_in_one_file_as_across_files(
    tmp_path, first, second
):
    together, split = tmp_path / "together", tmp_path / "split"
    together.mkdir()
    split.mkdir()
    _write(together / "a.hai", first + second)
    _write(split / "a.hai", first)
    _write(split / "b.hai", second)
    (one, one_diags), (two, two_diags) = map(load_with_diagnostics, [[together], [split]])
    assert one_diags == two_diags == ()
    assert dataclasses.replace(one, declared={}, sources=()) == dataclasses.replace(
        two, declared={}, sources=()
    )


def test_forward_reference_only(tmp_path):
    # Files load in sorted order; a message may not use an action that is
    # declared in a later file.
    _write(tmp_path / "a.hai", "message M1 := user -> model : later(A);\n")
    _write(tmp_path / "b.hai", "action later(X) := provide(X: input.raw_data);\n")
    _, diags = load_with_diagnostics([tmp_path])
    assert [d.code for d in diags] == ["E-UNRESOLVED"]


def test_roles_must_be_declared_before_use(tmp_path):
    _write(
        tmp_path / "a.hai",
        "action give(X) := provide(X: input.raw_data);\n"
        "message M1 := oracle -> model : give(A);\n",
    )
    _, diags = load_with_diagnostics([tmp_path])
    assert [d.code for d in diags] == ["E-UNKNOWN-ROLE"]
    _write(
        tmp_path / "a.hai",
        "role oracle;\n"
        "action give(X) := provide(X: input.raw_data);\n"
        "message M1 := oracle -> model : give(A);\n",
    )
    assert "oracle" in load([tmp_path]).roles


def test_sidecar_scenarios_resolve_against_patterns(tmp_path):
    _write(
        tmp_path / "a.hai",
        "action give(X) := provide(X: input.raw_data);\n"
        "message M1 := user -> model : give(A);\n"
        "pattern p := [M1];\n",
    )
    _write(
        tmp_path / "catalog.json",
        json.dumps(
            {
                "scenarios": {"s": ["p", "ghost"]},
                "annotations": {"nobody": "note"},
                "provide_only": ["missing"],
            }
        ),
    )
    _, diags = load_with_diagnostics([tmp_path])
    assert sorted(d.code for d in diags) == ["E-UNRESOLVED"] * 3


def test_scenario_may_share_a_name_with_a_message(tmp_path):
    # Message names and flow (pattern/scenario) names live in different
    # resolution spaces, so the packaged corpus can pair message "D1" with
    # scenario "D1".  A scenario clashing with a pattern is still an error.
    _write(
        tmp_path / "a.hai",
        "action give(X) := provide(X: input.raw_data);\n"
        "message M1 := user -> model : give(A);\n"
        "pattern p := [M1];\n",
    )
    sidecar = tmp_path / "catalog.json"
    _write(sidecar, json.dumps({"scenarios": {"M1": ["p"]}}))
    assert load([tmp_path]).scenarios == {"M1": ("p",)}
    _write(sidecar, json.dumps({"scenarios": {"p": ["p"]}}))
    _, diags = load_with_diagnostics([tmp_path])
    assert [d.code for d in diags] == ["E-DUP-NAME"]


def test_an_empty_scenario_is_an_error_at_load(tmp_path):
    _write(
        tmp_path / "a.hai",
        "action give(X) := provide(X: input.raw_data);\n"
        "message M1 := user -> model : give(A);\n"
        "pattern p := [M1];\n",
    )
    sidecar = _write(
        tmp_path / "catalog.json",
        json.dumps({"scenarios": {"E": []}, "annotations": {"E": "note"}}),
    )
    catalog, diags = load_with_diagnostics([tmp_path])
    assert catalog is None
    # the scenario is not kept, so its annotation matches nothing
    assert [(d.code, d.path) for d in diags] == [
        ("E-EMPTY-PATTERN", str(sidecar)),
        ("E-UNRESOLVED", str(sidecar)),
    ]
    assert "'E' has no messages" in diags[0].message


#: Sidecars of the wrong shape, each with the JSON key its finding names.
MISSHAPEN_SIDECARS = [
    ({"scenarios": "x"}, "'scenarios'"),
    ({"annotations": ["a"]}, "'annotations'"),
    ({"interpretations": 1}, "'interpretations'"),
    ({"scenarios": {"D9": [{}]}}, "'D9'"),
    ({"provide_only": [{}]}, "'provide_only'"),
    ({"provide_only": "decision-notice"}, "'provide_only'"),
    ({"scenarios": {"S": 3}}, "'S'"),
    ({"scenarios": {"S": "sample-annotation"}}, "'S'"),
    ({"annotations": {"sample-annotation": ["note"]}}, "'sample-annotation'"),
]


def _packaged_corpus_with(tmp_path: Path, sidecar: object) -> Path:
    for source in FIXTURES.glob("*.hai"):
        _write(tmp_path / source.name, source.read_text())
    _write(tmp_path / "catalog.json", json.dumps(sidecar))
    return tmp_path


@pytest.mark.parametrize("sidecar,key", MISSHAPEN_SIDECARS, ids=json.dumps)
def test_a_misshapen_sidecar_is_a_syntax_error(tmp_path, sidecar, key):
    catalog, diags = load_with_diagnostics([_packaged_corpus_with(tmp_path, sidecar)])
    assert catalog is None
    assert [d.code for d in diags] == ["E-SYNTAX"]
    assert key in diags[0].message and diags[0].path == str(tmp_path / "catalog.json")
    text = json.dumps(sidecar)  # the finding sits at the key or entry at fault
    assert text[_offset(text, diags[0].span) :].startswith(key.replace("'", '"') + ":")


def test_a_sidecar_note_is_placed_at_its_key_or_item(tmp_path):
    root = _packaged_corpus_with(tmp_path, {})
    _write(root / "catalog.json", '\n\n  ["D1"]')
    (diag,) = load_with_diagnostics([root])[1]
    assert (diag.code, diag.span.line, diag.span.col) == ("E-SYNTAX", 3, 3)
    text = '{"provide_only": ["sample-annotation",\n "D1", "ghost"],\n "annotations": {"x": ""}}'
    _write(root / "catalog.json", text)
    diags = load_with_diagnostics([root])[1]
    assert [(d.code, d.span.line, d.span.col) for d in diags] == [
        ("E-UNRESOLVED", 3, 18), ("E-UNRESOLVED", 2, 2), ("E-UNRESOLVED", 2, 8)
    ]  # x, then D1, a scenario, and ghost


def test_a_sidecar_that_is_not_json_is_placed_where_reading_stopped(tmp_path):
    root = _packaged_corpus_with(tmp_path, {})
    sidecar = _write(root / "catalog.json", '{"scenarios": {"S": ["sample-annotation"],}}')
    (diag,) = load_with_diagnostics([root])[1]
    assert (diag.code, diag.span.line, diag.span.col) == ("E-SYNTAX", 1, 43)
    assert diag.format().startswith(f"{sidecar}:1:43: error[E-SYNTAX]: cannot read sidecar")
    _write(sidecar, '{"scenarios": {},\n  "provide_only": ["D1" "D2"]}')
    (diag,) = load_with_diagnostics([root])[1]
    assert (diag.span.line, diag.span.col) == (2, 25)  # at "D2", where a comma was due
    sidecar.write_bytes(b'{"scenarios": {"\xff": []}}')  # not UTF-8: no place
    (diag,) = load_with_diagnostics([root])[1]
    assert (diag.code, diag.span) == ("E-SYNTAX", None)
    sidecar.write_bytes(b"[" * 100000 + b"]" * 100000)  # too deep: at the 65th bracket
    (diag,) = load_with_diagnostics([root])[1]
    assert (diag.code, diag.message, diag.span) == (
        "E-SYNTAX", "cannot read sidecar: values nest more than 64 deep", Span(1, 65)
    )


def _beneath(frames: int, call):
    return call() if frames == 0 else _beneath(frames - 1, call)


def test_a_deeply_nested_sidecar_is_one_finding_at_any_stack_depth(tmp_path):
    """The packaged sidecar with a key whose list makes it nest 64, 65, 985 or
    2000 deep: from a fresh thread's stack and from 20 to 300 frames deeper,
    64 loads, and the rest are refused alike, at the bracket opening level 65."""
    root = _packaged_corpus_with(tmp_path, {})
    packaged = (FIXTURES / "catalog.json").read_text()
    head = '{\n  "deep": '
    sidecars = {}
    for depth in (64, 65, 985, 2000):
        sidecars[depth] = tmp_path / f"deep{depth}" / "catalog.json"
        sidecars[depth].parent.mkdir()
        lists = "[" * (depth - 1) + "]" * (depth - 1)  # under the sidecar's own object
        _write(sidecars[depth], head + lists + "," + packaged.lstrip()[1:])
    found = {}

    def load_each():
        for frames in (0, 20, 100, 300):
            for depth, sidecar in sidecars.items():
                try:
                    found[frames, depth] = _beneath(
                        frames, lambda: load_with_diagnostics([root, sidecar])[1]
                    )
                except RecursionError as exc:
                    found[frames, depth] = exc

    thread = threading.Thread(target=load_each)
    thread.start()
    thread.join(timeout=600)
    assert not thread.is_alive()
    assert all(found[frames, 64] == () for frames in (0, 20, 100, 300))
    message = "cannot read sidecar: values nest more than 64 deep"
    bracket = Span(2, len('  "deep": ') + 64)  # the list opening level 65
    assert len(found) == 16 and all(
        [(d.code, d.message, d.path, d.span) for d in found[key]]
        == [("E-SYNTAX", message, str(sidecars[key[1]]), bracket)]
        for key in found if key[1] > 64
    ), {key: each for key, each in found.items() if type(each) is not tuple}


def test_a_repeated_sidecar_item_is_placed_at_each_of_its_items(tmp_path):
    root = _packaged_corpus_with(tmp_path, {"provide_only": ["ghost", "ghost"]})
    diags = load_with_diagnostics([root])[1]
    assert [(d.code, d.span.line, d.span.col) for d in diags] == [
        ("E-UNRESOLVED", 1, 19), ("E-UNRESOLVED", 1, 28)
    ]
    _write(root / "catalog.json", '{"annotations": {"ghost": "a", "ghost": "b"}}')
    (diag,) = load_with_diagnostics([root])[1]  # the key json.loads keeps: the last
    assert (diag.code, diag.span.line, diag.span.col) == ("E-UNRESOLVED", 1, 32)


def test_a_finding_on_an_undeclared_flow_has_no_place_and_reads_no_file(
    tmp_path, monkeypatch
):
    source = _write(
        tmp_path / "a.hai",
        "action give(X) := provide(X: input.raw_data);\n"
        "message M1 := user -> model : give(A);\n"
        "pattern p := [M1];\n",
    )
    # built by hand: no declaration of p, and M1 unknown
    catalog = dataclasses.replace(load([source]), messages={}, declared={})
    _write(tmp_path / "<catalog>", json.dumps({"scenarios": {"p": ["p"]}}))  # sidecar-shaped
    monkeypatch.chdir(tmp_path)
    (diag,) = catalog.flow("p").report.diagnostics
    assert (diag.code, diag.path, diag.span) == ("E-UNRESOLVED", "<catalog>", None)


@pytest.fixture(scope="module")
def corpus_copy(tmp_path_factory) -> Path:
    """The packaged ``.hai`` files, beside which each example writes a sidecar."""
    root = tmp_path_factory.mktemp("corpus")
    for source in FIXTURES.glob("*.hai"):
        _write(root / source.name, source.read_text())
    return root


SIDECAR = json.loads((FIXTURES / "catalog.json").read_text())
#: Names a mutated sidecar may use: flows, other kinds of names, and misses.
NAMES = st.sampled_from(
    [*SIDECAR["scenarios"], *SIDECAR["annotations"], "A5", "give", "user", "", "ghost"]
)
VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4) | NAMES,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(NAMES, inner, max_size=3),
    max_leaves=6,
)
TABLES = st.sampled_from([*SIDECAR, "other"])


@st.composite
def mutated_sidecars(draw) -> str:
    """The packaged sidecar with tables dropped or replaced, entries added,
    replaced or renamed, or its text cut short."""
    data = json.loads(json.dumps(SIDECAR))
    for _ in range(draw(st.integers(1, 4))):
        key, how = draw(TABLES), draw(st.sampled_from(["drop", "replace", "entry"]))
        table = data.get(key)
        if how == "drop":
            data.pop(key, None)
        elif how == "replace" or not isinstance(table, (dict, list)):
            data[key] = draw(VALUES)
        elif isinstance(table, dict):
            table[draw(NAMES)] = draw(VALUES | st.lists(NAMES, max_size=3))
        else:
            table.insert(draw(st.integers(0, len(table))), draw(VALUES))
    text = json.dumps(data)
    if draw(st.integers(0, 9)) == 0:
        text = text[: draw(st.integers(0, len(text)))]
    return text


@settings(
    max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)
@given(mutated_sidecars())
def test_a_mutated_sidecar_never_raises(corpus_copy, sidecar):
    _write(corpus_copy / "catalog.json", sidecar)
    catalog, diags = load_with_diagnostics([corpus_copy])
    assert (catalog is None) == any(d.severity == "error" for d in diags)
    if catalog is not None:
        check_catalog(catalog)
        export_json(catalog)
    result = CliRunner().invoke(main, ["check", str(corpus_copy)])
    assert result.exit_code in (0, 1), result.output
    assert "Traceback" not in result.output
    assert result.exception is None or isinstance(result.exception, SystemExit)


def test_loader_findings_point_at_the_declaration(tmp_path):
    source = _write(
        tmp_path / "a.hai",
        "action give(X) := provide(X: input.raw_data);\n"
        "message M1 := user -> oracle : give(A);\n"
        "  message M2 := user -> model : ghost(A);\n"
        "pattern p := [M1, M9];\n",
    )
    _write(
        tmp_path / "b.hai",
        "role oracle;\n\n   action give(Y) := provide(Y: input.raw_data);\n",
    )
    _, diags = load_with_diagnostics([tmp_path])
    assert [(d.code, d.path, d.span.line, d.span.col) for d in diags] == [
        ("E-UNKNOWN-ROLE", str(source), 2, 1),
        ("E-UNRESOLVED", str(source), 3, 3),
        ("E-UNRESOLVED", str(source), 4, 1),
        ("E-DUP-NAME", str(tmp_path / "b.hai"), 3, 4),
    ]
    assert diags[2].format().startswith(f"{source}:4:1: error[E-UNRESOLVED]")


def _offset(text: str, span) -> int:
    """Where in ``text`` the 1-based ``span`` starts."""
    return sum(len(line) + 1 for line in text.split("\n")[: span.line - 1]) + span.col - 1


@settings(max_examples=60, deadline=None)
@given(
    st.lists(st.text(max_size=4), min_size=1, max_size=4),
    st.sampled_from([None, 0, 2, "\t"]),
    st.booleans(),
)
def test_a_scenario_key_is_found_where_the_sidecar_text_has_it(names, indent, ascii_only):
    """Escapes, layout and repeated keys, of which ``json.loads`` keeps the last."""
    scenarios = "{" + ", ".join(json.dumps(n, ensure_ascii=ascii_only) + ": []" for n in names)
    text = json.dumps({"scenarios": 1, "annotations": {"s": "{"}}, indent=indent)
    text = text[:-1] + f', "scenarios":\n {scenarios}}}\n}}'
    assert set(json.loads(text)["scenarios"]) == set(names)
    found = catalog_module._keys(text).items()
    spans = {key: span for (table, key), span in found if table == "scenarios"}
    assert spans.keys() == set(names)
    for name, span in spans.items():
        at = _offset(text, span)
        key, end = scanstring(text, at + 1)
        assert (text[at], key, end - at) == ('"', name, span.length)
        # no later key of that name: each later key follows ", " (not inside another key)
        assert f", {json.dumps(name, ensure_ascii=ascii_only)}: [" not in text[end:]


def test_a_scenario_key_is_looked_for_only_to_place_a_finding(tmp_path, monkeypatch):
    calls = []
    keys = catalog_module._keys
    monkeypatch.setattr(catalog_module, "_keys", lambda text: calls.append(1) or keys(text))
    catalog = load([FIXTURES])
    assert all(not report.diagnostics for report in check_catalog(catalog))
    assert calls == []
    _write(
        tmp_path / "a.hai",
        "action ask(Y) := request(Y: output.label);\n"
        "message Q := user -> model : ask(Y);\n"
        "pattern asking := [Q];\n",
    )
    sidecar = _write(tmp_path / "catalog.json", '{"scenarios":\n {"s": ["asking"], "t": []}}')
    _, diags = load_with_diagnostics([tmp_path])
    assert [(d.code, d.span.line, d.span.col) for d in diags] == [("E-EMPTY-PATTERN", 2, 20)]
    loaded = '{"scenarios": {"s": ["asking"]}}'
    for edit in (lambda: _write(sidecar, "\n\n" + loaded), sidecar.unlink):
        catalog = load([_write(sidecar, loaded).parent])
        edit()  # a finding is placed in the text loaded, not in the file as it is now
        (diag,) = catalog.flow("s").report.errors
        assert (diag.code, diag.path) == ("E-UNANSWERED", str(sidecar))
        assert (diag.span.line, diag.span.col) == (1, 16)
    assert len(calls) == 3  # once for the load above, and once for each load here


def test_resolve_flow_handles_patterns_scenarios_and_misses(catalog):
    assert catalog.resolve_flow("sample-annotation") is catalog.patterns[
        "sample-annotation"
    ]
    d1 = catalog.resolve_flow("D1")
    assert d1.name == "D1"
    assert list(d1.messages) == oracles.D1_MESSAGE_SEQUENCE
    with pytest.raises(KeyError):
        catalog.resolve_flow("A1")  # a message name is not a flow


def test_check_catalog_is_clean_and_ordered(catalog):
    reports = check_catalog(catalog)
    assert all(r.verdict == "pass" for r in reports)
    targets = [r.target for r in reports]
    assert targets == sorted(targets, key=targets.index)  # stable
    assert len(reports) == 45 + 77 + 36 + 8
    assert targets[:2] == ["action annotate-sample", "action capture-and-generate"]
    assert targets[-1] == "scenario multi_user-game"


# ---------------------------------------------------------------------------
# Query
# ---------------------------------------------------------------------------


def test_query_matches_tag_oracle(catalog):
    for tag, expected in oracles.TAG_EXPECTATIONS.items():
        names = {p.name for p in query(catalog, [tag])}
        assert expected <= names, (tag, expected - names)
    assert [p.name for p in query(catalog, [])] == sorted(catalog.patterns)


def test_query_uses_and_semantics(catalog):
    both = {p.name for p in query(catalog, ["control", "query"])}
    assert both == {
        p.name for p in query(catalog, ["control"])
    } & {p.name for p in query(catalog, ["query"])}


def test_query_rejects_unknown_tags(catalog):
    with pytest.raises(ValueError, match="nonsense"):
        query(catalog, ["nonsense"])


# ---------------------------------------------------------------------------
# Diff
# ---------------------------------------------------------------------------


def test_diff_of_query_variants_matches_oracle(catalog):
    result = diff(catalog, "query-P1", "query-P2")
    assert list(result.shared) == oracles.DIFF_SHARED
    assert list(result.only_in_a) == oracles.DIFF_ONLY_P1
    assert list(result.only_in_b) == oracles.DIFF_ONLY_P2


def test_diff_is_antisymmetric(catalog):
    forward = diff(catalog, "query-P1", "query-P2")
    backward = diff(catalog, "query-P2", "query-P1")
    assert backward == forward.transpose()
    assert backward.only_in_a == forward.only_in_b


def test_diff_of_a_pattern_with_itself(catalog):
    result = diff(catalog, "sample-annotation", "sample-annotation")
    assert result.only_in_a == result.only_in_b == ()
    assert len(result.shared) == len(catalog.patterns["sample-annotation"].messages)


def test_diff_unknown_pattern(catalog):
    with pytest.raises(KeyError):
        diff(catalog, "query-P1", "nosuch")


# ---------------------------------------------------------------------------
# Compose
# ---------------------------------------------------------------------------


def test_compose_concatenates_and_names(catalog):
    flow, report = compose(catalog, ["class-selection", "new_class_sample"])
    assert flow.name == "class-selection+new_class_sample"
    assert flow.messages == (
        catalog.patterns["class-selection"].messages
        + catalog.patterns["new_class_sample"].messages
    )
    assert report.verdict == "pass"


def test_compose_scenario_lengths_match_oracle(catalog):
    for name, length in oracles.SCENARIO_LENGTHS.items():
        flow, report = compose(catalog, catalog.scenarios[name])
        assert len(flow.messages) == length, name
        assert report.verdict == "pass", name


def test_compose_rejects_empty_and_unknown(catalog):
    with pytest.raises(ValueError):
        compose(catalog, [])
    with pytest.raises(ValueError, match="nosuch"):
        compose(catalog, ["sample-annotation", "nosuch"])


def test_compose_surfaces_open_requests_as_errors(catalog):
    _, report = compose(catalog, ["new_sample-annotation"])
    assert [d.code for d in report.diagnostics] == ["E-UNANSWERED"]


# ---------------------------------------------------------------------------
# Sidecar tables
# ---------------------------------------------------------------------------


def test_provide_only_patterns_have_no_requests(catalog):
    assert catalog.provide_only == oracles.PROVIDE_ONLY_EXPECTED
    for name, pattern in catalog.patterns.items():
        kinds = {
            catalog.actions[catalog.messages[m].action].primitive.kind
            for m in pattern.messages
        }
        if name in catalog.provide_only:
            assert kinds == {PrimitiveKind.PROVIDE}, name
        else:
            assert PrimitiveKind.REQUEST in kinds, name


def test_annotations_and_interpretations_name_known_flows(catalog):
    known = set(catalog.patterns) | set(catalog.scenarios)
    assert set(catalog.annotations) <= known
    assert set(catalog.interpretations) <= known
    assert len(catalog.annotations) == 11


# ---------------------------------------------------------------------------
# Export
# ---------------------------------------------------------------------------


def test_export_json_is_deterministic_and_complete(catalog):
    data = export_json(catalog)
    again = export_json(load([FIXTURES]))
    assert json.dumps(data, sort_keys=True) == json.dumps(again, sort_keys=True)
    assert set(data) == {"actions", "patterns", "scenarios"}
    assert [a["name"] for a in data["actions"]] == sorted(catalog.actions)
    assert [p["name"] for p in data["patterns"]] == sorted(catalog.patterns)
    by_name = {p["name"]: p for p in data["patterns"]}
    sample = by_name["sample-annotation"]
    assert [m["name"] for m in sample["messages"]] == ["A5", "A6"]
    assert sample["tags"] == ["hitl"]
    assert not sample["provide_only"]
    assert by_name["decision-notice"]["provide_only"]
    scenario = next(s for s in data["scenarios"] if s["name"] == "D1")
    assert scenario["patterns"] == list(catalog.scenarios["D1"])
    assert scenario["messages"] == oracles.SCENARIO_LENGTHS["D1"]


def test_export_json_keeps_the_notes_on_patterns_and_scenarios(tmp_path):
    _write(
        tmp_path / "a.hai",
        "action give(X) := provide(X: input.raw_data);\n"
        "message M1 := user -> model : give(A);\n"
        "pattern p := [M1];\n",
    )
    notes = {"annotations": {"p": "ap", "s": "as"}, "interpretations": {"s": "is"}}
    _write(tmp_path / "catalog.json", json.dumps({"scenarios": {"s": ["p"]}, **notes}))
    data = export_json(load([tmp_path]))
    (pattern,), (scenario,) = data["patterns"], data["scenarios"]
    assert (pattern["annotation"], "interpretation" in pattern) == ("ap", False)
    assert (scenario["annotation"], scenario["interpretation"]) == ("as", "is")
