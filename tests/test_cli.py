"""End-to-end tests for the ``haiproto`` command line."""

from __future__ import annotations

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest
from click.testing import CliRunner
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import oracles
from conftest import AGENTS_DIR, FIXTURES
from haiproto.cli import main

WORKFLOW = Path(__file__).resolve().parent.parent / ".github" / "workflows" / "tests.yml"

CLEAN_SUMMARY = (
    "checked 45 actions, 77 messages, 36 patterns, 8 scenarios: "
    "0 error(s), 0 warning(s)"
)

WARNING_ONLY = """\
action ask(X, Y) := request(Y: output.label, X: input.raw_data) <- map(X, Y);
message M1 := model -> user : ask(A, B);
pattern lonely := [M1];
"""


# ---------------------------------------------------------------------------
# check
# ---------------------------------------------------------------------------


def test_check_packaged_corpus_is_clean(runner):
    result = runner.invoke(main, ["check"])
    assert result.exit_code == 0, result.output
    assert result.output.strip() == CLEAN_SUMMARY


def test_check_reports_errors_with_exit_1(runner, tmp_path):
    (tmp_path / "a.hai").write_text("action dup(X) := provide(X: input);\n")
    (tmp_path / "b.hai").write_text(
        "action dup(X) := provide(X: input);\n"
        "message M1 := user -> model : ghost(A);\n"
    )
    result = runner.invoke(main, ["check", str(tmp_path)])
    assert result.exit_code == 1
    assert "error[E-DUP-NAME]" in result.output
    assert "error[E-UNRESOLVED]" in result.output
    assert "2 error(s)" in result.output


def test_check_reports_an_empty_scenario_without_a_traceback(runner, tmp_path):
    (tmp_path / "warn.hai").write_text(WARNING_ONLY)
    (tmp_path / "catalog.json").write_text(json.dumps({"scenarios": {"E": []}}))
    result = runner.invoke(main, ["check", str(tmp_path)])
    assert result.exit_code == 1, result.output
    assert "error[E-EMPTY-PATTERN]" in result.output
    assert "Traceback" not in result.output
    assert result.exception is None or isinstance(result.exception, SystemExit)


@pytest.mark.parametrize(
    "sidecar", [{"scenarios": "x"}, {"provide_only": [{}]}, {"scenarios": {"S": "p"}}]
)
def test_check_reports_a_misshapen_sidecar_without_a_traceback(runner, tmp_path, sidecar):
    for source in FIXTURES.glob("*.hai"):
        (tmp_path / source.name).write_text(source.read_text())
    (tmp_path / "catalog.json").write_text(json.dumps(sidecar))
    result = runner.invoke(main, ["check", str(tmp_path)])
    assert result.exit_code == 1, result.output
    assert "error[E-SYNTAX]" in result.output
    assert "Traceback" not in result.output
    assert result.exception is None or isinstance(result.exception, SystemExit)


def test_check_reports_unreadable_files_without_a_traceback(runner, tmp_path):
    for source in FIXTURES.glob("*.hai"):
        (tmp_path / source.name).write_text(source.read_text())
    (tmp_path / "catalog.json").write_bytes(b'{"scenarios": {"\xff": []}}')
    result = runner.invoke(main, ["check", str(tmp_path)])
    assert result.exit_code == 1, result.output
    assert "error[E-SYNTAX]: cannot read sidecar: 'utf-8' codec" in result.output
    assert "Traceback" not in result.output
    (tmp_path / "catalog.json").write_text("[" * 100000 + "]" * 100000)
    result = runner.invoke(main, ["check", str(tmp_path)])
    assert result.exit_code == 1, result.output
    assert ":1:65: error[E-SYNTAX]: cannot read sidecar: values nest more than 64 deep" in result.output
    (tmp_path / "catalog.json").unlink()
    (tmp_path / "bad.hai").write_bytes(b"role x;\n\xff\n")
    for args in (["check", str(tmp_path)], ["fmt", "--check", str(tmp_path)]):
        result = runner.invoke(main, args)
        assert result.exit_code == 1, result.output
        assert f"{tmp_path / 'bad.hai'}:0:0: error[E-LEX]: cannot read file: 'utf-8'" in (
            result.output
        )
        assert "Traceback" not in result.output
        assert result.exception is None or isinstance(result.exception, SystemExit)


def test_check_deny_warnings(runner, tmp_path):
    (tmp_path / "warn.hai").write_text(WARNING_ONLY)
    soft = runner.invoke(main, ["check", str(tmp_path)])
    assert soft.exit_code == 0
    assert "warning[W-UNANSWERED]" in soft.output
    assert "0 error(s), 1 warning(s)" in soft.output
    hard = runner.invoke(main, ["check", "--deny-warnings", str(tmp_path)])
    assert hard.exit_code == 1


def test_check_missing_path_is_a_usage_error(runner):
    result = runner.invoke(main, ["check", "/nonexistent/corpus"])
    assert result.exit_code == 2


# ---------------------------------------------------------------------------
# fmt
# ---------------------------------------------------------------------------


def test_fmt_rewrites_to_canonical_form(runner, tmp_path):
    messy = tmp_path / "messy.hai"
    messy.write_text(
        "// keep me\n"
        "action give(X)\n    := provide(\n  X: input.raw_data);  // and me\n"
    )
    check_first = runner.invoke(main, ["fmt", "--check", str(messy)])
    assert check_first.exit_code == 1
    assert f"would reformat {messy}" in check_first.output

    rewrite = runner.invoke(main, ["fmt", str(messy)])
    assert rewrite.exit_code == 0
    assert f"reformatted {messy}" in rewrite.output
    assert messy.read_text() == (
        "// keep me\naction give(X) := provide(X: input.raw_data);  // and me\n"
    )

    again = runner.invoke(main, ["fmt", "--check", str(messy)])
    assert again.exit_code == 0
    assert again.output == ""


def test_fmt_that_cannot_write_a_file_exits_2(runner, tmp_path, monkeypatch):
    """A rewrite that fails is one line and exit 2, as for ``run --trace``."""
    messy = tmp_path / "messy.hai"
    messy.write_text("action give(X)\n    := provide(X: input.raw_data);\n")

    def refuse(self, *args, **kwargs):
        raise PermissionError(13, "Permission denied", str(self))

    monkeypatch.setattr(Path, "write_text", refuse)
    result = runner.invoke(main, ["fmt", str(messy)])
    assert result.exit_code == 2
    assert result.output == f"Error: cannot write {messy}: Permission denied\n"
    assert result.exception is None or isinstance(result.exception, SystemExit)


def test_fmt_check_passes_on_packaged_corpus(runner):
    result = runner.invoke(main, ["fmt", "--check"])
    assert result.exit_code == 0, result.output
    assert result.output == ""


def test_fmt_reports_parse_errors(runner, tmp_path):
    broken = tmp_path / "broken.hai"
    broken.write_text("pattern p := ;\n")
    result = runner.invoke(main, ["fmt", str(broken)])
    assert result.exit_code == 1
    assert "error[E-SYNTAX]" in result.output
    assert broken.read_text() == "pattern p := ;\n"  # untouched


# ---------------------------------------------------------------------------
# catalog subcommands
# ---------------------------------------------------------------------------


def test_catalog_list_shows_patterns_and_scenarios(runner):
    result = runner.invoke(main, ["catalog", "list"])
    assert result.exit_code == 0
    lines = result.output.splitlines()
    assert "pattern sample-annotation (2 messages) @ hitl" in lines
    assert "scenario D1 = class-selection + new_class_sample + sample-annotation" in lines
    assert sum(1 for l in lines if l.startswith("pattern ")) == 36
    assert sum(1 for l in lines if l.startswith("scenario ")) == 8


def test_catalog_query_filters_by_tags(runner):
    result = runner.invoke(main, ["catalog", "query", "--tag", "xai"])
    assert result.exit_code == 0
    names = set(result.output.split())
    assert oracles.TAG_EXPECTATIONS["xai"] <= names
    both = runner.invoke(
        main, ["catalog", "query", "--tag", "xai", "--tag", "control"]
    )
    assert both.exit_code == 0
    assert set(both.output.split()) <= names


def test_catalog_query_unknown_tag(runner):
    result = runner.invoke(main, ["catalog", "query", "--tag", "nonsense"])
    assert result.exit_code == 2
    assert "unknown tag" in result.output


def test_catalog_diff_output(runner):
    result = runner.invoke(main, ["catalog", "diff", "query-P1", "query-P2"])
    assert result.exit_code == 0
    assert result.output == (
        "shared:\n"
        "  user>model req-sample_class\n"
        "  user>model modify-prediction\n"
        "only in query-P1:\n"
        "  model>user annotate-sample\n"
        "only in query-P2:\n"
        "  model>user req-modified_prediction\n"
    )


def test_catalog_diff_unknown_name(runner):
    result = runner.invoke(main, ["catalog", "diff", "query-P1", "nosuch"])
    assert result.exit_code == 2
    assert "no pattern named" in result.output


def test_catalog_export_to_file(runner, tmp_path):
    out = tmp_path / "catalog.json"
    result = runner.invoke(main, ["catalog", "export", "--output", str(out)])
    assert result.exit_code == 0
    data = json.loads(out.read_text())
    assert [a["name"] for a in data["actions"]] == sorted(
        a["name"] for a in data["actions"]
    )
    stdout = runner.invoke(main, ["catalog", "export"])
    assert stdout.exit_code == 0
    assert json.loads(stdout.output) == data


def test_catalog_export_to_a_path_that_cannot_be_written_exits_2(runner, tmp_path):
    out = tmp_path / "nowhere" / "catalog.json"
    result = runner.invoke(main, ["catalog", "export", "--output", str(out)])
    assert result.exit_code == 2
    assert result.output == f"Error: cannot write {out}: No such file or directory\n"
    assert result.exception is None or isinstance(result.exception, SystemExit)


# ---------------------------------------------------------------------------
# run
# ---------------------------------------------------------------------------

ROBOT_AGENTS = str(AGENTS_DIR / "robot_demo.agents")


def test_run_to_a_trace_path_that_cannot_be_written_exits_2(runner, tmp_path):
    out = tmp_path / "nowhere" / "t.jsonl"
    result = runner.invoke(main, ["run", "D1", "--agents", ROBOT_AGENTS, "--trace", str(out)])
    assert result.exit_code == 2
    assert result.output == f"Error: cannot write {out}: No such file or directory\n"
    assert result.exception is None or isinstance(result.exception, SystemExit)


def test_run_writes_byte_stable_traces(runner, tmp_path):
    args = ["run", "D1", "--agents", ROBOT_AGENTS, "--seed", "7", "--repeat", "6"]
    first = runner.invoke(main, args + ["--trace", str(tmp_path / "a.jsonl")])
    second = runner.invoke(main, args + ["--trace", str(tmp_path / "b.jsonl")])
    assert first.exit_code == 0, first.output
    assert second.exit_code == 0
    a = (tmp_path / "a.jsonl").read_bytes()
    assert a == (tmp_path / "b.jsonl").read_bytes()
    stdout = runner.invoke(main, args)
    assert stdout.exit_code == 0
    assert stdout.stdout.encode() == a  # the summary goes to stderr


def test_run_writes_its_trace_without_reading_a_step_line(runner, tmp_path, monkeypatch, catalog):
    from haiproto import parse_agents, run, runtime

    decoded = []
    for name in ("_load", "_read_line"):  # replay's reader, and a trace's own
        read = getattr(runtime, name)
        counted = lambda text, read=read: decoded.append(text) or read(text)  # noqa: E731
        monkeypatch.setattr(runtime, name, counted)
    args = ["run", "D1", "--agents", ROBOT_AGENTS, "--repeat", "3"]
    result = runner.invoke(main, args + ["--trace", str(tmp_path / "t.jsonl")])
    assert result.exit_code == 0, result.output
    assert decoded == [] and (tmp_path / "t.jsonl").read_text().count("\n") == 3 * 8
    assert runner.invoke(main, ["replay", str(tmp_path / "t.jsonl")]).exit_code == 0
    assert len(decoded) == 1 + 3  # replay: the first header, and each run's outcome line
    assert len(run(catalog, "D1", parse_agents(Path(ROBOT_AGENTS).read_text())).steps) == 6
    assert len(decoded) == 1 + 3 + 6  # reading a run's steps decodes its lines


def test_run_trace_structure(runner):
    result = runner.invoke(
        main, ["run", "sample-annotation", "--agents", str(AGENTS_DIR / "rl_demo.agents")]
    )
    # rl_demo scripts C-series messages only, so A6 has nothing to produce.
    assert result.exit_code == 1
    assert "run sample-annotation-s0-r0 aborted at step 2 (V-MISSING)" in result.output
    lines = [
        json.loads(line)
        for line in result.output.splitlines()
        if line.startswith("{")
    ]
    assert lines[0] == {
        "format": 2,
        "pattern": "sample-annotation",
        "run": "sample-annotation-s0-r0",
        "seed": 0,
    }
    assert lines[-1]["outcome"] == {"aborted": {"step": 2, "code": "V-MISSING"}}


def test_run_unknown_flow_is_a_usage_error(runner):
    result = runner.invoke(main, ["run", "nosuch", "--agents", ROBOT_AGENTS])
    assert result.exit_code == 2
    assert "no pattern or scenario named" in result.output


def test_run_without_an_agent_for_a_role(runner):
    result = runner.invoke(main, ["run", "multi_user-game", "--agents", ROBOT_AGENTS])
    assert result.exit_code == 2
    assert "no agent for role 'supervisor'" in result.output


def test_run_with_malformed_agents_file(runner, tmp_path):
    agents = tmp_path / "bad.agents"
    agents.write_text("M.A = 1\n")
    result = runner.invoke(main, ["run", "D1", "--agents", str(agents)])
    assert result.exit_code == 2
    assert "section" in result.output


def test_run_with_deeply_nested_agents_file(runner, tmp_path):
    agents = tmp_path / "deep.agents"
    agents.write_text("[user scripted]\nA.X = " + "[" * 3000 + "]" * 3000 + "\n")
    result = runner.invoke(main, ["run", "D1", "--agents", str(agents)])
    assert result.exit_code == 2, result.output
    assert f"{agents}:2: values nest more than 64 deep" in result.output
    assert "Traceback" not in result.output


def test_run_negative_repeat_is_a_usage_error(runner):
    args = ["run", "D1", "--agents", ROBOT_AGENTS, "--repeat"]
    result = runner.invoke(main, args + ["-3"])
    assert result.exit_code == 2
    assert "--repeat" in result.output
    zero = runner.invoke(main, args + ["0"])
    assert zero.exit_code == 0
    assert zero.stdout == ""
    assert zero.stderr == "ran D1: 0 run(s), 0 step(s), 0 completed, 0 aborted\n"


def test_run_summarises_its_runs_on_stderr(runner, tmp_path):
    out = tmp_path / "t.jsonl"
    args = ["run", "D1", "--agents", ROBOT_AGENTS, "--repeat", "3", "--trace", str(out)]
    result = runner.invoke(main, args)
    assert result.exit_code == 0, result.output
    assert result.stdout == f"wrote {out}\n"
    assert result.stderr == "ran D1: 3 run(s), 18 step(s), 3 completed, 0 aborted\n"


def test_run_summarises_aborted_runs_by_code(runner, tmp_path):
    agents = tmp_path / "no_x.agents"  # D1's fourth step, A4, has no X to produce
    agents.write_text(Path(ROBOT_AGENTS).read_text().replace("A4.X", "Z4.X"))
    args = ["run", "D1", "--agents", str(agents), "--repeat", "2"]
    result = runner.invoke(main, args)
    assert result.exit_code == 1, result.output
    assert result.stderr.splitlines() == [
        "run D1-s0-r0 aborted at step 4 (V-MISSING)",
        "run D1-s0-r1 aborted at step 4 (V-MISSING)",
        "ran D1: 2 run(s), 8 step(s), 0 completed, 2 aborted (V-MISSING: 2)",
    ]
    assert result.stdout.count("\n") == 2 * (1 + 4 + 1)


# ---------------------------------------------------------------------------
# diagram
# ---------------------------------------------------------------------------


def test_diagram_mermaid_golden(runner):
    result = runner.invoke(main, ["diagram", "sample-annotation"])
    assert result.exit_code == 0
    assert result.output == (
        "sequenceDiagram\n"
        "    participant model\n"
        "    participant user\n"
        "    model->>user: req-sample_class [output.label]\n"
        "    user-->>model: annotate-sample [output.label]\n"
    )


def test_diagram_composes_scenarios(runner):
    result = runner.invoke(main, ["diagram", "D1"])
    assert result.exit_code == 0
    arrows = [l for l in result.output.splitlines() if ">>" in l]
    assert len(arrows) == oracles.SCENARIO_LENGTHS["D1"]


@pytest.mark.parametrize("args", [["diagram", "p"], ["catalog", "diff", "p", "q"]])
def test_a_flow_whose_message_does_not_resolve_is_an_error(runner, tmp_path, args):
    (tmp_path / "a.hai").write_text(
        "action give(X) := provide(X: input.raw_data);\n"
        "message M1 := user -> model : give(A, B);\n"
        "message M2 := user -> model : give(C);\n"
        "pattern p := [M2, M1];\n"
        "pattern q := [M2];\n"
    )
    result = runner.invoke(main, ["--fixtures", str(tmp_path), *args])
    assert result.exit_code == 1
    assert result.output == "Error: message 'M1' passes 2 arguments to 'give', which takes 1\n"


def test_diagram_unknown_format(runner):
    result = runner.invoke(main, ["diagram", "D1", "--format", "plantuml"])
    assert result.exit_code == 2
    assert "unknown diagram format" in result.output


# ---------------------------------------------------------------------------
# corpus selection
# ---------------------------------------------------------------------------


def test_fixtures_flag_overrides_the_corpus(runner, tmp_path):
    (tmp_path / "tiny.hai").write_text(
        "action give(X) := provide(X: input.raw_data);\n"
        "message M1 := user -> model : give(A);\n"
        "pattern tiny := [M1];\n"
    )
    result = runner.invoke(main, ["--fixtures", str(tmp_path), "catalog", "list"])
    assert result.exit_code == 0
    assert result.output == "pattern tiny (1 messages)\n"


def test_fixtures_env_var_overrides_the_corpus(runner, tmp_path):
    (tmp_path / "tiny.hai").write_text(
        "action give(X) := provide(X: input.raw_data);\n"
        "message M1 := user -> model : give(A);\n"
        "pattern tiny := [M1];\n"
    )
    result = runner.invoke(
        main, ["catalog", "list"], env={"HAIPROTO_FIXTURES": str(tmp_path)}
    )
    assert result.exit_code == 0
    assert result.output == "pattern tiny (1 messages)\n"
    flag_wins = runner.invoke(
        main,
        ["--fixtures", str(FIXTURES), "catalog", "list"],
        env={"HAIPROTO_FIXTURES": str(tmp_path)},
    )
    assert "pattern tiny" not in flag_wins.output


def test_unloadable_corpus_is_a_usage_error(runner, tmp_path):
    (tmp_path / "bad.hai").write_text("message M1 := user -> model : ghost(A);\n")
    result = runner.invoke(main, ["--fixtures", str(tmp_path), "catalog", "list"])
    assert result.exit_code == 2
    assert "does not load" in result.output


# ---------------------------------------------------------------------------
# replay
# ---------------------------------------------------------------------------


def _d1_trace_file(runner, tmp_path, repeat: int = 2) -> Path:
    path = tmp_path / "d1.jsonl"
    args = ["run", "D1", "--agents", str(AGENTS_DIR / "robot_demo.agents")]
    result = runner.invoke(main, args + ["--repeat", str(repeat), "--trace", str(path)])
    assert result.exit_code == 0, result.output
    return path


def test_replay_of_a_clean_trace_exits_0(runner, tmp_path):
    path = _d1_trace_file(runner, tmp_path)
    result = runner.invoke(main, ["replay", str(path)])
    assert result.exit_code == 0, result.output
    assert result.output == f"replayed {path}: 0 finding(s)\n"


def test_replay_prints_each_finding_and_exits_1(runner, tmp_path):
    path = _d1_trace_file(runner, tmp_path)
    lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
    lines[3] = lines[3].replace('"sender":"model"', '"sender":"user"')
    lines[12] = lines[12].replace('"message":"A4"', '"message":"ZZ"')
    path.write_text("".join(lines), encoding="utf-8")
    result = runner.invoke(main, ["replay", str(path)])
    assert result.exit_code == 1, result.output
    first, second, summary = result.output.splitlines()
    col = lines[3].index('"sender"') + 1  # the differing field's key
    assert first.startswith(f"{path}:4:{col}: error[E-TRACE]: run D1-s0-r0: step 3: sender")
    col = lines[12].index('"message"') + 1  # the unknown message's key
    assert second == (
        f"{path}:13:{col}: error[E-UNRESOLVED]: run D1-s0-r1 step 4 references unknown message 'ZZ'"
    )
    assert summary == f"replayed {path}: 2 finding(s)"


def test_replay_of_bytes_that_are_not_utf8_is_one_finding(runner, tmp_path):
    path = _d1_trace_file(runner, tmp_path, repeat=1)
    assert b'"happy"' in path.read_bytes().splitlines()[1]
    path.write_bytes(path.read_bytes().replace(b'"happy"', b'"h\xffppy"', 1))
    result = runner.invoke(main, ["replay", str(path)])
    assert result.exit_code == 1, result.output
    assert result.exception is None or isinstance(result.exception, SystemExit)
    finding, summary = result.output.splitlines()
    assert finding.startswith(f"{path}:2:1: error[E-TRACE]: unreadable trace: line 2: 'utf-8'")
    assert summary == f"replayed {path}: 1 finding(s)"


@pytest.mark.parametrize("edit, why", [
    (lambda line: line[:-20], "Unterminated string starting at"),  # cut short
    (lambda line: "[" + line + "]", "not a JSON object"),
    (lambda line: line.replace('"step":2', '"step":NaN'), "NaN is not a JSON number"),
    (lambda line: "[" * 100_000 + "]" * 100_000, "values nest more than 64 deep"),
])
def test_replay_places_an_unreadable_line_at_the_decoders_column_or_1(runner, tmp_path, edit, why):
    path = _d1_trace_file(runner, tmp_path)
    lines = path.read_text(encoding="utf-8").split("\n")
    lines[2] = edit(lines[2])
    path.write_text("\n".join(lines), encoding="utf-8")
    result = runner.invoke(main, ["replay", str(path)])
    assert result.exit_code == 1, result.output
    finding, summary = result.output.splitlines()
    where, message = finding.split(": error[E-TRACE]: unreadable trace: line 3: ")
    column = message.partition(" (column ")[2].removesuffix(")") or "1"
    assert where == f"{path}:3:{column}" and message.startswith(why)
    assert (column == "1") == (why != "Unterminated string starting at")


def test_replay_of_a_missing_file_is_a_usage_error(runner, tmp_path):
    result = runner.invoke(main, ["replay", str(tmp_path / "nothing.jsonl")])
    assert result.exit_code == 2
    assert "does not exist" in result.output


# ---------------------------------------------------------------------------
# every command on mutated inputs
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def inputs_copy(tmp_path_factory) -> Path:
    """The packaged corpus, an agents file and a D1 trace, to mutate."""
    root = tmp_path_factory.mktemp("inputs")
    for source in [*FIXTURES.glob("*.hai"), FIXTURES / "catalog.json"]:
        (root / source.name).write_bytes(source.read_bytes())
    (root / "d1.agents").write_bytes((AGENTS_DIR / "robot_demo.agents").read_bytes())
    _d1_trace_file(CliRunner(), root)
    return root


#: Each command, on the corpus at ``{root}``, with the agents and trace there.
COMMANDS = [
    ["check"],
    ["fmt", "--check"],
    ["catalog", "list"],
    ["catalog", "export"],
    ["catalog", "diff", "sample-annotation", "query-P2"],
    ["diagram", "D1"],
    ["run", "D1", "--agents", "{root}/d1.agents"],
    ["replay", "{root}/d1.jsonl"],
]
#: What a mutation writes into a file: syntax of each input, line breaks,
#: and bytes that are not UTF-8.
BYTES = [b'"', b"{", b"]", b";", b",", b"=", b"\n", b"\r", b"\xe2\x80\xa8", b"\xff", b"-", b"9"]


@settings(
    max_examples=15, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)
@given(data=st.data())
def test_every_command_on_a_mutated_input_exits_0_1_or_2(inputs_copy, data):
    path = data.draw(st.sampled_from(sorted(inputs_copy.iterdir())))
    original = text = path.read_bytes()
    for _ in range(data.draw(st.integers(1, 4))):
        at, cut = data.draw(st.integers(0, len(text))), data.draw(st.integers(0, 3))
        text = text[:at] + data.draw(st.sampled_from(BYTES)) + text[at + cut :]
    path.write_bytes(text)
    try:
        for command in COMMANDS:
            args = [arg.format(root=inputs_copy) for arg in command]
            result = CliRunner().invoke(main, ["--fixtures", str(inputs_copy), *args])
            assert result.exit_code in (0, 1, 2), (args, result.output)
            assert "Traceback" not in result.output
            assert result.exception is None or isinstance(result.exception, SystemExit)
    finally:
        path.write_bytes(original)


# ---------------------------------------------------------------------------
# The CI workflow's command-line steps
# ---------------------------------------------------------------------------


def _workflow_scripts() -> dict[str, str]:
    """Each workflow step's name -> its ``run`` script."""
    lines = WORKFLOW.read_text(encoding="utf-8").splitlines()
    scripts, name = {}, None
    for index, line in enumerate(lines):
        key = line.strip()
        if key.startswith("- name: "):
            name = key.removeprefix("- name: ")
        elif key.startswith("run: "):
            script = key.removeprefix("run: ")
            if script == "|":  # a block: the lines indented deeper than ``run:``
                indent = len(line) - len(line.lstrip())
                block = []
                for body in lines[index + 1 :]:
                    if body.strip() and len(body) - len(body.lstrip()) <= indent:
                        break
                    block.append(body)
                script = textwrap.dedent("\n".join(block))
            scripts[name] = script
    return scripts


def test_the_workflow_command_line_steps_pass_in_a_shell(tmp_path):
    """Every workflow step that runs ``haiproto.cli`` passes, run as CI runs
    it: ``bash -eo pipefail``, from a directory whose ``src`` is this tree's."""
    steps = {name: s for name, s in _workflow_scripts().items() if "haiproto.cli" in s}
    assert list(steps) == [
        "The packaged corpus checks without warnings and is formatted",
        "Run and replay the packaged corpus from the command line",
        "Two runs with the same seed write the same trace",
        "A 200-run seeded teach run writes the bytes it always wrote, and replays",
        "A trace with one value edited does not replay (exit 1)",
        "A value edited in the last of 20 runs does not replay (exit 1)",
        "The last of 20 runs cut short or given another run id does not replay (exit 1)",
        "The last of 20 runs given a format 3 header does not replay (exit 1), one with a spaced "
        "seed does",
        "The last of 30 cycling runs given the run before's step 2 does not replay (exit 1)",
        "A number out of range in an .agents file is refused at its line (exit 2)",
        "A label that is no name or string in an .agents file is refused at its line (exit 2)",
        "Names the .hai lexer reads run and replay from an .agents file",
        "A run id nested 992 deep is refused at its header line, with no recursion error "
        "(exit 1)",
        "A sidecar key nested 992 deep is refused at its bracket, with no recursion error "
        "(exit 1)",
        "A one-run trace replays with a number respelled, not with a value changed (exit 1)",
    ]
    (tmp_path / "src").symlink_to(WORKFLOW.parent.parent.parent / "src")
    path = os.pathsep.join([os.path.dirname(sys.executable), os.environ.get("PATH", "")])
    for name, script in steps.items():
        result = subprocess.run(
            ["bash", "--noprofile", "--norc", "-eo", "pipefail", "-c", script],
            cwd=tmp_path, env={**os.environ, "PATH": path}, capture_output=True,
            text=True, timeout=300,
        )
        assert result.returncode == 0, (name, result.stdout, result.stderr)
