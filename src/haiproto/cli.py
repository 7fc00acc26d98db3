"""The ``haiproto`` command line interface.

Exit codes follow one convention everywhere: ``0`` success, ``1`` the inputs
were understood but failed (check errors, a simulation violation, files that
need reformatting), ``2`` the invocation itself is wrong (unknown names,
missing files, unusable configuration).
"""

from __future__ import annotations

import dataclasses
import json
from collections import Counter
from pathlib import Path

import click

from . import catalog as cataloglib
from .agents import parse_agents
from .catalog import CatalogError, check_catalog, load, load_with_diagnostics
from .core import Diagnostic, PrimitiveKind
from .dsl import parse, print_source, print_type
from .runtime import replay_check, run_scenario


@click.group()
@click.version_option(package_name="haiproto")
@click.option(
    "--fixtures",
    "fixtures_dir",
    type=click.Path(exists=True, file_okay=False),
    envvar="HAIPROTO_FIXTURES",
    default=None,
    help="Corpus directory (default: the packaged fixtures; "
    "also set via HAIPROTO_FIXTURES).",
)
@click.pass_context
def main(ctx: click.Context, fixtures_dir: str | None) -> None:
    """Work with human-AI interaction protocols."""
    ctx.obj = Path(fixtures_dir) if fixtures_dir else cataloglib.fixtures_dir()


def _write(ctx: click.Context, path: str, text: str) -> None:
    """Write ``text`` to file ``path``, or exit 2 with one line saying why not."""
    try:
        Path(path).write_text(text, encoding="utf-8")
    except OSError as exc:
        click.echo(f"Error: cannot write {path}: {exc.strerror or exc}", err=True)
        ctx.exit(2)


def _load_corpus(ctx: click.Context) -> cataloglib.Catalog:
    try:
        return load([ctx.obj])
    except CatalogError as exc:
        raise click.UsageError(f"corpus at {ctx.obj} does not load:\n{exc}") from exc


# ---------------------------------------------------------------------------
# check
# ---------------------------------------------------------------------------


@main.command()
@click.argument("paths", nargs=-1, type=click.Path(exists=True))
@click.option(
    "--deny-warnings", is_flag=True, help="Treat warnings as failures (exit 1)."
)
@click.pass_context
def check(ctx: click.Context, paths: tuple[str, ...], deny_warnings: bool) -> None:
    """Check protocol files (default: the configured corpus)."""
    targets = list(paths) if paths else [ctx.obj]
    catalog, diags = load_with_diagnostics(targets)
    all_diags = list(diags)
    counts = "nothing loaded"
    if catalog is not None:
        for report in check_catalog(catalog):
            all_diags.extend(report.diagnostics)
        counts = (
            f"{len(catalog.actions)} actions, {len(catalog.messages)} messages, "
            f"{len(catalog.patterns)} patterns, {len(catalog.scenarios)} scenarios"
        )
    for diag in all_diags:
        click.echo(diag.format())
    errors = sum(1 for d in all_diags if d.severity == "error")
    warnings = sum(1 for d in all_diags if d.severity == "warning")
    click.echo(f"checked {counts}: {errors} error(s), {warnings} warning(s)")
    if errors or (deny_warnings and warnings):
        ctx.exit(1)


# ---------------------------------------------------------------------------
# fmt
# ---------------------------------------------------------------------------


@main.command()
@click.argument("paths", nargs=-1, type=click.Path(exists=True))
@click.option(
    "--check",
    "check_only",
    is_flag=True,
    help="Report files that are not canonical instead of rewriting them.",
)
@click.pass_context
def fmt(ctx: click.Context, paths: tuple[str, ...], check_only: bool) -> None:
    """Rewrite protocol files into canonical form."""
    files: list[Path] = []
    for raw in paths if paths else [ctx.obj]:
        p = Path(raw)
        files.extend(sorted(p.glob("*.hai")) if p.is_dir() else [p])
    failed = False
    for file_path in files:
        text = cataloglib.read_source(file_path)
        if isinstance(text, Diagnostic):
            click.echo(text.format())
            failed = True
            continue
        result = parse(text, str(file_path))
        if result.file is None:
            for diag in result.diagnostics:
                click.echo(diag.format())
            failed = True
            continue
        canonical = print_source(result.file)
        if canonical == text:
            continue
        if check_only:
            click.echo(f"would reformat {file_path}")
            failed = True
        else:
            _write(ctx, str(file_path), canonical)
            click.echo(f"reformatted {file_path}")
    if failed:
        ctx.exit(1)


# ---------------------------------------------------------------------------
# catalog
# ---------------------------------------------------------------------------


@main.group(name="catalog")
def catalog_group() -> None:
    """Inspect the pattern catalog."""


@catalog_group.command(name="list")
@click.pass_context
def catalog_list(ctx: click.Context) -> None:
    """List every pattern and scenario."""
    catalog = _load_corpus(ctx)
    for name in sorted(catalog.patterns):
        pattern = catalog.patterns[name]
        tags = f" @ {', '.join(sorted(pattern.tags))}" if pattern.tags else ""
        click.echo(f"pattern {name} ({len(pattern.messages)} messages){tags}")
    for name in sorted(catalog.scenarios):
        steps = " + ".join(catalog.scenarios[name])
        click.echo(f"scenario {name} = {steps}")


@catalog_group.command(name="query")
@click.option(
    "--tag", "tags", multiple=True, help="Require this tag (repeatable, AND)."
)
@click.pass_context
def catalog_query(ctx: click.Context, tags: tuple[str, ...]) -> None:
    """List patterns carrying all the given tags."""
    catalog = _load_corpus(ctx)
    try:
        matches = cataloglib.query(catalog, tags)
    except ValueError as exc:
        raise click.UsageError(str(exc)) from exc
    for pattern in matches:
        click.echo(pattern.name)


@catalog_group.command(name="diff")
@click.argument("name_a")
@click.argument("name_b")
@click.pass_context
def catalog_diff(ctx: click.Context, name_a: str, name_b: str) -> None:
    """Compare two patterns step by step."""
    catalog = _load_corpus(ctx)
    try:
        result = cataloglib.diff(catalog, name_a, name_b)
    except KeyError as exc:
        raise click.UsageError(str(exc.args[0])) from exc
    except ValueError as exc:
        raise click.ClickException(str(exc)) from exc
    for title, items in (
        ("shared", result.shared),
        (f"only in {result.a}", result.only_in_a),
        (f"only in {result.b}", result.only_in_b),
    ):
        click.echo(f"{title}:")
        for direction, action in items:
            click.echo(f"  {direction} {action}")


@catalog_group.command(name="export")
@click.option(
    "--output",
    "output_path",
    type=click.Path(dir_okay=False, writable=True),
    default=None,
    help="Write JSON here instead of stdout.",
)
@click.pass_context
def catalog_export(ctx: click.Context, output_path: str | None) -> None:
    """Export the whole catalog as JSON."""
    catalog = _load_corpus(ctx)
    text = json.dumps(cataloglib.export_json(catalog), indent=2, sort_keys=True)
    if output_path:
        _write(ctx, output_path, text + "\n")
        click.echo(f"wrote {output_path}")
    else:
        click.echo(text)


# ---------------------------------------------------------------------------
# run
# ---------------------------------------------------------------------------


@main.command(name="run")
@click.argument("name")
@click.option(
    "--agents",
    "agents_path",
    required=True,
    type=click.Path(exists=True, dir_okay=False),
    help="Agent configuration (.agents file).",
)
@click.option("--seed", default=0, show_default=True, help="Run seed (recorded).")
@click.option(
    "--repeat",
    default=1,
    show_default=True,
    type=click.IntRange(min=0),
    help="Number of repetitions.",
)
@click.option(
    "--trace",
    "trace_path",
    type=click.Path(dir_okay=False, writable=True),
    default=None,
    help="Write the JSONL trace here instead of stdout.",
)
@click.pass_context
def run_command(
    ctx: click.Context,
    name: str,
    agents_path: str,
    seed: int,
    repeat: int,
    trace_path: str | None,
) -> None:
    """Simulate a pattern or scenario with configured agents: the trace goes
    to stdout or ``--trace``, a line per aborted run and a summary to stderr."""
    catalog = _load_corpus(ctx)
    try:
        agents = parse_agents(
            Path(agents_path).read_text(encoding="utf-8"), agents_path
        )
    except ValueError as exc:
        raise click.UsageError(str(exc)) from exc
    try:
        traces = run_scenario(catalog, name, agents, seed=seed, repeat=repeat)
    except LookupError as exc:
        raise click.UsageError(str(exc.args[0])) from exc
    except ValueError as exc:
        raise click.ClickException(str(exc)) from exc
    text = "".join(trace.to_jsonl() for trace in traces)
    if trace_path:
        _write(ctx, trace_path, text)
        click.echo(f"wrote {trace_path}")
    else:
        click.echo(text, nl=False)
    failed = [t for t in traces if t.outcome != "completed"]
    for trace in failed:
        abort = trace.outcome["aborted"]
        click.echo(
            f"run {trace.run_id} aborted at step {abort['step']} "
            f"({abort['code']})",
            err=True,
        )
    codes = sorted(Counter(trace.outcome["aborted"]["code"] for trace in failed).items())
    aborted = f" ({', '.join(f'{code}: {n}' for code, n in codes)})" if codes else ""
    steps = text.count("\n") - 2 * len(traces)  # less each run's header and outcome lines
    click.echo(f"ran {name}: {len(traces)} run(s), {steps} step(s), {len(traces) - len(failed)} "
               f"completed, {len(failed)} aborted{aborted}", err=True)
    if failed:
        ctx.exit(1)


# ---------------------------------------------------------------------------
# replay
# ---------------------------------------------------------------------------


@main.command(name="replay")
@click.argument("trace_path", metavar="TRACE", type=click.Path(exists=True, dir_okay=False))
@click.pass_context
def replay_command(ctx: click.Context, trace_path: str) -> None:
    """Re-run a JSONL trace file against the corpus and report each run's
    first difference (exit 1 if there is one)."""
    catalog = _load_corpus(ctx)
    with open(trace_path, "rb") as raw:  # a line at a time, each decoded alone
        diags = replay_check((line.decode("utf-8") for line in raw), catalog)
    for diag in diags:
        click.echo(dataclasses.replace(diag, path=trace_path).format())
    click.echo(f"replayed {trace_path}: {len(diags)} finding(s)")
    if diags:
        ctx.exit(1)


# ---------------------------------------------------------------------------
# diagram
# ---------------------------------------------------------------------------


def mermaid_diagram(catalog: cataloglib.Catalog, name: str) -> str:
    """Render the pattern or scenario ``name`` as a Mermaid sequence diagram.

    Participants appear in order of first appearance; requests use ``->>``,
    provides ``-->>``, and each arrow is labeled with the action and the type
    of its head.  ``KeyError`` if there is no such flow, ``ValueError`` if a
    message does not resolve.
    """
    participants: list[str] = []
    arrows: list[str] = []
    for step in catalog.steps(name):
        message, action = step.message, step.action
        for role in (message.sender, message.receiver):
            if role not in participants:
                participants.append(role)
        arrow = "->>" if action.primitive.kind is PrimitiveKind.REQUEST else "-->>"
        head = print_type(action.primitive.head.type)
        arrows.append(
            f"    {message.sender}{arrow}{message.receiver}: "
            f"{action.name} [{head}]"
        )
    lines = ["sequenceDiagram"]
    lines.extend(f"    participant {p}" for p in participants)
    lines.extend(arrows)
    return "\n".join(lines) + "\n"


@main.command()
@click.argument("name")
@click.option(
    "--format",
    "format_name",
    default="mermaid",
    show_default=True,
    help="Output format (only 'mermaid' is supported).",
)
@click.pass_context
def diagram(ctx: click.Context, name: str, format_name: str) -> None:
    """Render a pattern or scenario as a sequence diagram."""
    if format_name != "mermaid":
        raise click.UsageError(f"unknown diagram format {format_name!r}")
    catalog = _load_corpus(ctx)
    try:
        text = mermaid_diagram(catalog, name)
    except KeyError as exc:
        raise click.UsageError(str(exc.args[0])) from exc
    except ValueError as exc:
        raise click.ClickException(str(exc)) from exc
    click.echo(text, nl=False)


if __name__ == "__main__":
    main()
