"""Layered benchmark for haiproto: end-to-end rates and a traced per-layer run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --smoke

Each workload is generated from the seed (see ``inputs.py``) into a scratch
directory that the package only reads.  One operation does the work of a
``haiproto check DIR``, a ``haiproto run FLOW --repeat R --trace`` and a
replay of that trace, through the public API, in this process and thread:
one closed-loop client, no pool.

With ``--trace 0`` the run reports the end-to-end metrics: medians over the
timed operations, and the set-up time and peak resident memory of fresh
processes that each set up and run one operation.  With ``--trace 1`` it alternates plain and
traced operations and reports per-layer counts and self times (``spans.py``)
plus the tracing overhead.  Every operation's output is checked against the
package-independent reference in ``inputs.py``; the last line of standard
output is one JSON object with the verdict and the metrics.

``--smoke`` runs every workload at a tiny size, traced and untraced, and
once with one output corrupted on purpose, which must count as a failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import gc
import json
import os
import re
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import inputs
import spans as spanlib

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
WORK = HERE / ".work"

SETUPS = 4  # set-ups measured per run: this process and three fresh ones
CALIBRATION_S = 0.05  # calibrate() on the reference machine; rates are scaled to it
MIN_OPS = 3  # timed operations per run, however short --seconds is
CHILD_TIMEOUT_S = 120

END_TO_END = [
    ("setup_s", "s"),
    ("check_decls_per_s", "decl/s"),
    ("sim_steps_per_s", "step/s"),
    ("replay_steps_per_s", "step/s"),
    ("trace_bytes_per_step", "B"),
    ("peak_mem_mb", "MB"),
    ("ok_ops_ratio", "1"),
]

# ``<span>.calls`` and ``<span>.self_s`` come from the spans of that name;
# the other names are counters the boundaries keep (see ``spans.py``) or
# are computed below.
PER_LAYER = [
    ("dsl.tokenize.calls", "count"),
    ("dsl.tokenize.tokens", "count"),
    ("dsl.tokenize.self_s", "s"),
    ("dsl.parse.calls", "count"),
    ("dsl.parse.decls", "count"),
    ("dsl.parse.self_s", "s"),
    ("dsl.parse_type.calls", "count"),
    ("dsl.parse_type.self_s", "s"),
    ("catalog.load.files", "count"),
    ("catalog.load.errors", "count"),
    ("catalog.load.self_s", "s"),
    ("catalog.check_catalog.self_s", "s"),
    ("catalog.compose.calls", "count"),
    ("catalog.compose.self_s", "s"),
    ("check.check_action.calls", "count"),
    ("check.check_action.self_s", "s"),
    ("check.check_message.calls", "count"),
    ("check.check_message.self_s", "s"),
    ("check.check_pattern.calls", "count"),
    ("check.check_pattern.self_s", "s"),
    ("check.check_pattern.per_flow", "1"),
    ("check.message_slots.calls", "count"),
    ("check.message_slots.self_s", "s"),
    ("check.diagnostics", "count"),
    ("runtime.run_scenario.self_s", "s"),
    ("runtime.run.calls", "count"),
    ("runtime.run.steps", "count"),
    ("runtime.run.aborted", "count"),
    ("runtime.run.self_s", "s"),
    ("runtime.agent.produce.calls", "count"),
    ("runtime.agent.produce.self_s", "s"),
    ("runtime.agent.on_receive.calls", "count"),
    ("runtime.agent.on_receive.self_s", "s"),
    ("runtime.classify.calls", "count"),
    ("runtime.classify.self_s", "s"),
    ("runtime.to_jsonl.bytes", "B"),
    ("runtime.to_jsonl.self_s", "s"),
    ("runtime.trace.produced_share", "1"),
    ("runtime.from_jsonl.self_s", "s"),
    ("runtime.replay_check.self_s", "s"),
    ("bench.op.self_s", "s"),
    ("trace.spans", "count"),
    ("trace.absent", "count"),
    ("trace.overhead", "1"),
]


def import_package():
    """Import haiproto from this checkout's source tree, and only from there."""
    sys.path.insert(0, str(SRC))
    import haiproto

    if Path(haiproto.__file__).resolve().parent != (SRC / "haiproto").resolve():
        raise SystemExit(f"imported haiproto from {haiproto.__file__}, not {SRC}")
    return haiproto


@dataclasses.dataclass
class Outcome:
    """What one operation returned, and how long each stage took."""

    start: float
    check_s: float
    sim_s: float
    replay_s: float
    end: float
    decls: tuple[int, int, int, int]
    diagnostics: int
    text: str
    steps: int
    flows: int
    replay: list


def operation(hp, work: inputs.Workload, agents, pause=None) -> Outcome:
    """Check the corpus, run and serialize the plan, replay the trace.

    ``pause``, if given, is called before and after each stage, outside the
    stage's timing.
    """
    clock = time.perf_counter
    if pause:
        pause()
    t0 = clock()
    catalog, diags = hp.load_with_diagnostics([work.corpus])
    reports = hp.check_catalog(catalog)
    t1 = clock()
    if pause:
        pause()
    t1_resume = clock()
    traces = []
    for flow, repeat in work.plan:
        traces.extend(hp.run_scenario(catalog, flow, agents, repeat=repeat))
    text = "".join(trace.to_jsonl() for trace in traces)
    t2 = clock()
    if pause:
        pause()
    t2_resume = clock()
    replay = hp.replay_check(text, catalog)
    t3 = clock()
    if pause:
        pause()
    decls = (
        len(catalog.actions),
        len(catalog.messages),
        len(catalog.patterns),
        len(catalog.scenarios),
    )
    return Outcome(
        start=t0,
        check_s=t1 - t0,
        sim_s=t2 - t1_resume,
        replay_s=t3 - t2_resume,
        end=t3,
        decls=decls,
        diagnostics=len(diags) + sum(len(r.diagnostics) for r in reports),
        text=text,
        steps=sum(len(trace.steps) for trace in traces),
        flows=len({trace.pattern for trace in traces}),
        replay=list(replay),
    )


_WORD = re.compile(r"[a-z]+[0-9]*")


def calibrate() -> float:
    """Seconds for a fixed, stdlib-only mix of dict, json and regex work.

    Shared machines change speed by a third over seconds to minutes.  An
    operation's times are scaled by how much slower than the reference this
    ran just before and just after it, so runs made at different moments
    stay comparable.  It allocates little, so it does not raise the peak
    memory of the process it runs in.
    """
    start = time.perf_counter()
    table: dict[str, int] = {}
    for i in range(7_000):
        key = "k%d" % (i % 997)
        table[key] = table.get(key, 0) + i
        text = json.dumps({"step": i, "key": key, "vec": [i * 0.5, 1.5]}, sort_keys=True)
        _WORD.findall(json.loads(text)["key"] + text)
    return time.perf_counter() - start


def corrupt(text: str) -> str:
    """Change the first produced value in a trace, keeping it valid JSON."""
    lines = text.split("\n")
    for index, line in enumerate(lines):
        entry = json.loads(line) if line else {}
        if entry.get("produced"):
            var = min(entry["produced"])
            entry["produced"][var]["value"] = "corrupted"
            lines[index] = json.dumps(entry, sort_keys=True, separators=(",", ":"))
            return "\n".join(lines)
    raise ValueError("trace has no produced value to corrupt")


class Runner:
    """Runs operations on fresh agents and checks every output."""

    def __init__(self, hp, work: inputs.Workload):
        self.hp = hp
        self.work = work
        self.first: Outcome | None = None  # first output that passed every check
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def attempt(self, op=operation) -> Outcome | None:
        """One operation; ``None`` if it raised or its output is wrong."""
        self.attempted += 1
        try:
            # The stub learner keeps its examples across runs, so every
            # operation starts from freshly parsed agents.
            agents = self.hp.parse_agents(self.work.agents_text)
            gc.collect()
            out = op(self.hp, self.work, agents)
        except Exception as exc:  # a failed operation is counted, not fatal
            self.fail(f"operation raised {type(exc).__name__}: {exc}")
            return None
        found = self.check(out)
        if found:
            self.fail("; ".join(found))
            return None
        if self.first is None:
            self.first = out
        return out

    def check(self, out: Outcome) -> list[str]:
        work, found = self.work, []
        if out.decls != work.decls:
            found.append(f"catalog counts {out.decls}, expected {work.decls}")
        if out.diagnostics:
            found.append(f"{out.diagnostics} diagnostics from load and check")
        if out.replay:
            found.append(f"replay_check found {len(out.replay)} problems")
        if out.steps != work.steps:
            found.append(f"{out.steps} steps, expected {work.steps}")
        if self.first is not None:
            if out.text != self.first.text:
                found.append("trace differs from the first operation's")
            return found
        found += inputs.check_trace(out.text, work.runs)
        for path in work.hai_files():
            text = path.read_text(encoding="utf-8")
            parsed = self.hp.parse(text, str(path))
            if parsed.file is None or self.hp.print_source(parsed.file) != text:
                found.append(f"{path.name} does not reprint byte-equal")
                break
        return found

    def fail(self, problem: str) -> None:
        self.failed += 1
        self.problems.append(problem)


def generate(name: str, seed: int, sizes: inputs.Sizes) -> inputs.Workload:
    out = WORK / f"{name}-s{seed}-p{os.getpid()}"
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    return inputs.WORKLOADS[name](seed, sizes, out)


def slowdown(before: float, after: float) -> float:
    """How much slower than the reference the machine ran between two
    calibrations: above 1 means slower."""
    return (before + after) / 2 / CALIBRATION_S


def set_up(work: inputs.Workload) -> tuple[Runner, float]:
    """Import, load agents and run the first, cold operation.

    Returns the runner and the set-up time at the reference speed.
    """
    before = calibrate()
    t0 = time.perf_counter()
    hp = import_package()
    runner = Runner(hp, work)
    out = runner.attempt()
    if out is None:
        return runner, 0.0
    return runner, (out.end - t0) / slowdown(before, calibrate())


def child_set_up(args) -> tuple[float, float]:
    """Set-up time and peak resident MB of a fresh interpreter that sets up
    the same workload and seed; its peak is that of one operation."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-only"] + (["--smoke"] if args.smoke else [])
    done = subprocess.run(cmd, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
    if done.returncode != 0:
        raise RuntimeError(f"set-up process failed: {done.stderr.strip()[-500:]}")
    setup_s, peak_mb = done.stdout.split()
    return float(setup_s), float(peak_mb)


def produced_share(text: str) -> float:
    """Characters inside ``produced`` values over all trace characters."""
    decoder = json.JSONDecoder()
    inside = 0
    for line in text.splitlines():
        match = re.search(r'"produced"\s*:\s*', line)
        if match:
            _, end = decoder.raw_decode(line, match.end())
            inside += end - match.end()
    return inside / len(text)


def layer_values(tracer: spanlib.Tracer, out: Outcome) -> dict[str, float]:
    times = spanlib.self_times(tracer.spans)
    values: dict[str, float] = {}
    for name, _ in PER_LAYER:
        span, _, kind = name.rpartition(".")
        if kind == "calls":
            values[name] = len(times.get(span, ()))
        elif kind == "self_s":
            values[name] = sum(times.get(span, ()))
        else:
            values[name] = tracer.counts.get(name, 0)
    values["check.check_pattern.per_flow"] = values["check.check_pattern.calls"] / out.flows
    values["runtime.trace.produced_share"] = produced_share(out.text)
    values["trace.spans"] = len(tracer.spans)
    values["trace.absent"] = len(tracer.absent)
    return values


def self_sum_error(tracer: spanlib.Tracer) -> float:
    """|sum of self times - root duration|, relative to the root."""
    roots = [s for s in tracer.spans if s[3] < 0]
    if len(roots) != 1:
        return float("inf")
    total = sum(sum(v) for v in spanlib.self_times(tracer.spans).values())
    root = roots[0][2] - roots[0][1]
    return abs(total - root) / root


def write_spans(tracer: spanlib.Tracer, path: Path) -> None:
    origin = tracer.spans[0][1]
    with path.open("w", encoding="utf-8") as f:
        for name, start, end, parent in tracer.spans:
            f.write(json.dumps({"name": name, "start": start - origin,
                                "end": end - origin, "parent": parent}) + "\n")


def med(values):
    """Median, or 0 when no operation succeeded (the run is then incorrect)."""
    return statistics.median(values) if values else 0.0


def end_to_end(args, runner: Runner, setup_s: float) -> tuple[dict, list[str]]:
    children = []
    for _ in range(SETUPS - 1):
        try:
            children.append(child_set_up(args))
        except (RuntimeError, ValueError, subprocess.TimeoutExpired) as exc:
            runner.attempted += 1  # a set-up process that fails is a failed operation
            runner.fail(str(exc))
    # Every stage is bracketed by calibrations, and its rate is scaled by
    # the machine's slowdown over that bracket.
    marks: list[float] = []

    def calibrated(hp, work, agents):
        marks.clear()
        return operation(hp, work, agents, pause=lambda: marks.append(calibrate()))

    timed = []
    start = time.perf_counter()
    while len(timed) < MIN_OPS or time.perf_counter() - start < args.seconds:
        out = runner.attempt(calibrated)
        if out is not None:
            out.text = ""  # keep the numbers, not the trace
            timed.append((out, [slowdown(a, b) for a, b in zip(marks, marks[1:])]))
        elif runner.failed > MIN_OPS:
            break
    first = runner.first
    samples = {
        "setup_s": [setup_s] + [c[0] for c in children],
        "check_decls_per_s": [f[0] * sum(o.decls) / o.check_s for o, f in timed],
        "sim_steps_per_s": [f[1] * o.steps / o.sim_s for o, f in timed],
        "replay_steps_per_s": [f[2] * o.steps / o.replay_s for o, f in timed],
        "trace_bytes_per_step": [len(first.text.encode()) / first.steps] if first else [],
        "peak_mem_mb": [c[1] for c in children],
        "ok_ops_ratio": [(runner.attempted - runner.failed) / runner.attempted],
    }
    metrics, lines = {}, []
    for name, unit in END_TO_END:
        values = samples[name]
        metrics[name] = {"value": med(values), "unit": unit}
        spread = f" (min {min(values):.6g}, max {max(values):.6g})" if len(values) > 1 else ""
        lines.append(f"{name:<22} {med(values):>14.6g} {unit:<7} median of {len(values)}{spread}")
    factors = [x for _, f in timed for x in f]
    lines.append(f"slowdown               {med(factors):>14.6g} 1       median of {len(factors)} "
                 f"(min {min(factors, default=0):.4g}, max {max(factors, default=0):.4g}); "
                 f"times were divided and rates multiplied by it")
    ratio = runner.failed / runner.attempted
    lines.append(f"failed_ops_ratio       {ratio:>14.6g} 1       {runner.failed} of {runner.attempted}")
    return metrics, lines


def per_layer(args, runner: Runner) -> tuple[dict, list[str]]:
    tracer = spanlib.Tracer()
    root = tracer.wrap(spanlib.ROOT, operation)

    def traced_operation(hp, work, agents):
        tracer.reset()
        tracer.install()
        try:
            return root(hp, work, agents)
        finally:
            tracer.uninstall()

    plain, traced, layers = [], [], []
    start = time.perf_counter()
    while len(traced) < MIN_OPS or time.perf_counter() - start < args.seconds:
        out = runner.attempt()
        if out is not None:
            plain.append(out.end - out.start)
        out = runner.attempt(traced_operation)
        if out is None:
            if runner.failed > MIN_OPS:
                break
            continue
        error = self_sum_error(tracer)
        if error > 1e-9:
            runner.fail(f"self times miss the root duration by {error:.3g} of it")
            continue
        traced.append(out.end - out.start)
        layers.append(layer_values(tracer, out))
    if tracer.spans:
        write_spans(tracer, WORK / f"{args.workload}.spans.jsonl")
    metrics, lines = {}, []
    for name, unit in PER_LAYER:
        value = med([v[name] for v in layers])
        if name == "trace.overhead":
            value = med(traced) / med(plain) - 1 if traced and plain else 0.0
        metrics[name] = {"value": value, "unit": unit}
        lines.append(f"{name:<32} {value:>14.6g} {unit}")
    lines.append(f"traced ops {len(traced)}, plain ops {len(plain)}")
    lines += [f"absent boundary: {b}" for b in tracer.absent]
    return metrics, lines


def run(args) -> dict:
    work = generate(args.workload, args.seed, inputs.SMOKE if args.smoke else inputs.FULL)
    try:
        runner, setup_s = set_up(work)
        if args.trace:
            metrics, lines = per_layer(args, runner)
        else:
            metrics, lines = end_to_end(args, runner, setup_s)
    finally:
        shutil.rmtree(work.corpus.parent, ignore_errors=True)
    print(f"# {args.workload} seed {args.seed}: {work.steps} steps, "
          f"{sum(work.decls)} declarations per operation")
    for line in lines:
        print(line)
    for problem in runner.problems[:10]:
        print(f"FAILED: {problem}")
    return {
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": metrics,
    }


def smoke() -> int:
    """Every workload, untraced and traced, at a tiny size; then corrupted."""
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    ok = (
        [(m["name"], m["unit"]) for m in spec["end_to_end"]] == END_TO_END
        and [(m["name"], m["unit"]) for m in spec["per_layer"]] == PER_LAYER
        and [w["name"] for w in spec["workloads"]] == list(inputs.WORKLOADS)
    )
    print(f"smoke BENCHMARK.json names these metrics and workloads: {'ok' if ok else 'FAILED'}")
    for name in inputs.WORKLOADS:
        for trace in (0, 1):
            args = argparse.Namespace(workload=name, seed=7, seconds=0, trace=trace, smoke=True)
            result = run(args)
            expected = {n for n, _ in (PER_LAYER if trace else END_TO_END)}
            good = result["correct"] and set(result["metrics"]) == expected
            print(f"smoke {name} trace={trace}: {'ok' if good else 'FAILED'}")
            ok = ok and good
        # The corrupted output is the first one checked, so it meets the
        # full reference check; the clean one after it must pass that check.
        def corrupted(hp, work, agents):
            out = operation(hp, work, agents)
            out.text = corrupt(out.text)
            return out

        work = generate(name, 7, inputs.SMOKE)
        try:
            runner = Runner(import_package(), work)
            runner.attempt(corrupted)
            runner.attempt()
        finally:
            shutil.rmtree(work.corpus.parent, ignore_errors=True)
        caught = runner.failed == 1 and runner.first is not None
        print(f"smoke {name} corrupted output counted as failure: {'ok' if caught else 'FAILED'}")
        ok = ok and caught
    return 0 if ok else 1


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(inputs.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny sizes, every workload")
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args()
    if not (SRC / "haiproto" / "__init__.py").is_file():
        print(f"no haiproto source at {SRC}", file=sys.stderr)
        return 2
    if args.setup_only:
        work = generate(args.workload, args.seed, inputs.SMOKE if args.smoke else inputs.FULL)
        try:
            before = calibrate()
            t0 = time.perf_counter()
            hp = import_package()
            agents = hp.parse_agents(work.agents_text)
            gc.collect()
            out = operation(hp, work, agents)
            peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6
            print((out.end - t0) / slowdown(before, calibrate()), peak_mb)
        finally:
            shutil.rmtree(work.corpus.parent, ignore_errors=True)
        return 0
    if args.smoke:
        return smoke()
    if args.workload is None:
        parser.error("--workload is required")
    print(json.dumps(run(args)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
