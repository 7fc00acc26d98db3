"""Seeded workload inputs and the reference the outputs are checked against.

Nothing here imports ``haiproto``.  The generators write plain ``.hai``,
sidecar and ``.agents`` files from the packaged corpus text and the seed;
the program under test only ever sees those files.  The expected trace
contents are recomputed here from the generated agents file with a few lines
of our own (queues that repeat their last value, the sorted vocabulary, the
nearest centroid), so a bug in the runtime cannot hide behind itself.
"""

from __future__ import annotations

import json
import random
import re
from dataclasses import dataclass, field
from pathlib import Path

FIXTURES = Path(__file__).resolve().parent.parent / "src" / "haiproto" / "fixtures"

#: Declarations in the packaged corpus: actions, messages, patterns, scenarios.
CORPUS_DECLS = (45, 77, 36, 8)

# An identifier as the ``.hai`` lexer reads it: ``-`` joins two word parts,
# so ``sample-annotation`` is one name.  A plain ``\b`` regex would split it.
IDENT = re.compile(r"[A-Za-z][A-Za-z0-9_]*(?:-[A-Za-z0-9_]+)*")
DECL = re.compile(r"^(action|message|pattern) (" + IDENT.pattern + ")", re.M)

# Every label has the same length and the stub knows them all, so the size
# of a trace does not depend on the seed; only which label is taught does.
LABEL_POOL = ("angry", "bored", "happy", "proud", "tense")
STUB_LABELS = LABEL_POOL
QUEUE = 6  # scripted A2.Y / A4.X values, as in the robot demo agents


@dataclass(frozen=True)
class Sizes:
    copies: int = 60  # corpus-check: renamed copies of the whole corpus
    sim_repeat: int = 300  # corpus-check: repetitions of one copy's D1
    teach: int = 2000  # teach-predict: D1 repetitions
    predict: int = 200  # teach-predict: D2 repetitions
    flow: int = 500  # long-flow: messages in the one pattern


FULL = Sizes()
SMOKE = Sizes(copies=1, sim_repeat=3, teach=3, predict=1, flow=10)

#: One expected run: the flow name and, per step, the message and the values
#: it produced (variable -> JSON value).
ExpectedRun = tuple[str, list[tuple[str, dict]]]


@dataclass
class Workload:
    name: str
    corpus: Path  # directory handed to load_with_diagnostics
    agents_text: str
    plan: list[tuple[str, int]]  # (flow, repeat), run in order on one agent set
    decls: tuple[int, int, int, int]  # expected catalog counts
    runs: list[ExpectedRun] = field(repr=False)

    @property
    def steps(self) -> int:
        return sum(len(steps) for _, steps in self.runs)

    def hai_files(self) -> list[Path]:
        return sorted(self.corpus.glob("*.hai"))


def _corpus_sources() -> tuple[list[tuple[str, str]], dict]:
    files = [(p.name, p.read_text(encoding="utf-8")) for p in sorted(FIXTURES.glob("*.hai"))]
    sidecar = json.loads((FIXTURES / "catalog.json").read_text(encoding="utf-8"))
    return files, sidecar


def _rename_code(text: str, names: dict[str, str]) -> str:
    """Rename identifiers outside comments; comments are kept verbatim."""
    out = []
    for line in text.splitlines(keepends=True):
        code, sep, comment = line.partition("//")
        code = IDENT.sub(lambda m: names.get(m.group(0), m.group(0)), code)
        out.append(code + sep + comment)
    return "".join(out)


def _vec(rng: random.Random) -> tuple[float, float]:
    return (rng.randrange(100) / 10, rng.randrange(100) / 10)


def _fmt_vec(v: tuple[float, ...]) -> str:
    return "vec(" + ", ".join(repr(c) for c in v) + ")"


def _robot_agents(rng: random.Random, msg) -> tuple[str, list[str], list[tuple]]:
    """An agents file in the robot demo layout with seeded queues.

    ``msg`` maps a corpus message name to its name in this workload.
    """
    ys = [rng.choice(LABEL_POOL) for _ in range(QUEUE)]
    xs = [_vec(rng) for _ in range(QUEUE)]
    lines = ["[user scripted]"]
    lines += [f'{msg("A2")}.Y = "{y}"' for y in ys]
    lines += [f'{msg("A4")}.X = {_fmt_vec(x)}' for x in xs]
    lines += [f'{msg("PE2")}.V = "confirm"', "", "[model stub]"]
    lines.append("labels = " + ", ".join(STUB_LABELS))
    return "\n".join(lines) + "\n", ys, xs


def nearest_centroid(sums: dict, counts: dict, point) -> str:
    """Label whose mean example is closest; exact ties go to the smaller label."""
    best = None
    for label, total in sums.items():
        dist = sum((s / counts[label] - p) ** 2 for s, p in zip(total, point))
        if best is None or (dist, label) < best:
            best = (dist, label)
    return best[1]


def _robot_runs(plan, msg, ys, xs) -> list[ExpectedRun]:
    """What D1 (teach) and D2 (predict) must produce, step by step.

    Both scripted queues advance once per repetition and then repeat their
    last value; A1 lists the stub's labels plus every label taught so far;
    A6 teaches one (A4.X, A2.Y) example; PE1 predicts A4.X's label.
    """
    vocab = set(STUB_LABELS)
    sums: dict[str, list[float]] = {}
    counts: dict[str, int] = {}
    cursor = 0
    runs: list[ExpectedRun] = []
    for flow, repeat, kind in plan:
        for _ in range(repeat):
            y, x = ys[min(cursor, QUEUE - 1)], xs[min(cursor, QUEUE - 1)]
            cursor += 1
            steps = [
                (msg("A1"), {"L": sorted(vocab)}),
                (msg("A2"), {"Y": y}),
                (msg("A3"), {}),
                (msg("A4"), {"X": {"vec": list(x)}}),
            ]
            if kind == "D1":
                steps += [(msg("A5"), {}), (msg("A6"), {})]
                vocab.add(y)
                total = sums.setdefault(y, [0.0, 0.0])
                for i, v in enumerate(x):
                    total[i] += v
                counts[y] = counts.get(y, 0) + 1
            else:
                steps += [
                    (msg("PE1"), {"P": nearest_centroid(sums, counts, x)}),
                    (msg("PE2"), {"V": "confirm"}),
                ]
            runs.append((flow, steps))
    return runs


def corpus_check(seed: int, sizes: Sizes, out: Path) -> Workload:
    """K renamed copies of the whole corpus, plus D1 of one copy.

    Every action, message, pattern and scenario name gets a per-copy suffix
    drawn from the seed; the merged sidecar is rewritten to match.
    """
    rng = random.Random(seed)
    files, sidecar = _corpus_sources()
    decls = [m.groups() for _, text in files for m in DECL.finditer(text)]
    counts = tuple(sum(kind == k for kind, _ in decls) for k in ("action", "message", "pattern"))
    counts += (len(sidecar["scenarios"]),)
    if counts != CORPUS_DECLS:
        raise RuntimeError(f"packaged corpus changed: {counts} declarations")
    # Scenarios share no namespace with messages (the corpus has both a
    # message and a scenario D1); one suffix per copy renames both alike.
    names = {name for _, name in decls} | set(sidecar["scenarios"])
    suffixes: list[str] = []
    while len(suffixes) < sizes.copies:
        s = "".join(rng.choice("abcdefghijkmnpqrstuvwxyz") for _ in range(4))
        if s not in suffixes:
            suffixes.append(s)
    corpus = out / "corpus"
    corpus.mkdir(parents=True)
    merged: dict = {"scenarios": {}, "annotations": {}, "interpretations": {}, "provide_only": []}
    renames = []
    for copy, suffix in enumerate(suffixes):
        ren = {n: f"{n}_{suffix}" for n in names}
        renames.append(ren)
        for fname, text in files:
            (corpus / f"k{copy:03d}_{fname}").write_text(_rename_code(text, ren), encoding="utf-8")
        for name, steps in sidecar["scenarios"].items():
            merged["scenarios"][ren[name]] = [ren[s] for s in steps]
        for table in ("annotations", "interpretations"):
            for name, note in sidecar[table].items():
                merged[table][ren[name]] = note
        merged["provide_only"] += [ren[n] for n in sidecar["provide_only"]]
    (corpus / "catalog.json").write_text(json.dumps(merged, indent=2) + "\n", encoding="utf-8")
    ren = renames[rng.randrange(sizes.copies)]
    agents, ys, xs = _robot_agents(rng, ren.__getitem__)
    plan = [(ren["D1"], sizes.sim_repeat, "D1")]
    return Workload(
        "corpus-check",
        corpus,
        agents,
        [(flow, repeat) for flow, repeat, _ in plan],
        tuple(sizes.copies * c for c in CORPUS_DECLS),
        _robot_runs(plan, ren.__getitem__, ys, xs),
    )


def teach_predict(seed: int, sizes: Sizes, out: Path) -> Workload:
    """The packaged corpus; D1 x teach, then D2 x predict on one agent set."""
    rng = random.Random(seed)
    files, sidecar = _corpus_sources()
    corpus = out / "corpus"
    corpus.mkdir(parents=True)
    for fname, text in files:
        (corpus / fname).write_text(text, encoding="utf-8")
    (corpus / "catalog.json").write_text(json.dumps(sidecar, indent=2) + "\n", encoding="utf-8")
    agents, ys, xs = _robot_agents(rng, str)
    plan = [("D1", sizes.teach, "D1"), ("D2", sizes.predict, "D2")]
    return Workload(
        "teach-predict",
        corpus,
        agents,
        [(flow, repeat) for flow, repeat, _ in plan],
        CORPUS_DECLS,
        _robot_runs(plan, str, ys, xs),
    )


def long_flow(seed: int, sizes: Sizes, out: Path) -> Workload:
    """One pattern of N provides, each introducing its own variable."""
    rng = random.Random(seed)
    n = sizes.flow
    values = [_vec(rng) for _ in range(n)]
    lines = ["action give(X) := provide(X: input.raw_data);"]
    lines += [f"message G{k} := user -> model : give(X{k});" for k in range(1, n + 1)]
    lines.append("pattern long-flow := [" + ", ".join(f"G{k}" for k in range(1, n + 1)) + "];")
    corpus = out / "corpus"
    corpus.mkdir(parents=True)
    (corpus / "long_flow.hai").write_text("\n".join(lines) + "\n", encoding="utf-8")
    agents = ["[user scripted]"]
    agents += [f"G{k}.X{k} = {_fmt_vec(v)}" for k, v in enumerate(values, start=1)]
    agents += ["", "[model scripted]"]
    steps = [(f"G{k}", {f"X{k}": {"vec": list(v)}}) for k, v in enumerate(values, start=1)]
    return Workload(
        "long-flow",
        corpus,
        "\n".join(agents) + "\n",
        [("long-flow", 1)],
        (1, n, 1, 0),
        [("long-flow", steps)],
    )


WORKLOADS = {"corpus-check": corpus_check, "teach-predict": teach_predict, "long-flow": long_flow}


def check_trace(text: str, runs: list[ExpectedRun], limit: int = 5) -> list[str]:
    """Compare JSONL trace text with the expected runs.

    Only what a run must produce is checked: flow and message names, the
    produced variables and values, per-step verdicts and the outcome.  The
    per-step ``bindings`` snapshot is deliberately not read, so a trace
    format without it stays checkable.
    """
    problems: list[str] = []
    traces: list[list[dict]] = [[]]
    for line in text.splitlines():
        if line.strip():
            entry = json.loads(line)
            traces[-1].append(entry)
            if "outcome" in entry:
                traces.append([])
    if traces[-1]:
        problems.append("trace text ends without an outcome line")
    traces.pop()
    if len(traces) != len(runs):
        problems.append(f"{len(traces)} runs in the trace, expected {len(runs)}")
    for index, (entries, (flow, steps)) in enumerate(zip(traces, runs)):
        header, body, footer = entries[0], entries[1:-1], entries[-1]
        where = f"run {index} ({flow})"
        if header.get("pattern") != flow:
            problems.append(f"{where}: header names {header.get('pattern')!r}")
        if footer["outcome"] != "completed" or len(body) != len(steps):
            problems.append(f"{where}: outcome {footer['outcome']!r} after {len(body)} steps")
        for step, (message, produced) in zip(body, steps):
            got = {var: p.get("value") for var, p in step.get("produced", {}).items()}
            if step.get("message") != message or step.get("verdict") != "ok" or got != produced:
                problems.append(
                    f"{where} step {step.get('step')}: {step.get('message')} "
                    f"{step.get('verdict')} produced {got}, expected {message} ok {produced}"
                )
        if len(problems) >= limit:
            break
    return problems[:limit]
