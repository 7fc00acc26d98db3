"""The benchmark's smoke run: every workload at a tiny size, traced and
untraced, with its output checks, must pass against this source tree; and
its tracer finds the layer boundaries it looks up."""

from __future__ import annotations

import importlib.util
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_the_benchmark_smoke_run_passes():
    result = subprocess.run(
        [sys.executable, "perfbench/run.py", "--smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert result.returncode == 0, result.stdout + result.stderr
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    expected = ["smoke BENCHMARK.json names these metrics and workloads: ok"]
    for workload in (w["name"] for w in spec["workloads"]):
        expected += [f"smoke {workload} trace={trace}: ok" for trace in (0, 1)]
        expected.append(f"smoke {workload} corrupted output counted as failure: ok")
    printed = result.stdout.splitlines()
    assert [line for line in expected if line not in printed] == []


def test_the_tracer_misses_only_the_four_stale_boundaries():
    """A boundary moved out from under the name ``perfbench/spans.py`` looks
    it up would blind its per-layer metric; these four are already stale
    (ROADMAP item 1), and re-pointing them updates this list."""
    spec = importlib.util.spec_from_file_location("spans", ROOT / "perfbench" / "spans.py")
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    tracer = spans.Tracer()
    try:
        tracer.install()
        absent = tracer.absent
    finally:
        tracer.uninstall()
    assert absent == [
        "haiproto.check.message_slots",
        "haiproto.runtime.message_slots",
        "haiproto.runtime.compose",
        "haiproto.runtime.check_pattern",
    ]
