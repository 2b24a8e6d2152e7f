"""Checks of the benchmark itself.

Run from the root of the repository (about a minute)::

    PYTHONPATH=src python3 -m pytest perfbench/selftest.py -q
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import metrics  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402


@pytest.fixture
def workdir(tmp_path):
    run.pin_environment(tmp_path)
    return tmp_path


def traced_run(name: str, seed: int, workdir: Path):
    import workloads

    workload = workloads.WORKLOADS[name]
    expected, worst = run.verify(workload, seed)
    assert worst <= workloads.TOLERANCE
    return run.run_traced(workload, seed, 0.0, workdir, expected)


#: per-layer figures that are counts, which must repeat exactly.
COUNTS = tuple(
    name for name, unit, _, _ in metrics.PER_LAYER
    if unit in ("count", "B", "ratio") and not name.endswith("bw_frac")
) + ("wse.codegen.useful", "service.compile_hits", "service.compile_lookups")


@pytest.mark.parametrize(
    "name", ["seismic-paper-small", "uvkbe-paper-small", "paper-sweep"])
def test_two_traced_runs_of_one_seed_give_identical_counts(name, workdir):
    runs = []
    for repeat in range(2):
        (workdir / str(repeat)).mkdir()
        _, loop, cold, steady, _ = traced_run(name, 5, workdir / str(repeat))
        assert loop.failed == 0
        runs.append([
            {key: figures[key] for key in COUNTS if key in figures}
            for _, figures in cold + steady
        ])
    assert runs[0] == runs[1]
    assert runs[0][0]["wse.sim.rounds"] > 0


def test_each_sweep_pass_is_cold_in_every_layer(workdir):
    import workloads

    workload = workloads.WORKLOADS["paper-sweep"]
    expected, _ = run.verify(workload, 3)
    tracer = tracing.Tracer()
    loop = run.Loop(workloads.job_stream(workload, 3, str(workdir)), expected,
                    len(workload.configs))
    jobs = run.traced_jobs(loop, tracer, 2 * loop.unit)
    loop.stream.close()
    assert len(jobs) == 2 * len(workload.configs)
    for spans, figures in jobs:
        # the run cache missed: the job compiled, planned and simulated
        assert figures["service.compile_lookups"] == 1
        assert figures["service.compile_hits"] == 0
        assert figures["transforms.rewrites"] > 0
        assert figures["wse.codegen.generated"] >= 1
        assert figures["wse.codegen.memory_hits"] == 0
        assert figures["wse.codegen.store_hits"] == 0
        assert figures["wse.sim.rounds"] > 0


def test_child_spans_account_for_the_job_wall_time(workdir):
    _, _, cold, steady, _ = traced_run("uvkbe-paper-small", 2, workdir)
    for spans, figures in cold + steady:
        layers = metrics.layer_self_times(spans)
        assert math.isclose(sum(layers.values()), figures["job_s"], rel_tol=1e-9)
        assert layers["bench"] == pytest.approx(figures["trace.unattributed_s"])
        assert figures["trace.unattributed_s"] < 0.01 * figures["job_s"]


def test_spans_nest_under_one_job():
    tracer = tracing.Tracer()
    with tracer.job("a"), tracer.span("outer", "x"):
        tracer.on_stage("digesting")
        with tracer.span("inner", "y"):
            pass
    root, outer, stage, inner = tracer.spans
    assert (outer.parent, stage.parent, inner.parent) == (root.id, outer.id, stage.id)
    assert {span.job for span in tracer.spans} == {1}
    assert stage.end <= outer.end <= root.end
    own = tracing.self_times(tracer.spans)
    assert sum(own.values()) == pytest.approx(root.duration)
    document = tracing.chrome_trace(tracer, {})
    assert [event["name"] for event in document["traceEvents"]] == [
        "job", "outer", "service.digest", "inner"]


def test_probes_are_restored_after_tracing():
    from repro.service.run import RunService
    from repro.wse.plan import ExecutionPlan

    before = (RunService.run, ExecutionPlan.__dict__["compile"])
    with tracing.instrumented(tracing.Tracer()):
        assert RunService.run is not before[0]
    assert (RunService.run, ExecutionPlan.__dict__["compile"]) == before


def test_benchmark_json_names_every_reported_metric():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == [
        (name, unit, better) for name, unit, _, better in metrics.PER_LAYER]
    assert {m["name"] for m in spec["end_to_end"]} == {"job_s", "setup_s", "peak_rss_mb"}
    import workloads

    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    completed = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "paper-sweep",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert completed.returncode != 0
    assert '"correct"' not in completed.stdout
