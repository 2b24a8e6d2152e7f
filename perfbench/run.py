"""The repository benchmark: run jobs end to end, and layer by layer.

Usage, from the root of the repository::

    python3 perfbench/run.py --workload seismic-paper-small --seed 1 \\
        --seconds 10 --trace 0

One closed-loop client submits the workload's jobs (see ``workloads.py``)
through ``RunService.run(..., executor="auto")`` for ``--seconds`` seconds.
Every job's field digests must equal the digests verified for its input
seed beforehand, through the layer calls and against the NumPy reference;
a job that raises or differs counts as failed.

``--trace 0`` reports the end-to-end metrics, with tracing off:

* ``job_s``: median wall time of one job (``job_s.p90`` is printed too
  where at least ten samples lie beyond the 90th percentile);
* ``setup_s``: median over several fresh interpreters of the wall time from
  process start (``import repro`` included) to the end of the first job on
  an empty cache directory;
* ``peak_rss_mb``: peak resident memory of this process, which verifies and
  runs the workload.

On a workload whose jobs are bound by the interpreter, ``job_s`` is
reported in nominal-host seconds: the measured wall time times the host's
speed over the run, as a pure-Python reference kernel timed between jobs
gives it (``host.Reference``).  The wall time and the speed are printed and
kept in the result file.

``--trace 1`` runs cold jobs and then alternates traced and untraced
steady-state jobs, and reports the per-layer metrics of ``metrics.py``.
Its spans are written as a Chrome trace-event file under
``perfbench/out/``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; a result file with
the host fingerprint and the labels of the run lands next to the trace.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import host

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"

#: knobs that would change what a job does, or write outside the run.
UNSET_ENV = ("REPRO_EXECUTOR", "REPRO_FUSION_ROUNDS", "REPRO_TILED_SHARDS",
             "REPRO_AUTO_BACKEND", "REPRO_AUTO_RECORD", "REPRO_PASS_TIMING",
             "REPRO_COMPILED_DUMP")

#: fresh interpreters timed for setup_s.
SETUP_REPEATS = 3

#: traced cold jobs of the single-program workloads.
COLD_JOBS = 2


def pin_environment(workdir: Path) -> dict:
    """Make the run independent of the caller's environment."""
    for name in UNSET_ENV:
        os.environ.pop(name, None)
    os.environ["REPRO_CACHE_DIR"] = str(workdir / "cache")
    # `auto` must decide from its host model, never from a BENCH_simulator.json
    # that happens to lie around.
    os.environ["REPRO_AUTO_TRAJECTORY"] = str(workdir / "no-trajectory.json")
    os.environ["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    return {name: os.environ[name] for name in ("REPRO_CACHE_DIR", "REPRO_AUTO_TRAJECTORY")}


def percentile(values: list[float], share: float) -> float:
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(share * len(ordered)))]


def label(artifact) -> str:
    stats = artifact.statistics
    return f"{stats['backend_decision'] or artifact.executor} R={max(1, stats['block_depth'])}"


# --------------------------------------------------------------------------- #
# Set-up: fresh interpreters
# --------------------------------------------------------------------------- #


def setup_child(workload_name: str, seed: int, workdir: Path) -> int:
    """Run the workload's first job on empty caches and report when it ended."""
    import workloads

    stream = workloads.job_stream(workloads.WORKLOADS[workload_name], seed, str(workdir))
    config, submit = next(stream)
    artifact = submit()
    end = time.monotonic()
    stream.close()
    print(json.dumps({"end": end, "config": config.name,
                      "digests": artifact.field_digests}))
    return 0


def measure_setup(workload_name: str, seed: int, workdir: Path) -> list[dict]:
    """Time :data:`SETUP_REPEATS` fresh interpreters, one after another."""
    results = []
    for repeat in range(SETUP_REPEATS):
        child_dir = workdir / f"setup-{repeat}"
        child_dir.mkdir()
        env = dict(os.environ, REPRO_CACHE_DIR=str(child_dir / "cache"))
        start = time.monotonic()
        completed = subprocess.run(
            [sys.executable, str(BENCH / "run.py"), "--workload", workload_name,
             "--seed", str(seed), "--setup-child", str(child_dir)],
            env=env, cwd=ROOT, capture_output=True, text=True, timeout=120)
        if completed.returncode != 0:
            raise RuntimeError(f"set-up interpreter failed:\n{completed.stderr}")
        report = json.loads(completed.stdout.strip().splitlines()[-1])
        report["setup_s"] = report["end"] - start
        results.append(report)
    return results


# --------------------------------------------------------------------------- #
# The measured process
# --------------------------------------------------------------------------- #


def verify(workload, seed: int) -> tuple[dict, float]:
    """Verified digests per config and the worst relative error seen."""
    from repro.service.service import CompileService

    import workloads

    compiler = CompileService(cache_dir=os.environ["REPRO_CACHE_DIR"])
    expected, worst = {}, 0.0
    for config in workload.configs:
        digests, error = workloads.verify_config(config, seed, compiler)
        expected[config.name] = digests
        worst = max(worst, error)
    compiler.shutdown()
    return expected, worst


class Loop:
    """The closed loop: jobs from one stream, checked against the digests."""

    def __init__(self, stream, expected: dict, unit: int):
        self.stream = stream
        self.expected = expected
        #: jobs per unit of work; units are never cut, so every unit covers
        #: each of the workload's programs once.
        self.unit = unit
        self.walls: list[float] = []
        self.attempted = 0
        self.failed = 0
        self.labels: dict[str, int] = {}

    def job(self, run=None):
        """Run one job; ``run(config, submit)`` may wrap the call (tracing)."""
        config, submit = next(self.stream)
        self.attempted += 1
        started = time.perf_counter()
        try:
            artifact = run(config, submit) if run else submit()
        except Exception as error:  # a failed job is counted, not fatal
            print(f"job {config.name} failed: {error!r}", file=sys.stderr)
            self.failed += 1
            return None
        wall = time.perf_counter() - started
        if artifact.field_digests != self.expected[config.name]:
            print(f"job {config.name}: field digests differ from the verified ones",
                  file=sys.stderr)
            self.failed += 1
            return None
        self.walls.append(wall)
        key = label(artifact)
        self.labels[key] = self.labels.get(key, 0) + 1
        return artifact

    def warm_up(self) -> None:
        """One unit whose times are dropped (lazy imports, allocator, page
        cache); its outputs are still checked."""
        for _ in range(self.unit):
            self.job()
        self.walls.clear()

    def units(self, seconds: float, minimum: int = 1):
        """Yield unit indices until ``seconds`` have passed."""
        deadline = time.perf_counter() + seconds
        index = 0
        while index < minimum or time.perf_counter() < deadline:
            yield index
            index += 1


def run_untraced(workload, seed: int, seconds: float, workdir: Path, expected,
                 reference: host.Reference) -> Loop:
    import workloads

    loop = Loop(workloads.job_stream(workload, seed, str(workdir)), expected,
                len(workload.configs))
    loop.warm_up()
    for _ in loop.units(seconds):
        for _ in range(loop.unit):
            loop.job()
        reference.sample()
    loop.stream.close()
    return loop


def traced_jobs(loop: Loop, tracer, count: int) -> list[tuple[list, dict]]:
    """Run ``count`` jobs with every probe installed; each job's spans and
    per-layer figures."""
    import metrics
    from tracing import instrumented

    def traced(config, submit):
        with instrumented(tracer), tracer.job(config.name):
            return submit(on_stage=tracer.on_stage)

    jobs = []
    for _ in range(count):
        first = len(tracer.spans)
        artifact = loop.job(traced)
        if artifact is not None:
            spans = tracer.spans[first:]
            jobs.append((spans, metrics.job_metrics(spans, artifact)))
    return jobs


def run_traced(workload, seed: int, seconds: float, workdir: Path, expected):
    """Cold jobs, then traced and untraced units in the order ABBA ABBA...
    so that a drift over the run biases neither side."""
    import workloads
    from tracing import Tracer

    tracer = Tracer()
    configs = workloads.ordered_configs(workload, seed)
    loop = Loop(None, expected, len(configs))
    cold = []
    if not workload.cold_passes:
        for _ in range(COLD_JOBS):
            loop.stream = workloads.cold_pass(configs, seed, str(workdir))
            cold += traced_jobs(loop, tracer, 1)
            loop.stream.close()
    loop.stream = workloads.job_stream(workload, seed, str(workdir))
    loop.warm_up()
    steady, untraced_walls = [], []
    for index in loop.units(seconds, minimum=2):
        if index % 4 in (1, 2):
            before = len(loop.walls)
            for _ in range(loop.unit):
                loop.job()
            untraced_walls += loop.walls[before:]
        else:
            steady += traced_jobs(loop, tracer, loop.unit)
    loop.stream.close()
    if workload.cold_passes:
        cold = steady
    return tracer, loop, cold, steady, untraced_walls


def layer_table(jobs: list[tuple[list, dict]]) -> list[str]:
    import metrics

    shares: dict[str, list[float]] = {}
    for spans, _ in jobs:
        for layer, seconds in metrics.layer_self_times(spans).items():
            shares.setdefault(layer, []).append(seconds)
    walls = [figures["job_s"] for _, figures in jobs]
    wall = statistics.median(walls)
    lines = [f"    {'layer':<22}{'self s':>11}{'share':>8}"]
    for layer, values in sorted(shares.items(), key=lambda item: -statistics.median(item[1])):
        median = statistics.median(values)
        lines.append(f"    {layer:<22}{median:>11.6f}{median / wall:>8.1%}")
    return lines


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-child", type=Path, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no repro sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))

    if args.setup_child is not None:
        pin_environment(args.setup_child)
        return setup_child(args.workload, args.seed, args.setup_child)

    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT))
    try:
        return measure(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def measure(args, workdir: Path) -> int:
    pinned = pin_environment(workdir)
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    workload = workloads.WORKLOADS[args.workload]
    result = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "host": host.fingerprint(), "pinned": pinned}
    print(f"host: {json.dumps(result['host'])}")
    print(f"pinned: {', '.join(UNSET_ENV)} unset; {json.dumps(pinned)}")

    setups = [] if args.trace else measure_setup(args.workload, args.seed, workdir)
    expected, worst = verify(workload, args.seed)
    verified = worst <= workloads.TOLERANCE
    print(f"verified {len(expected)} program(s) against the NumPy reference: "
          f"max relative error {worst:.3g} (tolerance {workloads.TOLERANCE:g})"
          f"{'' if verified else ' -- FAILED'}")

    if args.trace:
        loop, values, units = traced_report(args, workload, workdir, expected, result)
    else:
        job_reference = host.Reference()
        loop = run_untraced(workload, args.seed, args.seconds, workdir, expected,
                            job_reference)
        loop.attempted += len(setups)
        loop.failed += sum(setup["digests"] != expected[setup["config"]]
                           for setup in setups)
        result["job_wall_s"] = statistics.median(loop.walls)
        result["host_speed"] = job_reference.speed()
        scale = result["host_speed"] if workload.interpreter_bound else 1.0
        values = {
            "job_s": result["job_wall_s"] * scale,
            "setup_s": statistics.median(setup["setup_s"] for setup in setups),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        units = {"job_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
        print(f"backend: {loop.labels}; {len(loop.walls)} timed jobs; set-up "
              f"interpreters {', '.join(format(s['setup_s'], '.3f') for s in setups)} s")
        print(f"  job wall {result['job_wall_s']:.6f} s; host speed against nominal "
              f"{result['host_speed']:.3f}"
              f"{', applied to job_s' if workload.interpreter_bound else ''}")
        if len(loop.walls) >= 100:  # at least ten samples beyond the 90th percentile
            result["job_s.p90"] = percentile(loop.walls, 0.9) * scale
            print(f"  job_s.p90 {result['job_s.p90']:.6f} s")
        print(f"  error_rate {loop.failed / loop.attempted:.6f} "
              f"({loop.failed} of {loop.attempted} jobs)")

    for name, value in values.items():
        print(f"  {name} {value:.6g} {units[name]}")
    metrics_out = {name: {"value": value, "unit": units[name]}
                   for name, value in values.items()}
    result.update(labels=loop.labels, metrics=metrics_out)
    suffix = "-trace" if args.trace else ""
    (OUT / f"result-{args.workload}-seed{args.seed}{suffix}.json").write_text(
        json.dumps(result, indent=1))
    print(json.dumps({"correct": verified and loop.failed == 0,
                      "attempted": loop.attempted, "failed": loop.failed,
                      "metrics": metrics_out}))
    return 0


def traced_report(args, workload, workdir: Path, expected, result: dict):
    import metrics
    import tracing

    copy = json.loads(subprocess.run(
        [sys.executable, str(BENCH / "host.py")], cwd=ROOT, capture_output=True,
        text=True, check=True, timeout=120).stdout)
    print(f"host.copy_gbs: {copy['copy_gbs']:.2f} GB/s over two "
          f"{copy['array_bytes'] >> 20} MiB arrays (last-level cache "
          f"{copy['llc_bytes'] >> 20} MiB)")
    result["copy_probe"] = copy
    tracer, loop, cold, steady, untraced = run_traced(
        workload, args.seed, args.seconds, workdir, expected)
    values = metrics.summarize([f for _, f in cold], [f for _, f in steady],
                               untraced, copy["copy_gbs"])
    units = {name: unit for name, unit, _, _ in metrics.PER_LAYER}
    print(f"backend: {loop.labels}; traced {len(steady)} steady and {len(cold)} "
          f"cold job(s), {len(untraced)} untraced")
    phases = (("steady", steady),) if cold is steady else (("cold", cold), ("steady", steady))
    for phase, jobs in phases:
        print(f"  self time per layer, {phase} jobs (median per job):")
        print("\n".join(layer_table(jobs)))
    trace_path = OUT / f"trace-{args.workload}-seed{args.seed}.json"
    trace_path.write_text(json.dumps(tracing.chrome_trace(tracer, result)))
    print(f"trace: {trace_path.relative_to(ROOT)} ({len(tracer.spans)} spans)")
    return loop, values, units


if __name__ == "__main__":
    sys.exit(main())
