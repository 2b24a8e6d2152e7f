"""Simulation-throughput benchmarks across the execution backends.

The trajectories are written to the repo root as ``BENCH_simulator.json``
in the shared ``{name, grid, executor, seconds, speedup[, cache]}`` schema
(see :mod:`repro.eval.trajectory`; the file is gitignored and uploaded as
a CI artifact):

* a grid-size sweep of the Jacobian benchmark on the ``reference``,
  ``vectorized`` and ``compiled`` backends, pinning the claims that on an
  8x8 grid the vectorized lockstep executor is at least **3x** faster than
  the per-PE interpreter and the fused generated kernel at least **5x**
  (in practice both are orders of magnitude);
* a paper-scale head-to-head of ``compiled`` against ``vectorized`` on a
  64x64 fabric, pinning a **1.2x** floor, with the kernel cache's
  cold (code-generating) and warm (memo-served) runs recorded as separate
  trajectory rows and the warm run asserted to reuse the kernel without
  re-generating it;
* an ``auto`` dispatcher row on the same 64x64 fabric, pinning that the
  dispatcher's median end-to-end time is within **5%** of the backend it
  delegates to, ``compiled``, timed interleaved with it (its decision
  overhead is the static cost model);
* a large-fabric 128x128 trajectory of ``vectorized`` and ``compiled``
  (cold + warm; recorded, not asserted — it exists to track scaling over
  time).
"""

import gc
import statistics
import time
from pathlib import Path

import numpy as np

from repro.baselines.numpy_ref import allocate_fields, field_to_columns
from repro.benchmarks import benchmark_by_name
from repro.eval.trajectory import make_record, merge_trajectory
from repro.transforms.pipeline import PipelineOptions, compile_stencil_program
from repro.wse.codegen import kernel_cache_statistics, reset_kernel_cache
from repro.wse.simulator import WseSimulator

GRID_SIZES = (1, 2, 4, 8)
Z_DIM = 32
TIME_STEPS = 2
REPEATS = 3

#: interleaved (auto, compiled) pairs the dispatcher-overhead gate times.
AUTO_PAIRS = 30

#: the paper-scale head-to-head configuration (compiled against
#: vectorized, and auto against compiled).  The z extent and step count
#: are sized so per-round array math dominates the per-round dispatch cost.
PAPER_GRID = 64
PAPER_Z_DIM = 256
PAPER_TIME_STEPS = 12

#: the large-fabric trajectory configuration: four times the PEs of the
#: paper-scale row, sized modestly in z and steps so the row stays cheap.
LARGE_GRID = 128
LARGE_Z_DIM = 64
LARGE_TIME_STEPS = 4

REPO_ROOT = Path(__file__).resolve().parent.parent
TRAJECTORY_PATH = REPO_ROOT / "BENCH_simulator.json"


def _compiled(grid: int, z_dim: int = Z_DIM, time_steps: int = TIME_STEPS):
    bench = benchmark_by_name("Jacobian")
    program = bench.program(nx=grid, ny=grid, nz=z_dim, time_steps=time_steps)
    options = PipelineOptions(grid_width=grid, grid_height=grid, num_chunks=2)
    result = compile_stencil_program(program, options)
    rng = np.random.default_rng(29)
    fields = allocate_fields(program, lambda name, shape: rng.uniform(-1, 1, shape))
    columns = {
        decl.name: field_to_columns(program, decl.name, fields[decl.name])
        for decl in program.fields
    }
    return result.program_module, columns


def _simulation_seconds(program_module, columns, executor: str) -> float:
    """Wall time of one full simulation on a fresh backend."""
    start = time.perf_counter()
    simulator = WseSimulator(program_module, executor=executor)
    for name, data in columns.items():
        simulator.load_field(name, data)
    simulator.execute()
    return time.perf_counter() - start


def _best_simulation_seconds(program_module, columns, executor: str) -> float:
    """Best-of-N wall time of one full simulation (fresh backend per run).

    Backend construction and host-side field loading are included — they are
    part of what a figure-regeneration run pays per simulation — while
    compilation is excluded
    (it is served by the compile cache in practice).  GC is paused so a
    collection on one side cannot skew the ratio.
    """
    best = float("inf")
    gc.collect()
    gc.disable()
    try:
        for _ in range(REPEATS):
            best = min(
                best, _simulation_seconds(program_module, columns, executor)
            )
    finally:
        gc.enable()
    return best


def test_simulator_throughput_sweep_records_trajectory_and_speedup():
    """Sweep the PE grid, record the trajectory, pin the 8x8 speedups."""
    vectorized_speedups = {}
    compiled_speedups = {}
    records = []
    for grid in GRID_SIZES:
        program_module, columns = _compiled(grid)
        reference_seconds = _best_simulation_seconds(
            program_module, columns, "reference"
        )
        vectorized_seconds = _best_simulation_seconds(
            program_module, columns, "vectorized"
        )
        compiled_seconds = _best_simulation_seconds(
            program_module, columns, "compiled"
        )
        vectorized_speedups[grid] = reference_seconds / vectorized_seconds
        compiled_speedups[grid] = reference_seconds / compiled_seconds
        grid_label = f"{grid}x{grid}"
        records.append(
            make_record("Jacobian", grid_label, "reference", reference_seconds, 1.0)
        )
        records.append(
            make_record(
                "Jacobian",
                grid_label,
                "vectorized",
                vectorized_seconds,
                vectorized_speedups[grid],
            )
        )
        records.append(
            make_record(
                "Jacobian",
                grid_label,
                "compiled",
                compiled_seconds,
                compiled_speedups[grid],
                cache="warm",  # best-of-N: every timed run after the first
            )
        )
    merge_trajectory(TRAJECTORY_PATH, records)

    assert vectorized_speedups[8] >= 3.0, (
        f"vectorized executor speedup {vectorized_speedups[8]:.2f}x on 8x8 "
        f"is below the 3x requirement; trajectory in {TRAJECTORY_PATH}"
    )
    assert compiled_speedups[8] >= 5.0, (
        f"compiled executor speedup {compiled_speedups[8]:.2f}x on 8x8 is "
        f"below the 5x requirement; trajectory in {TRAJECTORY_PATH}"
    )


def _one_simulation_seconds(program_module, columns, executor: str) -> float:
    """Wall time of a single simulation, setup included — what a cold
    (code-generating) run pays versus a warm (kernel-memo) one."""
    gc.collect()
    gc.disable()
    try:
        return _simulation_seconds(program_module, columns, executor)
    finally:
        gc.enable()


def test_compiled_beats_vectorized_at_paper_scale():
    """``compiled`` >= 1.2x ``vectorized`` on a 64x64 fabric, and the warm
    run reuses the generated kernel instead of re-generating it."""
    program_module, columns = _compiled(
        PAPER_GRID, z_dim=PAPER_Z_DIM, time_steps=PAPER_TIME_STEPS
    )
    vectorized_seconds = _best_simulation_seconds(
        program_module, columns, "vectorized"
    )

    reset_kernel_cache()
    cold_seconds = _one_simulation_seconds(program_module, columns, "compiled")
    after_cold = kernel_cache_statistics()
    assert after_cold.codegens == 1, "the cold run must generate the kernel"
    assert after_cold.memory_hits == 0

    warm_seconds = _best_simulation_seconds(program_module, columns, "compiled")
    after_warm = kernel_cache_statistics()
    assert after_warm.codegens == 1, (
        "warm runs re-generated the kernel instead of reusing the memo"
    )
    assert after_warm.memory_hits >= REPEATS

    speedup = vectorized_seconds / warm_seconds
    grid = f"{PAPER_GRID}x{PAPER_GRID}"
    merge_trajectory(
        TRAJECTORY_PATH,
        [
            make_record("Jacobian", grid, "vectorized", vectorized_seconds, 1.0),
            make_record(
                "Jacobian",
                grid,
                "compiled",
                cold_seconds,
                vectorized_seconds / cold_seconds,
                cache="cold",
            ),
            make_record(
                "Jacobian", grid, "compiled", warm_seconds, speedup, cache="warm"
            ),
        ],
    )
    assert speedup >= 1.2, (
        f"compiled executor speedup {speedup:.2f}x on {grid} is below the "
        f"1.2x requirement ({warm_seconds * 1e3:.1f} ms vs "
        f"{vectorized_seconds * 1e3:.1f} ms); trajectory in {TRAJECTORY_PATH}"
    )


def test_auto_tracks_the_best_recorded_backend():
    """``auto`` on the paper-scale fabric must land within 5% of
    ``compiled``, the backend it delegates to there (and the fastest one,
    see the 1.2x floor above): its decision overhead is the static cost
    model.  The two are timed interleaved on one program, alternating which
    runs first, and their medians compared, so a slow moment of the host
    lands on both sides."""
    program_module, columns = _compiled(
        PAPER_GRID, z_dim=PAPER_Z_DIM, time_steps=PAPER_TIME_STEPS
    )
    simulator = WseSimulator(program_module, executor="auto")
    assert simulator.executor.backend_name == "compiled"
    # Warm the kernel memo and the native library outside the timing.
    _one_simulation_seconds(program_module, columns, "compiled")
    samples = {"auto": [], "compiled": []}
    gc.collect()
    gc.disable()
    try:
        for pair in range(AUTO_PAIRS):
            order = ("auto", "compiled") if pair % 2 else ("compiled", "auto")
            for executor in order:
                samples[executor].append(
                    _simulation_seconds(program_module, columns, executor)
                )
    finally:
        gc.enable()
    auto_seconds = statistics.median(samples["auto"])
    compiled_seconds = statistics.median(samples["compiled"])
    grid = f"{PAPER_GRID}x{PAPER_GRID}"
    merge_trajectory(
        TRAJECTORY_PATH,
        [
            make_record(
                "Jacobian",
                grid,
                "auto",
                auto_seconds,
                compiled_seconds / auto_seconds,
            )
        ],
    )
    assert auto_seconds <= compiled_seconds * 1.05, (
        f"auto took a median {auto_seconds * 1e3:.1f} ms on {grid}, more "
        f"than 5% over compiled ({compiled_seconds * 1e3:.1f} ms) timed "
        f"interleaved with it; trajectory in {TRAJECTORY_PATH}"
    )


def test_large_fabric_trajectory_is_recorded():
    """128x128: record ``vectorized`` and ``compiled`` (cold and warm) rows
    for scaling trends; no speedup floor is asserted here."""
    program_module, columns = _compiled(
        LARGE_GRID, z_dim=LARGE_Z_DIM, time_steps=LARGE_TIME_STEPS
    )
    vectorized_seconds = _best_simulation_seconds(
        program_module, columns, "vectorized"
    )
    reset_kernel_cache()
    cold_seconds = _one_simulation_seconds(program_module, columns, "compiled")
    warm_seconds = _best_simulation_seconds(program_module, columns, "compiled")
    grid = f"{LARGE_GRID}x{LARGE_GRID}"
    merge_trajectory(
        TRAJECTORY_PATH,
        [
            make_record("Jacobian", grid, "vectorized", vectorized_seconds, 1.0),
            make_record(
                "Jacobian",
                grid,
                "compiled",
                cold_seconds,
                vectorized_seconds / cold_seconds,
                cache="cold",
            ),
            make_record(
                "Jacobian",
                grid,
                "compiled",
                warm_seconds,
                vectorized_seconds / warm_seconds,
                cache="warm",
            ),
        ],
    )


def test_executors_match_on_the_swept_program():
    """The throughput comparison is only meaningful if every backend
    computes the same answer on the swept configuration — pin it
    byte-for-byte."""
    program_module, columns = _compiled(8)
    gathered = {}
    for executor in ("reference", "vectorized", "compiled", "auto"):
        simulator = WseSimulator(program_module, executor=executor)
        for name, data in columns.items():
            simulator.load_field(name, data)
        simulator.execute()
        gathered[executor] = simulator.read_field("v")
    assert gathered["reference"].tobytes() == gathered["vectorized"].tobytes()
    assert gathered["reference"].tobytes() == gathered["compiled"].tobytes()
    assert gathered["reference"].tobytes() == gathered["auto"].tobytes()
