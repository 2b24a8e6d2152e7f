"""The benchmark's workloads, its job loop and the output check.

Every job goes through the system's public run-job entry,
``RunService.run(program, options, executor="auto", seed=...)``; one
client submits jobs in a closed loop (the next job starts when the previous
one returned).

* ``seismic-paper-small`` and ``uvkbe-paper-small`` run one paper kernel at
  the paper's small size (100x100 PEs, the kernel's own z).  In the steady
  state each job misses the run cache (it is emptied between jobs, outside
  the timed region) while the compile cache and the kernel cache stay warm,
  so a job pays simulator construction, field I/O, delivery rounds and
  digests: the executor and field-I/O layers.
* ``paper-sweep`` runs 42 distinct small programs (7 benchmarks x 3
  boundary modes x 2 targets).  Each pass over them starts from a fresh
  ``RunService``/``CompileService``, an empty cache directory and an empty
  kernel cache, so every job is a cold first submission: the compile-side
  layers.

The workload seed is the input-field seed of every job and, on the sweep,
also shuffles the order of the programs.
"""

from __future__ import annotations

import hashlib
import random
import shutil
import tempfile
from dataclasses import dataclass, replace
from functools import partial
from typing import Callable, Iterator

import numpy as np

from repro.baselines.numpy_ref import allocate_fields, field_to_columns, run_reference
from repro.benchmarks import ALL_BENCHMARKS, seismic_benchmark, uvkbe_benchmark
from repro.service.run import RunArtifact, RunService
from repro.service.service import CompileService
from repro.transforms.pipeline import PipelineOptions
from repro.wse.codegen import reset_kernel_cache
from repro.wse.simulator import WseSimulator

#: the backend every job asks for: the one the system picks.
EXECUTOR = "auto"

#: largest accepted max|simulated - reference| / max|reference| per field.
#: Both sides compute in float32; the fabric program may reassociate sums,
#: which over the few time steps run here stays orders of magnitude below
#: this.
TOLERANCE = 1e-5


@dataclass(frozen=True)
class Config:
    """One program of a workload and how it is compiled."""

    benchmark: object
    nx: int
    ny: int
    nz: int
    steps: int
    target: str = "wse2"
    #: boundary override compiled in; None keeps the program's own.
    boundary: str | None = None

    @property
    def name(self) -> str:
        return (f"{self.benchmark.name}-{self.nx}x{self.ny}x{self.nz}"
                f"-s{self.steps}-{self.boundary or 'own'}-{self.target}")

    def program(self):
        return self.benchmark.program(self.nx, self.ny, self.nz, self.steps)

    def options(self) -> PipelineOptions:
        return PipelineOptions(grid_width=self.nx, grid_height=self.ny,
                               target=self.target, boundary=self.boundary)


@dataclass(frozen=True)
class Workload:
    name: str
    configs: tuple[Config, ...]
    #: True: every pass over the configs starts on empty caches.
    cold_passes: bool
    #: True: a job is bound by the interpreter, so a pure-Python reference
    #: kernel tracks the host's speed for it and ``job_s`` is scaled by it.
    #: The memory-bound jobs are reported as measured: no reference small
    #: enough to run inside the process tracked their host noise.
    interpreter_bound: bool


WORKLOADS = {
    workload.name: workload
    for workload in (
        Workload(
            "seismic-paper-small",
            (Config(seismic_benchmark, 100, 100, 450, 4),),
            cold_passes=False,
            interpreter_bound=False,
        ),
        Workload(
            "uvkbe-paper-small",
            (Config(uvkbe_benchmark, 100, 100, 600, 1),),
            cold_passes=False,
            interpreter_bound=False,
        ),
        Workload(
            "paper-sweep",
            tuple(
                Config(benchmark, 8, 8, 32, 2, target, boundary)
                for benchmark in ALL_BENCHMARKS
                for boundary in ("dirichlet", "periodic", "reflect")
                for target in ("wse2", "wse3")
            ),
            cold_passes=True,
            interpreter_bound=True,
        ),
    )
}


def ordered_configs(workload: Workload, seed: int) -> list[Config]:
    configs = list(workload.configs)
    random.Random(seed).shuffle(configs)
    return configs


def run_job(service: RunService, config: Config, seed: int,
            on_stage: Callable[[str], None] | None = None) -> RunArtifact:
    """One job: build the program and run it through the public entry."""
    return service.run(config.program(), config.options(), executor=EXECUTOR,
                       seed=seed, on_stage=on_stage)


Job = tuple[Config, Callable[..., RunArtifact]]


def cold_pass(configs: list[Config], seed: int, workdir: str) -> Iterator[Job]:
    """One pass over ``configs``, every layer cold at its start."""
    cache_dir = tempfile.mkdtemp(prefix="cache-", dir=workdir)
    reset_kernel_cache()
    service = RunService(cache_dir=cache_dir)
    try:
        for config in configs:
            yield config, partial(run_job, service, config, seed)
    finally:
        service.shutdown()
        shutil.rmtree(cache_dir, ignore_errors=True)


def job_stream(workload: Workload, seed: int, workdir: str) -> Iterator[Job]:
    """The client's endless job sequence; preparation between jobs (cache
    emptying, a fresh pass) runs before each job is handed out, so it stays
    outside the timed call."""
    configs = ordered_configs(workload, seed)
    if workload.cold_passes:
        while True:
            yield from cold_pass(configs, seed, workdir)
    else:
        yield from steady_stream(configs, seed, workdir)


def steady_stream(configs: list[Config], seed: int, workdir: str) -> Iterator[Job]:
    cache_dir = tempfile.mkdtemp(prefix="cache-", dir=workdir)
    service = RunService(cache_dir=cache_dir)
    try:
        while True:
            for config in configs:
                service.memory.clear()
                service.store.purge()
                yield config, partial(run_job, service, config, seed)
    finally:
        service.shutdown()
        shutil.rmtree(cache_dir, ignore_errors=True)


# --------------------------------------------------------------------------- #
# Output check
# --------------------------------------------------------------------------- #


def relative_error(got: np.ndarray, want: np.ndarray) -> float:
    """max|got - want| / max|want|; infinite when either holds a NaN."""
    scale = float(np.max(np.abs(want))) or 1.0
    error = float(np.max(np.abs(got.astype(np.float64) - want))) / scale
    return error if np.isfinite(error) else float("inf")


def verify_config(config: Config, seed: int, compiler: CompileService) -> tuple[dict, float]:
    """The field digests of ``config`` under input seed ``seed``, computed
    through the layer calls, and their largest relative error against the
    NumPy reference (the caller compares it with :data:`TOLERANCE`).

    Inputs are drawn the way the run service documents it: one
    ``default_rng(seed)``, ``uniform(-1, 1)`` per field interior in
    declaration order, halos filled by the *effective* boundary (an options
    override replaces the program's own).
    """
    program = config.program()
    result = compiler.compile_ir(program, config.options())
    effective = program
    if result.options.boundary != program.boundary:
        effective = replace(program, boundary=result.options.boundary)
    rng = np.random.default_rng(seed)
    fields = allocate_fields(effective, lambda name, shape: rng.uniform(-1.0, 1.0, shape))
    simulator = WseSimulator(result.program_module, executor=EXECUTOR)
    for decl in effective.fields:
        simulator.load_field(decl.name, field_to_columns(effective, decl.name, fields[decl.name]))
    simulator.execute()
    expected = run_reference(effective, fields)
    digests, worst = {}, 0.0
    for decl in effective.fields:
        got = simulator.read_field(decl.name)
        want = field_to_columns(effective, decl.name, expected[decl.name])
        worst = max(worst, relative_error(got, want))
        digests[decl.name] = hashlib.sha256(got.tobytes()).hexdigest()
    return digests, worst
