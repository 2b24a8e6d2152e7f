"""Shared helpers for tests and examples: compile, simulate and compare."""

from __future__ import annotations

import os
from dataclasses import replace

import numpy as np

from repro.baselines.numpy_ref import (
    allocate_fields,
    field_to_columns,
    run_reference,
)
from repro.frontends.common import StencilProgram
from repro.transforms.pipeline import PipelineOptions, compile_stencil_program
from repro.wse.simulator import WseSimulator


def usable_cpus() -> int:
    """CPUs this process may actually schedule on (affinity-aware).

    The parallelism floors in the benchmarks (pool compiles) are asserted
    only when the host can express them; plain ``os.cpu_count()``
    over-reports inside affinity-restricted containers.
    """
    try:
        return len(os.sched_getaffinity(0))
    except (AttributeError, OSError):
        return os.cpu_count() or 1


def random_initializer(seed: int = 7):
    """A deterministic random interior initialiser for fields."""
    rng = np.random.default_rng(seed)

    def initializer(name, shape):
        return rng.uniform(-1.0, 1.0, size=shape)

    return initializer


def run_on_executor(
    executor: str,
    program: StencilProgram,
    program_module,
    seed: int = 13,
):
    """Load identical random data, execute, gather fields + statistics.

    The shared harness of the golden equivalence suites: running the same
    compiled module with the same seed on two executors must produce
    byte-identical fields and equal statistics.
    """
    rng = np.random.default_rng(seed)
    fields = allocate_fields(program, lambda name, shape: rng.uniform(-1, 1, shape))
    simulator = WseSimulator(program_module, executor=executor)
    for decl in program.fields:
        simulator.load_field(
            decl.name, field_to_columns(program, decl.name, fields[decl.name])
        )
    statistics = simulator.execute()
    gathered = {decl.name: simulator.read_field(decl.name) for decl in program.fields}
    return gathered, statistics


def simulate_against_reference(
    program: StencilProgram,
    options: PipelineOptions,
    seed: int = 7,
    executor: str | None = None,
) -> tuple[dict[str, np.ndarray], dict[str, np.ndarray]]:
    """Compile and simulate the program, and run the NumPy reference.

    Returns ``(simulated, reference)`` — both keyed by field name, both as
    per-PE column arrays of shape ``(nx, ny, z_total)``.  ``executor``
    selects the simulator backend (defaults to the process-wide choice).

    The NumPy oracle runs under the boundary condition that was actually
    compiled in, so an ``options.boundary`` override stays comparable.
    """
    result = compile_stencil_program(program, options)
    if result.options.boundary != program.boundary:
        program = replace(program, boundary=result.options.boundary)
    simulator = WseSimulator(result.program_module, executor=executor)

    fields = allocate_fields(program, random_initializer(seed))
    reference_fields = {name: array.copy() for name, array in fields.items()}

    for decl in program.fields:
        simulator.load_field(
            decl.name, field_to_columns(program, decl.name, fields[decl.name])
        )

    simulator.execute()
    run_reference(program, reference_fields)

    simulated = {decl.name: simulator.read_field(decl.name) for decl in program.fields}
    reference = {
        decl.name: field_to_columns(program, decl.name, reference_fields[decl.name])
        for decl in program.fields
    }
    return simulated, reference
