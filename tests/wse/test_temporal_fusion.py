"""Temporal fusion: one compiled kernel call runs the whole time loop.

The contract: on every pipeline benchmark and boundary mode ``compiled``
binds its generated kernel (no fallback), runs every delivery round in a
single ``run_block`` call (``block_depth == rounds``), and stages each
exchange straight into its receive buffer (the kernel allocates no staging
slab).  These tests pin that shape, plus the dispatcher's delivery-round
estimate.
"""

import re
from dataclasses import replace

import numpy as np
import pytest

from repro.baselines.numpy_ref import allocate_fields, field_to_columns
from repro.benchmarks import benchmark_by_name
from repro.benchmarks.definitions import ALL_BENCHMARKS
from repro.frontends.common import BoundaryCondition
from repro.ir.exceptions import InterpretationError
from repro.transforms.pipeline import PipelineOptions, compile_stencil_program
from repro.wse.executors.auto import NOMINAL_ROUNDS, estimate_delivery_rounds
from repro.wse.interpreter import ProgramImage
from repro.wse.simulator import WseSimulator

BOUNDARIES = (
    BoundaryCondition.dirichlet(),
    BoundaryCondition.periodic(),
    BoundaryCondition.reflect(),
)

TIME_STEPS = 5


def _compile(name, boundary=None, time_steps=TIME_STEPS):
    benchmark = benchmark_by_name(name)
    grid = 9 if benchmark.stencil_points >= 25 else 6
    program = benchmark.program(nx=grid, ny=grid, nz=12, time_steps=time_steps)
    options = PipelineOptions(grid_width=grid, grid_height=grid, num_chunks=2)
    if boundary is not None:
        options = replace(options, boundary=boundary)
        program = replace(program, boundary=boundary)
    result = compile_stencil_program(program, options)
    return program, result.program_module


def _run(executor, program, program_module, seed=13):
    """Load seeded fields, execute, and return (stats, executor instance)."""
    rng = np.random.default_rng(seed)
    fields = allocate_fields(
        program, lambda name, shape: rng.uniform(-1, 1, shape)
    )
    simulator = WseSimulator(program_module, executor=executor)
    for decl in program.fields:
        simulator.load_field(
            decl.name,
            field_to_columns(program, decl.name, fields[decl.name]),
        )
    return simulator.execute(), simulator.executor


class TestOneKernelShape:
    """Every pipeline benchmark x boundary mode runs as one kernel call."""

    @pytest.mark.parametrize("boundary", BOUNDARIES, ids=lambda b: b.spec)
    @pytest.mark.parametrize(
        "name", [benchmark.name for benchmark in ALL_BENCHMARKS]
    )
    def test_whole_loop_in_one_call(self, name, boundary):
        program, module = _compile(name, boundary)
        stats, instance = _run("compiled", program, module)
        label = f"{name}/{boundary.spec}"
        assert instance.fallback_reason is None, (
            f"{label}: {instance.fallback_reason}"
        )
        assert stats.rounds > 0, label
        assert stats.block_depth == stats.rounds, label
        # The only bind-time allocations are the fmacs scratch arrays.
        allocated = re.findall(
            r"^\s*(\w+) = np\.empty\(", instance._compiled.source, re.M
        )
        assert all(name.startswith("scr") for name in allocated), allocated

    @pytest.mark.parametrize("executor", ("vectorized", "compiled"))
    def test_round_budget_raises_like_the_interpreter(self, executor):
        _, module = _compile("Jacobian")
        simulator = WseSimulator(module, executor=executor)
        simulator.launch()
        with pytest.raises(InterpretationError, match="exceeded 2 rounds"):
            simulator.run(max_rounds=2)
        assert simulator.statistics.rounds == 2

    def test_interpreting_backends_leave_block_depth_zero(self):
        program, module = _compile("Jacobian")
        stats, _ = _run("vectorized", program, module)
        assert stats.rounds > 0
        assert stats.block_depth == 0


class TestDeliveryRoundEstimate:
    """The dispatcher's static round estimate equals the measured count."""

    @pytest.mark.parametrize(
        "name", [benchmark.name for benchmark in ALL_BENCHMARKS]
    )
    def test_estimate_matches_executed_rounds(self, name):
        program, module = _compile(name, time_steps=3)
        image = ProgramImage(module)
        stats, _ = _run("vectorized", program, module)
        assert estimate_delivery_rounds(image) == stats.rounds

    def test_opaque_schedule_falls_back_to_nominal(self):
        class _EmptyImage:
            callables = {}
            variables = {}

        assert estimate_delivery_rounds(_EmptyImage()) == NOMINAL_ROUNDS
