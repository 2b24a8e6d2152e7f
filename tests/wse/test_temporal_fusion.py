"""Temporal fusion (multi-round superkernels), pinned end to end.

The contract: a temporal block depth R > 1 fuses R delivery rounds per
``compiled`` kernel invocation while staying *byte-identical* to
unblocked execution on every benchmark and boundary mode.  These tests pin
the identity matrix, the fingerprint keying (R and only R perturbs the
cache key), the dispatcher's delivery-round estimate and its choice of R.
"""

from dataclasses import replace

import numpy as np
import pytest

from repro.baselines.numpy_ref import allocate_fields, field_to_columns
from repro.benchmarks import benchmark_by_name
from repro.benchmarks.definitions import ALL_BENCHMARKS
from repro.frontends.common import BoundaryCondition
from repro.transforms.pipeline import PipelineOptions, compile_stencil_program
from repro.wse.codegen import FUSION_ENV_VAR, get_kernel
from repro.wse.executors.auto import (
    FORCE_ENV_VAR,
    NOMINAL_ROUNDS,
    AutoExecutor,
    choose_block_depth,
    estimate_delivery_rounds,
)
from repro.wse.interpreter import ProgramImage
from repro.wse.plan import ExecutionPlan
from repro.wse.simulator import WseSimulator

#: the byte-identity matrix: a distance-1 5-point kernel, the radius-4
#: multi-distance Seismic kernel, and the multi-field coupled UVKBE system.
MATRIX_BENCHMARKS = ("Jacobian", "Seismic", "UVKBE")

BOUNDARIES = (
    BoundaryCondition.dirichlet(),
    BoundaryCondition.periodic(),
    BoundaryCondition.reflect(),
)

BLOCK_DEPTHS = (2, 4)

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
    """Load seeded fields, execute, and return (bytes-per-field, stats,
    executor instance) — the instance exposes the blocking decision."""
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
    statistics = simulator.execute()
    gathered = {
        decl.name: simulator.read_field(decl.name).tobytes()
        for decl in program.fields
    }
    return gathered, statistics, simulator.executor


class TestBlockedByteIdentity:
    """R ∈ {2, 4} byte-identical to R = 1 on compiled, per mode."""

    @pytest.mark.parametrize("name", MATRIX_BENCHMARKS)
    @pytest.mark.parametrize("boundary", BOUNDARIES, ids=lambda b: b.spec)
    def test_blocked_matches_unblocked(self, monkeypatch, name, boundary):
        program, module = _compile(name, boundary)
        monkeypatch.delenv(FUSION_ENV_VAR, raising=False)
        base_fields, base_stats, _ = _run("compiled", program, module)
        for depth in BLOCK_DEPTHS:
            monkeypatch.setenv(FUSION_ENV_VAR, str(depth))
            fields, stats, instance = _run("compiled", program, module)
            assert instance.block_fallback_reason is None, (
                f"compiled declined R={depth} on {name} under "
                f"{boundary.spec}: {instance.block_fallback_reason}"
            )
            assert stats.block_depth == depth
            for field_name, expected in base_fields.items():
                assert fields[field_name] == expected, (
                    f"field '{field_name}' differs between R=1 and "
                    f"R={depth} on {name}/{boundary.spec}"
                )
            # Block depth is metadata (compare=False): the observable
            # statistics must be equal.
            assert stats == base_stats


class TestFingerprintKeying:
    """R folds into the kernel cache key — and only R perturbs it."""

    def test_depth_perturbs_the_fingerprint(self):
        program, module = _compile("Jacobian")
        image = ProgramImage(module)
        plan = ExecutionPlan.compile(image, 6, 6)
        base = get_kernel(image, plan).fingerprint
        assert get_kernel(image, plan, rounds=1).fingerprint == base
        two = get_kernel(image, plan, rounds=2).fingerprint
        four = get_kernel(image, plan, rounds=4).fingerprint
        assert two != base
        assert four != base
        assert two != four
        assert get_kernel(image, plan, rounds=2).fingerprint == two


class TestDeliveryRoundEstimate:
    """The dispatcher's static round estimate equals the measured count."""

    @pytest.mark.parametrize(
        "name", [benchmark.name for benchmark in ALL_BENCHMARKS]
    )
    def test_estimate_matches_executed_rounds(self, name):
        program, module = _compile(name, time_steps=3)
        image = ProgramImage(module)
        _, stats, _ = _run("vectorized", program, module)
        assert estimate_delivery_rounds(image) == stats.rounds

    def test_opaque_schedule_falls_back_to_nominal(self):
        class _EmptyImage:
            callables = {}
            variables = {}

        assert estimate_delivery_rounds(_EmptyImage()) == NOMINAL_ROUNDS


class TestBlockDepthChoice:
    def test_compiled_takes_deepest_block_the_loop_fills(self):
        assert choose_block_depth("compiled", rounds=12) == 4
        assert choose_block_depth("compiled", rounds=3) == 2
        assert choose_block_depth("compiled", rounds=1) == 1

    def test_interpreting_backends_never_block(self):
        assert choose_block_depth("reference", rounds=64) == 1
        assert choose_block_depth("vectorized", rounds=64) == 1

    def test_auto_prices_depth_from_the_image(self, monkeypatch):
        monkeypatch.delenv(FUSION_ENV_VAR, raising=False)
        monkeypatch.setenv(FORCE_ENV_VAR, "compiled")
        program, module = _compile("Jacobian")
        image = ProgramImage(module)
        executor = AutoExecutor(image, 6, 6)
        # time_steps=5 → 5 delivery rounds → the compiled delegate blocks
        # at the deepest supported depth.
        assert executor.block_depth == 4
        assert executor._delegate._rounds_per_block == 4

    def test_env_override_stays_authoritative(self, monkeypatch):
        monkeypatch.setenv(FUSION_ENV_VAR, "2")
        monkeypatch.setenv(FORCE_ENV_VAR, "compiled")
        program, module = _compile("Jacobian")
        image = ProgramImage(module)
        executor = AutoExecutor(image, 6, 6)
        assert executor.block_depth == 1
        assert executor._delegate._rounds_per_block == 2

    def test_compiled_stamps_block_depth(self, monkeypatch):
        program, module = _compile("Jacobian")
        monkeypatch.setenv(FUSION_ENV_VAR, "4")
        _, stats, instance = _run("compiled", program, module)
        assert instance.block_fallback_reason is None
        assert stats.block_depth == 4
        monkeypatch.delenv(FUSION_ENV_VAR)
        _, stats, _ = _run("compiled", program, module)
        assert stats.block_depth == 0
