"""Golden equivalence between execution backends, and backend selection.

Every derived executor must be indistinguishable from the per-PE reference
interpreter: byte-identical ``read_field`` results and equal
:class:`SimulationStatistics` on *all* registered benchmark programs — the
paper's five kernels plus the boundary-condition workloads — and on a
relaunch of an already-run simulator.  (Per-boundary-mode equivalence is
pinned separately in ``test_boundary_conditions.py``.)
"""

from dataclasses import replace

import numpy as np
import pytest

from repro.benchmarks import benchmark_by_name
from repro.benchmarks.definitions import ALL_BENCHMARKS
from repro.tests_support import run_on_executor
from repro.transforms.pipeline import PipelineOptions, compile_stencil_program
from repro.wse.executors import (
    EXECUTOR_ENV_VAR,
    available_executors,
    default_executor_name,
    executor_by_name,
)
from repro.wse.executors.reference import ReferenceExecutor
from repro.wse.executors.vectorized import VectorizedExecutor
from repro.wse.simulator import WseSimulator

#: every backend validated bit-for-bit against the reference interpreter.
DERIVED_EXECUTORS = ("vectorized", "compiled", "auto")

#: every registered backend, the reference interpreter first.
ALL_EXECUTORS = ("reference",) + DERIVED_EXECUTORS


class TestGoldenEquivalence:
    @pytest.mark.parametrize(
        "name", [benchmark.name for benchmark in ALL_BENCHMARKS]
    )
    def test_fields_byte_identical_and_statistics_equal(self, name):
        benchmark = benchmark_by_name(name)
        grid = 9 if benchmark.stencil_points >= 25 else 6
        program = benchmark.program(nx=grid, ny=grid, nz=16, time_steps=2)
        result = compile_stencil_program(
            program, PipelineOptions(grid_width=grid, grid_height=grid, num_chunks=2)
        )

        reference_fields, reference_stats = run_on_executor(
            "reference", program, result.program_module
        )
        for executor in DERIVED_EXECUTORS:
            fields, stats = run_on_executor(
                executor, program, result.program_module
            )
            for field_name, expected in reference_fields.items():
                actual = fields[field_name]
                assert actual.dtype == expected.dtype
                assert actual.shape == expected.shape
                assert actual.tobytes() == expected.tobytes(), (
                    f"field '{field_name}' differs between reference and "
                    f"{executor} on {name}"
                )
            assert stats == reference_stats, (
                f"statistics differ between reference and {executor} on {name}"
            )

    def test_per_pe_counters_match_across_executors(self):
        """Any PE's counters — not just the aggregate — agree, so the
        performance model calibrates identically on every backend."""
        benchmark = benchmark_by_name("Jacobian")
        program = benchmark.program(nx=5, ny=5, nz=16, time_steps=2)
        result = compile_stencil_program(
            program, PipelineOptions(grid_width=5, grid_height=5, num_chunks=2)
        )
        reference = WseSimulator(result.program_module, executor="reference")
        reference.execute()
        centre_ref = reference.pe(2, 2)
        for executor in DERIVED_EXECUTORS:
            simulator = WseSimulator(result.program_module, executor=executor)
            simulator.execute()
            centre = simulator.pe(2, 2)
            assert dict(centre.counters) == dict(centre_ref.counters)
            assert centre.memory_in_use() == centre_ref.memory_in_use()


class TestRepeatedExecution:
    def test_second_execute_matches_the_other_backends(self):
        """Scalar interpreter state persists across runs: a relaunch must
        resume from it (fields AND statistics), not restart the program,
        and the statistics stay cumulative without counting a run twice."""
        module = _star_program_module(4, 4, name="twice")
        results = {}
        for executor in ALL_EXECUTORS:
            simulator = WseSimulator(module, executor=executor)
            z = simulator.pe(0, 0).buffers["u"].shape[0]
            simulator.load_field("u", np.ones((4, 4, z), dtype=np.float32))
            simulator.execute()
            simulator.execute()
            assert simulator.statistics.tasks_run == sum(
                pe.counters["tasks_run"] for row in simulator.grid for pe in row
            ), f"{executor} counted a run twice on relaunch"
            results[executor] = (
                {f: simulator.read_field(f).tobytes() for f in ("u", "v")},
                simulator.statistics,
            )
        reference_fields, reference_stats = results["reference"]
        for executor in DERIVED_EXECUTORS:
            fields, stats = results[executor]
            assert fields == reference_fields
            assert stats == reference_stats

    @pytest.mark.parametrize("executor", ALL_EXECUTORS)
    def test_run_without_new_launch_is_a_settled_no_op(self, executor):
        """On every backend alike: no launch since the last run means the
        statistics come back unchanged and fields stay untouched."""
        module = _star_program_module(4, 4, name="rerun")
        simulator = WseSimulator(module, executor=executor)
        stats_after_execute = replace(simulator.execute())
        fields_before = simulator.read_field("v").tobytes()
        simulator.run()  # no launch in between: nothing to do
        assert simulator.read_field("v").tobytes() == fields_before
        assert simulator.statistics == stats_after_execute


class TestExecutorSelection:
    def test_registry_lists_all_backends(self):
        assert "reference" in available_executors()
        assert "vectorized" in available_executors()
        assert "compiled" in available_executors()
        assert executor_by_name("reference") is ReferenceExecutor
        assert executor_by_name("vectorized") is VectorizedExecutor

    def test_unknown_executor_names_the_alternatives(self):
        with pytest.raises(KeyError, match="unknown executor 'warp'") as excinfo:
            executor_by_name("warp")
        assert "reference" in str(excinfo.value)
        assert "vectorized" in str(excinfo.value)
        assert "compiled" in str(excinfo.value)

    def test_env_var_selects_the_default(self, monkeypatch):
        monkeypatch.setenv(EXECUTOR_ENV_VAR, "reference")
        assert default_executor_name() == "reference"
        program_module = _tiny_program_module()
        simulator = WseSimulator(program_module)
        assert simulator.executor_name == "reference"
        assert isinstance(simulator.executor, ReferenceExecutor)

    def test_argument_overrides_env_var(self, monkeypatch):
        monkeypatch.setenv(EXECUTOR_ENV_VAR, "reference")
        simulator = WseSimulator(_tiny_program_module(), executor="vectorized")
        assert isinstance(simulator.executor, VectorizedExecutor)

    def test_unknown_executor_on_simulator_raises(self):
        with pytest.raises(KeyError, match="unknown executor"):
            WseSimulator(_tiny_program_module(), executor="nope")


class TestGridOverrideValidation:
    def test_matching_override_is_accepted(self):
        module = _tiny_program_module()
        simulator = WseSimulator(module, width=3, height=3)
        assert (simulator.width, simulator.height) == (3, 3)

    @pytest.mark.parametrize("axis", ["width", "height"])
    def test_mismatching_override_is_rejected(self, axis):
        module = _tiny_program_module()
        overrides = {axis: 7}
        with pytest.raises(ValueError, match=f"{axis}=7 does not match"):
            WseSimulator(module, **overrides)

    def test_non_positive_override_is_rejected(self):
        with pytest.raises(ValueError, match="width must be positive"):
            WseSimulator(_tiny_program_module(), width=0)


def _tiny_program_module():
    from repro.frontends.common import (
        Constant,
        FieldAccess,
        FieldDecl,
        StencilEquation,
        StencilProgram,
    )

    u = lambda dx, dy, dz: FieldAccess("u", (dx, dy, dz))
    program = StencilProgram(
        name="tiny",
        fields=[FieldDecl("u", (3, 3, 4)), FieldDecl("v", (3, 3, 4))],
        equations=[StencilEquation("v", (u(0, 0, 0) + u(1, 0, 0)) * Constant(0.5))],
        time_steps=1,
    )
    result = compile_stencil_program(
        program, PipelineOptions(grid_width=3, grid_height=3, num_chunks=1)
    )
    return result.program_module


def _star_program_module(nx, ny, nz=8, steps=2, name="star"):
    from repro.frontends.common import (
        Constant,
        FieldAccess,
        FieldDecl,
        StencilEquation,
        StencilProgram,
    )

    u = lambda dx, dy, dz: FieldAccess("u", (dx, dy, dz))
    expression = (
        u(0, 0, 0)
        + u(1, 0, 0)
        + u(-1, 0, 0)
        + u(0, 1, 0)
        + u(0, -1, 0)
        + u(0, 0, 1)
    ) * Constant(0.25)
    program = StencilProgram(
        name=name,
        fields=[FieldDecl("u", (nx, ny, nz)), FieldDecl("v", (nx, ny, nz))],
        equations=[StencilEquation("v", expression)],
        time_steps=steps,
    )
    result = compile_stencil_program(
        program, PipelineOptions(grid_width=nx, grid_height=ny, num_chunks=2)
    )
    return result.program_module
