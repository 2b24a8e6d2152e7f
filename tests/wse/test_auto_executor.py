"""The ``auto`` dispatcher: decision table, calibration, delegation parity.

The dispatcher's contract has three layers, each covered here: the
*decision procedure* (the host cost model's ranking matches the
machine-independent intuition, and the benchmark's own workloads get the
backend they always got), the *calibration* of the host
cost model against a recorded trajectory snapshot, and the *delegation*
(an ``auto`` run is indistinguishable from running the chosen backend
directly, plus the stamped decision metadata).
"""

from dataclasses import asdict

import numpy as np
import pytest

from repro.benchmarks import ALL_BENCHMARKS, seismic_benchmark, uvkbe_benchmark
from repro.frontends.common import (
    Constant,
    FieldAccess,
    FieldDecl,
    StencilEquation,
    StencilProgram,
)
from repro.tests_support import run_on_executor
from repro.transforms.pipeline import PipelineOptions, compile_stencil_program
from repro.wse.executors.auto import FORCE_ENV_VAR, choose_backend, decide
from repro.wse.executors.base import SimulationStatistics
from repro.wse.interpreter import ProgramImage
from repro.wse.perf_model import predict_host_seconds
from repro.wse.plan import ExecutionPlan
from repro.wse.simulator import WseSimulator


def _star_program(nx, ny, nz, steps=2, name="auto_probe"):
    u = lambda dx, dy, dz: FieldAccess("u", (dx, dy, dz))
    expression = (
        u(0, 0, 0)
        + u(1, 0, 0)
        + u(-1, 0, 0)
        + u(0, 1, 0)
        + u(0, -1, 0)
        + u(0, 0, 1)
    ) * Constant(0.25)
    return StencilProgram(
        name=name,
        fields=[FieldDecl("u", (nx, ny, nz)), FieldDecl("v", (nx, ny, nz))],
        equations=[StencilEquation("v", expression)],
        time_steps=steps,
    )


def _compiled(nx, ny, nz=8, steps=2, name="auto_probe"):
    program = _star_program(nx, ny, nz, steps, name)
    result = compile_stencil_program(
        program, PipelineOptions(grid_width=nx, grid_height=ny, num_chunks=2)
    )
    return program, result.program_module


#: a frozen snapshot of recorded BENCH_simulator.json rows (the live file
#: is gitignored and host-specific; the calibration contract is that the
#: analytic model rank-orders backends the same way a real recording did).
#: Grouped by grid, with the (depth, rounds) the recording benchmark used.
RECORDED_SNAPSHOT = {
    ("1x1", 32, 8): {
        "reference": 0.000468,
        "vectorized": 0.001243,
        "compiled": 0.001244,
    },
    ("2x2", 32, 8): {
        "reference": 0.002901,
        "vectorized": 0.001096,
        "compiled": 0.00207,
    },
    ("4x4", 32, 8): {
        "reference": 0.00747,
        "vectorized": 0.00075,
        "compiled": 0.001627,
    },
    ("8x8", 32, 8): {
        "reference": 0.018742,
        "vectorized": 0.000572,
        "compiled": 0.001179,
    },
    ("64x64", 256, 48): {
        "vectorized": 0.282385,
        "compiled": 0.156278,
    },
    ("128x128", 64, 16): {
        "vectorized": 0.144028,
        "compiled": 0.077495,
    },
}


class TestDecisionTable:
    def test_small_grid_prefers_vectorized(self):
        choice, rationale = choose_backend(8, 8, depth=32)
        assert choice == "vectorized"
        assert "8x8" in rationale and "host cost model" in rationale

    def test_single_pe_grid_prefers_the_reference_interpreter(self):
        choice, _ = choose_backend(1, 1, depth=32)
        assert choice == "reference"

    def test_large_grid_prefers_compiled(self):
        choice, _ = choose_backend(128, 128, depth=64)
        assert choice == "compiled"


def _decision(config):
    """``auto``'s backend for one benchmark-shaped program, decided from
    its image and plan alone: no simulator is built or run."""
    benchmark, nx, ny, nz, steps, options = config
    program = benchmark.program(nx, ny, nz, steps)
    result = compile_stencil_program(
        program, PipelineOptions(grid_width=nx, grid_height=ny, **options)
    )
    image = ProgramImage(result.program_module)
    plan = ExecutionPlan.compile(image, nx, ny)
    choice, _ = decide(image, plan)
    return choice


class TestBenchmarkWorkloadDecisions:
    """The repo benchmark's three workload shapes keep their backends:
    ``compiled`` on paper-size Seismic and UVKBE, ``vectorized`` on every
    8x8 sweep program."""

    @pytest.fixture(autouse=True)
    def _unforced(self, monkeypatch):
        monkeypatch.delenv(FORCE_ENV_VAR, raising=False)

    def test_seismic_paper_small(self):
        config = (seismic_benchmark, 100, 100, 450, 4, {})
        assert _decision(config) == "compiled"

    def test_uvkbe_paper_small(self):
        config = (uvkbe_benchmark, 100, 100, 600, 1, {})
        assert _decision(config) == "compiled"

    @pytest.mark.parametrize("target", ("wse2", "wse3"))
    @pytest.mark.parametrize("boundary", ("dirichlet", "periodic", "reflect"))
    def test_sweep_programs(self, boundary, target):
        for benchmark in ALL_BENCHMARKS:
            config = (
                benchmark, 8, 8, 32, 2,
                {"target": target, "boundary": boundary},
            )
            assert _decision(config) == "vectorized", benchmark.name


class TestCalibration:
    @pytest.mark.parametrize("key", sorted(RECORDED_SNAPSHOT, key=str))
    def test_model_rank_orders_backends_like_the_recording(self, key):
        """For every recorded grid, the analytic model must order the
        backends exactly as the recorded wall times did — otherwise the
        dispatcher would contradict the profile it claims to be guided by
        whenever the trajectory file is absent."""
        grid, depth, rounds = key
        recorded = RECORDED_SNAPSHOT[key]
        w, _, h = grid.partition("x")
        pes = int(w) * int(h)
        predicted = {
            executor: predict_host_seconds(
                executor,
                pes=pes,
                depth=depth,
                rounds=rounds,
            )
            for executor in recorded
        }
        recorded_rank = sorted(recorded, key=recorded.__getitem__)
        predicted_rank = sorted(predicted, key=predicted.__getitem__)
        assert predicted_rank == recorded_rank

    def test_unknown_backend_is_diagnosed(self):
        with pytest.raises(KeyError, match="no host cost model"):
            predict_host_seconds("quantum", pes=1, depth=1, rounds=1)


class TestDelegation:
    def test_env_selected_auto_matches_its_delegate_end_to_end(self, monkeypatch):
        """`REPRO_EXECUTOR=auto` must be a drop-in: byte-identical fields
        and equal statistics versus running the chosen backend directly."""
        program, module = _compiled(8, 8, name="auto_parity")
        monkeypatch.setenv("REPRO_EXECUTOR", "auto")
        simulator = WseSimulator(module)
        assert simulator.executor.name == "auto"
        choice = simulator.executor.backend_name
        monkeypatch.delenv("REPRO_EXECUTOR")

        auto_fields, auto_stats = run_on_executor("auto", program, module)
        direct_fields, direct_stats = run_on_executor(choice, program, module)
        for name, expected in direct_fields.items():
            assert auto_fields[name].tobytes() == expected.tobytes()
        assert auto_stats == direct_stats
        assert auto_stats.backend_decision == choice
        assert auto_stats.backend_rationale

    def test_forced_backend_is_obeyed_and_stamped(self, monkeypatch):
        monkeypatch.setenv(FORCE_ENV_VAR, "reference")
        program, module = _compiled(4, 4, name="auto_forced")
        auto_fields, auto_stats = run_on_executor("auto", program, module)
        assert auto_stats.backend_decision == "reference"
        assert FORCE_ENV_VAR in auto_stats.backend_rationale
        monkeypatch.delenv(FORCE_ENV_VAR)
        ref_fields, ref_stats = run_on_executor("reference", program, module)
        for name, expected in ref_fields.items():
            assert auto_fields[name].tobytes() == expected.tobytes()
        assert auto_stats == ref_stats

    def test_per_pe_surface_passes_through(self):
        _, module = _compiled(4, 4, name="auto_surface")
        auto = WseSimulator(module, executor="auto")
        direct = WseSimulator(
            module, executor=auto.executor.backend_name
        )
        for simulator in (auto, direct):
            z = simulator.pe(0, 0).buffers["u"].shape[0]
            simulator.load_field("u", np.ones((4, 4, z), dtype=np.float32))
            simulator.execute()
        assert len(auto.grid) == 4 and all(len(row) == 4 for row in auto.grid)
        centre_auto, centre_direct = auto.pe(2, 2), direct.pe(2, 2)
        assert dict(centre_auto.counters) == dict(centre_direct.counters)
        for name, column in centre_direct.buffers.items():
            assert centre_auto.buffers[name].tobytes() == column.tobytes()


class TestDecisionMetadata:
    def test_metadata_is_excluded_from_statistics_equality(self):
        stamped = SimulationStatistics(
            rounds=3, backend_decision="compiled", backend_rationale="why"
        )
        plain = SimulationStatistics(rounds=3)
        assert stamped == plain

    def test_metadata_reaches_the_serialised_artifact_shape(self):
        payload = asdict(
            SimulationStatistics(backend_decision="vectorized")
        )
        assert payload["backend_decision"] == "vectorized"
        assert "backend_rationale" in payload
