"""Executor registry errors and selection precedence.

An unknown backend name — whether passed to the constructor or configured
process-wide through ``REPRO_EXECUTOR`` — must raise an error that lists
every registered backend, and an explicit constructor argument must always
beat the environment.
"""

import pytest

from repro.frontends.common import (
    Constant,
    FieldAccess,
    FieldDecl,
    StencilEquation,
    StencilProgram,
)
from repro.transforms.pipeline import PipelineOptions, compile_stencil_program
from repro.wse.executors import (
    EXECUTOR_ENV_VAR,
    CompiledExecutor,
    Executor,
    ReferenceExecutor,
    VectorizedExecutor,
    available_executors,
    default_executor_name,
    executor_by_name,
    register_executor,
)
from repro.wse.simulator import WseSimulator


@pytest.fixture(scope="module")
def program_module():
    u = lambda dx, dy, dz: FieldAccess("u", (dx, dy, dz))
    program = StencilProgram(
        name="registry_probe",
        fields=[FieldDecl("u", (2, 2, 4)), FieldDecl("v", (2, 2, 4))],
        equations=[StencilEquation("v", u(0, 0, 0) * Constant(2.0))],
        time_steps=1,
    )
    result = compile_stencil_program(
        program, PipelineOptions(grid_width=2, grid_height=2, num_chunks=1)
    )
    return result.program_module


class TestRegistryErrors:
    def test_all_four_backends_are_registered(self):
        from repro.wse.executors.auto import AutoExecutor

        assert available_executors() == (
            "auto",
            "compiled",
            "reference",
            "vectorized",
        )
        assert executor_by_name("reference") is ReferenceExecutor
        assert executor_by_name("vectorized") is VectorizedExecutor
        assert executor_by_name("compiled") is CompiledExecutor
        assert executor_by_name("auto") is AutoExecutor

    def test_unknown_name_lists_every_registered_backend(self):
        with pytest.raises(KeyError, match="unknown executor 'warp'") as excinfo:
            executor_by_name("warp")
        message = str(excinfo.value)
        for name in available_executors():
            assert name in message

    def test_unknown_constructor_argument_raises_with_alternatives(
        self, program_module
    ):
        with pytest.raises(KeyError, match="unknown executor 'gpu'") as excinfo:
            WseSimulator(program_module, executor="gpu")
        assert "compiled" in str(excinfo.value)

    def test_unknown_env_var_raises_at_construction(
        self, program_module, monkeypatch
    ):
        monkeypatch.setenv(EXECUTOR_ENV_VAR, "quantum")
        assert default_executor_name() == "quantum"
        with pytest.raises(
            KeyError, match="unknown executor 'quantum'"
        ) as excinfo:
            WseSimulator(program_module)
        assert "reference" in str(excinfo.value)

    def test_duplicate_registration_of_a_different_class_is_rejected(self):
        class Impostor(Executor):  # pragma: no cover - never executed
            name = "vectorized"

            def load_field(self, name, columns):
                pass

            def read_field(self, name):
                pass

            def pe(self, x, y):
                pass

            @property
            def grid(self):
                return []

            def launch(self, entry=None):
                pass

            def _drain_tasks(self):
                pass

            def _all_settled(self):
                return True

            def _deliver_round(self):
                return 0

            def _collect_statistics(self):
                pass

        with pytest.raises(ValueError, match="already registered"):
            register_executor(Impostor)
        assert executor_by_name("vectorized") is VectorizedExecutor

    def test_re_registering_the_same_class_is_a_no_op(self):
        assert register_executor(VectorizedExecutor) is VectorizedExecutor
        assert executor_by_name("vectorized") is VectorizedExecutor

    def test_nameless_executor_is_rejected(self):
        class Nameless(Executor):  # pragma: no cover - never executed
            pass

        with pytest.raises(ValueError, match="must define a registry name"):
            register_executor(Nameless)


class TestSelectionPrecedence:
    @pytest.mark.parametrize("env_name", ["reference", "compiled"])
    def test_env_var_selects_the_process_default(
        self, program_module, monkeypatch, env_name
    ):
        monkeypatch.setenv(EXECUTOR_ENV_VAR, env_name)
        simulator = WseSimulator(program_module)
        assert simulator.executor_name == env_name
        assert type(simulator.executor) is executor_by_name(env_name)

    def test_constructor_argument_beats_the_env_var(
        self, program_module, monkeypatch
    ):
        monkeypatch.setenv(EXECUTOR_ENV_VAR, "reference")
        simulator = WseSimulator(program_module, executor="compiled")
        assert simulator.executor_name == "compiled"
        assert isinstance(simulator.executor, CompiledExecutor)

    def test_constructor_argument_beats_even_a_broken_env_var(
        self, program_module, monkeypatch
    ):
        """An explicit valid choice must not trip over garbage in the env."""
        monkeypatch.setenv(EXECUTOR_ENV_VAR, "not-a-backend")
        simulator = WseSimulator(program_module, executor="vectorized")
        assert isinstance(simulator.executor, VectorizedExecutor)

    def test_empty_env_var_falls_back_to_the_default(
        self, program_module, monkeypatch
    ):
        monkeypatch.setenv(EXECUTOR_ENV_VAR, "")
        assert default_executor_name() == "vectorized"
