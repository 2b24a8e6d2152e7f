"""Simulator statistics aggregation and host-side field-name diagnostics."""

import numpy as np
import pytest

from repro.frontends.common import (
    Constant,
    FieldAccess,
    FieldDecl,
    StencilEquation,
    StencilProgram,
)
from repro.transforms.pipeline import PipelineOptions, compile_stencil_program
from repro.wse.simulator import WseSimulator


def _simulator() -> WseSimulator:
    u = lambda dx, dy, dz: FieldAccess("u", (dx, dy, dz))
    expression = (
        u(0, 0, 0) + u(1, 0, 0) + u(-1, 0, 0) + u(0, 1, 0) + u(0, -1, 0)
    ) * Constant(0.2)
    program = StencilProgram(
        name="stats_probe",
        fields=[FieldDecl("u", (3, 3, 8)), FieldDecl("v", (3, 3, 8))],
        equations=[StencilEquation("v", expression)],
        time_steps=1,
    )
    options = PipelineOptions(grid_width=3, grid_height=3, num_chunks=1)
    result = compile_stencil_program(program, options)
    return WseSimulator(result.program_module)


def test_dsd_elements_are_aggregated_into_simulation_statistics():
    simulator = _simulator()
    statistics = simulator.execute()
    assert statistics.dsd_ops > 0
    # Every DSD op processes at least one element, and the per-PE counters
    # must sum up into the aggregate exactly.
    assert statistics.dsd_elements >= statistics.dsd_ops
    expected = sum(
        pe.counters["dsd_elements"] for row in simulator.grid for pe in row
    )
    assert statistics.dsd_elements == expected


def test_load_field_names_the_missing_buffer():
    simulator = _simulator()
    columns = np.zeros((3, 3, 8), dtype=np.float32)
    with pytest.raises(KeyError, match="unknown field 'nope'") as excinfo:
        simulator.load_field("nope", columns)
    assert "available buffers:" in str(excinfo.value)


def test_read_field_names_the_missing_buffer():
    simulator = _simulator()
    with pytest.raises(KeyError, match="unknown field 'missing'") as excinfo:
        simulator.read_field("missing")
    assert "available buffers:" in str(excinfo.value)
