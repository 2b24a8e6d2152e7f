"""Pluggable execution backends for the WSE fabric simulator.

Four backends ship in-tree, all replaying the same pre-compiled
:class:`~repro.wse.plan.ExecutionPlan`:

* ``reference`` — the original per-PE Python interpreter
  (:mod:`repro.wse.executors.reference`): one interpreter loop per PE,
  maximally literal, O(width × height) slow.  The backend of record.
* ``vectorized`` — the lockstep executor
  (:mod:`repro.wse.executors.vectorized`): interprets the SPMD program image
  once and executes every csl-ir op as whole-grid NumPy array math.
  Bit-identical to the reference and several times faster at 8×8+ grids.
* ``compiled`` — the generated-kernel executor
  (:mod:`repro.wse.executors.compiled`): code-generates the program from
  the plan into one Python/NumPy kernel that runs the whole time loop in
  one call (:mod:`repro.wse.codegen`), cached process-wide by content
  fingerprint.
  With a C compiler its native tier runs the DSD work as C.  Bit-identical
  to ``vectorized`` and the fastest backend from a few thousand PEs up.
* ``auto`` — the dispatcher (:mod:`repro.wse.executors.auto`): picks one
  of the three real backends with a static host cost model over the plan
  size (PEs × column depth × delivery rounds), then delegates everything
  to it; the decision and its rationale are stamped on the run's
  statistics.

Selection, in priority order: the ``executor=`` argument of
:class:`repro.wse.simulator.WseSimulator`, the ``REPRO_EXECUTOR``
environment variable, then the built-in default (``vectorized``).  Unknown
names raise and list the registered backends.
"""

from repro.wse.executors.base import (
    DEFAULT_EXECUTOR,
    EXECUTOR_ENV_VAR,
    Executor,
    SimulationStatistics,
    available_executors,
    default_executor_name,
    executor_by_name,
    register_executor,
)

# Importing the backend modules registers them.
from repro.wse.executors.auto import AutoExecutor
from repro.wse.executors.compiled import CompiledExecutor
from repro.wse.executors.reference import ReferenceExecutor
from repro.wse.executors.vectorized import VectorizedExecutor

__all__ = [
    "DEFAULT_EXECUTOR",
    "EXECUTOR_ENV_VAR",
    "AutoExecutor",
    "CompiledExecutor",
    "Executor",
    "ReferenceExecutor",
    "SimulationStatistics",
    "VectorizedExecutor",
    "available_executors",
    "default_executor_name",
    "executor_by_name",
    "register_executor",
]
