"""The execution-backend protocol and registry.

An *executor* owns the runtime state of one simulated fabric — PE buffers,
module variables, task queues — and drives the generated csl-ir program to
completion in delivery rounds.  Every executor exposes the same host-side
API (``load_field`` / ``execute`` / ``read_field`` / ``pe`` / ``statistics``)
so :class:`repro.wse.simulator.WseSimulator` can act as a thin facade over
whichever backend is selected.

Backends register themselves under a short name; the active backend is
chosen per simulator instance (``WseSimulator(..., executor="...")``) or
process-wide through the ``REPRO_EXECUTOR`` environment variable.
"""

from __future__ import annotations

import os
from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from repro.ir.exceptions import InterpretationError

if TYPE_CHECKING:  # pragma: no cover
    from repro.wse.interpreter import ProgramImage
    from repro.wse.plan import ExecutionPlan

#: environment variable selecting the process-wide default backend.
EXECUTOR_ENV_VAR = "REPRO_EXECUTOR"

#: backend used when neither the API nor the environment chooses one.
DEFAULT_EXECUTOR = "vectorized"


@dataclass
class SimulationStatistics:
    """Aggregate activity counters of one simulation run.

    The counters are *semantically identical* across executors: every backend
    must report the numbers the per-PE reference interpretation would have
    produced, whatever its internal execution strategy.
    """

    rounds: int = 0
    tasks_run: int = 0
    exchanges: int = 0
    dsd_ops: int = 0
    dsd_elements: int = 0
    wavelets_sent: int = 0
    max_pe_memory_bytes: int = 0
    #: which backend the ``auto`` dispatcher delegated to, and why.  Not
    #: activity counters: excluded from equality so cross-backend
    #: statistics comparisons stay meaningful.
    backend_decision: str = field(default="", compare=False)
    backend_rationale: str = field(default="", compare=False)
    #: delivery rounds the compiled kernel ran in its one call of the
    #: last run; 0 on interpreting backends.  Descriptive, not additive.
    block_depth: int = field(default=0, compare=False)
    #: which tier of the compiled kernel ran (``native`` or ``numpy``;
    #: empty on interpreting backends) and why native did not.
    kernel_tier: str = field(default="", compare=False)
    native_fallback_reason: str = field(default="", compare=False)


def missing_field_error(name: str, available, coords: tuple[int, int]) -> KeyError:
    """The diagnosable error for a host access to an unknown field."""
    listing = ", ".join(sorted(available)) or "<none>"
    return KeyError(
        f"unknown field '{name}' on PE {coords}; available buffers: {listing}"
    )


class Executor(ABC):
    """One execution backend for a pre-processed program image.

    Subclasses implement the four hooks of the delivery-round loop
    (:meth:`_drain_tasks`, :meth:`_all_settled`, :meth:`_deliver_round`,
    :meth:`_collect_statistics`) plus host-side data movement; the loop
    itself — and with it the deadlock/divergence diagnostics — is shared.
    """

    #: registry key; subclasses must override.
    name = "abstract"

    #: provenance of the generated kernel a backend ran (see the
    #: ``compiled`` backend); None on backends that run no kernel.
    kernel_cache: dict | None = None

    def __init__(
        self,
        image: "ProgramImage",
        width: int,
        height: int,
        plan: "ExecutionPlan | None" = None,
        kernel_store=None,
    ):
        from repro.wse.plan import ExecutionPlan

        self.image = image
        self.width = width
        self.height = height
        #: the pre-compiled execution plan every backend replays.  The
        #: simulator facade compiles it once and hands it down; direct
        #: constructions (tests, tools) get their own.
        self.plan = (
            plan
            if plan is not None
            else ExecutionPlan.compile(image, width, height)
        )
        #: where generated kernels and native libraries persist across
        #: processes (:class:`~repro.service.kernels.KernelSourceStore`);
        #: only backends that generate kernels use it.
        self.kernel_store = kernel_store
        self.statistics = SimulationStatistics()
        #: set by :meth:`launch`, consumed by :meth:`run`: a run with no
        #: newly-launched entry is a settled no-op on every backend.
        self._pending_launch = False

    # ------------------------------------------------------------------ #
    # Host-side data movement (the memcpy library's role)
    # ------------------------------------------------------------------ #

    @abstractmethod
    def load_field(self, name: str, columns: np.ndarray) -> None:
        """Scatter a ``(width, height, z)`` array of columns onto the PEs."""

    @abstractmethod
    def read_field(self, name: str) -> np.ndarray:
        """Gather a field back into a ``(width, height, z)`` array."""

    @abstractmethod
    def pe(self, x: int, y: int):
        """Per-PE state view: ``buffers``, ``counters``, ``memory_in_use()``."""

    def _check_pe_coords(self, x: int, y: int) -> None:
        if not (0 <= x < self.width and 0 <= y < self.height):
            raise IndexError(
                f"PE ({x}, {y}) outside the {self.width}x{self.height} fabric"
            )

    @property
    @abstractmethod
    def grid(self) -> list[list]:
        """The full fabric as rows of per-PE state views."""

    def _check_columns(self, name: str, columns: np.ndarray, z_length: int) -> None:
        if columns.shape[:2] != (self.width, self.height):
            raise ValueError(
                f"expected columns of shape ({self.width}, {self.height}, z), "
                f"got {columns.shape}"
            )
        if columns.shape[2] != z_length:
            raise ValueError(
                f"column length {columns.shape[2]} does not match buffer "
                f"'{name}' of length {z_length}"
            )

    # ------------------------------------------------------------------ #
    # Execution
    # ------------------------------------------------------------------ #

    @abstractmethod
    def launch(self, entry: str | None = None) -> None:
        """Invoke the host-callable entry point on every PE."""

    def run(self, max_rounds: int = 1_000_000) -> SimulationStatistics:
        """Run delivery rounds until every PE has halted.

        Without a :meth:`launch` since the last run there is nothing to
        drive: the statistics are returned unchanged.  The guard lives here
        so the no-op semantics are identical on every backend; backends
        with their own round scheduling override :meth:`_run_rounds`.
        """
        if not self._pending_launch:
            return self.statistics
        self._pending_launch = False
        return self._run_rounds(max_rounds)

    def _run_rounds(self, max_rounds: int) -> SimulationStatistics:
        """Drive the delivery-round loop (hook-based default)."""
        for _ in range(max_rounds):
            self._drain_tasks()
            if self._all_settled():
                break
            delivered = self._deliver_round()
            self.statistics.rounds += 1
            if delivered == 0:
                raise InterpretationError(
                    "deadlock: PEs are neither halted nor waiting on an exchange"
                )
        else:
            raise InterpretationError(f"simulation exceeded {max_rounds} rounds")

        self._collect_statistics()
        return self.statistics

    def execute(self, entry: str | None = None) -> SimulationStatistics:
        """Convenience: launch then run to completion."""
        self.launch(entry)
        return self.run()

    # ------------------------------------------------------------------ #
    # Delivery-round hooks
    # ------------------------------------------------------------------ #

    @abstractmethod
    def _drain_tasks(self) -> None:
        """Run every PE's queued tasks until it halts or blocks."""

    @abstractmethod
    def _all_settled(self) -> bool:
        """True when every PE is halted or idle (simulation complete)."""

    @abstractmethod
    def _deliver_round(self) -> int:
        """Deliver all pending exchanges; returns the number delivered."""

    @abstractmethod
    def _collect_statistics(self) -> None:
        """Set the :attr:`statistics` counters to the per-PE totals since
        construction (the per-PE counters are cumulative, so a relaunch
        must not add them a second time)."""


# --------------------------------------------------------------------------- #
# Registry
# --------------------------------------------------------------------------- #

_REGISTRY: dict[str, type[Executor]] = {}


def register_executor(cls: type[Executor]) -> type[Executor]:
    """Class decorator registering an executor under its ``name``.

    Re-registering the same class is a no-op (module re-imports); a
    *different* class claiming a taken name is rejected — silently shadowing
    a backend would make ``REPRO_EXECUTOR`` selection ambiguous.
    """
    if cls.name == Executor.name:
        raise ValueError("executors must define a registry name")
    existing = _REGISTRY.get(cls.name)
    if existing is not None and existing is not cls:
        raise ValueError(
            f"executor name '{cls.name}' is already registered to "
            f"{existing.__qualname__}; pick a distinct registry name"
        )
    _REGISTRY[cls.name] = cls
    return cls


def available_executors() -> tuple[str, ...]:
    """The registered backend names, sorted."""
    return tuple(sorted(_REGISTRY))


def executor_by_name(name: str) -> type[Executor]:
    """Look up a backend; unknown names raise with the available choices."""
    try:
        return _REGISTRY[name]
    except KeyError:
        raise KeyError(
            f"unknown executor '{name}'; available executors: "
            f"{', '.join(available_executors())}"
        ) from None


def default_executor_name() -> str:
    """The process-wide default: ``REPRO_EXECUTOR`` or the built-in default."""
    return os.environ.get(EXECUTOR_ENV_VAR) or DEFAULT_EXECUTOR
