"""Per-PE state: local memory, module variables, task queue, pending exchange."""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Any

import numpy as np


#: the per-PE activity counters every execution backend maintains; shared
#: so the lockstep state mirror and the statistics folding can never drift
#: out of sync with the reference per-PE state.
PE_COUNTER_NAMES = (
    "tasks_run",
    "exchanges",
    "dsd_ops",
    "dsd_elements",
    "wavelets_sent",
)


def new_pe_counters() -> dict[str, int]:
    """A fresh zeroed per-PE activity-counter dict."""
    return {name: 0 for name in PE_COUNTER_NAMES}


@dataclass
class PendingExchange:
    """A scheduled (not yet delivered) chunked halo exchange."""

    source_buffer: str
    source_offset: int
    source_length: int
    chunk_size: int
    num_chunks: int
    directions: tuple[tuple[int, int], ...]
    coefficients: tuple[float, ...] | None
    receive_buffer: str
    receive_callback: str
    done_callback: str


@dataclass
class ActivatedTask:
    """A task queued for execution, with its (optional) wavelet argument."""

    name: str
    argument: Any = None


class ProcessingElement:
    """State of one PE of the simulated fabric."""

    def __init__(self, x: int, y: int):
        self.x = x
        self.y = y
        #: PE-local buffers, keyed by the csl.zeros symbol name.
        self.buffers: dict[str, np.ndarray] = {}
        #: module-scope scalar variables (csl.variable).
        self.variables: dict[str, float] = {}
        #: queue of activated tasks awaiting execution.
        self.task_queue: deque[ActivatedTask] = deque()
        #: exchange scheduled by csl.comms_exchange, awaiting delivery.
        self.pending_exchange: PendingExchange | None = None
        #: set once the program returns control to the host.
        self.halted = False
        #: simple activity counters used by tests and the performance model.
        self.counters: dict[str, int] = new_pe_counters()

    def allocate(self, name: str, size: int) -> None:
        if name not in self.buffers:
            self.buffers[name] = np.zeros(size, dtype=np.float32)

    def activate(self, task: ActivatedTask) -> None:
        self.task_queue.append(task)

    @property
    def is_blocked(self) -> bool:
        """Blocked: waiting for an exchange with nothing left to run."""
        return self.pending_exchange is not None and not self.task_queue

    @property
    def is_idle(self) -> bool:
        return not self.task_queue and self.pending_exchange is None

    def memory_in_use(self) -> int:
        return sum(buffer.nbytes for buffer in self.buffers.values())
