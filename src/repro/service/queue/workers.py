"""The worker pool that drains the job queue.

Each worker is a daemon thread that atomically claims queued jobs from the
:class:`~repro.service.queue.store.JobStore` and executes them.  Two
execution modes:

* ``process`` (the default wherever ``fork`` exists) — the claimed job
  runs in a dedicated forked child process.  The child owns the job's
  lifecycle transitions (``compiling -> running -> digesting -> done``,
  written straight into the shared WAL store) and publishes its artifact
  through the content-addressed run cache, so the parent never has to
  trust a pipe: when the child exits, the job's on-disk status *is* the
  truth.  A child that dies mid-job — OOM-killed, segfaulted, SIGKILLed —
  simply leaves the job in an active state, and the parent requeues it
  with bounded attempts and exponential backoff.
* ``inline`` — the job executes in the worker thread itself.  No crash
  isolation, but no fork either; the fallback for platforms without it
  and the right mode for tests that want live event streaming.

Job execution reuses the whole existing cache hierarchy: the child's
:class:`~repro.service.run.RunService` serves compile-stage artifacts,
generated kernels and finished runs from the fleet-wide stores, so a
retry (or a resubmitted experiment) only re-pays the stages that never
completed.
"""

from __future__ import annotations

import multiprocessing
import os
import threading
import time
from typing import Callable

from repro.service.queue.lifecycle import (
    IllegalTransitionError,
    JobEvent,
    JobStatus,
    TERMINAL_STATES,
)
from repro.service.queue.store import (
    FORK_LOCK,
    JobPayload,
    JobRecord,
    JobStore,
)

#: test/ops hook: while the named file exists, a worker that has just
#: entered ``running`` spins instead of simulating — giving crash-recovery
#: tests (and operators rehearsing them) a deterministic window in which a
#: worker is provably mid-job.
HOLD_FILE_ENV = "REPRO_QUEUE_HOLD_FILE"


def _hold_while_requested() -> None:
    path = os.environ.get(HOLD_FILE_ENV, "").strip()
    while path and os.path.exists(path):
        time.sleep(0.02)


def execute_claimed_job(
    store: JobStore, record: JobRecord, cache_dir: str
) -> None:
    """Run one claimed job to a terminal state, whatever happens.

    Expects the record in ``compiling`` (the claim state).  Walks the
    lifecycle in step with the run service's stage callbacks, completes
    with a result summary, and converts any execution error into a
    ``failed`` terminal state — the caller never sees an exception, it
    sees the store.
    """
    from repro.service.run import RunService  # deferred: avoid import cycle

    try:
        payload = JobPayload.decode(record.payload)
    except Exception as error:  # poisoned row: never retryable
        store.fail(
            record.id,
            f"undecodable job payload: {type(error).__name__}: {error}",
            worker=record.worker,
        )
        return

    simulated = False

    def on_stage(stage: str) -> None:
        nonlocal simulated
        if stage == "compiling":
            return  # the claim transition already moved the job here
        if stage == "running":
            simulated = True
            store.transition(
                record.id,
                JobStatus.RUNNING,
                expected=JobStatus.COMPILING,
                worker=record.worker,
            )
            _hold_while_requested()
        elif stage == "digesting":
            store.transition(
                record.id,
                JobStatus.DIGESTING,
                expected=JobStatus.RUNNING,
                worker=record.worker,
            )

    service = RunService(cache_dir=cache_dir)
    try:
        artifact = service.run(
            payload.program,
            payload.options,
            executor=payload.executor,
            seed=payload.seed,
            max_rounds=payload.max_rounds,
            on_stage=on_stage,
        )
        if not simulated:
            # Served straight from the run cache: no stage callbacks fired,
            # so walk the states explicitly to keep the history legal.
            detail = "served from run cache"
            store.transition(
                record.id, JobStatus.RUNNING, detail=detail, worker=record.worker
            )
            store.transition(
                record.id, JobStatus.DIGESTING, detail=detail,
                worker=record.worker,
            )
        store.complete(
            record.id,
            {
                "fingerprint": artifact.fingerprint,
                "program_name": artifact.program_name,
                "executor": artifact.executor,
                "rounds": artifact.rounds,
                "field_digests": artifact.field_digests,
                "served_from": "simulation" if simulated else "run-cache",
            },
            worker=record.worker,
        )
    except IllegalTransitionError:
        # The job moved underneath us (e.g. cancelled concurrently); the
        # store already holds the authoritative state.
        pass
    except BaseException as error:
        try:
            store.fail(
                record.id,
                f"{type(error).__name__}: {error}",
                worker=record.worker,
            )
        except Exception:
            pass  # e.g. concurrently cancelled; the store state wins
    finally:
        service.shutdown()


def _child_entry(cache_dir: str, job_id: int) -> None:
    """Forked-child entry point: fresh store connection, one job, exit."""
    store = JobStore(cache_dir)
    record = store.get(job_id)
    if record is None or record.status is not JobStatus.COMPILING:
        return  # claim was lost before we started; nothing to do
    execute_claimed_job(store, record, cache_dir)


def resolve_worker_mode(mode: str) -> str:
    """``auto`` picks crash-isolated ``process`` workers wherever ``fork``
    exists, otherwise falls back to ``inline``."""
    if mode not in ("auto", "process", "inline"):
        raise ValueError(
            f"unknown worker mode {mode!r}: expected 'auto', 'process' "
            f"or 'inline'"
        )
    if mode != "auto":
        return mode
    return (
        "process"
        if "fork" in multiprocessing.get_all_start_methods()
        else "inline"
    )


class WorkerPool:
    """N claim-and-execute worker threads over one job store."""

    def __init__(
        self,
        store: JobStore,
        cache_dir: str,
        *,
        workers: int = 2,
        mode: str = "auto",
        retry_backoff: float = 0.05,
        poll_interval: float = 0.02,
        on_terminal: Callable[[JobRecord], None] | None = None,
        on_retry: Callable[[JobRecord, str], None] | None = None,
        forward_events: Callable[[JobEvent], None] | None = None,
    ):
        if workers < 0:
            raise ValueError(f"workers must be >= 0, got {workers}")
        self.store = store
        self.cache_dir = cache_dir
        self.workers = workers
        self.mode = resolve_worker_mode(mode)
        self.retry_backoff = retry_backoff
        self.poll_interval = poll_interval
        self._on_terminal = on_terminal or (lambda record: None)
        self._on_retry = on_retry or (lambda record, reason: None)
        self._forward_events = forward_events
        self._threads: list[threading.Thread] = []
        self._stop = threading.Event()
        self._wake = threading.Event()
        self._lock = threading.Lock()
        self._active: dict[int, multiprocessing.process.BaseProcess] = {}
        self._cancel_requested: set[int] = set()

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #

    def start(self) -> None:
        if self._threads or self.workers == 0:
            return
        for index in range(self.workers):
            thread = threading.Thread(
                target=self._loop,
                args=(f"worker-{index}@{os.getpid()}",),
                name=f"queue-worker-{index}",
                daemon=True,
            )
            thread.start()
            self._threads.append(thread)

    def stop(self, wait: bool = True) -> None:
        self._stop.set()
        self._wake.set()
        if wait:
            for thread in self._threads:
                thread.join()
        self._threads.clear()

    @property
    def running(self) -> bool:
        return any(thread.is_alive() for thread in self._threads)

    def wake(self) -> None:
        self._wake.set()

    # ------------------------------------------------------------------ #
    # Cancellation / introspection
    # ------------------------------------------------------------------ #

    def request_cancel(self, job_id: int) -> bool:
        """Terminate the child currently executing ``job_id``, if any.

        The owning worker thread observes the death, sees the pending
        request, and records the ``-> cancelled`` transition (unless the
        job won the race and finished first).
        """
        with self._lock:
            process = self._active.get(job_id)
            if process is None:
                return False
            self._cancel_requested.add(job_id)
            process.terminate()
        return True

    def active_processes(self) -> dict[int, int]:
        """Live ``{job_id: pid}`` of process-mode jobs (for ops and the
        crash-recovery tests)."""
        with self._lock:
            return {
                job_id: process.pid
                for job_id, process in self._active.items()
                if process.pid is not None
            }

    # ------------------------------------------------------------------ #
    # The worker loop
    # ------------------------------------------------------------------ #

    def _loop(self, worker_name: str) -> None:
        while not self._stop.is_set():
            record = self.store.claim_next(worker_name)
            if record is None:
                self._wake.wait(self.poll_interval)
                self._wake.clear()
                continue
            if self.mode == "inline":
                self._run_inline(record)
            else:
                self._run_in_process(record)

    def _run_inline(self, record: JobRecord) -> None:
        execute_claimed_job(self.store, record, self.cache_dir)
        final = self.store.get(record.id)
        if final is not None and final.status in TERMINAL_STATES:
            self._on_terminal(final)

    def _run_in_process(self, record: JobRecord) -> None:
        last_event_id = self.store.latest_event_id(record.id)
        context = multiprocessing.get_context("fork")
        process = context.Process(
            target=_child_entry,
            args=(self.cache_dir, record.id),
            name=f"queue-job-{record.id}",
        )
        # FORK_LOCK quiesces every thread's SQLite activity across the
        # fork; see its definition in the store module.
        with FORK_LOCK:
            process.start()
        with self._lock:
            self._active[record.id] = process
        process.join()
        with self._lock:
            self._active.pop(record.id, None)
            cancelled = record.id in self._cancel_requested
            self._cancel_requested.discard(record.id)

        # Stream the transitions the child recorded (its store instance has
        # no live hook into this process) before deciding the outcome.
        if self._forward_events is not None:
            for event in self.store.events_since(record.id, last_event_id):
                self._forward_events(event)

        final = self.store.get(record.id)
        if final is None:
            return
        if final.status in TERMINAL_STATES:
            self._on_terminal(final)
            return
        if cancelled:
            self.store.transition(
                record.id,
                JobStatus.CANCELLED,
                detail=f"cancelled while {final.status}",
            )
            final = self.store.get(record.id)
            if final is not None:
                self._on_terminal(final)
            return
        # The child died mid-job without reaching a terminal state.
        reason = (
            f"worker died during {final.status} "
            f"(exit code {process.exitcode})"
        )
        backoff = min(
            self.retry_backoff * (2 ** max(0, final.attempts - 1)), 2.0
        )
        outcome = self.store.requeue_or_fail(record.id, reason, backoff)
        if outcome is JobStatus.QUEUED:
            self._on_retry(final, reason)
            self._wake.set()
        else:
            final = self.store.get(record.id)
            if final is not None and final.status in TERMINAL_STATES:
                self._on_terminal(final)
