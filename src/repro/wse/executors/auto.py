"""The ``auto`` backend: a static host-cost-model choice of backend.

Every backend replays the same execution plan with identical observable
results, so the only open question per workload is *which one is fastest
on this host*: the per-PE ``reference`` interpreter on a single PE,
``vectorized`` on small fabrics (kernel generation costs more than it
saves), ``compiled`` from a few thousand PEs up.  This dispatcher makes
that choice per simulator instance, from the plan size alone, and then
delegates everything to the chosen backend.

The rule is static: :func:`repro.wse.perf_model.predict_host_seconds`
prices each candidate from the PE count, the column depth and the
delivery rounds :func:`estimate_delivery_rounds` reads off the program's
time loop; the cheapest wins.  The decision and its rationale are
stamped on the run's :class:`SimulationStatistics` (``backend_decision``
/ ``backend_rationale``) so every result is auditable.

Environment knob: ``REPRO_AUTO_BACKEND`` forces the delegate (the
dispatcher still stamps the rationale as forced).
"""

from __future__ import annotations

import os

import numpy as np

from repro.dialects import arith, csl, scf
from repro.wse.executors.base import (
    Executor,
    SimulationStatistics,
    executor_by_name,
    register_executor,
)

#: force the delegate backend, bypassing the decision procedure.
FORCE_ENV_VAR = "REPRO_AUTO_BACKEND"

#: delivery rounds assumed when the image's comms schedule cannot be
#: recognised (hand-built test images; the pipeline's generated programs
#: all match :func:`estimate_delivery_rounds`'s loop pattern).
NOMINAL_ROUNDS = 8

#: backends the dispatcher ranks.
CANDIDATES = ("reference", "vectorized", "compiled")


def _walk_ops(op):
    """The operation and every op nested in its regions, pre-order."""
    yield op
    for region in op.regions:
        for block in region.blocks:
            for child in block.ops:
                yield from _walk_ops(child)


def _count_comms(image, name: str, seen: set[str]) -> int:
    """Comms ops one iteration of the time loop executes, starting at the
    callable ``name`` and following the whole activation chain — direct
    calls, receive/done callbacks and task activations — until it wraps
    back to a callable already on the path (the loop condition)."""
    if name in seen:
        return 0
    seen.add(name)
    callable_op = image.callables.get(name)
    if callable_op is None:
        return 0
    count = 0
    for op in _walk_ops(callable_op):
        if isinstance(op, csl.CommsExchangeOp):
            count += 1
            for callback in (op.recv_callback, op.done_callback):
                if callback:
                    count += _count_comms(image, callback, seen)
        elif isinstance(op, csl.CallOp):
            count += _count_comms(image, op.callee, seen)
        elif isinstance(op, csl.ActivateOp):
            count += _count_comms(image, op.task_name, seen)
    return count


def estimate_delivery_rounds(image) -> int:
    """Delivery rounds one run of ``image`` will take, from its comms
    schedule — or :data:`NOMINAL_ROUNDS` when the schedule is opaque.

    The pipeline lowers every time loop to one shape: a condition task
    loading the step variable, comparing it (``slt``/``sle``) against a
    constant bound, and branching into the loop body, whose activation
    chain re-enters the condition after all exchanges complete.  Trip
    count times exchanges per iteration *is* the delivery-round count —
    each ``csl.comms_exchange`` blocks exactly one round.
    """
    for name, callable_op in image.callables.items():
        for op in _walk_ops(callable_op):
            if not isinstance(op, scf.IfOp):
                continue
            condition = op.condition.owner()
            if (
                not isinstance(condition, arith.CmpiOp)
                or condition.predicate not in ("slt", "sle")
            ):
                continue
            step = condition.lhs.owner()
            bound = condition.rhs.owner()
            if not isinstance(step, csl.LoadVarOp) or not isinstance(
                bound, (csl.ConstantOp, arith.ConstantOp)
            ):
                continue
            initial = image.variables.get(step.var, 0)
            trips = int(bound.value) - int(initial)
            if condition.predicate == "sle":
                trips += 1
            # The walk from the loop body counts one iteration's
            # exchanges: seeding the condition task as already-seen stops
            # the activation chain where it wraps around.
            seen = {name}
            comms = sum(
                _count_comms(image, body_call.callee, seen)
                for block in op.then_region.blocks
                for child in block.ops
                for body_call in _walk_ops(child)
                if isinstance(body_call, csl.CallOp)
            )
            if trips > 0 and comms > 0:
                return trips * comms
    return NOMINAL_ROUNDS


def choose_backend(
    width: int,
    height: int,
    depth: int,
    rounds: int = NOMINAL_ROUNDS,
) -> tuple[str, str]:
    """The backend the host cost model prices cheapest, and why."""
    from repro.wse.perf_model import predict_host_seconds

    predicted = {
        name: predict_host_seconds(
            name, pes=width * height, depth=depth, rounds=rounds
        )
        for name in CANDIDATES
    }
    ranked = sorted(predicted, key=predicted.__getitem__)
    ranking = ", ".join(f"{name}={predicted[name]:.4g}s" for name in ranked)
    rationale = (
        f"{ranked[0]} predicted fastest for {width}x{height} "
        f"(depth {depth}, {rounds} rounds) by the host cost model: {ranking}"
    )
    return ranked[0], rationale


def decide(image, plan) -> tuple[str, str]:
    """What ``auto`` runs for one image and plan: ``(backend, why)``.

    ``REPRO_AUTO_BACKEND`` forces the backend.
    """
    forced = os.environ.get(FORCE_ENV_VAR, "").strip()
    if forced:
        return forced, f"forced by {FORCE_ENV_VAR}={forced}"
    depth = max(plan.buffers.values(), default=1)
    return choose_backend(
        plan.width, plan.height, depth, estimate_delivery_rounds(image)
    )


@register_executor
class AutoExecutor(Executor):
    """Dispatch to the predicted-fastest backend; delegate everything."""

    name = "auto"

    def __init__(self, image, width, height, plan=None, kernel_store=None):
        # The statistics property below consults the delegate; it must
        # exist (as None) before super().__init__ assigns statistics.
        self._delegate: Executor | None = None
        self._own_statistics = SimulationStatistics()
        super().__init__(image, width, height, plan, kernel_store)
        choice, rationale = decide(image, self.plan)
        self._delegate = executor_by_name(choice)(
            image, width, height, self.plan, kernel_store=kernel_store
        )
        #: the decision surface: which backend runs, and why.
        self.backend_name = choice
        self.backend_rationale = rationale
        self._stamp()

    # The delegate owns the live statistics; before it exists, assignments
    # from the base constructor land on a private placeholder.
    @property
    def statistics(self) -> SimulationStatistics:
        if self._delegate is None:
            return self._own_statistics
        return self._delegate.statistics

    @statistics.setter
    def statistics(self, value: SimulationStatistics) -> None:
        if self._delegate is None:
            self._own_statistics = value
        else:
            self._delegate.statistics = value

    @property
    def kernel_cache(self) -> dict | None:
        """The delegate's kernel provenance (None when it runs no kernel)."""
        return self._delegate.kernel_cache

    def _stamp(self) -> None:
        statistics = self.statistics
        statistics.backend_decision = self.backend_name
        statistics.backend_rationale = self.backend_rationale

    # -- delegation ------------------------------------------------------ #

    def load_field(self, name: str, columns: np.ndarray) -> None:
        self._delegate.load_field(name, columns)

    def read_field(self, name: str) -> np.ndarray:
        return self._delegate.read_field(name)

    def pe(self, x: int, y: int):
        return self._delegate.pe(x, y)

    @property
    def grid(self) -> list[list]:
        return self._delegate.grid

    def launch(self, entry: str | None = None) -> None:
        self._delegate.launch(entry)

    def run(self, max_rounds: int = 1_000_000) -> SimulationStatistics:
        statistics = self._delegate.run(max_rounds)
        self._stamp()
        return statistics

    # -- unused base hooks (the delegate drives its own rounds) ---------- #

    def _drain_tasks(self) -> None:  # pragma: no cover
        raise AssertionError("auto delegates execution to its chosen backend")

    def _all_settled(self) -> bool:  # pragma: no cover
        raise AssertionError("auto delegates execution to its chosen backend")

    def _deliver_round(self) -> int:  # pragma: no cover
        raise AssertionError("auto delegates execution to its chosen backend")

    def _collect_statistics(self) -> None:  # pragma: no cover
        raise AssertionError("auto delegates execution to its chosen backend")
