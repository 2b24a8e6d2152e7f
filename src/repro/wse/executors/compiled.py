"""The compiled backend: one generated, fused per-round kernel.

Where the ``vectorized`` backend still *interprets* the csl-ir program once
per delivery round (dict dispatch per op, slice construction per DSD
operand, fresh staging arrays per exchange), this backend asks
:mod:`repro.wse.codegen` to walk the :class:`~repro.wse.plan.ExecutionPlan`
once and emit the whole round as a single Python function: straight-line
task bodies, bind-time hoisted DSD views and preallocated exchange
staging.  The generated kernel is cached process-wide by its content
fingerprint (and optionally through a service-level source store), so
repeated simulations of the same program pay code generation exactly once.

The kernel comes in two tiers.  When a C compiler is available the
**native** tier (:mod:`repro.wse.native`) runs the DSD work — straight-line
DSD runs and exchange deliveries — as PE-major C functions; the library is
built in the background from the moment the kernel binds and waited for at
the first :meth:`launch`.  Without a compiler, or when the build fails, the
**numpy** tier runs the same schedule as whole-grid NumPy statements;
:attr:`SimulationStatistics.kernel_tier` and ``native_fallback_reason``
record which ran and why.

The numerical semantics are the interpreter's, statement for statement —
fields and :class:`~repro.wse.executors.base.SimulationStatistics` stay
bit-identical to ``vectorized`` on both tiers (the golden equivalence tests
pin this).

Programs using constructs the generator does not fuse (none the pipeline
emits, but hand-built test images can) fall back to plain vectorized
interpretation; :attr:`CompiledExecutor.fallback_reason` records why.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.ir.exceptions import InterpretationError
from repro.wse import native
from repro.wse.codegen import (
    CompiledKernel,
    KernelCodegenError,
    get_kernel,
    kernel_cache_statistics,
    resolve_block_depth,
)
from repro.wse.executors.base import SimulationStatistics, register_executor
from repro.wse.executors.vectorized import VectorizedExecutor
from repro.wse.interpreter import ProgramImage

if TYPE_CHECKING:  # pragma: no cover
    from repro.wse.plan import ExecutionPlan


@register_executor
class CompiledExecutor(VectorizedExecutor):
    """Run the fused generated kernel; interpret only as a fallback.

    With a temporal block depth R > 1 (``rounds_per_block`` argument or the
    ``REPRO_FUSION_ROUNDS`` environment override) the bound kernel carries
    the round loop itself (``run_block``): up to R delivery rounds execute
    per Python boundary crossing, byte-identical to unblocked execution.
    ``kernel_store`` (a :class:`~repro.service.kernels.KernelSourceStore`)
    serves and keeps kernel sources and native libraries across processes.
    """

    name = "compiled"

    def __init__(
        self,
        image: ProgramImage,
        width: int,
        height: int,
        plan: "ExecutionPlan | None" = None,
        rounds_per_block: int | None = None,
        kernel_store=None,
    ):
        super().__init__(image, width, height, plan, kernel_store)
        #: the bound kernel hooks; None until the first launch binds them,
        #: and for good when interpretation is active.
        self.kernel: dict | None = None
        #: why code generation was declined, for diagnostics and tests.
        self.fallback_reason: str | None = None
        #: why the temporal block was declined (runs unblocked instead).
        self.block_fallback_reason: str | None = None
        #: content fingerprint of the generated kernel (None on fallback).
        self.kernel_fingerprint: str | None = None
        #: where the kernel (and its native library) came from, and which
        #: tier ran: folded into run artifacts by the run service.
        self.kernel_cache: dict | None = None
        self._rounds_per_block = resolve_block_depth(rounds_per_block)
        self._library: native.LibraryRequest | None = None
        self._native_reason = ""
        compiler = native.find_compiler()
        if compiler is None:
            self._native_reason = native.NO_COMPILER_REASON
        self._compiled = self._resolve(use_native=compiler is not None)
        if self._compiled is not None and self._compiled.c_source is not None:
            # Start the build now; the caller loads fields meanwhile.
            self._library = native.load_library(
                self._compiled.c_source, compiler, self.kernel_store
            )

    def _lookup(self, rounds: int, use_native: bool) -> CompiledKernel:
        """One kernel through the memo/store, recording its provenance."""
        before = kernel_cache_statistics()
        counts = before.codegens, before.memory_hits
        compiled = get_kernel(
            self.image, self.plan, store=self.kernel_store, rounds=rounds,
            native=use_native,
        )
        after = kernel_cache_statistics()
        if after.codegens > counts[0]:
            served_from = "codegen"
        elif after.memory_hits > counts[1]:
            served_from = "memory"
        else:
            served_from = "store"
        self.kernel_fingerprint = compiled.fingerprint
        self.kernel_cache = {
            "fingerprint": compiled.fingerprint,
            "served_from": served_from,
        }
        return compiled

    def _resolve(self, use_native: bool) -> CompiledKernel | None:
        """The kernel to run: blocked at R when it fuses, else unblocked,
        else None (interpretation)."""
        if self._rounds_per_block > 1:
            # The blocked kernel *is* the kernel: binding a second unblocked
            # kernel to the same state would create a parallel task queue.
            try:
                return self._lookup(self._rounds_per_block, use_native)
            except KernelCodegenError as error:
                self.block_fallback_reason = str(error)
                self._rounds_per_block = 1
        try:
            return self._lookup(1, use_native)
        except KernelCodegenError as error:
            self.fallback_reason = str(error)
            self.kernel_cache = {"served_from": "fallback", "reason": str(error)}
            return None

    def _bind(self) -> None:
        """Bind the kernel to this executor's state, once: wait for the
        native library, or fall back to the NumPy tier when there is none."""
        compiled, library, provenance = self._compiled, None, {}
        if self._library is not None:
            request, self._library = self._library, None
            library = request.wait()
            provenance = {
                "library": request.served_from,
                "build_s": round(request.build_s, 6),
            }
            if library is None:
                self._native_reason = request.reason or "native build failed"
                compiled = self._compiled = self._resolve(use_native=False)
                if compiled is None:
                    return
        self.kernel = compiled.instantiate(self.state, self.plan, library)
        tier = "native" if library is not None else "numpy"
        self.kernel_cache.update(provenance, tier=tier)
        if self._native_reason:
            self.kernel_cache["native_fallback_reason"] = self._native_reason
        self.statistics.kernel_tier = tier
        self.statistics.native_fallback_reason = self._native_reason

    # ------------------------------------------------------------------ #
    # Execution hooks: delegate to the kernel, fall back to the
    # inherited vectorized interpretation when codegen declined.
    # ------------------------------------------------------------------ #

    def launch(self, entry: str | None = None) -> None:
        if self.kernel is None and self._compiled is not None:
            self._bind()
        if self.kernel is None:
            super().launch(entry)
            return
        entry_name = entry if entry is not None else self.image.entry
        fn = self.kernel["fns"].get(entry_name)
        if fn is None:
            raise InterpretationError(f"unknown function or task '{entry_name}'")
        fn()
        self._pending_launch = True

    def _drain_tasks(self) -> None:
        if self.kernel is None:
            super()._drain_tasks()
            return
        self.kernel["drain"]()

    def _all_settled(self) -> bool:
        if self.kernel is None:
            return super()._all_settled()
        return self.kernel["settled"]()

    def _deliver_round(self) -> int:
        if self.kernel is None:
            return super()._deliver_round()
        return self.kernel["deliver"]()

    def _run_rounds(self, max_rounds: int) -> SimulationStatistics:
        if self.kernel is None or "run_block" not in self.kernel:
            return super()._run_rounds(max_rounds)
        # Temporal blocking: the kernel's run_block executes up to R rounds
        # per invocation on exactly the base drain/settled/deliver schedule,
        # so termination, deadlock and round-budget semantics match the
        # inherited loop case for case.
        run_block = self.kernel["run_block"]
        remaining = max_rounds
        while True:
            if remaining <= 0:
                raise InterpretationError(
                    f"simulation exceeded {max_rounds} rounds"
                )
            executed, status = run_block(
                min(self._rounds_per_block, remaining)
            )
            self.statistics.rounds += executed
            remaining -= executed
            if status == "settled":
                break
            if status == "deadlock":
                raise InterpretationError(
                    "deadlock: PEs are neither halted nor waiting on an "
                    "exchange"
                )
        self._collect_statistics()
        self.statistics.block_depth = self._rounds_per_block
        return self.statistics
