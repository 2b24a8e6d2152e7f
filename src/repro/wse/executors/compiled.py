"""The compiled backend: one generated kernel runs the whole time loop.

Where the ``vectorized`` backend still *interprets* the csl-ir program once
per delivery round (dict dispatch per op, slice construction per DSD
operand, fresh staging arrays per exchange), this backend asks
:mod:`repro.wse.codegen` to walk the :class:`~repro.wse.plan.ExecutionPlan`
once and emit the program as one kernel: straight-line task bodies,
bind-time hoisted DSD views, exchanges staged straight into the receive
buffers, and the round loop itself.  A run is one ``run_block`` call, as
the host launches the fabric once.  The generated kernel is cached
process-wide by its content fingerprint (and optionally through a
service-level source store), so repeated simulations of the same program
pay code generation exactly once.

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

Programs the generator declines fall back to plain vectorized
interpretation, and :attr:`CompiledExecutor.fallback_reason` records why:
constructs the pipeline never emits, and exchanges whose receive callback
writes the source or receive buffer (handwritten CSL can do both).
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
)
from repro.wse.executors.base import SimulationStatistics, register_executor
from repro.wse.executors.vectorized import VectorizedExecutor
from repro.wse.interpreter import ProgramImage

if TYPE_CHECKING:  # pragma: no cover
    from repro.wse.plan import ExecutionPlan


@register_executor
class CompiledExecutor(VectorizedExecutor):
    """Run the generated kernel; interpret only as a fallback.

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
        kernel_store=None,
    ):
        super().__init__(image, width, height, plan, kernel_store)
        #: the bound kernel hooks; None until the first launch binds them,
        #: and for good when interpretation is active.
        self.kernel: dict | None = None
        #: why code generation was declined, for diagnostics and tests.
        self.fallback_reason: str | None = None
        #: content fingerprint of the generated kernel (None on fallback).
        self.kernel_fingerprint: str | None = None
        #: where the kernel (and its native library) came from, and which
        #: tier ran: folded into run artifacts by the run service.
        self.kernel_cache: dict | None = None
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

    def _resolve(self, use_native: bool) -> CompiledKernel | None:
        """The kernel through the memo/store, recording its provenance, or
        None (interpretation) when code generation declines."""
        before = kernel_cache_statistics()
        counts = before.codegens, before.memory_hits
        try:
            compiled = get_kernel(
                self.image, self.plan, store=self.kernel_store,
                native=use_native,
            )
        except KernelCodegenError as error:
            self.fallback_reason = str(error)
            self.kernel_cache = {"served_from": "fallback", "reason": str(error)}
            return None
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

    def _run_rounds(self, max_rounds: int) -> SimulationStatistics:
        if self.kernel is None:
            return super()._run_rounds(max_rounds)
        # One call runs the whole loop on the interpreter's drain/settle/
        # deliver schedule, so termination, deadlock and round-budget
        # semantics match the inherited loop case for case.
        executed, status = self.kernel["run_block"](max_rounds)
        self.statistics.rounds += executed
        if status == "deadlock":
            raise InterpretationError(
                "deadlock: PEs are neither halted nor waiting on an exchange"
            )
        if status == "budget":
            raise InterpretationError(f"simulation exceeded {max_rounds} rounds")
        self._collect_statistics()
        self.statistics.block_depth = executed
        return self.statistics
