"""Plan-to-kernel code generation for the ``compiled`` executor.

The vectorized backend still *interprets* the csl-ir program once per
delivery round: every op pays a dict dispatch, every DSD operand a slice
construction, and the halo exchange allocates fresh gather/concatenate
arrays per chunk.  On small fabrics that dispatch overhead dominates; on
large fabrics the per-round allocations do.  This module removes both by
walking the :class:`~repro.wse.plan.ExecutionPlan` **once** and emitting
one kernel per program as Python/NumPy source text, materialised via
``exec``.  Its ``run_block(budget)`` runs the whole time loop in one call,
as the host launches the fabric once:

* every callable becomes a plain Python function (``counters`` bump +
  straight-line statements) — task activations append bound functions to a
  queue, direct calls are direct calls;
* every *static* DSD access becomes a named whole-grid view bound once at
  kernel-bind time; only runtime-offset DSDs (receive-callback chunk bases)
  slice per call;
* DSD compute builtins lower to allocation-free ``np.add/subtract/multiply
  (..., out=view)`` forms whenever the static operand layout proves the
  destination never partially overlaps a source — otherwise they fall back
  to the interpreter's exact ``dest[:] = expr`` statement, so results stay
  byte-identical either way;
* the chunked halo exchange unrolls into per-direction copies straight
  into the receive buffer, chunk by chunk with the receive callback after
  each: gathers become a few basic-slice copies (or one fancy-index gather
  through the plan's fold tables), Dirichlet directions write only the
  interior rectangle over a constant-fill border.

Kernels are cached process-wide in an in-memory memo keyed by a *kernel
fingerprint* (SHA-256 over the printed program module, the plan's canonical
form and :data:`CODEGEN_VERSION`), and optionally persisted through a
source store (see :mod:`repro.service.kernels`) so compilation is paid once
fleet-wide.  Set ``REPRO_COMPILED_DUMP`` to a directory to retain the
emitted source of every kernel for debugging (plus the C of native-tier
kernels, see :mod:`repro.wse.native`).

Staging straight into the receive buffer is only equivalent to the
interpreter's stage-everything-first exchange when the receive callback
writes neither the source nor the receive buffer (every exchange the
pipeline generates qualifies).  An exchange that does not, and any
construct the pipeline never generates, raises :class:`KernelCodegenError`;
the ``compiled`` executor then falls back to plain vectorized
interpretation.
"""

from __future__ import annotations

import hashlib
import json
import os
import re
from collections import deque
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Callable

import numpy as np

from repro.dialects import arith, csl, scf
from repro.ir.attributes import StringAttr
from repro.ir.operation import Operation
from repro.ir.printer import print_module
from repro.wse.plan import ExchangePlan, ExecutionPlan, _callable_blocks

if TYPE_CHECKING:  # pragma: no cover
    from repro.wse.interpreter import ProgramImage

#: bump when the emitted kernel semantics change; folded into kernel
#: fingerprints (stale memo/store entries then miss) and into run-level
#: fingerprints so cached run artifacts invalidate alongside.
#: v3: one kernel shape per program (the whole-loop ``run_block`` with
#: direct staging); the per-round ``deliver``/``settled`` hooks are gone.
CODEGEN_VERSION = 3

#: environment variable naming a directory to retain emitted kernel source
#: in (``kernel_<fingerprint12>.py`` per kernel, and ``kernel_<fp12>.c``
#: beside native-tier kernels) for debugging.
DUMP_ENV_VAR = "REPRO_COMPILED_DUMP"

class KernelCodegenError(Exception):
    """The program uses a construct the kernel generator does not fuse."""


# --------------------------------------------------------------------------- #
# Fingerprints
# --------------------------------------------------------------------------- #


def kernel_fingerprint(
    image: "ProgramImage",
    plan: ExecutionPlan,
    native: bool = False,
) -> str:
    """Content fingerprint of one (program module, plan) kernel.

    Hashes the deterministically printed program module together with the
    plan's canonical form and the codegen version, so two processes that
    compiled the same program to the same plan share one kernel — and any
    change to the program, the planning semantics or the emitter invalidates
    it exactly once.  Native-tier glue kernels fold the native emitter's
    version.
    """
    payload = {
        "codegen_version": CODEGEN_VERSION,
        "module": print_module(image.module),
        "plan": plan.canonical(),
    }
    if native:
        from repro.wse.native import NATIVE_VERSION

        payload["native"] = NATIVE_VERSION
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


# --------------------------------------------------------------------------- #
# Source building
# --------------------------------------------------------------------------- #


class SourceBuilder:
    """An indent-aware line emitter for generated Python source."""

    def __init__(self, indent: int = 0):
        self._lines: list[str] = []
        self._indent = indent

    def line(self, text: str = "") -> None:
        self._lines.append(("    " * self._indent + text) if text else "")

    @contextmanager
    def indented(self):
        self._indent += 1
        try:
            yield self
        finally:
            self._indent -= 1

    def extend(self, other: "SourceBuilder") -> None:
        self._lines.extend(other._lines)

    def __len__(self) -> int:
        return len(self._lines)

    def text(self) -> str:
        return "\n".join(self._lines) + "\n"


@dataclass(frozen=True)
class _DsdExpr:
    """A DSD value during emission: static layout + optional runtime offset.

    ``runtime`` is a Python expression (already ``int(...)``-wrapped) added
    to ``offset`` at execution time, or ``None`` for fully static DSDs.
    """

    buffer: str
    offset: int
    length: int
    stride: int
    runtime: str | None = None

    @property
    def view_key(self) -> tuple:
        return (self.buffer, self.offset, self.length, self.stride, self.runtime)


_IDENTIFIER = re.compile(r"[A-Za-z_][A-Za-z0-9_]*\Z")


def _atom(expression: str) -> str:
    """Wrap a subexpression so it composes safely inside a larger one."""
    if _IDENTIFIER.match(expression):
        return expression
    if re.fullmatch(r"\d+(\.\d+)?", expression):
        return expression
    return f"({expression})"


class _KernelEmitter:
    """Walks one program image + plan and emits the kernel source."""

    #: parameters of the emitted ``make_kernel`` factory.
    MAKE_PARAMS = "state, plan"

    #: ops the interpreter treats as no-ops (host/layout surface).
    NOOP_OPS = (
        csl.ImportModuleOp,
        csl.ExportOp,
        csl.RpcOp,
        csl.MemberCallOp,
        csl.MemberAccessOp,
    )

    BINARY_OPS = {
        arith.AddiOp: "+",
        arith.SubiOp: "-",
        arith.MuliOp: "*",
        arith.AddfOp: "+",
        arith.SubfOp: "-",
        arith.MulfOp: "*",
        arith.DivfOp: "/",
    }

    CMP_OPS = {
        "eq": "==",
        "ne": "!=",
        "slt": "<",
        "sle": "<=",
        "sgt": ">",
        "sge": ">=",
    }

    def __init__(self, image: "ProgramImage", plan: ExecutionPlan):
        self.image = image
        self.plan = plan
        self._fn_names: dict[str, str] = {}
        self._buffer_names: dict[str, str] = {}
        self._views: dict[tuple, str] = {}  # (buffer, offset, length, stride)
        self._gathers: dict[tuple[int, int], tuple[str, str]] = {}
        self._scratch: dict[int, str] = {}  # dest length -> name
        #: (eid, exchange plan, authoritative source buffer) per comms op.
        self._exchanges: list[tuple[int, ExchangePlan, str]] = []
        #: exchanges whose constant-fill borders are written lazily under a
        #: ``fl<eid>`` once-flag (receive buffer proven unwritten outside
        #: delivery).
        self._fill_flags: set[int] = set()
        self._write_sets: dict[str, set[str] | None] = {}
        self._temp = 0

    # -- naming --------------------------------------------------------- #

    def _assign_names(self) -> None:
        used: set[str] = set()
        for name in sorted(self.image.callables):
            base = "fn_" + re.sub(r"[^0-9A-Za-z_]", "_", name)
            candidate, suffix = base, 1
            while candidate in used:
                candidate = f"{base}_{suffix}"
                suffix += 1
            used.add(candidate)
            self._fn_names[name] = candidate
        for buffer in sorted(self.plan.buffers):
            base = "b_" + re.sub(r"[^0-9A-Za-z_]", "_", buffer)
            candidate, suffix = base, 1
            while candidate in used:
                candidate = f"{base}_{suffix}"
                suffix += 1
            used.add(candidate)
            self._buffer_names[buffer] = candidate

    def _fn(self, name: str) -> str:
        fn = self._fn_names.get(name)
        if fn is None:
            raise KernelCodegenError(f"reference to unknown callable '{name}'")
        return fn

    def _buffer(self, name: str) -> str:
        local = self._buffer_names.get(name)
        if local is None:
            raise KernelCodegenError(f"reference to unknown buffer '{name}'")
        return local

    def _static_view(self, dsd: _DsdExpr) -> str:
        key = (dsd.buffer, dsd.offset, dsd.length, dsd.stride)
        name = self._views.get(key)
        if name is None:
            name = f"v{len(self._views)}"
            self._views[key] = name
        return name

    def _gather(self, direction: tuple[int, int]) -> tuple[str, str]:
        names = self._gathers.get(direction)
        if names is None:
            tag = "_".join(
                ("m" + str(-c)) if c < 0 else ("p" + str(c)) for c in direction
            )
            names = (f"gr_{tag}", f"gc_{tag}")
            self._gathers[direction] = names
        return names

    def _scratch_for(self, length: int) -> str:
        name = self._scratch.get(length)
        if name is None:
            name = f"scr{length}"
            self._scratch[length] = name
        return name

    def _fresh(self) -> str:
        self._temp += 1
        return f"t{self._temp}"

    # -- value resolution ----------------------------------------------- #

    def _entry(self, value, env: dict[int, Any]):
        entry = env.get(id(value))
        if entry is None:
            raise KernelCodegenError(
                "use of a value that was never defined while emitting "
                f"(type {value.type})"
            )
        return entry

    def _scalar(self, value, env: dict[int, Any]) -> str:
        entry = self._entry(value, env)
        if isinstance(entry, _DsdExpr):
            raise KernelCodegenError("a DSD value was used where a scalar is")
        return entry

    def _slice(self, dsd: _DsdExpr) -> str:
        stop = dsd.offset + dsd.length * dsd.stride
        step = f":{dsd.stride}" if dsd.stride != 1 else ""
        return f"{dsd.offset}:{stop}{step}"

    def _operand_view(
        self, dsd: _DsdExpr, builder: SourceBuilder
    ) -> str:
        """The NumPy view expression of a DSD operand.

        Static DSDs resolve to kernel-bind-time named views; runtime-offset
        DSDs slice inside the emitted function (with the same range check
        ``Dsd.resolve_columns`` performs)."""
        if dsd.runtime is None:
            return self._static_view(dsd)
        offset_name = self._fresh()
        builder.line(f"{offset_name} = {dsd.offset} + {dsd.runtime}")
        view_name = self._fresh()
        stop = f"{offset_name} + {dsd.length * dsd.stride}"
        step = f":{dsd.stride}" if dsd.stride != 1 else ""
        builder.line(
            f"{view_name} = {self._buffer(dsd.buffer)}"
            f"[:, :, {offset_name}:{stop}{step}]"
        )
        builder.line(
            f"if {view_name}.shape[2] != {dsd.length}: "
            f"raise IndexError(\"DSD over '{dsd.buffer}' out of range\")"
        )
        return view_name

    # -- callable emission ---------------------------------------------- #

    def _emit_callable(self, name: str, builder: SourceBuilder) -> None:
        callable_op = self.image.callables[name]
        block = callable_op.regions[0].blocks[0]
        env: dict[int, Any] = {}
        if block.args:
            env[id(block.args[0])] = "arg"
        builder.line(f"def {self._fn_names[name]}(arg=0):")
        with builder.indented():
            builder.line("counters['tasks_run'] += 1")
            self._emit_block(block, env, builder)

    def _emit_block(self, block, env: dict[int, Any], b: SourceBuilder) -> None:
        for op in block.ops:
            if isinstance(op, (csl.ReturnOp, scf.YieldOp)):
                return
            self._emit_op(op, env, b)

    def _emit_op(self, op: Operation, env: dict[int, Any], b: SourceBuilder):
        if isinstance(op, (csl.ConstantOp, arith.ConstantOp)):
            env[id(op.results[0])] = repr(op.value)
        elif isinstance(op, csl.LoadVarOp):
            name = self._fresh()
            b.line(f"{name} = variables.get({op.var!r}, 0)")
            env[id(op.result)] = name
        elif isinstance(op, csl.StoreVarOp):
            b.line(f"variables[{op.var!r}] = {self._scalar(op.value, env)}")
        elif type(op) in self.BINARY_OPS:
            operator = self.BINARY_OPS[type(op)]
            name = self._fresh()
            lhs = _atom(self._scalar(op.lhs, env))
            rhs = _atom(self._scalar(op.rhs, env))
            b.line(f"{name} = {lhs} {operator} {rhs}")
            env[id(op.result)] = name
        elif isinstance(op, arith.CmpiOp):
            operator = self.CMP_OPS[op.predicate]
            name = self._fresh()
            lhs = _atom(self._scalar(op.lhs, env))
            rhs = _atom(self._scalar(op.rhs, env))
            b.line(f"{name} = bool({lhs} {operator} {rhs})")
            env[id(op.result)] = name
        elif isinstance(op, scf.IfOp):
            self._emit_if(op, env, b)
        elif isinstance(op, csl.CallOp):
            b.line(f"{self._fn(op.callee)}()")
        elif isinstance(op, csl.ActivateOp):
            b.line(f"queue.append(({self._fn(op.task_name)}, 0))")
        elif isinstance(op, csl.GetMemDsdOp):
            env[id(op.result)] = self._dsd_of_get(op, env)
        elif isinstance(op, csl.IncrementDsdOffsetOp):
            env[id(op.result)] = self._dsd_of_increment(op, env)
        elif isinstance(op, csl.DSD_BUILTIN_OPS):
            self._emit_builtin(op, env, b)
        elif isinstance(op, csl.CommsExchangeOp):
            self._emit_exchange_schedule(op, env, b)
        elif isinstance(op, csl.UnblockCmdStreamOp):
            b.line("state.halted = True")
        elif isinstance(op, self.NOOP_OPS):
            pass  # results stay undefined, exactly like the interpreter
        else:
            raise KernelCodegenError(f"unsupported operation '{op.name}'")

    def _emit_if(self, op: scf.IfOp, env: dict[int, Any], b: SourceBuilder):
        condition = self._scalar(op.condition, env)
        b.line(f"if {condition}:")
        with b.indented():
            before = len(b)
            region = op.then_region
            if region.blocks and region.blocks[0].ops:
                self._emit_block(region.blocks[0], env, b)
            if len(b) == before:
                b.line("pass")
        region = op.else_region
        if region.blocks and region.blocks[0].ops:
            b.line("else:")
            with b.indented():
                before = len(b)
                self._emit_block(region.blocks[0], env, b)
                if len(b) == before:
                    b.line("pass")

    # -- DSD values ------------------------------------------------------ #

    def _dsd_of_get(self, op: csl.GetMemDsdOp, env: dict[int, Any]) -> _DsdExpr:
        planned = self.plan.static_dsd(op)
        if planned is not None:
            return _DsdExpr(
                planned.buffer, planned.offset, planned.length, planned.stride
            )
        buffer_attr = op.attributes.get("buffer")
        if isinstance(buffer_attr, StringAttr):
            buffer_name = buffer_attr.data
        elif op.operands:
            source = self._entry(op.operands[0], env)
            if not isinstance(source, _DsdExpr):
                raise KernelCodegenError("csl.get_mem_dsd operand is not a DSD")
            buffer_name = source.buffer
        else:
            raise KernelCodegenError(
                "csl.get_mem_dsd has neither buffer nor operand"
            )
        return _DsdExpr(buffer_name, op.offset, op.length, op.stride)

    def _dsd_of_increment(
        self, op: csl.IncrementDsdOffsetOp, env: dict[int, Any]
    ) -> _DsdExpr:
        planned = self.plan.static_dsd(op)
        if planned is not None:
            return _DsdExpr(
                planned.buffer, planned.offset, planned.length, planned.stride
            )
        base = self._entry(op.operands[0], env)
        if not isinstance(base, _DsdExpr):
            raise KernelCodegenError(
                "csl.increment_dsd_offset operand is not a DSD"
            )
        runtime = base.runtime
        if len(op.operands) > 1:
            extra = _atom(self._scalar(op.operands[1], env))
            term = f"int({extra})"
            runtime = term if runtime is None else f"{runtime} + {term}"
        return _DsdExpr(
            base.buffer,
            base.offset + op.offset,
            base.length,
            base.stride,
            runtime,
        )

    # -- DSD compute builtins -------------------------------------------- #

    def _hazard(self, dest: _DsdExpr, sources: list[Any]) -> bool:
        """True when a source view shares the destination buffer with a
        *different* layout — the interpreter's full-RHS-then-assign order
        is then load-bearing and the out=-form must not be used."""
        for source in sources:
            if not isinstance(source, _DsdExpr):
                continue
            if source.buffer != dest.buffer:
                continue
            if source.view_key != dest.view_key:
                return True
        return False

    def _emit_builtin(self, op, env: dict[int, Any], b: SourceBuilder) -> None:
        dest = self._entry(op.dest, env)
        if not isinstance(dest, _DsdExpr):
            raise KernelCodegenError(f"'{op.name}' destination is not a DSD")
        sources = [self._entry(source, env) for source in op.sources]
        hazard = self._hazard(dest, sources)
        if isinstance(op, csl.FmacsOp) and any(
            isinstance(s, _DsdExpr) and s.length != dest.length for s in sources
        ):
            hazard = True  # scratch shape follows dest; odd shapes fall back

        views = [
            self._operand_view(s, b) if isinstance(s, _DsdExpr) else _atom(s)
            for s in sources
        ]
        dest_view = self._operand_view(dest, b)

        if isinstance(op, csl.FmovsOp):
            (src,) = views
            if hazard or not isinstance(sources[0], _DsdExpr):
                b.line(f"{dest_view}[:] = {src}")
            else:
                b.line(f"np.copyto({dest_view}, {src})")
        elif isinstance(op, csl.FmacsOp):
            acc, src, coeff = views
            if hazard:
                b.line(f"{dest_view}[:] = {acc} + {src} * {coeff}")
            elif isinstance(sources[1], _DsdExpr):
                scratch = self._scratch_for(dest.length)
                b.line(f"np.multiply({src}, {coeff}, out={scratch})")
                b.line(f"np.add({acc}, {scratch}, out={dest_view})")
            else:
                b.line(f"np.add({acc}, {src} * {coeff}, out={dest_view})")
        else:
            ufunc, operator = {
                csl.FaddsOp: ("np.add", "+"),
                csl.FsubsOp: ("np.subtract", "-"),
                csl.FmulsOp: ("np.multiply", "*"),
            }[type(op)]
            a, c = views
            if hazard:
                b.line(f"{dest_view}[:] = {a} {operator} {c}")
            else:
                b.line(f"{ufunc}({a}, {c}, out={dest_view})")
        b.line("counters['dsd_ops'] += 1")
        b.line(f"counters['dsd_elements'] += {dest.length}")

    # -- the comms exchange ---------------------------------------------- #

    def _emit_exchange_schedule(
        self, op: csl.CommsExchangeOp, env: dict[int, Any], b: SourceBuilder
    ) -> None:
        source = self._entry(op.buffer, env)
        if not isinstance(source, _DsdExpr):
            raise KernelCodegenError(
                "csl.comms_exchange buffer operand is not a DSD"
            )
        planned = self.plan.exchange_plan(op)
        if planned is None:
            attributes = op.attributes
            planned = ExchangePlan(
                source_buffer=source.buffer,
                source_offset=attributes["src_offset"].value,
                source_length=attributes["src_len"].value,
                chunk_size=attributes["chunk_size"].value,
                num_chunks=op.num_chunks,
                directions=tuple((d[0], d[1]) for d in op.directions),
                coefficients=(
                    tuple(op.coefficients)
                    if op.coefficients is not None
                    else None
                ),
                receive_buffer=attributes["recv_buffer"].string_value,
                receive_callback=op.recv_callback,
                done_callback=op.done_callback,
            )
        for callback in (planned.receive_callback, planned.done_callback):
            if callback and callback not in self.image.callables:
                raise KernelCodegenError(
                    f"exchange callback '{callback}' is not a callable"
                )
        if planned.receive_buffer not in self.plan.buffers:
            raise KernelCodegenError(
                f"exchange receive buffer '{planned.receive_buffer}' is "
                f"not a program buffer"
            )
        eid = len(self._exchanges)
        # The runtime DSD operand's buffer stays authoritative, exactly as
        # in the interpreter's planned path.
        self._exchanges.append((eid, planned, source.buffer))
        b.line("counters['exchanges'] += 1")
        b.line(f"pending[0] = {eid}")

    # -- write-set analysis ---------------------------------------------- #

    def _written_buffers(self, name: str) -> set[str] | None:
        """Buffers the direct-call closure of a callable may write.

        Follows ``csl.call`` into callees and both ``scf.if`` regions;
        ``csl.activate`` targets are deferred to the task queue — which only
        drains after the enclosing delivery completed — so they are not part
        of the closure.  Returns ``None`` when a DSD destination cannot be
        resolved to a buffer statically (conservative: treat as writing
        everything).  Memoised per callable.
        """
        if name in self._write_sets:
            return self._write_sets[name]
        self._write_sets[name] = None  # cycle guard: recursion -> unknown
        callable_op = self.image.callables.get(name)
        if callable_op is None:
            self._write_sets[name] = None
            return None
        written: set[str] = set()
        env: dict[int, str | None] = {}
        unknown = False
        for block in _callable_blocks(callable_op):
            for op in block.ops:
                if isinstance(op, csl.GetMemDsdOp):
                    env[id(op.results[0])] = self._trace_get_buffer(op, env)
                elif isinstance(op, csl.IncrementDsdOffsetOp):
                    planned = self.plan.static_dsd(op)
                    if planned is not None:
                        env[id(op.results[0])] = planned.buffer
                    else:
                        env[id(op.results[0])] = env.get(id(op.operands[0]))
                elif isinstance(op, csl.DSD_BUILTIN_OPS):
                    buffer = env.get(id(op.dest))
                    if buffer is None:
                        unknown = True
                    else:
                        written.add(buffer)
                elif isinstance(op, csl.CallOp):
                    callee_writes = self._written_buffers(op.callee)
                    if callee_writes is None:
                        unknown = True
                    else:
                        written |= callee_writes
        result = None if unknown else written
        self._write_sets[name] = result
        return result

    def _trace_get_buffer(
        self, op: csl.GetMemDsdOp, env: dict[int, str | None]
    ) -> str | None:
        planned = self.plan.static_dsd(op)
        if planned is not None:
            return planned.buffer
        buffer_attr = op.attributes.get("buffer")
        if isinstance(buffer_attr, StringAttr):
            return buffer_attr.data
        if op.operands:
            return env.get(id(op.operands[0]))
        return None

    def _direct_staging_safe(
        self, exchange: ExchangePlan, source_buffer: str
    ) -> bool:
        """May this exchange stage each chunk straight into the receive slab?

        The interpreter stages *every* chunk before any receive callback
        runs; interleaving stage and callback is byte-equivalent exactly
        when the callback's direct-call closure writes neither the source
        (later chunks would re-read modified data) nor the receive buffer
        (its slab state between chunks is observable).
        """
        if exchange.receive_buffer == source_buffer:
            return False
        if not exchange.receive_callback:
            return True
        writes = self._written_buffers(exchange.receive_callback)
        if writes is None:
            return False
        return (
            source_buffer not in writes
            and exchange.receive_buffer not in writes
        )

    def _recv_preserved(self, receive_buffer: str) -> bool:
        """True when no callable of the program writes the receive buffer —
        the constant-fill borders written by one delivery then survive until
        the next, so the fill only needs writing once per kernel binding."""
        for name in self.image.callables:
            writes = self._written_buffers(name)
            if writes is None or receive_buffer in writes:
                return False
        return True

    @staticmethod
    def _axis_runs(
        axis: tuple[int, ...]
    ) -> list[tuple[int, int, int]]:
        """Maximal ``(dest_lo, dest_hi, src_lo)`` runs of a gather axis in
        which the source index steps with the destination — each run is one
        basic-slice copy."""
        runs: list[tuple[int, int, int]] = []
        start = 0
        for i in range(1, len(axis) + 1):
            if i == len(axis) or axis[i] != axis[i - 1] + 1:
                runs.append((start, i, axis[start]))
                start = i
        return runs

    # -- delivery emission ------------------------------------------------ #

    def _emit_deliver_fn(
        self,
        eid: int,
        exchange: ExchangePlan,
        source_buffer: str,
        b: SourceBuilder,
    ) -> None:
        """One delivery: stage each chunk straight into the receive slab,
        then run the receive callback on it.

        Legal because :meth:`_direct_staging_safe` proved the receive
        callback writes neither the source buffer (later chunks re-read the
        same data the up-front staging would have) nor the receive buffer
        (the slab content each callback observes equals the interpreter's
        staged copy).  Constant-fill borders are re-established at the top
        of the delivery — or once per kernel binding when no task of the
        program ever writes the receive buffer.
        """
        depth = exchange.chunk_size * len(exchange.directions)
        source = self._buffer(source_buffer)
        receive_view = (
            self._static_view(_DsdExpr(exchange.receive_buffer, 0, depth, 1))
            if depth
            else None
        )
        fill_slots = [
            (slot, direction)
            for slot, direction in enumerate(exchange.directions)
            if self.plan.gather_indices(direction) is None
        ]
        once = bool(fill_slots) and self._recv_preserved(
            exchange.receive_buffer
        )
        if once:
            self._fill_flags.add(eid)

        def emit_fills(bb: SourceBuilder) -> None:
            for slot, direction in fill_slots:
                fill = self.plan.halo_table(direction).fill_value
                z0 = slot * exchange.chunk_size
                z1 = z0 + exchange.chunk_size
                value = f"np.float32({fill!r})"
                if exchange.coefficients is not None:
                    value = f"{value} * c{eid}_{slot}"
                bb.line(f"{receive_view}[:, :, {z0}:{z1}] = {value}")

        b.line(f"def deliver_{eid}():")
        with b.indented():
            body_start = len(b)
            total = exchange.num_chunks * exchange.chunk_size * len(
                exchange.directions
            )
            if total:
                b.line(f"counters['wavelets_sent'] += {total}")
            if fill_slots and receive_view is not None:
                if once:
                    b.line(f"if fl{eid}[0]:")
                    with b.indented():
                        b.line(f"fl{eid}[0] = False")
                        emit_fills(b)
                else:
                    emit_fills(b)
            for chunk in range(exchange.num_chunks):
                start = exchange.source_offset + chunk * exchange.chunk_size
                stop = start + exchange.chunk_size
                for slot, direction in enumerate(exchange.directions):
                    self._emit_direct_stage(
                        eid, exchange, slot, direction,
                        source, start, stop, receive_view, b,
                    )
                if exchange.receive_callback:
                    argument = chunk * exchange.chunk_size
                    b.line(f"{self._fn(exchange.receive_callback)}({argument})")
            if exchange.done_callback:
                b.line(
                    f"queue.append(({self._fn(exchange.done_callback)}, 0))"
                )
            if len(b) == body_start:
                b.line("pass")

    def _emit_direct_stage(
        self,
        eid: int,
        exchange: ExchangePlan,
        slot: int,
        direction: tuple[int, int],
        source: str,
        start: int,
        stop: int,
        receive_view: str | None,
        b: SourceBuilder,
    ) -> None:
        """One direction-slot of one chunk, written into the receive slab.

        Gathers whose fold tables decompose into a few contiguous runs per
        axis (interior shifts, periodic/reflect wraps) become basic-slice
        copies — no fancy-index temporary; ragged tables keep the one-shot
        fancy gather.  Constant-fill directions copy only the shifted run
        over the borders established by the delivery prologue.
        """
        if receive_view is None:
            return
        z0 = slot * exchange.chunk_size
        z1 = z0 + exchange.chunk_size
        coefficient = (
            f"c{eid}_{slot}" if exchange.coefficients is not None else None
        )
        table = self.plan.halo_table(direction)

        def copy(dest: str, src: str) -> None:
            if coefficient is None:
                b.line(f"np.copyto({dest}, {src})")
            else:
                b.line(f"np.multiply({src}, {coefficient}, out={dest})")

        if self.plan.gather_indices(direction) is None:
            dx, dy = direction
            y0, y1, x0, x1 = table.interior_box()
            if y0 >= y1 or x0 >= x1:
                return
            copy(
                f"{receive_view}[{y0}:{y1}, {x0}:{x1}, {z0}:{z1}]",
                f"{source}[{y0 + dy}:{y1 + dy}, {x0 + dx}:{x1 + dx}, "
                f"{start}:{stop}]",
            )
            return
        row_runs = self._axis_runs(table.rows)
        col_runs = self._axis_runs(table.cols)
        if len(row_runs) * len(col_runs) <= 4:
            for ry0, ry1, sy in row_runs:
                for cx0, cx1, sx in col_runs:
                    copy(
                        f"{receive_view}[{ry0}:{ry1}, {cx0}:{cx1}, "
                        f"{z0}:{z1}]",
                        f"{source}[{sy}:{sy + ry1 - ry0}, "
                        f"{sx}:{sx + cx1 - cx0}, {start}:{stop}]",
                    )
            return
        rows, cols = self._gather(direction)
        dest = f"{receive_view}[:, :, {z0}:{z1}]"
        gathered = f"{source}[{rows}, {cols}, {start}:{stop}]"
        if coefficient is None:
            b.line(f"{dest} = {gathered}")
        else:
            b.line(f"np.multiply({gathered}, {coefficient}, out={dest})")

    # -- assembly --------------------------------------------------------- #

    def emit(self, fingerprint: str | None = None) -> str:
        self._assign_names()

        callables = SourceBuilder(indent=1)
        for name in sorted(self.image.callables):
            self._emit_callable(name, callables)

        delivery = SourceBuilder(indent=1)
        for eid, exchange, source_buffer in self._exchanges:
            if not self._direct_staging_safe(exchange, source_buffer):
                raise KernelCodegenError(
                    f"exchange {eid} (source '{source_buffer}', receive "
                    f"buffer '{exchange.receive_buffer}', receive callback "
                    f"'{exchange.receive_callback}') cannot stage straight "
                    f"into its receive buffer: the two buffers are one, or "
                    f"the callback may write either"
                )
            self._emit_deliver_fn(eid, exchange, source_buffer, delivery)

        out = SourceBuilder()
        boundary = self.plan.boundary
        out.line(
            f"# kernel generated by repro.wse.codegen "
            f"(codegen v{CODEGEN_VERSION}) -- do not edit"
        )
        out.line(
            f"# entry {self.plan.entry!r}; grid "
            f"{self.plan.width}x{self.plan.height}; "
            f"boundary {boundary.kind}({boundary.value!r})"
        )
        if fingerprint:
            out.line(f"# fingerprint {fingerprint}")
        out.line(f"def make_kernel({self.MAKE_PARAMS}):")
        with out.indented():
            out.line("counters = state.counters")
            out.line("variables = state.variables")
            out.line("queue = deque()")
            out.line("pending = [-1]")
            for buffer in sorted(self.plan.buffers):
                out.line(f"{self._buffer_names[buffer]} = state.buffers[{buffer!r}]")
            # Static whole-grid DSD views, bound (and range-checked) once.
            for key, name in self._views.items():
                buffer, offset, length, stride = key
                dsd = _DsdExpr(buffer, offset, length, stride)
                out.line(
                    f"{name} = {self._buffer(buffer)}[:, :, {self._slice(dsd)}]"
                )
                out.line(
                    f"if {name}.shape[2] != {length}: "
                    f"raise IndexError(\"DSD over '{buffer}' out of range\")"
                )
            # Plan fold tables for the gatherable directions.
            for direction, (rows, cols) in self._gathers.items():
                out.line(
                    f"{rows}, {cols} = plan.gather_indices(({direction[0]}, "
                    f"{direction[1]}))"
                )
            # Per-exchange constants and once-flags.
            grid = f"{self.plan.height}, {self.plan.width}"
            for eid, exchange, _ in self._exchanges:
                if exchange.coefficients is not None:
                    for slot, coefficient in enumerate(exchange.coefficients):
                        out.line(
                            f"c{eid}_{slot} = np.float32({coefficient!r})"
                        )
                if eid in self._fill_flags:
                    out.line(f"fl{eid} = [True]")
            for length in sorted(self._scratch):
                out.line(
                    f"{self._scratch[length]} = np.empty(({grid}, {length}), "
                    f"dtype=np.float32)"
                )
            self._emit_bindings(out)
            out.extend(callables)
            out.extend(delivery)
            # The round loop: drain the task queue, stop once settled,
            # otherwise deliver the pending exchange -- the interpreter's
            # schedule, with ``budget`` bounding the rounds delivered.
            out.line("def run_block(budget):")
            with out.indented():
                out.line("executed = 0")
                out.line("while executed < budget:")
                with out.indented():
                    out.line("while queue and not state.halted:")
                    with out.indented():
                        out.line("fn, a = queue.popleft()")
                        out.line("fn(a)")
                    out.line(
                        "if state.halted or (not queue and pending[0] < 0):"
                    )
                    with out.indented():
                        out.line("return executed, 'settled'")
                    out.line("eid = pending[0]")
                    out.line("if eid < 0:")
                    with out.indented():
                        out.line("return executed, 'deadlock'")
                    out.line("pending[0] = -1")
                    for eid, _, _ in self._exchanges:
                        keyword = "if" if eid == 0 else "elif"
                        out.line(f"{keyword} eid == {eid}:")
                        with out.indented():
                            out.line(f"deliver_{eid}()")
                    out.line("executed += 1")
                out.line("return executed, 'budget'")
            fns = ", ".join(
                f"{name!r}: {self._fn_names[name]}"
                for name in sorted(self.image.callables)
            )
            out.line(f"return {{'fns': {{{fns}}}, 'run_block': run_block}}")
        self._emit_trailer(out)
        return out.text()

    def _emit_bindings(self, out: SourceBuilder) -> None:
        """Extra bind-time lines after the allocations (native tier)."""

    def _emit_trailer(self, out: SourceBuilder) -> None:
        """Extra module-level lines after ``make_kernel`` (native tier)."""


def generate_kernel_source(
    image: "ProgramImage",
    plan: ExecutionPlan,
    fingerprint: str | None = None,
) -> str:
    """Emit the kernel of one (image, plan) as Python source.

    The emission is deterministic: the same image and plan produce
    byte-identical source (names are assigned in sorted/traversal order and
    no environmental state leaks in), which the golden dump test pins.
    """
    return _KernelEmitter(image, plan).emit(fingerprint)


# --------------------------------------------------------------------------- #
# The process-wide kernel cache
# --------------------------------------------------------------------------- #


@dataclass
class CompiledKernel:
    """One materialised kernel: fingerprint, source text and factory.

    ``c_source`` is the C of a native-tier glue kernel (see
    :mod:`repro.wse.native`), whose factory then also takes the loaded
    library; ``None`` for NumPy kernels.
    """

    fingerprint: str
    source: str
    make: Callable
    c_source: str | None = None

    def instantiate(self, state, plan: ExecutionPlan, library=None) -> dict:
        """Bind the kernel to one executor's live state and plan tables."""
        if self.c_source is not None:
            return self.make(state, plan, library)
        return self.make(state, plan)


@dataclass
class KernelCacheStatistics:
    """Counters of the process-wide kernel memo (plus store round-trips)."""

    #: served straight from the in-process memo (no codegen, no exec).
    memory_hits: int = 0
    #: source served by a kernel store and exec'd (no codegen).
    disk_hits: int = 0
    #: full code generations.
    codegens: int = 0
    #: native-tier shared libraries compiled (builds started).
    native_builds: int = 0
    #: native libraries already loaded in this process.
    library_memory_hits: int = 0
    #: native libraries loaded from a kernel store (no compiler run).
    library_store_hits: int = 0

    @property
    def hits(self) -> int:
        return self.memory_hits + self.disk_hits

    @property
    def lookups(self) -> int:
        return self.hits + self.codegens

    @property
    def library_hits(self) -> int:
        return self.library_memory_hits + self.library_store_hits


_MEMO: dict[str, CompiledKernel] = {}
_STATISTICS = KernelCacheStatistics()


def kernel_cache_statistics() -> KernelCacheStatistics:
    """The live process-wide kernel cache counters."""
    return _STATISTICS


def reset_kernel_cache() -> None:
    """Empty the memo (native libraries included) and zero the counters
    (tests and benchmarks)."""
    global _STATISTICS
    from repro.wse.native import reset_libraries

    _MEMO.clear()
    reset_libraries()
    _STATISTICS = KernelCacheStatistics()


def _materialise(fingerprint: str, source: str) -> CompiledKernel:
    namespace: dict[str, Any] = {"np": np, "deque": deque}
    code = compile(source, f"<kernel {fingerprint[:12]}>", "exec")
    exec(code, namespace)
    c_source = namespace.get("C_SOURCE")
    if c_source is not None:
        from repro.wse.native import PointerTable, native_function

        namespace["native_pointers"] = PointerTable
        namespace["native_function"] = native_function
    return CompiledKernel(
        fingerprint,
        source,
        namespace["make_kernel"],
        c_source,
    )


def _dump(kernel: CompiledKernel) -> None:
    directory = os.environ.get(DUMP_ENV_VAR, "").strip()
    if not directory:
        return
    os.makedirs(directory, exist_ok=True)
    stem = os.path.join(directory, f"kernel_{kernel.fingerprint[:12]}")
    with open(stem + ".py", "w", encoding="utf-8") as handle:
        handle.write(kernel.source)
    if kernel.c_source is not None:
        with open(stem + ".c", "w", encoding="utf-8") as handle:
            handle.write(kernel.c_source)


def get_kernel(
    image: "ProgramImage",
    plan: ExecutionPlan,
    store=None,
    native: bool = False,
) -> CompiledKernel:
    """The compiled kernel of one (image, plan), cached by fingerprint.

    Lookup order: the in-process memo, then ``store`` (any object with
    ``get(fingerprint) -> str | None`` and ``put(fingerprint, source)`` —
    see :class:`repro.service.kernels.KernelSourceStore`), then a fresh
    code generation (which populates the store).  Raises
    :class:`KernelCodegenError` when the program cannot be fused; nothing
    is cached in that case.  ``native=True`` asks for the native tier's
    glue kernel, whose ``c_source`` the caller builds.
    """
    fingerprint = kernel_fingerprint(image, plan, native)
    kernel = _MEMO.get(fingerprint)
    if kernel is not None:
        _STATISTICS.memory_hits += 1
        return kernel
    source = store.get(fingerprint) if store is not None else None
    if source is not None:
        _STATISTICS.disk_hits += 1
    else:
        if native:
            from repro.wse.native import generate_native_source

            source = generate_native_source(image, plan, fingerprint)
        else:
            source = generate_kernel_source(image, plan, fingerprint)
        _STATISTICS.codegens += 1
        if store is not None:
            store.put(fingerprint, source)
    kernel = _materialise(fingerprint, source)
    _dump(kernel)
    _MEMO[fingerprint] = kernel
    return kernel
