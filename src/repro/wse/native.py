"""The native tier of the ``compiled`` executor: C from the same plan.

The NumPy kernel of :mod:`repro.wse.codegen` executes every DSD builtin as
one whole-grid array operation, so each op streams every PE's column
through memory: on paper-size fabrics the rounds are bound by memory
traffic, not by Python.  On the fabric itself each PE runs its task over
its own ~20 KB of local memory.  This module moves the DSD work back into
that shape.  It emits a *glue* kernel — the same Python task queue,
variables, counters and settle/deadlock/budget schedule as the NumPy
kernel — in which two kinds of units call into C instead:

* **straight-line DSD runs**: maximal runs of consecutive DSD builtins
  inside one callable become one C function;
* **exchange deliveries**: the staging of every chunk straight into the
  receive buffer plus the receive callback's DSD run (when the callback is
  nothing but DSD work) become one C function.

Each C function loops **PE-major** — PE outside, op inside — so one PE's
working set stays in cache across the whole unit.  The order is legal
because a DSD builtin only touches its own PE's memory, and a delivery
stages PE by PE because
:meth:`~repro.wse.codegen._KernelEmitter._direct_staging_safe` proved the
receive callback writes neither the source nor the receive buffer (the
emitter refuses the kernel otherwise).

Results are bit-identical to the NumPy kernel:

* float32 constants are emitted as the hex-float of ``np.float32(c)``;
* scalar (non-DSD) subexpressions are evaluated by Python in double and
  cast to float at use, exactly as NumPy's weak-scalar rule does;
* ops whose destination overlaps a source with a different layout (the
  NumPy kernel's ``dest[:] = expr`` hazard path) evaluate the right-hand
  side into a PE-local temporary before the store;
* the build uses ``-ffp-contract=off`` (no fused multiply-add) and neither
  ``-ffast-math`` nor ``-march=native``.

Anything the C emitter cannot prove in range or cannot express stays a
NumPy statement in the glue, and a unit whose runtime DSD offsets fail the
C range check replays its NumPy statements instead (so even errors match).

The shared library is built with the system C compiler (``gcc``, else
``cc``) in a background thread as soon as the kernel binds, and waited for
at the first launch.  Libraries are cached in-process and, through
:class:`~repro.service.kernels.KernelSourceStore`, on disk next to the
kernel sources, keyed by the C source, the compiler identity, the flags
and the host ISA.  Without a compiler, or when the build fails, the
executor runs the NumPy kernel and records why.
"""

from __future__ import annotations

import ast
import ctypes
import functools
import hashlib
import json
import math
import operator
import os
import platform
import shutil
import subprocess
import tempfile
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

import numpy as np

from repro.dialects import arith, csl, scf
from repro.wse.codegen import (
    KernelCodegenError,
    SourceBuilder,
    _atom,
    _DsdExpr,
    _KernelEmitter,
    kernel_cache_statistics,
)
from repro.wse.plan import ExchangePlan

#: bump when the emitted glue or C semantics change; folded into the
#: fingerprint of native kernels.
NATIVE_VERSION = 1

#: compilers looked up on ``PATH``, in order.
COMPILERS = ("gcc", "cc")

#: the one set of build flags: optimised, but no fused multiply-add and no
#: value-changing math, so float32 results match NumPy bit for bit.
COMPILE_FLAGS = ("-O3", "-ffp-contract=off", "-shared", "-fPIC")

#: wall-clock bound on one library build.
BUILD_TIMEOUT_S = 120

NO_COMPILER_REASON = (
    f"no C compiler found on PATH (looked for {', '.join(COMPILERS)})"
)


# --------------------------------------------------------------------------- #
# C emission
# --------------------------------------------------------------------------- #


def _float_literal(value) -> str | None:
    """The C literal of ``np.float32(value)``, or None when not finite."""
    try:
        single = float(np.float32(value))
    except (TypeError, ValueError, OverflowError):
        return None
    if not math.isfinite(single):
        return None
    return f"({single.hex()}f)"


def _literal_value(expression: str):
    """The value of a scalar expression that is a plain literal, else None."""
    try:
        value = ast.literal_eval(expression)
    except (ValueError, SyntaxError, TypeError):
        return None
    if isinstance(value, (bool, int, float)):
        return value
    return None


def _for_k(length: int) -> str:
    """The header of one per-PE element loop.  Unrolling is off: gcc would
    otherwise fully unroll every short constant-trip loop, tripling build
    time on small fabrics for no run-time gain (vectorisation is kept)."""
    return f'_Pragma("GCC unroll 1") for (long k = 0; k < {length}; ++k)'


_PY_OPS = {"+": operator.add, "-": operator.sub, "*": operator.mul}


@dataclass
class _Scalar:
    """A scalar operand: a Python expression and its value when literal."""

    expr: str
    value: Any = None


@dataclass(frozen=True)
class _ChunkDsd(_DsdExpr):
    """A receive-callback DSD inside a delivery's chunk loop: its offset
    moves by ``step`` per chunk (C index ``c``)."""

    step: int = 0


@dataclass
class _COp:
    """One DSD builtin ready for C: destination, sources, hazard flag."""

    op: Any
    dest: _DsdExpr
    sources: list
    hazard: bool


@dataclass
class _Unit:
    """C-side naming state of one emitted function."""

    #: buffer-table slot -> z size of the buffers the function touches.
    slots: dict[int, int] = field(default_factory=dict)
    #: Python expression -> index of runtime DSD offsets (``long`` args).
    offsets: dict[str, int] = field(default_factory=dict)
    #: Python expression -> index of runtime scalars (``double`` args).
    scalars: dict[str, int] = field(default_factory=dict)


class NativeKernelEmitter(_KernelEmitter):
    """Emit the glue kernel and the C source of its native units."""

    MAKE_PARAMS = "state, plan, lib"

    #: ops a pending DSD run may be carried across: they only compute
    #: values, never touch buffers, so the run's C call can follow them.
    PURE_OPS = (
        csl.ConstantOp,
        arith.ConstantOp,
        csl.LoadVarOp,
        arith.CmpiOp,
        csl.GetMemDsdOp,
        csl.IncrementDsdOffsetOp,
        *_KernelEmitter.BINARY_OPS,
        *_KernelEmitter.NOOP_OPS,
    )

    def __init__(self, image, plan):
        super().__init__(image, plan)
        #: glue name -> z size of the arrays in the pointer table, by slot.
        self._table: dict[str, int] = {}
        self._functions: list[str] = []
        #: (C name, argument kinds) per function, in emission order.
        self._signatures: list[tuple[str, str]] = []
        #: direction -> C row/column table names.
        self._fold_tables: dict[tuple[int, int], tuple[str, str]] = {}

    # -- helpers --------------------------------------------------------- #

    @property
    def _pes(self) -> int:
        return self.plan.width * self.plan.height

    def _slot(self, glue_name: str, size: int) -> int:
        self._table.setdefault(glue_name, size)
        return list(self._table).index(glue_name)

    def _in_range(self, dsd: _DsdExpr) -> bool:
        """True when a static DSD lies inside its buffer on every PE."""
        size = self.plan.buffers.get(dsd.buffer)
        if size is None or dsd.stride < 1:
            return False
        if dsd.length == 0:
            return True
        last = dsd.offset + (dsd.length - 1) * dsd.stride
        return dsd.offset >= 0 and last < size

    def _lowerable(self, op, env) -> _COp | None:
        """The op as a C-ready record, or None when it must stay NumPy."""
        dest = self._entry(op.dest, env)
        if not isinstance(dest, _DsdExpr):
            return None
        sources = [self._entry(source, env) for source in op.sources]
        for operand in [dest, *sources]:
            if not isinstance(operand, _DsdExpr):
                continue
            if operand.length != dest.length:
                return None  # NumPy would broadcast or raise; keep its path
            if operand.runtime is None:
                if not self._in_range(operand):
                    return None
            elif operand.buffer not in self.plan.buffers or operand.stride < 1:
                return None
        return _COp(op, dest, sources, self._hazard(dest, sources))

    # -- C expressions ---------------------------------------------------- #

    def _c_scalar(self, node: _Scalar, unit: _Unit) -> str:
        if node.value is not None:
            literal = _float_literal(node.value)
            if literal is not None:
                return literal
        index = unit.scalars.setdefault(node.expr, len(unit.scalars))
        return f"k{index}"

    def _c_access(self, dsd: _DsdExpr, unit: _Unit) -> str:
        size = self.plan.buffers[dsd.buffer]
        slot = self._slot(self._buffer(dsd.buffer), size)
        unit.slots[slot] = size
        if isinstance(dsd, _ChunkDsd) and dsd.step:
            base = f"{dsd.offset} + c * {dsd.step}L"
        elif dsd.runtime is None:
            base = str(dsd.offset)
        else:
            expression = f"{dsd.offset} + {dsd.runtime}"
            index = unit.offsets.setdefault(expression, len(unit.offsets))
            base = f"o{index}"
        step = "k" if dsd.stride == 1 else f"k * {dsd.stride}"
        return f"P{slot}[{base} + {step}]"

    def _combine(self, symbol: str, lhs, rhs, unit: _Unit):
        """One binary node: Python-side when both operands are scalars
        (evaluated in double like the NumPy kernel's Python arithmetic),
        float32 C otherwise."""
        if isinstance(lhs, _Scalar) and isinstance(rhs, _Scalar):
            value = None
            if lhs.value is not None and rhs.value is not None:
                value = _PY_OPS[symbol](lhs.value, rhs.value)
            return _Scalar(f"{_atom(lhs.expr)} {symbol} {_atom(rhs.expr)}",
                           value)
        left = self._c_node(lhs, unit)
        right = self._c_node(rhs, unit)
        return f"({left} {symbol} {right})"

    def _c_node(self, node, unit: _Unit) -> str:
        if isinstance(node, _Scalar):
            return self._c_scalar(node, unit)
        return node

    def _c_assignment(self, record: _COp, unit: _Unit) -> tuple[str, str]:
        """(destination element, value expression) of one DSD builtin."""
        operands = [
            self._c_access(s, unit) if isinstance(s, _DsdExpr)
            else _Scalar(s, _literal_value(s))
            for s in record.sources
        ]
        op = record.op
        if isinstance(op, csl.FmovsOp):
            (node,) = operands
        elif isinstance(op, csl.FmacsOp):
            acc, src, coeff = operands
            node = self._combine(
                "+", acc, self._combine("*", src, coeff, unit), unit
            )
        else:
            symbol = {csl.FaddsOp: "+", csl.FsubsOp: "-",
                      csl.FmulsOp: "*"}[type(op)]
            node = self._combine(symbol, *operands, unit)
        value = self._c_node(node, unit)
        return self._c_access(record.dest, unit), value

    @staticmethod
    def _fusable(records: list[_COp]) -> bool:
        """May these ops share one element loop?  Only when every buffer
        any of them writes is accessed through one and the same view: each
        element then sees exactly the op sequence the separate loops give."""
        if len({record.dest.length for record in records}) != 1:
            return False
        written = {record.dest.buffer for record in records}
        views: dict[str, set] = {}
        for record in records:
            for operand in [record.dest, *record.sources]:
                if isinstance(operand, _DsdExpr) and operand.buffer in written:
                    views.setdefault(operand.buffer, set()).add(
                        (operand.view_key, getattr(operand, "step", 0))
                    )
        return all(len(keys) == 1 for keys in views.values())

    def _c_run(self, records: list[_COp], unit: _Unit) -> list[str]:
        """The per-PE C loops of a DSD run: consecutive ops fuse into one
        element loop where :meth:`_fusable` allows; a hazard op evaluates
        its right-hand side into a PE-local temporary before the store."""
        statements: list[str] = []
        group: list[_COp] = []

        def flush() -> None:
            if group:
                body = " ".join(
                    f"{dest} = {value};"
                    for dest, value in (
                        self._c_assignment(record, unit) for record in group
                    )
                )
                length = group[0].dest.length
                statements.append(f"{_for_k(length)} {{ {body} }}")
                group.clear()

        for record in records:
            if record.hazard:
                flush()
                dest, value = self._c_assignment(record, unit)
                length = record.dest.length
                statements.append(
                    f"{{ float tmp[{max(1, length)}]; "
                    f"{_for_k(length)} tmp[k] = {value}; "
                    f"{_for_k(length)} {dest} = tmp[k]; }}"
                )
                continue
            if group and not self._fusable(group + [record]):
                flush()
            group.append(record)
        flush()
        return statements

    @staticmethod
    def _pe_bases(unit: _Unit, indent: str) -> list[str]:
        # Distinct buffers are distinct arrays: their PE slices never
        # overlap, so each may be declared restrict.
        return [
            f"{indent}float *restrict const P{slot} = B{slot} + p * {size}L;"
            for slot, size in sorted(unit.slots.items())
        ]

    @staticmethod
    def _table_bases(unit: _Unit) -> list[str]:
        return [
            f"    float *const B{slot} = (float *)B[{slot}];"
            for slot in sorted(unit.slots)
        ]

    # -- straight-line DSD runs ------------------------------------------ #

    def _emit_block(self, block, env: dict[int, Any], b: SourceBuilder) -> None:
        pending: list[_COp] = []
        for op in block.ops:
            if isinstance(op, (csl.ReturnOp, scf.YieldOp)):
                break
            if isinstance(op, csl.DSD_BUILTIN_OPS):
                record = self._lowerable(op, env)
                if record is not None:
                    pending.append(record)
                    continue
            if not isinstance(op, self.PURE_OPS):
                self._flush(pending, env, b)
                pending = []
            self._emit_op(op, env, b)
        self._flush(pending, env, b)

    def _flush(self, pending: list[_COp], env, b: SourceBuilder) -> None:
        """Emit one C function for a DSD run, and its glue call."""
        if not pending:
            return
        name = f"u{len(self._functions)}"
        unit = _Unit()
        statements = self._c_run(pending, unit)
        params = ["void *const *B"]
        params += [f"long r{i}" for i in range(len(unit.offsets))]
        params += [f"double s{i}" for i in range(len(unit.scalars))]
        lines = [f"int {name}({', '.join(params)}) {{"]
        for index in unit.offsets.values():
            lines.append(f"    const long o{index} = r{index};")
        checks: dict[str, None] = {}
        for record in pending:
            for operand in [record.dest, *record.sources]:
                if not isinstance(operand, _DsdExpr) or operand.runtime is None:
                    continue
                if operand.length == 0:
                    continue
                index = unit.offsets[f"{operand.offset} + {operand.runtime}"]
                last = (operand.length - 1) * operand.stride
                size = self.plan.buffers[operand.buffer]
                checks[
                    f"    if (o{index} < 0 || o{index} + {last} >= {size})"
                    f" return 1;"
                ] = None
        lines += checks
        for index in range(len(unit.scalars)):
            lines.append(f"    const float k{index} = (float)s{index};")
        lines += self._table_bases(unit)
        lines.append(f"    for (long p = 0; p < {self._pes}L; ++p) {{")
        lines += self._pe_bases(unit, "        ")
        lines += [f"        {statement}" for statement in statements]
        lines += ["    }", "    return 0;", "}"]
        self._functions.append("\n".join(lines))
        kinds = "l" * len(unit.offsets) + "d" * len(unit.scalars)
        self._signatures.append((name, kinds))

        args = ["tbl", *unit.offsets, *unit.scalars]
        call = f"nk_{name}({', '.join(args)})"
        ops = len(pending)
        elements = sum(record.dest.length for record in pending)
        if unit.offsets:
            # Runtime offsets outside the C range check: replay the run in
            # NumPy, which raises (or wraps) exactly as the NumPy kernel.
            b.line(f"if {call}:")
            with b.indented():
                for record in pending:
                    super()._emit_builtin(record.op, env, b)
            b.line("else:")
            with b.indented():
                b.line(f"counters['dsd_ops'] += {ops}")
                b.line(f"counters['dsd_elements'] += {elements}")
            return
        b.line(call)
        b.line(f"counters['dsd_ops'] += {ops}")
        b.line(f"counters['dsd_elements'] += {elements}")

    # -- exchange deliveries --------------------------------------------- #

    def _callback_run(self, name: str, argument: int) -> list[_COp] | None:
        """The receive callback's DSD run for one concrete chunk argument,
        or None when the callback does anything but DSD work (scalar
        arithmetic on literals and the argument is folded here)."""
        callable_op = self.image.callables[name]
        block = callable_op.regions[0].blocks[0]
        env: dict[int, Any] = {}
        if block.args:
            env[id(block.args[0])] = repr(argument)
        run: list[_COp] = []
        try:
            for op in block.ops:
                if isinstance(op, (csl.ReturnOp, scf.YieldOp)):
                    break
                if isinstance(op, (csl.ConstantOp, arith.ConstantOp)):
                    env[id(op.results[0])] = repr(op.value)
                elif type(op) in self.BINARY_OPS:
                    lhs = _literal_value(self._scalar(op.lhs, env))
                    rhs = _literal_value(self._scalar(op.rhs, env))
                    symbol = self.BINARY_OPS[type(op)]
                    if lhs is None or rhs is None or symbol == "/":
                        return None
                    env[id(op.result)] = repr(_PY_OPS[symbol](lhs, rhs))
                elif isinstance(op, csl.GetMemDsdOp):
                    env[id(op.result)] = self._concrete(
                        self._dsd_of_get(op, env)
                    )
                elif isinstance(op, csl.IncrementDsdOffsetOp):
                    env[id(op.result)] = self._concrete(
                        self._dsd_of_increment(op, env)
                    )
                elif isinstance(op, csl.DSD_BUILTIN_OPS):
                    record = self._lowerable(op, env)
                    if record is None or any(
                        isinstance(s, str) and _literal_value(s) is None
                        for s in record.sources
                    ):
                        return None
                    run.append(record)
                elif not isinstance(op, self.NOOP_OPS):
                    return None
        except (KernelCodegenError, ValueError, TypeError, ArithmeticError):
            return None
        return run

    @staticmethod
    def _concrete(dsd: _DsdExpr) -> _DsdExpr:
        """Fold a runtime offset built from literals (``int(16) + ...``)."""
        if dsd.runtime is None:
            return dsd
        total = 0
        for term in dsd.runtime.split(" + "):
            if not (term.startswith("int(") and term.endswith(")")):
                raise ValueError(f"runtime offset term {term!r}")
            value = _literal_value(term[4:-1])
            if value is None:
                raise ValueError(f"runtime offset term {term!r}")
            total += int(value)
        return _DsdExpr(dsd.buffer, dsd.offset + total, dsd.length, dsd.stride)

    def _fold_table(self, direction: tuple[int, int]) -> tuple[str, str]:
        names = self._fold_tables.get(direction)
        if names is None:
            index = len(self._fold_tables)
            names = (f"TR{index}", f"TC{index}")
            self._fold_tables[direction] = names
        return names

    def _emit_deliver_fn(
        self,
        eid: int,
        exchange: ExchangePlan,
        source_buffer: str,
        b: SourceBuilder,
    ) -> None:
        lowered = self._delivery_function(eid, exchange, source_buffer)
        if lowered is None:
            super()._emit_deliver_fn(eid, exchange, source_buffer, b)
            return
        name, tasks, ops, elements = lowered
        total = exchange.num_chunks * exchange.chunk_size * len(
            exchange.directions
        )
        b.line(f"def deliver_{eid}():")
        with b.indented():
            b.line(f"counters['wavelets_sent'] += {total}")
            b.line(f"nk_{name}(tbl)")
            if tasks:
                b.line(f"counters['tasks_run'] += {tasks}")
            if ops:
                b.line(f"counters['dsd_ops'] += {ops}")
                b.line(f"counters['dsd_elements'] += {elements}")
            if exchange.done_callback:
                b.line(
                    f"queue.append(({self._fn(exchange.done_callback)}, 0))"
                )

    @staticmethod
    def _chunk_run(runs: list[list[_COp]]) -> list[_COp] | None:
        """Fold the per-chunk callback runs into one run over the C chunk
        index ``c``: every op must repeat chunk to chunk with each DSD
        offset moving by a fixed step; None otherwise."""
        first = runs[0]
        if any(len(run) != len(first) for run in runs):
            return None
        merged = []
        for index, record in enumerate(first):
            others = [run[index] for run in runs]
            if any(
                other.op is not record.op or other.hazard != record.hazard
                for other in others
            ):
                return None
            operands = []
            for position, operand in enumerate([record.dest, *record.sources]):
                column = [
                    ([other.dest, *other.sources])[position] for other in others
                ]
                if not isinstance(operand, _DsdExpr):
                    if any(value != operand for value in column):
                        return None
                    operands.append(operand)
                    continue
                step = column[1].offset - operand.offset if len(column) > 1 else 0
                for chunk, value in enumerate(column):
                    if (
                        value.buffer != operand.buffer
                        or value.length != operand.length
                        or value.stride != operand.stride
                        or value.offset != operand.offset + chunk * step
                    ):
                        return None
                operands.append(
                    _ChunkDsd(operand.buffer, operand.offset, operand.length,
                              operand.stride, step=step)
                )
            merged.append(_COp(record.op, operands[0], operands[1:],
                               record.hazard))
        return merged

    def _delivery_function(
        self,
        eid: int,
        exchange: ExchangePlan,
        source_buffer: str,
    ) -> tuple[str, int, int, int] | None:
        """Emit the C function of one delivery; None when it stays NumPy.

        Returns the function name and the receive-callback activity it
        performs per call (tasks, DSD ops, DSD elements) for the glue's
        counters."""
        cs = exchange.chunk_size
        slots = len(exchange.directions)
        depth = cs * slots
        chunks = exchange.num_chunks
        if depth == 0 or chunks == 0 or source_buffer not in self.plan.buffers:
            return None
        source_size = self.plan.buffers[source_buffer]
        receive_size = self.plan.buffers[exchange.receive_buffer]
        last_stop = exchange.source_offset + chunks * cs
        if exchange.source_offset < 0 or last_stop > source_size:
            return None
        if depth > receive_size:
            return None
        run: list[_COp] = []
        if exchange.receive_callback:
            runs = []
            for chunk in range(chunks):
                chunk_run = self._callback_run(
                    exchange.receive_callback, chunk * cs
                )
                if chunk_run is None:
                    return None
                runs.append(chunk_run)
            run = self._chunk_run(runs)
            if run is None:
                return None

        fills, scales = [], []
        for slot, direction in enumerate(exchange.directions):
            fill = np.float32(self.plan.halo_table(direction).fill_value)
            if exchange.coefficients is not None:
                coefficient = np.float32(exchange.coefficients[slot])
                scales.append(_float_literal(coefficient))
                fill = fill * coefficient
            fills.append(_float_literal(fill))
        if None in fills or None in scales:
            return None

        name = f"d{eid}"
        unit = _Unit()
        src = self._slot(self._buffer(source_buffer), source_size)
        recv = self._slot(
            self._buffer(exchange.receive_buffer), receive_size
        )
        unit.slots[src] = source_size
        unit.slots[recv] = receive_size
        callback = self._c_run(run, unit)
        assert not unit.offsets and not unit.scalars  # all folded literals
        tables = [self._fold_table(d) for d in exchange.directions]
        width = self.plan.width
        lines = [
            f"static const int *const {name}_R[{slots}] = "
            f"{{{', '.join(rows for rows, _ in tables)}}};",
            f"static const int *const {name}_C[{slots}] = "
            f"{{{', '.join(cols for _, cols in tables)}}};",
            f"static const float {name}_F[{slots}] = {{{', '.join(fills)}}};",
        ]
        if scales:
            lines.append(
                f"static const float {name}_K[{slots}] = "
                f"{{{', '.join(scales)}}};"
            )
        read = "r[k]" + (f" * {name}_K[s]" if scales else "")
        fill_branch = not all(
            self.plan.halo_table(d).gatherable for d in exchange.directions
        )

        def stage(base: str) -> list[str]:
            """Every direction slot of chunk ``c`` for the PE at ``(y, x)``."""
            body = [
                "        const long start = "
                f"{exchange.source_offset} + c * {cs}L;",
                f"        for (long s = 0; s < {slots}; ++s) {{",
                f"            const int sy = {name}_R[s][y], "
                f"sx = {name}_C[s][x];",
                f"            float *const q = {base} + s * {cs}L;",
            ]
            copy = (
                "const float *const r = S + ((long)sy * "
                f"{width}L + sx) * {source_size}L + start; "
                f"{_for_k(cs)} q[k] = {read};"
            )
            if fill_branch:
                body.append(
                    f"            if (sy < 0 || sx < 0) {{ const float f = "
                    f"{name}_F[s]; {_for_k(cs)} q[k] = f; }}"
                )
                body.append(f"            else {{ {copy} }}")
            else:
                body.append(f"            {copy}")
            body.append("        }")
            return body

        lines.append(f"void {name}(void *const *B) {{")
        lines.append(f"    const float *const S = (const float *)B[{src}];")
        lines += self._table_bases(unit)
        lines += [
            f"    for (long y = 0; y < {self.plan.height}L; ++y)",
            f"    for (long x = 0; x < {width}L; ++x) {{",
            f"        const long p = y * {width}L + x;",
            *self._pe_bases(unit, "        "),
            f"        for (long c = 0; c < {chunks}L; ++c) {{",
        ]
        lines += stage(f"P{recv}")
        lines += [f"        {statement}" for statement in callback]
        lines += ["        }", "    }", "}"]
        self._functions.append("\n".join(lines))
        self._signatures.append((name, ""))
        tasks = chunks if exchange.receive_callback else 0
        elements = sum(record.dest.length for record in run)
        return name, tasks, chunks * len(run), chunks * elements

    # -- assembly -------------------------------------------------------- #

    def _emit_bindings(self, out: SourceBuilder) -> None:
        height, width = self.plan.height, self.plan.width
        arrays = "".join(f"{name}, " for name in self._table)
        shapes = [(height, width, z) for z in self._table.values()]
        out.line(f"tbl = native_pointers(({arrays}), {shapes!r})")
        for name, kinds in self._signatures:
            out.line(f"nk_{name} = native_function(lib, {name!r}, {kinds!r})")

    def _c_source(self) -> str:
        lines = [
            f"/* native kernel generated by repro.wse.native "
            f"(native v{NATIVE_VERSION}) -- do not edit */",
            f"/* grid {self.plan.width}x{self.plan.height}; "
            f"PE-major units over (height, width, z) float32 buffers */",
        ]
        for direction, (rows, cols) in self._fold_tables.items():
            table = self.plan.halo_table(direction)
            for name, axis in ((rows, table.rows), (cols, table.cols)):
                values = ", ".join(
                    "-1" if index is None else str(index) for index in axis
                )
                lines.append(
                    f"static const int {name}[{len(axis)}] = {{{values}}};"
                )
        lines += self._functions
        return "\n".join(lines) + "\n"

    def _emit_trailer(self, out: SourceBuilder) -> None:
        source = self._c_source()
        assert '"""' not in source and "\\" not in source
        out.line('C_SOURCE = """\\')
        for line in source.splitlines():
            out.line(line)
        out.line('"""')


def generate_native_source(image, plan, fingerprint=None) -> str:
    """Emit the glue kernel (with its ``C_SOURCE``) of one (image, plan)."""
    return NativeKernelEmitter(image, plan).emit(fingerprint)


# --------------------------------------------------------------------------- #
# Binding helpers (injected into the glue namespace)
# --------------------------------------------------------------------------- #


class PointerTable:
    """The buffer-pointer table the C functions index; holds the arrays
    alive and checks each is the C-contiguous float32 block the C expects."""

    def __init__(self, arrays, shapes):
        for array, shape in zip(arrays, shapes):
            if (
                array.dtype != np.float32
                or not array.flags.c_contiguous
                or array.shape != tuple(shape)
            ):
                raise ValueError(
                    f"native kernel expects C-contiguous float32 buffers of "
                    f"shape {tuple(shape)}, got {array.dtype} "
                    f"{array.shape}"
                )
        self.arrays = tuple(arrays)
        self.pointers = (ctypes.c_void_p * max(1, len(arrays)))(
            *[array.ctypes.data for array in arrays]
        )
        self._as_parameter_ = ctypes.addressof(self.pointers)


_ARG_TYPES = {"l": ctypes.c_long, "d": ctypes.c_double}


def native_function(lib: ctypes.CDLL, name: str, kinds: str):
    function = getattr(lib, name)
    function.argtypes = [ctypes.c_void_p] + [_ARG_TYPES[k] for k in kinds]
    function.restype = ctypes.c_int
    return function


# --------------------------------------------------------------------------- #
# Building and caching the shared library
# --------------------------------------------------------------------------- #


def find_compiler() -> str | None:
    """The C compiler to build with: ``gcc``, else ``cc``, on ``PATH``."""
    for name in COMPILERS:
        path = shutil.which(name)
        if path:
            return path
    return None


@functools.lru_cache(maxsize=None)
def compiler_identity(compiler: str) -> str:
    """The compiler path plus the first line of its ``--version``."""
    try:
        completed = subprocess.run(
            [compiler, "--version"], capture_output=True, text=True,
            timeout=30,
        )
        banner = (completed.stdout or completed.stderr).strip()
        first = banner.splitlines()[0] if banner else ""
        return f"{compiler}: {first or f'exit {completed.returncode}'}"
    except (OSError, subprocess.SubprocessError) as error:
        return f"{compiler}: {type(error).__name__}"


def library_key(c_source: str, compiler: str) -> str:
    """Content key of one built library: C source, compiler identity,
    flags and host ISA."""
    payload = {
        "c_sha256": hashlib.sha256(c_source.encode("utf-8")).hexdigest(),
        "compiler": compiler_identity(compiler),
        "flags": list(COMPILE_FLAGS),
        "machine": platform.machine(),
    }
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _stderr_tail(text: str, lines: int = 12, chars: int = 1500) -> str:
    tail = "\n".join(text.strip().splitlines()[-lines:])
    return tail[-chars:]


class _Build:
    """One library: loaded from disk, being built, or failed."""

    def __init__(self, key: str, c_source: str, compiler: str, store):
        self.key = key
        self.c_source = c_source
        self.compiler = compiler
        self.store = store
        self.pid = os.getpid()
        self.library: ctypes.CDLL | None = None
        self.reason: str | None = None
        self.build_s = 0.0
        self._done = threading.Event()

    def finish(self, library=None, reason=None) -> None:
        self.library, self.reason = library, reason
        self._done.set()

    def start(self) -> None:
        threading.Thread(
            target=self.run, name=f"native-build-{self.key[:8]}", daemon=True
        ).start()

    def run(self) -> None:
        library, reason = None, "native build did not complete"
        try:
            library, reason = self._build()
        except Exception as error:
            reason = f"native build crashed: {error!r}"
        finally:  # never leave a waiter hanging
            self.finish(library, reason)

    def _build(self) -> tuple[ctypes.CDLL | None, str | None]:
        started = time.perf_counter()
        parent = None
        if self.store is not None:
            parent = self.store.directory
            parent.mkdir(parents=True, exist_ok=True)
        workdir = Path(tempfile.mkdtemp(prefix=".native-build-", dir=parent))
        try:
            source = workdir / "kernel.c"
            built = workdir / "kernel.so"
            source.write_text(self.c_source, encoding="utf-8")
            try:
                completed = run_compiler(
                    [self.compiler, *COMPILE_FLAGS, "-o", str(built),
                     str(source)]
                )
            except (OSError, subprocess.SubprocessError) as error:
                return None, f"C compiler {self.compiler} could not run: {error}"
            finally:
                self.build_s = time.perf_counter() - started
            if completed.returncode != 0 or not built.is_file():
                return None, (
                    f"C compiler {self.compiler} failed (exit "
                    f"{completed.returncode}): "
                    f"{_stderr_tail(completed.stderr or completed.stdout or '')}"
                )
            path = built
            if self.store is not None:
                path = self.store.put_library(self.key, built)
            try:
                return ctypes.CDLL(str(path)), None
            except OSError as error:
                return None, f"built library failed to load: {error}"
        finally:
            shutil.rmtree(workdir, ignore_errors=True)

    def wait(self) -> ctypes.CDLL | None:
        if not self._done.is_set() and self.pid != os.getpid():
            self.run()  # started before a fork: the thread is not ours
        self._done.wait()
        return self.library


def run_compiler(command: list[str]) -> subprocess.CompletedProcess:
    """Run one compiler command line (the only place the compiler runs)."""
    return subprocess.run(
        command, capture_output=True, text=True, timeout=BUILD_TIMEOUT_S
    )


@dataclass
class LibraryRequest:
    """A kernel binding's view of its library: where it came from and,
    once :meth:`wait` returns, the loaded library or why there is none."""

    build: _Build
    #: ``memory`` (this process already had it), ``store`` (loaded from the
    #: kernel store) or ``build`` (compiled for this binding).
    served_from: str

    def wait(self) -> ctypes.CDLL | None:
        return self.build.wait()

    @property
    def reason(self) -> str | None:
        return self.build.reason

    @property
    def build_s(self) -> float:
        return self.build.build_s if self.served_from == "build" else 0.0


_LIBRARIES: dict[str, _Build] = {}
_LIBRARIES_LOCK = threading.Lock()


def reset_libraries() -> None:
    with _LIBRARIES_LOCK:
        _LIBRARIES.clear()


def load_library(c_source: str, compiler: str, store=None) -> LibraryRequest:
    """The library of ``c_source``: from memory, the store, or a build
    started in the background (returns immediately; wait on the request)."""
    statistics = kernel_cache_statistics()
    key = library_key(c_source, compiler)
    with _LIBRARIES_LOCK:
        build = _LIBRARIES.get(key)
        if build is not None and build.pid == os.getpid():
            statistics.library_memory_hits += 1
            return LibraryRequest(build, "memory")
        build = _Build(key, c_source, compiler, store)
        _LIBRARIES[key] = build
    path = store.library_path(key) if store is not None else None
    if path is not None and path.is_file():
        try:
            build.finish(ctypes.CDLL(str(path)))
        except OSError:
            pass  # unreadable or truncated: rebuild over it
        else:
            statistics.library_store_hits += 1
            return LibraryRequest(build, "store")
    statistics.native_builds += 1
    build.start()
    return LibraryRequest(build, "build")
