"""Span recording around the public functions of each layer.

Tracing is installed from outside the program: :func:`instrumented`
replaces a fixed set of layer entry points (module attributes and class
methods, see :data:`PROBES`) with wrappers that record one span per call,
and restores the originals on exit.  With tracing off nothing is patched,
so the untraced run measures the program exactly as shipped.

A span carries a name, its layer, ``perf_counter`` start and end, the id of
the span that was open when it started (its parent) and the id of the job
it belongs to.  Spans stay in memory; :func:`chrome_trace` turns them into
a Chrome trace-event document at the end of the run.
"""

from __future__ import annotations

import functools
import importlib
import time
from contextlib import contextmanager
from dataclasses import dataclass, field


@dataclass
class Span:
    id: int
    parent: int | None
    job: int
    name: str
    layer: str
    start: float
    end: float = 0.0
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Nested ``perf_counter`` spans, kept in memory."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[Span] = []
        self._job = 0

    def _open(self, name: str, layer: str) -> Span:
        parent = self._stack[-1].id if self._stack else None
        span = Span(len(self.spans), parent, self._job, name, layer,
                    time.perf_counter())
        self.spans.append(span)
        self._stack.append(span)
        return span

    def _close(self, span: Span) -> None:
        # An open-ended stage span (see on_stage) ends with its parent.
        while self._stack[-1] is not span:
            self._stack.pop().end = time.perf_counter()
        self._stack.pop()
        span.end = time.perf_counter()

    @contextmanager
    def span(self, name: str, layer: str):
        span = self._open(name, layer)
        try:
            yield span
        finally:
            self._close(span)

    @contextmanager
    def job(self, name: str):
        """The root span of one job; every span opened inside shares its id."""
        self._job += 1
        with self.span("job", "bench") as root:
            root.attrs["config"] = name
            yield root

    def on_stage(self, stage: str) -> None:
        """``RunService.run``'s stage callback: the digest stage has no
        function of its own, so it is an open-ended span that closes when
        the next store write starts or the run returns."""
        if stage == "digesting":
            self._open("service.digest", "service")

    def end_stage(self) -> None:
        top = self._stack[-1] if self._stack else None
        if top is not None and top.name == "service.digest":
            self._close(top)


def _call(span: Span, call):
    return call()


def _around_compile(span: Span, call):
    result = call()
    statistics = result.statistics
    span.attrs["passes_s"] = statistics.total_wall_time
    span.attrs["rewrites"] = statistics.total_rewrites
    span.attrs["ops"] = statistics.passes[-1].ops_after
    return result


def _around_print(span: Span, call):
    sources = call()
    span.attrs["csl_bytes"] = sum(len(text.encode()) for text in sources.values())
    return sources


def _around_codegen(span: Span, call):
    """Where the kernel came from, as deltas of the kernel-cache counters."""
    from repro.wse.codegen import kernel_cache_statistics

    before = kernel_cache_statistics()
    counts = before.codegens, before.memory_hits, before.disk_hits
    kernel = call()
    after = kernel_cache_statistics()
    if after.codegens > counts[0]:
        span.attrs["served_from"] = "codegen"
    elif after.memory_hits > counts[1]:
        span.attrs["served_from"] = "memory"
    else:
        span.attrs["served_from"] = "store"
    span.attrs["fingerprint"] = kernel.fingerprint
    span.attrs["source_bytes"] = len(kernel.source.encode())
    return kernel


#: (module, attribute, span name, layer, hook that makes the call).
#: Functions imported by name are patched where they are looked up
#: (``repro.service.run`` calls its own ``get_kernel`` binding); methods are
#: patched on the class.
PROBES = (
    ("repro.benchmarks.definitions", "Benchmark.program",
     "frontends.program", "frontends", _call),
    ("repro.service.run", "RunService.run", "service.run", "service", _call),
    ("repro.service.service", "CompileService.compile_ir",
     "service.compile_ir", "service", _call),
    ("repro.service.service", "compile_stencil_program",
     "transforms.compile", "transforms", _around_compile),
    ("repro.service.service", "print_csl_sources",
     "backend.print", "backend", _around_print),
    ("repro.service.cache", "DiskArtifactCache.put",
     "service.store", "service", _call),
    ("repro.service.run", "RunArtifactStore.put",
     "service.store", "service", _call),
    ("repro.service.kernels", "KernelSourceStore.put",
     "service.store", "service", _call),
    ("repro.wse.interpreter", "ProgramImage.__init__",
     "wse.image", "wse.interpreter", _call),
    ("repro.wse.plan", "ExecutionPlan.compile", "wse.plan", "wse.plan", _call),
    ("repro.service.run", "get_kernel", "wse.codegen", "wse.codegen",
     _around_codegen),
    ("repro.wse.executors.compiled", "get_kernel", "wse.codegen",
     "wse.codegen", _around_codegen),
    ("repro.wse.simulator", "WseSimulator.__init__",
     "wse.sim.init", "wse.executors", _call),
    ("repro.wse.simulator", "WseSimulator.load_field",
     "wse.sim.load", "wse.executors", _call),
    ("repro.wse.simulator", "WseSimulator.launch",
     "wse.sim.run", "wse.executors", _call),
    ("repro.wse.simulator", "WseSimulator.run",
     "wse.sim.run", "wse.executors", _call),
    ("repro.wse.simulator", "WseSimulator.read_field",
     "wse.sim.read", "wse.executors", _call),
    ("repro.service.run", "allocate_fields",
     "baselines.inputs", "baselines.numpy_ref", _call),
    ("repro.service.run", "field_to_columns",
     "baselines.inputs", "baselines.numpy_ref", _call),
)


def _wrap(tracer: Tracer, fn, name: str, layer: str, hook):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        if name == "service.store":
            tracer.end_stage()
        with tracer.span(name, layer) as span:
            return hook(span, lambda: fn(*args, **kwargs))

    return traced


@contextmanager
def instrumented(tracer: Tracer):
    """Record spans around every probe while the block runs."""
    restore = []
    try:
        for module_name, attribute, name, layer, hook in PROBES:
            owner = importlib.import_module(module_name)
            owner_name, _, member = attribute.rpartition(".")
            if owner_name:
                owner = getattr(owner, owner_name)
                raw = owner.__dict__[member]
            else:
                raw = getattr(owner, member)
            if isinstance(raw, classmethod):
                patched = classmethod(_wrap(tracer, raw.__func__, name, layer, hook))
            else:
                patched = _wrap(tracer, raw, name, layer, hook)
            restore.append((owner, member, raw))
            setattr(owner, member, patched)
        yield tracer
    finally:
        for owner, member, raw in reversed(restore):
            setattr(owner, member, raw)


def self_times(spans: list[Span]) -> dict[int, float]:
    """Each span's duration minus the time its direct children cover."""
    own = {span.id: span.duration for span in spans}
    for span in spans:
        if span.parent in own:
            own[span.parent] -= span.duration
    return own


def chrome_trace(tracer: Tracer, metadata: dict) -> dict:
    """The spans as a Chrome trace-event document (``chrome://tracing``)."""
    origin = min((span.start for span in tracer.spans), default=0.0)
    events = [
        {
            "name": span.name,
            "cat": span.layer,
            "ph": "X",
            "ts": (span.start - origin) * 1e6,
            "dur": span.duration * 1e6,
            "pid": 1,
            "tid": 1,
            "args": {"id": span.id, "parent": span.parent, "job": span.job,
                     **span.attrs},
        }
        for span in tracer.spans
    ]
    return {"traceEvents": events, "displayTimeUnit": "ms",
            "otherData": metadata}
