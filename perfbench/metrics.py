"""Per-layer metrics derived from one traced job's spans and artifact.

Every ``*_s`` figure is the *self* time of the named spans (duration minus
the time their child spans cover), so a job's figures, plus
``trace.unattributed_s`` (the job root's own time), add up to its wall
time.

Each metric is reported from one phase of the traced run:

* ``cold``: jobs on a fresh ``RunService``/``CompileService``, an empty
  cache directory and an empty kernel cache.  Compile-side layers only
  work there on the single-kernel workloads, so they are judged there;
  they are the ones that move ``setup_s`` (and ``job_s`` on the sweep,
  where every job is cold).
* ``steady``: the timed jobs, which move ``job_s``.

A value is the median over the phase's jobs, except ratios, which divide
sums over the phase's jobs.
"""

from __future__ import annotations

import statistics

from tracing import Span, self_times

COLD, STEADY = "cold", "steady"

#: bytes credited to one DSD element: one 4-byte float32 load of the
#: streamed operand and one 4-byte store of the result.  A computed lower
#: bound on the traffic the delivery rounds perform, not a measurement.
BYTES_PER_DSD_ELEMENT = 8

#: counters copied from SimulationStatistics (exact, backend-independent).
SIM_COUNTS = ("rounds", "tasks_run", "exchanges", "dsd_ops", "dsd_elements",
              "wavelets_sent", "max_pe_memory_bytes")

LOWER, HIGHER = "lower", "higher"

#: (name, unit, phase, which way is better) of every per-layer metric, in
#: report order.
PER_LAYER = (
    ("cold.job_s", "s", COLD, LOWER),
    ("frontends.program_s", "s", COLD, LOWER),
    ("transforms.compile_s", "s", COLD, LOWER),
    ("transforms.passes_s", "s", COLD, LOWER),
    ("transforms.verify_s", "s", COLD, LOWER),
    ("transforms.rewrites", "count", COLD, LOWER),
    ("transforms.ops", "count", COLD, LOWER),
    ("backend.print_s", "s", COLD, LOWER),
    ("backend.csl_bytes", "B", COLD, LOWER),
    ("wse.image_s", "s", COLD, LOWER),
    ("wse.plan_s", "s", COLD, LOWER),
    ("wse.plan.builds", "count", COLD, LOWER),
    ("wse.codegen_s", "s", COLD, LOWER),
    ("wse.codegen.generated", "count", COLD, LOWER),
    ("wse.codegen.memory_hits", "count", COLD, HIGHER),
    ("wse.codegen.store_hits", "count", COLD, HIGHER),
    ("wse.codegen.useful_ratio", "ratio", COLD, HIGHER),
    ("wse.codegen.source_bytes", "B", COLD, LOWER),
    ("service.self_s", "s", STEADY, LOWER),
    ("service.digest_s", "s", STEADY, LOWER),
    ("service.store_s", "s", STEADY, LOWER),
    ("service.compile_hit_ratio", "ratio", STEADY, HIGHER),
    ("wse.sim.init_s", "s", STEADY, LOWER),
    ("wse.sim.load_s", "s", STEADY, LOWER),
    ("wse.sim.run_s", "s", STEADY, LOWER),
    ("wse.sim.read_s", "s", STEADY, LOWER),
    *((f"wse.sim.{name}", "B" if name.endswith("bytes") else "count", STEADY, LOWER)
      for name in SIM_COUNTS),
    ("wse.sim.block_depth", "count", STEADY, HIGHER),
    ("wse.sim.s_per_round", "s", STEADY, LOWER),
    ("wse.sim.bytes_computed", "B", STEADY, LOWER),
    ("wse.sim.gbs", "GB/s", STEADY, HIGHER),
    ("wse.sim.bw_frac", "ratio", STEADY, HIGHER),
    ("baselines.numpy_ref.inputs_s", "s", STEADY, LOWER),
    ("trace.unattributed_s", "s", STEADY, LOWER),
    ("trace.job_s", "s", STEADY, LOWER),
    ("trace.untraced_job_s", "s", STEADY, LOWER),
    ("trace.overhead_s", "s", STEADY, LOWER),
    ("host.copy_gbs", "GB/s", STEADY, HIGHER),
)

#: ratio metrics -> (numerator, denominator) per-job counts summed.
RATIOS = {
    "wse.codegen.useful_ratio": ("wse.codegen.useful", "wse.codegen.generated"),
    "service.compile_hit_ratio": ("service.compile_hits", "service.compile_lookups"),
}


def job_metrics(spans: list[Span], artifact) -> dict[str, float]:
    """The per-layer figures of one traced job."""
    own = self_times(spans)
    root = next(span for span in spans if span.name == "job")

    def self_s(*names: str) -> float:
        return sum(own[span.id] for span in spans if span.name in names)

    def named(name: str) -> list[Span]:
        return [span for span in spans if span.name == name]

    def attr_sum(name: str, key: str) -> float:
        return sum(span.attrs[key] for span in named(name))

    codegen = named("wse.codegen")
    generated = {span.attrs["fingerprint"] for span in codegen
                 if span.attrs["served_from"] == "codegen"}
    # The executor binds the last kernel it resolved while it was built.
    inits = {span.id for span in named("wse.sim.init")}
    bound = [span.attrs["fingerprint"] for span in codegen if span.parent in inits]
    ran = set(bound[-1:])
    compiles = named("transforms.compile")
    lookups = named("service.compile_ir")

    stats = artifact.statistics
    run_s = self_s("wse.sim.run")
    figures = {
        "job_s": root.duration,
        "frontends.program_s": self_s("frontends.program"),
        "transforms.compile_s": self_s("transforms.compile"),
        "transforms.passes_s": attr_sum("transforms.compile", "passes_s"),
        "transforms.rewrites": attr_sum("transforms.compile", "rewrites"),
        "transforms.ops": attr_sum("transforms.compile", "ops"),
        "backend.print_s": self_s("backend.print"),
        "backend.csl_bytes": attr_sum("backend.print", "csl_bytes"),
        "service.self_s": self_s("service.run", "service.compile_ir"),
        "service.digest_s": self_s("service.digest"),
        "service.store_s": self_s("service.store"),
        "service.compile_hits": len(lookups) - len(compiles),
        "service.compile_lookups": len(lookups),
        "wse.image_s": self_s("wse.image"),
        "wse.plan_s": self_s("wse.plan"),
        "wse.plan.builds": len(named("wse.plan")),
        "wse.codegen_s": self_s("wse.codegen"),
        "wse.codegen.generated": len(generated),
        "wse.codegen.memory_hits": sum(span.attrs["served_from"] == "memory"
                                       for span in codegen),
        "wse.codegen.store_hits": sum(span.attrs["served_from"] == "store"
                                      for span in codegen),
        "wse.codegen.useful": len(generated & ran),
        "wse.codegen.source_bytes": sum(span.attrs["source_bytes"] for span in codegen
                                        if span.attrs["served_from"] == "codegen"),
        "wse.sim.init_s": self_s("wse.sim.init"),
        "wse.sim.load_s": self_s("wse.sim.load"),
        "wse.sim.run_s": run_s,
        "wse.sim.read_s": self_s("wse.sim.read"),
        **{f"wse.sim.{name}": stats[name] for name in SIM_COUNTS},
        "wse.sim.block_depth": max(1, stats["block_depth"]),
        "wse.sim.s_per_round": run_s / max(1, stats["rounds"]),
        "wse.sim.bytes_computed": stats["dsd_elements"] * BYTES_PER_DSD_ELEMENT,
        "baselines.numpy_ref.inputs_s": self_s("baselines.inputs"),
        "trace.unattributed_s": own[root.id],
    }
    figures["transforms.verify_s"] = (figures["transforms.compile_s"]
                                      - figures["transforms.passes_s"])
    figures["wse.sim.gbs"] = figures["wse.sim.bytes_computed"] / run_s / 1e9
    return figures


def layer_self_times(spans: list[Span]) -> dict[str, float]:
    """Self time per layer of one job; the values sum to its wall time."""
    own = self_times(spans)
    layers: dict[str, float] = {}
    for span in spans:
        layers[span.layer] = layers.get(span.layer, 0.0) + own[span.id]
    return layers


def summarize(cold: list[dict], steady: list[dict], untraced_walls: list[float],
              copy_gbs: float) -> dict[str, float]:
    """Every :data:`PER_LAYER` metric from the phases' per-job figures."""
    phases = {COLD: cold, STEADY: steady}
    values: dict[str, float] = {}
    for name, _, phase, _ in PER_LAYER:
        jobs = phases[phase]
        if name in RATIOS:
            numerator, denominator = RATIOS[name]
            total = sum(job[denominator] for job in jobs)
            values[name] = sum(job[numerator] for job in jobs) / total if total else 0.0
        elif name == "cold.job_s":
            values[name] = statistics.median(job["job_s"] for job in cold)
        elif name in steady[0]:
            values[name] = statistics.median(job[name] for job in jobs)
    values["trace.job_s"] = statistics.median(job["job_s"] for job in steady)
    values["trace.untraced_job_s"] = statistics.median(untraced_walls)
    values["trace.overhead_s"] = values["trace.job_s"] - values["trace.untraced_job_s"]
    values["host.copy_gbs"] = copy_gbs
    values["wse.sim.bw_frac"] = values["wse.sim.gbs"] / copy_gbs
    return values
