"""The native kernel tier of the ``compiled`` backend, pinned.

The contract: with a C compiler present the compiled backend runs its DSD
runs and exchange deliveries as PE-major C, and every buffer — fields,
accumulators and the receive slab alike — plus every statistic stays
byte-identical to ``vectorized``.  Without a compiler, or when the build
fails, the NumPy tier runs instead, still byte-identical, and the reason
is recorded.  Libraries persist through the kernel store, so a second
process loads the ``.so`` without invoking the compiler.  A program whose
receive callback writes its receive buffer gets no kernel at all: the
backend interprets it and names the exchange.
"""

import sys
import threading
from dataclasses import replace
from functools import lru_cache

import numpy as np
import pytest

from repro.benchmarks.definitions import ALL_BENCHMARKS
from repro.csl import parse_csl_sources
from repro.frontends.common import BoundaryCondition
from repro.frontends.flang_like import parse_fortran_stencil
from repro.service.kernels import KernelSourceStore
from repro.service.run import RunService
from repro.transforms.pipeline import PipelineOptions, compile_stencil_program
from repro.wse import native
from repro.wse.codegen import (
    DUMP_ENV_VAR,
    _KernelEmitter,
    get_kernel,
    kernel_cache_statistics,
    reset_kernel_cache,
)
from repro.wse.executors import executor_by_name
from repro.wse.interpreter import ProgramImage
from repro.wse.plan import ExecutionPlan

BOUNDARIES = (
    BoundaryCondition.dirichlet(),
    BoundaryCondition.periodic(),
    BoundaryCondition.reflect(),
)

#: A handwritten program for the C emitter's edge paths: an overlapping
#: destination (the hazard temporary), strided views, scalars computed at
#: run time from a variable, a DSD offset moving with the step counter
#: (the runtime range check), a tie-rounding constant, a non-zero
#: Dirichlet fill and a chunked receive callback.
EDGE_PROGRAM = """\
param z_dim : i16 = 16;

const memcpy = @import_module("<memcpy/memcpy>");
const comms = @import_module("stencil_comms.csl", .{ .pattern = 1, .chunkSize = 4, .boundary = "dirichlet", .boundaryValue = 0.5 });

var a = @zeros([16]f32);
var b = @zeros([16]f32);
var recv = @zeros([8]f32);
var step : i32 = 0;

fn f_main() void {
  @activate(@get_local_task_id(8));
  return;
}

task time_loop() void {
  const running = step < 3;
  if (running) {
    body();
  } else {
    finish();
  }
  return;
}

comptime { @bind_local_task(@get_local_task_id(8), time_loop); }

fn body() void {
  const a_lo = @get_dsd(mem1d_dsd, .{ .tensor_access = |i|{8} -> a[i] });
  const a_hi = @get_dsd(mem1d_dsd, .{ .tensor_access = |i|{8} -> a[1 + i] });
  const a_even = @get_dsd(mem1d_dsd, .{ .tensor_access = |i|{8} -> a[i * 2] });
  const b_odd = @get_dsd(mem1d_dsd, .{ .tensor_access = |i|{8} -> b[1 + i * 2] });
  const b_lo = @get_dsd(mem1d_dsd, .{ .tensor_access = |i|{8} -> b[i] });
  @fadds(a_hi, a_lo, a_lo);
  @fmacs(b_odd, b_odd, a_even, 1.000000059604644775390625);
  const k = step + 2;
  @fmuls(b_lo, b_lo, k);
  @fmacs(b_lo, b_lo, k, 0.25);
  const moving = @increment_dsd_offset(b_lo, step, f32);
  @fsubs(moving, a_lo, moving);
  const column = @get_dsd(mem1d_dsd, .{ .tensor_access = |i|{16} -> a[i] });
  comms.communicate(&column, .{ .num_chunks = 2, .chunk_size = 4, .src_offset = 0, .src_len = 8, .pattern = 1, .recv_buffer = &recv, .directions = .{ .{ 1, 0 }, .{ 0, -1 } }, .recv = &recv_chunk, .done = &next_step });
  return;
}

task recv_chunk(chunk_offset : i16) void {
  const east = @get_dsd(mem1d_dsd, .{ .tensor_access = |i|{4} -> recv[i] });
  const south = @get_dsd(mem1d_dsd, .{ .tensor_access = |i|{4} -> recv[4 + i] });
  const base = @get_dsd(mem1d_dsd, .{ .tensor_access = |i|{4} -> b[8 + i] });
  const slot = @increment_dsd_offset(base, chunk_offset, f32);
  @fadds(slot, east, south);
  @fmacs(slot, slot, east, 3.0);
  return;
}

comptime { @bind_local_task(@get_local_task_id(9), recv_chunk); }

task next_step() void {
  const t = step + 1;
  step = t;
  @activate(@get_local_task_id(8));
  return;
}

comptime { @bind_local_task(@get_local_task_id(10), next_step); }

fn finish() void {
  sys_mod.unblock_cmd_stream();
  return;
}

comptime { @export_symbol(f_main, "f_main"); }
comptime { @rpc(@get_data_task_id(memcpy.LAUNCH)); }
"""

EDGE_LAYOUT = """\
param width : u16;
param height : u16;

const memcpy_params = @import_module("<memcpy/get_params>", .{ .width = 5, .height = 4 });
const routes = @import_module("routes.csl", .{ .pattern = 1 });

layout {
  @set_rectangle(5, 4);
  var x : u16 = 0;
  while (x < 5) : (x += 1) {
    var y : u16 = 0;
    while (y < 4) : (y += 1) {
      @set_tile_code(x, y, "edge.csl", .{ .z_dim = 16, .width = 5, .height = 4, .target = "wse2" });
    }
  }
}
"""

#: A program whose receive callback writes its receive buffer: staging
#: each chunk straight into the slab would let chunk 0's callback change
#: what chunk 1's callback sees on the Dirichlet border, so the kernel
#: generator must refuse it and ``compiled`` must interpret instead.
RECV_WRITER_PROGRAM = """\
param z_dim : i16 = 8;

const memcpy = @import_module("<memcpy/memcpy>");
const comms = @import_module("stencil_comms.csl", .{ .pattern = 1, .chunkSize = 2, .boundary = "dirichlet", .boundaryValue = 0.5 });

var a = @zeros([8]f32);
var recv = @zeros([4]f32);
var step : i32 = 0;

fn f_main() void {
  @activate(@get_local_task_id(8));
  return;
}

task time_loop() void {
  const running = step < 2;
  if (running) {
    body();
  } else {
    finish();
  }
  return;
}

comptime { @bind_local_task(@get_local_task_id(8), time_loop); }

fn body() void {
  const column = @get_dsd(mem1d_dsd, .{ .tensor_access = |i|{8} -> a[i] });
  comms.communicate(&column, .{ .num_chunks = 2, .chunk_size = 2, .src_offset = 0, .src_len = 4, .pattern = 1, .recv_buffer = &recv, .directions = .{ .{ 1, 0 }, .{ 0, -1 } }, .recv = &recv_chunk, .done = &next_step });
  return;
}

task recv_chunk(chunk_offset : i16) void {
  const east = @get_dsd(mem1d_dsd, .{ .tensor_access = |i|{2} -> recv[i] });
  const base = @get_dsd(mem1d_dsd, .{ .tensor_access = |i|{2} -> a[4 + i] });
  const slot = @increment_dsd_offset(base, chunk_offset, f32);
  @fmuls(east, east, 2.0);
  @fadds(slot, slot, east);
  return;
}

comptime { @bind_local_task(@get_local_task_id(9), recv_chunk); }

task next_step() void {
  const t = step + 1;
  step = t;
  @activate(@get_local_task_id(8));
  return;
}

comptime { @bind_local_task(@get_local_task_id(10), next_step); }

fn finish() void {
  sys_mod.unblock_cmd_stream();
  return;
}

comptime { @export_symbol(f_main, "f_main"); }
comptime { @rpc(@get_data_task_id(memcpy.LAUNCH)); }
"""

needs_compiler = pytest.mark.skipif(
    native.find_compiler() is None, reason="no C compiler on PATH"
)


@pytest.fixture(autouse=True)
def _fresh_kernel_cache():
    reset_kernel_cache()
    yield
    reset_kernel_cache()


@lru_cache(maxsize=None)
def _image(name: str, boundary: BoundaryCondition, chunks: int):
    benchmark = next(b for b in ALL_BENCHMARKS if b.name == name)
    width, height = (9, 8) if benchmark.stencil_points >= 25 else (6, 5)
    program = replace(
        benchmark.program(nx=width, ny=height, nz=12, time_steps=5),
        boundary=boundary,
    )
    options = PipelineOptions(
        grid_width=width, grid_height=height, num_chunks=chunks,
        boundary=boundary,
    )
    image = ProgramImage(compile_stencil_program(program, options).program_module)
    return image


def _bind(executor: str, image: ProgramImage, **options):
    """Construct a backend (a compiled one starts its native build)."""
    plan = ExecutionPlan.compile(image, image.width, image.height)
    return executor_by_name(executor)(
        image, image.width, image.height, plan, **options
    )


def _finish(instance):
    """Seed *every* buffer, execute, return (buffer bytes, stats, executor)."""
    rng = np.random.default_rng(11)
    for name, size in sorted(instance.plan.buffers.items()):
        instance.load_field(
            name, rng.uniform(-1, 1, (instance.width, instance.height, size))
        )
    statistics = instance.execute()
    buffers = {
        name: instance.read_field(name).tobytes()
        for name in instance.plan.buffers
    }
    return buffers, statistics, instance


def _run(executor: str, image: ProgramImage, **options):
    return _finish(_bind(executor, image, **options))


def _assert_identical(got, want, label: str) -> None:
    buffers, statistics, _ = got
    expected_buffers, expected_statistics, _ = want
    assert buffers.keys() == expected_buffers.keys()
    for name, expected in expected_buffers.items():
        assert buffers[name] == expected, f"buffer '{name}' differs ({label})"
    assert statistics == expected_statistics, label


class TestByteIdentityMatrix:
    """Compiled == vectorized on every buffer and statistic, on both kernel
    tiers: 7 benchmarks x 3 boundary modes x num_chunks in {1, 2}."""

    @pytest.mark.parametrize(
        "tier", (pytest.param("native", marks=needs_compiler), "numpy")
    )
    @pytest.mark.parametrize("chunks", (1, 2))
    @pytest.mark.parametrize("boundary", BOUNDARIES, ids=lambda b: b.spec)
    @pytest.mark.parametrize("name", [b.name for b in ALL_BENCHMARKS])
    def test_matches_vectorized(self, monkeypatch, name, boundary, chunks, tier):
        if tier == "numpy":
            monkeypatch.setattr(native, "find_compiler", lambda: None)
        image = _image(name, boundary, chunks)
        # Bind first: the library builds while vectorized runs.
        instance = _bind("compiled", image)
        want = _run("vectorized", image)
        got = _finish(instance)
        label = f"{name}/{boundary.spec}/chunks={chunks}/{tier}"
        assert instance.fallback_reason is None, label
        assert got[1].kernel_tier == tier, (
            f"{label}: {got[1].native_fallback_reason}"
        )
        assert got[1].block_depth == got[1].rounds
        _assert_identical(got, want, label)


@needs_compiler
class TestNativeByteIdentity:
    def test_hex_float_constants_match_numpy_rounding(self):
        """``1 + 2**-24`` rounds to 1.0 in float32 (ties to even) but to
        ``1 + 2**-23`` when printed as a decimal ``f`` literal: the C must
        carry the hex-float of ``np.float32(c)``."""
        coefficient = "1.000000059604644775390625"
        update = (
            f"v(k,j,i) = (u(k,j,i) + u(k,j,i+1) * {coefficient} + u(k,j,i-1)"
            f" + u(k,j+1,i) + u(k,j-1,i)) * {coefficient}"
        )
        source = f"""
        do i = 1, 6
          do j = 1, 5
            do k = 1, 8
              {update}
            enddo
          enddo
        enddo
        """
        program = parse_fortran_stencil(
            source, name="tie", time_steps=3, halo=(1, 1, 1)
        )
        module = compile_stencil_program(
            program, PipelineOptions(grid_width=6, grid_height=5)
        ).program_module
        image = ProgramImage(module)
        got = _run("compiled", image)
        assert got[1].kernel_tier == "native"
        c_source = got[2]._compiled.c_source
        assert "(0x1.0000000000000p+0f)" in c_source
        assert "1.0000000596" not in c_source
        _assert_identical(got, _run("vectorized", image), "1 + 2**-24")


    @pytest.mark.parametrize("boundary", ("dirichlet", "periodic"))
    def test_edge_paths_match_vectorized(self, boundary):
        program = EDGE_PROGRAM.replace(
            '"dirichlet", .boundaryValue', f'"{boundary}", .boundaryValue'
        )
        image = parse_csl_sources(
            {"edge.csl": program, "edge_layout.csl": EDGE_LAYOUT}
        ).image()
        instance = _bind("compiled", image)
        want = _run("vectorized", image)
        got = _finish(instance)
        assert got[1].kernel_tier == "native"
        c_source = instance._compiled.c_source
        for path in ("float tmp[", "k * 2]", "return 1;", "(float)s1"):
            assert path in c_source, path
        _assert_identical(got, want, f"edge/{boundary}")


class TestFallback:
    def test_hidden_compiler_runs_the_numpy_tier(self, monkeypatch):
        monkeypatch.setattr(native, "find_compiler", lambda: None)
        image = _image("Seismic", BOUNDARIES[0], 2)
        got = _run("compiled", image)
        assert got[1].kernel_tier == "numpy"
        assert got[1].native_fallback_reason == native.NO_COMPILER_REASON
        assert got[2].kernel_cache["tier"] == "numpy"
        assert got[2]._compiled.c_source is None
        assert kernel_cache_statistics().native_builds == 0
        _assert_identical(got, _run("vectorized", image), "no compiler")

    def test_failing_compiler_falls_back_with_its_stderr(
        self, monkeypatch, tmp_path
    ):
        fake = tmp_path / "fake-cc"
        fake.write_text(
            "#!/bin/sh\n"
            "echo 'fake-cc: fatal error: synthetic failure' >&2\n"
            "exit 3\n"
        )
        fake.chmod(0o755)
        monkeypatch.setattr(native, "find_compiler", lambda: str(fake))
        image = _image("Jacobian", BOUNDARIES[1], 1)
        got = _run("compiled", image)
        reason = got[1].native_fallback_reason
        assert got[1].kernel_tier == "numpy"
        assert "exit 3" in reason
        assert "synthetic failure" in reason
        assert got[2].kernel_cache["native_fallback_reason"] == reason
        assert got[1].block_depth == got[1].rounds
        _assert_identical(got, _run("vectorized", image), "failed build")


class TestUnsafeExchangeFallback:
    @staticmethod
    def _image():
        return parse_csl_sources(
            {"edge.csl": RECV_WRITER_PROGRAM, "edge_layout.csl": EDGE_LAYOUT}
        ).image()

    def test_compiled_interprets_and_names_the_exchange(self):
        image = self._image()
        got = _run("compiled", image)
        reason = got[2].fallback_reason
        assert reason is not None
        assert "exchange 0" in reason
        assert "'recv'" in reason and "'recv_chunk'" in reason
        assert got[2].kernel_cache == {"served_from": "fallback", "reason": reason}
        assert got[1].block_depth == 0
        _assert_identical(got, _run("vectorized", image), "vectorized")
        _assert_identical(got, _run("reference", image), "reference")

    def test_direct_staging_would_diverge(self, monkeypatch):
        """The refusal is load-bearing: forcing direct staging on the NumPy
        tier changes the result."""
        image = self._image()
        want = _run("vectorized", image)
        monkeypatch.setattr(native, "find_compiler", lambda: None)
        monkeypatch.setattr(
            _KernelEmitter, "_direct_staging_safe", lambda *_: True
        )
        forced = _run("compiled", image)
        assert forced[2].fallback_reason is None
        assert forced[0]["a"] != want[0]["a"]


@needs_compiler
class TestLibraryCache:
    def test_second_binding_loads_the_library_from_the_store(
        self, monkeypatch, tmp_path
    ):
        store = KernelSourceStore(tmp_path)
        image = _image("UVKBE", BOUNDARIES[2], 2)
        first = _run("compiled", image, kernel_store=store)
        assert first[2].kernel_cache["library"] == "build"
        assert first[2].kernel_cache["build_s"] > 0
        assert store.libraries() == 1
        assert kernel_cache_statistics().native_builds == 1

        reset_kernel_cache()  # a "new process": memo and libraries gone

        def no_compiler(command):
            raise AssertionError(f"compiler invoked: {command}")

        monkeypatch.setattr(native, "run_compiler", no_compiler)
        second = _run("compiled", image, kernel_store=store)
        provenance = second[2].kernel_cache
        assert provenance["served_from"] == "store"
        assert provenance["library"] == "store"
        assert provenance["tier"] == "native"
        statistics = kernel_cache_statistics()
        assert statistics.native_builds == 0
        assert statistics.library_store_hits == 1
        _assert_identical(second, first, "store-served library")

        third = _run("compiled", image, kernel_store=store)
        assert third[2].kernel_cache["library"] == "memory"
        assert kernel_cache_statistics().library_memory_hits == 1

    def test_concurrent_bindings_share_one_build(self):
        """Eight threads binding the same C at once: one build, one
        library, and every waiter returns."""
        image = _image("Jacobian", BOUNDARIES[0], 1)
        plan = ExecutionPlan.compile(image, image.width, image.height)
        c_source = get_kernel(image, plan, native=True).c_source
        compiler = native.find_compiler()
        requests = []
        threads = [
            threading.Thread(
                target=lambda: requests.append(
                    native.load_library(c_source, compiler)
                )
            )
            for _ in range(8)
        ]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert len(requests) == 8
        libraries = {id(request.wait()) for request in requests}
        assert len(libraries) == 1 and requests[0].wait() is not None
        statistics = kernel_cache_statistics()
        assert statistics.native_builds == 1
        assert statistics.library_memory_hits == 7

    def test_dump_writes_the_c_beside_the_kernel(self, monkeypatch, tmp_path):
        monkeypatch.setenv(DUMP_ENV_VAR, str(tmp_path))
        _, _, instance = _run("compiled", _image("Jacobian", BOUNDARIES[0], 1))
        stem = tmp_path / f"kernel_{instance.kernel_fingerprint[:12]}"
        assert stem.with_suffix(".py").read_text() == instance._compiled.source
        assert stem.with_suffix(".c").read_text() == instance._compiled.c_source


class TestRunServiceProvenance:
    def test_vectorized_jobs_generate_no_kernel(self, monkeypatch, tmp_path):
        """`auto` on a small grid delegates to vectorized: the job must
        neither generate a kernel nor start the compiler."""
        benchmark = next(b for b in ALL_BENCHMARKS if b.name == "Jacobian")
        with RunService(cache_dir=tmp_path) as service:
            artifact = service.run(
                benchmark.program(8, 8, 16, 2),
                PipelineOptions(grid_width=8, grid_height=8),
                executor="auto",
            )
        assert artifact.statistics["backend_decision"] == "vectorized"
        assert artifact.kernel_cache is None
        statistics = kernel_cache_statistics()
        assert statistics.lookups == 0
        assert statistics.native_builds == 0

    @needs_compiler
    def test_compiled_jobs_record_the_tier_and_library(self, tmp_path):
        benchmark = next(b for b in ALL_BENCHMARKS if b.name == "Jacobian")
        program = benchmark.program(6, 6, 16, 2)
        options = PipelineOptions(grid_width=6, grid_height=6)
        with RunService(cache_dir=tmp_path) as service:
            cold = service.run(program, options, executor="compiled")
            service.memory.clear()
            service.store.purge()
            warm = service.run(program, options, executor="compiled")
            report = service.format_statistics()
        assert cold.kernel_cache["served_from"] == "codegen"
        assert cold.kernel_cache["library"] == "build"
        assert warm.kernel_cache["served_from"] == "memory"
        assert warm.kernel_cache["library"] == "memory"
        assert cold.statistics["kernel_tier"] == "native"
        assert warm.field_digests == cold.field_digests
        assert "native libraries: builds 1" in report
