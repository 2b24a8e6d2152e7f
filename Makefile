PYTHON ?= python
export PYTHONPATH := src$(if $(PYTHONPATH),:$(PYTHONPATH))

.PHONY: test bench sim-bench native-check service service-smoke run-service-check queue-check boundary-check csl-check lint

# Tier-1 verification: the whole suite, fail fast.
test:
	$(PYTHON) -m pytest -x -q

# Benchmarks only (compile-time trajectory + paper figures).
bench:
	$(PYTHON) -m pytest benchmarks -q

# Simulator throughput smoke: the reference/vectorized/compiled sweep (>=3x
# and >=5x over reference on 8x8), the paper-scale 64x64 head-to-head
# (compiled >= 1.2x vectorized), the auto-dispatcher row (median within 5%
# of compiled, timed interleaved) and the 128x128 trajectory rows;
# refreshes BENCH_simulator.json at the repo root.
sim-bench:
	$(PYTHON) -m pytest benchmarks/test_simulator_throughput.py -q

# Gate the native kernel tier of the compiled backend: kernels
# byte-identical to vectorized on every buffer and statistic on both tiers
# (7 benchmarks x 3 boundary modes x num_chunks in {1,2}, plus the C
# emitter's edge paths), the unsafe-exchange fallback to interpretation,
# the no-compiler and failed-build fallbacks and the .so store round-trip.
native-check:
	$(PYTHON) -m pytest tests/wse/test_native_kernels.py -q

# Compilation service: unit + throughput tests, then the CLI smoke path.
service:
	$(PYTHON) -m pytest tests/service benchmarks/test_service_throughput.py -q
	$(MAKE) service-smoke

# CLI smoke path only: compile a batch twice to show warm-cache reuse,
# inspect the store, purge it.  CI runs this after `make test`, which
# already executes the service test suite.
service-smoke:
	REPRO_CACHE_DIR=$$(mktemp -d) sh -c '\
	  $(PYTHON) -m repro.service compile Jacobian UVKBE --grid 4x4 --repeat 2 && \
	  $(PYTHON) -m repro.service stats && \
	  $(PYTHON) -m repro.service purge'

# End-to-end run service check: the run-job unit suite, the warm>=10x-cold
# run-throughput assertion, then a CLI smoke path whose --repeat 2 exercises
# a cold run followed by a warm run-cache hit.
run-service-check:
	$(PYTHON) -m pytest tests/service/test_run_service.py \
	  benchmarks/test_service_throughput.py::test_warm_run_job_is_at_least_10x_faster_than_cold -q
	REPRO_CACHE_DIR=$$(mktemp -d) sh -c '\
	  $(PYTHON) -m repro.service run Jacobian UVKBE --grid 4x4 --nz 8 --time-steps 1 --repeat 2 && \
	  $(PYTHON) -m repro.service run Jacobian --grid 4x4 --nz 8 --time-steps 1 --executor compiled && \
	  $(PYTHON) -m repro.service stats && \
	  $(PYTHON) -m repro.service purge'

# Async run queue: the queue test suite (lifecycle, store, daemon,
# experiments, crash recovery, the 16-job acceptance batch) plus the
# warm>=5x-cold queue-throughput assertion, then a CLI smoke path: submit
# a batch through the queue, resubmit it (served from the run cache),
# inspect both the queue store and the combined stats table, purge.
queue-check:
	$(PYTHON) -m pytest tests/service/queue \
	  benchmarks/test_queue_throughput.py -q
	REPRO_CACHE_DIR=$$(mktemp -d) sh -c '\
	  $(PYTHON) -m repro.service queue submit Jacobian UVKBE --grid 4x4 --nz 8 --time-steps 1 --inline && \
	  $(PYTHON) -m repro.service queue submit Jacobian UVKBE --grid 4x4 --nz 8 --time-steps 1 --inline && \
	  $(PYTHON) -m repro.service queue list && \
	  $(PYTHON) -m repro.service queue stats && \
	  $(PYTHON) -m repro.service stats && \
	  $(PYTHON) -m repro.service purge'

# Boundary-condition equivalence: the golden per-mode tests (byte-identical
# reference/vectorized fields, NumPy-oracle agreement, analytic periodic
# advection).  The test file parametrises both execution backends
# explicitly, so a single run covers them regardless of REPRO_EXECUTOR.
boundary-check:
	$(PYTHON) -m pytest tests/wse/test_boundary_conditions.py -q

# CSL front-door gate: the parser/lowering/diagnostic/round-trip suite,
# then the handwritten 25-point seismic kernel diffed field-by-field
# against the pipeline-generated code on two executors via the CLI.
csl-check:
	$(PYTHON) -m pytest tests/csl -q
	$(PYTHON) -m repro.csl parse --dir examples/handwritten
	$(PYTHON) -m repro.csl diff --csl examples/handwritten --benchmark Seismic \
	  --grid 9x9 --nz 16 --time-steps 2 --num-chunks 1 \
	  --executors reference,vectorized --fields u,v

# No third-party linter is vendored; byte-compiling everything still catches
# syntax errors and obvious breakage in one second.
lint:
	$(PYTHON) -m compileall -q src tests benchmarks examples
