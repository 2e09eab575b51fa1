# Convenience targets for the reproduction.

PYTHON ?= python

.PHONY: install test test-faults test-chaos test-telemetry \
        test-shard test-live test-wal test-kill-smoke \
        bench bench-kernel bench-suite claims figures figures-paper examples clean

install:
	pip install -e . --no-build-isolation

test:
	PYTHONPATH=src $(PYTHON) -m pytest tests/

test-output:
	PYTHONPATH=src $(PYTHON) -m pytest tests/ 2>&1 | tee test_output.txt

# The fault-tolerance layer (loss, retry, rollback, leases) end to end.
# Workload seeds are fixed inside the tests; the hypothesis suite gets a
# pinned derandomized profile so this target is fully reproducible.
test-faults:
	PYTHONPATH=src $(PYTHON) -m pytest -q -p no:randomly \
	  --hypothesis-seed=0 \
	  tests/test_network_faults.py tests/test_runtime_retry.py \
	  tests/test_runtime_migration_abort.py tests/test_core_leases.py \
	  tests/test_prop_leases.py tests/test_availability_faulttolerance.py

# Failure detection and chaos campaigns over a small pinned seed matrix:
# every built-in scenario must survive with invariants held, and the
# heartbeat detector must be bit-identical to the oracle when fault-free.
test-chaos:
	PYTHONPATH=src $(PYTHON) -m pytest -q -p no:randomly \
	  tests/test_runtime_failure.py tests/test_sim_invariants.py \
	  tests/test_chaos.py tests/test_detector_golden.py

# The telemetry subsystem: metric instruments, span lifecycle,
# exporters, and the end-to-end wiring through the runtime stack.
test-telemetry:
	PYTHONPATH=src $(PYTHON) -m pytest -q -p no:randomly \
	  tests/test_telemetry_metrics.py tests/test_telemetry_spans.py \
	  tests/test_telemetry_export.py tests/test_telemetry_integration.py \
	  tests/test_sim_trace.py

# The sharded kernel: partition plans, window messages, the router,
# and the determinism/statistics contract (shards=1 bit-identity, a
# pooled or cached plan == an inline one, closed-form round trip, the
# hot-spot cell agreeing at N and N/2 shards).
test-shard:
	PYTHONPATH=src $(PYTHON) -m pytest -q -p no:randomly \
	  tests/test_shard.py tests/test_shard_determinism.py

# The live runtime backend: Clock/Transport seam contracts, framing
# and dedup, the asyncio transport over real sockets (fault injection
# included), graceful degradation under delay spikes/crashes, and the
# bounded multi-process smoke (3 OS processes, 1 crash + 1 partition,
# hard wall-clock watchdog).  Writes the sim-vs-measured report to
# live_report.json (the CI artifact).
test-live:
	PYTHONPATH=src $(PYTHON) -m pytest -q -p no:randomly \
	  --hypothesis-seed=0 \
	  tests/test_runtime_clock.py tests/test_live_framing.py \
	  tests/test_live_transport.py tests/test_live_degradation.py \
	  tests/test_live_supervisor.py tests/test_prop_retry.py \
	  tests/test_live_telemetry.py tests/test_errors_pickle.py
	PYTHONPATH=src $(PYTHON) -m repro.experiments.cli live --fast \
	  --json live_report.json

# The crash-tolerant control plane: WAL format/replay unit tests, the
# hypothesis property suite (prefix-replay idempotence, single-host
# invariant, torn-tail tolerance — pinned seed), and the recovery
# suite, which SIGKILLs a real arbiter mid-migration under both
# arbitration modes and checks the in-doubt settlement verdicts.
test-wal:
	PYTHONPATH=src $(PYTHON) -m pytest -q -p no:randomly \
	  --hypothesis-seed=0 \
	  tests/test_live_wal.py tests/test_prop_wal.py \
	  tests/test_live_recovery.py

# The kill-the-arbiter smoke as a flake census: TestKillSupervisorSmoke
# run KILL_SMOKE_RUNS times per arbitration mode, each run in its own
# pytest process.  Prints the failures per mode (with each failing run's
# first error line) and fails if any run failed.
KILL_SMOKE_RUNS ?= 30
KILL_SMOKE = tests/test_live_recovery.py::TestKillSupervisorSmoke
test-kill-smoke:
	@status=0; log=$$(mktemp); \
	for mode in central home; do \
	  failed=0; \
	  for run in $$(seq $(KILL_SMOKE_RUNS)); do \
	    if ! PYTHONPATH=src $(PYTHON) -m pytest -q -p no:randomly \
	        "$(KILL_SMOKE)::test_arbiter_death_is_survived[$$mode]" \
	        > $$log 2>&1; then \
	      failed=$$((failed + 1)); \
	      echo "  [$$mode] run $$run: $$(grep -m1 '^E ' $$log)"; \
	    fi; \
	  done; \
	  echo "kill smoke [$$mode]: $$failed/$(KILL_SMOKE_RUNS) runs failed"; \
	  test $$failed -eq 0 || status=1; \
	done; \
	rm -f $$log; exit $$status

# The trusted end-to-end suite BENCHMARK.json declares (five fixed-work
# workloads, per-layer metrics).  The kernel micro-benches are
# bench-kernel; the paper's claims are checked by `claims`.
bench:
	$(PYTHON) benchmarks/suite/run.py

bench-output:
	$(PYTHON) benchmarks/suite/run.py 2>&1 | tee bench_output.txt

# Kernel microbenchmarks only, with machine-readable results at the repo
# root (BENCH_kernel.json).  Like `run.py --record`, refuses a dirty (or
# unknown) git tree: a recorded number must name the commit it measured.
bench-kernel:
	@status=$$(git status --porcelain) && test -z "$$status" || { \
	  echo "bench-kernel: BENCH_kernel.json needs a clean git tree;" \
	    "commit or stash first" >&2; exit 1; }
	PYTHONPATH=src $(PYTHON) -m pytest benchmarks/bench_kernel.py \
	  --benchmark-only --benchmark-json=BENCH_kernel.json

# The trusted suite's plumbing (BENCHMARK.json, benchmarks/suite/): a
# < 30 s smoke of all five workloads plus the suite's own tests, so
# renaming a method its StepTimer wraps fails here, not in a perf PR.
bench-suite:
	$(PYTHON) benchmarks/suite/run.py --smoke
	PYTHONPATH=src $(PYTHON) -m pytest benchmarks/suite/tests

# Every claim in PAPER_EXPECTATIONS: each figure, ablation and outlook
# study on its thinned grid (2 workers).  Exits non-zero if any claim
# fails; every verdict is printed first.
claims:
	PYTHONPATH=src $(PYTHON) -m repro.experiments.cli all --fast --check \
	  --workers 2

# Regenerate every figure, ablation and outlook table on every core.
figures:
	repro-experiment all --workers auto

# The §4.1 stopping rule (1% CI at p = 0.99) — slow but exact.
figures-paper:
	repro-experiment all --workers auto --paper-precision

examples:
	for f in examples/*.py; do echo "== $$f"; $(PYTHON) $$f; done

clean:
	rm -rf build dist *.egg-info src/*.egg-info .pytest_cache \
	       benchmarks/results .hypothesis
	find . -name __pycache__ -type d -exec rm -rf {} +
