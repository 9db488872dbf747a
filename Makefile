# Convenience targets for the FUDJ reproduction.

PYTHON ?= python
export PYTHONPATH := src

.PHONY: install test test-faults test-telemetry test-resources test-workers test-batch test-optimizer test-events test-server bench bench-check perf perf-quick perf-ab golden-accept lint-docs examples slow-examples shell clean serve

install:
	$(PYTHON) -m pip install -e . || $(PYTHON) setup.py develop

test:
	$(PYTHON) -m pytest tests/

test-faults:      ## fault-tolerance tests + ablation benchmark
	$(PYTHON) -m pytest tests/test_fault_tolerance.py tests/test_failure_injection.py -q
	$(PYTHON) -m pytest benchmarks/bench_fault_tolerance.py --benchmark-disable -q

test-telemetry:   ## metrics registry, query history, sys.* tables
	$(PYTHON) -m pytest tests/test_telemetry.py -q
	$(PYTHON) benchmarks/bench_observability.py --metrics-out /tmp/fudj-metrics.json

test-resources:   ## memory budgets, spill, admission, circuit breakers
	$(PYTHON) -m pytest tests/test_resources.py tests/test_resource_properties.py -q
	$(PYTHON) -m pytest benchmarks/bench_resource_governance.py --benchmark-disable -q

test-workers:     ## supervised process-pool backend: crashes, recovery, lifecycle
	$(PYTHON) -m pytest tests/test_workers.py -q
	$(PYTHON) benchmarks/bench_fig10_scalability.py --backend process --workers 2 --out /tmp/fudj-fig10-measured.json

test-optimizer:   ## cost-based optimizer: estimates, ordering, plan quality
	$(PYTHON) -m pytest tests/test_optimizer_cost.py -q
	$(PYTHON) benchmarks/bench_optimizer.py --out /tmp/fudj-optimizer-plan-quality.json

test-events:      ## structured event log + live monitor: determinism, parity, endpoints
	$(PYTHON) -m pytest tests/test_events.py tests/test_monitor.py -q

test-server:      ## concurrent session server: chaos harness, cancellation, drain
	$(PYTHON) -m pytest tests/test_server.py -q

serve:            ## run the session server on an ephemeral port
	$(PYTHON) -m repro serve --port 0

test-batch:       ## vectorized batch execution: RecordBatch, kernels, surface
	$(PYTHON) -m pytest tests/test_batch.py -q

perf-quick:       ## wall-clock benchmark smoke: tiny inputs, < 30 s (perf/README.md)
	$(PYTHON) perf/run.py --quick

perf:             ## wall-clock benchmark, all four workloads, ~3.5 min
	$(PYTHON) perf/run.py

perf-ab:          ## parent-vs-change pairs: make perf-ab BASE=<ref> [PAIRS=10] [WORKLOADS=a,b] [SEED=101] [TRACED=1]
	$(PYTHON) tools/perf_ab.py $(BASE) $(if $(PAIRS),--pairs $(PAIRS)) $(if $(WORKLOADS),--workloads $(WORKLOADS)) $(if $(SEED),--seed $(SEED)) $(if $(TRACED),--traced-pairs $(TRACED))

bench:            ## full run: timings + shape assertions + results/*.txt
	$(PYTHON) -m pytest benchmarks/ --benchmark-only

bench-check:      ## fast run: shape assertions only
	$(PYTHON) -m pytest benchmarks/ --benchmark-disable -q

golden-accept:    ## rewrite tests/golden/engine.json (the cross-mode oracle); review the diff like code
	$(PYTHON) -m tests.test_golden --accept

lint-docs:        ## links resolve; dot-commands, Database kwargs, CLI flags documented
	$(PYTHON) tools/lint_docs.py

examples:
	for f in examples/quickstart.py examples/custom_join.py \
	         examples/weather_analysis.py examples/fleet_proximity.py; do \
	    $(PYTHON) $$f || exit 1; done

slow-examples:
	for f in examples/*.py; do $(PYTHON) $$f || exit 1; done

shell:
	$(PYTHON) -m repro

clean:            ## caches only; benchmarks/results is committed
	rm -rf .pytest_cache .benchmarks
	find . -name __pycache__ -type d -exec rm -rf {} +
