PYTHON ?= python
# Run against the in-tree sources whether or not the package is installed.
RUN = PYTHONPATH=src $(PYTHON)
# Content-addressed result cache used by the CLI (see repro.exec).
CACHE_DIR ?= .repro-cache

.PHONY: install test smoke report-smoke faults-smoke bench-engine-smoke \
        bench-sweep-smoke bench-scale-smoke bench-regression \
        bench-e2e-selftest bench-e2e-pins bench-e2e-ab experiments-smoke \
        policy-smoke verify bench bench-full bench-figures bench-faults \
        examples calibrate loc cache-clean clean

install:
	$(PYTHON) -m pip install -e . --no-build-isolation || $(PYTHON) setup.py develop

test:
	$(RUN) -m pytest tests/

# Parallel smoke run: exercises the multiprocessing pool end-to-end
# (--no-cache so it always simulates rather than replaying the cache).
smoke:
	$(RUN) -m repro run --jobs 2 --no-cache --cores 8 --accesses 2000

# Observability smoke: a tiny metrics+trace run rendered through
# `repro report` (exercises the sink, the obs JSONL, and the renderer),
# then an observed 1,024-tile NOCSTAR run (25 accesses/core, about 5 s),
# so the finalize path that decodes every link's busy cycles runs at
# scale.
report-smoke:
	$(RUN) -m repro run --workload olio --cores 4 --accesses 800 \
		--configs nocstar --no-cache --metrics \
		--trace-out .obs-smoke.jsonl
	$(RUN) -m repro report .obs-smoke.jsonl --top 4
	$(RUN) -m repro run --workload graph500 --cores 1024 --accesses 25 \
		--configs nocstar-1024 --no-cache --metrics \
		--trace-out .obs-smoke.jsonl
	$(RUN) -m repro report .obs-smoke.jsonl --top 4
	rm -f .obs-smoke.jsonl

# Fault-injection smoke: a tiny degradation sweep rendered through
# `repro report` (exercises the faults subsystem, the resilience
# fallbacks, and the fault counters end-to-end).
faults-smoke:
	$(RUN) -m repro faults --workload olio --cores 8 --accesses 1000 \
		--rates 0,0.1 --no-cache --metrics \
		--trace-out .faults-smoke.jsonl
	$(RUN) -m repro report .faults-smoke.jsonl --top 4
	rm -f .faults-smoke.jsonl

# Engine fast-path smoke: the perf guard (batched engine must beat the
# REPRO_REFERENCE_ENGINE=1 reference loop by >= 1.5x on the 64-core
# scenario, bit-identically) plus the BENCH_engine.json artefact.
bench-engine-smoke:
	$(RUN) benchmarks/bench_engine.py

# Sweep data-plane smoke: the perf guard (warm TraceStore fan-out must
# beat store-less jobs=4 dispatch by >= 2x on the 4-config x 3-workload
# sweep, bit-identically) plus the BENCH_sweep.json artefact.
bench-sweep-smoke:
	$(RUN) benchmarks/bench_sweep.py

# Mega-mesh scale smoke: the perf guard (a 1024-core graph500 run
# must finish within the 64-core anchor's wall-clock, bit-identically
# to the REPRO_REFERENCE_ENGINE=1 reference loop) plus the
# BENCH_scale.json artefact.
bench-scale-smoke:
	$(RUN) benchmarks/bench_scale.py

# Perf trend gate: the fresh BENCH_*.json artefacts (regenerated by the
# bench smokes above) must stay within 15% of the committed baselines
# (tools/check_bench_regression.py prints the comparison table).
bench-regression:
	$(RUN) tools/check_bench_regression.py

# End-to-end benchmark self-tests: span accounting, verdicts, the
# pinned storm-64 digests, and that every name the traced run wraps
# still exists — so a change that deletes a wrapped function fails
# here, not at the benchmark gate.
bench-e2e-selftest:
	$(RUN) -m pytest benchmarks/e2e -q

# End-to-end pins: a short run of every benchmark workload at both
# pinned seeds.  A run exits non-zero when a unit's digest differs from
# benchmarks/e2e/pins.json or a campaign drifts from its pins.
E2E_WORKLOADS = paper-64 mega-1024 storm-64 campaign-smoke
bench-e2e-pins:
	for seed in 3 17; do \
		for workload in $(E2E_WORKLOADS); do \
			$(PYTHON) benchmarks/e2e/run.py --workload $$workload \
				--seed $$seed --seconds 3 --trace 0 || exit 1; \
		done; \
	done

# End-to-end A/B between two checkouts of the repository: PAIRS pairs
# of one workload's contract run in each tree, one process at a time,
# then each declared metric's medians, ranges, change and pairs won.
# Exits non-zero when any run fails.  Example:
#   make bench-e2e-ab PARENT=/tmp/parent WORKLOAD=storm-64 PAIRS=10
CHANGE ?= .
PAIRS ?= 3
RUN_SECONDS ?= 30
SEED ?= 3
bench-e2e-ab:
	$(PYTHON) tools/e2e_ab.py $(PARENT) $(CHANGE) --workload $(WORKLOAD) \
		--pairs $(PAIRS) --seconds $(RUN_SECONDS) --seed $(SEED)

# Experiments smoke: the headline campaigns at the CI-fast smoke scale,
# gated against the pinned reference numbers (`--check` exits non-zero
# on drift).  Artifacts land under campaigns/ (CSV/JSON; plots only
# when the optional matplotlib extra is installed).
experiments-smoke:
	$(RUN) -m repro experiments run headline --scale smoke --check \
		--jobs 2 --cache-dir $(CACHE_DIR)

# Replacement-policy zoo smoke: the policy_zoo campaign (lru/arc/twoq
# slices + priority arbiters vs the offline Belady bound) at smoke
# scale, drift-gated against its pinned %-of-OPT and speedup numbers.
policy-smoke:
	$(RUN) -m repro experiments run policy_zoo --scale smoke --check \
		--jobs 2 --cache-dir $(CACHE_DIR)

# The full local gate: tests plus the parallel, observability,
# fault-injection, engine fast-path, sweep data-plane, mega-mesh
# scale, experiment-campaign, and policy-zoo smokes, the end-to-end
# benchmark's self-tests and pins, then the benchmark regression gate
# over the artefacts the bench smokes just regenerated.
verify: test smoke report-smoke faults-smoke bench-engine-smoke \
        bench-sweep-smoke bench-scale-smoke experiments-smoke \
        policy-smoke bench-e2e-selftest bench-e2e-pins bench-regression

bench:
	$(RUN) -m pytest benchmarks/ --benchmark-only

bench-full:
	REPRO_BENCH_FULL=1 $(RUN) -m pytest benchmarks/ --benchmark-only

# Every figure's table is a pin: the figure suite at reduced scale
# rewrites benchmarks/results/*.txt, and any table that differs from
# its committed copy fails the target (the diff shows which numbers
# moved).  About 5 minutes.
bench-figures:
	$(RUN) -m pytest benchmarks --benchmark-only --ignore=benchmarks/e2e -q
	git diff --exit-code -- 'benchmarks/results/*.txt'

bench-faults:
	$(RUN) benchmarks/bench_faults.py

examples:
	for script in examples/*.py; do \
		echo "=== $$script ==="; \
		$(RUN) $$script || exit 1; \
	done

calibrate:
	$(RUN) tools/calibrate.py 16 10000
	$(RUN) tools/calibrate.py 32 8000

# Line totals of the tracked Python files under src/, tests/,
# benchmarks/ and tools/: the net-line numbers a change reports.
loc:
	@for dir in src tests benchmarks tools; do \
		printf '%-12s %6d\n' "$$dir/" \
			"$$(git ls-files -z -- "$$dir/*.py" | xargs -0 cat | wc -l)"; \
	done

cache-clean:
	rm -rf $(CACHE_DIR)

clean: cache-clean
	rm -rf build dist *.egg-info src/*.egg-info .pytest_cache
	find . -name __pycache__ -type d -exec rm -rf {} +
