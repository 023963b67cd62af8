# Developer entry points. Everything runs from the repo root with the
# in-tree package (no install required).

PYTHON ?= python
RUN = PYTHONPATH=src$${PYTHONPATH:+:$$PYTHONPATH} $(PYTHON)

.PHONY: test lint test-crash bench-e2e bench-compare profile docs-check examples unused

## tier-1 test suite (the gate every change must keep green); the ten slowest
## tests are listed at the end of every run
test:
	$(RUN) -m pytest -x -q --durations=10

## lint gate (ruff; configured in pyproject.toml)
lint:
	$(RUN) -m ruff check .

## crash-recovery matrix: kills real CLI runs at every fault point in a
## subprocess and asserts recovery (also part of `make test`; this target
## runs just the durability suites, verbosely)
test-crash:
	$(RUN) -m pytest tests/test_crash_recovery.py tests/test_wal.py \
	    tests/test_mutation_properties.py tests/test_concurrent_writers.py \
	    tests/test_compaction_carry.py -q

## the repo's benchmark (BENCHMARK.json): six workloads, end-to-end metrics
## plus the per-layer split, every read checked; see benchmarks/e2e/README.md
OUT ?= .bench_tmp/e2e.json
bench-e2e:
	mkdir -p $(dir $(OUT))
	$(PYTHON) benchmarks/e2e/run.py --repeats 3 --out $(OUT)

## diff two bench-e2e records: make bench-compare A=before.json B=after.json
bench-compare:
	$(PYTHON) benchmarks/e2e/compare.py $(A) $(B)

## profile of warm passes of one e2e workload: make profile W=job_warm;
## functions by own time (SORT=tottime, the default) or with their callees
## (SORT=cumulative, which shows an operator method's whole share); SEED
## picks the workload's data and statements
W ?= job_warm
SORT ?= tottime
SEED ?= 7
profile:
	$(PYTHON) scripts/profile_workload.py $(W) --sort $(SORT) --seed $(SEED)

## docs gates: every public module has a docstring, README examples execute,
## file and dotted references in README/docs resolve
docs-check:
	$(RUN) scripts/docs_check.py

## src/ functions, classes and methods that nothing outside tests/ names, with
## their test reference counts (a report for pruning, not a gate)
unused:
	$(PYTHON) scripts/unused_defs.py

## run every example end to end (examples bootstrap their own sys.path)
examples:
	for script in examples/*.py; do \
	    echo "== $$script"; $(PYTHON) $$script > /dev/null || exit 1; \
	done
