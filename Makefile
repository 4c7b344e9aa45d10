# Developer entry points.  PYTHONPATH is set so no editable install is
# needed; `repro-study bench` wraps the same pytest invocations.

PYTHON ?= python
export PYTHONPATH := src

.PHONY: test coverage faults bench bench-quick bench-scaling bench-scale

test:            ## tier-1 suite (fast; what CI gates on)
	$(PYTHON) -m pytest -x -q

coverage:        ## tier-1 suite under coverage; fails under the 80% floor
	@if $(PYTHON) -c "import pytest_cov" 2>/dev/null; then \
		$(PYTHON) -m pytest -q --cov=repro --cov-report=term-missing; \
	else \
		echo "pytest-cov not installed; using stdlib fallback tracer"; \
		$(PYTHON) tools/simple_cov.py --fail-under 80; \
	fi

faults:          ## fault-injection drills (crash/timeout recovery, skip policy)
	$(PYTHON) -m pytest tests/test_runtime_faults.py -q

bench:           ## full benchmark suite, including slow MANET runs
	$(PYTHON) -m pytest benchmarks -q

bench-quick:     ## benchmarks without the slow MANET simulations
	$(PYTHON) -m pytest benchmarks -q -m "not slow"

bench-scaling:   ## just the runtime scaling record (BENCH_runtime_scaling.json)
	$(PYTHON) -m pytest benchmarks/test_runtime_scaling.py -q -s

bench-scale:     ## out-of-core RSS record, quick + 100k tiers (BENCH_scale.json)
	$(PYTHON) -m pytest benchmarks/test_scale.py -q
