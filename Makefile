# Developer entry points. PYTHONPATH is injected per target so the
# editable layout (src/ + benchmarks/ at the repo root) just works.

PY ?= python
PP := PYTHONPATH=src:.$(if $(PYTHONPATH),:$(PYTHONPATH))

.PHONY: test test-slow test-all lint bench bench-fleet sweep example-fleet example-faults examples doctest

## tier-1: the fast suite (slow-marked fleet stress tests are skipped)
test:
	$(PP) $(PY) -m pytest -x -q

## only the @pytest.mark.slow tests (fleet stress, 2x throughput bar)
test-slow:
	$(PP) $(PY) -m pytest -q -m slow

## everything, slow tests included
test-all:
	$(PP) $(PY) -m pytest -q --runslow

## ruff lint (same invocation as CI); skips gracefully when ruff is absent
lint:
	@if command -v ruff >/dev/null 2>&1; then \
		ruff check src tests benchmarks examples; \
	elif $(PY) -m ruff --version >/dev/null 2>&1; then \
		$(PY) -m ruff check src tests benchmarks examples; \
	else \
		echo "ruff not installed (pip install ruff); skipping lint"; \
	fi

## the study benchmark: all four workloads x 5 rounds, full result in bench-result.json
bench:
	$(PY) -m bench run --out bench-result.json

## regenerate BENCH_fleet.json (scenarios/sec vs sequential baseline)
bench-fleet:
	$(PP) $(PY) -m pytest benchmarks/bench_fleet_throughput.py --benchmark-only -q -s

## the acceptance-criteria grid: 2 problems x 2 delays x 2 policies x 3 seeds
sweep:
	$(PP) $(PY) -m repro sweep --seeds 3 --max-iterations 3000

## runnable fleet-API walkthrough
example-fleet:
	$(PP) $(PY) examples/fleet_sweep.py

## runnable fault-injection walkthrough (convergence vs fault intensity)
example-faults:
	$(PP) $(PY) examples/fault_sweep.py

## executable docs: the package-docstring Quickstart + repro.api doctests
doctest:
	$(PP) $(PY) -m pytest --doctest-modules src/repro/__init__.py src/repro/api/__init__.py -q

## examples smoke pass (the fast subset; CI tier-1 runs this)
examples:
	$(PP) $(PY) examples/quickstart.py
	$(PP) $(PY) examples/fleet_sweep.py
	$(PP) $(PY) examples/fault_sweep.py
	rm -rf /tmp/repro-study-example
	$(PP) $(PY) -m repro study run examples/study.toml --out /tmp/repro-study-example
	$(PP) $(PY) -m repro study report examples/study.toml --out /tmp/repro-study-example
