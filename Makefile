# Common developer targets.
PYTHON ?= python

.PHONY: install test lint analyze bench figures examples serve-demo clean

install:
	$(PYTHON) -m pip install -e . || $(PYTHON) setup.py develop

test:
	$(PYTHON) -m pytest tests/

# Static checks: ruff + mypy over src/, plus the repo's own assembly linter
# over every bundled workload.  ruff/mypy are skipped (with a notice) when
# not installed so the target stays usable in minimal environments.
lint:
	@if $(PYTHON) -m ruff --version >/dev/null 2>&1; then \
		$(PYTHON) -m ruff check src tests; \
	else echo "ruff not installed; skipping (pip install ruff)"; fi
	@if $(PYTHON) -m mypy --version >/dev/null 2>&1; then \
		$(PYTHON) -m mypy; \
	else echo "mypy not installed; skipping (pip install mypy)"; fi
	PYTHONPATH=src $(PYTHON) -m repro.cli lint

# Predictability analysis cross-validated against the simulator: every
# conditional site's dynamic per-scheme accuracy must land inside its
# static bound and the static H2P top-5 must match the dynamic ranking,
# for all 14 workload variants.
analyze:
	PYTHONPATH=src $(PYTHON) -m repro.cli analyze --cross-validate --scale 8000

bench:
	$(PYTHON) -m pytest benchmarks/ --benchmark-only

figures:
	$(PYTHON) -m repro run all --scale 50000

examples:
	@for example in examples/*.py; do echo "== $$example"; $(PYTHON) $$example; done

# Small end-to-end run of the prediction service: 6 sessions multiplexed
# over 2 connections into a 2-worker pre-fork pool,
# served-vs-offline parity verified; appends a trend entry.
serve-demo:
	PYTHONPATH=src $(PYTHON) -m repro bench-serve --sessions 6 --scale 2000 --workers 2 --connections 2 -o BENCH_serve.json

clean:
	rm -rf .trace_cache .pytest_cache .benchmarks .hypothesis
	find . -name __pycache__ -type d -exec rm -rf {} +
