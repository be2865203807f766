# Convenience targets for the Jumanji reproduction.

PYTHON ?= python

.PHONY: install test check check-faults check-resilience \
	examples figures clean

install:
	pip install -e . --no-build-isolation

test:
	$(PYTHON) -m pytest tests/

# Full gate: the test suite (which checks the paper's claims at smoke
# scale and every accelerated engine bit for bit against its frozen
# scalar reference), the chaos and resilience tests, then the
# paper-scale reproduction: it fails on any failed claim or any byte
# of results/ that differs from the committed files. End-to-end timing
# is the `bench` package (`python3 -m bench run --workload W`).
check:
	PYTHONPATH=src $(PYTHON) -m pytest tests/ -q
	$(MAKE) check-faults
	$(MAKE) check-resilience
	$(MAKE) figures
	git diff --exit-code -- results/

# Chaos drill (seconds, fixed seeds): the slow chaos-marked fault-matrix
# tests (worker stalls, hard deaths, degraded-serial fallback, a kill -9
# of a real sweep). The fast differential clean-vs-chaos sweeps and the
# degraded-runtime drill run with the default test suite.
check-faults:
	PYTHONPATH=src $(PYTHON) -m pytest tests/ -q -m chaos

# Self-healing drill (seconds, fixed seed): every resilience-marked
# test — repair lifecycle, health-aware scheduling tiers, admission
# backpressure, journal semantics, byte-identical resume — including
# the chaos-marked kill -9 of a real `repro fleet run --checkpoint`
# subprocess.
check-resilience:
	PYTHONPATH=src $(PYTHON) -m pytest tests/ -q -m resilience

examples:
	$(PYTHON) examples/quickstart.py
	$(PYTHON) examples/security_audit.py
	$(PYTHON) examples/multi_tenant_consolidation.py
	$(PYTHON) examples/closed_loop_trace_sim.py

# Every artifact at paper scale (40 mixes x 25 epochs; 45-60 s cold on
# 2 CPUs when the host is quiet, 107-156 s when it is busy) into
# results/ plus SUMMARY.md; exits non-zero if any of the paper's claims
# fails.
figures:
	PYTHONPATH=src $(PYTHON) -m repro reproduce --scale paper --out results

# Untracked build and test leftovers only: results/ is committed
# output.
clean:
	rm -rf .pytest_cache .hypothesis
	find . -name __pycache__ -type d -exec rm -rf {} +
