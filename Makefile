# Convenience targets for the Jumanji reproduction.

PYTHON ?= python

.PHONY: install test check check-faults check-resilience \
	bench-tracesim bench-model bench-obs examples figures clean

install:
	pip install -e . --no-build-isolation

test:
	$(PYTHON) -m pytest tests/

# Full gate: the test suite (which checks the paper's claims at smoke
# scale), every `repro bench` suite at smoke scale (bench-tracesim,
# bench-model, bench-obs), the chaos and resilience tests, then the
# paper-scale reproduction: it fails on any failed claim or any byte
# of results/ that differs from the committed files.
check:
	PYTHONPATH=src $(PYTHON) -m pytest tests/ -q
	$(MAKE) bench-tracesim
	$(MAKE) bench-model
	$(MAKE) bench-obs
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

# Tiny trace-simulator benchmark (seconds): times the array-backed
# fast path against the frozen scalar reference on identical replayed
# streams and shards two seed runs through a throwaway result cache.
# Writes to an untracked path so the committed default-scale
# BENCH_tracesim.json (regenerate with
# `python -m repro bench --suite tracesim`) survives.
bench-tracesim:
	PYTHONPATH=src $(PYTHON) -m repro bench --suite tracesim \
	  --accesses 1000 --seeds 2 --output BENCH_tracesim_smoke.json

# Tiny epoch-engine benchmark (seconds): runs every fig13 design under
# both the vectorised fast engine and the frozen scalar reference on
# one small mix and exits non-zero if the two diverge bit-for-bit
# (stats_identical gate). Writes to an untracked path so the committed
# default-scale BENCH_model.json (regenerate with
# `python -m repro bench --suite model`) survives.
bench-model:
	PYTHONPATH=src $(PYTHON) -m repro bench --suite model \
	  --mixes 1 --epochs 4 --output BENCH_model_smoke.json

# Observability gate (seconds): instrumentation must cost <2% with
# tracing disabled (vs a fully stubbed run). Exits non-zero on a gate
# failure. Writes to an untracked path so the committed default-scale
# BENCH_obs.json (regenerate with `python -m repro bench --suite obs`)
# survives.
bench-obs:
	PYTHONPATH=src $(PYTHON) -m repro bench --suite obs \
	  --epochs 4 --output BENCH_obs_smoke.json

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

# Untracked build and test leftovers only (the smoke reports of
# `make check` included): results/ and the default-scale BENCH_*.json
# reports are committed output.
clean:
	rm -rf .pytest_cache .hypothesis BENCH_*_smoke.json BENCH_*.prof
	find . -name __pycache__ -type d -exec rm -rf {} +
