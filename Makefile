# Convenience targets for the Jumanji reproduction.

PYTHON ?= python

.PHONY: install test check check-faults check-resilience \
	bench-tracesim bench-model bench-obs bench-fleet bench-serve \
	examples figures clean

install:
	pip install -e . --no-build-isolation

test:
	$(PYTHON) -m pytest tests/

# Full gate: the test suite (which checks the paper's claims at smoke
# scale), every `repro bench` suite at smoke scale (bench-tracesim ...
# bench-serve, check-faults), then the paper-scale reproduction: it
# fails on any failed claim or any byte of results/ that differs from
# the committed files.
check:
	PYTHONPATH=src $(PYTHON) -m pytest tests/ -q
	$(MAKE) bench-tracesim
	$(MAKE) bench-model
	$(MAKE) bench-obs
	$(MAKE) bench-fleet
	$(MAKE) bench-serve
	$(MAKE) check-faults
	$(MAKE) check-resilience
	$(MAKE) figures
	git diff --exit-code -- results/

# Chaos smoke (seconds, fixed seed): the fault-injection bench suite —
# differential clean-vs-chaos sweeps on throwaway caches plus the
# degraded-runtime drill — then the slow chaos-marked fault-matrix
# tests (worker stalls, hard deaths, degraded-serial fallback).
check-faults:
	PYTHONPATH=src $(PYTHON) -m repro bench --suite faults \
	  --mixes 1 --epochs 2 --output BENCH_faults_smoke.json
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
# Writes to a scratch path so the committed default-scale
# BENCH_tracesim.json (regenerate with
# `python -m repro bench --suite tracesim`) survives.
bench-tracesim:
	PYTHONPATH=src $(PYTHON) -m repro bench --suite tracesim \
	  --accesses 1000 --seeds 2 --output BENCH_tracesim_smoke.json

# Tiny epoch-engine benchmark (seconds): runs every fig13 design under
# both the vectorised fast engine and the frozen scalar reference on
# one small mix and exits non-zero if the two diverge bit-for-bit
# (stats_identical gate). Writes to a scratch path so the committed
# default-scale BENCH_model.json (regenerate with
# `python -m repro bench --suite model`) survives.
bench-model:
	PYTHONPATH=src $(PYTHON) -m repro bench --suite model \
	  --mixes 1 --epochs 4 --output BENCH_model_smoke.json

# Observability gate (seconds): instrumentation must cost <2% with
# tracing disabled (vs a fully stubbed run), an enabled run must cover
# every required span, and same-seed metric snapshots must be
# identical. Exits non-zero on any gate failure.
bench-obs:
	PYTHONPATH=src $(PYTHON) -m repro bench --suite obs \
	  --epochs 4 --output BENCH_obs_smoke.json

# Rack-scale fleet gate (seconds, fixed seed): one churn + flash +
# chip-failure scenario run twice through the hierarchical epoch loop;
# exits non-zero if the two canonical results differ byte-for-byte,
# any conservation/capacity/isolation invariant breaks, the
# failure-storm scenario ends without completed repairs (with repaired
# chips back in service and zero violations), or a run killed mid-way
# fails to resume byte-identically from its journal. Writes to a
# scratch path so the committed default-scale BENCH_fleet.json
# (regenerate with `python -m repro bench --suite fleet`) survives.
bench-fleet:
	PYTHONPATH=src $(PYTHON) -m repro bench --suite fleet \
	  --chips 8 --epochs 6 --output BENCH_fleet_smoke.json

# Placement-service gate (seconds, fixed seed): an in-process daemon
# is driven twice by the same seeded synthetic-tenant load; exits
# non-zero if any run records a client error or invariant violation,
# or the two decision sequences differ byte-for-byte. Writes to a
# scratch path so the committed default-scale BENCH_serve.json
# (regenerate with `python -m repro bench --suite serve`) survives.
bench-serve:
	PYTHONPATH=src $(PYTHON) -m repro bench --suite serve \
	  --tenants 4 --requests 5 --output BENCH_serve_smoke.json

examples:
	$(PYTHON) examples/quickstart.py
	$(PYTHON) examples/security_audit.py
	$(PYTHON) examples/multi_tenant_consolidation.py
	$(PYTHON) examples/closed_loop_trace_sim.py

# Every artifact at paper scale (40 mixes x 25 epochs; about two
# minutes cold on 2 CPUs) into results/ plus SUMMARY.md; exits non-zero
# if any of the paper's claims fails.
figures:
	PYTHONPATH=src $(PYTHON) -m repro reproduce --scale paper --out results

# Untracked build and test leftovers only: results/ and the BENCH_*.json
# reports are committed output.
clean:
	rm -rf .pytest_cache .hypothesis BENCH_serve_smoke.json BENCH_*.prof
	find . -name __pycache__ -type d -exec rm -rf {} +
