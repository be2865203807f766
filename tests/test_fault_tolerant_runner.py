"""Fault-tolerant runner tests: retries, crash recovery, corrupt-cache
quarantine, resume from the cache, and the chaos differential.

The guiding invariant: fault recovery may change *cost* (retries, pool
respawns, wall time) but never *results* — a sweep that suffered
injected crashes, timeouts, and corrupt cache entries must be
bit-identical to a clean run. Slow fault-matrix cases (worker stalls,
hard ``os._exit`` deaths, degraded-serial fallback, a ``kill -9`` of a
real ``repro figure``) carry the ``chaos`` marker and run via
``pytest -m chaos`` / ``make check-faults``.
"""

import os
import pathlib
import signal
import subprocess
import sys
import time

import pytest

from repro.errors import (
    CellCrashed,
    CellFailed,
    CellTimeout,
    ConfigError,
)
from repro.faults import FaultPlan
from repro.runner import (
    Cell,
    ResultCache,
    RetryPolicy,
    SweepRunner,
    cell_key,
    register_cell_kind,
    resolve_jobs,
)


@register_cell_kind("probe_square")
def _probe_square(x):
    return {"x": x, "sq": x * x}


SRC = pathlib.Path(__file__).resolve().parent.parent / "src"


def _cells(n=6):
    return [Cell("probe_square", {"x": i}) for i in range(n)]


def _fast_policy(**kwargs):
    defaults = dict(retries=8, backoff_seconds=0.002)
    defaults.update(kwargs)
    return RetryPolicy(**defaults)


def _expected(n=6):
    return [{"x": i, "sq": i * i} for i in range(n)]


class TestResolveJobs:
    """Satellite: garbage REPRO_JOBS / args fail with a clear error."""

    @pytest.mark.parametrize("env", ["banana", "2.5", "", " ", "0", "-3"])
    def test_garbage_env_rejected_or_ignored(self, monkeypatch, env):
        monkeypatch.setenv("REPRO_JOBS", env)
        if env.strip() == "":
            # Blank is "unset", not garbage.
            assert resolve_jobs() >= 1
        else:
            with pytest.raises(ConfigError, match="REPRO_JOBS"):
                resolve_jobs()

    def test_valid_env_used(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "3")
        assert resolve_jobs() == 3

    def test_explicit_arg_beats_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "banana")
        assert resolve_jobs(2) == 2

    @pytest.mark.parametrize("bad", [0, -1, 2.5, True, "4"])
    def test_garbage_arg_rejected(self, bad):
        with pytest.raises(ConfigError):
            resolve_jobs(bad)

    def test_config_error_is_a_value_error(self):
        # Callers that predate the taxonomy catch ValueError.
        with pytest.raises(ValueError):
            resolve_jobs(0)


class TestRetryPolicy:
    def test_validation(self):
        with pytest.raises(ConfigError):
            RetryPolicy(retries=-1)
        with pytest.raises(ConfigError):
            RetryPolicy(timeout_seconds=0)
        with pytest.raises(ConfigError):
            RetryPolicy(backoff_seconds=-0.1)

    def test_backoff_doubles(self):
        policy = RetryPolicy(backoff_seconds=0.1)
        assert policy.backoff_for(1) == pytest.approx(0.1)
        assert policy.backoff_for(2) == pytest.approx(0.2)
        assert policy.backoff_for(3) == pytest.approx(0.4)

    def test_env_timeout(self, monkeypatch):
        monkeypatch.setenv("REPRO_CELL_TIMEOUT", "1.5")
        assert RetryPolicy.from_env().timeout_seconds == 1.5
        monkeypatch.setenv("REPRO_CELL_TIMEOUT", "soon")
        with pytest.raises(ConfigError, match="REPRO_CELL_TIMEOUT"):
            RetryPolicy.from_env()


class TestCacheCorruption:
    """Satellite: corrupt cache entries are quarantined, not fatal."""

    def _seed_cache(self, tmp_path):
        cache = ResultCache(tmp_path)
        runner = SweepRunner(jobs=1, cache=cache)
        results = runner.map(_cells())
        assert results == _expected()
        return cache

    def test_truncated_entry_recomputed(self, tmp_path):
        cache = self._seed_cache(tmp_path)
        key = cell_key(_cells()[2])
        path = cache._path(key)
        path.write_bytes(path.read_bytes()[: len(path.read_bytes()) // 2])

        runner = SweepRunner(jobs=1, cache=cache)
        assert runner.map(_cells()) == _expected()
        assert runner.stats.quarantined == 1
        assert cache.corrupt_detected == 1
        assert len(cache.quarantined()) == 1
        # The recomputed entry is valid again.
        assert cache.get(key)["value"] == {"x": 2, "sq": 4}

    def test_garbage_entry_recomputed(self, tmp_path):
        cache = self._seed_cache(tmp_path)
        key = cell_key(_cells()[0])
        cache._path(key).write_bytes(b"not a cache entry at all")

        runner = SweepRunner(jobs=1, cache=cache)
        assert runner.map(_cells()) == _expected()
        assert runner.stats.quarantined == 1

    def test_valid_checksum_bad_pickle_recomputed(self, tmp_path):
        import hashlib

        from repro.runner import _CACHE_MAGIC

        cache = self._seed_cache(tmp_path)
        key = cell_key(_cells()[1])
        payload = b"\x80\x04garbage-that-is-not-a-pickle"
        cache._path(key).write_bytes(
            _CACHE_MAGIC + hashlib.sha256(payload).digest() + payload
        )
        runner = SweepRunner(jobs=1, cache=cache)
        assert runner.map(_cells()) == _expected()
        assert runner.stats.quarantined == 1

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_quarantine_counted_when_the_attempt_then_fails(
        self, tmp_path, jobs
    ):
        # The attempt that moves the corrupt entry aside then fails (an
        # injected error after the miss); the retry finds no entry.
        cache = self._seed_cache(tmp_path)
        key = cell_key(_cells()[0])
        cache._path(key).write_bytes(b"not a cache entry at all")
        plan = next(
            p for p in (FaultPlan(seed=s, cell_error=0.5) for s in range(99))
            if p.fires("cell_error", key, 0)
            and not p.fires("cell_error", key, 1)
        )
        runner = SweepRunner(
            jobs=jobs, cache=cache, fault_plan=plan, policy=_fast_policy()
        )
        assert runner.map(_cells()) == _expected()
        assert (runner.stats.retries, runner.stats.quarantined) == (1, 1)

    def test_injected_corruption_differential(self, tmp_path):
        plan = FaultPlan(seed=2, cache_corrupt=0.8)
        runner = SweepRunner(
            jobs=1, cache=ResultCache(tmp_path), fault_plan=plan,
            policy=_fast_policy(),
        )
        assert runner.map(_cells()) == _expected()
        # Second pass reads the corrupted entries: quarantine + recompute.
        runner2 = SweepRunner(
            jobs=1, cache=ResultCache(tmp_path), fault_plan=plan,
            policy=_fast_policy(),
        )
        assert runner2.map(_cells()) == _expected()
        assert runner2.stats.quarantined > 0


class TestRetries:
    def test_injected_errors_converge_serial(self, tmp_path):
        # Fault rolls hash the code fingerprint (see the parallel
        # variant below), so a single pinned seed can exhaust a cell's
        # retries after unrelated source changes; use the same
        # multi-seed moderate-probability pattern instead.
        retries = 0
        retry_events = 0
        for plan_seed in range(4, 8):
            plan = FaultPlan(seed=plan_seed, cell_error=0.3)
            runner = SweepRunner(
                jobs=1,
                cache=ResultCache(tmp_path / str(plan_seed)),
                fault_plan=plan,
                policy=_fast_policy(),
            )
            assert runner.map(_cells()) == _expected()
            retries += runner.stats.retries
            retry_events += sum(
                1 for e in runner.events if e["event"] == "cell_retry"
            )
        assert retries > 0
        assert retry_events > 0

    def test_injected_crashes_converge_parallel(self, tmp_path):
        # Fault rolls hash the code fingerprint, so whether a given
        # plan seed fires shifts with unrelated source changes; try a
        # few seeds (deterministically) and require that every run
        # converges and at least one actually injected crashes. The
        # crash probability is kept moderate so no cell plausibly
        # crashes on all 9 attempts and exhausts its retries.
        retries = 0
        for plan_seed in range(6, 10):
            plan = FaultPlan(seed=plan_seed, worker_crash=0.3)
            runner = SweepRunner(
                jobs=2,
                cache=ResultCache(tmp_path / str(plan_seed)),
                fault_plan=plan,
                policy=_fast_policy(),
            )
            assert runner.map(_cells()) == _expected()
            retries += runner.stats.retries
        assert retries > 0

    def test_exhausted_retries_raise_cell_failed(self, tmp_path):
        plan = FaultPlan(seed=1, cell_error=1.0)
        runner = SweepRunner(
            jobs=1, cache=ResultCache(tmp_path), fault_plan=plan,
            policy=_fast_policy(retries=2),
        )
        with pytest.raises(CellFailed) as info:
            runner.map(_cells(2))
        assert info.value.kind == "probe_square"
        assert info.value.attempts == 3

    def test_exhausted_retries_raise_cell_crashed(self, tmp_path):
        plan = FaultPlan(seed=1, worker_crash=1.0)
        runner = SweepRunner(
            jobs=2, cache=ResultCache(tmp_path), fault_plan=plan,
            policy=_fast_policy(retries=1),
        )
        with pytest.raises(CellCrashed):
            runner.map(_cells(3))


class TestCacheResume:
    def test_rerun_recomputes_only_unfinished_and_rotted_cells(
        self, tmp_path
    ):
        """The cache is the runner's only durable state: a sweep killed
        after a prefix of its cells resumes by running it again, and a
        finished cell whose entry rotted is recomputed, not trusted."""
        cache = ResultCache(tmp_path)
        assert SweepRunner(jobs=1, cache=cache).map(_cells()[:3]) == (
            _expected()[:3]
        )
        cache._path(cell_key(_cells()[1])).write_bytes(b"rotted")

        resumed = SweepRunner(jobs=1, cache=cache)
        assert resumed.map(_cells()) == _expected()
        assert resumed.stats.computed == 3 + 1
        assert resumed.stats.cache_hits == 2
        assert resumed.stats.quarantined == 1


class TestChaosDifferential:
    def test_small_sweep_identical_under_faults(self, tmp_path):
        from repro.chaos import differential_sweep
        from repro.experiments.common import workload_cell
        from repro.runner import _corrupt_entry

        plan = FaultPlan(
            seed=0, worker_crash=0.3, cell_error=0.2, cache_corrupt=0.4,
        )
        sweep = dict(
            designs=("Static", "Jumanji"),
            lc_workloads=("xapian",),
            loads=("high",),
            mixes=2,
            epochs=2,
        )
        clean = SweepRunner(
            jobs=2, cache=ResultCache(tmp_path / "clean")
        )
        faulty = SweepRunner(
            jobs=2,
            cache=ResultCache(tmp_path / "chaos"),
            policy=_fast_policy(),
            fault_plan=plan,
        )
        identical, clean_outcomes, faulty_outcomes = differential_sweep(
            clean, faulty, **sweep
        )
        assert identical
        assert len(clean_outcomes) == 2 * 2

        # Warm pass over a cache with a planted corrupt entry: it is
        # quarantined and recomputed, and the outcomes stay identical.
        # The entry is rewritten clean first, since the plan may have
        # corrupted it already and a second corruption could undo that.
        key = cell_key(workload_cell("Jumanji", "xapian", "high", 0, 2))
        faulty.cache.put(key, clean.cache.get(key)["value"], 0.0)
        _corrupt_entry(faulty.cache, key)
        warm = SweepRunner(
            jobs=2,
            cache=faulty.cache,
            policy=_fast_policy(),
            fault_plan=plan,
        )
        identical, _, _ = differential_sweep(clean, warm, **sweep)
        assert identical
        assert warm.stats.quarantined >= 1


@pytest.mark.chaos
class TestChaosMatrix:
    """Slow fault-matrix cases: stalls, hard deaths, degraded serial."""

    def test_stalled_workers_respawn_and_converge(self, tmp_path):
        plan = FaultPlan(seed=8, cell_stall=0.5, stall_seconds=5.0)
        runner = SweepRunner(
            jobs=2,
            cache=ResultCache(tmp_path),
            fault_plan=plan,
            policy=_fast_policy(timeout_seconds=0.3, poll_interval=0.01),
        )
        assert runner.map(_cells()) == _expected()
        assert runner.stats.pool_respawns >= 1
        assert any(
            e["event"] == "pool_respawn" for e in runner.events
        )

    def test_hard_worker_deaths_recovered_by_timeout(self, tmp_path):
        # Fault rolls hash the code fingerprint, so any source change
        # re-rolls which attempts die; a single seed can land on zero
        # injected deaths. Run several plans — every run must converge,
        # and at least one hard death must have forced a pool respawn.
        # hard_crash=0.4 keeps 9-attempt exhaustion negligible
        # (0.4^9 ~ 3e-4 per cell) while P(no death anywhere) is
        # ~(0.6^6)^4 ~ 5e-6.
        respawns = 0
        for plan_seed in range(12, 16):
            plan = FaultPlan(seed=plan_seed, hard_crash=0.4)
            runner = SweepRunner(
                jobs=2,
                cache=ResultCache(tmp_path / str(plan_seed)),
                fault_plan=plan,
                policy=_fast_policy(
                    timeout_seconds=0.4, poll_interval=0.01
                ),
            )
            assert runner.map(_cells()) == _expected()
            respawns += runner.stats.pool_respawns
        assert respawns >= 1

    def test_unhealthy_pool_degrades_to_serial(self, tmp_path):
        # Stall every attempt: the pool can never make progress, so
        # after max_pool_respawns the runner must fall back to inline
        # execution (where stalls are not injected) and still finish.
        plan = FaultPlan(seed=3, cell_stall=1.0, stall_seconds=5.0)
        runner = SweepRunner(
            jobs=2,
            cache=ResultCache(tmp_path),
            fault_plan=plan,
            policy=_fast_policy(
                timeout_seconds=0.25,
                poll_interval=0.01,
                max_pool_respawns=1,
                retries=20,
            ),
        )
        assert runner.map(_cells()) == _expected()
        assert runner.stats.degraded_cells > 0
        assert any(
            e["event"] == "degraded_serial" for e in runner.events
        )

    def test_timeout_exhaustion_raises_cell_timeout(self, tmp_path):
        plan = FaultPlan(seed=3, cell_stall=1.0, stall_seconds=5.0)
        runner = SweepRunner(
            jobs=2,
            cache=ResultCache(tmp_path),
            fault_plan=plan,
            policy=_fast_policy(
                timeout_seconds=0.25,
                poll_interval=0.01,
                retries=1,
                max_pool_respawns=50,
            ),
        )
        with pytest.raises(CellTimeout):
            runner.map(_cells(3))

    def test_full_fault_matrix_differential(self, tmp_path):
        from repro.chaos import differential_sweep

        clean = SweepRunner(
            jobs=2, cache=ResultCache(tmp_path / "clean")
        )
        faulty = SweepRunner(
            jobs=2,
            cache=ResultCache(tmp_path / "chaos"),
            policy=_fast_policy(
                timeout_seconds=2.0, poll_interval=0.01, retries=10
            ),
            fault_plan=FaultPlan(
                seed=1,
                worker_crash=0.2,
                hard_crash=0.1,
                cell_stall=0.1,
                stall_seconds=3.0,
                cell_error=0.2,
                cache_corrupt=0.3,
            ),
        )
        identical, clean_outcomes, _ = differential_sweep(
            clean,
            faulty,
            designs=("Static", "Jumanji"),
            lc_workloads=("xapian",),
            loads=("high",),
            mixes=2,
            epochs=2,
        )
        assert identical
        assert len(clean_outcomes) == 4


@pytest.mark.chaos
class TestKillMinusNine:
    """SIGKILL a real ``repro figure`` mid-sweep and run it again: the
    rerun resumes from the result cache alone and prints the bytes an
    uninterrupted run prints on a fresh cache."""

    ARGS = ["figure", "fig13", "--scale", "smoke", "--jobs", "2"]

    def _command(self, cache):
        env = dict(
            os.environ, PYTHONPATH=str(SRC), REPRO_CACHE_DIR=str(cache)
        )
        return [sys.executable, "-m", "repro"] + self.ARGS, env

    def _run(self, cache):
        argv, env = self._command(cache)
        return subprocess.run(
            argv, capture_output=True, text=True, env=env, timeout=600
        )

    def test_sigkill_then_rerun_matches_uninterrupted(self, tmp_path):
        cache = ResultCache(tmp_path / "killed")
        argv, env = self._command(cache.directory)
        proc = subprocess.Popen(
            argv, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
            env=env,
        )
        try:
            # Wait for the first cached cells, then kill -9 mid-sweep.
            deadline = time.monotonic() + 300
            while time.monotonic() < deadline and proc.poll() is None:
                if cache.size() > 0:
                    break
                time.sleep(0.02)
            assert proc.poll() is None, (
                "sweep finished before it could be killed; grow it"
            )
            proc.send_signal(signal.SIGKILL)
            assert proc.wait(timeout=60) == -signal.SIGKILL
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait(timeout=60)
        survived = cache.size()
        assert survived > 0

        resumed = self._run(cache.directory)
        assert resumed.returncode == 0, resumed.stderr
        fresh = ResultCache(tmp_path / "fresh")
        uninterrupted = self._run(fresh.directory)
        assert uninterrupted.returncode == 0, uninterrupted.stderr
        assert resumed.stdout == uninterrupted.stdout
        # The rerun added only the cells the kill left unfinished.
        assert survived < cache.size() == fresh.size()
