"""End-to-end seed injection and determinism.

The simulation must be a pure function of its inputs plus one injected
seed: same seed => bit-identical results, different seed => different
randomness, and no run may read or perturb the process-global RNGs
(``random`` / ``numpy.random``) — hidden global state would break the
runner's cache-equivalence guarantee.
"""

import random

import numpy as np
import pytest

from repro.config import SystemConfig
from repro.core.designs import make_design
from repro.core.runtime import JumanjiRuntime
from repro.experiments.common import run_seed
from repro.model.api import run_model
from repro.model.system import SystemModel
from repro.model.workload import make_default_workload


def _workload():
    return make_default_workload(["xapian"], mix_seed=0, load="high")


def _fingerprint(result):
    return (
        repr(result.batch_ipcs()),
        repr({a: result.lc_tail(a) for a in result.lc_deadlines}),
    )


class TestRunDeterminism:
    def test_same_seed_bit_identical(self):
        workload = _workload()
        a = run_model(design="Jumanji", workload=workload, epochs=3, seed=7)
        b = run_model(design="Jumanji", workload=workload, epochs=3, seed=7)
        assert _fingerprint(a) == _fingerprint(b)

    def test_different_seed_differs(self):
        workload = _workload()
        a = run_model(design="Jumanji", workload=workload, epochs=3, seed=7)
        b = run_model(design="Jumanji", workload=workload, epochs=3, seed=8)
        assert _fingerprint(a) != _fingerprint(b)

    def test_global_rng_state_untouched(self):
        random_state = random.getstate()
        np_state = np.random.get_state()[1].tobytes()
        run_model(design="Jumanji", workload=_workload(), epochs=2, seed=3)
        assert random.getstate() == random_state
        assert np.random.get_state()[1].tobytes() == np_state

    def test_runs_insensitive_to_global_rng_state(self):
        """Reseeding the global RNGs must not change simulation output —
        proof that no code path draws from them."""
        workload = _workload()
        random.seed(1)
        np.random.seed(1)
        a = run_model(design="Jumanji", workload=workload, epochs=2, seed=5)
        random.seed(99)
        np.random.seed(99)
        b = run_model(design="Jumanji", workload=workload, epochs=2, seed=5)
        assert _fingerprint(a) == _fingerprint(b)


class TestSeedPlumbing:
    def test_run_seed_mapping(self):
        # base_seed=0 preserves the legacy per-mix seeds exactly.
        for mix in range(5):
            assert run_seed(0, mix) == mix
        # Distinct (base, mix) pairs at sweep scale never collide.
        seen = {
            run_seed(base, mix)
            for base in range(4)
            for mix in range(64)
        }
        assert len(seen) == 4 * 64

    def test_runtime_owns_a_seeded_stream(self):
        design = make_design("Static")
        config = SystemConfig()
        builder = lambda sizes: None  # noqa: E731 - never called here
        a = JumanjiRuntime(design, config, builder, seed=11)
        b = JumanjiRuntime(design, config, builder, seed=11)
        c = JumanjiRuntime(design, config, builder, seed=12)
        assert a.seed == 11
        draws_a = [a.rng.random() for _ in range(8)]
        draws_b = [b.rng.random() for _ in range(8)]
        draws_c = [c.rng.random() for _ in range(8)]
        assert draws_a == draws_b
        assert draws_a != draws_c

    def test_system_model_threads_seed_into_runtime(self):
        model = SystemModel(
            make_design("Jumanji"), _workload(), seed=9
        )
        assert model.runtime.seed == 9

    def test_base_seed_shifts_workload_outcomes(self):
        common = dict(
            design="Jumanji", lc_workload="xapian", load="high",
            mix_seed=0, epochs=2,
        )
        a, _, _ = run_model(base_seed=0, **common)
        b, _, _ = run_model(base_seed=0, **common)
        c, _, _ = run_model(base_seed=1, **common)
        assert repr(a) == repr(b)
        assert repr(a) != repr(c)


class TestReproducePaperScript:
    def test_cli_accepts_seed_and_jobs(self, monkeypatch, tmp_path):
        import importlib.util
        import pathlib

        from repro.experiments import report

        path = (
            pathlib.Path(__file__).resolve().parent.parent
            / "examples" / "reproduce_paper.py"
        )
        spec = importlib.util.spec_from_file_location(
            "reproduce_paper", path
        )
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)

        calls = []

        def reproduce(scale, out, seed, jobs, log):
            calls.append((scale.name, seed, jobs))
            return {}

        monkeypatch.setattr(report, "reproduce", reproduce)
        out = str(tmp_path)
        assert module.main(
            ["--seed", "3", "--jobs", "2", "--scale", "smoke", "--out", out]
        ) == 0
        assert calls[-1] == ("smoke", 3, 2)

        monkeypatch.setenv("REPRO_SEED", "17")
        assert module.main(["--out", out]) == 0
        assert calls[-1] == ("paper", 17, None)
