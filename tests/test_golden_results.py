"""Golden regression tests: committed results/ pinned to model output.

``tests/golden_results.json`` stores full-precision headline numbers for
the two reports the paper's story hangs on:

* Fig. 13 — gmean batch weighted speedup per design for the
  (xapian, high-load) slice at the committed ``paper`` scale (40
  mixes, 25 epochs);
* Fig. 12 — the performance-leakage spreads (shared vs isolated) and
  the per-mix normalised tails.

The tests recompute these numbers from the model and require agreement
within 1e-9 — any drift in simulation arithmetic, seeding, or the
runner's cache keys fails loudly. They then check the committed
``results/fig13.txt`` / ``results/fig12.txt`` reports contain exactly
the 3-decimal renderings of the golden values, so the text artifacts
can never silently diverge from the model.

After an *intentional* model change, regenerate both with::

    PYTHONPATH=src python tests/test_golden_results.py
    PYTHONPATH=src python -m repro reproduce --scale paper --out results
"""

import json
import pathlib
import re

import pytest

from repro.experiments import fig12
from repro.experiments.common import DEFAULT_DESIGNS, PAPER, run_sweep
from repro.runner import ResultCache, SweepRunner

REPO = pathlib.Path(__file__).resolve().parent.parent
GOLDEN_PATH = REPO / "tests" / "golden_results.json"
TOL = 1e-9


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN_PATH.read_text())


def _fig13_slice(scale, cache_dir):
    runner = SweepRunner(jobs=2, cache=ResultCache(cache_dir))
    return run_sweep(
        designs=DEFAULT_DESIGNS,
        lc_workloads=(scale["lc_workload"],),
        loads=(scale["load"],),
        mixes=scale["mixes"],
        epochs=scale["epochs"],
        base_seed=scale["base_seed"],
        runner=runner,
    )


@pytest.fixture(scope="module")
def fig13_gmeans(golden, tmp_path_factory):
    scale = golden["fig13"]["scale"]
    sweep = _fig13_slice(scale, tmp_path_factory.mktemp("golden-cache"))
    return {
        d: sweep.gmean_speedup(d, scale["lc_workload"], scale["load"])
        for d in DEFAULT_DESIGNS
        if d != "Static"
    }


@pytest.fixture(scope="module")
def fig12_result(golden):
    scale = golden["fig12"]["scale"]
    return fig12.run(
        num_mixes=scale["num_mixes"],
        accesses=scale["accesses"],
        seed=scale["seed"],
    )


class TestFig13Golden:
    def test_model_matches_golden(self, golden, fig13_gmeans):
        pinned = golden["fig13"]["gmean_speedup"]
        assert set(fig13_gmeans) == set(pinned)
        for design, value in fig13_gmeans.items():
            assert value == pytest.approx(pinned[design], abs=TOL)

    def test_committed_report_matches_golden(self, golden):
        """The xapian/high gmean lines of results/fig13.txt are the
        3-decimal renderings of the golden numbers."""
        text = (REPO / "results" / "fig13.txt").read_text()
        scale = golden["fig13"]["scale"]
        high = text.split("--- load: low")[0]
        speedups = high.split("batch weighted speedup")[1]
        block = re.search(
            rf"^  {re.escape(scale['lc_workload'])}:\n((?:    .+\n?)+)",
            speedups,
            re.MULTILINE,
        )
        assert block, "xapian speedup block missing from fig13.txt"
        reported = dict(
            re.findall(
                r"^    (\S[^\[]*?)\s+\[.*\] gmean=(\d+\.\d{3})",
                block.group(1),
                re.MULTILINE,
            )
        )
        pinned = golden["fig13"]["gmean_speedup"]
        assert set(reported) == set(pinned)
        for design, text_value in reported.items():
            assert text_value == f"{pinned[design]:.3f}"


class TestFig12Golden:
    def test_model_matches_golden(self, golden, fig12_result):
        pinned = golden["fig12"]
        assert fig12_result.shared_spread == pytest.approx(
            pinned["shared_spread"], abs=TOL
        )
        assert fig12_result.isolated_spread == pytest.approx(
            pinned["isolated_spread"], abs=TOL
        )
        assert len(fig12_result.shared_tails) == len(
            pinned["shared_tails"]
        )
        for got, want in zip(
            fig12_result.shared_tails, pinned["shared_tails"]
        ):
            assert got == pytest.approx(want, abs=TOL)
        for got, want in zip(
            fig12_result.isolated_tails, pinned["isolated_tails"]
        ):
            assert got == pytest.approx(want, abs=TOL)

    def test_committed_report_matches_golden(self, golden):
        text = (REPO / "results" / "fig12.txt").read_text()
        match = re.search(
            r"spread: shared (\d+\.\d{3}) vs isolated (\d+\.\d{3})",
            text,
        )
        assert match, "spread line missing from fig12.txt"
        pinned = golden["fig12"]
        assert match.group(1) == f"{pinned['shared_spread']:.3f}"
        assert match.group(2) == f"{pinned['isolated_spread']:.3f}"


def _regenerate() -> None:
    """Rewrite golden_results.json from the current model."""
    import tempfile

    scale13 = {"lc_workload": "xapian", "load": "high",
               "mixes": PAPER.mixes, "epochs": PAPER.epochs,
               "base_seed": 0}
    scale12 = {"num_mixes": 12, "accesses": 16000, "seed": 3}
    with tempfile.TemporaryDirectory() as cache_dir:
        sweep = _fig13_slice(scale13, cache_dir)
    r12 = fig12.run(
        num_mixes=scale12["num_mixes"],
        accesses=scale12["accesses"],
        seed=scale12["seed"],
    )
    golden = {
        "_comment": "Golden headline numbers pinning the committed "
                    "results/ reports to model output. Regenerate with "
                    "PYTHONPATH=src python tests/test_golden_results.py "
                    "after an intentional model change.",
        "fig13": {
            "scale": scale13,
            "gmean_speedup": {
                d: sweep.gmean_speedup(
                    d, scale13["lc_workload"], scale13["load"]
                )
                for d in DEFAULT_DESIGNS
                if d != "Static"
            },
        },
        "fig12": {
            "scale": scale12,
            "shared_spread": r12.shared_spread,
            "isolated_spread": r12.isolated_spread,
            "shared_tails": r12.shared_tails,
            "isolated_tails": r12.isolated_tails,
        },
    }
    GOLDEN_PATH.write_text(json.dumps(golden, indent=2) + "\n")
    print(f"wrote {GOLDEN_PATH}")


if __name__ == "__main__":
    _regenerate()
