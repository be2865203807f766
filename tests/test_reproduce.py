"""The paper's claims as a gate: the whole reproduction at smoke scale.

``repro reproduce --scale smoke`` runs every row of
:data:`repro.experiments.report.ARTIFACTS` on a throwaway result cache
and output directory; every claim of every artifact must hold. The
committed ``results/`` are the same rows at ``paper`` scale, gated byte
for byte by ``make check``.
"""

import pytest

from repro.experiments.common import SCALES
from repro.experiments.report import ARTIFACTS, header, reproduce

SMOKE = SCALES["smoke"]


@pytest.fixture(scope="module")
def reproduced(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("reproduce")
    with pytest.MonkeyPatch.context() as patch:
        patch.setenv("REPRO_CACHE_DIR", str(tmp / "cache"))
        claims = reproduce(SMOKE, tmp / "results", seed=0, jobs=2)
    return tmp / "results", claims


@pytest.mark.parametrize("stem", [a.stem for a in ARTIFACTS])
def test_claims_hold_at_smoke_scale(reproduced, stem):
    _out, claims = reproduced
    assert claims[stem], f"{stem} has no claims"
    failed = [(c.name, c.value) for c in claims[stem] if not c.ok]
    assert not failed


def test_every_artifact_is_written_with_its_scale(reproduced):
    out, claims = reproduced
    stems = [a.stem for a in ARTIFACTS]
    assert sorted(p.name for p in out.iterdir()) == sorted(
        [f"{s}.txt" for s in stems] + ["SUMMARY.md"]
    )
    for stem in stems:
        text = (out / f"{stem}.txt").read_text()
        assert text.startswith(header(SMOKE, 0) + "\n\n")
    summary = (out / "SUMMARY.md").read_text()
    total = sum(len(rows) for rows in claims.values())
    assert f"{total}/{total} claims hold." in summary
    assert "| fig17 | degradation 1 -> 12 VMs < 0.08 |" in summary
