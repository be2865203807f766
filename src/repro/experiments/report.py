"""The reproduction: every artifact, its claims, and one summary.

:data:`ARTIFACTS` is the single table of what the reproduction
regenerates, in ``SUMMARY.md`` order. Each row names its results-file
stem and title, the producer that runs the experiment at a
:class:`~repro.experiments.common.Scale`, the formatter that renders the
text report, and the paper's claims about the numbers — each a named
pass/fail check with its bound written out.

:func:`reproduce` runs rows, writes one ``<stem>.txt`` per artifact
(headed by the scale and seed) plus ``SUMMARY.md`` with the claims
table; ``repro reproduce`` and ``repro figure`` are its command-line
faces.
"""

from __future__ import annotations

import math
import pathlib
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from ..config import QPS_TABLE, SystemConfig
from . import (
    fig2,
    fig4,
    fig5,
    fig8,
    fig9,
    fig11,
    fig12,
    fig13,
    fig14,
    fig15,
    fig16,
    fig17,
    fig18,
    studies,
    tables,
)
from .common import Scale

__all__ = [
    "ARTIFACTS",
    "Artifact",
    "Claim",
    "header",
    "reproduce",
    "run_artifacts",
    "write_summary",
]


@dataclass(frozen=True)
class Claim:
    """One of the paper's statements, checked against measured numbers."""

    name: str
    value: str
    ok: bool


def _check(name: str, value: Any, ok: bool) -> Claim:
    text = f"{value:.3f}" if isinstance(value, float) else str(value)
    return Claim(name, text, bool(ok))


def _lt(name: str, value: float, bound: float) -> Claim:
    return _check(f"{name} < {bound}", value, value < bound)


def _gt(name: str, value: float, bound: float) -> Claim:
    return _check(f"{name} > {bound}", value, value > bound)


def _eq(name: str, value: Any, want: Any) -> Claim:
    return _check(f"{name} == {want}", value, value == want)


def _vs(name: str, a: float, b: float, ok: bool) -> Claim:
    return _check(name, f"{a:.3f} vs {b:.3f}", ok)


@dataclass(frozen=True)
class Artifact:
    """One row of the reproduction: a paper figure, table or study."""

    stem: str
    title: str
    #: ``run(scale, seed, jobs)`` -> result; or, when ``source`` names
    #: another row, ``run(source_result)`` -> result.
    run: Callable[..., Any]
    format: Callable[[Any], str]
    claims: Callable[[Any], List[Claim]]
    source: Optional[str] = None


def _fixed(fn: Callable[[], Any]) -> Callable[..., Any]:
    """A producer whose experiment does not depend on scale or seed."""
    return lambda scale, seed, jobs: fn()


def _fig8_claims(r) -> List[Claim]:
    worst = max(r.snuca_tails)
    s_min = r.min_size_meeting_deadline(dnuca=False)
    d_min = r.min_size_meeting_deadline(dnuca=True)
    return [
        _check("S-NUCA worst tail / deadline > 10", worst / r.deadline_cycles,
               worst > 10 * r.deadline_cycles),
        _check("MB meeting the deadline: D-NUCA < S-NUCA",
               f"{d_min} vs {s_min}",
               d_min is not None and s_min is not None and d_min < s_min),
        _gt("S-NUCA / D-NUCA worst tail", r.worst_case_ratio(), 3.0),
    ]


def _fig13_claims(r) -> List[Claim]:
    s = r.sweep
    ju, ji, ad, vp = (s.gmean_speedup(d) for d in ("Jumanji", "Jigsaw",
                                                   "Adaptive", "VM-Part"))
    return [
        _check("Jumanji gmean speedup in (1.05, 1.25)", ju,
               1.05 < ju < 1.25),
        _vs("Jigsaw gmean speedup > Jumanji's - 0.02", ji, ju,
            ji > ju - 0.02),
        _lt("Adaptive gmean speedup", ad, 1.05),
        _lt("VM-Part gmean speedup", vp, 1.05),
        *(_lt(f"{d} median tail", s.tail_box(d).median, 1.25)
          for d in ("Adaptive", "VM-Part", "Jumanji")),
        _gt("Jigsaw worst xapian high-load tail",
            s.tail_box("Jigsaw", "xapian", "high").maximum, 1.5),
    ]


def _fig14_claims(r) -> List[Claim]:
    v = r.vulnerability
    return [
        _check("Adaptive vulnerability == 15 (rel 1e-6)", v["Adaptive"],
               math.isclose(v["Adaptive"], 15.0, rel_tol=1e-6,
                            abs_tol=1e-12)),
        _check("VM-Part vulnerability within 0.5 of 15", v["VM-Part"],
               abs(v["VM-Part"] - 15.0) <= 0.5),
        _check("Jigsaw vulnerability in (0.1, 2.0)", v["Jigsaw"],
               0.1 < v["Jigsaw"] < 2.0),
        _eq("Jumanji vulnerability", v["Jumanji"], 0.0),
    ]


def _fig15_claims(r) -> List[Claim]:
    ju, ji, ad, vp = (r.normalized_total(d) for d in (
        "Jumanji", "Jigsaw", "Adaptive", "VM-Part"))
    return [
        _lt("Jumanji energy vs Static", ju, 0.97),
        _lt("Jigsaw energy vs Static", ji, 0.97),
        _check("Adaptive energy vs Static within 0.05 of 1", ad,
               abs(ad - 1.0) < 0.05),
        _vs("VM-Part energy > Jumanji's", vp, ju, vp > ju),
    ]


def _fig2_claims(r) -> List[Claim]:
    """Fig. 2: which designs let VMs share banks."""
    shared = {d: r.banks_shared_across_vms(d)
              for d in ("Adaptive", "VM-Part", "Jigsaw", "Jumanji")}
    return [
        _eq("Adaptive banks shared across VMs", shared["Adaptive"], 20),
        _eq("VM-Part banks shared across VMs", shared["VM-Part"], 20),
        _check("Jigsaw banks shared across VMs in (0, 20)",
               shared["Jigsaw"], 0 < shared["Jigsaw"] < 20),
        _eq("Jumanji banks shared across VMs", shared["Jumanji"], 0),
    ]


def _late_latency(r, design: str) -> float:
    return sum(r.latency_series[design][r.epochs // 2:])


def _by_scale(fig, **kwargs) -> Callable[..., Any]:
    """A sweep figure's producer: ``fig.run`` at the scale and seed."""
    return lambda scale, seed, jobs: fig.run(
        mixes=scale.mixes, epochs=scale.epochs, jobs=jobs, base_seed=seed,
        **kwargs)


def _by_epochs(fig) -> Callable[..., Any]:
    """A case-study producer: ``fig.run`` over the scale's epochs."""
    return lambda scale, seed, jobs: fig.run(epochs=scale.epochs)


_TABLE2 = (
    ("num_cores", 20), ("llc_size_mb", 20.0), ("llc_bank_ways", 32),
    ("l1_size_kb", 32), ("l1_latency", 3), ("l2_size_kb", 128),
    ("l2_latency", 6), ("llc_bank_latency", 13), ("mem_latency", 120),
)

_TABLE3 = (("xapian", "high_qps", 570), ("silo", "num_queries", 3500),
           ("moses", "low_qps", 34))

#: Every artifact the reproduction regenerates, in SUMMARY.md order.
#: Each claim makes one of the paper's qualitative statements about the
#: artifact numeric, with its bound written out.
ARTIFACTS: Tuple[Artifact, ...] = (
    Artifact("table1", "Table I — design comparison",
             lambda r13: tables.run_table1(r13.sweep), tables.format_table1,
             lambda r: [
                 _eq("Jumanji (meets tails, secure, speeds up)",
                     r.verdicts["Jumanji"], (True, True, True)),
                 _eq("Adaptive secure", r.verdicts["Adaptive"][1], False),
                 _eq("Jigsaw meets tails", r.verdicts["Jigsaw"][0], False),
                 _eq("Jigsaw secure", r.verdicts["Jigsaw"][1], False),
                 _eq("Adaptive speeds up", r.verdicts["Adaptive"][2], False),
             ], source="fig13"),
    Artifact("table2", "Table II — system parameters",
             _fixed(SystemConfig), tables.format_table2,
             lambda cfg: [_eq(k, getattr(cfg, k), v) for k, v in _TABLE2]),
    Artifact("table3", "Table III — LC workload configuration",
             _fixed(lambda: QPS_TABLE), lambda _qps: tables.format_table3(),
             lambda qps: [_eq(f"{app} {key}", getattr(qps[app], key), want)
                          for app, key, want in _TABLE3]),
    Artifact("fig2", "Fig. 2 — representative data placements",
             _fixed(fig2.run), fig2.format_table, _fig2_claims),
    Artifact("fig4", "Fig. 4 — case study over time",
             _by_epochs(fig4), fig4.format_table, lambda r: [_vs(
                 "Jigsaw late-run latency > Jumanji's",
                 _late_latency(r, "Jigsaw"), _late_latency(r, "Jumanji"),
                 _late_latency(r, "Jigsaw") > _late_latency(r, "Jumanji"))]),
    Artifact("fig5", "Fig. 5 — case-study end-to-end results",
             _by_epochs(fig5), fig5.format_table, lambda r: [
                 _gt("Jumanji speedup", r.speedup["Jumanji"], 1.05),
                 _vs("Jumanji worst tail < Jigsaw's",
                     r.worst_tail["Jumanji"], r.worst_tail["Jigsaw"],
                     r.worst_tail["Jumanji"] < r.worst_tail["Jigsaw"]),
                 _eq("Jumanji vulnerability", r.vulnerability["Jumanji"],
                     0.0),
             ]),
    Artifact("fig8", "Fig. 8 — tail latency vs. allocation",
             _fixed(lambda: fig8.run(epochs=20)), fig8.format_table,
             _fig8_claims),
    Artifact("fig9", "Fig. 9 — controller sensitivity",
             _by_epochs(fig9), fig9.format_table, lambda r: [
                 _lt("speedup spread across settings", r.speedup_spread(),
                     0.05),
                 _lt("worst tail across settings",
                     max(t for _s, t in r.cells.values()), 1.5),
             ]),
    Artifact("fig11", "Fig. 11 — LLC port attack",
             lambda scale, seed, jobs: fig11.run(jobs=jobs),
             fig11.format_table, lambda r: [
                 _eq("latency peaks", r.num_peaks, r.config.num_banks),
                 _gt("same-bank access cycles", r.same_bank_avg, 32.0),
                 _vs("same-bank > 2x other-bank cycles", r.same_bank_avg,
                     r.other_bank_avg,
                     r.same_bank_avg > 2 * r.other_bank_avg),
                 _vs("other-bank > quiet cycles", r.other_bank_avg,
                     r.quiet_avg, r.other_bank_avg > r.quiet_avg),
             ]),
    Artifact("fig12", "Fig. 12 — performance leakage",
             lambda scale, seed, jobs: fig12.run(
                 num_mixes=12, accesses=16_000, jobs=jobs),
             fig12.format_table, lambda r: [
                 _gt("shared-bank tail spread", r.shared_spread, 0.10),
                 _lt("isolated tail spread", r.isolated_spread, 0.01),
                 _lt("isolated worst tail", max(r.isolated_tails), 1.0),
             ]),
    Artifact("fig13", "Fig. 13 — main results",
             _by_scale(fig13), fig13.format_table, _fig13_claims),
    Artifact("fig14", "Fig. 14 — vulnerability",
             lambda r13: fig14.from_sweep(r13.sweep), fig14.format_table,
             _fig14_claims, source="fig13"),
    Artifact("fig15", "Fig. 15 — data-movement energy",
             lambda r13: fig15.from_sweep(r13.sweep), fig15.format_table,
             _fig15_claims, source="fig13"),
    Artifact("fig16", "Fig. 16 — Jumanji vs Insecure vs Ideal Batch",
             _by_scale(fig16, lc_workloads=("xapian", "masstree")),
             fig16.format_table, lambda r: [
                 _lt(f"Jumanji gap to {other}", r.gap_to(other), 0.05)
                 for other in ("Jumanji: Insecure", "Jumanji: Ideal Batch")
             ]),
    Artifact("fig17", "Fig. 17 — VM scaling",
             _by_scale(fig17), fig17.format_table, lambda r: [
                 _gt("lowest speedup over VM counts",
                     min(r.speedups.values()), 1.03),
                 _lt("degradation 1 -> 12 VMs", r.degradation(), 0.08),
                 _lt("worst tail over VM counts",
                     max(r.worst_tails.values()), 1.3),
             ]),
    Artifact("fig18", "Fig. 18 — NoC sensitivity",
             _by_scale(fig18), fig18.format_table, lambda r: [
                 _eq("speedup monotonic in router delay", r.is_monotonic(),
                     True),
                 _gt("speedup gain from 1 to 3 cycles",
                     r.speedups[3] - r.speedups[1], 0.01),
             ]),
    Artifact("trading_negative_result", "Trade algorithm (negative result)",
             _fixed(studies.run_trading), studies.format_trading,
             lambda r: [
                 _check("trades applied <= 6", r.total_trades,
                        r.total_trades <= 6),
                 _lt("mean batch RTT gain (cycles)", r.mean_gain, 1.5),
             ]),
    Artifact("reconfig_interval", "Reconfiguration-interval plateau",
             _fixed(studies.run_reconfig_interval),
             studies.format_reconfig_interval, lambda r: [
                 _lt("speedup spread across intervals", r.speedup_spread(),
                     0.015),
                 *(claim for label, (speedup, tail) in r.cells.items()
                   for claim in (_gt(f"{label} speedup", speedup, 1.05),
                                 _lt(f"{label} worst tail", tail, 1.5))),
             ]),
    Artifact("ablation1_panic_boost", "Ablation — panic boost",
             _fixed(studies.run_panic_boost),
             lambda r: (f"Ablation 1 — panic boost: worst tail "
                        f"with={r.with_it:.2f} without={r.without:.2f}"),
             lambda r: [_vs("worst tail with panic <= without + 0.35",
                            r.with_it, r.without,
                            r.with_it <= r.without + 0.35)]),
    Artifact("ablation2_lc_proximity", "Ablation — LC proximity",
             _fixed(studies.run_lc_proximity),
             lambda r: (f"Ablation 2 — LC proximity: Jumanji reserves "
                        f"{r.with_it.avg_lc_size_mb:.2f} MB vs Adaptive "
                        f"{r.without.avg_lc_size_mb:.2f} MB per LC app"),
             lambda r: [
                 _vs("LC MB reserved: Jumanji < Adaptive",
                     r.with_it.avg_lc_size_mb, r.without.avg_lc_size_mb,
                     r.with_it.avg_lc_size_mb < r.without.avg_lc_size_mb),
                 _lt("Jumanji worst tail", r.with_it.worst_tail, 1.3),
             ]),
    Artifact("ablation3_bank_granularity", "Ablation — bank granularity",
             _fixed(studies.run_bank_granularity),
             lambda r: (f"Ablation 3 — bank granularity: isolation costs "
                        f"{studies.isolation_cost(r) * 100:.1f}% speedup; "
                        f"vulnerability {r.with_it.vulnerability:.2f} vs "
                        f"{r.without.vulnerability:.2f}"),
             lambda r: [
                 _lt("speedup cost of isolation", studies.isolation_cost(r),
                     0.05),
                 _eq("Jumanji vulnerability", r.with_it.vulnerability, 0.0),
                 _gt("Insecure vulnerability", r.without.vulnerability, 0.0),
             ]),
    Artifact("ablation4_inner_placement", "Ablation — inner placement",
             _fixed(studies.run_inner_placement),
             lambda r: (f"Ablation 4 — inner placement: Jigsaw-in-VM avg "
                        f"RTT {r.with_it:.1f} cycles vs striped "
                        f"{r.without:.1f}"),
             lambda r: [_vs("batch RTT: Jigsaw-in-VM < striped", r.with_it,
                            r.without, r.with_it < r.without)]),
    Artifact("ablation5_convex_hull", "Ablation — convex-hull curves",
             _fixed(studies.run_convex_hull),
             lambda r: (f"Ablation 5 — convex hull: total misses "
                        f"raw={r.without:.1f} hulled={r.with_it:.1f}"),
             lambda r: [_vs("hulled misses <= 1.25x raw", r.with_it,
                            r.without, r.with_it <= r.without * 1.25)]),
)

_BY_STEM: Dict[str, Artifact] = {a.stem: a for a in ARTIFACTS}


def header(scale: Scale, seed: int) -> str:
    """First line of every artifact: how it was made."""
    return f"scale: {scale}; seed: {seed}"


def run_artifacts(
    stems: Sequence[str],
    scale: Scale,
    seed: int = 0,
    jobs: Optional[int] = None,
    log: Callable[[str], None] = lambda line: None,
) -> Dict[str, Tuple[str, List[Claim]]]:
    """Run the named rows (and the rows they derive from).

    Returns stem -> (artifact text, claims), in ``stems`` order. A row
    with a ``source`` reuses that row's result rather than rerunning
    its experiment.
    """
    results: Dict[str, Any] = {}

    def result_of(stem: str) -> Any:
        if stem not in results:
            row = _BY_STEM[stem]
            results[stem] = (
                row.run(result_of(row.source))
                if row.source
                else row.run(scale, seed, jobs)
            )
        return results[stem]

    out = {}
    for stem in stems:
        row = _BY_STEM[stem]
        result = result_of(stem)
        text = f"{header(scale, seed)}\n\n{row.format(result)}\n"
        claims = row.claims(result)
        out[stem] = (text, claims)
        passed = sum(c.ok for c in claims)
        log(f"{stem}: {passed}/{len(claims)} claims hold")
    return out


def reproduce(
    scale: Scale,
    out: pathlib.Path,
    seed: int = 0,
    jobs: Optional[int] = None,
    log: Callable[[str], None] = lambda line: None,
) -> Dict[str, List[Claim]]:
    """Regenerate every artifact into ``out`` plus ``SUMMARY.md``.

    Returns stem -> claims; the reproduction holds when every claim's
    ``ok`` is true.
    """
    out = pathlib.Path(out)
    out.mkdir(parents=True, exist_ok=True)
    produced = run_artifacts(
        [a.stem for a in ARTIFACTS], scale, seed, jobs, log
    )
    for stem, (text, _claims) in produced.items():
        (out / f"{stem}.txt").write_text(text)
    write_summary(out, produced)
    return {stem: claims for stem, (_text, claims) in produced.items()}


def write_summary(
    out: pathlib.Path, produced: Dict[str, Tuple[str, List[Claim]]]
) -> str:
    """Write ``<out>/SUMMARY.md`` and return its text.

    ``produced`` maps stem -> (artifact text, claims), in
    :data:`ARTIFACTS` order, as :func:`run_artifacts` returns it: the
    claims table comes first, then every artifact's body.
    """
    every = [c for _text, claims in produced.values() for c in claims]
    lines = [
        "# Reproduction report",
        "",
        "Regenerated artifacts from "
        "'Jumanji: The Case for Dynamic NUCA in the Datacenter' "
        "(MICRO 2020).",
        "",
        "## Claims",
        "",
        f"{sum(c.ok for c in every)}/{len(every)} claims hold.",
        "",
        "| artifact | claim | value | result |",
        "|---|---|---|---|",
    ]
    for stem, (_text, claims) in produced.items():
        for c in claims:
            lines.append(
                f"| {stem} | {c.name} | {c.value} | "
                f"{'pass' if c.ok else 'FAIL'} |"
            )
    lines.append("")
    for stem, (text, _claims) in produced.items():
        title = _BY_STEM[stem].title
        body = text.rstrip("\n")
        lines += [f"## {title}", "", "```text", body, "```", ""]
    text = "\n".join(lines)
    (out / "SUMMARY.md").write_text(text)
    return text
