"""Tables I-III of the paper.

* Table I — qualitative comparison of LLC designs on tail latency,
  security, and batch speedup, derived from measured sweep results.
* Table II — the simulated system's parameters (configuration echo,
  verifying the model matches the paper's system).
* Table III — latency-critical workload configuration (QPS at low and
  high load, query counts).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from ..config import QPS_TABLE, SystemConfig
from .common import SweepResult

__all__ = [
    "Table1Result",
    "run_table1",
    "format_table1",
    "format_table2",
    "format_table3",
]

#: Thresholds used to translate measurements into Table I's check marks.
TAIL_OK_THRESHOLD = 1.3  # median normalised tail must stay below this
SECURE_THRESHOLD = 1e-9  # attackers/access must be exactly zero
SPEEDUP_THRESHOLD = 1.05  # gmean batch speedup must exceed this


@dataclass
class Table1Result:
    #: design -> (meets tail deadlines, secure, batch speedup)
    """Result container for this experiment."""
    verdicts: Dict[str, Tuple[bool, bool, bool]]
    measurements: Dict[str, Tuple[float, float, float]]


def run_table1(sweep: SweepResult) -> Table1Result:
    """Derive Table I from a sweep's measurements (the Fig. 13 run)."""
    designs = ("Adaptive", "VM-Part", "Jigsaw", "Jumanji")
    # Tail check: a design meets deadlines only if it does so on every
    # workload — the worst per-(workload, load) median is the verdict
    # input (a design that wrecks xapian is not excused by silo).
    cells = {
        (o.lc_workload, o.load) for o in sweep.outcomes
    }
    verdicts = {}
    measurements = {}
    for design in designs:
        tail = max(
            sweep.tail_box(design, lc, load).median
            for (lc, load) in cells
        )
        vuln = sweep.avg_vulnerability(design)
        speedup = sweep.gmean_speedup(design)
        verdicts[design] = (
            tail <= TAIL_OK_THRESHOLD,
            vuln <= SECURE_THRESHOLD,
            speedup >= SPEEDUP_THRESHOLD,
        )
        measurements[design] = (tail, vuln, speedup)
    return Table1Result(verdicts=verdicts, measurements=measurements)


def format_table1(result: Table1Result) -> str:
    """Render Table I from measured verdicts."""
    def mark(flag: bool) -> str:
        return "Y" if flag else "x"

    lines = [
        "Table I — comparison of LLC designs (measured)",
        f"{'design':<10s} {'tail latency':>13s} {'security':>9s} "
        f"{'batch speedup':>14s}",
    ]
    for design, (tail_ok, secure, fast) in result.verdicts.items():
        tail, vuln, speedup = result.measurements[design]
        lines.append(
            f"{design:<10s} {mark(tail_ok):>8s}({tail:4.2f}) "
            f"{mark(secure):>5s}({vuln:5.2f}) "
            f"{mark(fast):>8s}({speedup:5.3f})"
        )
    return "\n".join(lines)


def format_table2(config: Optional[SystemConfig] = None) -> str:
    """Render Table II (system parameters)."""
    cfg = config if config is not None else SystemConfig()
    lines = [
        "Table II — system parameters",
        f"Cores       {cfg.num_cores} cores, OOO, 2.66 GHz",
        f"L1 caches   {cfg.l1_size_kb} KB, {cfg.l1_ways}-way, "
        f"{cfg.l1_latency}-cycle latency",
        f"L2 caches   {cfg.l2_size_kb} KB private, {cfg.l2_ways}-way, "
        f"{cfg.l2_latency}-cycle latency",
        f"LLC         {cfg.llc_size_mb:.0f} MB shared, "
        f"{cfg.mesh_cols}x{cfg.mesh_rows} x {cfg.llc_bank_mb:.0f} MB "
        f"banks, {cfg.llc_bank_ways}-way, {cfg.llc_bank_latency}-cycle "
        "bank latency",
        f"NoC         mesh, {cfg.flit_bits}-bit flits, X-Y routing, "
        f"{cfg.router_delay}-cycle routers, {cfg.link_delay}-cycle links",
        f"Memory      {cfg.num_mem_ctrls} controllers at chip corners, "
        f"{cfg.mem_latency}-cycle latency",
    ]
    return "\n".join(lines)


def format_table3() -> str:
    """Render Table III (LC workload configuration)."""
    lines = [
        "Table III — latency-critical workload configuration",
        f"{'app':<10s} {'low QPS':>8s} {'high QPS':>9s} "
        f"{'queries':>8s}",
    ]
    for name, qps in QPS_TABLE.items():
        lines.append(
            f"{name:<10s} {qps.low_qps:>8.0f} {qps.high_qps:>9.0f} "
            f"{qps.num_queries:>8d}"
        )
    return "\n".join(lines)
