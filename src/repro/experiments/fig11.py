"""Fig. 11: demonstration of an LLC port attack.

An attacker floods one bank of a 12-bank LLC (the paper's Xeon E5-2650
v4) and times batches of 100 accesses while a 3-thread victim rotates
through flooding every bank. Expected shape: twelve latency spikes (one
per victim dwell), highest when the victim floods the attacker's own
bank (> 32-cycle average in the paper); a quiet baseline otherwise.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from ..sim.attack import (
    PortAttackConfig,
    PortAttackSample,
    attack_signal_strength,
    run_port_attack_sharded,
)

__all__ = ["Fig11Result", "run", "format_table"]


@dataclass
class Fig11Result:
    """Result container for this experiment."""
    config: PortAttackConfig
    samples: List[PortAttackSample]
    baseline_samples: List[PortAttackSample]
    same_bank_avg: float
    other_bank_avg: float
    quiet_avg: float

    @property
    def num_peaks(self) -> int:
        """Distinct victim dwell phases observed (expect num_banks)."""
        peaks = {
            s.victim_bank for s in self.samples
            if s.victim_bank is not None
        }
        return len(peaks)

    @property
    def signal_cycles(self) -> float:
        """Same-bank elevation over quiet baseline."""
        return self.same_bank_avg - self.quiet_avg


def run(
    config: Optional[PortAttackConfig] = None,
    jobs: Optional[int] = None,
) -> Fig11Result:
    """Run the experiment; returns its result object.

    The attack trace and the quiet baseline run as two cells through
    the sweep runner (``jobs`` workers, as resolved by
    :func:`repro.runner.resolve_jobs`) and its result cache.
    """
    cfg = config if config is not None else PortAttackConfig()
    samples, baseline = run_port_attack_sharded(cfg, jobs=jobs)
    same, other, quiet = attack_signal_strength(
        samples, cfg.attacker_bank
    )
    return Fig11Result(
        config=cfg,
        samples=samples,
        baseline_samples=baseline,
        same_bank_avg=same,
        other_bank_avg=other,
        quiet_avg=quiet,
    )


def format_table(result: Fig11Result) -> str:
    """Render the result as the paper-style text report."""
    lines = [
        "Fig. 11 — LLC port attack demonstration "
        f"({result.config.num_banks}-bank LLC)",
        f"victim dwell phases observed: {result.num_peaks} "
        f"(expect {result.config.num_banks})",
        f"attacker avg access time, victim on attacker's bank: "
        f"{result.same_bank_avg:.1f} cycles",
        f"attacker avg access time, victim on other banks:     "
        f"{result.other_bank_avg:.1f} cycles",
        f"attacker avg access time, victim paused:             "
        f"{result.quiet_avg:.1f} cycles",
        f"same-bank signal over quiet baseline: "
        f"{result.signal_cycles:.1f} cycles",
    ]
    return "\n".join(lines)
