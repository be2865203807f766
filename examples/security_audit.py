#!/usr/bin/env python
"""Scenario: auditing an LLC design's attack surface.

Demonstrates the paper's two novel attacks and how bank isolation
defends them:

1. the LLC *port attack* (Fig. 11) — an attacker detects a victim's
   bank accesses purely from port queueing delay;
2. *performance leakage* through DRRIP set-dueling (Fig. 12) — a fixed
   way-partition does not keep co-runners from changing a victim's miss
   rate;
3. the placement-level vulnerability metric (Fig. 14) — how many
   untrusted apps can observe each access under each LLC design.

Run with::

    python examples/security_audit.py
"""

from repro.experiments import fig11, fig12, fig13, fig14


def main() -> None:
    print("=" * 64)
    print("1. LLC port attack (shared bank ports)")
    print("=" * 64)
    port = fig11.run()
    print(fig11.format_table(port))
    verdict = (
        "ATTACK VIABLE" if port.signal_cycles > 5 else "no signal"
    )
    print(f"-> {verdict}: the attacker can observe victim bank accesses")
    print()

    print("=" * 64)
    print("2. Performance leakage through set-dueling (fixed partition)")
    print("=" * 64)
    leak = fig12.run(num_mixes=10, accesses=12_000)
    print(fig12.format_table(leak))
    print(
        "-> co-runners change the victim's tail by "
        f"{leak.shared_spread * 100:.0f}% despite way-partitioning; "
        "bank isolation removes the channel "
        f"(spread {leak.isolated_spread * 100:.0f}%)"
    )
    print()

    print("=" * 64)
    print("3. Attack surface by LLC design (attackers per access)")
    print("=" * 64)
    # Fig. 14 averages the vulnerability over the Fig. 13 sweep's runs.
    sweep = fig13.run(lc_workloads=("xapian", "Mixed"), loads=("high",),
                      mixes=2, epochs=10).sweep
    vuln = fig14.from_sweep(sweep)
    print(fig14.format_table(vuln))
    print(
        "-> way-partitioned S-NUCA exposes every access to every "
        "untrusted app; Jumanji's bank isolation exposes none"
    )


if __name__ == "__main__":
    main()
