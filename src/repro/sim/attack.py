"""Cache-attack experiments: LLC port attack and performance leakage.

Two of the paper's key demonstrations are attacks on shared cache-bank
structures that conventional way-partitioning does not defend:

* **Port attack (Fig. 11).** An attacker floods one LLC bank and times
  batches of its own accesses; queueing at the bank's limited ports makes
  the attacker's access time spike whenever the victim touches the same
  bank. The paper measured this on a 12-bank Xeon E5-2650 v4; we
  reproduce it with an event-driven bank-port model. The attacker and
  victim use *different cache sets*, so the signal is purely port
  contention, plus a smaller NoC-contention component when the victim is
  active anywhere on chip.

* **Performance leakage (Fig. 12).** DRRIP's set-dueling PSEL counter is
  shared by every partition in a bank, so co-running batch mixes flip the
  victim's insertion policy and change its miss rate despite a fixed
  way-partition. We run an img-dnn-like victim against many batch mixes
  in a shared bank and report its tail latency spread; isolating the
  victim in its own banks (Jumanji) removes the spread.
"""

from __future__ import annotations

import random
from dataclasses import asdict, dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..cache.bank import CacheBank
from ..runner import Cell, SweepRunner, register_cell_kind
from ..workloads.traces import AddressTrace, DoublePassTrace, StreamingTrace

__all__ = [
    "PortAttackConfig",
    "PortAttackSample",
    "run_port_attack",
    "run_port_attack_sharded",
    "samples_from_rows",
    "LeakageResult",
    "run_leakage_experiment",
]


# ---------------------------------------------------------------------------
# Port attack (Fig. 11)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PortAttackConfig:
    """Parameters of the port-attack demonstration.

    Defaults model the paper's Xeon E5-2650 v4 setup: 12 LLC banks, the
    attacker timing every 100 accesses, the victim's 3 threads flooding
    one bank at a time with pauses in between.
    """

    num_banks: int = 12
    bank_latency: int = 13
    bank_ports: int = 1
    batch_size: int = 100
    victim_threads: int = 3
    dwell_accesses: int = 3000
    pause_accesses: int = 1000
    attacker_bank: int = 0
    noc_contention_cycles: float = 2.0
    seed: int = 42


@dataclass(frozen=True)
class PortAttackSample:
    """One timed batch of attacker accesses."""

    wall_time: int
    avg_access_cycles: float
    victim_bank: Optional[int]


def run_port_attack(
    config: Optional[PortAttackConfig] = None,
    include_victim: bool = True,
    bank_isolated: bool = False,
) -> List[PortAttackSample]:
    """Simulate the LLC port attack; returns the attacker's timing trace.

    The attacker and the victim's threads are *closed loops*: each issues
    its next access only when the previous one completes (the
    pointer-chasing eviction loops of [48]). A bank port serves one
    access per ``bank_latency`` cycles, so when the victim's threads
    flood the attacker's bank, the attacker's accesses queue behind them
    and its measured per-access time multiplies — the attack signal.
    When the victim floods *other* banks, the attacker sees only mild NoC
    contention; when the victim pauses, the attacker sees the quiet
    baseline.

    The victim rotates through flooding each of the ``num_banks`` banks
    (``dwell_accesses`` per bank), pausing ``pause_accesses``-worth of
    attacker time in between, producing ``num_banks`` latency peaks. The
    victim uses different cache sets from the attacker, so the signal is
    pure port/NoC contention, never cache contents.

    With ``include_victim=False`` the run gives the quiet baseline trace
    (the "without victim" line of Fig. 11). With ``bank_isolated=True``
    the victim's data never lives in the attacker's bank — Jumanji's
    bank isolation — so its rotation skips that bank and the attacker
    sees only residual NoC noise: the attack is defended.
    """
    cfg = config if config is not None else PortAttackConfig()
    if cfg.num_banks < 1:
        raise ValueError("need at least one bank")
    rng = random.Random(cfg.seed)
    latency = cfg.bank_latency
    # Per-bank time at which the (single) port frees up. Multi-ported
    # banks track one timestamp per port.
    port_free = [
        [0.0] * cfg.bank_ports for _ in range(cfg.num_banks)
    ]

    def serve(bank: int, ready: float) -> float:
        """Complete one access at ``bank`` issued at ``ready``."""
        ports = port_free[bank]
        idx = min(range(len(ports)), key=lambda i: ports[i])
        start = max(ready, ports[idx])
        ports[idx] = start + latency
        return start + latency

    samples: List[PortAttackSample] = []
    attacker_ready = 0.0
    victim_ready = [0.0] * cfg.victim_threads
    victim_bank = 0
    if bank_isolated and victim_bank == cfg.attacker_bank:
        victim_bank = (victim_bank + 1) % cfg.num_banks
    victim_phase = "dwell"
    victim_count = 0
    pause_left = 0.0
    batch_total = 0.0
    batch_count = 0
    batch_start = 0.0

    # Run until the victim completes one full rotation over all banks
    # (dwell + pause each), or the quiet-baseline equivalent duration.
    dwells_done = 0
    max_steps = 20 * cfg.num_banks * (
        cfg.dwell_accesses + cfg.pause_accesses
    )
    _step = 0
    while _step < max_steps:
        _step += 1
        if include_victim and dwells_done >= cfg.num_banks:
            break
        if not include_victim and _step > cfg.num_banks * (
            cfg.dwell_accesses + cfg.pause_accesses
        ):
            break
        victim_active = include_victim and victim_phase == "dwell"
        # Victim threads issue any accesses that are due before the
        # attacker's next access would complete unobstructed.
        if victim_active:
            horizon = attacker_ready + 4 * latency
            for t in range(cfg.victim_threads):
                while victim_ready[t] <= horizon:
                    victim_ready[t] = serve(victim_bank, victim_ready[t])
                    victim_count += 1
        # Attacker access.
        completion = serve(cfg.attacker_bank, attacker_ready)
        access_time = completion - attacker_ready
        if victim_active:
            # Background NoC contention from victim traffic anywhere.
            access_time += cfg.noc_contention_cycles * (
                0.5 + rng.random()
            )
        batch_total += access_time
        batch_count += 1
        if batch_count == cfg.batch_size:
            samples.append(
                PortAttackSample(
                    wall_time=int(batch_start),
                    avg_access_cycles=batch_total / batch_count,
                    victim_bank=victim_bank if victim_active else None,
                )
            )
            batch_total = 0.0
            batch_count = 0
            batch_start = completion
        attacker_ready = completion

        # Victim phase machine, driven by victim work / attacker time.
        if victim_phase == "dwell":
            if victim_count >= cfg.dwell_accesses:
                victim_phase = "pause"
                victim_count = 0
                dwells_done += 1
                pause_left = cfg.pause_accesses * latency
        else:
            pause_left -= latency
            if pause_left <= 0:
                victim_phase = "dwell"
                victim_bank = (victim_bank + 1) % cfg.num_banks
                if (
                    bank_isolated
                    and victim_bank == cfg.attacker_bank
                ):
                    # Isolation: the victim has no data in the
                    # attacker's bank, so it never floods it.
                    victim_bank = (victim_bank + 1) % cfg.num_banks
                    dwells_done += 1
                for t in range(cfg.victim_threads):
                    victim_ready[t] = attacker_ready
    return samples


@register_cell_kind("port_attack")
def _port_attack_cell(
    config: Dict[str, object],
    include_victim: bool,
    bank_isolated: bool,
) -> List[List[object]]:
    """One full port-attack run as a sweep cell.

    ``config`` is a :class:`PortAttackConfig` as a plain dict (the cell's
    cache identity must be JSON data). Samples come back as
    ``[wall_time, avg_access_cycles, victim_bank]`` rows;
    :func:`samples_from_rows` rebuilds the dataclasses.
    """
    samples = run_port_attack(
        PortAttackConfig(**config),
        include_victim=include_victim,
        bank_isolated=bank_isolated,
    )
    return [
        [s.wall_time, s.avg_access_cycles, s.victim_bank]
        for s in samples
    ]


def samples_from_rows(
    rows: Sequence[Sequence[object]],
) -> List[PortAttackSample]:
    """Rebuild :class:`PortAttackSample` objects from cell-result rows."""
    return [
        PortAttackSample(
            wall_time=int(row[0]),
            avg_access_cycles=float(row[1]),
            victim_bank=None if row[2] is None else int(row[2]),
        )
        for row in rows
    ]


def run_port_attack_sharded(
    config: Optional[PortAttackConfig] = None,
    variants: Sequence[Tuple[bool, bool]] = ((True, False), (False, False)),
    jobs: Optional[int] = None,
) -> List[List[PortAttackSample]]:
    """Run several port-attack variants as parallel cells.

    ``variants`` lists ``(include_victim, bank_isolated)`` pairs; the
    default is the attack trace plus the quiet baseline that Fig. 11
    plots. Each variant is an independent simulation, so they shard
    cleanly over the runner pool and memoise in the result cache.
    """
    cfg = config if config is not None else PortAttackConfig()
    cells = [
        Cell(
            "port_attack",
            {
                "config": asdict(cfg),
                "include_victim": include_victim,
                "bank_isolated": bank_isolated,
            },
        )
        for include_victim, bank_isolated in variants
    ]
    rows = SweepRunner(jobs=jobs).map(cells)
    return [samples_from_rows(r) for r in rows]


def attack_signal_strength(
    samples: Sequence[PortAttackSample], attacker_bank: int = 0
) -> Tuple[float, float, float]:
    """Summarise a port-attack trace.

    Returns ``(same_bank_avg, other_bank_avg, quiet_avg)``: the
    attacker's average access time while the victim floods the attacker's
    bank, while it floods other banks, and while it pauses. A working
    attack shows ``same > other > quiet``.
    """
    same = [
        s.avg_access_cycles
        for s in samples
        if s.victim_bank == attacker_bank
    ]
    other = [
        s.avg_access_cycles
        for s in samples
        if s.victim_bank is not None and s.victim_bank != attacker_bank
    ]
    quiet = [s.avg_access_cycles for s in samples if s.victim_bank is None]
    if not same or not other or not quiet:
        raise ValueError("trace does not cover all victim phases")
    return (
        float(np.mean(same)),
        float(np.mean(other)),
        float(np.mean(quiet)),
    )


# ---------------------------------------------------------------------------
# Performance leakage through set-dueling (Fig. 12)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LeakageResult:
    """Victim behaviour against one batch mix."""

    mix_seed: int
    victim_miss_rate: float
    follower_policy: str
    shared_bank: bool


def _victim_trace(seed: int) -> AddressTrace:
    """Policy-sensitive victim: short-reuse (double-pass) pattern.

    Each line is re-referenced shortly after installation, so the victim
    hits when the bank's insertion policy is SRRIP and thrashes when
    set-dueling flips the bank to BRRIP — making its miss rate a direct
    read-out of the shared PSEL state.
    """
    return DoublePassTrace(footprint_lines=16384, block_lines=512)


def _batch_trace(seed: int) -> AddressTrace:
    """A random batch co-runner that steers the bank's set-dueling.

    Cyclic scans over a footprint larger than the batch partition favour
    BRRIP (bimodal insertion retains a useful fraction; SRRIP thrashes),
    while short-reuse patterns favour SRRIP — so the mix composition
    determines the bank-wide policy that the victim is subjected to.
    """
    rng = random.Random(seed)
    base = 1_000_000 * (seed + 1)
    kind = rng.random()
    if kind < 0.5:
        # Scan: cyclic sweep slightly larger than the batch partition.
        return StreamingTrace(
            footprint_lines=rng.choice([4096, 6144, 8192]),
            base_line=base,
        )
    # Short-reuse co-runner (reinforces SRRIP).
    return DoublePassTrace(
        footprint_lines=rng.choice([8192, 16384]),
        block_lines=512,
        base_line=base,
    )


@register_cell_kind("leakage_mix")
def _leakage_mix_cell(
    mix: int,
    accesses: int,
    victim_ways: int,
    num_ways: int,
    num_sets: int,
    shared_bank: bool,
    seed: int,
) -> Dict[str, object]:
    """One batch mix of the Fig. 12 leakage experiment.

    Each mix builds its own bank and traces from ``(seed, mix)`` alone,
    so mixes are independent cells: the sharded run is access-for-access
    identical to the serial loop, and the content-addressed cache can
    reuse any mix whose inputs did not change.
    """
    bank = CacheBank(
        num_sets=num_sets,
        num_ways=num_ways,
        latency=13,
        policy="drrip",
    )
    bank.partitioner.set_quota("victim", victim_ways)
    if shared_bank:
        bank.partitioner.set_quota("batch", num_ways - victim_ways)
    victim = _victim_trace(seed)
    batch = _batch_trace(seed * 1000 + mix)
    v_hits = v_misses = 0
    for i in range(accesses):
        res = bank.access(victim.next_line(), partition="victim", now=i)
        if res.hit:
            v_hits += 1
        else:
            v_misses += 1
        if shared_bank:
            # Batch co-runner issues several accesses per victim access
            # (it is not rate-limited by request think time).
            for _ in range(3):
                bank.access(batch.next_line(), partition="batch", now=i)
    total = v_hits + v_misses
    return {
        "mix_seed": mix,
        "victim_miss_rate": v_misses / total,
        "follower_policy": getattr(bank.policy, "follower_policy", "n/a"),
        "shared_bank": shared_bank,
    }


def run_leakage_experiment(
    num_mixes: int = 20,
    accesses: int = 40_000,
    victim_ways: int = 4,
    num_ways: int = 16,
    num_sets: int = 256,
    shared_bank: bool = True,
    seed: int = 7,
    jobs: Optional[int] = None,
) -> List[LeakageResult]:
    """Victim miss rates across batch mixes with a *fixed* partition.

    The victim always owns ``victim_ways`` ways (CAT-style). When
    ``shared_bank`` is true, a batch co-runner shares the bank (own
    partition, disjoint ways — yet it still moves the shared DRRIP PSEL).
    When false, the victim has the bank to itself (Jumanji's bank
    isolation) and its miss rate is independent of the mix.

    The spread of ``victim_miss_rate`` across mixes is the leakage signal
    of the paper's Fig. 12.

    The (independent) mixes run as cells through the sweep runner
    (``jobs`` workers, as resolved by :func:`repro.runner.resolve_jobs`)
    and its result cache; results do not depend on ``jobs``.
    """
    if num_mixes < 1:
        raise ValueError("need at least one mix")
    params = {
        "accesses": accesses,
        "victim_ways": victim_ways,
        "num_ways": num_ways,
        "num_sets": num_sets,
        "shared_bank": shared_bank,
        "seed": seed,
    }
    cells = [
        Cell("leakage_mix", {"mix": mix, **params})
        for mix in range(num_mixes)
    ]
    rows = SweepRunner(jobs=jobs).map(cells)
    return [LeakageResult(**row) for row in rows]
