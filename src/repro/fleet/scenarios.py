"""Seeded fleet scenario generation (diurnal load, churn, failures).

A :class:`Scenario` is a frozen, JSON-canonical description of one
fleet run: how many chips, how many 100 ms epochs, and the stochastic
drivers layered on top — a diurnal load curve, Poisson tenant churn,
flash-crowd arrival spikes, and rack-correlated chip failures via the
existing :class:`~repro.faults.FaultPlan` machinery.

Every draw is a pure function of ``(seed, stream, epoch)``: each
per-epoch decision gets its own ``random.Random`` seeded from a string
key, so the generator is *order-independent* — the fleet, a test, and a
replay can each ask ``arrivals(7)`` or ``chip_failures(7)`` in any
order and read the same answer. That is what makes the scheduler's
same-seed determinism gate (and the chaos tests' "counters match the
plan" assertions) possible: expected failures are recomputable outside
the fleet as plain functions of the scenario.

Chip failures are *correlated by rack* (paper-adjacent realism: a PDU
or ToR failure takes out the whole enclosure): the ``chip_failure``
fault site is rolled once per rack per epoch, and one firing kills
every chip in that rack.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, fields
from typing import Any, Dict, List, Mapping, Optional, Tuple

from ..config import LC_APP_NAMES
from ..errors import ConfigError
from ..faults import FaultPlan
from ..workloads.spec import profile_names

__all__ = ["Scenario", "TenantSpec"]


def _poisson(rng: random.Random, lam: float) -> int:
    """Knuth's Poisson sampler (fine for the per-epoch rates here)."""
    if lam <= 0.0:
        return 0
    threshold = math.exp(-lam)
    count = 0
    product = rng.random()
    while product > threshold:
        count += 1
        product *= rng.random()
    return count


@dataclass(frozen=True)
class TenantSpec:
    """The shape of one arriving tenant VM (before it gets an id)."""

    lc_app: str
    batch_apps: Tuple[str, ...]
    lifetime_epochs: int

    def __post_init__(self) -> None:
        if self.lc_app not in LC_APP_NAMES:
            raise ConfigError(
                f"unknown LC app {self.lc_app!r}; choose from "
                f"{LC_APP_NAMES!r}"
            )
        if self.lifetime_epochs < 1:
            raise ConfigError("tenant lifetime must be >= 1 epoch")

    @property
    def cores_needed(self) -> int:
        """Cores the tenant occupies: one LC + one per batch app."""
        return 1 + len(self.batch_apps)


@dataclass(frozen=True)
class Scenario:
    """One seeded fleet run: scale, churn, load shape, failures.

    ``initial_tenants`` defaults to one per chip and ``arrival_rate``
    (mean arrivals per epoch) to ``chips / 16`` — a fleet that starts
    full-ish and churns a few percent per epoch.
    """

    chips: int = 64
    epochs: int = 12
    seed: int = 0
    #: Tenants admitted before epoch 0 (default: one per chip).
    initial_tenants: Optional[int] = None
    #: Mean Poisson arrivals per epoch (default: ``chips / 16``).
    arrival_rate: Optional[float] = None
    #: Mean of the exponential tenant-lifetime draw (epochs).
    mean_lifetime_epochs: float = 20.0
    #: Batch apps per tenant are drawn uniformly from 0..this.
    max_batch_apps: int = 1
    #: Diurnal swing: load factor is 1 + amplitude * sin(2*pi*t/period).
    diurnal_amplitude: float = 0.3
    diurnal_period_epochs: int = 24
    #: Per-epoch probability that a flash crowd *starts*.
    flash_prob: float = 0.0
    #: Arrival-rate multiplier while a flash crowd is active.
    flash_magnitude: float = 4.0
    #: Load-factor multiplier while a flash crowd is active.
    flash_load_boost: float = 1.25
    #: How many epochs one flash crowd lasts.
    flash_epochs: int = 2
    #: Chips per failure-correlation domain (enclosure/PDU).
    rack_size: int = 8
    #: Correlated-failure driver; ``None`` disables failures. The
    #: ``chip_failure`` site is rolled once per rack per epoch,
    #: ``chip_repair`` once per failed chip (an MTTR delay rides on the
    #: same key), and ``chip_slow`` once per chip per epoch.
    fault_plan: Optional[FaultPlan] = None
    #: tail/deadline ratio above which an epoch counts as an SLA
    #: violation (the paper's panic threshold).
    sla_threshold: float = 1.10
    #: Consecutive violating epochs before the scheduler migrates.
    migration_patience: int = 3
    #: Epochs a deferred arrival waits in the pending queue before it
    #: is rejected (admission-control backpressure).
    admission_patience: int = 4
    #: Bound on the pending-arrivals queue; overflow is rejected
    #: immediately so thousand-chip runs stay memory-bounded.
    pending_limit: int = 64

    def __post_init__(self) -> None:
        if self.chips < 1:
            raise ConfigError("need at least one chip")
        if self.epochs < 1:
            raise ConfigError("need at least one epoch")
        if self.initial_tenants is not None and self.initial_tenants < 0:
            raise ConfigError("initial_tenants must be >= 0")
        if self.arrival_rate is not None and self.arrival_rate < 0:
            raise ConfigError("arrival_rate must be >= 0")
        if self.mean_lifetime_epochs <= 0:
            raise ConfigError("mean_lifetime_epochs must be positive")
        if self.max_batch_apps < 0:
            raise ConfigError("max_batch_apps must be >= 0")
        if not 0.0 <= self.diurnal_amplitude < 1.0:
            raise ConfigError("diurnal_amplitude must be in [0, 1)")
        if self.diurnal_period_epochs < 1:
            raise ConfigError("diurnal_period_epochs must be >= 1")
        if not 0.0 <= self.flash_prob <= 1.0:
            raise ConfigError("flash_prob must be in [0, 1]")
        if self.flash_magnitude < 1.0 or self.flash_load_boost < 1.0:
            raise ConfigError("flash multipliers must be >= 1")
        if self.flash_epochs < 1:
            raise ConfigError("flash_epochs must be >= 1")
        if self.rack_size < 1:
            raise ConfigError("rack_size must be >= 1")
        if self.sla_threshold <= 0:
            raise ConfigError("sla_threshold must be positive")
        if self.migration_patience < 1:
            raise ConfigError("migration_patience must be >= 1")
        if self.admission_patience < 1:
            raise ConfigError("admission_patience must be >= 1")
        if self.pending_limit < 0:
            raise ConfigError("pending_limit must be >= 0")

    # -- resolved defaults ----------------------------------------------------

    @property
    def initial_count(self) -> int:
        """Tenants admitted before epoch 0 (defaults to one per chip)."""
        if self.initial_tenants is not None:
            return self.initial_tenants
        return self.chips

    @property
    def mean_arrivals(self) -> float:
        """Poisson mean for per-epoch arrivals (default chips/16)."""
        if self.arrival_rate is not None:
            return self.arrival_rate
        return self.chips / 16.0

    @property
    def num_racks(self) -> int:
        """Failure-correlation domains covering the fleet."""
        return (self.chips + self.rack_size - 1) // self.rack_size

    def rack_of(self, chip_id: int) -> int:
        """The rack a chip belongs to."""
        return chip_id // self.rack_size

    # -- the keyed RNG --------------------------------------------------------

    def _rng(self, stream: str, epoch: int) -> random.Random:
        # Seeding Random with a string hashes the *bytes* (not the
        # per-process str hash), so every (seed, stream, epoch) key maps
        # to the same sequence in every process — order-independent and
        # replay-safe.
        return random.Random(f"{self.seed}:{stream}:{epoch}")

    # -- load shape -----------------------------------------------------------

    def flash_started(self, epoch: int) -> bool:
        """Whether a flash crowd starts at ``epoch`` (pure function)."""
        if self.flash_prob <= 0.0 or epoch < 0:
            return False
        return self._rng("flash", epoch).random() < self.flash_prob

    def in_flash(self, epoch: int) -> bool:
        """Whether a flash crowd (of any start epoch) covers ``epoch``."""
        return any(
            self.flash_started(start)
            for start in range(
                max(0, epoch - self.flash_epochs + 1), epoch + 1
            )
        )

    def load_factor(self, epoch: int) -> float:
        """QPS multiplier applied fleet-wide this epoch.

        Diurnal sinusoid around 1.0 x the workload's high-load rate,
        boosted while a flash crowd is active, floored at 5% so the
        queueing simulators never see a non-positive rate.
        """
        angle = 2.0 * math.pi * epoch / self.diurnal_period_epochs
        factor = 1.0 + self.diurnal_amplitude * math.sin(angle)
        if self.in_flash(epoch):
            factor *= self.flash_load_boost
        return max(factor, 0.05)

    # -- tenant churn ---------------------------------------------------------

    def _draw_tenants(
        self, rng: random.Random, count: int
    ) -> List[TenantSpec]:
        batch_names = profile_names()
        out = []
        for _ in range(count):
            lc = rng.choice(LC_APP_NAMES)
            n_batch = rng.randint(0, self.max_batch_apps)
            batch = tuple(
                rng.choice(batch_names) for _ in range(n_batch)
            )
            lifetime = (
                int(rng.expovariate(1.0 / self.mean_lifetime_epochs)) + 1
            )
            out.append(TenantSpec(lc, batch, lifetime))
        return out

    def initial_tenant_specs(self) -> List[TenantSpec]:
        """The tenants resident when the run starts."""
        rng = self._rng("tenants", -1)
        return self._draw_tenants(rng, self.initial_count)

    def arrivals(self, epoch: int) -> List[TenantSpec]:
        """Tenants arriving at ``epoch`` (Poisson, flash-boosted)."""
        lam = self.mean_arrivals
        if self.in_flash(epoch):
            lam *= self.flash_magnitude
        rng = self._rng("tenants", epoch)
        return self._draw_tenants(rng, _poisson(rng, lam))

    # -- correlated failures --------------------------------------------------

    def chip_failures(self, epoch: int) -> List[int]:
        """Chip ids killed at ``epoch`` — whole racks at a time.

        One ``chip_failure`` roll per rack per epoch; a firing returns
        every chip in the rack. Pure, so tests recompute the expected
        blast radius independently of the fleet's bookkeeping.
        """
        plan = self.fault_plan
        if plan is None or plan.chip_failure <= 0.0:
            return []
        failed: List[int] = []
        for rack in range(self.num_racks):
            if plan.fires("chip_failure", f"rack:{rack}:epoch:{epoch}"):
                failed.extend(
                    range(
                        rack * self.rack_size,
                        min((rack + 1) * self.rack_size, self.chips),
                    )
                )
        return failed

    # -- repair & degradation (the self-healing half) -------------------------

    def repair_delay(
        self, chip_id: int, failed_epoch: int
    ) -> Optional[int]:
        """Epochs until a chip failed at ``failed_epoch`` is repaired.

        ``None`` means the chip is *not* repairable (no plan, the
        ``chip_repair`` site is off, or its per-failure roll spared
        this chip) and stays dead for the rest of the run. When the
        site fires, an MTTR-style exponential delay with mean
        ``plan.repair_mttr_epochs`` is drawn from the same decision key
        (attempt 1), floored at one epoch so a chip never fails and
        rejoins within the same epoch. Pure function of
        ``(seed, chip, failed_epoch)`` — tests recompute the repair
        schedule independently of the fleet's bookkeeping.
        """
        plan = self.fault_plan
        if plan is None or plan.chip_repair <= 0.0:
            return None
        key = f"chip:{chip_id}:fail:{failed_epoch}"
        if not plan.fires("chip_repair", key):
            return None
        u = plan.roll("chip_repair", key, attempt=1)
        # Inverse-CDF exponential; u < 1 by construction.
        delay = -plan.repair_mttr_epochs * math.log(1.0 - u)
        return max(1, 1 + int(delay))

    def slow_chips(self, epoch: int) -> List[int]:
        """Chip ids acting as stragglers at ``epoch``.

        One ``chip_slow`` roll per chip per epoch: while it fires the
        chip's queueing service times are inflated by
        ``plan.slow_service_factor`` and the scheduler deprioritises
        the chip. Pure and order-independent, like
        :meth:`chip_failures`.
        """
        plan = self.fault_plan
        if plan is None or plan.chip_slow <= 0.0:
            return []
        return [
            chip_id
            for chip_id in range(self.chips)
            if plan.fires("chip_slow", f"chip:{chip_id}:epoch:{epoch}")
        ]

    @property
    def slow_service_factor(self) -> float:
        """Service-time inflation on straggler chips (1.0 = no plan)."""
        if self.fault_plan is None:
            return 1.0
        return self.fault_plan.slow_service_factor

    # -- canonical form -------------------------------------------------------

    def as_params(self) -> Dict[str, Any]:
        """JSON-canonical dict form (embedded in fleet results)."""
        out: Dict[str, Any] = {}
        for f in fields(self):
            value = getattr(self, f.name)
            if isinstance(value, FaultPlan):
                value = value.as_params()
            out[f.name] = value
        return out

    @classmethod
    def from_params(cls, params: Mapping[str, Any]) -> "Scenario":
        """Inverse of :meth:`as_params`."""
        known = {f.name for f in fields(cls)}
        unknown = sorted(set(params) - known)
        if unknown:
            raise ConfigError(f"unknown Scenario fields: {unknown}")
        kwargs = dict(params)
        if kwargs.get("fault_plan") is not None:
            kwargs["fault_plan"] = FaultPlan.from_params(
                kwargs["fault_plan"]
            )
        return cls(**kwargs)
