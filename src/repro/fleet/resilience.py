"""Fleet self-healing and crash-safety primitives.

Three building blocks the :class:`~repro.fleet.cluster.Fleet` composes
into its hierarchical loop:

* :class:`HealthTracker` — every chip moves through
  ``healthy -> degraded -> failed -> repairing -> healthy``; the
  tracker is the scheduler's source of truth for health-aware placement
  and keeps a ring-buffered transition history per chip (bounded by
  ``history_limit``, the same discipline PR 6 applied to controller
  decisions, so thousand-chip runs stay bounded);
* :class:`AdmissionQueue` — backpressure instead of silent drops: an
  arrival that does not fit waits in a bounded FIFO with per-tenant
  patience; expiry and overflow become auditable ``fleet.rejections``
  rather than vanished tenants;
* :class:`FleetJournal` — a JSON-canonical per-epoch journal making
  ``repro fleet run --checkpoint`` crash-safe. Appends are flushed and
  fsynced, so a SIGKILL loses at most the in-flight line;
  :meth:`FleetJournal.load` tolerates a truncated tail by dropping it.

The journal deliberately records *observables* (per-epoch stats,
cumulative counters, violations), not simulator state: fleet runs are
deterministic in their seed, so resume replays the journaled prefix to
rebuild in-memory state (runtimes, queueing backlogs, RNG positions)
and *verifies* each replayed epoch against the journal — any code or
scenario drift between the crash and the resume fails loudly instead
of silently diverging. The payoff is the acceptance gate: a run killed
at an arbitrary epoch and resumed serialises a
:class:`~repro.fleet.cluster.FleetResult` byte-identical to an
uninterrupted same-seed run.
"""

from __future__ import annotations

import json
import os
import pathlib
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Deque, Dict, List, Optional, Tuple

from ..errors import ConfigError
from .scenarios import TenantSpec

__all__ = [
    "HEALTH_STATES",
    "AdmissionQueue",
    "FleetJournal",
    "HealthTracker",
    "JournalState",
    "PendingArrival",
]

#: The chip lifecycle, in order of decreasing schedulability.
HEALTH_STATES = ("healthy", "degraded", "failed", "repairing")


class HealthTracker:
    """Per-chip health state machine with bounded transition history.

    ``healthy`` and ``degraded`` chips are schedulable (degraded =
    straggler this epoch, deprioritised); ``failed`` chips are dead
    with no repair scheduled; ``repairing`` chips are dead but will
    rejoin. Transitions are recorded as ``(epoch, state)`` pairs in a
    per-chip ring buffer so long fleets keep O(history_limit) state
    per chip.
    """

    def __init__(self, num_chips: int, history_limit: int = 64):
        self._state: Dict[int, str] = {
            chip_id: "healthy" for chip_id in range(num_chips)
        }
        self._history: Dict[int, Deque[Tuple[int, str]]] = {
            chip_id: deque(maxlen=history_limit)
            for chip_id in range(num_chips)
        }

    def state(self, chip_id: int) -> str:
        """The chip's current health state."""
        return self._state[chip_id]

    def set_state(self, chip_id: int, epoch: int, state: str) -> bool:
        """Move a chip to ``state``; True when that was a transition."""
        if state not in HEALTH_STATES:
            raise ConfigError(
                f"unknown health state {state!r}; choose from "
                f"{HEALTH_STATES!r}"
            )
        if self._state[chip_id] == state:
            return False
        self._state[chip_id] = state
        self._history[chip_id].append((epoch, state))
        return True

    def history(self, chip_id: int) -> List[Tuple[int, str]]:
        """Recent ``(epoch, state)`` transitions (ring-buffered)."""
        return list(self._history[chip_id])

    def schedulable(self, chip_id: int) -> bool:
        """Whether the scheduler may place tenants on the chip."""
        return self._state[chip_id] in ("healthy", "degraded")

    def counts(self) -> Dict[str, int]:
        """State -> number of chips currently in it (all states)."""
        out = {state: 0 for state in HEALTH_STATES}
        for state in self._state.values():
            out[state] += 1
        return out


@dataclass(frozen=True)
class PendingArrival:
    """One deferred arrival waiting for capacity."""

    spec: TenantSpec
    enqueued_epoch: int
    #: First epoch the entry is expired instead of retried.
    expires_at: int


class AdmissionQueue:
    """Bounded FIFO of deferred arrivals (admission-control backpressure).

    Deterministic: entries keep arrival order, expiry scans in order,
    and the bound is enforced at :meth:`offer` time (overflow is the
    caller's rejection, never a silent drop of an older entry).
    """

    def __init__(self, limit: int):
        if limit < 0:
            raise ConfigError("pending_limit must be >= 0")
        self.limit = limit
        self._queue: Deque[PendingArrival] = deque()

    def __len__(self) -> int:
        return len(self._queue)

    @property
    def full(self) -> bool:
        """Whether another :meth:`offer` would overflow."""
        return len(self._queue) >= self.limit

    def offer(
        self, spec: TenantSpec, epoch: int, patience: int
    ) -> Optional[PendingArrival]:
        """Defer one arrival; ``None`` when the queue is full."""
        if self.full:
            return None
        entry = PendingArrival(
            spec=spec,
            enqueued_epoch=epoch,
            expires_at=epoch + patience,
        )
        self._queue.append(entry)
        return entry

    def expire(self, epoch: int) -> List[PendingArrival]:
        """Remove and return entries whose patience ran out."""
        expired = [e for e in self._queue if e.expires_at <= epoch]
        if expired:
            self._queue = deque(
                e for e in self._queue if e.expires_at > epoch
            )
        return expired

    def drain(self) -> List[PendingArrival]:
        """Take every waiting entry (FIFO) for a placement attempt.

        The caller re-:meth:`requeue`\\ s what still does not fit, so
        order is preserved across epochs.
        """
        entries = list(self._queue)
        self._queue.clear()
        return entries

    def requeue(self, entry: PendingArrival) -> None:
        """Put a drained entry back (placement attempt failed)."""
        self._queue.append(entry)

    def snapshot(self) -> List[PendingArrival]:
        """The queue's current contents, FIFO order (for audits)."""
        return list(self._queue)


# --------------------------------------------------------------------------
# Crash-safe fleet journal
# --------------------------------------------------------------------------


@dataclass
class JournalState:
    """Everything a journal recorded before the crash."""

    scenario: Dict[str, Any]
    design: str
    #: One record per completed epoch, contiguous from 0:
    #: ``{"epoch", "stats", "counters", "violations"}``.
    epochs: List[Dict[str, Any]] = field(default_factory=list)

    @property
    def next_epoch(self) -> int:
        """First epoch that still has to run."""
        return len(self.epochs)


def _canonical(payload: Any) -> Any:
    """JSON round trip, so in-memory and reloaded records compare
    equal (tuples become lists, dict ordering normalises)."""
    return json.loads(json.dumps(payload, sort_keys=True))


class FleetJournal:
    """Append-only per-epoch journal for one fleet run.

    Line 0 is a header pinning the scenario and design; every later
    line is one completed epoch. Appends are flushed and fsynced so a
    SIGKILL loses at most the in-flight epoch; :meth:`load` drops a
    truncated or garbled tail (that epoch is simply re-run) and
    returns ``None`` for a missing or headerless file.
    """

    def __init__(self, path: os.PathLike):
        self.path = pathlib.Path(path)

    def write_header(
        self, scenario: Dict[str, Any], design: str
    ) -> None:
        """Start a fresh journal (truncates any previous content)."""
        self.path.parent.mkdir(parents=True, exist_ok=True)
        line = json.dumps(
            {
                "kind": "header",
                "scenario": _canonical(scenario),
                "design": design,
            },
            sort_keys=True,
        )
        with open(self.path, "w") as fh:
            fh.write(line + "\n")
            fh.flush()
            os.fsync(fh.fileno())

    def append_epoch(
        self,
        epoch: int,
        stats: Dict[str, Any],
        counters: Dict[str, int],
        violations: List[str],
    ) -> None:
        """Durably record one completed epoch."""
        line = json.dumps(
            {
                "kind": "epoch",
                "epoch": epoch,
                "stats": _canonical(stats),
                "counters": _canonical(counters),
                "violations": list(violations),
            },
            sort_keys=True,
        )
        with open(self.path, "a") as fh:
            fh.write(line + "\n")
            fh.flush()
            os.fsync(fh.fileno())

    def load(self) -> Optional[JournalState]:
        """Parse the journal; ``None`` when there is nothing usable.

        Epoch records must be contiguous from 0 — parsing stops at the
        first gap, duplicate, or corrupt line (everything after a
        crash-truncated line is untrustworthy), and what was read so
        far is returned.
        """
        try:
            text = self.path.read_text()
        except OSError:
            return None
        lines = text.splitlines()
        if not lines:
            return None
        try:
            header = json.loads(lines[0])
        except ValueError:
            return None
        if (
            not isinstance(header, dict)
            or header.get("kind") != "header"
            or not isinstance(header.get("scenario"), dict)
            or not isinstance(header.get("design"), str)
        ):
            return None
        state = JournalState(
            scenario=header["scenario"], design=header["design"]
        )
        for line in lines[1:]:
            line = line.strip()
            if not line:
                break
            try:
                record = json.loads(line)
            except ValueError:
                break  # truncated tail: re-run from here
            if (
                not isinstance(record, dict)
                or record.get("kind") != "epoch"
                or record.get("epoch") != state.next_epoch
                or not isinstance(record.get("stats"), dict)
                or not isinstance(record.get("counters"), dict)
                or not isinstance(record.get("violations"), list)
            ):
                break
            state.epochs.append(record)
        return state

    def clear(self) -> None:
        """Forget all recorded progress."""
        try:
            os.unlink(self.path)
        except OSError:
            pass
