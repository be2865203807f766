"""Jumanji's OS / system-call interface (paper Sec. V-B, Fig. 6).

The paper extends the system-call interface so that:

* system administrators *register* latency-critical applications;
* latency-critical applications report their tail-latency deadline and
  when each request begins and completes;
* all applications report their *trust domain* (e.g. the VM they belong
  to) so placement can enforce isolation.

This module provides that interface as a small façade over the runtime
pieces, tracking per-request lifetimes (begin -> complete) so latencies
include queueing, exactly as the controller expects. It is what a
hypervisor integration would call; the simulation layers drive the
runtime directly for speed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Set

__all__ = ["TrustDomain", "JumanjiSyscalls", "RequestToken"]


@dataclass(frozen=True)
class TrustDomain:
    """A set of mutually trusting applications (e.g. one VM)."""

    domain_id: int
    name: str = ""


@dataclass(frozen=True)
class RequestToken:
    """Handle returned by ``request_begin``; passed to ``request_end``."""

    app: str
    request_id: int
    begin_cycles: float


class JumanjiSyscalls:
    """The user-facing half of Jumanji's software stack.

    Wire ``on_latency`` to ``JumanjiRuntime.report_latency`` to close
    the loop with the feedback controller; the runtime's placement then
    consults :meth:`trust_domain_of` via the VM specs.
    """

    def __init__(
        self,
        on_latency: Optional[Callable[[str, float], None]] = None,
    ):
        self._on_latency = on_latency
        self._domains: Dict[int, TrustDomain] = {}
        self._app_domain: Dict[str, int] = {}
        self._lc_deadlines: Dict[str, float] = {}
        self._inflight: Dict[int, RequestToken] = {}
        self._next_request_id = 0
        self._completed: Dict[str, int] = {}

    # -- trust domains -----------------------------------------------------------

    def create_trust_domain(
        self, domain_id: int, name: str = ""
    ) -> TrustDomain:
        """Declare a trust domain (a VM, in the paper's deployment)."""
        if domain_id in self._domains:
            raise ValueError(f"domain {domain_id} already exists")
        domain = TrustDomain(domain_id, name)
        self._domains[domain_id] = domain
        return domain

    def assign_trust_domain(self, app: str, domain_id: int) -> None:
        """Attach an app to its trust domain."""
        if domain_id not in self._domains:
            raise KeyError(f"unknown domain {domain_id}")
        self._app_domain[app] = domain_id

    def trust_domain_of(self, app: str) -> TrustDomain:
        """The trust domain an app belongs to."""
        try:
            return self._domains[self._app_domain[app]]
        except KeyError:
            raise KeyError(f"{app!r} has no trust domain") from None

    def apps_in_domain(self, domain_id: int) -> Set[str]:
        """All apps assigned to a domain."""
        return {
            a for a, d in self._app_domain.items() if d == domain_id
        }

    # -- latency-critical registration ------------------------------------------------

    def register_latency_critical(
        self, app: str, deadline_cycles: float
    ) -> None:
        """Administrator registers an LC app and its deadline.

        Apps share performance *goals*, not resource requests — Jumanji
        takes responsibility for allocating resources to meet them.
        """
        if deadline_cycles <= 0:
            raise ValueError("deadline must be positive")
        if app not in self._app_domain:
            raise KeyError(
                f"{app!r} must join a trust domain before registering"
            )
        self._lc_deadlines[app] = deadline_cycles

    def is_latency_critical(self, app: str) -> bool:
        """Whether an app was registered as latency-critical."""
        return app in self._lc_deadlines

    def deadline_of(self, app: str) -> float:
        """The app's registered deadline (cycles)."""
        try:
            return self._lc_deadlines[app]
        except KeyError:
            raise KeyError(f"{app!r} is not latency-critical") from None

    def latency_critical_apps(self) -> List[str]:
        """Registered LC apps, sorted."""
        return sorted(self._lc_deadlines)

    # -- request lifetime ---------------------------------------------------------

    def request_begin(self, app: str, now_cycles: float) -> RequestToken:
        """An LC request arrived (enters the server queue)."""
        if app not in self._lc_deadlines:
            raise KeyError(f"{app!r} is not latency-critical")
        token = RequestToken(
            app=app,
            request_id=self._next_request_id,
            begin_cycles=now_cycles,
        )
        self._next_request_id += 1
        self._inflight[token.request_id] = token
        return token

    def request_end(
        self, token: RequestToken, now_cycles: float
    ) -> float:
        """An LC request completed; reports latency to the controller.

        Returns the end-to-end latency (including queueing delay, since
        ``begin`` is arrival, not service start).
        """
        if token.request_id not in self._inflight:
            raise KeyError(
                f"request {token.request_id} not in flight"
            )
        if now_cycles < token.begin_cycles:
            raise ValueError("completion before arrival")
        del self._inflight[token.request_id]
        latency = now_cycles - token.begin_cycles
        self._completed[token.app] = (
            self._completed.get(token.app, 0) + 1
        )
        if self._on_latency is not None:
            self._on_latency(token.app, latency)
        return latency

    def inflight_count(self, app: Optional[str] = None) -> int:
        """Requests currently in flight (queue depth proxy)."""
        if app is None:
            return len(self._inflight)
        return sum(
            1 for t in self._inflight.values() if t.app == app
        )

    def completed_count(self, app: str) -> int:
        """Completed requests observed for an app."""
        return self._completed.get(app, 0)
