"""Cache replacement policies: LRU, SRRIP, BRRIP, and DRRIP with set-dueling.

DRRIP (Jaleel et al., ISCA 2010) dynamically selects between SRRIP and
BRRIP using *set-dueling*: a few "leader" sets are hard-wired to each
policy and a shared policy-selector (PSEL) counter tracks which leader
group misses less; follower sets use the winning policy.

The PSEL counter and leader sets are shared by *every* partition in the
bank. This shared microarchitectural state is exactly the performance-
leakage channel the paper demonstrates in Fig. 12: a co-running untrusted
application can flip the bank's policy choice and change a victim's miss
rate even when way-partitioning keeps their data apart.
"""

from __future__ import annotations

from typing import List, Sequence

__all__ = [
    "ReplacementPolicy",
    "LruPolicy",
    "SrripPolicy",
    "BrripPolicy",
    "DrripPolicy",
    "make_policy",
]


class ReplacementPolicy:
    """Interface for per-set replacement state.

    The policy tracks ``num_sets`` sets of ``num_ways`` ways each. The bank
    calls :meth:`victim` with the ways eligible for eviction (after
    partitioning constraints), then :meth:`on_fill` / :meth:`on_hit` to
    update state.
    """

    name = "base"

    def __init__(self, num_sets: int, num_ways: int):
        if num_sets < 1 or num_ways < 1:
            raise ValueError("need at least one set and one way")
        self.num_sets = num_sets
        self.num_ways = num_ways

    def victim(self, set_idx: int, candidates: Sequence[int]) -> int:
        """Choose the way to evict among ``candidates`` (non-empty)."""
        raise NotImplementedError

    def on_hit(self, set_idx: int, way: int) -> None:
        """Update state on a hit to ``way``."""
        raise NotImplementedError

    def on_fill(self, set_idx: int, way: int) -> None:
        """Update state when a new line is installed in ``way``."""
        raise NotImplementedError

    def on_miss(self, set_idx: int) -> None:
        """Called on every miss to ``set_idx`` (used by set-dueling)."""

    def _check_set(self, set_idx: int) -> None:
        if not 0 <= set_idx < self.num_sets:
            raise IndexError(f"set {set_idx} out of range")


class LruPolicy(ReplacementPolicy):
    """True LRU via per-set recency timestamps."""

    name = "lru"

    def __init__(self, num_sets: int, num_ways: int):
        super().__init__(num_sets, num_ways)
        self._stamp: List[List[int]] = [
            [0] * num_ways for _ in range(num_sets)
        ]
        self._clock = 0

    def _touch(self, set_idx: int, way: int) -> None:
        self._clock += 1
        self._stamp[set_idx][way] = self._clock

    def victim(self, set_idx: int, candidates: Sequence[int]) -> int:
        """See :meth:`ReplacementPolicy.victim`."""
        self._check_set(set_idx)
        if not candidates:
            raise ValueError("no eviction candidates")
        stamps = self._stamp[set_idx]
        return min(candidates, key=lambda w: stamps[w])

    def on_hit(self, set_idx: int, way: int) -> None:
        """See :meth:`ReplacementPolicy.on_hit`."""
        self._touch(set_idx, way)

    def on_fill(self, set_idx: int, way: int) -> None:
        """See :meth:`ReplacementPolicy.on_fill`."""
        self._touch(set_idx, way)


class _RripBase(ReplacementPolicy):
    """Common machinery for RRIP variants.

    Each line holds an M-bit re-reference prediction value (RRPV);
    ``2^M - 1`` means "re-referenced in the distant future" and is the
    eviction target. Hits promote to RRPV 0 (hit-priority).
    """

    def __init__(self, num_sets: int, num_ways: int, m_bits: int = 2):
        super().__init__(num_sets, num_ways)
        if m_bits < 1:
            raise ValueError("need at least 1 RRPV bit")
        self.rrpv_max = (1 << m_bits) - 1
        self._rrpv: List[List[int]] = [
            [self.rrpv_max] * num_ways for _ in range(num_sets)
        ]

    def victim(self, set_idx: int, candidates: Sequence[int]) -> int:
        """See :meth:`ReplacementPolicy.victim`."""
        self._check_set(set_idx)
        if not candidates:
            raise ValueError("no eviction candidates")
        rrpvs = self._rrpv[set_idx]
        # Closed form of the hardware aging loop (age all candidates by 1
        # until one reaches rrpv_max, evict the first such way): every
        # candidate ages by the same amount, so the victim is the first
        # candidate holding the maximum RRPV and the aging delta is
        # rrpv_max minus that maximum. Aging only touches the candidate
        # ways so partitions stay isolated in content (the *policy
        # choice* is what leaks in DRRIP).
        best = candidates[0]
        top = rrpvs[best]
        for way in candidates:
            v = rrpvs[way]
            if v > top:
                top = v
                best = way
        delta = self.rrpv_max - top
        if delta:
            for way in candidates:
                rrpvs[way] += delta
        return best

    def on_hit(self, set_idx: int, way: int) -> None:
        """See :meth:`ReplacementPolicy.on_hit`."""
        self._rrpv[set_idx][way] = 0

    def _insertion_rrpv(self, set_idx: int) -> int:
        raise NotImplementedError

    def on_fill(self, set_idx: int, way: int) -> None:
        """See :meth:`ReplacementPolicy.on_fill`."""
        self._rrpv[set_idx][way] = self._insertion_rrpv(set_idx)


class SrripPolicy(_RripBase):
    """Static RRIP: insert at RRPV = max - 1 ("long re-reference")."""

    name = "srrip"

    def _insertion_rrpv(self, set_idx: int) -> int:
        return self.rrpv_max - 1


class BrripPolicy(_RripBase):
    """Bimodal RRIP: insert at max, rarely (1/32) at max - 1.

    Uses a deterministic counter rather than randomness so simulations are
    reproducible.
    """

    name = "brrip"
    THROTTLE = 32

    def __init__(self, num_sets: int, num_ways: int, m_bits: int = 2):
        super().__init__(num_sets, num_ways, m_bits)
        self._fill_count = 0

    def _insertion_rrpv(self, set_idx: int) -> int:
        self._fill_count += 1
        if self._fill_count % self.THROTTLE == 0:
            return self.rrpv_max - 1
        return self.rrpv_max


class DrripPolicy(_RripBase):
    """Dynamic RRIP with set-dueling between SRRIP and BRRIP.

    ``leader_period`` spaces the leader sets: set ``i`` is an SRRIP leader
    when ``i % leader_period == 0`` and a BRRIP leader when
    ``i % leader_period == leader_period // 2``. A saturating PSEL counter
    (10 bits by default) is incremented on SRRIP-leader misses and
    decremented on BRRIP-leader misses; follower sets use BRRIP when the
    counter's MSB is set, SRRIP otherwise.

    The PSEL counter is bank-global and *not* partitioned — the
    performance-leakage channel of the paper's Fig. 12.
    """

    name = "drrip"

    def __init__(
        self,
        num_sets: int,
        num_ways: int,
        m_bits: int = 2,
        psel_bits: int = 10,
        leader_period: int = 32,
    ):
        super().__init__(num_sets, num_ways, m_bits)
        if leader_period < 2:
            raise ValueError("leader_period must be >= 2")
        self.psel_bits = psel_bits
        self.psel_max = (1 << psel_bits) - 1
        self.psel = self.psel_max // 2
        self.leader_period = leader_period
        self._brrip_throttle = 0
        self._psel_msb = 1 << (psel_bits - 1)
        # Per-set role codes (0 = SRRIP leader, 1 = BRRIP leader,
        # 2 = follower): the role test sits on every miss and fill, so
        # it must not recompute the modulo / string compare each time.
        half = leader_period // 2
        self._role_code: List[int] = [
            0 if i % leader_period == 0
            else 1 if i % leader_period == half
            else 2
            for i in range(num_sets)
        ]

    # -- set-dueling --------------------------------------------------------

    def set_role(self, set_idx: int) -> str:
        """'srrip', 'brrip', or 'follower' role of a set."""
        return ("srrip", "brrip", "follower")[self._role_code[set_idx]]

    @property
    def follower_policy(self) -> str:
        """Policy currently used by follower sets."""
        return "brrip" if self.psel & self._psel_msb else "srrip"

    def on_miss(self, set_idx: int) -> None:
        """See :meth:`ReplacementPolicy.on_miss`."""
        self._check_set(set_idx)
        code = self._role_code[set_idx]
        if code == 0:
            if self.psel < self.psel_max:
                self.psel += 1
        elif code == 1:
            if self.psel > 0:
                self.psel -= 1

    # -- insertion -----------------------------------------------------------

    def _policy_for_set(self, set_idx: int) -> str:
        role = self.set_role(set_idx)
        if role == "follower":
            return self.follower_policy
        return role

    def _insertion_rrpv(self, set_idx: int) -> int:
        code = self._role_code[set_idx]
        if code == 2:
            code = 1 if self.psel & self._psel_msb else 0
        if code == 0:
            return self.rrpv_max - 1
        self._brrip_throttle += 1
        if self._brrip_throttle % BrripPolicy.THROTTLE == 0:
            return self.rrpv_max - 1
        return self.rrpv_max


_POLICIES = {
    "lru": LruPolicy,
    "srrip": SrripPolicy,
    "brrip": BrripPolicy,
    "drrip": DrripPolicy,
}


def make_policy(
    name: str, num_sets: int, num_ways: int, **kwargs
) -> ReplacementPolicy:
    """Construct a replacement policy by name."""
    try:
        cls = _POLICIES[name.lower()]
    except KeyError:
        raise ValueError(
            f"unknown policy {name!r}; choose from {sorted(_POLICIES)}"
        ) from None
    return cls(num_sets, num_ways, **kwargs)
