"""Miss curves: misses-per-kilo-instruction as a function of LLC allocation.

Miss curves are the central abstraction that Jumanji's placement algorithms
consume. A :class:`MissCurve` maps an allocation size (in cache *units*,
typically MB or ways) to a miss rate. The module also provides:

* :func:`MissCurve.convex_hull` — the paper approximates DRRIP's miss curve
  by the convex (lower) hull of LRU's miss curve (Sec. IV-A, citing
  Talus [7]).
* :func:`combine_curves` — the combined miss curve of several applications
  sharing one allocation, following the model of Whirlpool [61, App. B]:
  at a combined size ``s`` the apps partition ``s`` to equalise marginal
  utility, which the Lookahead-style combination below computes.
"""

from __future__ import annotations

import hashlib
import threading
from collections import OrderedDict
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

__all__ = ["MissCurve", "combine_curves"]

#: Horizon scans a curve remembers beyond one per grid point, oldest
#: evicted first. The placers start their scans at grid points (each
#: app's or VM's size in each greedy round): :func:`combine_curves` on a
#: 20 MB LLC walks up to every start of each input curve, and UCP
#: Lookahead dozens of each VM curve per epoch, so a curve keeps
#: ``num_points`` scans to replay all of them across rounds and epochs.
#: The headroom holds the off-grid starts of one bank-granular
#: JumanjiLookahead call (whole banks minus an LC reservation), which
#: move with the reservation from epoch to epoch.
_SCAN_HEADROOM = 32

#: Serialises inserts and evictions on every curve's scan store. Reads
#: are single ``dict.get`` calls and need no lock: an entry is a tuple
#: built in full before it is stored, so a reader sees all of it or none.
_SCAN_LOCK = threading.Lock()

#: One stored scan, flat for compactness: the horizon ``n`` it covered,
#: then its strict prefix-max records as ``k, utils[k]`` pairs in
#: increasing ``k``: ``(n, k0, u0, k1, u1, ...)``.
_Scan = Tuple[float, ...]


class MissCurve:
    """A monotone non-increasing miss curve sampled at uniform points.

    ``curve[i]`` is the miss rate (e.g. MPKI) when the application is
    allocated ``i * step`` units of cache. The curve has
    ``num_points = len(values)`` samples covering allocations
    ``0, step, 2*step, ..., (num_points-1)*step``.
    """

    __slots__ = ("_values", "_step", "_fingerprint", "_scans")

    def __init__(self, values: Sequence[float], step: float = 1.0):
        arr = np.asarray(values, dtype=float)
        if arr.ndim != 1 or arr.size < 2:
            raise ValueError("miss curve needs at least two samples")
        if step <= 0:
            raise ValueError("step must be positive")
        if np.any(arr < 0):
            raise ValueError("miss rates must be non-negative")
        # Enforce monotonicity: more cache never hurts. Tiny violations
        # (e.g. from sampling noise in UMONs) are clamped.
        arr = np.minimum.accumulate(arr)
        self._values = arr
        self._step = float(step)
        self._fingerprint: Optional[bytes] = None
        self._scans: Optional[Dict[Tuple[float, float], _Scan]] = None

    # -- basic accessors ---------------------------------------------------

    @property
    def values(self) -> np.ndarray:
        """The sampled miss rates (read-only view)."""
        v = self._values.view()
        v.flags.writeable = False
        return v

    @property
    def step(self) -> float:
        """Allocation distance between adjacent samples."""
        return self._step

    @property
    def num_points(self) -> int:
        """Number of samples in the curve."""
        return int(self._values.size)

    @property
    def fingerprint(self) -> bytes:
        """Content digest of the curve (step + samples), lazily cached.

        Curves are immutable after construction, so the digest is a
        stable identity usable as a memoisation key — two curves with
        equal fingerprints interpolate identically everywhere. The
        placement memo and :func:`combine_curves` cache key on this.
        """
        fp = self._fingerprint
        if fp is None:
            digest = hashlib.blake2b(digest_size=16)
            digest.update(repr(self._step).encode())
            digest.update(self._values.tobytes())
            fp = digest.digest()
            self._fingerprint = fp
        return fp

    @property
    def max_size(self) -> float:
        """Largest allocation covered by the curve."""
        return (self.num_points - 1) * self._step

    def __len__(self) -> int:
        return self.num_points

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, MissCurve):
            return NotImplemented
        return self._step == other._step and np.array_equal(
            self._values, other._values
        )

    def __repr__(self) -> str:
        return (
            f"MissCurve(points={self.num_points}, step={self._step}, "
            f"range=[{self._values[-1]:.3f}, {self._values[0]:.3f}])"
        )

    # -- evaluation ---------------------------------------------------------

    def misses_at(self, size: float) -> float:
        """Miss rate at an allocation of ``size`` units (linear interp).

        Sizes beyond the sampled range saturate at the last sample; negative
        sizes are an error.
        """
        if size < 0:
            raise ValueError("allocation size must be non-negative")
        pos = size / self._step
        if pos >= self.num_points - 1:
            return float(self._values[-1])
        lo = int(pos)
        frac = pos - lo
        return float(
            self._values[lo] * (1.0 - frac) + self._values[lo + 1] * frac
        )

    def misses_at_many(self, sizes: Sequence[float]) -> np.ndarray:
        """Vectorised :meth:`misses_at` over an array of sizes.

        Bit-identical to calling :meth:`misses_at` per element (same
        IEEE operations in the same order) — the hot loops in
        :func:`combine_curves` and the Lookahead scans rely on that.
        """
        pos = np.asarray(sizes, dtype=float) / self._step
        # Bare ufuncs throughout: at these sizes the Python wrappers of
        # ``np.any`` and ``np.clip`` cost more than the work.
        if np.logical_or.reduce(pos < 0, axis=None):
            raise ValueError("allocation size must be non-negative")
        n = self.num_points
        saturated = pos >= n - 1
        lo = pos.astype(np.int64)
        # Clip to [0, n-2]. The lower bound stays for NaN sizes, whose
        # int cast is INT64_MIN.
        np.maximum(lo, 0, out=lo)
        np.minimum(lo, n - 2, out=lo)
        frac = pos - lo
        out = self._values[lo] * (1.0 - frac) + self._values[lo + 1] * frac
        out[saturated] = self._values[-1]
        return out

    def marginal_utility(self, size: float, delta: float) -> float:
        """Misses avoided per unit of cache by growing ``size`` by ``delta``.

        This is the quantity the Lookahead algorithm maximises.
        """
        if delta <= 0:
            raise ValueError("delta must be positive")
        return (self.misses_at(size) - self.misses_at(size + delta)) / delta

    def best_horizon(
        self, start: float, step: float, max_steps: int,
        best_util: float = -1.0,
    ) -> Tuple[float, int]:
        """The Lookahead horizon scan from ``start``, with its tie-break.

        Candidate ``k`` (``0 <= k < max_steps``) grows the allocation
        from ``start`` by ``(k + 1) * step`` at an average marginal
        utility of ``utils[k] = (m(start) - m(start + (k+1)*step)) /
        ((k+1)*step)``. The placers accept a candidate with the
        sequential rule ``if util > best_util + 1e-15``, chained from the
        incoming ``best_util``. Returns ``(new_best_util, k)`` for the
        last accepted candidate, or ``(best_util, -1)`` if none was.

        That chain is not a plain argmax (the accepted maximum can trail
        the true prefix maximum by up to ``1e-15`` per rejection), but
        every accepted candidate is a strict prefix-max record of
        ``utils``: any value ``v`` seen before an accepted ``u``
        satisfies ``v <= accepted_max + 1e-15 < u``. So the scan keeps
        only those records, and the exact scalar comparison is replayed
        over them. ``utils`` is elementwise in ``k``, so a shorter
        horizon's row is a prefix of a longer one and its records are
        the longer row's records below the cut: a stored scan serves
        every request at its step up to its horizon, whatever
        ``best_util`` comes in. So a scan runs past ``max_steps`` to the
        curve's end, and every later request at that start replays it.
        Scans are stored by ``(start, step)``, since VM-Part and Jumanji
        scan one combined curve from the same starts at the grid step
        and at the bank size; a request past the stored horizon rescans
        and replaces the entry.
        """
        if max_steps < 1:
            return best_util, -1
        scans = self._scans
        scan = scans.get((start, step)) if scans is not None else None
        if scan is None or scan[0] < max_steps:
            scan = self._scan_horizon(start, step, max(
                max_steps, int((self.max_size - start) / step) + 1
            ))
        best_idx = -1
        for i in range(1, len(scan), 2):
            k = scan[i]
            if k >= max_steps:
                break
            util = scan[i + 1]
            if util > best_util + 1e-15:
                best_util = util
                best_idx = k
        return best_util, best_idx

    def _scan_horizon(self, start: float, step: float, n: int) -> _Scan:
        """Scan ``n`` horizons from ``start`` and store the records."""
        deltas = np.arange(1, n + 1, dtype=float) * step
        utils = (
            self.misses_at(start) - self.misses_at_many(start + deltas)
        ) / deltas
        # utils[k] is a record iff it beats every earlier value, i.e.
        # iff the running max rises at k; the first value is one unless
        # it is NaN or -inf. At a record the running max is utils[k].
        running = np.maximum.accumulate(utils)
        first = float(running[0])
        flat: List[float] = [n]
        if first > -np.inf:
            flat += (0, first)
        for k in (running[1:] > running[:-1]).nonzero()[0].tolist():
            flat += (k + 1, float(running[k + 1]))
        scan = tuple(flat)
        with _SCAN_LOCK:
            scans = self._scans
            if scans is None:
                scans = self._scans = {}
            key = (start, step)
            scans.pop(key, None)
            scans[key] = scan
            if len(scans) > self.num_points + _SCAN_HEADROOM:
                del scans[next(iter(scans))]
        return scan

    # -- transformations ----------------------------------------------------

    def convex_hull(self) -> "MissCurve":
        """Lower convex hull of the curve.

        The paper approximates DRRIP's miss curve by the convex hull of
        LRU's miss curve, which can be measured much more cheaply
        (Sec. IV-A). The hull is computed over (size, misses) points with a
        monotone-chain scan and resampled at the original sample positions.
        """
        n = self.num_points
        xs = np.arange(n, dtype=float) * self._step
        ys = self._values
        # Monotone chain over the lower hull: keep points where the slope
        # sequence is non-decreasing.
        hull: List[int] = []
        for i in range(n):
            while len(hull) >= 2:
                a, b = hull[-2], hull[-1]
                # Cross product of (b-a) x (i-a); <= 0 means b is above or on
                # the segment a--i, so b is not on the lower hull.
                cross = (xs[b] - xs[a]) * (ys[i] - ys[a]) - (
                    ys[b] - ys[a]
                ) * (xs[i] - xs[a])
                if cross <= 0:
                    hull.pop()
                else:
                    break
            hull.append(i)
        hx = xs[hull]
        hy = ys[hull]
        resampled = np.interp(xs, hx, hy)
        return MissCurve(resampled, self._step)

    def scaled(self, factor: float) -> "MissCurve":
        """Curve with all miss rates multiplied by ``factor`` (>= 0)."""
        if factor < 0:
            raise ValueError("factor must be non-negative")
        return MissCurve(self._values * factor, self._step)

    def resampled(self, num_points: int, step: float) -> "MissCurve":
        """Resample the curve onto a new uniform grid."""
        if num_points < 2:
            raise ValueError("need at least two points")
        old_x = np.arange(self.num_points, dtype=float) * self._step
        new_x = np.arange(num_points, dtype=float) * step
        return MissCurve(np.interp(new_x, old_x, self._values), step)

    # -- constructors --------------------------------------------------------

    @staticmethod
    def flat(value: float, num_points: int, step: float = 1.0) -> "MissCurve":
        """A cache-insensitive (constant) miss curve."""
        return MissCurve(np.full(num_points, float(value)), step)

    @staticmethod
    def from_samples(
        sizes: Sequence[float], misses: Sequence[float], num_points: int,
        step: float,
    ) -> "MissCurve":
        """Build a curve from irregular (size, misses) samples."""
        sizes = np.asarray(sizes, dtype=float)
        misses = np.asarray(misses, dtype=float)
        if sizes.shape != misses.shape or sizes.size < 2:
            raise ValueError("need matching size/miss arrays of length >= 2")
        order = np.argsort(sizes)
        grid = np.arange(num_points, dtype=float) * step
        return MissCurve(np.interp(grid, sizes[order], misses[order]), step)


#: Content-keyed cache for :func:`combine_curves`. The epoch loop
#: recombines the same static VM curves every reconfiguration; keying on
#: curve fingerprints makes that free while staying correct for drifting
#: (UMON-measured) curves, which produce new fingerprints.
_COMBINE_CACHE: "OrderedDict[Tuple[bytes, ...], MissCurve]" = OrderedDict()
_COMBINE_CACHE_MAX = 256

#: Serialises every hit, insert and eviction on :data:`_COMBINE_CACHE`.
#: Serve sessions decide concurrently, and an eviction landing between
#: a hit's ``get`` and ``move_to_end`` would raise ``KeyError``.
_COMBINE_LOCK = threading.Lock()


def combine_curves(curves: Iterable[MissCurve]) -> MissCurve:
    """Combined miss curve of applications sharing one allocation.

    Follows the partitioned-sharing model of Whirlpool [61, Appendix B]:
    for each total size ``s``, the optimal split of ``s`` among the apps
    (the one a utility-maximising partitioner would pick) determines the
    combined miss rate. We compute it with a greedy marginal-utility sweep,
    which is exact for convex curves and a good approximation otherwise.

    All input curves must share the same ``step``; the result covers the
    same number of points as the longest input. Note the range caveat:
    beyond its last sample the combined curve *saturates*, even though
    the true combination of N apps keeps improving up to N x each
    curve's range — so build input curves to span the full capacity you
    will evaluate (the placement layer samples every curve across the
    whole LLC for this reason).
    """
    curve_list = list(curves)
    if not curve_list:
        raise ValueError("need at least one curve")
    step = curve_list[0].step
    if any(c.step != step for c in curve_list):
        raise ValueError("all curves must share the same step")
    key = tuple(c.fingerprint for c in curve_list)
    with _COMBINE_LOCK:
        cached = _COMBINE_CACHE.get(key)
        if cached is not None:
            _COMBINE_CACHE.move_to_end(key)
            return cached
    num_points = max(c.num_points for c in curve_list)

    # Lookahead allocation: repeatedly grant the multi-step extension with
    # the highest *average* marginal utility. Plain greedy would stall on
    # cliff-shaped curves (no gain until the working set fits), flattening
    # the combined curve; scanning horizons walks through cliffs, exactly
    # as UCP's Lookahead does. combined[k] = total misses with k units
    # split this way; intermediate points within a multi-step grant are
    # filled by advancing the chosen app's allocation stepwise.
    n_apps = len(curve_list)
    allocs = [0.0] * n_apps
    # Per-app miss rate at the current allocation: only the granted
    # app's entry changes per step, so the O(apps) recomputation of the
    # scalar code collapses to one interpolation plus a list sum (same
    # values summed in the same order — bit-identical).
    current = [c.misses_at(0.0) for c in curve_list]
    combined = np.empty(num_points, dtype=float)
    combined[0] = sum(current)
    granted = 0
    while granted < num_points - 1:
        remaining = num_points - 1 - granted
        best_app = -1
        best_util = -1.0
        best_k = 1
        for i, curve in enumerate(curve_list):
            best_util, idx = curve.best_horizon(
                allocs[i], step, remaining, best_util
            )
            if idx >= 0:
                best_app = i
                best_k = idx + 1
        if best_app < 0 or best_util <= 0:
            # Nobody benefits further: the curve is flat from here on.
            combined[granted + 1 :] = combined[granted]
            break
        curve = curve_list[best_app]
        for _ in range(best_k):
            allocs[best_app] += step
            current[best_app] = curve.misses_at(allocs[best_app])
            granted += 1
            combined[granted] = sum(current)
    result = MissCurve(combined, step)
    with _COMBINE_LOCK:
        _COMBINE_CACHE[key] = result
        while len(_COMBINE_CACHE) > _COMBINE_CACHE_MAX:
            _COMBINE_CACHE.popitem(last=False)
    return result
