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
from collections import OrderedDict
from typing import Iterable, List, Optional, Sequence, Tuple

import numpy as np

__all__ = ["MissCurve", "combine_curves", "chain_argbest"]


class MissCurve:
    """A monotone non-increasing miss curve sampled at uniform points.

    ``curve[i]`` is the miss rate (e.g. MPKI) when the application is
    allocated ``i * step`` units of cache. The curve has
    ``num_points = len(values)`` samples covering allocations
    ``0, step, 2*step, ..., (num_points-1)*step``.
    """

    __slots__ = ("_values", "_step", "_fingerprint")

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


def chain_argbest(
    utils: np.ndarray, best_util: float, eps: float = 1e-15
) -> Tuple[float, int]:
    """Replay the scalar tie-break chain over ``utils`` exactly.

    The greedy placers pick candidates with the sequential rule
    ``if util > best_util + eps: accept``. That chain cannot be replaced
    by a plain argmax (the accepted maximum can trail the true prefix
    maximum by up to ``eps`` per rejection), but every *accepted*
    candidate is provably a strict prefix-max record: any value ``v``
    seen before an accepted ``u`` satisfies ``v <= accepted_max + eps <
    u``. So we find the strict records vectorised and replay the exact
    python comparison only over those few indices.

    Returns ``(new_best_util, accepted_index)`` where the index is the
    last accepted candidate, or -1 if nothing beat ``best_util``.
    """
    if utils.size == 0:
        return best_util, -1
    running = np.maximum.accumulate(utils)
    prev = np.empty_like(running)
    prev[0] = -np.inf
    prev[1:] = running[:-1]
    best_idx = -1
    for i in np.flatnonzero(utils > prev).tolist():
        util = float(utils[i])
        if util > best_util + eps:
            best_util = util
            best_idx = i
    return best_util, best_idx


#: Content-keyed cache for :func:`combine_curves`. The epoch loop
#: recombines the same static VM curves every reconfiguration; keying on
#: curve fingerprints makes that free while staying correct for drifting
#: (UMON-measured) curves, which produce new fingerprints.
_COMBINE_CACHE: "OrderedDict[Tuple[bytes, ...], MissCurve]" = OrderedDict()
_COMBINE_CACHE_MAX = 256


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
        deltas = np.arange(1, remaining + 1, dtype=float) * step
        for i, curve in enumerate(curve_list):
            # Vectorised horizon scan; chain_argbest replays the exact
            # sequential tie-break of the scalar code.
            utils = (
                current[i] - curve.misses_at_many(allocs[i] + deltas)
            ) / deltas
            best_util, idx = chain_argbest(utils, best_util)
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
    _COMBINE_CACHE[key] = result
    while len(_COMBINE_CACHE) > _COMBINE_CACHE_MAX:
        _COMBINE_CACHE.popitem(last=False)
    return result
