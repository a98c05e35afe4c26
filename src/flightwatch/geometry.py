"""Trajectory and obstacle geometry.

Distances from points and trajectories to rotated box footprints, dynamic time
warping between trajectories, arc-length trajectory averaging, and the
search-fitness measure that combines obstacle proximity with execution
non-determinism.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .flightdata import FlightLog, ObstacleBox


# compared and hashed by identity: an array comparison has no single truth value
@dataclass(frozen=True, eq=False)
class Trajectory:
    """Time-stamped 3D flight path derived from the position channel."""

    timestamps: np.ndarray  # (n,)
    points: np.ndarray      # (n, 3)

    def __post_init__(self):
        ts = np.asarray(self.timestamps, dtype=float)
        pts = np.asarray(self.points, dtype=float)
        if pts.ndim != 2 or pts.shape[1] != 3:
            raise ValueError(f"points must have shape (n, 3), got {pts.shape}")
        if ts.shape != (pts.shape[0],):
            raise ValueError("timestamps and points lengths differ")
        if ts.size < 2:
            raise ValueError("a trajectory needs at least 2 points")
        if not np.all(np.diff(ts) > 0):
            raise ValueError("trajectory timestamps must be strictly increasing")
        ts.setflags(write=False)
        pts.setflags(write=False)
        object.__setattr__(self, "timestamps", ts)
        object.__setattr__(self, "points", pts)

    def __len__(self) -> int:
        return self.points.shape[0]


def trajectory_from_log(log: FlightLog) -> Trajectory:
    """Build a Trajectory from a flight log's position channel."""
    pos = log.channel("position")
    if len(pos) < 2:
        raise ValueError("position channel has fewer than 2 records")
    return Trajectory(pos["timestamp"], np.column_stack([pos["x"], pos["y"], pos["z"]]))


# compared and hashed by identity, as Trajectory
@dataclass(frozen=True, eq=False)
class DistanceTrace:
    """Per-timestamp obstacle distance along a flight, linearly interpolable."""

    timestamps: np.ndarray
    distances: np.ndarray

    def __post_init__(self):
        ts = np.asarray(self.timestamps, dtype=float)
        ds = np.asarray(self.distances, dtype=float)
        if ts.shape != ds.shape or ts.ndim != 1 or ts.size == 0:
            raise ValueError("timestamps and distances must be equal-length 1D arrays")
        if ts.size > 1 and not np.all(np.diff(ts) > 0):
            raise ValueError("trace timestamps must be strictly increasing")
        ts.setflags(write=False)
        ds.setflags(write=False)
        object.__setattr__(self, "timestamps", ts)
        object.__setattr__(self, "distances", ds)

    @property
    def min_value(self) -> float:
        return float(self.distances.min())

    def range_min(self, t0, t1):
        """Exact minimum of the piecewise-linear trace over [t0, t1].

        ``t0`` and ``t1`` are numbers, giving a float, or arrays of interval
        ends, giving the minimum of each interval.  The range is clamped to
        the trace's span, so a range outside it gets the nearest edge value;
        for a linear interpolant the minimum is attained at an endpoint or at
        an interior sample.  A NaN end is an error.
        """
        t0, t1 = np.broadcast_arrays(np.asarray(t0, dtype=float),
                                     np.asarray(t1, dtype=float))
        if not np.all(t0 <= t1):
            raise ValueError("range_min needs t0 <= t1")
        ts, ds = self.timestamps, self.distances
        lo = np.maximum(t0, ts[0]).ravel()
        hi = np.minimum(t1, ts[-1]).ravel()
        at_lo = np.interp(lo, ts, ds)
        at_hi = np.interp(hi, ts, ds)
        # min(a, b) in Python's order: a NaN end stays only if it comes first
        best = np.where(at_hi < at_lo, at_hi, at_lo)
        # samples strictly inside (lo, hi) are ds[first:last]; an empty
        # interval reduces from the appended +inf alone
        first = np.searchsorted(ts, lo, side="right")
        last = np.searchsorted(ts, hi, side="left")
        first[first >= last] = ts.size
        bounds = np.empty(2 * lo.size, dtype=np.intp)
        bounds[0::2], bounds[1::2] = first, last
        inner = np.minimum.reduceat(np.append(ds, np.inf), bounds)[0::2]
        best = np.where(inner < best, inner, best)
        return float(best[0]) if t0.ndim == 0 else best.reshape(t0.shape)

    def first_time_below(self, threshold: float) -> float | None:
        """Timestamp of the first sample strictly below threshold, if any."""
        below = self.distances < threshold
        if not below.any():
            return None
        return float(self.timestamps[int(np.argmax(below))])


def point_box_distance(px: float, py: float, box: ObstacleBox) -> float:
    """Horizontal-plane distance from a point to a rotated box footprint.

    Zero when the point lies inside or on the rectangle.  Altitude is ignored;
    the box height is kept only for format completeness.
    """
    return float(_points_box_distance(np.array([[px, py]]), box)[0])


def _points_box_distance(xy: np.ndarray, box: ObstacleBox) -> np.ndarray:
    """Vectorized point -> rotated-rectangle distance for an (n, 2) array."""
    theta = math.radians(box.rotation)
    c, s = math.cos(theta), math.sin(theta)
    dx = xy[:, 0] - box.cx
    dy = xy[:, 1] - box.cy
    # rotate into the box frame, then clamp against the half extents
    lx = dx * c + dy * s
    ly = -dx * s + dy * c
    ex = np.maximum(np.abs(lx) - box.length / 2.0, 0.0)
    ey = np.maximum(np.abs(ly) - box.width / 2.0, 0.0)
    return np.hypot(ex, ey)


def _as_points(traj) -> np.ndarray:
    if isinstance(traj, Trajectory):
        return traj.points
    pts = np.asarray(traj, dtype=float)
    if pts.ndim != 2 or pts.shape[1] != 3:
        raise ValueError(f"expected an (n, 3) point array, got shape {pts.shape}")
    return pts


def min_obstacle_distance(traj: Trajectory,
                          obstacles: Sequence[ObstacleBox]) -> tuple[float, DistanceTrace]:
    """Flight-wide minimum obstacle distance plus the per-timestamp distance
    trace to the nearest obstacle (+inf when none are given)."""
    xy = traj.points[:, :2]
    if len(obstacles) == 0:
        dists = np.full(len(traj), np.inf)
    else:
        dists = np.min(np.stack([_points_box_distance(xy, box) for box in obstacles]), axis=0)
    trace = DistanceTrace(traj.timestamps, dists)
    return trace.min_value, trace


def sum_dist(traj, obstacles: Sequence[ObstacleBox]) -> float:
    """min over trajectory points of the summed distances to all obstacles."""
    if len(obstacles) == 0:
        raise ValueError("sum_dist is undefined for an empty obstacle list")
    xy = _as_points(traj)[:, :2]
    total = np.sum(np.stack([_points_box_distance(xy, box) for box in obstacles]), axis=0)
    return float(total.min())


def dtw(a, b):
    """Dynamic time warping cost between 3D point sequences.

    ``a`` is one (n, 3) sequence, giving a float, or a (k, n, 3) stack of k
    sequences, giving an array of k costs, each that of its sequence alone
    against ``b``.  Classic unconstrained DP with Euclidean local cost and
    total accumulated cost (no path-length normalization).  The sweep runs
    over anti-diagonals (the wavefront form of the recurrence): each cell is
    its cost plus the minimum of its three neighbours, as in the textbook
    recurrence, so results match exhaustive warping-path enumeration exactly.
    The sequences of a stack share one sweep, so each step's three array
    operations serve all of them.
    """
    stack = np.asarray(a.points if isinstance(a, Trajectory) else a, dtype=float)
    single = stack.ndim != 3
    if single:
        stack = _as_points(stack)[None]
    elif stack.shape[2] != 3:
        raise ValueError(f"expected a (k, n, 3) stack of point arrays, got shape {stack.shape}")
    pb = _as_points(b)
    (k, n, _), m = stack.shape, len(pb)
    if k == 0 or n == 0 or m == 0:
        raise ValueError("dtw requires non-empty sequences")
    # cost[i, j, e] pairs stack[e, i] with b[j]; squared distances are summed
    # as (dx² + dy²) + dz², the order in which np.sum(diff * diff, axis=2)
    # adds them, one coordinate at a time
    cost = np.empty((n, m, k))
    for e in range(k):
        sq = np.zeros((n, m))
        for c in range(3):
            delta = stack[e, :, c, None] - pb[None, :, c]
            delta *= delta
            sq += delta
        np.sqrt(sq, out=cost[:, :, e])
    # skew[d, i] is cost[i, d - i], read only where 0 <= d - i < m; every
    # element of this view lies inside cost
    step = cost.itemsize * k
    skew = np.lib.stride_tricks.as_strided(
        cost, shape=(n + m - 1, n, k), strides=(step, (m - 1) * step, cost.itemsize),
        writeable=False)
    # accumulated costs of anti-diagonals d-2, d-1 and d of the (n+1, m+1)
    # table, indexed by i, one column per sequence; border cells are inf
    # except (0, 0) = 0, so the only cell of d = 2, (1, 1), holds its own
    # cost.  A buffer reused for d keeps stale values only below max(1, d - m),
    # where no later read falls.
    prev2, prev1, cur = np.full((3, n + 1, k), np.inf)
    prev1[1] = skew[0, 0]
    for d in range(3, n + m + 1):
        lo, hi = max(1, d - m), min(n, d - 1)
        best = cur[lo:hi + 1]
        np.minimum(prev1[lo - 1:hi], prev1[lo:hi + 1], out=best)  # up, left
        np.minimum(best, prev2[lo - 1:hi], out=best)  # diagonal
        np.add(skew[d - 2, lo - 1:hi], best, out=best)
        prev2, prev1, cur = prev1, cur, prev2
    return float(prev1[n, 0]) if single else prev1[n].copy()


def resample_by_arclength(points, n: int) -> np.ndarray:
    """Resample a polyline to n points uniformly spaced in normalized arc length.

    A degenerate polyline (zero total length) resamples to a constant sequence.
    """
    pts = _as_points(points)
    if n < 2:
        raise ValueError("resample_by_arclength needs n >= 2")
    seg = np.linalg.norm(np.diff(pts, axis=0), axis=1)
    s = np.concatenate([[0.0], np.cumsum(seg)])
    if s[-1] == 0.0:
        return np.repeat(pts[:1], n, axis=0)
    grid = np.linspace(0.0, s[-1], n)
    return np.column_stack([np.interp(grid, s, pts[:, k]) for k in range(3)])


def average_trajectory(trajs: Iterable, resample_n: int = 200) -> np.ndarray:
    """Pointwise mean of trajectories after shared arc-length resampling."""
    stacks = [resample_by_arclength(t, resample_n) for t in trajs]
    if not stacks:
        raise ValueError("average_trajectory needs at least one trajectory")
    return np.mean(np.stack(stacks), axis=0)


def fitness_components(trajs: Sequence, obstacles: Sequence[ObstacleBox], *,
                       max_dtw: float = 65.0, resample_n: int = 200) -> dict[str, float]:
    """Fitness of one test case over its repeated executions, with components.

    Computes the mean DTW divergence of each execution from the average
    trajectory and the summed obstacle proximity of the average trajectory;
    the divergence term engages only above ``max_dtw``.  Lower is more
    interesting to the search this measure serves.
    """
    if not max_dtw > 0:
        raise ValueError("max_dtw must be > 0")
    trajs = list(trajs)
    if not trajs:
        raise ValueError("fitness needs at least one trajectory")
    # executions are compared on the same arc-length grid the average lives on,
    # so identical executions give ave_dtw == 0
    resampled = np.stack([resample_by_arclength(t, resample_n) for t in trajs])
    ave = np.mean(resampled, axis=0)
    # the float additions of summing each execution's dtw in turn
    ave_dtw = sum(dtw(resampled, ave).tolist()) / len(resampled)
    sd = sum_dist(ave, obstacles)
    fitness = sd - ave_dtw if ave_dtw > max_dtw else sd
    return {"sum_dist": sd, "ave_dtw": ave_dtw, "max_dtw": max_dtw,
            "n_executions": float(len(trajs)), "fitness": fitness}
