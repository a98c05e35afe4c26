import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from flightwatch.flightdata import ObstacleBox
from flightwatch.geometry import (
    DistanceTrace,
    Trajectory,
    average_trajectory,
    dtw,
    fitness_components,
    min_obstacle_distance,
    point_box_distance,
    resample_by_arclength,
    sum_dist,
)


def _traj(points, t0=0.0, dt=1.0):
    pts = np.asarray(points, dtype=float)
    return Trajectory(t0 + dt * np.arange(len(pts)), pts)


def _line(xs, y, z=0.0):
    return _traj([[x, y, z] for x in xs])


def dtw_bruteforce(a, b):
    """Oracle: exhaustive enumeration of monotone warping paths, costs folded
    left along each path."""
    a = np.asarray(a, float)
    b = np.asarray(b, float)
    n, m = len(a), len(b)
    best = math.inf

    def cost(i, j):
        dx, dy, dz = a[i, 0] - b[j, 0], a[i, 1] - b[j, 1], a[i, 2] - b[j, 2]
        return math.sqrt(dx * dx + dy * dy + dz * dz)

    def walk(i, j, acc):
        nonlocal best
        if i == n - 1 and j == m - 1:
            best = min(best, acc)
            return
        for di, dj in ((1, 0), (0, 1), (1, 1)):
            ni, nj = i + di, j + dj
            if ni < n and nj < m:
                walk(ni, nj, acc + cost(ni, nj))

    walk(0, 0, cost(0, 0))
    return best


def dtw_antidiagonal(a, b):
    """Oracle: the accumulated-cost table swept one anti-diagonal at a time,
    each gathered and scattered by fancy indexing over the full (n+1, m+1)
    table, with the same per-cell arithmetic as :func:`dtw`."""
    pa = np.asarray(a, float)
    pb = np.asarray(b, float)
    diff = pa[:, None, :] - pb[None, :, :]
    cost = np.sqrt(np.sum(diff * diff, axis=2))
    n, m = cost.shape
    acc = np.full((n + 1, m + 1), np.inf)
    acc[0, 0] = 0.0
    for d in range(2, n + m + 1):
        i = np.arange(max(1, d - m), min(n, d - 1) + 1)
        j = d - i
        best = np.minimum(np.minimum(acc[i - 1, j], acc[i, j - 1]), acc[i - 1, j - 1])
        acc[i, j] = cost[i - 1, j - 1] + best
    return float(acc[n, m])


def range_min_scalar(trace, t0, t1):
    """Oracle: the minimum of the trace over one interval [t0, t1], from two
    boolean masks over the whole trace."""
    if t1 < t0:
        raise ValueError("range_min needs t0 <= t1")
    ts, ds = trace.timestamps, trace.distances
    lo = max(t0, float(ts[0]))
    hi = min(t1, float(ts[-1]))
    if hi < lo:  # range lies outside the trace: nearest edge value
        return float(np.interp(lo, ts, ds))
    best = min(float(np.interp(lo, ts, ds)), float(np.interp(hi, ts, ds)))
    inner = ds[(ts > lo) & (ts < hi)]
    if inner.size:
        best = min(best, float(inner.min()))
    return best


class TestPointBoxDistance:
    def test_axis_aligned_offset(self):
        box = ObstacleBox(0, 0, 2, 2, 10, 0)
        assert point_box_distance(5, 0, box) == pytest.approx(4.0, abs=1e-12)

    def test_containment(self):
        box = ObstacleBox(0, 0, 4, 4, 10, 33.0)
        assert point_box_distance(0, 0, box) == 0.0

    def test_rotated_45_degrees(self):
        # unit-half-extent box rotated 45 deg: nearest corner at distance sqrt(2)
        box = ObstacleBox(0, 0, 2, 2, 10, 45.0)
        expected = 2 - math.sqrt(2)
        assert point_box_distance(2, 0, box) == pytest.approx(expected, abs=1e-12)
        # independent check against dense sampling of the rectangle boundary
        ts = np.linspace(-1, 1, 20001)
        corners = []
        for ex, ey in [(1, ts), (-1, ts), (ts, 1), (ts, -1)]:
            xs = np.broadcast_to(ex, ts.shape) if np.isscalar(ex) else ex
            ys = np.broadcast_to(ey, ts.shape) if np.isscalar(ey) else ey
            theta = math.radians(45.0)
            rx = xs * math.cos(theta) - ys * math.sin(theta)
            ry = xs * math.sin(theta) + ys * math.cos(theta)
            corners.append(np.min(np.hypot(rx - 2, ry - 0)))
        assert min(corners) == pytest.approx(expected, abs=1e-6)

    def test_rotation_invariance(self):
        rng = np.random.default_rng(42)
        for _ in range(200):
            cx, cy = rng.uniform(-5, 5, 2)
            box = ObstacleBox(cx, cy, rng.uniform(0.5, 4), rng.uniform(0.5, 4),
                              10, rng.uniform(-180, 180))
            px, py = rng.uniform(-10, 10, 2)
            extra = rng.uniform(-180, 180)
            d0 = point_box_distance(px, py, box)
            # rotate both the point (about the box center) and the box
            theta = math.radians(extra)
            qx = cx + (px - cx) * math.cos(theta) - (py - cy) * math.sin(theta)
            qy = cy + (px - cx) * math.sin(theta) + (py - cy) * math.cos(theta)
            box2 = ObstacleBox(cx, cy, box.length, box.width, 10, box.rotation + extra)
            assert point_box_distance(qx, qy, box2) == pytest.approx(d0, abs=1e-9)

    def test_always_non_negative(self):
        rng = np.random.default_rng(1)
        box = ObstacleBox(1, -2, 3, 0.5, 10, 17)
        for _ in range(500):
            px, py = rng.uniform(-10, 10, 2)
            assert point_box_distance(px, py, box) >= 0.0


class TestMinObstacleDistance:
    def test_straight_path_beside_box(self):
        box = ObstacleBox(0, 0, 2, 2, 10, 0)
        traj = _line(np.linspace(-5, 5, 101), y=2.2)
        dmin, trace = min_obstacle_distance(traj, [box])
        assert dmin == pytest.approx(1.2, abs=1e-9)
        assert trace.distances.shape == (101,)

    def test_point_inside_box(self):
        box = ObstacleBox(0, 0, 2, 2, 10, 0)
        traj = _line([-3, 0, 3], y=0.0)
        dmin, _ = min_obstacle_distance(traj, [box])
        assert dmin == 0.0

    def test_two_boxes_takes_min(self):
        # straight path 2.0 m from box A and 3.5 m from box B
        box_a = ObstacleBox(0, 3.0, 2, 2, 10, 0)   # bottom edge at y=2
        box_b = ObstacleBox(0, -4.5, 2, 2, 10, 0)  # top edge at y=-3.5
        traj = _line([-0.5, 0.0, 0.5], y=0.0)
        da, _ = min_obstacle_distance(traj, [box_a])
        db, _ = min_obstacle_distance(traj, [box_b])
        assert (da, db) == (pytest.approx(2.0), pytest.approx(3.5))
        dmin, _ = min_obstacle_distance(traj, [box_a, box_b])
        assert dmin == pytest.approx(2.0, abs=1e-12)

    def test_empty_obstacles_gives_infinity(self):
        traj = _line([0, 1], y=0.0)
        dmin, trace = min_obstacle_distance(traj, [])
        assert math.isinf(dmin)
        assert np.all(np.isinf(trace.distances))


class TestSumDist:
    def test_single_point_two_boxes(self):
        # point equidistant 2 m and 3 m from two separated boxes
        box_a = ObstacleBox(0, 3.0, 2, 2, 10, 0)   # bottom edge at y=2 -> 2 m above origin
        box_b = ObstacleBox(0, -4.0, 2, 2, 10, 0)  # top edge at y=-3 -> 3 m below origin
        traj = Trajectory([0.0, 1.0], [[0, 0, 0], [0, 0, 0.001]])
        assert sum_dist(traj, [box_a, box_b]) == pytest.approx(5.0, abs=1e-9)

    def test_single_obstacle_equals_min_distance(self):
        box = ObstacleBox(0, 0, 2, 2, 10, 30)
        traj = _line(np.linspace(-5, 5, 50), y=3.0)
        dmin, _ = min_obstacle_distance(traj, [box])
        assert sum_dist(traj, [box]) == pytest.approx(dmin, abs=1e-12)

    def test_min_over_points(self):
        box_a = ObstacleBox(0, 5.0, 2, 2, 10, 0)
        box_b = ObstacleBox(0, -5.0, 2, 2, 10, 0)
        # two points with per-point sums 4+4=8 and 3+5=... construct directly
        traj = Trajectory([0.0, 1.0], [[0, 0, 0], [0, 1, 0]])
        s0 = (point_box_distance(0, 0, box_a) + point_box_distance(0, 0, box_b))
        s1 = (point_box_distance(0, 1, box_a) + point_box_distance(0, 1, box_b))
        assert sum_dist(traj, [box_a, box_b]) == pytest.approx(min(s0, s1), abs=1e-12)

    def test_empty_obstacles_is_error(self):
        with pytest.raises(ValueError):
            sum_dist(_line([0, 1], y=0.0), [])


class TestDtw:
    def test_identity(self):
        rng = np.random.default_rng(0)
        for _ in range(5):
            s = rng.normal(size=(rng.integers(1, 10), 3))
            assert dtw(s, s) == 0.0

    def test_hand_case(self):
        a = [(0, 0, 0), (1, 0, 0), (2, 0, 0)]
        b = [(0, 0, 0), (2, 0, 0)]
        assert dtw(a, b) == pytest.approx(1.0, abs=1e-12)

    def test_symmetry(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            a = rng.normal(size=(rng.integers(1, 8), 3))
            b = rng.normal(size=(rng.integers(1, 8), 3))
            assert dtw(a, b) == dtw(b, a)

    def test_matches_exhaustive_enumeration(self):
        rng = np.random.default_rng(7)
        for _ in range(60):
            a = rng.normal(size=(rng.integers(1, 7), 3))
            b = rng.normal(size=(rng.integers(1, 7), 3))
            assert dtw(a, b) == dtw_bruteforce(a, b)

    def test_empty_sequence_is_error(self):
        with pytest.raises(ValueError):
            dtw(np.empty((0, 3)), np.zeros((2, 3)))

    @settings(max_examples=150, deadline=None)
    @given(n=st.one_of(st.just(1), st.integers(1, 300)),
           m=st.one_of(st.just(1), st.integers(1, 300)),
           seed=st.integers(0, 2**32 - 1), scale=st.sampled_from([0.0, 1e-3, 1.0, 50.0]),
           rounded=st.booleans(), identical=st.booleans())
    @example(n=1, m=300, seed=1, scale=1.0, rounded=False, identical=False)
    @example(n=300, m=1, seed=2, scale=1.0, rounded=False, identical=False)
    @example(n=300, m=300, seed=3, scale=50.0, rounded=False, identical=False)
    @example(n=300, m=300, seed=4, scale=1.0, rounded=False, identical=True)
    def test_matches_antidiagonal_oracle_bit_for_bit(self, n, m, seed, scale, rounded,
                                                     identical):
        rng = np.random.default_rng(seed)
        a = rng.normal(scale=scale, size=(n, 3))
        b = a.copy() if identical else rng.normal(scale=scale, size=(m, 3))
        if rounded:  # integer points tie many costs and zero some
            a, b = np.round(a), np.round(b)
        assert dtw(a, b) == dtw_antidiagonal(a, b)

    @settings(max_examples=150, deadline=None)
    @given(k=st.integers(1, 6), n=st.one_of(st.just(1), st.integers(1, 60)),
           m=st.one_of(st.just(1), st.integers(1, 60)),
           seed=st.integers(0, 2**32 - 1), scale=st.sampled_from([0.0, 1e-3, 1.0, 50.0]),
           rounded=st.booleans(), identical=st.booleans())
    @example(k=1, n=1, m=1, seed=0, scale=1.0, rounded=False, identical=False)
    @example(k=6, n=1, m=60, seed=1, scale=1.0, rounded=False, identical=False)
    @example(k=6, n=60, m=1, seed=2, scale=1.0, rounded=False, identical=False)
    @example(k=5, n=60, m=60, seed=3, scale=1.0, rounded=True, identical=True)
    def test_stack_costs_are_each_sequence_alone_bit_for_bit(self, k, n, m, seed, scale,
                                                              rounded, identical):
        rng = np.random.default_rng(seed)
        stack = rng.normal(scale=scale, size=(k, n, 3))
        b = stack[0].copy() if identical and n == m else rng.normal(scale=scale, size=(m, 3))
        if rounded:  # integer points tie many costs and zero some
            stack, b = np.round(stack), np.round(b)
        costs = dtw(stack, b)
        assert costs.shape == (k,)
        for seq, cost in zip(stack, costs.tolist()):
            assert cost == dtw(seq, b) == dtw_antidiagonal(seq, b)

    def test_one_sequence_gives_a_python_float(self):
        a = np.zeros((3, 3))
        assert type(dtw(a, a)) is float
        assert type(dtw(_traj(a + np.arange(3)[:, None]), a)) is float
        assert dtw(a[None], a).shape == (1,)

    @pytest.mark.parametrize("stack", [np.empty((0, 4, 3)), np.empty((2, 0, 3))])
    def test_empty_stack_is_error(self, stack):
        with pytest.raises(ValueError, match="non-empty"):
            dtw(stack, np.zeros((2, 3)))
        with pytest.raises(ValueError, match="non-empty"):
            dtw(np.zeros((2, 2, 3)), np.empty((0, 3)))

    def test_stack_of_other_than_3d_points_is_error(self):
        with pytest.raises(ValueError, match="stack"):
            dtw(np.zeros((2, 4, 2)), np.zeros((2, 3)))

    def test_non_negative(self):
        rng = np.random.default_rng(9)
        for _ in range(20):
            a = rng.normal(size=(5, 3))
            b = rng.normal(size=(6, 3))
            assert dtw(a, b) >= 0.0


class TestAverageTrajectory:
    def test_identical_trajectories(self):
        t = _traj([[0, 0, 0], [1, 1, 0], [3, 1, 0]])
        ave = average_trajectory([t, t, t], resample_n=50)
        assert np.allclose(ave, resample_by_arclength(t.points, 50))

    def test_two_parallel_lines(self):
        a = _line(np.linspace(0, 10, 11), y=0.0)
        b = _line(np.linspace(0, 10, 11), y=2.0)
        ave = average_trajectory([a, b], resample_n=30)
        assert np.allclose(ave[:, 1], 1.0, atol=1e-12)
        assert np.allclose(ave[:, 0], np.linspace(0, 10, 30), atol=1e-9)

    def test_pointwise_mean_oracle(self):
        rng = np.random.default_rng(5)
        trajs = [_traj(np.cumsum(rng.normal(size=(12, 3)), axis=0)) for _ in range(3)]
        n = 40
        ave = average_trajectory(trajs, resample_n=n)
        stacked = np.stack([resample_by_arclength(t.points, n) for t in trajs])
        for i in range(n):
            assert np.allclose(ave[i], stacked[:, i, :].mean(axis=0), atol=1e-12)

    def test_degenerate_trajectory(self):
        still = _traj([[1, 2, 3], [1, 2, 3], [1, 2, 3]])
        ave = average_trajectory([still], resample_n=10)
        assert np.allclose(ave, [[1, 2, 3]] * 10)


class TestFitness:
    def _setup(self):
        box = ObstacleBox(0, 0, 2, 2, 10, 0)
        return box

    def test_identical_executions_fitness_is_sum_dist(self):
        box = self._setup()
        t = _line(np.linspace(-5, 5, 40), y=4.0)
        comps = fitness_components([t, t, t], [box])
        # averaging three identical float arrays can differ by ulps
        assert comps["ave_dtw"] == pytest.approx(0.0, abs=1e-12)
        assert comps["fitness"] == comps["sum_dist"]
        assert fitness_components([t, t], [box])["ave_dtw"] == 0.0

    def test_single_execution(self):
        box = self._setup()
        t = _line(np.linspace(-5, 5, 40), y=4.0)
        assert fitness_components([t], [box])["fitness"] == pytest.approx(
            sum_dist(resample_by_arclength(t.points, 200), [box]), abs=1e-12)

    def test_divergent_executions_engage_dtw_term(self):
        box = self._setup()
        a = _line(np.linspace(-5, 5, 60), y=4.0)
        b = _line(np.linspace(-5, 5, 60), y=12.0)  # far apart -> big ave_dtw
        comps = fitness_components([a, b], [box], max_dtw=65.0)
        assert comps["ave_dtw"] > 65.0
        assert comps["fitness"] == pytest.approx(
            comps["sum_dist"] - comps["ave_dtw"], abs=1e-12)

    def test_below_max_dtw_keeps_sum_dist(self):
        box = self._setup()
        a = _line(np.linspace(-5, 5, 60), y=4.0)
        b = _line(np.linspace(-5, 5, 60), y=4.3)
        comps = fitness_components([a, b], [box])
        assert comps["ave_dtw"] <= 65.0
        assert comps["fitness"] == comps["sum_dist"]

    def test_monotone_in_proximity(self):
        # holding executions' shapes fixed, moving the path closer to the
        # obstacle never increases the fitness
        box = self._setup()
        values = []
        for y in (8.0, 6.0, 4.0, 2.5):
            a = _line(np.linspace(-5, 5, 60), y=y)
            b = _line(np.linspace(-5, 5, 60), y=y + 0.2)
            values.append(fitness_components([a, b], [box])["fitness"])
        assert all(v2 <= v1 + 1e-12 for v1, v2 in zip(values, values[1:]))

    def test_ave_dtw_is_the_per_execution_sum_bit_for_bit(self):
        box = self._setup()
        rng = np.random.default_rng(11)
        trajs = [_traj(np.cumsum(rng.normal(size=(30, 3)), axis=0)) for _ in range(5)]
        resampled = [resample_by_arclength(t, 200) for t in trajs]
        ave = np.mean(np.stack(resampled), axis=0)
        expected = sum(dtw(t, ave) for t in resampled) / len(resampled)
        assert fitness_components(trajs, [box])["ave_dtw"] == expected

    def test_param_validation(self):
        box = self._setup()
        t = _line([0, 1, 2], y=4.0)
        with pytest.raises(ValueError, match="max_dtw"):
            fitness_components([t], [box], max_dtw=0.0)
        with pytest.raises(ValueError, match="at least one trajectory"):
            fitness_components([], [box])
        assert fitness_components([t, t], [box])["n_executions"] == 2.0


class TestDistanceTrace:
    def test_range_min_exact_on_piecewise_linear(self):
        trace = DistanceTrace(np.array([0.0, 1.0, 2.0, 3.0]),
                              np.array([5.0, 1.0, 4.0, 6.0]))
        assert trace.range_min(0.0, 3.0) == 1.0
        assert trace.range_min(1.5, 3.0) == 2.5   # interpolated at 1.5
        assert trace.range_min(2.0, 2.0) == 4.0
        assert trace.range_min(-1.0, 0.5) == 3.0  # clamped + interpolated

    def test_array_ends_give_one_minimum_per_interval(self):
        trace = DistanceTrace(np.array([0.0, 1.0, 2.0, 3.0]),
                              np.array([5.0, 1.0, 4.0, 6.0]))
        got = trace.range_min(np.array([0.0, 1.5, 2.0, -1.0, 5.0, 0.5]),
                              np.array([3.0, 3.0, 2.0, 0.5, 9.0, math.inf]))
        assert got.tolist() == [1.0, 2.5, 4.0, 3.0, 6.0, 1.0]
        assert type(trace.range_min(0.0, 3.0)) is float
        assert trace.range_min(np.array([[0.0, 1.5]]), 3.0).shape == (1, 2)
        assert trace.range_min(np.empty(0), np.empty(0)).shape == (0,)

    @pytest.mark.parametrize("t0, t1", [
        (1.0, 0.5), (np.array([0.0, 2.0]), np.array([1.0, 1.5])), (math.nan, 1.0)])
    def test_reversed_or_nan_interval_is_error(self, t0, t1):
        trace = DistanceTrace(np.array([0.0, 1.0]), np.array([2.0, 3.0]))
        with pytest.raises(ValueError, match="t0 <= t1"):
            trace.range_min(t0, t1)

    @settings(max_examples=200, deadline=None)
    # one sample; intervals between two samples, on one sample, before and
    # after the trace
    @example(gaps=[], dists=[2.0], t_first=0.0,
             ends=[(-1.0, 1.0), (0, 0.0), (1.0, math.inf)])
    @example(gaps=[1.0, 1.0, 1.0], dists=[5.0, 1.0, 4.0, 6.0], t_first=0.0,
             ends=[(1.2, 0.6), (2, 0.0), (0, 3.0), (3.5, 0.5), (-2.0, 1.0), (1, math.inf)])
    # a start is a time (float) or the index of a sample (int)
    @given(gaps=st.lists(st.floats(0.01, 5.0), max_size=30),
           dists=st.lists(st.one_of(st.floats(0.0, 50.0), st.sampled_from([math.inf, math.nan])),
                          min_size=31, max_size=31),
           t_first=st.floats(-100.0, 100.0),
           ends=st.lists(st.tuples(st.one_of(st.floats(-20.0, 180.0), st.integers(0, 30)),
                                   st.one_of(st.floats(0.0, 30.0), st.just(0.0),
                                             st.just(math.inf))),
                         max_size=20))
    def test_array_equals_scalar_oracle_bit_for_bit(self, gaps, dists, t_first, ends):
        ts = t_first + np.concatenate([[0.0], np.cumsum(gaps)])
        trace = DistanceTrace(ts, np.array(dists[:ts.size]))
        t0 = np.array([ts[a % ts.size] if isinstance(a, int) else t_first + a
                       for a, _ in ends])
        t1 = t0 + np.array([length for _, length in ends])
        want = np.array([range_min_scalar(trace, a, b) for a, b in zip(t0, t1)])
        assert trace.range_min(t0, t1).tobytes() == want.tobytes()
        scalar = [trace.range_min(a, b) for a, b in zip(t0, t1)]
        assert all(type(x) is float for x in scalar)
        assert np.array(scalar).tobytes() == want.tobytes()

    def test_first_time_below(self):
        trace = DistanceTrace(np.array([0.0, 1.0, 2.0]), np.array([3.0, 0.5, 2.0]))
        assert trace.first_time_below(1.0) == 1.0
        assert trace.first_time_below(0.1) is None

    def test_validation(self):
        with pytest.raises(ValueError):
            DistanceTrace(np.array([0.0, 0.0]), np.array([1.0, 2.0]))


class TestTrajectory:
    def test_needs_two_points(self):
        with pytest.raises(ValueError):
            Trajectory([0.0], [[0, 0, 0]])

    def test_strictly_increasing(self):
        with pytest.raises(ValueError):
            Trajectory([0.0, 0.0], [[0, 0, 0], [1, 1, 1]])
