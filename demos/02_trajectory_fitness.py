"""Trajectory geometry tour: oriented-box distances, DTW, and the test fitness.

The fitness measure drives search-based test generation: it rewards obstacle
proximity (sum_dist) and, once executions of the same test diverge enough
(ave_dtw above the activation threshold), rewards non-determinism too.
"""

import numpy as np

from flightwatch import (
    ObstacleBox,
    Trajectory,
    average_trajectory,
    dtw,
    fitness_components,
    point_box_distance,
    min_obstacle_distance,
)

# ---------------------------------------------------------------------------
# Point-to-box distance handles rotated footprints; altitude is ignored.
# ---------------------------------------------------------------------------
box = ObstacleBox(cx=0.0, cy=0.0, length=2.0, width=2.0, height=10.0, rotation=45.0)
for point in [(2.0, 0.0), (0.0, 0.0), (3.0, 3.0)]:
    print(f"distance from {point} to the rotated box: "
          f"{point_box_distance(*point, box):.4f} m")

# ---------------------------------------------------------------------------
# A flight corridor past two obstacles: the distance trace tracks the nearest
# obstacle at every position sample.
# ---------------------------------------------------------------------------
boxes = [ObstacleBox(-2.0, 4.0, 3.0, 1.0, 10.0, 20.0),
         ObstacleBox(3.0, -3.5, 2.0, 2.0, 10.0, 0.0)]
t = np.linspace(0.0, 60.0, 301)
path = np.column_stack([np.linspace(-15, 15, 301), 1.5 * np.sin(t / 8), np.full(301, 5.0)])
traj = Trajectory(t, path)
dmin, trace = min_obstacle_distance(traj, boxes)
print(f"\nminimum obstacle distance over the flight: {dmin:.2f} m "
      f"(at t={trace.timestamps[np.argmin(trace.distances)]:.1f}s)")

# ---------------------------------------------------------------------------
# DTW measures how differently two executions of the same test flew.
# ---------------------------------------------------------------------------
rng = np.random.default_rng(3)
wobble = path + rng.normal(0, 0.05, path.shape).cumsum(axis=0) * 0.05
executions = [traj, Trajectory(t, wobble)]
print(f"dtw(execution 1, execution 2) = {dtw(path, wobble):.2f}")
print(f"dtw(execution 1, itself)      = {dtw(path, path):.2f}")

# ---------------------------------------------------------------------------
# The fitness of a test case over its repeated executions.  Lower is more
# interesting: the search minimizes it.
# ---------------------------------------------------------------------------
ave = average_trajectory(executions, resample_n=200)
print(f"\naverage trajectory has {len(ave)} points")
comps = fitness_components(executions, boxes, max_dtw=65.0)
print(f"sum_dist={comps['sum_dist']:.2f}  ave_dtw={comps['ave_dtw']:.2f}  "
      f"fitness={comps['fitness']:.2f}")

# widely diverging executions engage the non-determinism term
far = Trajectory(t, path + np.array([0.0, 25.0, 0.0]))
comps2 = fitness_components([traj, far], boxes)
print(f"divergent executions: ave_dtw={comps2['ave_dtw']:.1f} "
      f"-> fitness={comps2['fitness']:.1f} "
      f"(= sum_dist - ave_dtw once ave_dtw > {comps2['max_dtw']:.0f})")
