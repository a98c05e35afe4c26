"""Heading-channel preprocessing into the windowed dataset.

Pipeline: unwrap the raw [-180, 180] heading angles into a continuous series,
resample onto a uniform grid, slice into overlapping fixed-length windows,
zero-center each window, annotate obstacle distances, and filter the nominal
(training) subset by a look-ahead distance rule.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .flightdata import FlightLabels, FlightLog, ObstacleBox, open_text, write_csv
from .geometry import DistanceTrace, min_obstacle_distance, trajectory_from_log

_EPS = 1e-9
WINDOWS_CSV_FIXED = ("flight_id", "index", "start_s", "end_s", "win_dist_m",
                     "min_dist_m", "safety", "certainty")


@dataclass(frozen=True)
class PreprocessConfig:
    """Windowing and nominal-filter parameters.

    Defaults: 5 s windows with 2.5 s overlap at 5 Hz (25 samples per window);
    a window is nominal when the obstacle distance stays above 3 m for the
    window plus the next 50 s.
    """

    window_length: float = 5.0
    overlap: float = 2.5
    sample_rate: float = 5.0
    nominal_distance: float = 3.0
    nominal_lookahead: float = 50.0

    def __post_init__(self):
        if not 0 < self.overlap < self.window_length:
            raise ValueError("need 0 < overlap < window_length")
        if not 0 < self.sample_rate < math.inf:
            raise ValueError("sample_rate must be finite and > 0")
        w = self.sample_rate * self.window_length
        if not (math.isfinite(w) and abs(w - round(w)) <= 1e-6 and round(w) >= 4):
            raise ValueError("sample_rate * window_length must be an integer >= 4")
        if not (self.nominal_distance >= 0 and self.nominal_lookahead >= 0):
            raise ValueError("nominal filter parameters must be >= 0")

    @property
    def window_samples(self) -> int:
        return int(round(self.sample_rate * self.window_length))

    @property
    def stride(self) -> float:
        return self.window_length - self.overlap


# compared and hashed by identity: an array comparison has no single truth value
@dataclass(frozen=True, eq=False)
class HeadingWindow:
    """One zero-centered heading window: a row of the windowed dataset."""

    flight_id: str
    index: int
    start: float
    end: float
    values: np.ndarray
    win_dist: float = math.inf
    min_dist: float = math.inf
    safety: str | None = None
    certainty: str | None = None

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=float)
        vals.setflags(write=False)
        object.__setattr__(self, "values", vals)


def unwrap_heading(values) -> np.ndarray:
    """Continuous transformation of wrapped heading angles (degrees).

    The output differs from the input elementwise by multiples of 360 and has
    no consecutive difference larger than 180 in magnitude; the first element
    is unchanged.
    """
    return np.unwrap(np.asarray(values, dtype=float), period=360.0)


def resample_uniform(timestamps, values, rate: float) -> tuple[np.ndarray, np.ndarray]:
    """Linear interpolation onto a uniform grid from first to last timestamp."""
    ts = np.asarray(timestamps, dtype=float)
    vs = np.asarray(values, dtype=float)
    if ts.size != vs.size:
        raise ValueError("timestamps and values lengths differ")
    if ts.size < 2:
        raise ValueError("resampling needs at least 2 records")
    if rate <= 0:
        raise ValueError("rate must be > 0")
    n = int(math.floor((ts[-1] - ts[0]) * rate + _EPS)) + 1
    grid = ts[0] + np.arange(n) / rate
    return grid, np.interp(grid, ts, vs)


def make_windows(timestamps, headings, config: PreprocessConfig, *,
                 distance_trace: DistanceTrace | None = None,
                 labels: FlightLabels | None = None,
                 flight_id: str = "") -> list[HeadingWindow]:
    """Slice a uniform heading series into zero-centered overlapping windows.

    Window i nominally covers [i*stride, i*stride + window_length]; a trailing
    window that would extend past the series end is discarded.  Distance
    annotations come from the (independently clocked) distance trace when one
    is given and are +inf otherwise; the last window's covers the rest of the
    trace, so that a dip after it is not lost.  Every window of the flight is
    cut in one array pass, and each window's values are a read-only row of
    one matrix.
    """
    ts = np.asarray(timestamps, dtype=float)
    vs = np.asarray(headings, dtype=float)
    if ts.size != vs.size:
        raise ValueError("timestamps and headings lengths differ")
    w = config.window_samples
    if ts.size < w:
        return []
    t0 = float(ts[0])
    duration = float(ts[-1]) - t0
    if not math.isfinite(duration):
        raise ValueError("timestamps must be finite")
    stride, length = config.stride, config.window_length
    # window i exists while i*stride + length <= duration and its samples
    # fit.  Once failed, each test fails for every later i, so the windows
    # are the passing prefix of a candidate range that ends in a failure.
    # The first range ends past the last window unless the cap at one
    # candidate per sample cuts it short; then it doubles.
    n_cand = max(1, min(int((duration + _EPS - length) // stride) + 3, ts.size))
    while True:
        i = np.arange(n_cand)
        starts = t0 + i * stride
        firsts = np.ceil((starts - t0) * config.sample_rate - _EPS).astype(np.intp)
        n = int(np.count_nonzero((i * stride + length <= duration + _EPS)
                                 & (firsts + w <= ts.size)))
        if n < n_cand:
            break
        n_cand *= 2
    if n == 0:
        return []
    starts, firsts = starts[:n], firsts[:n]
    ends = starts + length
    values = vs[firsts[:, None] + np.arange(w)]
    values -= values.mean(axis=1, keepdims=True)
    values.setflags(write=False)
    if distance_trace is not None:
        min_dist = distance_trace.min_value
        win_dists = distance_trace.range_min(starts, np.append(ends[:-1], math.inf)).tolist()
    else:
        min_dist = math.inf
        win_dists = [math.inf] * n
    safety = labels.safety if labels is not None else None
    certainty = labels.certainty if labels is not None else None
    return [HeadingWindow(flight_id=flight_id, index=k, start=start, end=end,
                          values=row, win_dist=win_dist, min_dist=min_dist,
                          safety=safety, certainty=certainty)
            for k, (start, end, row, win_dist)
            in enumerate(zip(starts.tolist(), ends.tolist(), values, win_dists))]


def filter_nominal_from_windows(windows: Sequence[HeadingWindow],
                                config: PreprocessConfig) -> list[HeadingWindow]:
    """Keep windows whose obstacle distance stays above the nominal threshold
    for the window plus the look-ahead horizon, read from window annotations.

    A window is kept when no window of the same flight starting within the
    look-ahead horizon dips to the nominal threshold; windows without a
    distance annotation (+inf) never dip.  Conservative by at most one window
    length at the horizon's far edge, and near a flight's end, where the last
    window's annotation covers the rest of the trace (see ``make_windows``).
    """
    by_flight: dict[str, list[HeadingWindow]] = {}
    for w in windows:
        by_flight.setdefault(w.flight_id, []).append(w)
    kept = []
    for flight_windows in by_flight.values():
        flight_windows.sort(key=lambda w: w.index)
        starts = np.array([w.start for w in flight_windows])
        dists = np.array([w.win_dist for w in flight_windows])
        for k, w in enumerate(flight_windows):
            horizon = w.end + config.nominal_lookahead
            ahead = (starts >= w.start - _EPS) & (starts <= horizon + _EPS)
            if float(dists[ahead].min()) > config.nominal_distance:
                kept.append(w)
    kept.sort(key=lambda w: (w.flight_id, w.index))
    return kept


def preprocess_flight(log: FlightLog, config: PreprocessConfig, *,
                      obstacles: Sequence[ObstacleBox] | None = None,
                      labels: FlightLabels | None = None,
                      ) -> tuple[list[HeadingWindow], DistanceTrace | None]:
    """Full per-flight pipeline: unwrap, resample, window, annotate distances.

    Returns the windows plus the distance trace (None when no obstacles are
    given or the log has no usable position channel).
    """
    safe = log.channel("safe")
    if safe.size < 2:
        raise ValueError("safe channel has fewer than 2 records")
    grid, headings = resample_uniform(safe["timestamp"], unwrap_heading(safe["r"]),
                                      config.sample_rate)
    trace = None
    if obstacles is not None and len(log.channel("position")) >= 2:
        _, trace = min_obstacle_distance(trajectory_from_log(log), obstacles)
    windows = make_windows(grid, headings, config, distance_trace=trace,
                           labels=labels, flight_id=log.flight_id)
    return windows, trace


def write_windows_csv(windows: Sequence[HeadingWindow], target, *,
                      window_samples: int | None = None) -> None:
    """Persist the windowed dataset (header v-columns sized from the data)."""
    if windows:
        w = len(windows[0].values)
        if any(len(win.values) != w for win in windows):
            raise ValueError("inconsistent window lengths")
    elif window_samples is not None:
        w = window_samples
    else:
        raise ValueError("window_samples is required to write an empty dataset")
    write_csv(target, [*WINDOWS_CSV_FIXED, *(f"v{k}" for k in range(w))],
              ([win.flight_id, win.index, float(win.start), float(win.end),
                float(win.win_dist), float(win.min_dist), win.safety, win.certainty,
                *win.values.tolist()] for win in windows))


def windows_csv_width(header: Sequence[str] | None) -> int:
    """Samples per window named by a windowed-dataset header (else ValueError)."""
    if header is None:
        raise ValueError("empty windowed dataset")
    if (tuple(header[:8]) != WINDOWS_CSV_FIXED
            or any(not h.startswith("v") for h in header[8:])):
        raise ValueError(f"bad windowed dataset header: {header!r}")
    return len(header) - 8


def parse_window_row(row: Sequence[str], width: int,
                     window_length: float | None = None) -> HeadingWindow:
    """One windowed-dataset row of ``8 + width`` fields as a window with a
    flight id, a finite ``start`` and ``end`` whose difference matches
    ``window_length``, when given, within 1e-9, and distances >= 0 (``inf``:
    no distance trace).  Its values may be NaN: such a window alarms."""
    if len(row) != 8 + width:
        raise ValueError(f"expected {8 + width} fields, got {len(row)}")
    if not row[0]:
        raise ValueError("empty flight_id")
    win = HeadingWindow(
        flight_id=row[0], index=int(row[1]), start=float(row[2]),
        end=float(row[3]), values=np.array([float(v) for v in row[8:]]),
        win_dist=float(row[4]), min_dist=float(row[5]),
        safety=row[6] or None, certainty=row[7] or None)
    if not (math.isfinite(win.start) and math.isfinite(win.end)):
        raise ValueError(f"window interval [{win.start!r}, {win.end!r}] is not finite")
    if not (win.win_dist >= 0 and win.min_dist >= 0):
        raise ValueError(f"win_dist_m and min_dist_m must be >= 0, "
                         f"got {win.win_dist!r} and {win.min_dist!r}")
    if window_length is not None and abs(win.end - win.start - window_length) > _EPS:
        raise ValueError(f"window spans {win.end - win.start!r} s, expected {window_length!r} s")
    return win


def read_windows_csv(source, window_length: float | None = None) -> list[HeadingWindow]:
    """Read a windowed dataset written by :func:`write_windows_csv`; a bad row
    is a ValueError naming the line it starts on (a csv.Error: the line it stops on)."""
    with open_text(source) as stream:
        reader = csv.reader(stream)
        windows = []
        try:
            width = windows_csv_width(next(reader, None))
            line_no = reader.line_num + 1  # the first line of the next row
            for row in reader:
                if row:
                    try:
                        windows.append(parse_window_row(row, width, window_length))
                    except ValueError as exc:
                        raise ValueError(f"line {line_no}: {exc}") from None
                line_no = reader.line_num + 1
        except csv.Error as exc:
            raise ValueError(f"line {reader.line_num}: {exc}") from None
        return windows


def config_from_windows(windows: Sequence[HeadingWindow], *,
                        nominal_distance: float = 3.0,
                        nominal_lookahead: float = 50.0) -> PreprocessConfig:
    """The window geometry a windowed dataset was cut with.

    Sample count and window length come from the first window; the stride
    from the first two adjacent windows of one flight with consecutive
    indices, which every other such pair must match (else ValueError).
    """
    strides = [b.start - a.start for a, b in zip(windows, windows[1:])
               if a.flight_id == b.flight_id and b.index == a.index + 1]
    if not strides:
        raise ValueError("cannot read the window stride: no two adjacent windows "
                         "of one flight have consecutive indices")
    stride = strides[0]
    if max(abs(s - stride) for s in strides) > _EPS:
        raise ValueError(f"inconsistent window stride: {min(strides)!r} to {max(strides)!r}")
    first = windows[0]
    window_length = first.end - first.start
    return PreprocessConfig(
        window_length=window_length, overlap=window_length - stride,
        sample_rate=len(first.values) / window_length,
        nominal_distance=nominal_distance, nominal_lookahead=nominal_lookahead)
