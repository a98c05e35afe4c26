"""Runtime uncertainty detection from per-window reconstruction losses.

Each incoming heading window is scored by the autoencoder's reconstruction
loss; an alarm fires whenever the mean of the last ``n_consecutive`` losses
exceeds the threshold or is not finite.  Averaging suppresses the single-window
loss spikes that normal maneuvers (intentional turns, mode switches) produce.
Detection is strictly causal: the decision for window i sees only windows <= i.
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Iterable

import numpy as np

from .autoenc import AutoencoderModel
from .geometry import DistanceTrace
from .preprocess import HeadingWindow

ALARMS_CSV_HEADER = ("flight_id", "window_index", "timestamp_s", "loss", "rolling_mean")


@dataclass(frozen=True)
class DetectorConfig:
    """Alarm threshold, rolling-mean width, and the critical distance used by
    lead-time analysis."""

    threshold: float = 0.3
    n_consecutive: int = 4
    critical_distance: float = 1.0

    def __post_init__(self):
        if not self.threshold > 0:
            raise ValueError("threshold must be > 0")
        if self.n_consecutive < 1:
            raise ValueError("n_consecutive must be >= 1")
        if not self.critical_distance > 0:
            raise ValueError("critical_distance must be > 0")

    @classmethod
    def from_model(cls, model: AutoencoderModel, *, threshold: float | None = None,
                   n_consecutive: int | None = None,
                   critical_distance: float = 1.0) -> "DetectorConfig":
        """Config taken from model metadata, with explicit values overriding."""
        theta = threshold if threshold is not None else model.threshold
        n = n_consecutive if n_consecutive is not None else model.n_consecutive
        return cls(threshold=theta if theta is not None else 0.3,
                   n_consecutive=n, critical_distance=critical_distance)


@dataclass(frozen=True)
class AlarmEvent:
    """One threshold crossing of the rolling mean loss."""

    window_index: int
    timestamp: float  # window end
    loss: float
    rolling_mean_loss: float


@dataclass(frozen=True)
class DetectionReport:
    """Detection outcome for one flight."""

    flight_id: str
    window_indices: tuple[int, ...] = ()
    window_times: tuple[float, ...] = ()
    losses: tuple[float, ...] = ()
    alarms: tuple[AlarmEvent, ...] = ()
    lead_time: float | None = None
    distance_at_first_alarm: float | None = None

    @property
    def flight_uncertain(self) -> bool:
        return len(self.alarms) > 0

    @property
    def first_alarm_time(self) -> float | None:
        return self.alarms[0].timestamp if self.alarms else None


class StreamDetector:
    """Incremental per-flight detector; windows must arrive in index order."""

    def __init__(self, model: AutoencoderModel, config: DetectorConfig,
                 flight_id: str = ""):
        self.model = model
        self.config = config
        self.flight_id = flight_id
        self._indices: list[int] = []
        self._times: list[float] = []
        self._losses: list[float] = []
        self._alarms: list[AlarmEvent] = []

    def update(self, window: HeadingWindow) -> AlarmEvent | None:
        """Score one window; return the alarm it raised, if any."""
        if self._indices and window.index <= self._indices[-1]:
            raise ValueError(f"flight {window.flight_id}: out-of-order window index "
                             f"{window.index} after {self._indices[-1]}")
        if not self.flight_id:
            self.flight_id = window.flight_id
        # scored by the call calibration fits the threshold with
        loss = float(self.model.reconstruction_losses(window.values[None, :])[0])
        self._indices.append(window.index)
        self._times.append(window.end)
        self._losses.append(loss)
        n = self.config.n_consecutive
        if len(self._losses) >= n:
            mean = sum(self._losses[-n:]) / n
            if not mean <= self.config.threshold:  # a NaN mean alarms too
                alarm = AlarmEvent(window_index=window.index, timestamp=window.end,
                                   loss=loss, rolling_mean_loss=mean)
                self._alarms.append(alarm)
                return alarm
        return None

    def report(self) -> DetectionReport:
        return DetectionReport(
            flight_id=self.flight_id,
            window_indices=tuple(self._indices),
            window_times=tuple(self._times),
            losses=tuple(self._losses),
            alarms=tuple(self._alarms))


def detect_stream(model: AutoencoderModel, windows: Iterable[HeadingWindow],
                  config: DetectorConfig, flight_id: str = "") -> DetectionReport:
    """Run the incremental detector over a window stream of one flight."""
    det = StreamDetector(model, config, flight_id)
    for w in windows:
        det.update(w)
    return det.report()


# compared and hashed by identity: an array comparison has no single truth value
@dataclass(frozen=True, eq=False)
class CalibrationResult:
    """Suggested threshold plus the loss histogram it was read from."""

    threshold: float
    quantile: float
    n_losses: int
    bin_edges: np.ndarray
    counts: np.ndarray

    def histogram_rows(self) -> list[tuple[float, float, int, float | None]]:
        """(bin_low, bin_high, count, log10_count) rows; log10 empty for zero bins."""
        rows = []
        for lo, hi, c in zip(self.bin_edges[:-1], self.bin_edges[1:], self.counts):
            rows.append((float(lo), float(hi), int(c),
                         math.log10(c) if c > 0 else None))
        return rows


def calibrate_threshold(nominal_losses, quantile: float = 0.999,
                        bins: int = 50) -> CalibrationResult:
    """Empirical-quantile threshold suggestion from nominal reconstruction losses.

    The suggestion is advisory: the hand-tuned default of 0.3 remains in
    :class:`DetectorConfig`.  Histogram counts are returned for inspection on
    a log scale.
    """
    losses = np.asarray(nominal_losses, dtype=float)
    if losses.size == 0:
        raise ValueError("calibration needs at least one loss value")
    if not 0.0 <= quantile <= 1.0:
        raise ValueError("quantile must lie in [0, 1]")
    theta = float(np.quantile(losses, quantile))
    counts, edges = np.histogram(losses, bins=bins)
    return CalibrationResult(threshold=theta, quantile=quantile,
                             n_losses=int(losses.size), bin_edges=edges, counts=counts)


def lead_time_analysis(report: DetectionReport, distance_trace: DistanceTrace | None,
                       config: DetectorConfig) -> DetectionReport:
    """Fill in lead time and the obstacle distance at the first alarm.

    Lead time is the time of the first sample below the critical distance
    minus the first alarm time; it is negative for late detections and absent
    when either event is missing.
    """
    if distance_trace is None or not report.alarms:
        return report
    t_alarm = report.alarms[0].timestamp
    dist_at_alarm = _nearest_sample(distance_trace, t_alarm)
    t_critical = distance_trace.first_time_below(config.critical_distance)
    lead = (t_critical - t_alarm) if t_critical is not None else None
    return replace(report, lead_time=lead, distance_at_first_alarm=dist_at_alarm)


def _nearest_sample(trace: DistanceTrace, t: float) -> float:
    idx = int(np.argmin(np.abs(trace.timestamps - t)))
    return float(trace.distances[idx])


def report_to_dict(report: DetectionReport) -> dict:
    return {
        "flight_id": report.flight_id,
        "windows": [
            {"index": i, "timestamp_s": t, "loss": l}
            for i, t, l in zip(report.window_indices, report.window_times, report.losses)
        ],
        "alarms": [
            {"window_index": a.window_index, "timestamp_s": a.timestamp,
             "loss": a.loss, "rolling_mean_loss": a.rolling_mean_loss}
            for a in report.alarms
        ],
        "flight_uncertain": report.flight_uncertain,
        "first_alarm_time_s": report.first_alarm_time,
        "lead_time_s": report.lead_time,
        "distance_at_first_alarm_m": report.distance_at_first_alarm,
    }


def report_from_dict(doc: dict) -> DetectionReport:
    alarms = tuple(AlarmEvent(a["window_index"], a["timestamp_s"], a["loss"],
                              a["rolling_mean_loss"]) for a in doc["alarms"])
    wins = doc["windows"]
    return DetectionReport(
        flight_id=doc["flight_id"],
        window_indices=tuple(w["index"] for w in wins),
        window_times=tuple(w["timestamp_s"] for w in wins),
        losses=tuple(w["loss"] for w in wins),
        alarms=alarms,
        lead_time=doc.get("lead_time_s"),
        distance_at_first_alarm=doc.get("distance_at_first_alarm_m"))


def write_report(report: DetectionReport, path) -> None:
    Path(path).write_text(
        json.dumps(report_to_dict(report), sort_keys=True, separators=(",", ":")) + "\n",
        encoding="utf-8")


def read_report(path) -> DetectionReport:
    return report_from_dict(json.loads(Path(path).read_text(encoding="utf-8")))


def alarms_csv(reports: Iterable[DetectionReport]) -> str:
    """Flat alarm table for plotting: one row per alarm, flights in id order."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(ALARMS_CSV_HEADER)
    for rep in sorted(reports, key=lambda r: r.flight_id):
        writer.writerows(alarm_row(rep.flight_id, a) for a in rep.alarms)
    return buf.getvalue()


def alarm_row(flight_id: str, alarm: AlarmEvent) -> list:
    """One row of the alarm table, under :data:`ALARMS_CSV_HEADER`."""
    return [flight_id, alarm.window_index, repr(alarm.timestamp),
            repr(alarm.loss), repr(alarm.rolling_mean_loss)]
