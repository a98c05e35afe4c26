"""Runtime uncertainty detection from per-window reconstruction losses.

Each incoming heading window is scored by the autoencoder's reconstruction
loss; an alarm fires whenever the mean of the last ``n_consecutive`` losses
exceeds the threshold or is not finite.  Averaging suppresses the single-window
loss spikes that normal maneuvers (intentional turns, mode switches) produce.
Detection is strictly causal: the decision for window i sees only windows <= i.
"""

from __future__ import annotations

import array
import csv
import io
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable

import numpy as np

from .autoenc import AutoencoderModel
from .flightdata import write_json
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
    """Detection outcome for one flight; :func:`report_to_dict` gives its document."""

    flight_id: str
    window_indices: tuple[int, ...] = ()
    window_times: tuple[float, ...] = ()
    losses: tuple[float, ...] = ()
    alarms: tuple[AlarmEvent, ...] = ()

    @property
    def flight_uncertain(self) -> bool:
        return len(self.alarms) > 0


class StreamDetector:
    """Incremental per-flight detector; windows must arrive in index order."""

    def __init__(self, model: AutoencoderModel, config: DetectorConfig,
                 flight_id: str = ""):
        self.model = model
        self.config = config
        self.flight_id = flight_id
        # 8 bytes a value, not a list slot plus a boxed number
        self._indices = array.array("q")
        self._times = array.array("d")
        self._losses = array.array("d")
        # an alarm is its window's position in the arrays above and its mean
        self._alarm_at = array.array("q")
        self._alarm_means = array.array("d")

    def update(self, window: HeadingWindow) -> AlarmEvent | None:
        """Score one window of this detector's flight (the first window's, if
        none was given); return the alarm it raised, if any."""
        loss = float(self.model.reconstruction_losses(window.values[None, :])[0])
        return self._step(window, loss)

    def _step(self, window: HeadingWindow, loss: float) -> AlarmEvent | None:
        """Record one scored window and apply the rolling-mean alarm rule."""
        if not self.flight_id:
            self.flight_id = window.flight_id
        if window.flight_id != self.flight_id:
            raise ValueError(f"window of flight {window.flight_id!r} sent to the "
                             f"detector of flight {self.flight_id!r}")
        if self._indices and window.index <= self._indices[-1]:
            raise ValueError(f"flight {window.flight_id}: out-of-order window index "
                             f"{window.index} after {self._indices[-1]}")
        self._indices.append(window.index)
        self._times.append(window.end)
        self._losses.append(loss)
        n = self.config.n_consecutive
        if len(self._losses) >= n:
            mean = sum(self._losses[-n:]) / n
            if not mean <= self.config.threshold:  # a NaN mean alarms too
                self._alarm_at.append(len(self._losses) - 1)
                self._alarm_means.append(mean)
                return self._alarm(len(self._alarm_at) - 1)
        return None

    def _alarm(self, k: int) -> AlarmEvent:
        at = self._alarm_at[k]
        return AlarmEvent(window_index=self._indices[at], timestamp=self._times[at],
                          loss=self._losses[at], rolling_mean_loss=self._alarm_means[k])

    def report(self) -> DetectionReport:
        return DetectionReport(
            flight_id=self.flight_id,
            window_indices=tuple(self._indices),
            window_times=tuple(self._times),
            losses=tuple(self._losses),
            alarms=tuple(map(self._alarm, range(len(self._alarm_at)))))


def detect_stream(model: AutoencoderModel, windows: Iterable[HeadingWindow],
                  config: DetectorConfig, flight_id: str = "") -> DetectionReport:
    """Run the incremental detector over a window stream of one flight.

    The whole flight is scored in one call; each window and its loss then
    take the step :meth:`StreamDetector.update` takes.  A window's loss has
    the same bits in a batch as on its own, so the report is the one that
    feeding the windows to a :class:`StreamDetector` gives.
    """
    windows = list(windows)
    det = StreamDetector(model, config, flight_id)
    for w, loss in zip(windows, model.reconstruction_losses(windows).tolist()):
        det._step(w, loss)
    return det.report()


def calibrate_threshold(nominal_losses, quantile: float = 0.999, bins: int = 50) -> dict:
    """Empirical-quantile threshold suggestion from nominal reconstruction losses.

    Returns the ``calibration.json`` document (``suggested_threshold``,
    ``quantile``, ``n_losses``, ``max_loss``) plus a ``histogram`` of
    ``(bin_low, bin_high, count, log10_count)`` rows, log10 None for an empty
    bin, for inspection on a log scale.  The suggestion is advisory: the
    hand-tuned default of 0.3 remains in :class:`DetectorConfig`.
    """
    losses = np.asarray(nominal_losses, dtype=float)
    if losses.size == 0:
        raise ValueError("calibration needs at least one loss value")
    n_bad = int(np.count_nonzero(~np.isfinite(losses)))
    if n_bad:
        raise ValueError(f"{n_bad} of {losses.size} calibration losses are not finite")
    if not 0.0 <= quantile <= 1.0:
        raise ValueError("quantile must lie in [0, 1]")
    counts, edges = np.histogram(losses, bins=bins)
    return {"suggested_threshold": float(np.quantile(losses, quantile)), "quantile": quantile,
            "n_losses": int(losses.size), "max_loss": float(np.max(losses)),
            "histogram": [(lo, hi, c, math.log10(c) if c > 0 else None) for lo, hi, c in
                          zip(edges[:-1].tolist(), edges[1:].tolist(), counts.tolist())]}


def lead_time_analysis(doc: dict, distance_trace: DistanceTrace | None,
                       config: DetectorConfig) -> dict:
    """The report document with its lead time and obstacle distance at the first alarm.

    Lead time is the time of the first sample below the critical distance
    minus the first alarm time; it is negative for late detections and absent
    when either event is missing.
    """
    if distance_trace is None or not doc["alarms"]:
        return doc
    t_alarm = doc["first_alarm_time_s"]
    t_critical = distance_trace.first_time_below(config.critical_distance)
    nearest = int(np.argmin(np.abs(distance_trace.timestamps - t_alarm)))
    return {**doc, "lead_time_s": (t_critical - t_alarm) if t_critical is not None else None,
            "distance_at_first_alarm_m": float(distance_trace.distances[nearest])}


_REPORT_KEYS = ("flight_id", "windows", "alarms", "flight_uncertain",
                "first_alarm_time_s", "lead_time_s", "distance_at_first_alarm_m")
_WINDOW_KEYS = ("index", "timestamp_s", "loss")
_ALARM_KEYS = ("window_index", "timestamp_s", "loss", "rolling_mean_loss")


def alarm_to_dict(alarm: AlarmEvent) -> dict:
    """One alarm as the report document holds it."""
    return dict(zip(_ALARM_KEYS, (alarm.window_index, alarm.timestamp, alarm.loss,
                                  alarm.rolling_mean_loss)))


def report_to_dict(report: DetectionReport) -> dict:
    """The report document: what ``detect`` writes and every later step
    reads.  Its lead-time keys are null until :func:`lead_time_analysis`."""
    alarms = [alarm_to_dict(a) for a in report.alarms]
    windows = zip(report.window_indices, report.window_times, report.losses)
    return dict(zip(_REPORT_KEYS, (
        report.flight_id, [dict(zip(_WINDOW_KEYS, w)) for w in windows], alarms,
        report.flight_uncertain, alarms[0]["timestamp_s"] if alarms else None, None, None)))


def write_report(doc: dict, path) -> None:
    write_json(doc, path)


def _report_fault(doc) -> str | None:
    """Why ``doc`` does not have the shape :func:`report_to_dict` gives, or None."""
    if not isinstance(doc, dict):
        return f"a JSON {type(doc).__name__}, not an object"
    missing = [k for k in _REPORT_KEYS if k not in doc]
    if missing:
        return f"no key {missing[0]!r}"
    for key, item_keys in (("windows", _WINDOW_KEYS), ("alarms", _ALARM_KEYS)):
        items = doc[key]
        if not (isinstance(items, list) and all(
                isinstance(i, dict) and all(k in i for k in item_keys) for i in items)):
            return f"{key!r} is not a list of objects with keys {', '.join(item_keys)}"
    if not isinstance(doc["flight_id"], str):
        return "'flight_id' is not a string"
    if doc["flight_uncertain"] is not bool(doc["alarms"]):
        return "'flight_uncertain' is not whether 'alarms' holds any"
    for key in _REPORT_KEYS[4:]:
        if doc[key] is not None and type(doc[key]) not in (int, float):
            return f"{key!r} is not a number or null"
    return None


def read_report(path) -> dict:
    """The report document in ``path``; ValueError unless it is one."""
    try:
        doc = json.loads(Path(path).read_text(encoding="utf-8"))
        fault = _report_fault(doc)
    except ValueError as exc:  # not UTF-8, or not JSON
        fault = f"{type(exc).__name__}: {exc}"
    if fault:
        raise ValueError(f"{path}: not a detection report ({fault})")
    return doc


def alarms_csv(docs: Iterable[dict]) -> str:
    """Flat alarm table of report documents: one row per alarm, flights in id order."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(ALARMS_CSV_HEADER)
    for doc in sorted(docs, key=lambda d: d["flight_id"]):
        writer.writerows(alarm_row(doc["flight_id"], a) for a in doc["alarms"])
    return buf.getvalue()


def alarm_row(flight_id: str, alarm: dict) -> list:
    """One row of the alarm table, under :data:`ALARMS_CSV_HEADER`, from a report alarm."""
    return [flight_id, alarm["window_index"], *(repr(alarm[k]) for k in _ALARM_KEYS[1:])]
