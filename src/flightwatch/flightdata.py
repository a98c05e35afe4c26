"""Flight-log data model and parsers.

A flight log is a flat CSV of time-stamped records on three channels:
``desired`` waypoints planned by the autopilot, ``safe`` waypoints issued by
the obstacle-avoidance module (the detector's sole input), and the ``position``
channel holding the actual flight trajectory.  Obstacle layouts are JSON,
ground-truth labels a small CSV.  All types are immutable after construction.
"""

from __future__ import annotations

import csv
import io
import json
import math
from contextlib import nullcontext
from dataclasses import dataclass
from pathlib import Path
from typing import IO, ContextManager, Iterable, Mapping

CHANNELS = ("desired", "safe", "position")
SAFETY_LABELS = ("safe", "unsafe")
CERTAINTY_LABELS = ("certain", "uncertain")

LOG_HEADER = ("timestamp_s", "channel", "x", "y", "z", "r_deg")
LABELS_HEADER = ("flight_id", "safety", "certainty")


class ParseError(ValueError):
    """A document that cannot be read at all (bad row, bad JSON, wrong header)."""


class ValidationError(ValueError):
    """A well-formed document whose content violates a domain invariant."""


@dataclass(frozen=True)
class LogRecord:
    """One time-stamped sample on a single channel.

    ``timestamp`` is seconds since flight start; ``r`` is the heading angle in
    degrees, raw (pre-unwrap) range [-180, 180].
    """

    timestamp: float
    channel: str
    x: float
    y: float
    z: float
    r: float

    def __post_init__(self):
        if not math.isfinite(self.timestamp) or self.timestamp < 0:
            raise ValidationError(f"timestamp must be finite and >= 0, got {self.timestamp}")
        if self.channel not in CHANNELS:
            raise ValidationError(f"unknown channel {self.channel!r}, expected one of {CHANNELS}")
        for name in ("x", "y", "z", "r"):
            if not math.isfinite(getattr(self, name)):
                raise ValidationError(f"non-finite value for {name}")
        if not -180.0 <= self.r <= 180.0:
            raise ValidationError(f"heading r={self.r} outside raw range [-180, 180]")


@dataclass(frozen=True)
class FlightLog:
    """All records of one flight, with identity metadata.

    Records keep file order; per-channel views are available through
    :meth:`channel`.  The safe channel must be non-empty and timestamps within
    each channel must be strictly increasing.
    """

    flight_id: str
    records: tuple[LogRecord, ...]
    test_id: str = ""
    execution_index: int = 0

    def __post_init__(self):
        if self.execution_index < 0:
            raise ValidationError("execution_index must be >= 0")
        object.__setattr__(self, "records", tuple(self.records))
        for name in CHANNELS:
            prev = None
            for rec in self.records:
                if rec.channel != name:
                    continue
                if prev is not None and rec.timestamp <= prev:
                    raise ValidationError(
                        f"non-monotone timestamps on channel {name!r}: "
                        f"{rec.timestamp} after {prev}"
                    )
                prev = rec.timestamp
        if not any(r.channel == "safe" for r in self.records):
            raise ValidationError("safe channel is empty (it is the detector's sole input)")

    def channel(self, name: str) -> tuple[LogRecord, ...]:
        if name not in CHANNELS:
            raise ValueError(f"unknown channel {name!r}")
        return tuple(r for r in self.records if r.channel == name)


@dataclass(frozen=True)
class ObstacleBox:
    """Box obstacle footprint: center, side lengths, yaw rotation in degrees."""

    cx: float
    cy: float
    length: float
    width: float
    height: float
    rotation: float = 0.0

    def __post_init__(self):
        for name in ("length", "width", "height"):
            if not getattr(self, name) > 0:
                raise ValidationError(f"obstacle {name} must be > 0, got {getattr(self, name)}")


@dataclass(frozen=True)
class FlightLabels:
    """Manually assigned per-flight ground truth."""

    flight_id: str
    safety: str
    certainty: str

    def __post_init__(self):
        if self.safety not in SAFETY_LABELS:
            raise ValidationError(f"unknown safety label {self.safety!r}")
        if self.certainty not in CERTAINTY_LABELS:
            raise ValidationError(f"unknown certainty label {self.certainty!r}")


def open_text(source, mode: str = "r") -> ContextManager[IO[str]]:
    """Context manager: a path is opened and closed, an open stream left open."""
    if isinstance(source, (str, Path)):
        return open(source, mode, encoding="utf-8", newline="")
    return nullcontext(source)


def _parse_float(token: str, line_no: int, column: str) -> float:
    try:
        return float(token)
    except ValueError:
        raise ParseError(f"line {line_no}: cannot parse {column}={token!r} as a number") from None


def parse_flight_log(source, *, flight_id: str, test_id: str = "",
                     execution_index: int = 0) -> FlightLog:
    """Parse one flight-log CSV into a validated :class:`FlightLog`.

    Raises :class:`ParseError` for malformed rows (with line number) and
    :class:`ValidationError` for invariant violations such as out-of-range
    headings, non-monotone timestamps, or an empty safe channel.
    """
    with open_text(source) as stream:
        reader = csv.reader(stream)
        try:
            header = next(reader)
        except StopIteration:
            raise ParseError("empty document, expected header row") from None
        if tuple(h.strip() for h in header) != LOG_HEADER:
            raise ParseError(f"bad header {header!r}, expected {','.join(LOG_HEADER)}")
        records = []
        for line_no, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != 6:
                raise ParseError(f"line {line_no}: expected 6 fields, got {len(row)}")
            ts = _parse_float(row[0], line_no, "timestamp_s")
            channel = row[1].strip()
            x = _parse_float(row[2], line_no, "x")
            y = _parse_float(row[3], line_no, "y")
            z = _parse_float(row[4], line_no, "z")
            r = _parse_float(row[5], line_no, "r_deg")
            try:
                records.append(LogRecord(ts, channel, x, y, z, r))
            except ValidationError as exc:
                raise ValidationError(f"line {line_no}: {exc}") from None
        return FlightLog(flight_id=flight_id, records=tuple(records),
                         test_id=test_id, execution_index=execution_index)


def serialize_flight_log(log: FlightLog) -> str:
    """Inverse of :func:`parse_flight_log` up to numeric formatting."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(LOG_HEADER)
    for rec in log.records:
        writer.writerow([repr(rec.timestamp), rec.channel,
                         repr(rec.x), repr(rec.y), repr(rec.z), repr(rec.r)])
    return buf.getvalue()


def write_flight_log(log: FlightLog, path) -> None:
    Path(path).write_text(serialize_flight_log(log), encoding="utf-8")


def parse_obstacles(source) -> list[ObstacleBox]:
    """Parse a JSON array of obstacle boxes (possibly empty)."""
    with open_text(source) as stream:
        try:
            doc = json.load(stream)
        except json.JSONDecodeError as exc:
            raise ParseError(f"malformed obstacle JSON: {exc}") from None
    if not isinstance(doc, list):
        raise ParseError("obstacle document must be a JSON array")
    boxes = []
    for i, item in enumerate(doc):
        if not isinstance(item, dict):
            raise ParseError(f"obstacle {i}: expected an object")
        try:
            boxes.append(ObstacleBox(
                cx=float(item["cx"]), cy=float(item["cy"]),
                length=float(item["length"]), width=float(item["width"]),
                height=float(item["height"]), rotation=float(item.get("rotation", 0.0)),
            ))
        except KeyError as exc:
            raise ParseError(f"obstacle {i}: missing key {exc}") from None
        except (TypeError, ValueError) as exc:
            if isinstance(exc, ValidationError):
                raise
            raise ParseError(f"obstacle {i}: {exc}") from None
    return boxes


def write_obstacles(boxes: Iterable[ObstacleBox], path) -> None:
    doc = [{"cx": b.cx, "cy": b.cy, "length": b.length, "width": b.width,
            "height": b.height, "rotation": b.rotation} for b in boxes]
    Path(path).write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")


def parse_labels(source) -> dict[str, FlightLabels]:
    """Parse the labels CSV into a map flight_id -> FlightLabels.

    Duplicate flight ids and unknown label tokens raise ValidationError.
    """
    with open_text(source) as stream:
        reader = csv.reader(stream)
        try:
            header = next(reader)
        except StopIteration:
            raise ParseError("empty document, expected header row") from None
        if tuple(h.strip() for h in header) != LABELS_HEADER:
            raise ParseError(f"bad header {header!r}, expected {','.join(LABELS_HEADER)}")
        labels: dict[str, FlightLabels] = {}
        for line_no, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != 3:
                raise ParseError(f"line {line_no}: expected 3 fields, got {len(row)}")
            fid, safety, certainty = (tok.strip() for tok in row)
            if fid in labels:
                raise ValidationError(f"line {line_no}: duplicate flight_id {fid!r}")
            try:
                labels[fid] = FlightLabels(fid, safety, certainty)
            except ValidationError as exc:
                raise ValidationError(f"line {line_no}: {exc}") from None
        return labels


def write_labels(labels: Mapping[str, FlightLabels] | Iterable[FlightLabels], path) -> None:
    items = labels.values() if isinstance(labels, Mapping) else labels
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(LABELS_HEADER)
    for lab in items:
        writer.writerow([lab.flight_id, lab.safety, lab.certainty])
    Path(path).write_text(buf.getvalue(), encoding="utf-8")
