"""Flight-log data model and parsers.

A flight log is a flat CSV of time-stamped records on three channels:
``desired`` waypoints planned by the autopilot, ``safe`` waypoints issued by
the obstacle-avoidance module (the detector's sole input), and the ``position``
channel holding the actual flight trajectory.  A log is held as one read-only
NumPy record array per flight, checked by whole-array tests.  Obstacle layouts
are JSON, ground-truth labels a small CSV.  All types are immutable.
"""

from __future__ import annotations

import csv
import itertools
import json
import math
from contextlib import nullcontext
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import IO, ContextManager, Iterable, Mapping

import numpy as np

CHANNELS = ("desired", "safe", "position")
SAFETY_LABELS = ("safe", "unsafe")
CERTAINTY_LABELS = ("certain", "uncertain")

LOG_HEADER = ("timestamp_s", "channel", "x", "y", "z", "r_deg")
LABELS_HEADER = ("flight_id", "safety", "certainty")


class ParseError(ValueError):
    """A document that cannot be read at all (bad row, bad JSON, wrong header)."""


class ValidationError(ValueError):
    """A well-formed document whose content violates a domain invariant."""


RECORD_DTYPE = np.dtype([("timestamp", float), ("channel", "U8"), ("x", float),
                         ("y", float), ("z", float), ("r", float)])


class _RecordError(ValidationError):
    """A ValidationError naming the record (file-order index) at fault."""

    def __init__(self, index: int, reason: str):
        super().__init__(f"record {index}: {reason}")
        self.index, self.reason = index, reason


def _check_records(records: np.ndarray) -> None:
    """Raise for the first faulty record in file order, else for an empty safe channel."""
    ts, channel = records["timestamp"], records["channel"]
    # stably sorted by channel, each channel's rows keep file order
    order = np.argsort(channel, kind="stable")
    same = channel[order[1:]] == channel[order[:-1]]
    prev = np.full(ts.shape, -np.inf)
    prev[order[1:][same]] = ts[order[:-1][same]]
    faults = (
        (~(np.isfinite(ts) & (ts >= 0)), "timestamp must be finite and >= 0, got {timestamp}"),
        (~np.isin(channel, CHANNELS),
         f"unknown channel {{channel!r}}, expected one of {CHANNELS}"),
        *((~np.isfinite(records[n]), f"non-finite value for {n}") for n in ("x", "y", "z", "r")),
        (np.abs(records["r"]) > 180.0, "heading r={r} outside raw range [-180, 180]"),
        (ts <= prev, "non-monotone timestamps on channel {channel!r}: {timestamp} after {prev}"),
    )
    faulty = np.flatnonzero(np.logical_or.reduce([bad for bad, _ in faults]))
    if faulty.size:
        i = int(faulty[0])
        reason = next(msg for bad, msg in faults if bad[i])
        fields = dict(zip(records.dtype.names, records[i].tolist()), prev=prev[i])
        raise _RecordError(i, reason.format(**fields))
    if not np.any(channel == "safe"):
        raise ValidationError("safe channel is empty (it is the detector's sole input)")


# compared and hashed by identity: an array comparison has no single truth value
@dataclass(frozen=True, eq=False)
class FlightLog:
    """All records of one flight.

    ``records`` is one read-only structured array of :data:`RECORD_DTYPE` in
    file order (built from any array with its field names): ``timestamp`` is
    seconds since flight start, ``r`` the raw heading in degrees.  Every value
    is finite, timestamps are >= 0 and strictly increase within each channel,
    headings lie in [-180, 180], and the safe channel is non-empty.
    """

    flight_id: str
    records: np.ndarray

    def __post_init__(self):
        records = np.asarray(self.records)
        if records.ndim != 1 or records.dtype.names != RECORD_DTYPE.names:
            raise ValidationError(f"records must be 1-D with fields {RECORD_DTYPE.names}")
        _check_records(records)
        records = records.astype(RECORD_DTYPE)
        records.setflags(write=False)
        object.__setattr__(self, "records", records)

    def channel(self, name: str) -> np.ndarray:
        """The records of one channel, in file order."""
        if name not in CHANNELS:
            raise ValueError(f"unknown channel {name!r}")
        return self.records[self.records["channel"] == name]


@dataclass(frozen=True)
class ObstacleBox:
    """Box obstacle footprint: center, side lengths, yaw rotation in degrees.
    Every field is finite, and the side lengths are > 0."""

    cx: float
    cy: float
    length: float
    width: float
    height: float
    rotation: float = 0.0

    def __post_init__(self):
        for name, value in vars(self).items():
            if not math.isfinite(value):
                raise ValidationError(f"{name} must be finite, got {value}")
            if name in ("length", "width", "height") and not value > 0:
                raise ValidationError(f"{name} must be > 0, got {value}")


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


def write_json(doc, path, *, indent: int | None = None, sort_keys: bool = True) -> None:
    """Write ``doc`` as UTF-8 JSON and a newline: compact without ``indent``, else
    indented by it; keys sorted unless ``sort_keys`` is false."""
    separators = (",", ":") if indent is None else None
    Path(path).write_text(json.dumps(doc, indent=indent, separators=separators,
                                     sort_keys=sort_keys) + "\n", encoding="utf-8")


def write_csv(target, header: Iterable, rows: Iterable[Iterable]) -> None:
    """Write a CSV table to a path or an open stream: UTF-8, ``"\n"`` line ends,
    minimal quoting, a float as its ``repr`` and ``None`` as an empty cell."""
    with open_text(target, "w") as stream:
        writer = csv.writer(stream, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def _csv_rows(stream, header: tuple[str, ...]):
    """(file line, row) for each non-empty row of a CSV with the given header,
    read from any iterable of lines; a row whose quoted field spans lines is
    numbered by its first.  A row the csv module cannot read (such as a field
    over its size limit) is a :class:`ParseError` naming the line it stopped on."""
    reader = csv.reader(stream)
    try:
        first = next(reader, None)
        if first is None:
            raise ParseError("empty document, expected header row")
        if tuple(h.strip() for h in first) != header:
            raise ParseError(f"bad header {first!r}, expected {','.join(header)}")
        line_no = reader.line_num + 1  # the first line of the next row
        for row in reader:
            if row:
                if len(row) != len(header):
                    raise ParseError(f"line {line_no}: expected {len(header)} fields, "
                                     f"got {len(row)}")
                yield line_no, row
            line_no = reader.line_num + 1
    except csv.Error as exc:
        raise ParseError(f"line {reader.line_num}: {exc}") from None


_LOG_HEADER_LINE = ",".join(LOG_HEADER) + "\n"
# a log channel name is at most 8 characters; a longer token is reported by line
_MAX_CHANNEL_TOKEN = 64
# one character wider than any channel name, so no longer token is cut to one
_PLAIN_DTYPE = np.dtype([(n, "U9" if n == "channel" else t) for n, t in RECORD_DTYPE.descr])
# read differently by np.loadtxt and csv: a quote, CR, NUL, and the ASCII
# separators that loadtxt strips from a number and float() does not
_ROW_READER_ONLY = ('"', "\r", "\x00", "\x1c", "\x1d", "\x1e", "\x1f")


def _plain_log_records(lines: list[str]) -> np.ndarray | None:
    """The records of a log of plain rows, read by ``np.loadtxt``, else None:
    the header line is exactly :data:`LOG_HEADER`, and the body is not blank,
    holds none of ``_ROW_READER_ONLY`` and no line over the csv field size
    limit.  The channel field stays unstripped, so a padded token fails
    validation and is left to the row reader, which strips it."""
    if not lines or lines[0] != _LOG_HEADER_LINE:
        return None
    body = "".join(lines[1:])
    if (not body or body.isspace() or any(c in body for c in _ROW_READER_ONLY)
            or max(map(len, lines)) > csv.field_size_limit()):
        return None
    return np.loadtxt(lines[1:], dtype=_PLAIN_DTYPE, delimiter=",", comments=None, ndmin=1)


def _line_error(line_no: int, exc: _RecordError) -> ValidationError:
    """The error naming the file line of the record :class:`FlightLog` rejected."""
    return ValidationError(f"line {line_no}: {exc.reason}")


def _parse_rows(lines, *, flight_id: str) -> FlightLog:
    """:func:`parse_flight_log` row by row through the csv module; its errors
    name the file line at fault."""
    numbered = list(_csv_rows(lines, LOG_HEADER))
    columns = list(zip(*(row for _, row in numbered))) or [()] * 6
    try:
        ts, x, y, z, r = (np.array(columns[k], dtype=float) for k in (0, 2, 3, 4, 5))
    except ValueError:  # find the first bad token in file order
        for (line_no, row), k in itertools.product(numbered, (0, 2, 3, 4, 5)):
            try:
                float(row[k])
            except ValueError:
                raise ParseError(f"line {line_no}: cannot parse "
                                 f"{LOG_HEADER[k]}={row[k]!r} as a number") from None
        raise
    if max(map(len, columns[1]), default=0) > _MAX_CHANNEL_TOKEN:
        # a garbled token must not set the width of every row's channel field
        line_no, token = next((n, row[1]) for n, row in numbered
                              if len(row[1]) > _MAX_CHANNEL_TOKEN)
        raise ValidationError(f"line {line_no}: unknown channel "
                              f"{token[:_MAX_CHANNEL_TOKEN]!r}... (too long)")
    channel = np.char.strip(np.array(columns[1], dtype=str))
    records = np.rec.fromarrays([ts, channel, x, y, z, r], names=RECORD_DTYPE.names)
    try:
        return FlightLog(flight_id=flight_id, records=records)
    except _RecordError as exc:
        raise _line_error(numbered[exc.index][0], exc) from None


def parse_flight_log(source, *, flight_id: str) -> FlightLog:
    """Parse one flight-log CSV into a validated :class:`FlightLog`.

    Raises :class:`ParseError` for malformed rows and :class:`ValidationError`
    for invariant violations such as out-of-range headings, non-monotone
    timestamps, or an empty safe channel; both name the file line at fault.

    A log of plain rows is read whole by ``np.loadtxt``; any other log, and
    any that loadtxt refuses, goes row by row through :func:`_parse_rows`.
    A plain log whose values fail validation is named from its own lines,
    unless a channel token is unknown: the row reader strips those, and may
    read them differently.
    """
    with open_text(source) as stream:
        lines = list(stream)
    try:
        records = _plain_log_records(lines)
    except ValueError:
        records = None  # the row reader below names the line at fault
    if records is not None:
        try:
            return FlightLog(flight_id=flight_id, records=records)
        except _RecordError as exc:
            if np.isin(records["channel"], CHANNELS).all():
                # loadtxt skips the body lines that are exactly "\n", and
                # reads every other line as one record
                numbers = (n for n, line in enumerate(lines[1:], start=2) if line != "\n")
                raise _line_error(next(itertools.islice(numbers, exc.index, None)),
                                  exc) from None
    return _parse_rows(lines, flight_id=flight_id)


def serialize_flight_log(log: FlightLog) -> str:
    """Inverse of :func:`parse_flight_log`; no field needs CSV quoting."""
    return ",".join(LOG_HEADER) + "\n" + "".join(
        f"{ts!r},{ch},{x!r},{y!r},{z!r},{r!r}\n"
        for ts, ch, x, y, z, r in log.records.tolist())


def write_flight_log(log: FlightLog, path) -> None:
    Path(path).write_text(serialize_flight_log(log), encoding="utf-8")


def parse_obstacles(source) -> list[ObstacleBox]:
    """Parse a JSON array of obstacle boxes (possibly empty); a box that is not a
    valid :class:`ObstacleBox` of JSON numbers is a ValueError naming its index."""
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
            fields = {k: item[k] for k in ("cx", "cy", "length", "width", "height")}
            fields["rotation"] = item.get("rotation", 0.0)
            for key, value in fields.items():
                if type(value) not in (int, float):  # a JSON number; true is not one
                    raise ParseError(f"{key} must be a number, got {value!r}")
            boxes.append(ObstacleBox(**{k: float(v) for k, v in fields.items()}))
        except KeyError as exc:
            raise ParseError(f"obstacle {i}: missing key {exc}") from None
        except ValidationError as exc:
            raise ValidationError(f"obstacle {i}: {exc}") from None
        except (ValueError, OverflowError) as exc:
            raise ParseError(f"obstacle {i}: {exc}") from None
    return boxes


def write_obstacles(boxes: Iterable[ObstacleBox], path) -> None:
    write_json([asdict(b) for b in boxes], path, indent=2, sort_keys=False)


def parse_labels(source) -> dict[str, FlightLabels]:
    """Parse the labels CSV into a map flight_id -> FlightLabels.

    An empty or duplicate flight id or an unknown label raises ValidationError.
    """
    with open_text(source) as stream:
        labels: dict[str, FlightLabels] = {}
        for line_no, row in _csv_rows(stream, LABELS_HEADER):
            fid, safety, certainty = (tok.strip() for tok in row)
            if not fid:
                raise ValidationError(f"line {line_no}: empty flight_id")
            if fid in labels:
                raise ValidationError(f"line {line_no}: duplicate flight_id {fid!r}")
            try:
                labels[fid] = FlightLabels(fid, safety, certainty)
            except ValidationError as exc:
                raise ValidationError(f"line {line_no}: {exc}") from None
        return labels


def write_labels(labels: Mapping[str, FlightLabels] | Iterable[FlightLabels], path) -> None:
    items = labels.values() if isinstance(labels, Mapping) else labels
    write_csv(path, LABELS_HEADER, ((lab.flight_id, lab.safety, lab.certainty) for lab in items))
