import io
import json
import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from flightwatch import flightdata
from flightwatch.flightdata import (
    CERTAINTY_LABELS,
    CHANNELS,
    RECORD_DTYPE,
    SAFETY_LABELS,
    FlightLabels,
    FlightLog,
    ObstacleBox,
    ParseError,
    ValidationError,
    parse_flight_log,
    parse_labels,
    parse_obstacles,
    serialize_flight_log,
    write_labels,
)

HEADER = "timestamp_s,channel,x,y,z,r_deg\n"


def _records(*columns):
    return np.rec.fromarrays(columns, names=RECORD_DTYPE.names)


def _parse(body: str, **kw):
    kw.setdefault("flight_id", "f1")
    return parse_flight_log(io.StringIO(HEADER + body), **kw)


class TestParseFlightLog:
    def test_single_safe_row(self):
        log = _parse("0.0,safe,1.0,2.0,3.0,90.0\n")
        recs = log.channel("safe")
        assert len(recs) == 1
        assert recs[0].tolist() == (0.0, "safe", 1.0, 2.0, 3.0, 90.0)

    def test_heading_out_of_raw_range(self):
        with pytest.raises(ValidationError):
            _parse("0.0,safe,1.0,2.0,3.0,200.0\n")

    def test_non_monotone_timestamps(self):
        body = ("0.0,safe,0,0,0,0\n"
                "0.2,safe,0,0,0,0\n"
                "0.1,safe,0,0,0,0\n")
        with pytest.raises(ValidationError, match="non-monotone"):
            _parse(body)

    def test_empty_safe_channel(self):
        with pytest.raises(ValidationError, match="safe channel"):
            _parse("0.0,position,0,0,0,0\n")

    def test_malformed_row_reports_line_number(self):
        with pytest.raises(ParseError, match="line 3"):
            _parse("0.0,safe,0,0,0,0\n0.1,safe,0,0,bogus,0\n")

    def test_bad_header(self):
        with pytest.raises(ParseError, match="header"):
            parse_flight_log(io.StringIO("a,b,c\n"), flight_id="f1")

    def test_negative_timestamp(self):
        with pytest.raises(ValidationError):
            _parse("-1.0,safe,0,0,0,0\n")

    def test_unknown_channel(self):
        with pytest.raises(ValidationError, match="channel"):
            _parse("0.0,wind,0,0,0,0\n")

    def test_boundary_headings_accepted(self):
        log = _parse("0.0,safe,0,0,0,-180.0\n1.0,safe,0,0,0,180.0\n")
        assert log.channel("safe")["r"].tolist() == [-180.0, 180.0]

    def test_channels_independent_timelines(self):
        # same timestamps on different channels are fine
        log = _parse("0.0,safe,0,0,0,0\n0.0,position,1,1,1,0\n"
                     "0.2,safe,0,0,0,1\n0.2,position,1,1,1,1\n")
        assert len(log.channel("safe")) == 2
        assert len(log.channel("position")) == 2
        assert len(log.channel("desired")) == 0


class TestRoundTrip:
    def test_serialize_parse_identity(self):
        body = ("0.0,safe,1.5,-2.25,3.125,90.5\n"
                "0.1,position,0.1,0.2,0.3,-179.9\n"
                "0.2,safe,1.0,2.0,3.0,12.3456789\n")
        log = _parse(body)
        again = parse_flight_log(io.StringIO(serialize_flight_log(log)), flight_id="f1")
        assert np.array_equal(again.records, log.records)

    def test_channel_partition(self):
        body = "".join(f"{t / 10},{ch},0,0,0,{t}\n"
                       for t in range(5) for ch in ("desired", "safe", "position"))
        log = _parse(body)
        total = sum(len(log.channel(ch)) for ch in ("desired", "safe", "position"))
        assert total == len(log.records) == 15


OBSTACLE_BOX = {"cx": 1.5, "cy": -2.0, "length": 3.0, "width": 1.0, "height": 10.0,
                "rotation": 30.0}


class TestObstacles:
    def test_single_box(self):
        doc = '[{"cx":0,"cy":0,"length":2,"width":1,"height":10,"rotation":0}]'
        boxes = parse_obstacles(io.StringIO(doc))
        assert boxes == [ObstacleBox(0.0, 0.0, 2.0, 1.0, 10.0, 0.0)]

    def test_empty_list(self):
        assert parse_obstacles(io.StringIO("[]")) == []

    def test_negative_dimension(self):
        doc = '[{"cx":0,"cy":0,"length":2,"width":-1,"height":10,"rotation":0}]'
        with pytest.raises(ValidationError):
            parse_obstacles(io.StringIO(doc))

    def test_malformed_document(self):
        with pytest.raises(ParseError):
            parse_obstacles(io.StringIO("{not json"))

    def test_missing_key(self):
        with pytest.raises(ParseError, match="missing key"):
            parse_obstacles(io.StringIO('[{"cx":0}]'))

    @pytest.mark.parametrize("key, value", [("cx", math.nan), ("rotation", math.nan),
                                            ("cx", math.inf), ("length", math.inf),
                                            ("cy", -math.inf)])
    def test_non_finite_field_is_rejected_by_name(self, key, value):
        doc = json.dumps([OBSTACLE_BOX, {**OBSTACLE_BOX, key: value}])
        with pytest.raises(ValidationError,
                           match=f"^obstacle 1: {key} must be finite, got {value}$"):
            parse_obstacles(io.StringIO(doc))

    @pytest.mark.parametrize("key, value, shown", [("cx", "3", "'3'"), ("length", True, "True"),
                                                   ("rotation", None, "None"),
                                                   ("height", [10], "[10]")])
    def test_field_that_is_not_a_json_number_is_rejected_by_name(self, key, value, shown):
        doc = json.dumps([OBSTACLE_BOX, {**OBSTACLE_BOX, key: value}])
        with pytest.raises(ParseError,
                           match=rf"^obstacle 1: {key} must be a number, got {re.escape(shown)}$"):
            parse_obstacles(io.StringIO(doc))

    def test_number_beyond_float_range_names_the_obstacle(self):
        doc = json.dumps([{**OBSTACLE_BOX, "cy": 10 ** 400}])
        with pytest.raises(ParseError, match="^obstacle 0: int too large to convert to float$"):
            parse_obstacles(io.StringIO(doc))


# a value of another type, a number that is not finite, or an empty one
_OBSTACLE_VALUES = st.one_of(
    st.sampled_from([math.nan, math.inf, -math.inf, 10 ** 400, 0, -1, None, True, "",
                     "3", "nan", "abc", [], {}]),
    st.floats(), st.integers(), st.text(max_size=4))


@st.composite
def obstacle_mutations(draw):
    """``(boxes, i)``: a valid obstacle document with one edit to obstacle i, a
    key dropped or a value (or the whole obstacle) replaced."""
    boxes = [{**OBSTACLE_BOX, "cx": 10.0 * k} for k in range(draw(st.integers(1, 3)))]
    i = draw(st.integers(0, len(boxes) - 1))
    key = draw(st.sampled_from([None, *OBSTACLE_BOX]))
    if key is None:
        boxes[i] = draw(_OBSTACLE_VALUES)
    elif draw(st.booleans()):
        del boxes[i][key]
    else:
        boxes[i][key] = draw(_OBSTACLE_VALUES)
    return boxes, i


class TestObstacleProperty:
    @settings(max_examples=300, deadline=None)
    @given(case=obstacle_mutations())
    @example(case=([{**OBSTACLE_BOX, "cx": math.nan}], 0))
    @example(case=([{**OBSTACLE_BOX, "cx": "3"}], 0))
    @example(case=([{**OBSTACLE_BOX, "length": True}], 0))
    @example(case=([{**OBSTACLE_BOX, "cx": 2**53 + 1}], 0))  # no float holds it
    def test_one_mutation_gives_valid_boxes_or_names_the_obstacle(self, case):
        boxes, i = case
        try:
            parsed = parse_obstacles(io.StringIO(json.dumps(boxes)))
        except ValueError as exc:
            assert str(exc).startswith(f"obstacle {i}: ")
            return
        assert len(parsed) == len(boxes)
        for box, doc in zip(parsed, boxes):
            assert all(math.isfinite(v) for v in vars(box).values())
            assert min(box.length, box.width, box.height) > 0
            # each field is the float nearest the document's JSON number
            # (rotation 0 when absent), as json reads any number literal
            for key, value in vars(box).items():
                given = doc.get(key, 0.0)
                assert type(given) in (int, float)
                assert type(value) is float and value == float(given)


class TestLabels:
    def test_basic(self):
        labels = parse_labels(io.StringIO(
            "flight_id,safety,certainty\nf1,unsafe,uncertain\n"))
        assert labels == {"f1": FlightLabels("f1", "unsafe", "uncertain")}

    def test_duplicate_flight_id(self):
        doc = "flight_id,safety,certainty\nf1,safe,certain\nf1,unsafe,uncertain\n"
        with pytest.raises(ValidationError, match="duplicate"):
            parse_labels(io.StringIO(doc))

    def test_unknown_token(self):
        doc = "flight_id,safety,certainty\nf1,risky,certain\n"
        with pytest.raises(ValidationError):
            parse_labels(io.StringIO(doc))

    def test_write_read_round_trip(self, tmp_path):
        labels = {"a": FlightLabels("a", "safe", "certain"),
                  "b": FlightLabels("b", "unsafe", "uncertain")}
        path = tmp_path / "labels.csv"
        write_labels(labels, path)
        assert parse_labels(path) == labels


LABEL_LINES = ["flight_id,safety,certainty", "a,safe,certain", "b,unsafe,uncertain",
               "c,safe,uncertain", "d,unsafe,certain"]
_LABEL_TOKENS = st.one_of(st.sampled_from(["safe", "unsafe", "certain", "uncertain", " safe",
                                           "Safe", "risky", ""]),
                          st.text("acefinrstu ", max_size=9))


@st.composite
def label_mutations(draw, lines):
    """``(lines, n)``: the valid labels CSV ``lines`` with one row edited: a
    field dropped, a cell emptied, a label replaced, another row's flight id
    given, or a field added.  If the edit is a fault, file line ``n`` is the
    first faulty one."""
    lines = list(lines)
    k = n = draw(st.integers(2, len(lines)))  # the file line edited
    row = lines[k - 1].split(",")
    kind = draw(st.sampled_from(["drop", "empty", "label", "duplicate", "extra"]))
    if kind == "drop":
        del row[draw(st.integers(0, 2))]
    elif kind == "empty":
        row[draw(st.integers(0, 2))] = ""
    elif kind == "label":
        row[draw(st.integers(1, 2))] = draw(_LABEL_TOKENS)
    elif kind == "duplicate":
        other = draw(st.sampled_from([m for m in range(2, len(lines) + 1) if m != k]))
        row[0] = lines[other - 1].split(",")[0]
        n = max(k, other)
    else:
        row.insert(draw(st.integers(0, 3)), draw(_LABEL_TOKENS))
    lines[k - 1] = ",".join(row)
    return lines, n


class TestLabelsProperty:
    @settings(max_examples=300, deadline=None)
    @given(case=label_mutations(LABEL_LINES))
    @example(case=([*LABEL_LINES[:2], ",unsafe,uncertain", *LABEL_LINES[3:]], 3))
    def test_one_mutation_gives_valid_labels_or_names_the_line(self, case):
        lines, n = case
        try:
            labels = parse_labels(io.StringIO("\n".join(lines) + "\n"))
        except ValueError as exc:
            assert str(exc).startswith(f"line {n}: ")
            return
        assert list(labels) == ["a", "b", "c", "d"]
        for fid, lab in labels.items():
            assert lab.flight_id == fid
            assert lab.safety in SAFETY_LABELS and lab.certainty in CERTAINTY_LABELS


class TestColumnarLog:
    def test_records_are_one_read_only_array(self):
        log = _parse("0.0,safe,1,2,3,4\n0.0,position,5,6,7,8\n")
        assert log.records.dtype == RECORD_DTYPE
        assert not log.records.flags.writeable
        with pytest.raises(ValueError):
            log.records["x"][0] = 9.0

    def test_logs_compare_and_hash_by_identity(self):
        body = "0.0,safe,0,0,0,1\n0.2,safe,0,0,0,2\n"
        log, twin = _parse(body), _parse(body)
        assert log == log and log != twin
        assert {log: 1, twin: 2}[log] == 1

    def test_channel_is_mask_of_records(self):
        log = _parse("0.0,safe,0,0,0,1\n0.0,position,0,0,0,2\n0.2,safe,0,0,0,3\n")
        assert log.channel("safe")["r"].tolist() == [1.0, 3.0]
        assert log.channel("position")["r"].tolist() == [2.0]
        with pytest.raises(ValueError, match="unknown channel"):
            log.channel("wind")

    def test_long_channel_name_is_not_truncated(self):
        # "positional" must not pass as the 8-character "position"
        with pytest.raises(ValidationError, match="line 3: unknown channel 'positional'"):
            _parse("0.0,safe,0,0,0,0\n0.0,positional,0,0,0,0\n")

    def test_overlong_channel_token_is_rejected_by_line(self):
        with pytest.raises(ValidationError, match="^line 4: unknown channel 'xxx"):
            _parse("0.0,safe,0,0,0,0\n\n0.1," + "x" * 65 + ",0,0,0,0\n")

    def test_direct_construction_names_the_record(self):
        recs = _records([0.0, 0.1], ["safe"] * 2, [0.0] * 2, [0.0] * 2, [0.0] * 2, [0.0, 200.0])
        with pytest.raises(ValidationError, match="record 1: heading r=200.0"):
            FlightLog(flight_id="x", records=recs)

    def test_rejects_an_unstructured_array(self):
        with pytest.raises(ValidationError, match="fields"):
            FlightLog(flight_id="x", records=np.zeros((2, 6)))


def _row(**fields):
    row = {"timestamp_s": "0.4", "channel": "safe", "x": "1", "y": "2", "z": "3",
           "r_deg": "4"}
    row.update(fields)
    return ",".join(row[name] for name in HEADER.strip().split(",")) + "\n"


# line 1 is the header and line 3 is blank, so the faulty line 5 is the 4th row
def _with_fault_on_line_5(faulty_row: str) -> str:
    return ("0.0,safe,0,0,0,0\n\n0.2,position,0,0,0,0\n" + faulty_row
            + "0.6,safe,0,0,0,0\n")


class TestFaultLineNumbers:
    @pytest.mark.parametrize("field", ["timestamp_s", "x", "y", "z", "r_deg"])
    @pytest.mark.parametrize("token", ["nan", "inf", "-inf"])
    def test_non_finite_value(self, field, token):
        with pytest.raises(ValidationError, match=r"^line 5: .*(finite|non-finite)"):
            _parse(_with_fault_on_line_5(_row(**{field: token})))

    @pytest.mark.parametrize("heading", ["180.5", "-200", "1e9"])
    def test_heading_out_of_range(self, heading):
        with pytest.raises(ValidationError, match=r"^line 5: heading r="):
            _parse(_with_fault_on_line_5(_row(r_deg=heading)))

    @pytest.mark.parametrize("timestamp", ["0.0", "-0.0"])
    def test_non_monotone_timestamp(self, timestamp):
        # the safe channel's previous row (line 2) is at 0.0
        with pytest.raises(ValidationError, match=r"^line 5: non-monotone"):
            _parse(_with_fault_on_line_5(_row(timestamp_s=timestamp)))

    def test_unparsable_token(self):
        with pytest.raises(ParseError, match=r"^line 5: cannot parse y='north'"):
            _parse(_with_fault_on_line_5(_row(y="north", r_deg="bogus")))


_finite = st.floats(allow_nan=False, allow_infinity=False)


@st.composite
def _valid_records(draw):
    rows = draw(st.lists(st.tuples(
        st.sampled_from(CHANNELS), st.floats(1e-6, 1e3), _finite, _finite, _finite,
        st.floats(-180.0, 180.0)), min_size=1, max_size=40))
    rows[0] = ("safe",) + rows[0][1:]
    clock = dict.fromkeys(CHANNELS, draw(st.floats(0.0, 1e3)))
    timestamps = []
    for channel, step, *_ in rows:
        timestamps.append(clock[channel])
        clock[channel] += step
    channel, _, x, y, z, r = zip(*rows)
    return _records(timestamps, channel, x, y, z, r)


class TestRoundTripProperty:
    @settings(max_examples=200, deadline=None)
    @given(_valid_records())
    def test_serialize_parse_serialize_is_byte_identical(self, records):
        text = serialize_flight_log(FlightLog(flight_id="f", records=records))
        again = parse_flight_log(io.StringIO(text), flight_id="f")
        assert serialize_flight_log(again) == text
        assert np.array_equal(again.records, records.astype(RECORD_DTYPE))


def _first_faulty_record(rows):
    """Reference: the record-by-record checks the vectorised validation replaces."""
    last = {}
    for i, (ts, channel, *xyzr) in enumerate(rows):
        if (not (math.isfinite(ts) and ts >= 0) or channel not in CHANNELS
                or not all(map(math.isfinite, xyzr)) or abs(xyzr[3]) > 180.0
                or ts <= last.get(channel, -math.inf)):
            return i
        last[channel] = ts
    return None


# faulty values for each record field, in RECORD_DTYPE order
_FAULTS = ([math.nan, math.inf, -1.0], ["wind", "positional"], *[[math.nan, -math.inf]] * 3,
           [math.nan, math.inf, 180.5, -200.0])


@st.composite
def _records_with_faults(draw):
    rows, clock = [], {}
    for _ in range(draw(st.integers(1, 30))):
        channel = draw(st.sampled_from(CHANNELS))
        # steps <= 0 put a channel's timestamps out of order
        clock[channel] = clock.get(channel, 0.0) + draw(st.floats(-1.0, 10.0))
        row = [clock[channel], channel] + draw(st.lists(
            st.floats(-180.0, 180.0), min_size=4, max_size=4))
        if draw(st.integers(0, 9)) == 0:
            k = draw(st.integers(0, 5))
            row[k] = draw(st.sampled_from(_FAULTS[k]))
        rows.append(tuple(row))
    return rows


class TestVectorisedValidation:
    @settings(max_examples=300, deadline=None)
    @given(_records_with_faults())
    def test_first_fault_matches_record_by_record_checks(self, rows):
        records = _records(*zip(*rows))
        expected = _first_faulty_record(rows)
        if expected is not None:
            with pytest.raises(ValidationError, match=rf"^record {expected}: "):
                FlightLog(flight_id="f", records=records)
        elif any(row[1] == "safe" for row in rows):
            assert FlightLog(flight_id="f", records=records).records.size == len(rows)
        else:
            with pytest.raises(ValidationError, match="safe channel is empty"):
                FlightLog(flight_id="f", records=records)


# longer than the csv module's default field size limit of 131,072 characters,
# yet a finite number to float()
_OVERLONG_NUMBER = "0." + "0" * 200000 + "1"


class TestCsvErrors:
    def test_overlong_log_field_is_a_parse_error_naming_its_line(self):
        with pytest.raises(ParseError, match=r"^line 2: field larger than field limit"):
            _parse(_OVERLONG_NUMBER + ",safe,0,0,0,0\n")

    def test_overlong_label_field_is_a_parse_error_naming_its_line(self):
        doc = "flight_id,safety,certainty\nf1,safe,certain\n" + "f" * 131073 + ",safe,certain\n"
        with pytest.raises(ParseError, match=r"^line 3: field larger than field limit"):
            parse_labels(io.StringIO(doc))

    # a quoted field that spans lines 2-3 moves every later row down one line
    def test_log_lines_counted_past_a_field_spanning_lines(self):
        body = '0.0,"sa\nfe",0,0,0,0\n0.2,safe,0,0,0,bad\n'
        with pytest.raises(ParseError, match=r"^line 4: cannot parse r_deg='bad' as a number$"):
            _parse(body)

    def test_label_lines_counted_past_a_field_spanning_lines(self):
        doc = 'flight_id,safety,certainty\n"f\n1",safe,certain\nf2,safe,bogus\n'
        with pytest.raises(ValidationError, match=r"^line 4: unknown certainty label 'bogus'$"):
            parse_labels(io.StringIO(doc))

    def test_row_spanning_lines_is_named_by_its_first(self):
        with pytest.raises(ValidationError, match=r"^line 2: unknown channel 'sa\\nfe'"):
            _parse('0.0,"sa\nfe",0,0,0,0\n')


def _row_reader(text: str):
    return flightdata._parse_rows(io.StringIO(text), flight_id="f")


def _outcome(parse, text: str):
    """The record bytes a parse gives, or the type and message it raises."""
    try:
        records = parse(text).records
    except Exception as exc:  # noqa: BLE001 - compared, not handled
        return type(exc), str(exc)
    return records.dtype, records.tobytes()


# text faults for one line of a serialised log; each takes the line without
# its newline and a field index, and returns the replacement text
_TEXT_FAULTS = {
    "blank line": lambda line, k: "\n" + line,
    "whitespace line": lambda line, k: " \t \n" + line,
    "crlf": lambda line, k: line + "\r",
    "cr in field": lambda line, k: _with_field(line, k, lambda f: f + "\r"),
    "quoted field": lambda line, k: _with_field(line, k, lambda f: f'"{f}"'),
    "5 fields": lambda line, k: ",".join(line.split(",")[:5]),
    "7 fields": lambda line, k: line + ",0",
    "trailing comma": lambda line, k: line + ",",
    "hash": lambda line, k: "#" + line,
    "overlong token": lambda line, k: _with_field(line, k, lambda f: "0." + "0" * 131071),
    "nul": lambda line, k: _with_field(line, k, lambda f: f + "\x00"),
    "underscore digits": lambda line, k: _with_field(line, k, lambda f: "1_0"),
    "non-ascii digit": lambda line, k: _with_field(line, k, lambda f: "\u0661"),
    # loadtxt strips these from a number, float() does not
    "ascii separator": lambda line, k: _with_field(line, k, lambda f: f + "\x1f"),
    # plain text whose values fail validation
    "heading out of range": lambda line, k: _with_field(line, 5, lambda f: "180.5"),
    "timestamp goes back": lambda line, k: _with_field(line, 0, lambda f: "0"),
    "negative timestamp": lambda line, k: _with_field(line, 0, lambda f: "-1"),
    "nan value": lambda line, k: _with_field(line, k, lambda f: "nan"),
    "inf value": lambda line, k: _with_field(line, k, lambda f: "-inf"),
    "unknown channel": lambda line, k: _with_field(line, 1, lambda f: "gps"),
    "padded channel": lambda line, k: _with_field(line, 1, lambda f: " safe"),
}


def _with_field(line: str, k: int, change) -> str:
    fields = line.split(",")
    # an earlier "5 fields" fault may have shortened the line
    k = min(k, len(fields) - 1)
    fields[k] = change(fields[k])
    return ",".join(fields)


@st.composite
def _logs_with_text_faults(draw):
    """A serialised valid log, its lines changed by zero to three text faults."""
    text = serialize_flight_log(FlightLog(flight_id="f", records=draw(_valid_records())))
    lines = text.split("\n")[:-1]
    for _ in range(draw(st.integers(0, 3))):
        fault = draw(st.sampled_from(sorted(_TEXT_FAULTS)))
        i = draw(st.integers(1, len(lines) - 1))
        lines[i] = _TEXT_FAULTS[fault](lines[i], draw(st.integers(0, 5)))
    return text, "\n".join(lines) + "\n"


_CLEAN_LOG = HEADER + "0.0,safe,1,2,3,4\n0.0,position,5,6,7,8\n0.2,safe,1,2,3,5\n"


def _case(body: str):
    return _CLEAN_LOG, HEADER + body


class TestParseMatchesRowReader:
    """The loadtxt parse gives what the csv row reader gives, bit for bit,
    or raises what it raises."""

    @settings(max_examples=300, deadline=None)
    @given(_logs_with_text_faults())
    # loadtxt keeps the channel field unstripped: "safe     x" cut to 9
    # characters must not strip to "safe", and " safe" is read as "safe"
    @example(_case("0.0,safe     x,1,2,3,4\n"))
    @example(_case("0.0, safe,1,2,3,4\n"))
    @example(_case("0.0,safe,0,0,0,0\n0.0,positional,0,0,0,0\n"))
    # float() reads these, loadtxt does not
    @example(_case("0.0,safe,1_0,2,3,4\n"))
    @example(_case("0.0,safe,\u0661,2,3,4\n"))
    # loadtxt reads this, float() does not
    @example(_case("0.0,safe,1\x1c,2,3,4\n"))
    @example(_case(""))
    @example(_case("\n \n\n"))
    # a value fault is named by its line, blank lines counted; a later
    # channel token too long for the row reader is its error instead
    @example(_case("0.0,safe,1,2,3,4\n\n\n0.1,safe,1,2,3,200\n"))
    @example(_case("0.0,safe,1,2,3,200\n0.1," + "x" * 70 + ",1,2,3,4\n"))
    def test_same_records_or_same_error(self, case):
        clean, text = case
        # the clean log takes the loadtxt path, so the comparison tests it
        assert flightdata._plain_log_records(clean.splitlines(keepends=True)) is not None
        parse = lambda t: parse_flight_log(io.StringIO(t), flight_id="f")  # noqa: E731
        assert _outcome(parse, text) == _outcome(_row_reader, text)

    @pytest.mark.parametrize("body, message", [
        ("0.0,safe,1,2,3,4\n\n0.1,safe,1,2,3,200\n", "line 4: heading r=200.0 outside"),
        ("0.5,safe,1,2,3,4\n0.2,position,1,2,3,4\n0.1,safe,1,2,3,4\n",
         "line 4: non-monotone timestamps on channel 'safe'"),
        ("0.0,position,1,2,3,4\n", "safe channel is empty"),
    ])
    def test_value_fault_of_a_plain_log_is_named_without_the_row_reader(
            self, monkeypatch, body, message):
        def row_reader(lines, *, flight_id):
            raise AssertionError("the log was read twice")

        monkeypatch.setattr(flightdata, "_parse_rows", row_reader)
        with pytest.raises(ValidationError, match=re.escape(message)):
            _parse(body)

    @pytest.mark.parametrize("ending", ["\n", "\r\n"])
    def test_crlf_and_blank_lines_read_as_lf(self, ending):
        body = "0.0,safe,1,2,3,4\n\n0.1,position,5,6,7,8\n"
        log = _parse(body.replace("\n", ending))
        assert log.records.tobytes() == _parse(body).records.tobytes()

    def test_quoted_fields_are_read_as_csv(self):
        log = _parse('0.0,"safe",1,2,3,"4"\n')
        assert log.records.tolist() == [(0.0, "safe", 1.0, 2.0, 3.0, 4.0)]

    def test_one_row_log_is_one_record(self):
        records = flightdata._plain_log_records([HEADER, "0.0,safe,1,2,3,4\n"])
        assert records.shape == (1,)
        assert _parse("0.0,safe,1,2,3,4").records.tolist() == [(0.0, "safe", 1.0, 2.0, 3.0, 4.0)]

    # loadtxt warns on a body with no data
    @pytest.mark.parametrize("body", ["", "\n\n"])
    def test_blank_body_is_left_to_the_row_reader(self, body):
        assert flightdata._plain_log_records([HEADER, body]) is None
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValidationError, match="^safe channel is empty"):
                _parse(body)

    def test_loadtxt_path_warns_nothing(self):
        lines = (HEADER + "\n0.0,safe,1,2,3,4\n\n0.1,safe,1e500,2,3,4\n").splitlines(True)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            records = flightdata._plain_log_records(lines)
        assert records["x"].tolist() == [1.0, math.inf]


class _OneWayStream(io.StringIO):
    """A text stream that cannot seek, as a pipe."""

    def seekable(self):
        return False

    def seek(self, *args):
        raise io.UnsupportedOperation("seek")

    def tell(self):
        raise io.UnsupportedOperation("tell")


class TestUnseekableSource:
    def test_row_error_names_its_line(self):
        stream = _OneWayStream(HEADER + "0.0,safe,0,0,0,0\n\n0.2,safe,0,0,0\n")
        with pytest.raises(ParseError, match=r"^line 4: expected 6 fields, got 5$"):
            parse_flight_log(stream, flight_id="f")

    def test_validation_error_names_its_line(self):
        stream = _OneWayStream(HEADER + "0.0,safe,0,0,0,0\n0.2,safe,0,0,0,200\n")
        with pytest.raises(ValidationError, match=r"^line 3: heading r=200.0"):
            parse_flight_log(stream, flight_id="f")
