import io
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from flightwatch.autoenc import AutoencoderModel
from flightwatch.detector import DetectorConfig, detect_stream
from flightwatch.flightdata import FlightLabels, parse_flight_log
from flightwatch.geometry import DistanceTrace
from flightwatch.preprocess import (
    HeadingWindow,
    PreprocessConfig,
    config_from_windows,
    filter_nominal_from_windows,
    make_windows,
    parse_window_row,
    preprocess_flight,
    read_windows_csv,
    resample_uniform,
    unwrap_heading,
    windows_csv_width,
    write_windows_csv,
)
from flightwatch.synthgen import SynthConfig, generate, wrap_heading
from test_geometry import range_min_scalar

CFG = PreprocessConfig()
_EPS = 1e-9


def make_windows_loop(timestamps, headings, config, *, distance_trace=None,
                      labels=None, flight_id=""):
    """Oracle for :func:`make_windows`: one window per loop step, each cut,
    zero-centered and annotated on its own, with the last window's distance
    annotation replaced by the minimum over the rest of the trace."""
    ts = np.asarray(timestamps, dtype=float)
    vs = np.asarray(headings, dtype=float)
    w = config.window_samples
    if ts.size < w:
        return []
    t0 = float(ts[0])
    duration = float(ts[-1]) - t0
    min_dist = distance_trace.min_value if distance_trace is not None else math.inf
    safety = labels.safety if labels is not None else None
    certainty = labels.certainty if labels is not None else None
    windows = []
    i = 0
    while i * config.stride + config.window_length <= duration + _EPS:
        start = t0 + i * config.stride
        first = int(math.ceil((start - t0) * config.sample_rate - _EPS))
        if first + w > ts.size:
            break
        chunk = vs[first:first + w]
        end = start + config.window_length
        win_dist = (range_min_scalar(distance_trace, start, end)
                    if distance_trace is not None else math.inf)
        windows.append(HeadingWindow(
            flight_id=flight_id, index=i, start=start, end=end,
            values=chunk - chunk.mean(), win_dist=win_dist, min_dist=min_dist,
            safety=safety, certainty=certainty))
        i += 1
    if windows and distance_trace is not None:
        last = windows[-1]
        windows[-1] = replace(last, win_dist=range_min_scalar(distance_trace, last.start,
                                                              math.inf))
    return windows


def _window_bits(win):
    """Every field of a window, floats as their bytes."""
    floats = np.array([win.start, win.end, win.win_dist, win.min_dist])
    return (win.flight_id, win.index, floats.tobytes(), win.values.tobytes(),
            win.safety, win.certainty)


def _uniform_series(duration, rate=5.0):
    n = int(round(duration * rate)) + 1
    return np.arange(n) / rate


class TestUnwrap:
    def test_wrap_up(self):
        # 10 deg anti-clockwise from 175 must become a 10 deg step, not 350
        assert np.allclose(unwrap_heading([175.0, -175.0]), [175.0, 185.0])

    def test_wrap_down(self):
        assert np.allclose(unwrap_heading([-170.0, 170.0]), [-170.0, -190.0])

    def test_no_crossing_unchanged(self):
        assert np.allclose(unwrap_heading([0.0, 10.0, 20.0]), [0.0, 10.0, 20.0])

    def test_properties_random(self):
        rng = np.random.default_rng(11)
        for _ in range(300):
            raw = rng.uniform(-180.0, 180.0, size=rng.integers(2, 60))
            out = unwrap_heading(raw)
            assert out[0] == raw[0]
            # elementwise equal mod 360
            assert np.allclose((out - raw + 180.0) % 360.0 - 180.0, 0.0, atol=1e-9)
            assert np.all(np.abs(np.diff(out)) <= 180.0 + 1e-9)

    def test_continuous_rotation(self):
        # constantly rotating drone: unwrap recovers the linear ramp
        true = np.linspace(0.0, 720.0, 100)
        wrapped = (true + 180.0) % 360.0 - 180.0
        assert np.allclose(unwrap_heading(wrapped), true, atol=1e-9)


class TestResample:
    def test_linear_interpolation(self):
        ts, vs = resample_uniform([0.0, 1.0], [0.0, 10.0], rate=5.0)
        assert np.allclose(ts, [0.0, 0.2, 0.4, 0.6, 0.8, 1.0])
        assert np.allclose(vs, [0.0, 2.0, 4.0, 6.0, 8.0, 10.0])

    def test_idempotent_on_grid(self):
        t = _uniform_series(10.0)
        v = np.sin(t)
        ts, vs = resample_uniform(t, v, rate=5.0)
        assert ts.shape == t.shape
        assert np.allclose(vs, v, atol=1e-9)

    def test_single_record_is_error(self):
        with pytest.raises(ValueError):
            resample_uniform([0.0], [1.0], rate=5.0)

    def test_no_extrapolation(self):
        ts, _ = resample_uniform([1.0, 2.1], [0.0, 1.0], rate=5.0)
        assert ts[0] == 1.0
        assert ts[-1] <= 2.1 + 1e-12


class TestMakeWindows:
    def test_count_10s_series(self):
        t = _uniform_series(10.0)
        wins = make_windows(t, np.zeros_like(t), CFG, flight_id="f")
        assert [w.start for w in wins] == [0.0, 2.5, 5.0]
        assert all(w.end - w.start == pytest.approx(5.0) for w in wins)
        assert all(len(w.values) == 25 for w in wins)

    def test_count_formula_random(self):
        rng = np.random.default_rng(5)
        for _ in range(200):
            n = int(rng.integers(2, 400))
            t = np.arange(n) / 5.0
            duration = t[-1]
            wins = make_windows(t, np.zeros_like(t), CFG)
            if duration >= CFG.window_length:
                expected = math.floor((duration - CFG.window_length)
                                      / (CFG.window_length - CFG.overlap)) + 1
            else:
                expected = 0
            assert len(wins) == expected, f"duration={duration}"

    def test_zero_centering(self):
        t = _uniform_series(5.0)
        raw = 10.0 * np.arange(t.size)
        wins = make_windows(t, raw, CFG)
        assert len(wins) == 1
        assert wins[0].values.sum() == pytest.approx(0.0, abs=1e-6)

    def test_constant_heading_gives_zero_window(self):
        t = _uniform_series(5.0)
        wins = make_windows(t, np.full(t.size, 90.0), CFG)
        assert np.allclose(wins[0].values, 0.0, atol=1e-12)

    def test_translation_invariance(self):
        rng = np.random.default_rng(3)
        t = _uniform_series(20.0)
        v = rng.normal(0, 30, size=t.size)
        base = make_windows(t, v, CFG)
        shifted = make_windows(t, v + 123.456, CFG)
        for a, b in zip(base, shifted):
            assert np.allclose(a.values, b.values, atol=1e-9)

    def test_short_series_empty(self):
        t = _uniform_series(4.0)
        assert make_windows(t, np.zeros_like(t), CFG) == []

    def test_distance_annotations(self):
        t = _uniform_series(10.0)
        trace = DistanceTrace(t, 10.0 - t)  # decreasing 10 -> 0
        wins = make_windows(t, np.zeros_like(t), CFG, distance_trace=trace)
        assert wins[0].win_dist == pytest.approx(5.0)   # min over [0, 5]
        assert wins[-1].win_dist == pytest.approx(0.0)  # min over [5, 10]
        assert all(w.min_dist == pytest.approx(0.0) for w in wins)

    def test_labels_copied(self):
        t = _uniform_series(5.0)
        lab = FlightLabels("f", "unsafe", "uncertain")
        wins = make_windows(t, np.zeros_like(t), CFG, labels=lab, flight_id="f")
        assert wins[0].safety == "unsafe" and wins[0].certainty == "uncertain"

    def test_values_are_read_only_rows_of_one_matrix(self):
        t = _uniform_series(20.0)
        wins = make_windows(t, np.sin(t), CFG)
        base = wins[0].values.base
        assert base is not None and base.shape == (len(wins), 25)
        assert all(w.values.base is base and not w.values.flags.writeable for w in wins)
        assert not base.flags.writeable

    def test_non_finite_timestamps_are_error(self):
        t = _uniform_series(10.0)
        t[-1] = math.inf
        with pytest.raises(ValueError, match="finite"):
            make_windows(t, np.zeros_like(t), CFG)

    @settings(max_examples=150, deadline=None)
    # a 300 s flight at the default geometry, its trace on another clock
    @example(w=25, rate=5.0, overlap_frac=0.5, duration=300.0, t0=0.0,
             trace=(0.1, 300.0, 1501), seed=0)
    # a 2-sample trace that ends before the series starts
    @example(w=8, rate=4.0, overlap_frac=0.3, duration=37.3, t0=12.5,
             trace=(-30.0, 1.0, 2), seed=1)
    # a trace that starts after the series ends
    @example(w=4, rate=2.0, overlap_frac=0.75, duration=9.9, t0=-3.0,
             trace=(40.0, 5.0, 7), seed=2)
    @given(w=st.integers(4, 30), rate=st.sampled_from([1.0, 2.0, 2.5, 4.0, 5.0, 10.0, 20.0]),
           overlap_frac=st.floats(0.05, 0.95), duration=st.floats(0.0, 120.0),
           t0=st.floats(-500.0, 500.0),
           trace=st.none() | st.tuples(st.floats(-60.0, 160.0), st.floats(0.0, 200.0),
                                       st.integers(2, 400)),
           seed=st.integers(0, 2 ** 16))
    def test_equals_loop_oracle_bit_for_bit(self, w, rate, overlap_frac, duration, t0,
                                            trace, seed):
        # durations off the stride grid, non-zero starts, traces of any span
        length = w / rate
        config = PreprocessConfig(window_length=length, overlap=overlap_frac * length,
                                  sample_rate=rate)
        rng = np.random.default_rng(seed)
        grid, headings = resample_uniform([t0, t0 + duration], [0.0, 0.0], rate)
        headings = np.cumsum(rng.normal(0.0, 20.0, grid.size))
        distance_trace = None
        if trace is not None:
            offset, span, n = trace
            distance_trace = DistanceTrace(t0 + offset + np.linspace(0.0, span + 0.01, n),
                                           rng.uniform(0.0, 10.0, n))
        labels = FlightLabels("f", "safe", "uncertain") if seed % 2 else None
        got = make_windows(grid, headings, config, distance_trace=distance_trace,
                           labels=labels, flight_id="f")
        want = make_windows_loop(grid, headings, config, distance_trace=distance_trace,
                                 labels=labels, flight_id="f")
        assert [_window_bits(x) for x in got] == [_window_bits(x) for x in want]
        assert all(type(x.start) is float and type(x.win_dist) is float for x in got)


def filter_nominal(windows, distance_trace, config):
    """Exact nominal filter, the oracle for ``filter_nominal_from_windows``:
    keep windows whose obstacle distance stays above the nominal threshold for
    the window plus the look-ahead horizon (truncated at flight end), read
    straight off the distance trace.  Without a trace every window is kept."""
    if distance_trace is None:
        return list(windows)
    return [w for w in windows
            if distance_trace.range_min(w.start, w.end + config.nominal_lookahead)
            > config.nominal_distance]


class TestFilterNominal:
    def _windows(self, t, d=None):
        trace = None if d is None else DistanceTrace(t, d)
        return make_windows(t, np.zeros_like(t), CFG, distance_trace=trace)

    def test_constant_far_distance_keeps_all(self):
        t = _uniform_series(60.0)
        wins = self._windows(t, np.full(t.size, 5.0))
        assert len(filter_nominal_from_windows(wins, CFG)) == len(wins)

    def test_dip_within_lookahead_excludes(self):
        t = _uniform_series(120.0)
        dip_t = 5.0 + 20.0  # 20 s past the end of window 0, [0, 5]
        d = np.full(t.size, 5.0)
        d[np.abs(t - dip_t) < 0.3] = 2.9
        wins = self._windows(t, d)
        excluded = filter_nominal_from_windows(wins, CFG)
        assert wins[0].index not in [x.index for x in excluded]

    def test_dip_beyond_lookahead_keeps(self):
        t = _uniform_series(120.0)
        dip_t = 5.0 + 60.0
        d = np.full(t.size, 5.0)
        d[np.abs(t - dip_t) < 0.3] = 2.9
        wins = self._windows(t, d)
        kept = filter_nominal_from_windows(wins, CFG)
        assert [x.index for x in kept if x.index == wins[0].index] == [wins[0].index]
        # the windows that do see the dip are dropped
        assert len(kept) < len(wins)

    def test_monotone_in_threshold(self):
        rng = np.random.default_rng(8)
        t = _uniform_series(100.0)
        d = 3.0 + 2.0 * np.abs(np.sin(t / 7.0)) + rng.uniform(0, 0.5, t.size)
        wins = self._windows(t, d)
        sizes = []
        for thresh in (2.0, 3.0, 4.0, 5.0):
            cfg = PreprocessConfig(nominal_distance=thresh)
            sizes.append(len(filter_nominal_from_windows(wins, cfg)))
        assert sizes == sorted(sizes, reverse=True)

    def test_no_trace_keeps_all(self):
        wins = self._windows(_uniform_series(60.0))
        assert filter_nominal_from_windows(wins, CFG) == list(wins)

    def test_window_based_filter_agrees_on_smooth_traces(self):
        # conservative window-derived filter matches the exact one away from
        # horizon-edge dips
        t = _uniform_series(200.0)
        d = 5.0 + 3.0 * np.sin(t / 20.0)  # dips to 2 periodically
        wins = make_windows(t, np.zeros_like(t), CFG, distance_trace=DistanceTrace(t, d),
                            flight_id="f")
        exact = {w.index for w in filter_nominal(wins, DistanceTrace(t, d), CFG)}
        approx = {w.index for w in filter_nominal_from_windows(wins, CFG)}
        assert approx <= exact
        # and differences only at the lookahead horizon edge
        for idx in exact - approx:
            assert any(abs(w.start - (wi.end + CFG.nominal_lookahead)) <= CFG.window_length
                       for w in wins for wi in wins if wi.index == idx)

    @settings(max_examples=60, deadline=None)
    # a dip after the last window, [55, 60], of a 61 s series
    @example(duration=61.0, extra=0.0, dips=[(60.6, 1.0)])
    @given(duration=st.floats(5.0, 120.0), extra=st.floats(0.0, 60.0),
           dips=st.lists(st.tuples(st.floats(0.0, 180.0), st.floats(0.0, 5.0)),
                         max_size=3))
    def test_kept_windows_are_a_subset_of_the_exact_filter(self, duration, extra, dips):
        # series lengths off the stride grid, traces that run past the last window
        t = _uniform_series(duration)
        t_trace = _uniform_series(duration + extra)
        d = np.full(t_trace.size, 5.0)
        for dip_t, depth in dips:
            d[np.abs(t_trace - dip_t) < 0.3] = depth
        trace = DistanceTrace(t_trace, d)
        wins = make_windows(t, np.zeros_like(t), CFG, distance_trace=trace, flight_id="f")
        exact = {w.index for w in filter_nominal(wins, trace, CFG)}
        assert {w.index for w in filter_nominal_from_windows(wins, CFG)} <= exact


@pytest.fixture(scope="module")
def offset_flights():
    return [flight for seed in (3, 14, 27)
            for flight in generate(SynthConfig(seed=seed, flight_duration=120.0),
                                   {"certain_safe": 1, "uncertain_safe": 1}).flights]


class TestHeadingOffsetInvariance:
    @settings(max_examples=25, deadline=None)
    @given(pick=st.integers(0, 5), offset=st.floats(-360.0, 360.0))
    def test_offset_leaves_windows_and_losses_unchanged(self, offset_flights, pick, offset):
        safe = offset_flights[pick].log.channel("safe")
        model = AutoencoderModel(input_length=25, seed=1)
        det_config = DetectorConfig(threshold=0.05, n_consecutive=4)
        runs = []
        for headings in (safe["r"], wrap_heading(safe["r"] + offset)):
            grid, series = resample_uniform(safe["timestamp"], unwrap_heading(headings),
                                            CFG.sample_rate)
            wins = make_windows(grid, series, CFG, flight_id="f")
            runs.append((wins, detect_stream(model, wins, det_config)))
        (base, base_report), (moved, moved_report) = runs
        assert len(moved) == len(base) > 0
        for a, b in zip(base, moved):
            np.testing.assert_allclose(b.values, a.values, rtol=0, atol=1e-9)
        np.testing.assert_allclose(moved_report.losses, base_report.losses, rtol=0, atol=1e-9)


class TestWindowsCsv:
    def test_round_trip(self):
        t = _uniform_series(10.0)
        rng = np.random.default_rng(0)
        trace = DistanceTrace(t, rng.uniform(1, 8, t.size))
        wins = make_windows(t, rng.normal(0, 20, t.size), CFG,
                            distance_trace=trace,
                            labels=FlightLabels("f1", "safe", "uncertain"),
                            flight_id="f1")
        buf = io.StringIO()
        write_windows_csv(wins, buf)
        again = read_windows_csv(io.StringIO(buf.getvalue()))
        assert len(again) == len(wins)
        for a, b in zip(wins, again):
            assert a.flight_id == b.flight_id and a.index == b.index
            assert a.start == b.start and a.end == b.end
            assert a.win_dist == b.win_dist and a.min_dist == b.min_dist
            assert a.safety == b.safety and a.certainty == b.certainty
            assert np.array_equal(a.values, b.values)

    def test_header_records_w(self):
        t = _uniform_series(5.0)
        wins = make_windows(t, np.zeros_like(t), CFG)
        buf = io.StringIO()
        write_windows_csv(wins, buf)
        header = buf.getvalue().splitlines()[0].split(",")
        assert header[8:] == [f"v{k}" for k in range(25)]

    def test_infinite_distances_round_trip(self):
        w = HeadingWindow("f", 0, 0.0, 5.0, np.zeros(25))
        buf = io.StringIO()
        write_windows_csv([w], buf)
        again = read_windows_csv(io.StringIO(buf.getvalue()))
        assert math.isinf(again[0].win_dist) and math.isinf(again[0].min_dist)

    def test_empty_needs_window_samples(self):
        buf = io.StringIO()
        with pytest.raises(ValueError):
            write_windows_csv([], buf)
        write_windows_csv([], buf, window_samples=25)
        assert read_windows_csv(io.StringIO(buf.getvalue())) == []

    def test_header_check(self):
        header = ["flight_id", "index", "start_s", "end_s", "win_dist_m",
                  "min_dist_m", "safety", "certainty", "v0", "v1", "v2", "v3"]
        assert windows_csv_width(header) == 4
        for bad in (header[1:], header[:8] + ["x0"], None):
            with pytest.raises(ValueError):
                windows_csv_width(bad)

    def test_row_parse_errors(self):
        row = ["f", "0", "0.0", "5.0", "inf", "inf", "", "", "1", "2", "3", "4"]
        win = parse_window_row(row, 4)
        assert win.safety is None and list(win.values) == [1.0, 2.0, 3.0, 4.0]
        with pytest.raises(ValueError, match="expected 12 fields, got 11"):
            parse_window_row(row[:-1], 4)
        with pytest.raises(ValueError, match="expected 12 fields, got 13"):
            parse_window_row(row + ["5"], 4)
        with pytest.raises(ValueError):
            parse_window_row(row[:8] + ["1", "x", "3", "4"], 4)
        with pytest.raises(ValueError, match="^empty flight_id$"):
            parse_window_row([""] + row[1:], 4)
        for win_dist, min_dist in (("nan", "inf"), ("inf", "nan"), ("-1.0", "0.0"),
                                   ("2.0", "-inf"), ("-0.5", "nan")):
            with pytest.raises(ValueError, match=r"^win_dist_m and min_dist_m must be >= 0, "
                                                 rf"got {win_dist} and {min_dist}$"):
                parse_window_row(row[:4] + [win_dist, min_dist] + row[6:], 4)
        win = parse_window_row(row[:4] + ["0.0", "-0.0"] + row[6:], 4)
        assert (win.win_dist, win.min_dist) == (0.0, 0.0)
        assert parse_window_row(row, 4, window_length=5.0 + 5e-10).end == 5.0
        with pytest.raises(ValueError, match=r"^window spans 5.0 s, expected 2.5 s$"):
            parse_window_row(row, 4, window_length=2.5)


    def test_read_error_names_the_file_line(self):
        t = _uniform_series(60.0)
        wins = make_windows(t, np.zeros_like(t), CFG, flight_id="f")
        buf = io.StringIO()
        write_windows_csv(wins, buf)
        lines = buf.getvalue().splitlines()
        lines.insert(5, "")  # a blank line shifts every later row down one line
        lines[20] = lines[20].rsplit(",", 3)[0]
        with pytest.raises(ValueError, match=r"^line 21: expected 33 fields, got 30$"):
            read_windows_csv(io.StringIO("\n".join(lines) + "\n"))


def _window_lines():
    """A valid windowed dataset of two flights, three windows each, as lines."""
    t = _uniform_series(10.0)
    trace = DistanceTrace(t, np.linspace(2.0, 9.0, t.size))
    wins = [w for fid in ("a", "b") for w in make_windows(
        t, np.linspace(0.0, 30.0, t.size), CFG, distance_trace=trace, flight_id=fid)]
    buf = io.StringIO()
    write_windows_csv(wins, buf)
    return buf.getvalue().splitlines()


# another type, a number that is not finite, or an empty value; never a comma
_ROW_TOKENS = st.one_of(st.sampled_from(["", "nan", "inf", "-inf", "NaN", "1e400", "abc"]),
                        st.text("ab019.e-+ ", max_size=4))


@st.composite
def window_row_mutations(draw):
    """``(line, field, token)``: drop field ``field`` of file line ``line`` of a
    windowed dataset of six 25-sample rows (token None), or replace it with ``token``."""
    return (draw(st.integers(2, 7)), draw(st.integers(0, 8 + 25 - 1)),
            draw(st.one_of(st.none(), _ROW_TOKENS)))


def mutated_lines(lines, mutation):
    line, field, token = mutation
    row = lines[line - 1].split(",")
    if token is None:
        del row[field]
    else:
        row[field] = token
    return lines[:line - 1] + [",".join(row)] + lines[line:]


class TestWindowsCsvProperty:
    @settings(max_examples=300, deadline=None)
    @given(mutation=window_row_mutations())
    @example(mutation=(3, 0, ""))
    @example(mutation=(4, 4, "nan"))
    def test_one_mutation_gives_valid_windows_or_names_the_line(self, mutation):
        lines = mutated_lines(_window_lines(), mutation)
        try:
            windows = read_windows_csv(io.StringIO("\n".join(lines) + "\n"), 5.0)
        except ValueError as exc:
            assert str(exc).startswith(f"line {mutation[0]}: ")
            return
        assert len(windows) == 6
        for w in windows:
            assert w.flight_id and type(w.index) is int and w.values.shape == (25,)
            assert math.isfinite(w.start) and abs(w.end - w.start - 5.0) <= _EPS
            assert w.win_dist >= 0 and w.min_dist >= 0


def _two_flights(config):
    t = _uniform_series(30.0, rate=config.sample_rate)
    rng = np.random.default_rng(3)
    return [w for fid in ("a", "b")
            for w in make_windows(t, rng.normal(0, 10, t.size), config, flight_id=fid)]


class TestConfigFromWindows:
    @pytest.mark.parametrize("config", [
        PreprocessConfig(),
        PreprocessConfig(window_length=4.0, overlap=1.0, sample_rate=2.0),
        PreprocessConfig(window_length=3.0, overlap=2.9, sample_rate=10.0),
    ])
    def test_round_trips_through_windows_csv(self, config):
        buf = io.StringIO()
        write_windows_csv(_two_flights(config), buf)
        got = config_from_windows(read_windows_csv(io.StringIO(buf.getvalue())),
                                  nominal_distance=1.5, nominal_lookahead=20.0)
        assert got.window_samples == config.window_samples
        assert got.window_length == pytest.approx(config.window_length, abs=1e-9)
        assert got.overlap == pytest.approx(config.overlap, abs=1e-9)
        assert got.sample_rate == pytest.approx(config.sample_rate, abs=1e-9)
        assert (got.nominal_distance, got.nominal_lookahead) == (1.5, 20.0)

    def test_inconsistent_stride_is_error(self):
        wins = _two_flights(CFG)
        late = wins[3]
        wins[3] = HeadingWindow(late.flight_id, late.index, late.start + 0.2,
                                late.end + 0.2, late.values)
        with pytest.raises(ValueError, match="inconsistent window stride"):
            config_from_windows(wins)

    def test_no_adjacent_pair_is_error(self):
        wins = _two_flights(CFG)
        for lonely in ([], wins[:1], wins[::2], [wins[0], wins[-1]]):
            with pytest.raises(ValueError, match="stride"):
                config_from_windows(lonely)


class TestAttachLabels:
    def test_attach(self):
        # labels reach the windows through preprocess_flight
        rows = "".join(f"{k / 5},safe,0,0,0,10\n" for k in range(31))
        log = parse_flight_log(io.StringIO("timestamp_s,channel,x,y,z,r_deg\n" + rows),
                               flight_id="f1")
        out, _ = preprocess_flight(log, CFG, labels=FlightLabels("f1", "unsafe", "certain"))
        assert out and all(w.safety == "unsafe" and w.certainty == "certain" for w in out)
        out2, _ = preprocess_flight(log, CFG)
        assert out2[0].safety is None and out2[0].certainty is None


class TestConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            PreprocessConfig(overlap=5.0)  # overlap == window_length
        with pytest.raises(ValueError):
            PreprocessConfig(overlap=0.0)
        with pytest.raises(ValueError):
            PreprocessConfig(sample_rate=0.5)  # W = 2.5 not integral
        assert PreprocessConfig().window_samples == 25
        assert PreprocessConfig(sample_rate=4.0, window_length=2.0, overlap=1.0) \
            .window_samples == 8

    @pytest.mark.parametrize("field, value", [
        ("sample_rate", math.inf), ("sample_rate", math.nan), ("window_length", math.inf),
        ("nominal_distance", math.nan), ("nominal_lookahead", math.nan)])
    def test_value_that_is_not_a_number_in_range_is_rejected(self, field, value):
        with pytest.raises(ValueError):
            PreprocessConfig(**{field: value})
