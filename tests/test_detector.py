import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flightwatch.autoenc import AutoencoderModel, mse_loss
from flightwatch.detector import (
    AlarmEvent,
    DetectionReport,
    DetectorConfig,
    StreamDetector,
    alarms_csv,
    calibrate_threshold,
    detect_stream,
    lead_time_analysis,
    read_report,
    report_to_dict,
    write_report,
)
from flightwatch.evalstats import ConfusionMatrix, dataset_report
from flightwatch.flightdata import FlightLabels
from flightwatch.geometry import DistanceTrace
from flightwatch.preprocess import HeadingWindow


class _FixedLossModel:
    """Stand-in scoring model: window values are constant arrays whose value v
    reconstructs to zero, so the per-window MSE loss equals v**2."""

    input_length = 25

    def reconstruction_losses(self, windows):
        # windows or a window matrix, any number of them, as AutoencoderModel takes
        x = np.array([getattr(w, "values", w) for w in windows], dtype=float)
        return np.mean(x.reshape(-1, self.input_length) ** 2, axis=1)


def _windows_from_losses(losses, flight_id="f"):
    wins = []
    for i, loss in enumerate(losses):
        value = math.sqrt(loss)
        wins.append(HeadingWindow(flight_id, i, 2.5 * i, 2.5 * i + 5.0,
                                  np.full(25, value)))
    return wins


def _detect(losses, threshold=0.3, n=4):
    config = DetectorConfig(threshold=threshold, n_consecutive=n)
    return detect_stream(_FixedLossModel(), _windows_from_losses(losses), config)


class TestCalibrate:
    def test_quantile_one_is_max(self):
        rng = np.random.default_rng(0)
        losses = rng.uniform(0.0, 0.4, size=1000)
        result = calibrate_threshold(losses, quantile=1.0)
        assert result["suggested_threshold"] == losses.max()

    def test_all_equal(self):
        result = calibrate_threshold(np.full(100, 0.05), quantile=0.37)
        assert result["suggested_threshold"] == pytest.approx(0.05)

    def test_long_tailed_histogram_puts_threshold_in_band(self):
        # most mass below 0.05, a thin tail up to 0.4: the 0.999 quantile
        # lands in [0.2, 0.4], bracketing the hand-tuned default of 0.3
        rng = np.random.default_rng(1)
        losses = np.concatenate([
            rng.uniform(0.0, 0.05, size=20000),
            rng.uniform(0.05, 0.2, size=150),
            rng.uniform(0.2, 0.4, size=40),
        ])
        result = calibrate_threshold(losses, quantile=0.999)
        assert 0.2 <= result["suggested_threshold"] <= 0.4
        assert DetectorConfig().threshold == 0.3

    def test_histogram_has_requested_bins(self):
        rows = calibrate_threshold(np.linspace(0, 1, 500), bins=50)["histogram"]
        assert len(rows) == 50
        edges = [r[0] for r in rows] + [rows[-1][1]]
        assert edges == np.linspace(0, 1, 51).tolist()
        assert all(r[1] == s[0] for r, s in zip(rows, rows[1:]))
        assert sum(r[2] for r in rows) == 500
        assert all(r[3] is None or r[3] == math.log10(r[2]) for r in rows)

    def test_empty_is_error(self):
        with pytest.raises(ValueError):
            calibrate_threshold([])

    def test_non_finite_losses_are_error(self):
        with pytest.raises(ValueError, match="^2 of 4 calibration losses are not finite$"):
            calibrate_threshold([0.1, math.nan, math.inf, 0.2])

    def test_linear_interpolated_quantile(self):
        losses = np.arange(1, 101, dtype=float)  # 1..100
        result = calibrate_threshold(losses, quantile=0.5)
        assert result["suggested_threshold"] == pytest.approx(np.quantile(losses, 0.5))


class TestDetectStream:
    def test_rolling_mean_alarm(self):
        report = _detect([0.1, 0.2, 0.5, 0.6])
        assert len(report.alarms) == 1
        alarm = report.alarms[0]
        assert alarm.window_index == 3
        assert alarm.rolling_mean_loss == pytest.approx(0.35)
        assert alarm.timestamp == pytest.approx(3 * 2.5 + 5.0)
        assert report.flight_uncertain

    def test_quiet_flight(self):
        report = _detect([0.05] * 30)
        assert report.alarms == ()
        assert not report.flight_uncertain
        assert report_to_dict(report)["first_alarm_time_s"] is None

    def test_single_spike_suppressed(self):
        # one maneuver-like spike is averaged away
        report = _detect([0.05, 0.9, 0.05, 0.05])
        assert report.alarms == ()

    def test_no_alarm_during_warmup(self):
        report = _detect([9.9, 9.9, 9.9], n=4)
        assert report.alarms == ()
        report = _detect([9.9, 9.9, 9.9, 9.9], n=4)
        assert len(report.alarms) == 1

    def test_causality_prefix_invariance(self):
        rng = np.random.default_rng(4)
        losses = list(rng.uniform(0.0, 0.6, size=40))
        full = _detect(losses)
        for cut in (4, 17, 33):
            partial = _detect(losses[:cut])
            full_prefix = [a for a in full.alarms if a.window_index < cut]
            assert [a.window_index for a in partial.alarms] \
                == [a.window_index for a in full_prefix]

    def test_threshold_monotonicity(self):
        rng = np.random.default_rng(5)
        losses = list(rng.uniform(0.0, 0.7, size=60))
        low = {a.window_index for a in _detect(losses, threshold=0.25).alarms}
        high = {a.window_index for a in _detect(losses, threshold=0.4).alarms}
        assert high <= low

    def test_out_of_order_index_is_error(self):
        config = DetectorConfig()
        det = StreamDetector(_FixedLossModel(), config)
        wins = _windows_from_losses([0.1, 0.1])
        det.update(wins[1])
        with pytest.raises(ValueError, match="out-of-order"):
            det.update(wins[0])

    def test_window_of_another_flight_is_error(self):
        config = DetectorConfig()
        a = _windows_from_losses([0.1], flight_id="a")[0]
        b = _windows_from_losses([0.1, 0.1], flight_id="b")[1]
        with pytest.raises(ValueError, match="'b'.*'a'"):
            detect_stream(_FixedLossModel(), [a, b], config)
        det = StreamDetector(_FixedLossModel(), config, "a")
        with pytest.raises(ValueError, match="'b'.*'a'"):
            det.update(b)
        assert det.report().window_indices == ()

    def test_losses_recorded_per_window(self):
        report = _detect([0.01, 0.04, 0.09])
        assert list(report.losses) == pytest.approx([0.01, 0.04, 0.09])
        assert list(report.window_indices) == [0, 1, 2]

    def test_nan_losses_do_not_suppress_alarms(self):
        losses = [322.0] * 10
        clean = _detect(losses, threshold=19.6, n=4)
        assert len(clean.alarms) == 7
        for i in (1, 4, 7, 9):
            losses[i] = math.nan
        poisoned = _detect(losses, threshold=19.6, n=4)
        assert [a.window_index for a in poisoned.alarms] \
            == [a.window_index for a in clean.alarms]


_LOSS = st.floats(min_value=0.0, max_value=1.0)
_BAD = st.sampled_from([math.nan, math.inf])


class TestNonFiniteProperties:
    @settings(max_examples=60, deadline=None)
    @given(losses=st.lists(_LOSS, min_size=1, max_size=20), data=st.data())
    def test_non_finite_never_lowers_alarm_count(self, losses, data):
        hit = data.draw(st.sets(st.integers(0, len(losses) - 1)))
        poisoned = [data.draw(_BAD) if i in hit else v for i, v in enumerate(losses)]
        assert len(_detect(poisoned).alarms) >= len(_detect(losses).alarms)

    @settings(max_examples=60, deadline=None)
    @given(losses=st.lists(st.one_of(_LOSS, _BAD), max_size=20),
           n=st.integers(1, 5))
    def test_stream_detector_equals_detect_stream(self, losses, n):
        config = DetectorConfig(threshold=0.3, n_consecutive=n)
        wins = _windows_from_losses(losses)
        det = StreamDetector(_FixedLossModel(), config)
        alarms = [det.update(w) for w in wins]
        report = detect_stream(_FixedLossModel(), wins, config)
        # repr compares NaN losses too
        assert repr(det.report()) == repr(report)
        assert repr([a for a in alarms if a is not None]) == repr(list(report.alarms))


def _doc(flight_id, alarms=(), **keys):
    """The report document of a flight with these alarms, other keys overridden."""
    return {**report_to_dict(DetectionReport(flight_id, alarms=tuple(alarms))), **keys}


class TestLeadTime:
    def _report_with_alarm(self, t_alarm):
        alarm = AlarmEvent(window_index=10, timestamp=t_alarm, loss=1.0,
                           rolling_mean_loss=0.9)
        return _doc("f", [alarm])

    def test_alarm_long_before_crossing(self):
        # alarm at 90 s, first sub-1m sample at 300 s -> 210 s of lead
        t = np.arange(0.0, 400.0, 0.2)
        d = np.where(t < 300.0, 5.0, 0.8)
        trace = DistanceTrace(t, d)
        doc = self._report_with_alarm(90.0)
        report = lead_time_analysis(doc, trace, DetectorConfig())
        assert report["lead_time_s"] == pytest.approx(210.0)
        assert report["distance_at_first_alarm_m"] == pytest.approx(5.0)
        # the document given is left as it was
        assert doc["lead_time_s"] is None and doc["distance_at_first_alarm_m"] is None
        assert report == {**doc, "lead_time_s": report["lead_time_s"],
                          "distance_at_first_alarm_m": report["distance_at_first_alarm_m"]}

    def test_no_alarm_leaves_fields_absent(self):
        report = _doc("f")
        trace = DistanceTrace(np.array([0.0, 1.0]), np.array([5.0, 0.5]))
        out = lead_time_analysis(report, trace, DetectorConfig())
        assert out["lead_time_s"] is None and out["distance_at_first_alarm_m"] is None

    def test_no_crossing_leaves_lead_time_absent(self):
        trace = DistanceTrace(np.array([0.0, 100.0]), np.array([5.0, 5.0]))
        out = lead_time_analysis(self._report_with_alarm(10.0), trace,
                                 DetectorConfig())
        assert out["lead_time_s"] is None
        assert out["distance_at_first_alarm_m"] == pytest.approx(5.0)

    def test_late_alarm_negative_lead_time(self):
        t = np.arange(0.0, 100.0, 0.2)
        d = np.where(t < 50.0, 5.0, 0.8)
        trace = DistanceTrace(t, d)
        out = lead_time_analysis(self._report_with_alarm(70.0), trace,
                                 DetectorConfig())
        assert out["lead_time_s"] == pytest.approx(-20.0)

    def test_nearest_sample_distance(self):
        trace = DistanceTrace(np.array([0.0, 1.0, 2.0]), np.array([9.0, 4.0, 0.5]))
        out = lead_time_analysis(self._report_with_alarm(1.2), trace,
                                 DetectorConfig())
        assert out["distance_at_first_alarm_m"] == 4.0


class TestVerdicts:
    """Any alarm flags a flight; evaluation scores that one bit on both axes."""

    def _labels(self, *pairs):
        return {f"f{i}": FlightLabels(f"f{i}", s, c)
                for i, (s, c) in enumerate(pairs)}

    def test_any_alarm_rule(self):
        labels = self._labels(("safe", "uncertain"), ("safe", "certain"))
        alarm = AlarmEvent(0, 5.0, 1.0, 0.9)
        reports = [_doc("f0", [alarm]), _doc("f1")]
        doc = dataset_report(reports, labels)
        f0, f1 = doc["per_flight"]
        assert f0["predicted_uncertain"] and not f1["predicted_uncertain"]
        axes = doc["ground_truth"]
        assert ConfusionMatrix(**axes["certainty"]["confusion"]) == ConfusionMatrix(
            tp=1, fp=0, fn=0, tn=1)
        assert ConfusionMatrix(**axes["safety"]["confusion"]) == ConfusionMatrix(
            tp=0, fp=1, fn=0, tn=1)

    def test_missing_report_is_error(self):
        labels = self._labels(("safe", "certain"), ("unsafe", "uncertain"))
        with pytest.raises(ValueError, match="f1"):
            dataset_report([_doc("f0")], labels)

    def test_duplicate_report_is_error(self):
        # a second report for f0 must not hide behind the first in the counts
        labels = self._labels(("unsafe", "uncertain"))
        alarm = AlarmEvent(0, 5.0, 1.0, 0.9)
        reports = [_doc("f0", [alarm], lead_time_s=10.0), _doc("f0")]
        with pytest.raises(ValueError, match=r"duplicate flight ids: \['f0'\]"):
            dataset_report(reports, labels)

    def test_missing_label_is_error(self):
        labels = self._labels(("safe", "certain"))
        with pytest.raises(ValueError, match="extra"):
            dataset_report([_doc("f0"), _doc("extra")], labels)


def _keys_sorted(obj):
    """``obj`` with the keys of every dict in it sorted, as a JSON file holds them."""
    if isinstance(obj, dict):
        return {k: _keys_sorted(obj[k]) for k in sorted(obj)}
    if isinstance(obj, list):
        return list(map(_keys_sorted, obj))
    return obj


_FLOAT = st.floats(allow_nan=True, allow_infinity=True)
_ALARM = st.builds(AlarmEvent, st.integers(-2**63, 2**63 - 1), _FLOAT, _FLOAT, _FLOAT)


class TestReportIo:
    def test_round_trip(self, tmp_path):
        alarm = AlarmEvent(3, 12.5, 0.55, 0.4)
        report = DetectionReport(
            flight_id="f9", window_indices=(0, 1, 2, 3), window_times=(5.0, 7.5, 10.0, 12.5),
            losses=(0.1, 0.2, 0.3, 0.55), alarms=(alarm,))
        doc = {**report_to_dict(report), "lead_time_s": 33.0, "distance_at_first_alarm_m": 3.4}
        path = tmp_path / "f9.json"
        write_report(doc, path)
        again = read_report(path)
        assert again == doc
        assert again["windows"][3] == {"index": 3, "timestamp_s": 12.5, "loss": 0.55}
        assert again["alarms"] == [{"window_index": 3, "timestamp_s": 12.5, "loss": 0.55,
                                    "rolling_mean_loss": 0.4}]
        assert (again["flight_uncertain"], again["first_alarm_time_s"]) == (True, 12.5)

    def test_dict_round_trip_absent_fields(self, tmp_path):
        doc = report_to_dict(DetectionReport(flight_id="f0"))
        assert doc == {"flight_id": "f0", "windows": [], "alarms": [],
                       "flight_uncertain": False, "first_alarm_time_s": None,
                       "lead_time_s": None, "distance_at_first_alarm_m": None}
        write_report(doc, tmp_path / "f0.json")
        assert read_report(tmp_path / "f0.json") == doc

    @settings(max_examples=60, deadline=None)
    @given(flight_id=st.text(), losses=st.lists(_FLOAT, max_size=6),
           alarms=st.lists(_ALARM, max_size=3),
           lead=st.one_of(st.none(), _FLOAT), distance=st.one_of(st.none(), _FLOAT))
    def test_write_then_read_gives_the_document(self, tmp_path_factory, flight_id,
                                                losses, alarms, lead, distance):
        report = DetectionReport(flight_id, tuple(range(len(losses))),
                                 tuple(2.5 * i + 5.0 for i in range(len(losses))),
                                 tuple(losses), tuple(alarms))
        doc = {**report_to_dict(report), "lead_time_s": lead,
               "distance_at_first_alarm_m": distance}
        path = tmp_path_factory.mktemp("io") / "r.json"
        write_report(doc, path)
        # repr compares NaN losses too
        assert repr(read_report(path)) == repr(_keys_sorted(doc))

    @pytest.mark.parametrize("edit, fault", [
        (lambda d: [d], "a JSON list, not an object"),
        (lambda d: "report", "a JSON str, not an object"),
        (lambda d: {k: v for k, v in d.items() if k != "lead_time_s"}, "no key 'lead_time_s'"),
        (lambda d: {**d, "windows": {}},
         "'windows' is not a list of objects with keys index, timestamp_s, loss"),
        (lambda d: {**d, "windows": [[0, 5.0, 0.1]]},
         "'windows' is not a list of objects with keys index, timestamp_s, loss"),
        (lambda d: {**d, "alarms": [{"window_index": 3}]},
         "'alarms' is not a list of objects with keys window_index, timestamp_s, loss, "
         "rolling_mean_loss"),
        (lambda d: {**d, "flight_id": 9}, "'flight_id' is not a string"),
        (lambda d: {**d, "flight_uncertain": "yes"},
         "'flight_uncertain' is not whether 'alarms' holds any"),
        (lambda d: {**d, "flight_uncertain": False},
         "'flight_uncertain' is not whether 'alarms' holds any"),
        (lambda d: {**d, "first_alarm_time_s": "12.5"},
         "'first_alarm_time_s' is not a number or null"),
        (lambda d: {**d, "lead_time_s": "soon"}, "'lead_time_s' is not a number or null"),
        (lambda d: {**d, "distance_at_first_alarm_m": True},
         "'distance_at_first_alarm_m' is not a number or null"),
    ])
    def test_read_rejects_what_is_not_a_report(self, tmp_path, edit, fault):
        doc = _doc("f", [AlarmEvent(3, 12.5, 0.55, 0.4)])
        path = tmp_path / "f.json"
        path.write_text(json.dumps(edit(doc)))
        with pytest.raises(ValueError) as info:
            read_report(path)
        assert str(info.value) == f"{path}: not a detection report ({fault})"

    @pytest.mark.parametrize("data, fault", [
        (b"not json", "JSONDecodeError: Expecting value: line 1 column 1 (char 0)"),
        (b'{"flight_id": "\xff"}', "UnicodeDecodeError: 'utf-8' codec can't decode byte "
                                    "0xff in position 15: invalid start byte"),
    ])
    def test_read_rejects_what_is_not_json(self, tmp_path, data, fault):
        path = tmp_path / "f.json"
        path.write_bytes(data)
        with pytest.raises(ValueError) as info:
            read_report(path)
        assert str(info.value) == f"{path}: not a detection report ({fault})"

    def test_alarms_csv_layout(self):
        alarm = AlarmEvent(3, 12.5, 0.55, 0.4)
        rep_a = _doc("b", [alarm])
        rep_b = _doc("a", [alarm, AlarmEvent(4, 15.0, 0.6, 0.5)])
        text = alarms_csv([rep_a, rep_b])
        lines = text.splitlines()
        assert lines[0] == "flight_id,window_index,timestamp_s,loss,rolling_mean"
        assert len(lines) == 4
        assert lines[1].startswith("a,3,")  # sorted by flight id
        assert lines[1:3] == ["a,3,12.5,0.55,0.4", "a,4,15.0,0.6,0.5"]


class TestConfigValidation:
    def test_detector_config(self):
        with pytest.raises(ValueError):
            DetectorConfig(threshold=0.0)
        with pytest.raises(ValueError):
            DetectorConfig(n_consecutive=0)
        with pytest.raises(ValueError):
            DetectorConfig(critical_distance=-1.0)
        config = DetectorConfig()
        assert (config.threshold, config.n_consecutive, config.critical_distance) \
            == (0.3, 4, 1.0)


class TestModelIntegration:
    def test_real_model_stream_matches_batch_losses(self):
        model = AutoencoderModel(input_length=25, seed=2)
        rng = np.random.default_rng(9)
        wins = [HeadingWindow("f", i, 2.5 * i, 2.5 * i + 5,
                              rng.normal(0, 5, size=25)) for i in range(12)]
        config = DetectorConfig(threshold=1e9)
        report = detect_stream(model, wins, config)
        batch = model.reconstruction_losses(wins)
        assert list(report.losses) == batch.tolist()

    def test_real_model_stream_equals_detect_stream_exactly(self):
        model = AutoencoderModel(input_length=25, seed=3)
        rng = np.random.default_rng(11)
        wins = [HeadingWindow("f", i, 2.5 * i, 2.5 * i + 5,
                              rng.normal(0, 5, size=25)) for i in range(40)]
        config = DetectorConfig(threshold=float(np.median(
            model.reconstruction_losses(wins))))
        det = StreamDetector(model, config, "f")
        for w in wins:
            det.update(w)
        report = detect_stream(model, wins, config, "f")
        assert report.alarms and len(report.alarms) < len(wins) - 3
        assert det.report().losses == report.losses
        assert det.report().alarms == report.alarms
        # one-row scoring gives the bits the forward-then-MSE path gave
        assert list(report.losses) == [
            mse_loss(w.values, model.forward(w.values)) for w in wins]

    def test_stream_report_files_are_byte_identical(self, tmp_path):
        model = AutoencoderModel(input_length=25, seed=4)
        rng = np.random.default_rng(12)
        wins = [HeadingWindow("f", i, 2.5 * i, 2.5 * i + 5,
                              rng.normal(0, 5, size=25)) for i in range(30)]
        config = DetectorConfig(threshold=float(np.median(
            model.reconstruction_losses(wins))))
        det = StreamDetector(model, config, "f")
        returned = [a for a in map(det.update, wins) if a is not None]
        # alarms are kept as numbers, not as event objects
        assert not any(isinstance(v, (list, tuple)) for v in vars(det).values())
        report = detect_stream(model, wins, config, "f")
        assert report.alarms and returned == list(report.alarms) == list(det.report().alarms)
        write_report(report_to_dict(det.report()), tmp_path / "stream.json")
        write_report(report_to_dict(report), tmp_path / "batch.json")
        assert (tmp_path / "stream.json").read_bytes() == (tmp_path / "batch.json").read_bytes()
        assert alarms_csv([report_to_dict(det.report())]) == alarms_csv([report_to_dict(report)])

    def test_config_from_model(self):
        model = AutoencoderModel(input_length=25, seed=0)
        model.threshold = 0.7
        model.n_consecutive = 6
        config = DetectorConfig.from_model(model)
        assert config.threshold == 0.7 and config.n_consecutive == 6
        override = DetectorConfig.from_model(model, threshold=0.2, n_consecutive=2)
        assert override.threshold == 0.2 and override.n_consecutive == 2
        model.threshold = None
        assert DetectorConfig.from_model(model).threshold == 0.3
