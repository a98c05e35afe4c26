import json

import numpy as np
import pytest
from scipy import stats as scipy_stats

from flightwatch.detector import AlarmEvent, DetectionReport, report_to_dict
from flightwatch.evalstats import (
    ConfusionMatrix,
    agreement_stats,
    agreement_stats_from_counts,
    confusion,
    dataset_report,
    metrics,
    normal_quantile,
    wilson,
    write_evaluation_json,
    write_evaluation_tables,
)
from flightwatch.flightdata import FlightLabels


def pct(x):
    return 100.0 * x


class TestNormalQuantile:
    def test_against_scipy(self):
        ps = np.concatenate([
            np.array([1e-12, 1e-8, 0.001, 0.02425, 0.5, 0.975, 0.999, 1 - 1e-9]),
            np.random.default_rng(0).uniform(1e-6, 1 - 1e-6, size=500),
        ])
        for p in ps:
            assert normal_quantile(float(p)) == pytest.approx(
                scipy_stats.norm.ppf(p), abs=1e-9, rel=1e-9)

    def test_z_for_95(self):
        z = normal_quantile((1 + 0.95) / 2)
        assert z == pytest.approx(1.959964, abs=1e-6)

    def test_domain(self):
        for bad in (0.0, 1.0, -0.1, 1.1):
            with pytest.raises(ValueError):
                normal_quantile(bad)


class TestWilson:
    def test_half_proportion_small_sample(self):
        iv = wilson(16, 32, 0.95)
        assert pct(iv["low"]) == pytest.approx(33.6, abs=0.1)
        assert pct(iv["high"]) == pytest.approx(66.4, abs=0.1)
        assert iv["point"] == pytest.approx(0.5)

    def test_high_proportion(self):
        iv = wilson(123, 138, 0.95)
        assert pct(iv["low"]) == pytest.approx(82.8, abs=0.1)
        assert pct(iv["high"]) == pytest.approx(93.3, abs=0.1)

    def test_all_successes_boundary(self):
        iv = wilson(20, 20, 0.95)
        assert iv["high"] == 1.0
        assert iv["low"] < 1.0

    def test_zero_successes_boundary(self):
        iv = wilson(0, 20, 0.95)
        assert iv["low"] == 0.0
        assert iv["high"] > 0.0

    def test_contains_empirical_proportion(self):
        rng = np.random.default_rng(2)
        for _ in range(300):
            n = int(rng.integers(1, 500))
            k = int(rng.integers(0, n + 1))
            iv = wilson(k, n)
            assert 0.0 <= iv["low"] <= iv["point"] == k / n <= iv["high"] <= 1.0

    def test_width_shrinks_with_n(self):
        widths = [wilson(k, n)["high"] - wilson(k, n)["low"]
                  for k, n in ((5, 10), (50, 100), (500, 1000), (5000, 10000))]
        assert widths == sorted(widths, reverse=True)

    def test_zero_trials_is_error(self):
        with pytest.raises(ValueError):
            wilson(0, 0)


class TestMetrics:
    def test_strong_detector_row(self):
        m = metrics(ConfusionMatrix(tp=155, fp=7, fn=11, tn=369))
        assert pct(m["precision"]) == pytest.approx(95.7, abs=0.1)
        assert pct(m["recall"]) == pytest.approx(93.4, abs=0.1)
        assert pct(m["accuracy"]) == pytest.approx(96.7, abs=0.1)
        assert pct(m["f1"]) == pytest.approx(94.5, abs=0.1)

    def test_weak_predictor_row(self):
        m = metrics(ConfusionMatrix(tp=13, fp=17, fn=12, tn=147))
        assert pct(m["precision"]) == pytest.approx(43.3, abs=0.1)
        assert pct(m["recall"]) == pytest.approx(52.0, abs=0.1)
        assert pct(m["accuracy"]) == pytest.approx(84.7, abs=0.1)
        assert pct(m["f1"]) == pytest.approx(47.3, abs=0.1)

    def test_degenerate_precision_absent(self):
        m = metrics(ConfusionMatrix(tp=0, fp=0, fn=3, tn=7))
        assert m["precision"] is None
        assert m["f1"] is None
        assert m["recall"] == 0.0

    def test_identities(self):
        rng = np.random.default_rng(3)
        for _ in range(200):
            cm = ConfusionMatrix(*(int(x) for x in rng.integers(0, 50, size=4)))
            if cm.total == 0:
                continue
            m = metrics(cm)
            assert m["accuracy"] == pytest.approx((cm.tp + cm.tn) / cm.total)
            if m["precision"] is not None and m["recall"] is not None \
                    and (m["precision"] + m["recall"]) > 0:
                harmonic = 2 * m["precision"] * m["recall"] / (m["precision"] + m["recall"])
                assert m["f1"] == pytest.approx(harmonic)

    def test_negative_counts_rejected(self):
        with pytest.raises(ValueError):
            ConfusionMatrix(-1, 0, 0, 0)


class TestConfusion:
    def test_counting(self):
        pred = {"a": True, "b": False, "c": True, "d": False}
        truth = {"a": True, "b": False, "c": False, "d": True}
        cm = confusion(pred, truth)
        assert (cm.tp, cm.fp, cm.fn, cm.tn) == (1, 1, 1, 1)

    def test_all_correct(self):
        pred = {f"f{i}": i < 4 for i in range(10)}
        cm = confusion(pred, dict(pred))
        assert (cm.tp, cm.fp, cm.fn, cm.tn) == (4, 0, 0, 6)

    def test_id_mismatch(self):
        with pytest.raises(ValueError, match="mismatch"):
            confusion({"a": True}, {"b": True})


class TestAgreement:
    def test_diverse_dataset_counts(self):
        stats = agreement_stats_from_counts(ConfusionMatrix(tp=16, fp=16, fn=9, tn=148))
        assert pct(stats["agreement_accuracy"]) == pytest.approx(86.8, abs=0.1)
        assert pct(stats["p_unsafe_given_uncertain"]["point"]) == pytest.approx(50.0, abs=0.1)
        assert pct(stats["p_uncertain_given_unsafe"]["point"]) == pytest.approx(64.0, abs=0.1)

    def test_larger_dataset_counts(self):
        stats = agreement_stats_from_counts(ConfusionMatrix(tp=123, fp=43, fn=15, tn=361))
        assert pct(stats["agreement_accuracy"]) == pytest.approx(89.3, abs=0.1)
        assert pct(stats["p_unsafe_given_uncertain"]["point"]) == pytest.approx(74.1, abs=0.1)
        assert pct(stats["p_uncertain_given_unsafe"]["point"]) == pytest.approx(89.1, abs=0.1)

    def test_all_safe_certain(self):
        stats = agreement_stats_from_counts(ConfusionMatrix(tp=0, fp=0, fn=0, tn=25))
        assert stats["agreement_accuracy"] == 1.0
        assert stats["p_unsafe_given_uncertain"] is None
        assert stats["p_uncertain_given_unsafe"] is None

    def test_from_labels(self):
        labels = {}
        combos = [("unsafe", "uncertain")] * 3 + [("unsafe", "certain")] * 2 \
            + [("safe", "uncertain")] * 4 + [("safe", "certain")] * 11
        for i, (s, c) in enumerate(combos):
            labels[f"f{i}"] = FlightLabels(f"f{i}", s, c)
        stats = agreement_stats(labels)
        assert stats["counts"] == {"unsafe_uncertain": 3, "unsafe_certain": 2,
                                   "safe_uncertain": 4, "safe_certain": 11}
        assert stats["agreement_accuracy"] == pytest.approx(14 / 20)

    def test_polarity_swap_invariance(self):
        rng = np.random.default_rng(6)
        for _ in range(50):
            uu, uc, su, sc = (int(x) for x in rng.integers(0, 40, size=4))
            if uu + uc + su + sc == 0:
                continue
            a = agreement_stats_from_counts(ConfusionMatrix(tp=uu, fp=su, fn=uc, tn=sc))
            b = agreement_stats_from_counts(ConfusionMatrix(tp=sc, fp=uc, fn=su, tn=uu))
            assert a["agreement_accuracy"] == pytest.approx(b["agreement_accuracy"])

    def test_empty_is_error(self):
        with pytest.raises(ValueError):
            agreement_stats_from_counts(ConfusionMatrix(0, 0, 0, 0))


def _doc(flight_id, alarms=(), **keys):
    """The report document of a flight with these alarms, other keys overridden."""
    return {**report_to_dict(DetectionReport(flight_id, alarms=tuple(alarms))), **keys}


class TestDatasetReport:
    def _setup(self):
        labels = {
            "u1": FlightLabels("u1", "unsafe", "uncertain"),
            "u2": FlightLabels("u2", "safe", "uncertain"),
            "c1": FlightLabels("c1", "safe", "certain"),
            "c2": FlightLabels("c2", "unsafe", "certain"),
        }
        alarm = AlarmEvent(4, 15.0, 0.8, 0.5)
        reports = [
            _doc("u1", [alarm], lead_time_s=210.0, distance_at_first_alarm_m=3.4),
            _doc("u2", [alarm], lead_time_s=40.0, distance_at_first_alarm_m=4.0),
            _doc("c1"),
            _doc("c2"),
        ]
        return reports, labels

    def test_aggregation(self):
        reports, labels = self._setup()
        doc = dataset_report(reports, labels)
        certainty = doc["ground_truth"]["certainty"]["confusion"]
        safety = doc["ground_truth"]["safety"]["confusion"]
        assert (certainty["tp"], certainty["tn"]) == (2, 2)
        assert safety["tp"] == 1  # u1 unsafe and flagged
        assert safety["fp"] == 1  # u2 safe but flagged
        assert safety["fn"] == 1  # c2 unsafe, silent
        assert doc["lead_time"]["mean_s"] == pytest.approx(125.0)
        assert doc["lead_time"]["median_s"] == pytest.approx(125.0)
        assert doc["distance_at_first_alarm"]["mean_m"] == pytest.approx(3.7)
        assert len(doc["per_flight"]) == 4

    def test_lead_time_mean_example(self):
        labels = {f"f{i}": FlightLabels(f"f{i}", "unsafe", "uncertain") for i in range(3)}
        alarm = AlarmEvent(0, 5.0, 1.0, 0.9)
        reports = [_doc(f"f{i}", [alarm], lead_time_s=lt)
                   for i, lt in enumerate((210.0, 40.0, 50.0))]
        doc = dataset_report(reports, labels)
        assert doc["lead_time"]["mean_s"] == pytest.approx(100.0)

    def test_zero_flights_is_error(self):
        with pytest.raises(ValueError):
            dataset_report([], {})

    def _written(self, reports, labels, tmp_path):
        """The evaluation document as written to disk, and its six tables."""
        doc = dataset_report(reports, labels)
        write_evaluation_json(doc, tmp_path / "evaluation.json")
        written = write_evaluation_tables(doc, tmp_path)
        tables = {p.name: p.read_text().splitlines() for p in written}
        assert len(tables) == len(written) == 6
        return json.loads((tmp_path / "evaluation.json").read_text()), tables

    def test_json_and_tables(self, tmp_path):
        js, tables = self._written(*self._setup(), tmp_path)
        assert js["n_flights"] == 4
        assert js["ground_truth"]["certainty"]["confusion"]["tp"] == 2
        assert js["label_agreement"]["counts"]["unsafe_uncertain"] == 1
        assert tables == {
            "label_agreement.csv": [
                "metric,value,ci_low,ci_high",
                "agreement_accuracy_pct,50.0,,",
                "p_unsafe_given_uncertain_pct,50.0,9.5,90.5",
                "p_uncertain_given_unsafe_pct,50.0,9.5,90.5"],
            "label_counts.csv": [
                "unsafe_uncertain,unsafe_certain,safe_uncertain,safe_certain",
                "1,1,1,1"],
            "detection_metrics.csv": [
                "ground_truth,accuracy_pct,precision_pct,recall_pct,f1_pct",
                "certainty,100.0,100.0,100.0,100.0",
                "safety,50.0,50.0,50.0,50.0"],
            "confusion_certainty.csv": ["tp,fp,fn,tn", "2,0,0,2"],
            "confusion_safety.csv": ["tp,fp,fn,tn", "1,1,1,1"],
            "per_flight.csv": [
                "flight_id,safety,certainty,predicted_uncertain,n_alarms,"
                "first_alarm_time_s,lead_time_s,distance_at_first_alarm_m",
                "c1,safe,certain,0,0,,,",
                "c2,unsafe,certain,0,0,,,",
                "u1,unsafe,uncertain,1,1,15.0,210.0,3.4",
                "u2,safe,uncertain,1,1,15.0,40.0,4.0"],
        }

    @staticmethod
    def _without_uncertain_flights():
        labels = {"c1": FlightLabels("c1", "safe", "certain"),
                  "c2": FlightLabels("c2", "unsafe", "certain"),
                  "c3": FlightLabels("c3", "safe", "certain")}
        reports = [_doc("c1", [AlarmEvent(2, 7.5, 0.9, 0.6)]), _doc("c2"), _doc("c3")]
        return reports, labels

    @pytest.mark.parametrize("corpus", ["uncertain", "no-uncertain"])
    def test_tables_same_from_document_and_its_json(self, tmp_path, corpus):
        # evaluation.json stores its keys sorted; the tables must not follow key order
        reports, labels = (self._setup() if corpus == "uncertain"
                           else self._without_uncertain_flights())
        doc = dataset_report(reports, labels)
        write_evaluation_json(doc, tmp_path / "evaluation.json")
        read_back = json.loads((tmp_path / "evaluation.json").read_text())
        from_doc = write_evaluation_tables(doc, tmp_path / "doc")
        from_json = write_evaluation_tables(read_back, tmp_path / "json")
        assert [p.name for p in from_doc] == [p.name for p in from_json]
        for a, b in zip(from_doc, from_json):
            assert a.read_bytes() == b.read_bytes(), a.name

    def test_json_and_tables_without_uncertain_flights(self, tmp_path):
        # no uncertain label: p(unsafe | uncertain) is absent; an alarm on a
        # certain flight has a first-alarm time but no lead time or distance
        js, tables = self._written(*self._without_uncertain_flights(), tmp_path)
        assert js["label_agreement"]["p_unsafe_given_uncertain"] is None
        assert js["lead_time"] == {"count": 0, "values_s": [], "mean_s": None,
                                   "median_s": None}
        assert js["distance_at_first_alarm"] == {"mean_m": None}
        assert tables == {
            "label_agreement.csv": [
                "metric,value,ci_low,ci_high",
                "agreement_accuracy_pct,66.7,,",
                "p_unsafe_given_uncertain_pct,,,",
                "p_uncertain_given_unsafe_pct,0.0,0.0,79.3"],
            "label_counts.csv": [
                "unsafe_uncertain,unsafe_certain,safe_uncertain,safe_certain",
                "0,1,0,2"],
            "detection_metrics.csv": [
                "ground_truth,accuracy_pct,precision_pct,recall_pct,f1_pct",
                "certainty,66.7,0.0,,",
                "safety,33.3,0.0,0.0,"],
            "confusion_certainty.csv": ["tp,fp,fn,tn", "0,1,0,2"],
            "confusion_safety.csv": ["tp,fp,fn,tn", "0,1,1,1"],
            "per_flight.csv": [
                "flight_id,safety,certainty,predicted_uncertain,n_alarms,"
                "first_alarm_time_s,lead_time_s,distance_at_first_alarm_m",
                "c1,safe,certain,1,1,7.5,,",
                "c2,unsafe,certain,0,0,,,",
                "c3,safe,certain,0,0,,,"],
        }
