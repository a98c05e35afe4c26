import numpy as np
import pytest
from scipy import stats as scipy_stats

from flightwatch.detector import AlarmEvent, DetectionReport
from flightwatch.evalstats import (
    ConfusionMatrix,
    agreement_stats,
    agreement_stats_from_counts,
    confusion,
    dataset_report,
    metrics,
    normal_quantile,
    report_to_json_dict,
    wilson,
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
        assert pct(iv.low) == pytest.approx(33.6, abs=0.1)
        assert pct(iv.high) == pytest.approx(66.4, abs=0.1)
        assert iv.point == pytest.approx(0.5)

    def test_high_proportion(self):
        iv = wilson(123, 138, 0.95)
        assert pct(iv.low) == pytest.approx(82.8, abs=0.1)
        assert pct(iv.high) == pytest.approx(93.3, abs=0.1)

    def test_all_successes_boundary(self):
        iv = wilson(20, 20, 0.95)
        assert iv.high == 1.0
        assert iv.low < 1.0

    def test_zero_successes_boundary(self):
        iv = wilson(0, 20, 0.95)
        assert iv.low == 0.0
        assert iv.high > 0.0

    def test_contains_empirical_proportion(self):
        rng = np.random.default_rng(2)
        for _ in range(300):
            n = int(rng.integers(1, 500))
            k = int(rng.integers(0, n + 1))
            iv = wilson(k, n)
            assert iv.low <= k / n <= iv.high

    def test_width_shrinks_with_n(self):
        widths = [wilson(k, n).high - wilson(k, n).low
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
        assert pct(stats.agreement_accuracy) == pytest.approx(86.8, abs=0.1)
        assert pct(stats.p_unsafe_given_uncertain.point) == pytest.approx(50.0, abs=0.1)
        assert pct(stats.p_uncertain_given_unsafe.point) == pytest.approx(64.0, abs=0.1)

    def test_larger_dataset_counts(self):
        stats = agreement_stats_from_counts(ConfusionMatrix(tp=123, fp=43, fn=15, tn=361))
        assert pct(stats.agreement_accuracy) == pytest.approx(89.3, abs=0.1)
        assert pct(stats.p_unsafe_given_uncertain.point) == pytest.approx(74.1, abs=0.1)
        assert pct(stats.p_uncertain_given_unsafe.point) == pytest.approx(89.1, abs=0.1)

    def test_all_safe_certain(self):
        stats = agreement_stats_from_counts(ConfusionMatrix(tp=0, fp=0, fn=0, tn=25))
        assert stats.agreement_accuracy == 1.0
        assert stats.p_unsafe_given_uncertain is None
        assert stats.p_uncertain_given_unsafe is None

    def test_from_labels(self):
        labels = {}
        combos = [("unsafe", "uncertain")] * 3 + [("unsafe", "certain")] * 2 \
            + [("safe", "uncertain")] * 4 + [("safe", "certain")] * 11
        for i, (s, c) in enumerate(combos):
            labels[f"f{i}"] = FlightLabels(f"f{i}", s, c)
        stats = agreement_stats(labels)
        assert stats.counts == ConfusionMatrix(tp=3, fp=4, fn=2, tn=11)
        assert stats.agreement_accuracy == pytest.approx(14 / 20)

    def test_polarity_swap_invariance(self):
        rng = np.random.default_rng(6)
        for _ in range(50):
            uu, uc, su, sc = (int(x) for x in rng.integers(0, 40, size=4))
            if uu + uc + su + sc == 0:
                continue
            a = agreement_stats_from_counts(ConfusionMatrix(tp=uu, fp=su, fn=uc, tn=sc))
            b = agreement_stats_from_counts(ConfusionMatrix(tp=sc, fp=uc, fn=su, tn=uu))
            assert a.agreement_accuracy == pytest.approx(b.agreement_accuracy)

    def test_empty_is_error(self):
        with pytest.raises(ValueError):
            agreement_stats_from_counts(ConfusionMatrix(0, 0, 0, 0))


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
            DetectionReport("u1", alarms=(alarm,), lead_time=210.0,
                            distance_at_first_alarm=3.4),
            DetectionReport("u2", alarms=(alarm,), lead_time=40.0,
                            distance_at_first_alarm=4.0),
            DetectionReport("c1"),
            DetectionReport("c2"),
        ]
        return reports, labels

    def test_aggregation(self):
        reports, labels = self._setup()
        doc = dataset_report(reports, labels)
        assert (doc.uncertainty.confusion.tp, doc.uncertainty.confusion.tn) == (2, 2)
        assert doc.safety.confusion.tp == 1  # u1 unsafe and flagged
        assert doc.safety.confusion.fp == 1  # u2 safe but flagged
        assert doc.safety.confusion.fn == 1  # c2 unsafe, silent
        assert doc.lead_time_mean == pytest.approx(125.0)
        assert doc.lead_time_median == pytest.approx(125.0)
        assert doc.mean_distance_at_first_alarm == pytest.approx(3.7)
        assert len(doc.per_flight) == 4

    def test_lead_time_mean_example(self):
        labels = {f"f{i}": FlightLabels(f"f{i}", "unsafe", "uncertain") for i in range(3)}
        alarm = AlarmEvent(0, 5.0, 1.0, 0.9)
        reports = [DetectionReport(f"f{i}", alarms=(alarm,), lead_time=lt)
                   for i, lt in enumerate((210.0, 40.0, 50.0))]
        doc = dataset_report(reports, labels)
        assert doc.lead_time_mean == pytest.approx(100.0)

    def test_zero_flights_is_error(self):
        with pytest.raises(ValueError):
            dataset_report([], {})

    def test_json_and_tables(self, tmp_path):
        reports, labels = self._setup()
        doc = dataset_report(reports, labels)
        js = report_to_json_dict(doc)
        assert js["n_flights"] == 4
        assert js["ground_truth"]["certainty"]["confusion"]["tp"] == 2
        assert js["label_agreement"]["counts"]["unsafe_uncertain"] == 1
        written = write_evaluation_tables(doc, tmp_path)
        names = {p.name for p in written}
        assert {"label_agreement.csv", "detection_metrics.csv",
                "confusion_certainty.csv", "confusion_safety.csv",
                "per_flight.csv", "label_counts.csv"} <= names
        table = (tmp_path / "detection_metrics.csv").read_text().splitlines()
        assert table[0].startswith("ground_truth,accuracy_pct")
        assert len(table) == 3
