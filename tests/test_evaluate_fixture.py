"""Evaluate-command fixture reproducing the published statistics end to end.

Joint (predicted, uncertain, unsafe) flight counts are chosen so the three
two-way margins equal the published label-agreement and confusion tables; the
evaluate command must then reproduce every derived statistic within 0.1
percentage points.
"""

import json

import pytest

from flightwatch.cli import main
from flightwatch.detector import AlarmEvent, DetectionReport, report_to_dict, write_report
from flightwatch.flightdata import FlightLabels, write_labels

# cell order: (predicted, uncertain, unsafe) -> count
DIVERSE_CELLS = {
    (1, 1, 1): 12, (1, 1, 0): 15, (1, 0, 1): 1, (1, 0, 0): 2,
    (0, 1, 1): 4, (0, 0, 1): 8, (0, 1, 0): 1, (0, 0, 0): 146,
}
LARGE_CELLS = {
    (1, 1, 1): 115, (1, 1, 0): 40, (1, 0, 1): 5, (1, 0, 0): 2,
    (0, 1, 1): 8, (0, 0, 1): 10, (0, 1, 0): 3, (0, 0, 0): 359,
}

EXPECTED = {
    "diverse": {
        "total": 189,
        # unsafe_uncertain, unsafe_certain, safe_uncertain, safe_certain
        "label_counts": (16, 9, 16, 148),
        "agreement_pct": 86.8,
        "p_unsafe_given_uncertain": (50.0, 33.6, 66.4),
        "p_uncertain_given_unsafe": (64.0, 44.5, 79.8),
        "uncertainty": {"confusion": (27, 3, 5, 154),
                        "metrics_pct": (95.8, 90.0, 84.4, 87.1)},
        "safety": {"confusion": (13, 17, 12, 147),
                   "metrics_pct": (84.7, 43.3, 52.0, 47.3)},
    },
    "large": {
        "total": 542,
        "label_counts": (123, 15, 43, 361),
        "agreement_pct": 89.3,
        "p_unsafe_given_uncertain": (74.1, 66.9, 80.2),
        "p_uncertain_given_unsafe": (89.1, 82.8, 93.3),
        "uncertainty": {"confusion": (155, 7, 11, 369),
                        "metrics_pct": (96.7, 95.7, 93.4, 94.5)},
        "safety": {"confusion": (120, 42, 18, 362),
                   "metrics_pct": (88.9, 74.1, 87.0, 80.0)},
    },
}


def _materialize(cells, root):
    reports_dir = root / "reports"
    reports_dir.mkdir()
    labels = {}
    idx = 0
    alarm = AlarmEvent(window_index=4, timestamp=15.0, loss=0.9,
                       rolling_mean_loss=0.5)
    for (predicted, uncertain, unsafe), count in cells.items():
        for _ in range(count):
            fid = f"f{idx:04d}"
            idx += 1
            labels[fid] = FlightLabels(
                fid, "unsafe" if unsafe else "safe",
                "uncertain" if uncertain else "certain")
            report = DetectionReport(flight_id=fid,
                                     alarms=(alarm,) if predicted else ())
            write_report(report_to_dict(report), reports_dir / f"{fid}.json")
    labels_path = root / "labels.csv"
    write_labels(labels, labels_path)
    return reports_dir, labels_path


@pytest.mark.parametrize("name", ["diverse", "large"])
def test_evaluate_reproduces_published_tables(name, tmp_path):
    cells = DIVERSE_CELLS if name == "diverse" else LARGE_CELLS
    expected = EXPECTED[name]
    reports_dir, labels_path = _materialize(cells, tmp_path)
    out = tmp_path / "eval"
    assert main(["evaluate", "--reports", str(reports_dir),
                 "--labels", str(labels_path), "--out", str(out)]) == 0
    doc = json.loads((out / "evaluation.json").read_text())
    assert doc["n_flights"] == expected["total"]

    agree = doc["label_agreement"]
    names = ("unsafe_uncertain", "unsafe_certain", "safe_uncertain", "safe_certain")
    assert agree["counts"] == dict(zip(names, expected["label_counts"]))
    assert (out / "label_counts.csv").read_text().splitlines() == [
        ",".join(names), ",".join(map(str, expected["label_counts"]))]
    assert 100 * agree["agreement_accuracy"] == pytest.approx(
        expected["agreement_pct"], abs=0.1)
    for key in ("p_unsafe_given_uncertain", "p_uncertain_given_unsafe"):
        point, low, high = expected[key]
        iv = agree[key]
        assert 100 * iv["point"] == pytest.approx(point, abs=0.1)
        assert 100 * iv["low"] == pytest.approx(low, abs=0.1)
        assert 100 * iv["high"] == pytest.approx(high, abs=0.1)

    for axis_name, truth_key in (("uncertainty", "certainty"), ("safety", "safety")):
        axis = doc["ground_truth"][truth_key]
        tp, fp, fn, tn = expected[axis_name]["confusion"]
        assert axis["confusion"] == {"tp": tp, "fp": fp, "fn": fn, "tn": tn}
        acc, prec, rec, f1 = expected[axis_name]["metrics_pct"]
        m = axis["metrics"]
        assert 100 * m["accuracy"] == pytest.approx(acc, abs=0.1)
        assert 100 * m["precision"] == pytest.approx(prec, abs=0.1)
        assert 100 * m["recall"] == pytest.approx(rec, abs=0.1)
        assert 100 * m["f1"] == pytest.approx(f1, abs=0.1)
