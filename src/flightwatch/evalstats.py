"""Evaluation statistics: confusion matrices, classification metrics,
label-agreement analysis with Wilson confidence intervals, and the aggregate
dataset report.

Proportions are kept as fractions internally; human-readable output rounds to
one decimal percentage point.
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Mapping, Sequence

import numpy as np

from .detector import DetectionReport
from .flightdata import FlightLabels


@dataclass(frozen=True)
class ConfusionMatrix:
    tp: int
    fp: int
    fn: int
    tn: int

    def __post_init__(self):
        if min(self.tp, self.fp, self.fn, self.tn) < 0:
            raise ValueError("confusion counts must be non-negative")

    @property
    def total(self) -> int:
        return self.tp + self.fp + self.fn + self.tn


def confusion(predicted: Mapping[str, bool], truth: Mapping[str, bool]) -> ConfusionMatrix:
    """Count predictions against ground truth over the same flight-id set."""
    if set(predicted) != set(truth):
        missing = sorted(set(truth) - set(predicted))
        extra = sorted(set(predicted) - set(truth))
        raise ValueError(f"flight id mismatch: missing={missing} extra={extra}")
    tp = fp = fn = tn = 0
    for fid, pred in predicted.items():
        actual = truth[fid]
        if pred and actual:
            tp += 1
        elif pred and not actual:
            fp += 1
        elif not pred and actual:
            fn += 1
        else:
            tn += 1
    return ConfusionMatrix(tp, fp, fn, tn)


def metrics(cm: ConfusionMatrix) -> dict[str, float | None]:
    """Accuracy, precision, recall, F1; None where the denominator vanishes."""
    if cm.total == 0:
        raise ValueError("metrics need a non-empty confusion matrix")
    accuracy = (cm.tp + cm.tn) / cm.total
    precision = cm.tp / (cm.tp + cm.fp) if (cm.tp + cm.fp) > 0 else None
    recall = cm.tp / (cm.tp + cm.fn) if (cm.tp + cm.fn) > 0 else None
    if precision is not None and recall is not None and (precision + recall) > 0:
        f1 = 2 * precision * recall / (precision + recall)
    else:
        f1 = None
    return {"accuracy": accuracy, "precision": precision, "recall": recall, "f1": f1}


# Rational approximation of the standard normal quantile (P. J. Acklam),
# refined with one Halley step through erfc to full double precision.
_A = (-3.969683028665376e+01, 2.209460984245205e+02, -2.759285104469687e+02,
      1.383577518672690e+02, -3.066479806614716e+01, 2.506628277459239e+00)
_B = (-5.447609879822406e+01, 1.615858368580409e+02, -1.556989798598866e+02,
      6.680131188771972e+01, -1.328068155288572e+01)
_C = (-7.784894002430293e-03, -3.223964580411365e-01, -2.400758277161838e+00,
      -2.549732539343734e+00, 4.374664141464968e+00, 2.938163982698783e+00)
_D = (7.784695709041462e-03, 3.224671290700398e-01, 2.445134137142996e+00,
      3.754408661907416e+00)


def normal_quantile(p: float) -> float:
    """Inverse standard normal CDF, accurate to well below 1e-8."""
    if not 0.0 < p < 1.0:
        raise ValueError("p must lie strictly between 0 and 1")
    p_low = 0.02425
    if p < p_low:
        q = math.sqrt(-2.0 * math.log(p))
        x = ((((((_C[0] * q + _C[1]) * q + _C[2]) * q + _C[3]) * q + _C[4]) * q + _C[5])
             / ((((_D[0] * q + _D[1]) * q + _D[2]) * q + _D[3]) * q + 1.0))
    elif p <= 1.0 - p_low:
        q = p - 0.5
        r = q * q
        x = ((((((_A[0] * r + _A[1]) * r + _A[2]) * r + _A[3]) * r + _A[4]) * r + _A[5]) * q
             / (((((_B[0] * r + _B[1]) * r + _B[2]) * r + _B[3]) * r + _B[4]) * r + 1.0))
    else:
        q = math.sqrt(-2.0 * math.log(1.0 - p))
        x = -((((((_C[0] * q + _C[1]) * q + _C[2]) * q + _C[3]) * q + _C[4]) * q + _C[5])
              / ((((_D[0] * q + _D[1]) * q + _D[2]) * q + _D[3]) * q + 1.0))
    # Halley refinement against the exact CDF
    err = 0.5 * math.erfc(-x / math.sqrt(2.0)) - p
    u = err * math.sqrt(2.0 * math.pi) * math.exp(x * x / 2.0)
    return x - u / (1.0 + x * u / 2.0)


@dataclass(frozen=True)
class WilsonInterval:
    """Score confidence interval for a binomial proportion."""

    point: float
    low: float
    high: float
    gamma: float

    def __post_init__(self):
        if not (0.0 <= self.low <= self.point <= self.high <= 1.0):
            raise ValueError("need 0 <= low <= point <= high <= 1")


def wilson(successes: int, trials: int, gamma: float = 0.95) -> WilsonInterval:
    """Wilson score interval for ``successes`` out of ``trials`` at confidence gamma."""
    if trials <= 0:
        raise ValueError("trials must be > 0")
    if not 0 <= successes <= trials:
        raise ValueError("need 0 <= successes <= trials")
    if not 0.0 < gamma < 1.0:
        raise ValueError("gamma must lie strictly between 0 and 1")
    z = normal_quantile((1.0 + gamma) / 2.0)
    n = float(trials)
    phat = successes / n
    z2n = z * z / n
    center = (phat + z2n / 2.0) / (1.0 + z2n)
    half = (z / (1.0 + z2n)) * math.sqrt(phat * (1.0 - phat) / n + z * z / (4.0 * n * n))
    # the interval contains phat mathematically; clamping absorbs float dust
    low = min(max(0.0, center - half), phat)
    high = max(min(1.0, center + half), phat)
    return WilsonInterval(point=phat, low=low, high=high, gamma=gamma)


@dataclass(frozen=True)
class AgreementStats:
    """Safety/certainty co-occurrence plus the two conditional probabilities.

    ``counts`` treats each flight's certainty label as a prediction of its
    safety label: tp = unsafe and uncertain, fp = safe and uncertain,
    fn = unsafe and certain, tn = safe and certain.  So p(unsafe | uncertain)
    is that table's precision and p(uncertain | unsafe) its recall.
    """

    counts: ConfusionMatrix
    agreement_accuracy: float
    p_unsafe_given_uncertain: WilsonInterval | None
    p_uncertain_given_unsafe: WilsonInterval | None


def agreement_stats_from_counts(cm: ConfusionMatrix,
                                gamma: float = 0.95) -> AgreementStats:
    """Agreement accuracy and conditional probabilities from the agreement
    table (see :class:`AgreementStats`).

    Conditional probabilities with a zero-count conditioning event are absent.
    """
    n_uncertain = cm.tp + cm.fp
    n_unsafe = cm.tp + cm.fn
    return AgreementStats(
        counts=cm, agreement_accuracy=metrics(cm)["accuracy"],
        p_unsafe_given_uncertain=wilson(cm.tp, n_uncertain, gamma) if n_uncertain else None,
        p_uncertain_given_unsafe=wilson(cm.tp, n_unsafe, gamma) if n_unsafe else None)


def _label_bits(labels: Mapping[str, FlightLabels]) -> tuple[dict, dict]:
    """Each flight's labels as two truth maps: uncertain, and unsafe."""
    return ({fid: lab.certainty == "uncertain" for fid, lab in labels.items()},
            {fid: lab.safety == "unsafe" for fid, lab in labels.items()})


def agreement_stats(labels: Mapping[str, FlightLabels],
                    gamma: float = 0.95) -> AgreementStats:
    """Agreement statistics over a labeled flight set."""
    return agreement_stats_from_counts(confusion(*_label_bits(labels)), gamma)


def _agreement_cells(cm: ConfusionMatrix) -> dict[str, int]:
    """The agreement table's cells under their output names, in table order."""
    return {"unsafe_uncertain": cm.tp, "unsafe_certain": cm.fn,
            "safe_uncertain": cm.fp, "safe_certain": cm.tn}


@dataclass(frozen=True)
class AxisEvaluation:
    """Confusion matrix and derived metrics for one ground-truth axis."""

    ground_truth: str  # "certainty" or "safety"
    confusion: ConfusionMatrix
    metrics: dict[str, float | None]


@dataclass(frozen=True)
class PerFlightRow:
    flight_id: str
    safety: str
    certainty: str
    predicted_uncertain: bool
    n_alarms: int
    first_alarm_time: float | None
    lead_time: float | None
    distance_at_first_alarm: float | None


@dataclass(frozen=True)
class DatasetReport:
    """Full evaluation document over a labeled, detected flight set."""

    n_flights: int
    uncertainty: AxisEvaluation
    safety: AxisEvaluation
    agreement: AgreementStats
    lead_times: tuple[float, ...]
    lead_time_mean: float | None
    lead_time_median: float | None
    mean_distance_at_first_alarm: float | None
    per_flight: tuple[PerFlightRow, ...]


def dataset_report(reports: Iterable[DetectionReport],
                   labels: Mapping[str, FlightLabels],
                   gamma: float = 0.95) -> DatasetReport:
    """Aggregate detection reports against ground-truth labels.

    Produces both confusion matrices (certainty and safety ground truth), the
    label-agreement statistics, lead-time summaries, and per-flight rows.
    """
    reports = list(reports)
    if not reports or not labels:
        raise ValueError("evaluation needs at least one flight with a label")
    by_id = {r.flight_id: r for r in reports}
    # any alarm flags a flight: the one bit predicts both certainty and safety
    predicted = {fid: rep.flight_uncertain for fid, rep in by_id.items()}
    uncertain, unsafe = _label_bits(labels)
    cm_unc = confusion(predicted, uncertain)
    cm_saf = confusion(predicted, unsafe)
    lead_times = tuple(r.lead_time for r in reports if r.lead_time is not None)
    distances = [r.distance_at_first_alarm for r in reports
                 if r.distance_at_first_alarm is not None]
    rows = []
    for fid in sorted(labels):
        rep = by_id[fid]
        lab = labels[fid]
        rows.append(PerFlightRow(
            flight_id=fid, safety=lab.safety, certainty=lab.certainty,
            predicted_uncertain=rep.flight_uncertain, n_alarms=len(rep.alarms),
            first_alarm_time=rep.first_alarm_time, lead_time=rep.lead_time,
            distance_at_first_alarm=rep.distance_at_first_alarm))
    return DatasetReport(
        n_flights=len(reports),
        uncertainty=AxisEvaluation("certainty", cm_unc, metrics(cm_unc)),
        safety=AxisEvaluation("safety", cm_saf, metrics(cm_saf)),
        agreement=agreement_stats_from_counts(confusion(uncertain, unsafe), gamma),
        lead_times=lead_times,
        lead_time_mean=float(np.mean(lead_times)) if lead_times else None,
        lead_time_median=float(np.median(lead_times)) if lead_times else None,
        mean_distance_at_first_alarm=float(np.mean(distances)) if distances else None,
        per_flight=tuple(rows))


def _interval_dict(iv: WilsonInterval | None) -> dict | None:
    if iv is None:
        return None
    return {"point": iv.point, "low": iv.low, "high": iv.high, "gamma": iv.gamma}


def report_to_json_dict(report: DatasetReport) -> dict:
    def axis(ax: AxisEvaluation) -> dict:
        cm = ax.confusion
        return {"confusion": {"tp": cm.tp, "fp": cm.fp, "fn": cm.fn, "tn": cm.tn},
                "metrics": ax.metrics}

    return {
        "n_flights": report.n_flights,
        "ground_truth": {"certainty": axis(report.uncertainty),
                         "safety": axis(report.safety)},
        "label_agreement": {
            "counts": _agreement_cells(report.agreement.counts),
            "agreement_accuracy": report.agreement.agreement_accuracy,
            "p_unsafe_given_uncertain": _interval_dict(report.agreement.p_unsafe_given_uncertain),
            "p_uncertain_given_unsafe": _interval_dict(report.agreement.p_uncertain_given_unsafe),
        },
        "lead_time": {"count": len(report.lead_times),
                      "values_s": list(report.lead_times),
                      "mean_s": report.lead_time_mean,
                      "median_s": report.lead_time_median},
        "distance_at_first_alarm": {"mean_m": report.mean_distance_at_first_alarm},
        "per_flight": [
            {"flight_id": row.flight_id, "safety": row.safety, "certainty": row.certainty,
             "predicted_uncertain": row.predicted_uncertain, "n_alarms": row.n_alarms,
             "first_alarm_time_s": row.first_alarm_time, "lead_time_s": row.lead_time,
             "distance_at_first_alarm_m": row.distance_at_first_alarm}
            for row in report.per_flight
        ],
    }


def write_evaluation_json(report: DatasetReport, path) -> None:
    Path(path).write_text(
        json.dumps(report_to_json_dict(report), sort_keys=True, separators=(",", ":")) + "\n",
        encoding="utf-8")


def _pct(x: float | None) -> str:
    return "" if x is None else f"{100.0 * x:.1f}"


def write_evaluation_tables(report: DatasetReport, outdir) -> list[Path]:
    """Flat CSV tables of the evaluation document; returns the written paths."""
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    written = []

    def _write(name: str, header: Sequence[str], rows: Iterable[Sequence]) -> None:
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)
        path = outdir / name
        path.write_text(buf.getvalue(), encoding="utf-8")
        written.append(path)

    agree_rows = [
        ["agreement_accuracy_pct", _pct(report.agreement.agreement_accuracy), "", ""],
    ]
    for key, iv in (("p_unsafe_given_uncertain", report.agreement.p_unsafe_given_uncertain),
                    ("p_uncertain_given_unsafe", report.agreement.p_uncertain_given_unsafe)):
        if iv is None:
            agree_rows.append([f"{key}_pct", "", "", ""])
        else:
            agree_rows.append([f"{key}_pct", _pct(iv.point), _pct(iv.low), _pct(iv.high)])
    _write("label_agreement.csv", ["metric", "value", "ci_low", "ci_high"], agree_rows)

    cells = _agreement_cells(report.agreement.counts)
    _write("label_counts.csv", list(cells), [list(cells.values())])

    metric_rows = []
    for ax in (report.uncertainty, report.safety):
        m = ax.metrics
        metric_rows.append([ax.ground_truth, _pct(m["accuracy"]), _pct(m["precision"]),
                            _pct(m["recall"]), _pct(m["f1"])])
    _write("detection_metrics.csv",
           ["ground_truth", "accuracy_pct", "precision_pct", "recall_pct", "f1_pct"],
           metric_rows)

    for ax, name in ((report.uncertainty, "confusion_certainty.csv"),
                     (report.safety, "confusion_safety.csv")):
        cm = ax.confusion
        _write(name, ["tp", "fp", "fn", "tn"], [[cm.tp, cm.fp, cm.fn, cm.tn]])

    _write("per_flight.csv",
           ["flight_id", "safety", "certainty", "predicted_uncertain", "n_alarms",
            "first_alarm_time_s", "lead_time_s", "distance_at_first_alarm_m"],
           [[row.flight_id, row.safety, row.certainty,
             int(row.predicted_uncertain), row.n_alarms,
             "" if row.first_alarm_time is None else repr(row.first_alarm_time),
             "" if row.lead_time is None else repr(row.lead_time),
             "" if row.distance_at_first_alarm is None else repr(row.distance_at_first_alarm)]
            for row in report.per_flight])
    return written
