"""Evaluation statistics: confusion matrices, classification metrics,
label-agreement analysis with Wilson confidence intervals, and the evaluation
document (``evaluation.json``), from which the flat CSV tables are derived.

Proportions are kept as fractions internally; human-readable output rounds to
one decimal percentage point.
"""

from __future__ import annotations

import csv
import math
from dataclasses import asdict, dataclass, fields
from pathlib import Path
from typing import Iterable, Mapping

import numpy as np

from .flightdata import FlightLabels, write_json


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


_METRICS = ("accuracy", "precision", "recall", "f1")


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
    return dict(zip(_METRICS, (accuracy, precision, recall, f1)))


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


def wilson(successes: int, trials: int, gamma: float = 0.95) -> dict:
    """Wilson score interval for ``successes`` out of ``trials`` at confidence gamma:
    ``{"point", "low", "high", "gamma"}``, with ``0 <= low <= point <= high <= 1``."""
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
    return {"point": phat, "low": low, "high": high, "gamma": gamma}


# Column order of the flat tables.  The tables never follow the document's key
# order, which json.loads of evaluation.json (keys sorted) does not keep.
_AXES = ("certainty", "safety")
_LABEL_COUNTS = ("unsafe_uncertain", "unsafe_certain", "safe_uncertain", "safe_certain")
_PER_FLIGHT = ("flight_id", "safety", "certainty", "predicted_uncertain", "n_alarms",
               "first_alarm_time_s", "lead_time_s", "distance_at_first_alarm_m")


def agreement_stats_from_counts(cm: ConfusionMatrix, gamma: float = 0.95) -> dict:
    """The ``label_agreement`` section of the evaluation document: the label
    counts, the agreement accuracy, and p(unsafe | uncertain) and
    p(uncertain | unsafe) as :func:`wilson` intervals, null where the
    conditioning event has no flight.

    ``cm`` treats each flight's certainty label as a prediction of its
    safety label: tp = unsafe and uncertain, fp = safe and uncertain,
    fn = unsafe and certain, tn = safe and certain.  So p(unsafe | uncertain)
    is that table's precision and p(uncertain | unsafe) its recall.
    """
    n_uncertain = cm.tp + cm.fp
    n_unsafe = cm.tp + cm.fn
    return {
        "counts": dict(zip(_LABEL_COUNTS, (cm.tp, cm.fn, cm.fp, cm.tn))),
        "agreement_accuracy": metrics(cm)["accuracy"],
        "p_unsafe_given_uncertain": wilson(cm.tp, n_uncertain, gamma) if n_uncertain else None,
        "p_uncertain_given_unsafe": wilson(cm.tp, n_unsafe, gamma) if n_unsafe else None,
    }


def _label_bits(labels: Mapping[str, FlightLabels]) -> tuple[dict, dict]:
    """Each flight's labels as two truth maps: uncertain, and unsafe."""
    return ({fid: lab.certainty == "uncertain" for fid, lab in labels.items()},
            {fid: lab.safety == "unsafe" for fid, lab in labels.items()})


def agreement_stats(labels: Mapping[str, FlightLabels], gamma: float = 0.95) -> dict:
    """:func:`agreement_stats_from_counts` of a labeled flight set."""
    return agreement_stats_from_counts(confusion(*_label_bits(labels)), gamma)


def _axis(predicted: Mapping[str, bool], truth: Mapping[str, bool]) -> dict:
    """Confusion counts and metrics of the alarm bit against one label."""
    cm = confusion(predicted, truth)
    return {"confusion": asdict(cm), "metrics": metrics(cm)}


def dataset_report(reports: Iterable[dict], labels: Mapping[str, FlightLabels],
                   gamma: float = 0.95) -> dict:
    """The evaluation document of detection report documents against
    ground-truth labels, exactly as ``evaluation.json`` holds it.

    It holds both confusion matrices (certainty and safety ground truth),
    the label-agreement statistics, lead-time summaries, and one row per
    flight in flight-id order.
    """
    reports = list(reports)
    if not reports or not labels:
        raise ValueError("evaluation needs at least one flight with a label")
    by_id = {r["flight_id"]: r for r in reports}
    if len(by_id) != len(reports):
        ids = [r["flight_id"] for r in reports]
        raise ValueError(f"duplicate flight ids: {sorted({f for f in ids if ids.count(f) > 1})}")
    # any alarm flags a flight: the one bit predicts both certainty and safety
    predicted = {fid: rep["flight_uncertain"] for fid, rep in by_id.items()}
    uncertain, unsafe = _label_bits(labels)
    ground_truth = dict(zip(_AXES, (_axis(predicted, uncertain), _axis(predicted, unsafe))))
    lead_times = [r["lead_time_s"] for r in reports if r["lead_time_s"] is not None]
    distances = [r["distance_at_first_alarm_m"] for r in reports
                 if r["distance_at_first_alarm_m"] is not None]
    return {
        "n_flights": len(reports),
        "ground_truth": ground_truth,
        "label_agreement": agreement_stats_from_counts(confusion(uncertain, unsafe), gamma),
        "lead_time": {"count": len(lead_times), "values_s": lead_times,
                      "mean_s": float(np.mean(lead_times)) if lead_times else None,
                      "median_s": float(np.median(lead_times)) if lead_times else None},
        "distance_at_first_alarm": {
            "mean_m": float(np.mean(distances)) if distances else None},
        "per_flight": [
            dict(zip(_PER_FLIGHT, (fid, lab.safety, lab.certainty, rep["flight_uncertain"],
                                   len(rep["alarms"]), *(rep[k] for k in _PER_FLIGHT[5:]))))
            for fid, lab, rep in ((fid, labels[fid], by_id[fid]) for fid in sorted(labels))],
    }


def write_evaluation_json(doc: dict, path) -> None:
    write_json(doc, path)


def _pct(x: float | None) -> str:
    return "" if x is None else f"{100.0 * x:.1f}"


def write_evaluation_tables(doc: dict, outdir) -> list[Path]:
    """Flat CSV tables of the evaluation document, as :func:`dataset_report`
    returns it or as read back from ``evaluation.json``; returns the written
    paths."""
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    agreement = doc["label_agreement"]
    agree_rows = [["agreement_accuracy_pct", _pct(agreement["agreement_accuracy"]), "", ""]]
    for key in ("p_unsafe_given_uncertain", "p_uncertain_given_unsafe"):
        iv = agreement[key] or {}
        agree_rows.append([f"{key}_pct"] + [_pct(iv.get(k)) for k in ("point", "low", "high")])
    axes = doc["ground_truth"]
    cells = [f.name for f in fields(ConfusionMatrix)]
    tables = [
        ("label_agreement.csv", ["metric", "value", "ci_low", "ci_high"], agree_rows),
        ("label_counts.csv", _LABEL_COUNTS, [[agreement["counts"][k] for k in _LABEL_COUNTS]]),
        ("detection_metrics.csv", ["ground_truth"] + [f"{k}_pct" for k in _METRICS],
         [[name] + [_pct(axes[name]["metrics"][k]) for k in _METRICS] for name in _AXES]),
        *((f"confusion_{name}.csv", cells, [[axes[name]["confusion"][k] for k in cells]])
          for name in _AXES),
        # csv writes None as an empty cell and a float as its repr
        ("per_flight.csv", _PER_FLIGHT,
         [[int(v) if isinstance(v, bool) else v for v in (row[k] for k in _PER_FLIGHT)]
          for row in doc["per_flight"]]),
    ]
    written = []
    for name, header, table_rows in tables:
        path = outdir / name
        with open(path, "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(header)
            writer.writerows(table_rows)
        written.append(path)
    return written
