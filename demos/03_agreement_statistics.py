"""Label-agreement statistics: how often does uncertainty co-occur with unsafety?

Given per-flight safety and certainty labels, the library reports the
agreement accuracy, the two conditional probabilities p(unsafe | uncertain)
and p(uncertain | unsafe), and Wilson score confidence intervals for both.
The same machinery scores a detector's predictions via confusion matrices.
"""

from flightwatch import ConfusionMatrix, agreement_stats_from_counts, metrics, wilson


def show_interval(name, interval):
    if interval is None:
        print(f"  {name}: undefined (empty conditioning event)")
        return
    print(f"  {name}: {100 * interval.point:.1f}% "
          f"[{100 * interval.low:.1f}, {100 * interval.high:.1f}]% "
          f"at confidence {interval.gamma}")


# ---------------------------------------------------------------------------
# Joint label counts from a hypothetical labeled campaign of 240 flights,
# read as the certainty label predicting the safety label:
# tp = unsafe & uncertain, fp = safe & uncertain, fn = unsafe & certain,
# tn = safe & certain.
# ---------------------------------------------------------------------------
counts = ConfusionMatrix(tp=34, fp=21, fn=11, tn=174)
stats = agreement_stats_from_counts(counts, gamma=0.95)
print(f"{counts.total} labeled flights")
print(f"  agreement accuracy: {100 * stats.agreement_accuracy:.1f}%")
show_interval("p(unsafe | uncertain)", stats.p_unsafe_given_uncertain)
show_interval("p(uncertain | unsafe)", stats.p_uncertain_given_unsafe)

# ---------------------------------------------------------------------------
# Wilson intervals directly: narrow with plentiful data, wide when scarce.
# ---------------------------------------------------------------------------
print("\nWilson interval behavior:")
for k, n in [(7, 10), (70, 100), (700, 1000)]:
    iv = wilson(k, n)
    print(f"  {k}/{n}: [{100 * iv.low:.1f}, {100 * iv.high:.1f}]%")

# ---------------------------------------------------------------------------
# Detector scoring: a confusion matrix and the derived metrics.
# ---------------------------------------------------------------------------
cm = ConfusionMatrix(tp=41, fp=6, fn=9, tn=184)
m = metrics(cm)
print(f"\ndetector scored on {cm.total} flights: "
      + ", ".join(f"{k}={100 * v:.1f}%" for k, v in m.items()))
