"""End-to-end walkthrough: generate flights, train, calibrate, detect, evaluate.

Runs a desk-scale version of the full pipeline in memory using the library API
(the `flightwatch` CLI wraps the same calls).  Takes about a minute on a
laptop; all numbers are deterministic for the chosen seed.
"""

import numpy as np

from flightwatch import (
    DetectorConfig,
    PreprocessConfig,
    SynthConfig,
    TrainConfig,
    calibrate_threshold,
    dataset_report,
    detect_stream,
    filter_nominal_from_windows,
    generate,
    lead_time_analysis,
    preprocess_flight,
    report_to_dict,
    train,
)
from flightwatch.synthgen import OBSTACLE

# ---------------------------------------------------------------------------
# 1. Synthetic flights with known ground truth.
#    Training data is nominal-only: certain heading profiles, safe distances.
# ---------------------------------------------------------------------------
train_set = generate(SynthConfig(seed=7), {"certain_safe": 30})
held_out = generate(SynthConfig(seed=8), {
    "certain_safe": 8, "uncertain_safe": 8, "uncertain_unsafe": 8, "certain_unsafe": 4,
})
print(f"generated {len(train_set.flights)} training and "
      f"{len(held_out.flights)} held-out flights")

# ---------------------------------------------------------------------------
# 2. Preprocess: unwrap the heading channel, resample to 5 Hz, slice into
#    5 s windows with 2.5 s overlap, zero-center, annotate obstacle distances,
#    and keep the nominal subset (>3 m clearance for the next 50 s).
# ---------------------------------------------------------------------------
pconf = PreprocessConfig()
nominal = []
for flight in train_set.flights:
    windows, _ = preprocess_flight(flight.log, pconf, obstacles=[OBSTACLE])
    nominal.extend(filter_nominal_from_windows(windows, pconf))
print(f"nominal training windows: {len(nominal)} "
      f"(each {pconf.window_samples} samples)")

# ---------------------------------------------------------------------------
# 3. Train the convolutional autoencoder on the nominal windows.
# ---------------------------------------------------------------------------
model = train(nominal, TrainConfig(seed=7, max_epochs=120), preprocess=pconf)
print(f"trained {model.epochs_trained} epochs, "
      f"final training loss {model.final_loss:.4f}")

# ---------------------------------------------------------------------------
# 4. Calibrate the alarm threshold from the nominal reconstruction losses.
# ---------------------------------------------------------------------------
losses = model.reconstruction_losses(nominal)
calibration = calibrate_threshold(losses, quantile=0.999)
model.threshold = calibration["suggested_threshold"]
print(f"nominal loss median {np.median(losses):.3f}, "
      f"calibrated threshold {model.threshold:.3f}")

# ---------------------------------------------------------------------------
# 5. Detect: per-window reconstruction loss, rolling mean over 4 windows,
#    alarms wherever the mean exceeds the threshold; lead-time analysis against
#    the obstacle-distance trace.
# ---------------------------------------------------------------------------
det_config = DetectorConfig(threshold=model.threshold, n_consecutive=4)
reports = []
labels = {}
for flight in held_out.flights:
    windows, trace = preprocess_flight(flight.log, pconf, obstacles=[OBSTACLE])
    # the report document, as `flightwatch detect` writes it to reports/<id>.json
    report = lead_time_analysis(report_to_dict(detect_stream(model, windows, det_config)),
                                trace, det_config)
    reports.append(report)
    labels[flight.log.flight_id] = flight.labels
    if report["flight_uncertain"]:
        print(f"  {report['flight_id']}: first alarm at {report['first_alarm_time_s']:.1f}s"
              + (f", lead time {report['lead_time_s']:.1f}s"
                 if report["lead_time_s"] is not None else ""))

# ---------------------------------------------------------------------------
# 6. Evaluate against the ground-truth labels: confusion matrices for both
#    axes, agreement statistics, and lead-time summaries.
# ---------------------------------------------------------------------------
doc = dataset_report(reports, labels)
for axis, evaluation in doc["ground_truth"].items():
    shown = {k: (f"{100 * v:.1f}%" if v is not None else "n/a")
             for k, v in evaluation["metrics"].items()}
    print(f"{axis} ground truth: {shown}")
lead = doc["lead_time"]
if lead["mean_s"] is not None:
    print(f"mean lead time {lead['mean_s']:.1f}s over "
          f"{lead['count']} flights, mean distance at first alarm "
          f"{doc['distance_at_first_alarm']['mean_m']:.2f}m")
