"""Per-layer metrics, the per-stage table and computed kernel counts.

Times come from the spans of a traced run (its one set-up plus its timed
operations).  The ``<layer>.self_s`` breakdown covers the timed operations
only, so that it adds up, with ``unattributed.self_s``, to ``timed.wall_s``.
"""

from __future__ import annotations

import numpy as np

from instrument import KERNEL_BATCH, LAYERS
from tracing import Tracer, roots

CLI_STAGES = ("synth", "preprocess", "train", "calibrate", "detect", "evaluate", "fitness")
MODEL_LAYERS = ("enc1", "enc2", "dec1", "dec2", "out", "dropout")
_F64 = 8


def kernel_counts(model, batch: int = KERNEL_BATCH) -> dict[str, float]:
    """FLOPs and bytes of the autoencoder's matrix products, from layer shapes.

    Each conv or transposed-conv layer is one product forward and two
    backward (weight and input gradients), each of 2*cin*cout*k*positions
    FLOPs per window.  Bytes count each float64 operand of each product once
    (both inputs and the output) plus the Adam update, which reads
    parameter, gradient and both moments and writes parameter and moments.
    Dropout, ReLU and the loss are elementwise and left out.
    """
    lengths = model.shape_chain()
    fwd_flop = 0
    step_bytes = 0
    n_params = 0
    for i, layer in enumerate(model.layers):
        if layer.kind not in ("conv", "conv_transpose"):
            continue
        cin, cout, k = layer.in_channels, layer.out_channels, layer.kernel_size
        # positions a weight visits: output positions for conv, input for transpose
        pos = lengths[i + 1] if layer.kind == "conv" else lengths[i]
        cols = pos * batch
        fwd_flop += 2 * cin * cout * k * pos
        if layer.kind == "conv":
            products = [(cout, cin * k, cols), (cout, cols, cin * k), (cin * k, cout, cols)]
        else:
            products = [(cout * k, cin, cols), (cin, cout * k, cols), (cin, cols, cout * k)]
        step_bytes += sum(_F64 * (m * kk + kk * n + m * n) for m, kk, n in products)
        n_params += layer.w.size + layer.b.size
    step_bytes += 7 * _F64 * n_params
    return {
        "flop_per_window_train": 3.0 * fwd_flop,
        "autoenc.train_step.mflop": 3.0 * fwd_flop * batch / 1e6,
        "autoenc.train_step.bytes": float(step_bytes),
        "autoenc.infer.mflop_per_window": fwd_flop / 1e6,
    }


class _Spans:
    def __init__(self, tracer: Tracer):
        self.c = tracer.columns()
        self.ids = {name: i for i, name in enumerate(tracer.names)}
        self.names = tracer.names

    def mask(self, name: str, where=None) -> np.ndarray:
        nid = self.ids.get(name)
        if nid is None:
            return np.zeros(self.c["dur"].size, dtype=bool)
        m = self.c["name_id"] == nid
        return m if where is None else m & where

    def count(self, name: str, where=None) -> int:
        return int(self.mask(name, where).sum())

    def total(self, name: str, column: str = "dur", where=None) -> float:
        return float(self.c[column][self.mask(name, where)].sum())


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer, timed_from: int, timed_wall: float,
                  untraced_wall: float, kernels: dict[str, float]) -> dict[str, float]:
    s = _Spans(tracer)
    c = s.c
    m: dict[str, float] = {}

    def per_call(key, name, scale, column="dur", where=None):
        m[key] = _ratio(s.total(name, column, where) * scale, s.count(name, where))

    def per_work(key, name, scale, column="dur"):
        m[key] = _ratio(s.total(name, column) * scale, s.total(name, "work"))

    per_call("flightdata.parse_flight_log.ms_per_flight", "flightdata.parse_flight_log", 1e3)
    m["flightdata.parse_flight_log.records_per_s"] = _ratio(
        s.total("flightdata.parse_flight_log", "work"), s.total("flightdata.parse_flight_log"))
    per_call("flightdata.write_flight_log.ms_per_flight", "flightdata.write_flight_log", 1e3)

    per_work("synthgen.generate.ms_per_flight", "synthgen.generate", 1e3, "self")
    per_work("synthgen.write_dataset.ms_per_flight", "synthgen.write_dataset", 1e3, "self")

    per_call("preprocess.preprocess_flight.ms_per_flight", "preprocess.preprocess_flight",
             1e3, "self")
    for fn in ("make_windows", "read_windows_csv", "filter_nominal_from_windows",
               "write_windows_csv"):
        per_work(f"preprocess.{fn}.us_per_window", f"preprocess.{fn}", 1e6)
    m["preprocess.windows"] = s.total("preprocess.make_windows", "work")
    m["preprocess.nominal_windows"] = float(tracer.counters.get("preprocess.nominal_windows", 0))
    m["preprocess.nominal_kept_ratio"] = _ratio(
        m["preprocess.nominal_windows"], s.total("preprocess.filter_nominal_from_windows", "work"))

    per_call("geometry.trajectory_from_log.ms_per_flight", "geometry.trajectory_from_log", 1e3)
    per_call("geometry.min_obstacle_distance.ms_per_flight",
             "geometry.min_obstacle_distance", 1e3)
    per_call("geometry.DistanceTrace.range_min.us_per_call",
             "geometry.DistanceTrace.range_min", 1e6)
    per_call("geometry.dtw.ms_per_call", "geometry.dtw", 1e3)
    m["geometry.dtw.cells"] = _ratio(s.total("geometry.dtw", "work"), s.count("geometry.dtw"))
    per_call("geometry.resample_by_arclength.ms_per_call", "geometry.resample_by_arclength", 1e3)

    steps = s.count("autoenc.loss_and_grads")
    trains = s.count("autoenc.train")
    per_call("autoenc.loss_and_grads.ms_per_step", "autoenc.loss_and_grads", 1e3)
    m["autoenc.train.self_ms_per_step"] = _ratio(s.total("autoenc.train", "self") * 1e3, steps)
    for layer in MODEL_LAYERS:
        for method in ("forward", "backward"):
            per_call(f"autoenc.{layer}.{method}_ms", f"autoenc.{layer}.{method}", 1e3)
    m["autoenc.train.steps"] = _ratio(steps, trains)
    m["autoenc.train.epochs"] = _ratio(s.total("autoenc.train", "work"), trains)
    per_call("autoenc.forward.us_per_window", "autoenc.forward", 1e6, where=c["work"] == 1)
    per_work("autoenc.reconstruction_losses.us_per_window", "autoenc.reconstruction_losses", 1e6)
    per_call("autoenc.save_model.ms", "autoenc.save_model", 1e3)
    per_call("autoenc.load_model.ms", "autoenc.load_model", 1e3)
    for key in ("autoenc.train_step.mflop", "autoenc.train_step.bytes",
                "autoenc.infer.mflop_per_window"):
        m[key] = kernels[key]
    trained_windows = s.total("autoenc.loss_and_grads", "work")
    m["autoenc.train_step.gflops"] = _ratio(
        kernels["flop_per_window_train"] * trained_windows / 1e9, s.total("autoenc.train"))

    per_call("detector.StreamDetector.update.self_us", "detector.StreamDetector.update",
             1e6, "self")
    per_call("detector.write_report.ms_per_flight", "detector.write_report", 1e3)
    per_call("detector.lead_time_analysis.us_per_flight", "detector.lead_time_analysis", 1e6)
    per_call("detector.calibrate_threshold.ms", "detector.calibrate_threshold", 1e3)
    m["detector.windows_scored"] = float(s.count("detector.StreamDetector.update"))
    m["detector.alarms"] = s.total("detector.StreamDetector.update", "work")

    per_call("evalstats.dataset_report.ms", "evalstats.dataset_report", 1e3)

    for stage in CLI_STAGES:
        per_call(f"cli.{stage}.self_ms", f"cli.{stage}", 1e3, "self")

    for layer in LAYERS:
        m[f"{layer}.failed"] = float(tracer.failed.get(layer, 0))

    # self-time breakdown of the timed operations
    timed = np.arange(c["dur"].size) >= timed_from
    layer_of = np.array([name.split(".", 1)[0] for name in s.names] or [""])[c["name_id"]]
    for layer in LAYERS:
        m[f"{layer}.self_s"] = float(c["self"][timed & (layer_of == layer)].sum())
    top = timed & (c["parent"] < 0)
    m["unattributed.self_s"] = timed_wall - float(c["dur"][top].sum())
    m["timed.wall_s"] = timed_wall
    m["trace.overhead_s"] = timed_wall - untraced_wall
    m["trace.overhead_frac"] = _ratio(timed_wall - untraced_wall, untraced_wall)
    return m


def stage_table(tracer: Tracer, timed_from: int) -> str:
    """Markdown table: one row per top-level span name and phase, with the two
    wrapped calls of largest self time beneath it."""
    s = _Spans(tracer)
    c = s.c
    if c["dur"].size == 0:
        return "| stage | time | dominant cost |\n| --- | --- | --- |\n"
    root = roots(c["parent"])
    phase = np.where(root >= timed_from, "timed", "setup")
    stage_key = np.char.add(np.char.add(np.array(s.names)[c["name_id"][root]], " @"), phase)
    rows = ["| stage | time | dominant cost |", "| --- | --- | --- |"]
    _, first = np.unique(stage_key, return_index=True)
    for key in stage_key[np.sort(first)]:
        members = stage_key == key
        tops = members & (c["parent"] < 0)
        name, ph = key.rsplit(" @", 1)
        by_fn: dict[str, float] = {}
        for nid, self_t in zip(c["name_id"][members], c["self"][members]):
            by_fn[s.names[nid]] = by_fn.get(s.names[nid], 0.0) + self_t
        costs = sorted(by_fn.items(), key=lambda kv: -kv[1])[:2]
        rows.append(f"| {name} ({ph}, {int(tops.sum())} calls) | {c['dur'][tops].sum():.3f} s | "
                    + "; ".join(f"{fn} self {t:.3f} s" for fn, t in costs) + " |")
    return "\n".join(rows) + "\n"


def self_time_table(tracer: Tracer) -> str:
    """Markdown table of every wrapped call over the whole traced run, by self time."""
    s = _Spans(tracer)
    c = s.c
    n = len(s.names)
    calls = np.bincount(c["name_id"], minlength=n)
    total = np.bincount(c["name_id"], weights=c["dur"], minlength=n)
    self_t = np.bincount(c["name_id"], weights=c["self"], minlength=n)
    rows = ["| wrapped call | calls | total s | self s |", "| --- | --- | --- | --- |"]
    for i in np.argsort(-self_t, kind="stable"):
        rows.append(f"| {s.names[i]} | {calls[i]} | {total[i]:.4f} | {self_t[i]:.4f} |")
    return "\n".join(rows) + "\n"
