"""Command-line surface tying the modules into reproducible pipelines.

Commands: preprocess, train, calibrate, detect, evaluate, fitness, synth.
Every command accepts --seed/--out/--config, snapshots its effective
parameters into an atomically written run manifest next to its outputs, and
exits 1 iff some items failed and the rest were processed (a flight, or a
``detect --stream`` row, which is reported on stderr and skipped), 2 on bad
input.  All numeric defaults are overridable by flags or by a flat key-value
JSON config file (flag names with underscores); explicit flags win over the
config file.  Window geometry is read from windows.csv by train and calibrate
and from the model by ``detect``, never guessed (``--windows/--stream`` reject
windows of another length or sample count).  ``detect`` warns when no
calibrated threshold is given and records it in its manifest.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
import time
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import __version__, autoenc, detector, evalstats, preprocess, synthgen
from .flightdata import parse_flight_log, parse_labels, parse_obstacles
from .geometry import FitnessParams, fitness_components, trajectory_from_log

MANIFEST_NAME = "run_manifest.json"


def _write_manifest(outdir: Path, command: str, config: dict, inputs: list,
                    outputs: list, seed, started: float, **extra) -> None:
    doc = {
        **extra,
        "command": command,
        "tool": "flightwatch",
        "version": __version__,
        "config": config,
        "inputs": [str(p) for p in inputs],
        "outputs": [str(p) for p in outputs],
        "seed": seed,
        "started_at_utc": datetime.fromtimestamp(started, tz=timezone.utc).isoformat(),
        "duration_s": time.time() - started,
    }
    outdir.mkdir(parents=True, exist_ok=True)
    tmp = outdir / (MANIFEST_NAME + ".tmp")
    tmp.write_text(json.dumps(doc, sort_keys=True, indent=2) + "\n", encoding="utf-8")
    tmp.replace(outdir / MANIFEST_NAME)


def _config_snapshot(args: argparse.Namespace) -> dict:
    skip = {"func", "config"}
    return {k: v for k, v in sorted(vars(args).items()) if k not in skip}


def _load_config_file(path: str) -> dict:
    doc = json.loads(Path(path).read_text(encoding="utf-8"))
    if not isinstance(doc, dict):
        raise SystemExit(f"config file {path} must hold a flat JSON object")
    return doc


def _sorted_logs(logs_dir: str) -> list[Path]:
    paths = sorted(Path(logs_dir).glob("*.csv"))
    if not paths:
        raise SystemExit(f"no .csv flight logs found in {logs_dir}")
    return paths


def cmd_preprocess(args) -> int:
    started = time.time()
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    config = preprocess.PreprocessConfig(
        window_length=args.window_s, overlap=args.overlap_s, sample_rate=args.rate_hz)
    obstacles = None
    if args.obstacles:
        obstacles = parse_obstacles(args.obstacles)
    elif args.require_distances:
        raise SystemExit("--require-distances needs --obstacles")
    labels = parse_labels(args.labels) if args.labels else {}
    windows = []
    failures = []
    for path in _sorted_logs(args.logs):
        fid = path.stem
        try:
            log = parse_flight_log(path, flight_id=fid)
            flight_windows, trace = preprocess.preprocess_flight(
                log, config, obstacles=obstacles, labels=labels.get(fid))
            if args.require_distances and trace is None:
                raise ValueError("no distance trace (missing position channel)")
            windows.extend(flight_windows)
        except Exception as exc:  # noqa: BLE001 - per-flight isolation
            failures.append((fid, exc))
            print(f"error: flight {fid}: {exc}", file=sys.stderr)
    windows_path = out / "windows.csv"
    preprocess.write_windows_csv(windows, windows_path,
                                 window_samples=config.window_samples)
    print(f"wrote {len(windows)} windows (W={config.window_samples}) to {windows_path}")
    _write_manifest(out, "preprocess", _config_snapshot(args),
                    [args.logs, args.obstacles or "", args.labels or ""],
                    [windows_path], args.seed, started)
    return 1 if failures else 0


def cmd_train(args) -> int:
    started = time.time()
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    windows = preprocess.read_windows_csv(args.windows)
    if not windows:
        raise SystemExit(f"no windows in {args.windows}")
    pconf = preprocess.config_from_windows(
        windows, nominal_distance=args.nominal_dist, nominal_lookahead=args.lookahead_s)
    nominal = preprocess.filter_nominal_from_windows(windows, pconf)
    if not nominal:
        raise SystemExit("zero nominal windows after filtering; nothing to train on")
    print(f"training on {len(nominal)} nominal windows "
          f"(of {len(windows)} total, filter >{args.nominal_dist}m "
          f"over next {args.lookahead_s}s)")
    tconf = autoenc.TrainConfig(
        learning_rate=args.lr, batch_size=args.batch_size, max_epochs=args.max_epochs,
        patience=args.patience, min_delta=args.min_delta, seed=args.seed)
    model = autoenc.train(nominal, tconf, preprocess=pconf)
    model_path = out / "model.json"
    autoenc.save_model(model, model_path)
    print(f"trained {model.epochs_trained} epochs, final loss {model.final_loss:.6g}; "
          f"model written to {model_path}")
    _write_manifest(out, "train", _config_snapshot(args), [args.windows],
                    [model_path], args.seed, started)
    return 0


def cmd_calibrate(args) -> int:
    started = time.time()
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    model = autoenc.load_model(args.model)
    windows = preprocess.read_windows_csv(args.windows)
    if not windows:
        raise SystemExit(f"no windows in {args.windows}")
    if not args.no_filter:
        pconf = preprocess.config_from_windows(
            windows, nominal_distance=args.nominal_dist, nominal_lookahead=args.lookahead_s)
        windows = preprocess.filter_nominal_from_windows(windows, pconf)
        if not windows:
            raise SystemExit("zero nominal windows after filtering")
    losses = model.reconstruction_losses(windows)
    result = detector.calibrate_threshold(losses, quantile=args.quantile, bins=args.bins)
    hist_path = out / "loss_histogram.csv"
    with open(hist_path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["bin_low", "bin_high", "count", "log10_count"])
        for lo, hi, count, log10 in result.histogram_rows():
            writer.writerow([repr(lo), repr(hi), count,
                             "" if log10 is None else repr(log10)])
    calib_path = out / "calibration.json"
    calib_path.write_text(json.dumps(
        {"suggested_threshold": result.threshold, "quantile": result.quantile,
         "n_losses": result.n_losses, "max_loss": float(np.max(losses))},
        sort_keys=True, indent=2) + "\n", encoding="utf-8")
    outputs = [hist_path, calib_path]
    theta = args.set_threshold if args.set_threshold is not None else (
        result.threshold if args.apply else None)
    if theta is not None:
        model.threshold = float(theta)
        model_path = out / "model.json"
        autoenc.save_model(model, model_path)
        outputs.append(model_path)
        print(f"threshold {model.threshold!r} written into {model_path}")
    print(f"suggested threshold (quantile {args.quantile}): {result.threshold!r} "
          f"from {result.n_losses} nominal losses")
    _write_manifest(out, "calibrate", _config_snapshot(args),
                    [args.model, args.windows], outputs, args.seed, started)
    return 0


def cmd_detect(args) -> int:
    started = time.time()
    model = autoenc.load_model(args.model)
    det_config = detector.DetectorConfig.from_model(
        model, threshold=args.threshold, n_consecutive=args.n_consecutive,
        critical_distance=args.critical_dist)
    calibrated = args.threshold is not None or model.threshold is not None
    if not calibrated:
        print(f"warning: {args.model} has no calibrated threshold and no --threshold "
              f"was given; using the default {det_config.threshold!r}", file=sys.stderr)
    if args.stream:
        return _detect_stream_stdin(model, det_config)
    if not args.out:
        raise SystemExit("--out is required (unless running with --stream)")
    out = Path(args.out)
    reports_dir = out / "reports"
    reports_dir.mkdir(parents=True, exist_ok=True)
    obstacles = parse_obstacles(args.obstacles) if args.obstacles else None
    reports = []
    failures = []
    inputs = []
    if args.log or args.logs:
        paths = [Path(args.log)] if args.log else _sorted_logs(args.logs)
        inputs = [str(p) for p in paths]
        if None in (model.window_length, model.overlap, model.sample_rate):
            raise ValueError("model has no window geometry (window_length, overlap, "
                             "sample_rate) to cut logs with; retrain it or use --windows")
        pconf = preprocess.PreprocessConfig(window_length=model.window_length,
                                            overlap=model.overlap,
                                            sample_rate=model.sample_rate)
        for path in paths:
            fid = path.stem
            try:
                log = parse_flight_log(path, flight_id=fid)
                windows, trace = preprocess.preprocess_flight(log, pconf,
                                                              obstacles=obstacles)
                report = detector.detect_stream(model, windows, det_config)
                reports.append(detector.lead_time_analysis(report, trace, det_config))
            except Exception as exc:  # noqa: BLE001 - per-flight isolation
                failures.append((fid, exc))
                print(f"error: flight {fid}: {exc}", file=sys.stderr)
    elif args.windows:
        inputs = [args.windows]
        by_flight: dict[str, list] = {}
        windows = preprocess.read_windows_csv(args.windows, model.window_length)
        if windows:
            _check_width(f"{args.windows}: windows", windows[0].values.size, model)
        for w in windows:
            by_flight.setdefault(w.flight_id, []).append(w)
        for fid in sorted(by_flight):
            try:
                flight_windows = sorted(by_flight[fid], key=lambda w: w.index)
                reports.append(detector.detect_stream(model, flight_windows, det_config))
            except Exception as exc:  # noqa: BLE001
                failures.append((fid, exc))
                print(f"error: flight {fid}: {exc}", file=sys.stderr)
    else:
        raise SystemExit("one of --log, --logs, --windows, or --stream is required")
    outputs = []
    for rep in reports:
        path = reports_dir / f"{rep.flight_id}.json"
        detector.write_report(rep, path)
        outputs.append(path)
    alarms_path = out / "alarms.csv"
    alarms_path.write_text(detector.alarms_csv(reports), encoding="utf-8")
    outputs.append(alarms_path)
    n_alarms = sum(len(r.alarms) for r in reports)
    n_uncertain = sum(r.flight_uncertain for r in reports)
    print(f"detected on {len(reports)} flights: {n_uncertain} uncertain, "
          f"{n_alarms} alarms (threshold {det_config.threshold!r}, "
          f"n={det_config.n_consecutive})")
    _write_manifest(out, "detect", _config_snapshot(args), inputs, outputs,
                    args.seed, started, threshold_calibrated=calibrated)
    return 1 if failures else 0


def _check_width(what: str, width: int, model) -> None:
    """ValueError (exit 2) unless windows of ``width`` samples fit the model."""
    if width != model.input_length:
        raise ValueError(f"{what} have {width} samples, "
                         f"the model expects {model.input_length}")


def _detect_stream_stdin(model, det_config) -> int:
    """Read windowed-CSV rows from stdin; emit alarm rows as they occur.

    A malformed or out-of-order row is reported on stderr and skipped; the
    rest are still scored.  Returns 1 iff a row was skipped.
    """
    skipped = 0
    try:
        reader = csv.reader(sys.stdin)
        header = next(reader, None)
        if header is None:
            return 0
        width = preprocess.windows_csv_width(header)
        _check_width("stream windows", width, model)
        writer = csv.writer(sys.stdout, lineterminator="\n")
        writer.writerow(detector.ALARMS_CSV_HEADER)
        sys.stdout.flush()
        detectors: dict[str, detector.StreamDetector] = {}
        for row in reader:
            if not row:
                continue
            try:
                win = preprocess.parse_window_row(row, width, model.window_length)
                if win.flight_id not in detectors:
                    detectors[win.flight_id] = detector.StreamDetector(
                        model, det_config, win.flight_id)
                alarm = detectors[win.flight_id].update(win)
            except ValueError as exc:
                skipped += 1
                print(f"error: row {reader.line_num}: {exc}", file=sys.stderr)
                continue
            if alarm is not None:
                writer.writerow(detector.alarm_row(win.flight_id, alarm))
                sys.stdout.flush()
    except BrokenPipeError:
        # the consumer went away (e.g. piped into head); leave quietly and
        # hand the interpreter a writable stdout so shutdown does not complain
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    return 1 if skipped else 0


def cmd_evaluate(args) -> int:
    started = time.time()
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    report_paths = sorted(Path(args.reports).glob("*.json"))
    report_paths = [p for p in report_paths if p.name != MANIFEST_NAME]
    if not report_paths:
        raise SystemExit(f"no report JSON files in {args.reports}")
    reports = [detector.read_report(p) for p in report_paths]
    labels = parse_labels(args.labels)
    doc = evalstats.dataset_report(reports, labels, gamma=args.gamma)
    eval_path = out / "evaluation.json"
    evalstats.write_evaluation_json(doc, eval_path)
    table_paths = evalstats.write_evaluation_tables(doc, out)
    axes = {"certainty": [doc.uncertainty], "safety": [doc.safety],
            "both": [doc.uncertainty, doc.safety]}[args.ground_truth]
    for ax in axes:
        m = ax.metrics
        parts = [f"{k}={100 * v:.1f}%" if v is not None else f"{k}=n/a"
                 for k, v in m.items()]
        print(f"{ax.ground_truth} ground truth: " + ", ".join(parts))
    if doc.lead_time_mean is not None:
        print(f"lead time: mean {doc.lead_time_mean:.1f}s, "
              f"median {doc.lead_time_median:.1f}s over {len(doc.lead_times)} flights; "
              f"mean distance at first alarm "
              f"{doc.mean_distance_at_first_alarm:.2f}m")
    _write_manifest(out, "evaluate", _config_snapshot(args),
                    [args.reports, args.labels], [eval_path] + table_paths,
                    args.seed, started)
    return 0


def cmd_fitness(args) -> int:
    started = time.time()
    out = Path(args.out) if args.out else None
    obstacles = parse_obstacles(args.obstacles)
    trajs = []
    for path in _sorted_logs(args.logs):
        log = parse_flight_log(path, flight_id=path.stem)
        trajs.append(trajectory_from_log(log))
    params = FitnessParams(max_dtw=args.max_dtw, n_executions=len(trajs))
    comps = fitness_components(trajs, obstacles, params, resample_n=args.resample_n)
    print(f"fitness={comps['fitness']!r} (sum_dist={comps['sum_dist']!r}, "
          f"ave_dtw={comps['ave_dtw']!r}, max_dtw={args.max_dtw!r}, "
          f"n={len(trajs)})")
    if out is not None:
        out.mkdir(parents=True, exist_ok=True)
        fit_path = out / "fitness.json"
        fit_path.write_text(json.dumps(comps, sort_keys=True, indent=2) + "\n",
                            encoding="utf-8")
        _write_manifest(out, "fitness", _config_snapshot(args),
                        [args.logs, args.obstacles], [fit_path], args.seed, started)
    return 0


def cmd_synth(args) -> int:
    started = time.time()
    out = Path(args.out)
    try:
        counts = [int(tok) for tok in args.counts.split(",")]
    except ValueError:
        raise SystemExit(f"bad --counts {args.counts!r}, expected 4 integers") from None
    if len(counts) != len(synthgen.CLASS_NAMES) or any(c < 0 for c in counts):
        raise SystemExit(f"--counts needs {len(synthgen.CLASS_NAMES)} non-negative "
                         f"integers in order {','.join(synthgen.CLASS_NAMES)}")
    config = synthgen.SynthConfig(seed=args.seed, flight_duration=args.duration,
                                  sample_rate=args.rate_hz, noise_std=args.noise_std)
    dataset = synthgen.generate(config, dict(zip(synthgen.CLASS_NAMES, counts)))
    paths = synthgen.write_dataset(dataset, out)
    print(f"generated {len(dataset.flights)} flights "
          f"({', '.join(f'{k}={v}' for k, v in dataset.counts.items())}) in {out}")
    _write_manifest(out, "synth", _config_snapshot(args), [],
                    [p for p in paths.values()], args.seed, started)
    return 0


def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--seed", type=int, default=0, help="random seed")
    common.add_argument("--out", default=None, help="output directory")
    common.add_argument("--config", default=None,
                        help="flat JSON file of flag defaults (flags override it)")

    parser = argparse.ArgumentParser(
        prog="flightwatch",
        description="Decision-uncertainty detection for UAV flight logs")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("preprocess", parents=[common],
                       help="build the windowed heading dataset from flight logs")
    p.add_argument("--logs", required=True, help="directory of flight-log CSVs")
    p.add_argument("--obstacles", default=None, help="obstacle JSON file")
    p.add_argument("--labels", default=None, help="labels CSV to attach")
    p.add_argument("--window-s", type=float, default=5.0, dest="window_s")
    p.add_argument("--overlap-s", type=float, default=2.5, dest="overlap_s")
    p.add_argument("--rate-hz", type=float, default=5.0, dest="rate_hz")
    p.add_argument("--require-distances", action="store_true")
    p.set_defaults(func=cmd_preprocess)

    p = sub.add_parser("train", parents=[common],
                       help="train the autoencoder on nominal windows")
    p.add_argument("--windows", required=True, help="windowed dataset CSV")
    p.add_argument("--nominal-dist", type=float, default=3.0, dest="nominal_dist")
    p.add_argument("--lookahead-s", type=float, default=50.0, dest="lookahead_s")
    p.add_argument("--lr", type=float, default=1e-3)
    p.add_argument("--batch-size", type=int, default=128, dest="batch_size")
    p.add_argument("--max-epochs", type=int, default=300, dest="max_epochs")
    p.add_argument("--patience", type=int, default=20)
    p.add_argument("--min-delta", type=float, default=1e-5, dest="min_delta")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("calibrate", parents=[common],
                       help="suggest an alarm threshold from nominal losses")
    p.add_argument("--model", required=True)
    p.add_argument("--windows", required=True, help="windowed dataset CSV")
    p.add_argument("--quantile", type=float, default=0.999)
    p.add_argument("--bins", type=int, default=50)
    p.add_argument("--nominal-dist", type=float, default=3.0, dest="nominal_dist")
    p.add_argument("--lookahead-s", type=float, default=50.0, dest="lookahead_s")
    p.add_argument("--no-filter", action="store_true",
                   help="treat all given windows as nominal")
    p.add_argument("--apply", action="store_true",
                   help="write the calibrated threshold into a model copy")
    p.add_argument("--set-threshold", type=float, default=None, dest="set_threshold",
                   help="write this threshold into a model copy")
    p.set_defaults(func=cmd_calibrate)

    p = sub.add_parser("detect", parents=[common],
                       help="run uncertainty detection over flights")
    p.add_argument("--model", required=True)
    p.add_argument("--log", default=None, help="single flight-log CSV")
    p.add_argument("--logs", default=None, help="directory of flight-log CSVs")
    p.add_argument("--windows", default=None, help="windowed dataset CSV")
    p.add_argument("--obstacles", default=None,
                   help="obstacle JSON (enables lead-time analysis)")
    p.add_argument("--threshold", type=float, default=None)
    p.add_argument("--n-consecutive", type=int, default=None, dest="n_consecutive")
    p.add_argument("--critical-dist", type=float, default=1.0, dest="critical_dist")
    p.add_argument("--stream", action="store_true",
                   help="read windowed-CSV rows from stdin, emit alarms to stdout")
    p.set_defaults(func=cmd_detect)

    p = sub.add_parser("evaluate", parents=[common],
                       help="aggregate detection reports against labels")
    p.add_argument("--reports", required=True, help="directory of report JSON files")
    p.add_argument("--labels", required=True, help="labels CSV")
    p.add_argument("--ground-truth", choices=["both", "certainty", "safety"],
                   default="both", dest="ground_truth")
    p.add_argument("--gamma", type=float, default=0.95)
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("fitness", parents=[common],
                       help="execution-spread fitness of one test case")
    p.add_argument("--logs", required=True,
                   help="directory of logs: one test case's executions")
    p.add_argument("--obstacles", required=True)
    p.add_argument("--max-dtw", type=float, default=65.0, dest="max_dtw")
    p.add_argument("--resample-n", type=int, default=200, dest="resample_n")
    p.set_defaults(func=cmd_fitness)

    p = sub.add_parser("synth", parents=[common],
                       help="generate a labeled synthetic dataset")
    p.add_argument("--counts", default="10,10,10,5",
                   help="flights per class: " + ",".join(synthgen.CLASS_NAMES))
    p.add_argument("--duration", type=float, default=300.0)
    p.add_argument("--noise-std", type=float, default=1.0, dest="noise_std")
    p.add_argument("--rate-hz", type=float, default=5.0, dest="rate_hz")
    p.set_defaults(func=cmd_synth)

    return parser


_NEEDS_OUT = {"preprocess", "train", "calibrate", "evaluate", "synth"}


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.config:
        overrides = _load_config_file(args.config)
        # reparse with config values as defaults so explicit flags still win
        sub_actions = next(a for a in parser._actions
                           if isinstance(a, argparse._SubParsersAction))
        subparser = sub_actions.choices[args.command]
        known = {a.dest for a in subparser._actions}
        unknown = set(overrides) - known
        if unknown:
            raise SystemExit(f"unknown config keys: {sorted(unknown)}")
        subparser.set_defaults(**overrides)
        args = parser.parse_args(argv)
    if args.command in _NEEDS_OUT and not args.out:
        raise SystemExit(f"{args.command} requires --out")
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
