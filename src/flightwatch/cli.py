"""Command-line surface tying the modules into reproducible pipelines.

Commands: preprocess, train, calibrate, detect, evaluate, fitness, synth.
Every command accepts --out/--config; synth and train, which draw random
numbers, also --seed.  ``main`` runs them all: given --out, it creates it and
atomically writes a run manifest of the effective parameters, inputs, outputs
and failures next to the outputs.  It exits 1 iff some items failed and the
rest were processed (a flight, or a ``detect --stream`` row, reported on
stderr and in the manifest's ``failures``), 2 on bad input or when every
flight of ``preprocess`` or ``detect`` failed (such a run writes nothing, so
its reasons are on stderr only; an --out it created goes if still empty), else 0.
A --config file is a flat JSON object keyed by flag name with underscores;
its entries are parsed as the flags they name, right after the command:
``true`` is the bare flag, ``false`` and ``null`` none, another value ``v``
``--<key>=<str(v)>``.  So an entry gets its flag's checks and conflicts, and
an explicit flag wins.  Window geometry is read from windows.csv by train and
calibrate and from the model by ``detect``, never guessed (``--windows`` and
``--stream`` reject windows of another length or sample count).  ``detect``
warns when no calibrated threshold is given and records it in its manifest.
"""

from __future__ import annotations

import argparse
import csv
import functools
import json
import os
import sys
import time
from datetime import datetime, timezone
from pathlib import Path

from . import __version__, autoenc, detector, evalstats, preprocess, synthgen
from .flightdata import parse_flight_log, parse_labels, parse_obstacles, write_json
from .geometry import fitness_components, trajectory_from_log

MANIFEST_NAME = "run_manifest.json"


class _EveryFlightFailed(Exception):
    """No flight was processed; each one's reason is already on stderr."""


def _write_manifest(args: argparse.Namespace, result: dict, started: float) -> None:
    """Write the run manifest into ``--out``: the command, its effective
    parameters and seed (all read from ``args``; the seed is None for commands
    that draw no random numbers), its result and timing."""
    doc = {
        **result,
        "command": args.command,
        "tool": "flightwatch",
        "version": __version__,
        "config": {k: v for k, v in sorted(vars(args).items())
                   if k not in ("func", "config")},
        "inputs": [str(p) for p in result["inputs"]],
        "outputs": [str(p) for p in result["outputs"]],
        "seed": getattr(args, "seed", None),
        "started_at_utc": datetime.fromtimestamp(started, tz=timezone.utc).isoformat(),
        "duration_s": time.time() - started,
    }
    outdir = Path(args.out)
    tmp = outdir / (MANIFEST_NAME + ".tmp")
    write_json(doc, tmp, indent=2)
    tmp.replace(outdir / MANIFEST_NAME)


def _config_flags(path: str, args: argparse.Namespace) -> list[str]:
    """The config file's entries as the flags of ``args.command`` they name."""
    try:
        doc = json.loads(Path(path).read_text(encoding="utf-8"))
    except ValueError as exc:
        raise ValueError(f"config file {path} is not JSON: {exc}") from None
    if not isinstance(doc, dict):
        raise ValueError(f"config file {path} must hold a flat JSON object")
    unknown = {k for k in doc if k not in vars(args) or k in ("func", "command")}
    if unknown:
        raise ValueError(f"unknown config keys: {sorted(unknown)}")
    return ["--" + k.replace("_", "-") + ("" if v is True else f"={v}")
            for k, v in doc.items() if v is not False and v is not None]


def _sorted_logs(logs_dir: str) -> list[Path]:
    paths = sorted(Path(logs_dir).glob("*.csv"))
    if not paths:
        raise ValueError(f"no .csv flight logs found in {logs_dir}")
    return paths


def _per_flight(items, work) -> tuple[list, dict[str, str]]:
    """Run ``work(item)`` for each ``(flight_id, item)`` pair.  A flight that
    raises is reported on stderr and skipped; the rest still run.  Returns
    the results of the flights that succeeded and ``{flight_id: reason}``,
    or raises :class:`_EveryFlightFailed` when there were flights and all failed."""
    results, failures = [], {}
    for fid, item in items:
        try:
            results.append(work(item))
        except Exception as exc:  # noqa: BLE001 - per-flight isolation
            failures[fid] = str(exc)
            print(f"error: flight {fid}: {exc}", file=sys.stderr)
    if failures and not results:
        raise _EveryFlightFailed
    return results, failures


def _nominal_windows(args) -> tuple[list, list, preprocess.PreprocessConfig | None]:
    """Read ``args.windows`` and filter it to nominal windows (all of them
    under ``--no-filter``).  Returns all windows, the nominal ones, and the
    geometry read from them (None under ``--no-filter``)."""
    windows = preprocess.read_windows_csv(args.windows)
    if not windows:
        raise ValueError(f"no windows in {args.windows}")
    if getattr(args, "no_filter", False):
        return windows, windows, None
    pconf = preprocess.config_from_windows(
        windows, nominal_distance=args.nominal_dist, nominal_lookahead=args.lookahead_s)
    nominal = preprocess.filter_nominal_from_windows(windows, pconf)
    if not nominal:
        raise ValueError("zero nominal windows after filtering")
    return windows, nominal, pconf


def cmd_preprocess(args) -> dict:
    config = preprocess.PreprocessConfig(
        window_length=args.window_s, overlap=args.overlap_s, sample_rate=args.rate_hz)
    if args.require_distances and not args.obstacles:
        raise ValueError("--require-distances needs --obstacles")
    obstacles = parse_obstacles(args.obstacles) if args.obstacles else None
    labels = parse_labels(args.labels) if args.labels else {}

    def windows_of(path):
        log = parse_flight_log(path, flight_id=path.stem)
        flight_windows, trace = preprocess.preprocess_flight(
            log, config, obstacles=obstacles, labels=labels.get(path.stem))
        if args.require_distances and trace is None:
            raise ValueError("no distance trace (missing position channel)")
        return flight_windows

    per_flight, failures = _per_flight(
        ((p.stem, p) for p in _sorted_logs(args.logs)), windows_of)
    windows = [w for flight_windows in per_flight for w in flight_windows]
    windows_path = Path(args.out) / "windows.csv"
    preprocess.write_windows_csv(windows, windows_path,
                                 window_samples=config.window_samples)
    print(f"wrote {len(windows)} windows (W={config.window_samples}) to {windows_path}")
    return {"inputs": [args.logs, args.obstacles or "", args.labels or ""],
            "outputs": [windows_path], "failures": failures}


def cmd_train(args) -> dict:
    windows, nominal, pconf = _nominal_windows(args)
    print(f"training on {len(nominal)} nominal windows "
          f"(of {len(windows)} total, filter >{args.nominal_dist}m "
          f"over next {args.lookahead_s}s)")
    tconf = autoenc.TrainConfig(
        learning_rate=args.lr, batch_size=args.batch_size, max_epochs=args.max_epochs,
        patience=args.patience, min_delta=args.min_delta, seed=args.seed)
    model = autoenc.train(nominal, tconf, preprocess=pconf)
    model_path = Path(args.out) / "model.json"
    autoenc.save_model(model, model_path)
    print(f"trained {model.epochs_trained} epochs, final loss {model.final_loss:.6g}; "
          f"model written to {model_path}")
    return {"inputs": [args.windows], "outputs": [model_path], "failures": {}}


def cmd_calibrate(args) -> dict:
    out = Path(args.out)
    model = autoenc.load_model(args.model)
    _, windows, _ = _nominal_windows(args)
    losses = model.reconstruction_losses(windows)
    calibration = detector.calibrate_threshold(losses, quantile=args.quantile, bins=args.bins)
    hist_path = out / "loss_histogram.csv"
    with open(hist_path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["bin_low", "bin_high", "count", "log10_count"])
        writer.writerows(calibration.pop("histogram"))  # None as "", a float as its repr
    calib_path = out / "calibration.json"
    write_json(calibration, calib_path, indent=2)
    outputs = [hist_path, calib_path]
    suggested = calibration["suggested_threshold"]
    theta = suggested if args.apply else args.set_threshold
    if theta is not None:
        model.threshold = float(theta)
        model_path = out / "model.json"
        autoenc.save_model(model, model_path)
        outputs.append(model_path)
        print(f"threshold {model.threshold!r} written into {model_path}")
    print(f"suggested threshold (quantile {args.quantile}): {suggested!r} "
          f"from {calibration['n_losses']} nominal losses")
    return {"inputs": [args.model, args.windows], "outputs": outputs, "failures": {}}


def cmd_detect(args) -> dict:
    model = autoenc.load_model(args.model)
    det_config = detector.DetectorConfig.from_model(
        model, threshold=args.threshold, n_consecutive=args.n_consecutive,
        critical_distance=args.critical_dist)
    calibrated = args.threshold is not None or model.threshold is not None
    if not calibrated:
        print(f"warning: {args.model} has no calibrated threshold and no --threshold "
              f"was given; using the default {det_config.threshold!r}", file=sys.stderr)
    if args.stream:
        return {"inputs": ["<stdin>"], "outputs": [], "threshold_calibrated": calibrated,
                "failures": _detect_stream_stdin(model, det_config)}
    obstacles = parse_obstacles(args.obstacles) if args.obstacles else None
    if args.log or args.logs:
        paths = [Path(args.log)] if args.log else _sorted_logs(args.logs)
        inputs = [str(p) for p in paths]
        if None in (model.window_length, model.overlap, model.sample_rate):
            raise ValueError("model has no window geometry (window_length, overlap, "
                             "sample_rate) to cut logs with; retrain it or use --windows")
        pconf = preprocess.PreprocessConfig(window_length=model.window_length,
                                            overlap=model.overlap,
                                            sample_rate=model.sample_rate)

        def flight(path):
            log = parse_flight_log(path, flight_id=path.stem)
            return (path.stem, *preprocess.preprocess_flight(log, pconf, obstacles=obstacles))

        flights = ((p.stem, p) for p in paths)
    elif args.windows:
        inputs = [args.windows]
        by_flight: dict[str, list] = {}
        windows = preprocess.read_windows_csv(args.windows, model.window_length)
        if windows:
            _check_width(f"{args.windows}: windows", windows[0].values.size, model)
        for w in windows:
            by_flight.setdefault(w.flight_id, []).append(w)
        flights = ((fid, sorted(by_flight[fid], key=lambda w: w.index))
                   for fid in sorted(by_flight))

        def flight(flight_windows):  # grouped by flight id; no distance trace
            return flight_windows[0].flight_id, flight_windows, None
    else:
        raise ValueError("one of --log, --logs, --windows, or --stream is required")
    out = Path(args.out)
    reports_dir = out / "reports"
    outputs = []

    def written(item):
        fid, windows, trace = flight(item)
        doc = detector.report_to_dict(detector.detect_stream(model, windows, det_config, fid))
        doc = detector.lead_time_analysis(doc, trace, det_config)
        name = f"{doc['flight_id']}.json"
        if Path(name).name != name:  # a path that may lead out of reports_dir
            raise ValueError(f"flight id {doc['flight_id']!r} is not a plain file name")
        reports_dir.mkdir(exist_ok=True)  # not before a flight succeeds
        detector.write_report(doc, reports_dir / name)
        outputs.append(reports_dir / name)
        return doc

    docs, failures = _per_flight(flights, written)
    alarms_path = out / "alarms.csv"
    alarms_path.write_text(detector.alarms_csv(docs), encoding="utf-8")
    outputs.append(alarms_path)
    n_alarms = sum(len(d["alarms"]) for d in docs)
    n_uncertain = sum(d["flight_uncertain"] for d in docs)
    print(f"detected on {len(docs)} flights: {n_uncertain} uncertain, "
          f"{n_alarms} alarms (threshold {det_config.threshold!r}, "
          f"n={det_config.n_consecutive})")
    return {"inputs": inputs, "outputs": outputs, "failures": failures,
            "threshold_calibrated": calibrated}


def _check_width(what: str, width: int, model) -> None:
    """ValueError (exit 2) unless windows of ``width`` samples fit the model."""
    if width != model.input_length:
        raise ValueError(f"{what} have {width} samples, "
                         f"the model expects {model.input_length}")


def _detect_stream_stdin(model, det_config) -> dict[str, str]:
    """Read windowed-CSV rows from stdin; emit alarm rows as they occur.

    A malformed or out-of-order row is reported on stderr and skipped; the
    rest are still scored.  Returns the skipped rows as ``{"row <n>": reason}``.
    """
    failures = {}
    try:
        reader = csv.reader(sys.stdin)
        header = next(reader, None)
        if header is None:
            return failures
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
                failures[f"row {reader.line_num}"] = str(exc)
                print(f"error: row {reader.line_num}: {exc}", file=sys.stderr)
                continue
            if alarm is not None:
                writer.writerow(detector.alarm_row(win.flight_id, detector.alarm_to_dict(alarm)))
                sys.stdout.flush()
    except BrokenPipeError:
        # the consumer went away (e.g. piped into head); leave quietly and
        # hand the interpreter a writable stdout so shutdown does not complain
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    return failures


def cmd_evaluate(args) -> dict:
    out = Path(args.out)
    report_paths = sorted(Path(args.reports).glob("*.json"))
    report_paths = [p for p in report_paths if p.name != MANIFEST_NAME]
    if not report_paths:
        raise ValueError(f"no report JSON files in {args.reports}")
    reports = [detector.read_report(p) for p in report_paths]
    labels = parse_labels(args.labels)
    doc = evalstats.dataset_report(reports, labels, gamma=args.gamma)
    eval_path = out / "evaluation.json"
    evalstats.write_evaluation_json(doc, eval_path)
    table_paths = evalstats.write_evaluation_tables(doc, out)
    axes = ["certainty", "safety"] if args.ground_truth == "both" else [args.ground_truth]
    for axis in axes:
        parts = [f"{k}={100 * v:.1f}%" if v is not None else f"{k}=n/a"
                 for k, v in doc["ground_truth"][axis]["metrics"].items()]
        print(f"{axis} ground truth: " + ", ".join(parts))
    lead = doc["lead_time"]
    if lead["mean_s"] is not None:
        print(f"lead time: mean {lead['mean_s']:.1f}s, "
              f"median {lead['median_s']:.1f}s over {lead['count']} flights; "
              f"mean distance at first alarm "
              f"{doc['distance_at_first_alarm']['mean_m']:.2f}m")
    return {"inputs": [args.reports, args.labels], "outputs": [eval_path] + table_paths,
            "failures": {}}


def cmd_fitness(args) -> dict:
    obstacles = parse_obstacles(args.obstacles)
    trajs = []
    for path in _sorted_logs(args.logs):
        try:
            trajs.append(trajectory_from_log(parse_flight_log(path, flight_id=path.stem)))
        except ValueError as exc:
            raise ValueError(f"{path}: {exc}") from None
    comps = fitness_components(trajs, obstacles, max_dtw=args.max_dtw,
                               resample_n=args.resample_n)
    print(f"fitness={comps['fitness']!r} (sum_dist={comps['sum_dist']!r}, "
          f"ave_dtw={comps['ave_dtw']!r}, max_dtw={args.max_dtw!r}, "
          f"n={len(trajs)})")
    outputs = []
    if args.out:
        fit_path = Path(args.out) / "fitness.json"
        write_json(comps, fit_path, indent=2)
        outputs.append(fit_path)
    return {"inputs": [args.logs, args.obstacles], "outputs": outputs, "failures": {}}


def cmd_synth(args) -> dict:
    try:
        counts = [int(tok) for tok in args.counts.split(",")]
    except ValueError:
        raise ValueError(f"bad --counts {args.counts!r}, expected 4 integers") from None
    if len(counts) != len(synthgen.CLASS_NAMES) or any(c < 0 for c in counts):
        raise ValueError(f"--counts needs {len(synthgen.CLASS_NAMES)} non-negative "
                         f"integers in order {','.join(synthgen.CLASS_NAMES)}")
    config = synthgen.SynthConfig(seed=args.seed, flight_duration=args.duration,
                                  sample_rate=args.rate_hz, noise_std=args.noise_std)
    dataset = synthgen.generate(config, dict(zip(synthgen.CLASS_NAMES, counts)))
    out = Path(args.out)
    paths = synthgen.write_dataset(dataset, out)
    print(f"generated {len(dataset.flights)} flights "
          f"({', '.join(f'{k}={v}' for k, v in dataset.counts.items())}) in {out}")
    return {"inputs": [], "outputs": list(paths.values()), "failures": {}}


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser of every :func:`main` call, built once per process.  A
    flag's dest is the one argparse derives from its name, as config keys are."""
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--out", help="output directory")
    common.add_argument("--config", help="flat JSON object of flags (explicit flags win)")

    parser = argparse.ArgumentParser(
        prog="flightwatch",
        description="Decision-uncertainty detection for UAV flight logs")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("preprocess", parents=[common],
                       help="build the windowed heading dataset from flight logs")
    p.add_argument("--logs", required=True, help="directory of flight-log CSVs")
    p.add_argument("--obstacles", help="obstacle JSON file")
    p.add_argument("--labels", help="labels CSV to attach")
    p.add_argument("--window-s", type=float, default=5.0)
    p.add_argument("--overlap-s", type=float, default=2.5)
    p.add_argument("--rate-hz", type=float, default=5.0)
    p.add_argument("--require-distances", action="store_true")
    p.set_defaults(func=cmd_preprocess)

    p = sub.add_parser("train", parents=[common],
                       help="train the autoencoder on nominal windows")
    p.add_argument("--windows", required=True, help="windowed dataset CSV")
    p.add_argument("--nominal-dist", type=float, default=3.0)
    p.add_argument("--lookahead-s", type=float, default=50.0)
    p.add_argument("--lr", type=float, default=1e-3)
    p.add_argument("--batch-size", type=int, default=128)
    p.add_argument("--max-epochs", type=int, default=300)
    p.add_argument("--patience", type=int, default=20)
    p.add_argument("--min-delta", type=float, default=1e-5)
    p.add_argument("--seed", type=int, default=0, help="random seed")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("calibrate", parents=[common],
                       help="suggest an alarm threshold from nominal losses")
    p.add_argument("--model", required=True)
    p.add_argument("--windows", required=True, help="windowed dataset CSV")
    p.add_argument("--quantile", type=float, default=0.999)
    p.add_argument("--bins", type=int, default=50)
    p.add_argument("--nominal-dist", type=float, default=3.0)
    p.add_argument("--lookahead-s", type=float, default=50.0)
    p.add_argument("--no-filter", action="store_true",
                   help="treat all given windows as nominal")
    threshold = p.add_mutually_exclusive_group()
    threshold.add_argument("--apply", action="store_true",
                           help="write the calibrated threshold into a model copy")
    threshold.add_argument("--set-threshold", type=float,
                           help="write this threshold into a model copy")
    p.set_defaults(func=cmd_calibrate)

    p = sub.add_parser("detect", parents=[common],
                       help="run uncertainty detection over flights")
    p.add_argument("--model", required=True)
    source = p.add_mutually_exclusive_group()
    source.add_argument("--log", help="single flight-log CSV")
    source.add_argument("--logs", help="directory of flight-log CSVs")
    source.add_argument("--windows", help="windowed dataset CSV")
    source.add_argument("--stream", action="store_true",
                        help="read windowed-CSV rows from stdin, emit alarms to stdout")
    p.add_argument("--obstacles", help="obstacle JSON (enables lead-time analysis)")
    p.add_argument("--threshold", type=float)
    p.add_argument("--n-consecutive", type=int)
    p.add_argument("--critical-dist", type=float, default=1.0)
    p.set_defaults(func=cmd_detect)

    p = sub.add_parser("evaluate", parents=[common],
                       help="aggregate detection reports against labels")
    p.add_argument("--reports", required=True, help="directory of report JSON files")
    p.add_argument("--labels", required=True, help="labels CSV")
    p.add_argument("--ground-truth", choices=["both", "certainty", "safety"], default="both")
    p.add_argument("--gamma", type=float, default=0.95)
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("fitness", parents=[common],
                       help="execution-spread fitness of one test case")
    p.add_argument("--logs", required=True,
                   help="directory of logs: one test case's executions")
    p.add_argument("--obstacles", required=True)
    p.add_argument("--max-dtw", type=float, default=65.0)
    p.add_argument("--resample-n", type=int, default=200)
    p.set_defaults(func=cmd_fitness)

    p = sub.add_parser("synth", parents=[common],
                       help="generate a labeled synthetic dataset")
    p.add_argument("--counts", default="10,10,10,5",
                   help="flights per class: " + ",".join(synthgen.CLASS_NAMES))
    p.add_argument("--duration", type=float, default=300.0)
    p.add_argument("--noise-std", type=float, default=1.0)
    p.add_argument("--rate-hz", type=float, default=5.0)
    p.add_argument("--seed", type=int, default=0, help="random seed")
    p.set_defaults(func=cmd_synth)

    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    args = _parser().parse_args(argv)
    made_out: list[Path] = []  # directories this run creates for --out, deepest first
    try:
        if args.config:
            # the config's flags go right after the command, so an explicit
            # flag, parsed after them, wins
            args = _parser().parse_args(argv[:1] + _config_flags(args.config, args) + argv[1:])
        if args.command != "fitness" and not args.out and not getattr(args, "stream", False):
            raise ValueError(f"{args.command} requires --out")
        if args.out:
            out = Path(args.out)
            missing = [d for d in (out, *out.parents) if not d.exists()]
            if missing:
                out.mkdir(parents=True)
                made_out = missing
        started = time.time()
        result = args.func(args)
        if args.out:
            _write_manifest(args, result, started)
    except _EveryFlightFailed:
        pass
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
    else:
        return 1 if result["failures"] else 0
    for d in made_out:  # leave no empty output of a rejected run behind
        if any(d.iterdir()):
            break
        d.rmdir()
    return 2


if __name__ == "__main__":
    sys.exit(main())
