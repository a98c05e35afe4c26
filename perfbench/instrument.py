"""Where the benchmark's timing wrappers go in flightwatch.

Layers are the modules of ``src/flightwatch``.  Each public function that a
per-layer metric needs is wrapped, plus the public functions around them
whose time would otherwise land in a caller of another layer; private
helpers are not wrapped, so their time is their nearest wrapped caller's
self time.  A ``work`` function reads the unit a rate is taken over (records,
windows, flights, batch size, DTW cells) from the call.
"""

from __future__ import annotations

from flightwatch import (autoenc, cli, detector, evalstats, flightdata, geometry,
                         preprocess, synthgen)

LAYERS = ("flightdata", "synthgen", "preprocess", "geometry", "autoenc",
          "detector", "evalstats", "cli")
# layer instances are timed at the training batch size only; at other sizes
# (single-window scoring, batched calibration) their time stays in the caller
KERNEL_BATCH = 128


def _n(i):
    return lambda args, kwargs, result: len(args[i])


def _len_result(args, kwargs, result):
    return len(result)


def _records(args, kwargs, result):
    return len(result.records)


def _flights_generated(args, kwargs, result):
    return len(result.flights)


def _flights_written(args, kwargs, result):
    return len(args[0].flights)


def _dtw_cells(args, kwargs, result):
    return len(args[0]) * len(args[1])


def _windows_forwarded(args, kwargs, result):
    # args[0] is the model; a single window comes back as a 1-D array
    return 1 if result.ndim == 1 else int(result.shape[0])


def _loss_batch(args, kwargs, result):
    return len(args[1])


def _epochs(args, kwargs, result):
    return int(result.epochs_trained)


def _alarm_raised(args, kwargs, result):
    return 0 if result is None else 1


def _kernel_batch(args):
    # layer activations are laid out (channels, length, batch)
    return args[0].shape[2] == KERNEL_BATCH


def install(tracer) -> None:
    """Place every wrapper; ``Tracer.uninstall`` removes them."""
    def nominal_kept(args, kwargs, result):
        tracer.count("preprocess.nominal_windows", len(result))
        return len(args[0])

    functions = [
        (flightdata, "parse_flight_log", _records),
        (flightdata, "write_flight_log", None),
        (flightdata, "parse_obstacles", None),
        (flightdata, "parse_labels", None),
        (flightdata, "write_labels", None),
        (flightdata, "write_obstacles", None),
        (synthgen, "generate", _flights_generated),
        (synthgen, "write_dataset", _flights_written),
        (preprocess, "preprocess_flight", None),
        (preprocess, "make_windows", _len_result),
        (preprocess, "read_windows_csv", _len_result),
        (preprocess, "write_windows_csv", _n(0)),
        (preprocess, "filter_nominal_from_windows", nominal_kept),
        (geometry, "trajectory_from_log", None),
        (geometry, "min_obstacle_distance", None),
        (geometry, "fitness_components", None),
        (geometry, "dtw", _dtw_cells),
        (geometry, "resample_by_arclength", None),
        (geometry, "sum_dist", None),
        (autoenc, "train", _epochs),
        (autoenc, "save_model", None),
        (autoenc, "load_model", None),
        (autoenc, "mse_loss", None),
        (detector, "detect_stream", None),
        (detector, "lead_time_analysis", None),
        (detector, "calibrate_threshold", None),
        (detector, "write_report", None),
        (detector, "read_report", None),
        (detector, "alarms_csv", None),
        (evalstats, "dataset_report", None),
        (evalstats, "write_evaluation_json", None),
        (evalstats, "write_evaluation_tables", None),
    ]
    for module, attr, work in functions:
        layer = module.__name__.rsplit(".", 1)[1]
        tracer.patch_function(module, attr, f"{layer}.{attr}", work)

    methods = [
        (geometry.DistanceTrace, "range_min", "geometry.DistanceTrace.range_min", None),
        (autoenc.AutoencoderModel, "forward", "autoenc.forward", _windows_forwarded),
        (autoenc.AutoencoderModel, "loss_and_grads", "autoenc.loss_and_grads", _loss_batch),
        (autoenc.AutoencoderModel, "reconstruction_losses",
         "autoenc.reconstruction_losses", _n(1)),
        (detector.StreamDetector, "update", "detector.StreamDetector.update", _alarm_raised),
    ]
    for cls, attr, name, work in methods:
        tracer.patch_method(cls, attr, name, work)

    model_init = autoenc.AutoencoderModel.__init__

    def traced_init(model, *args, **kwargs):
        model_init(model, *args, **kwargs)
        layers = [(f"autoenc.{name}", layer) for name, layer in model.weighted_layers()]
        layers += [("autoenc.dropout", layer) for layer in model.layers
                   if layer.kind == "dropout"]
        for prefix, layer in layers:
            for method in ("forward", "backward"):
                tracer.patch_instance(layer, method, f"{prefix}.{method}",
                                      only_if=_kernel_batch)

    tracer.patch_raw(autoenc.AutoencoderModel, "__init__", traced_init)

    # one span per command: argument parsing, manifests and glue are its self time
    main = cli.main

    def traced_main(argv=None):
        return tracer.call(f"cli.{argv[0]}", main, (argv,), {})

    tracer.patch_raw(cli, "main", traced_main)
