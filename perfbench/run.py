"""flightwatch benchmark: one workload per run, or all four with ``--workload all``.

    python3 perfbench/run.py --workload train --seed 1 --seconds 25 --trace 0

Run from the root of a flightwatch checkout; the program is imported from
its ``src/``.  With ``--trace 0`` the last stdout line is a JSON object whose
metrics are the ``end_to_end`` metrics of ``BENCHMARK.json``; with
``--trace 1`` they are its ``per_layer`` metrics, taken from spans recorded
around the program's public functions.  Lines before it are for people: every
metric with its unit and sample count, and for a traced run the per-stage
and self-time tables.  Work files go to ``.perfbench_work/`` (removed at
exit); spans and tables of a traced run go to ``.perfbench_out/``.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import math
import os
import platform
import resource
import shutil
import subprocess
import sys
import traceback
from pathlib import Path
from statistics import median
from time import perf_counter

ROOT = Path.cwd()
# set up at least this many times, and again until the set-ups took
# SETUP_MIN_S in all, so that the median of a short set-up rests on more of them
SETUP_MIN_REPEATS = 3
SETUP_MIN_S = 4.0
MIN_OPS = 3
WORKLOAD_NAMES = ("train", "batch-detect", "stream-monitor", "fitness-search")


def say(text: str) -> None:
    print(text, flush=True)


def _import_program():
    """Import flightwatch from this checkout's src/, never from elsewhere."""
    src = ROOT / "src"
    if not (src / "flightwatch" / "__init__.py").is_file():
        raise SystemExit(f"error: no flightwatch sources under {src}; "
                         f"run from the root of a flightwatch checkout")
    sys.path.insert(0, str(src))
    # one caller, one process: BLAS gets one thread unless the caller says otherwise
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    import flightwatch
    if Path(flightwatch.__file__).resolve().parent != (src / "flightwatch").resolve():
        raise SystemExit(f"error: imported flightwatch from {flightwatch.__file__}")


def _declared(section: str) -> dict[str, str]:
    doc = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in doc[section]}


def _blas_threads() -> str:
    """Threads of the OpenBLAS that NumPy loaded, asked of the library itself."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    except OSError:
        return "unknown"
    for lib in libs:
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return str(fn())
    return "unknown"


def timed_loop(workload, seconds: float | None = None, n_ops: int | None = None,
               min_ops: int = MIN_OPS):
    """Closed loop: one operation after another until ``seconds`` have passed
    (and at least ``min_ops`` ran), or exactly ``n_ops`` operations."""
    workload.begin_phase()
    op_seconds = []
    t0 = perf_counter()
    while True:
        op_seconds.append(workload.op())
        if n_ops is not None:
            if len(op_seconds) >= n_ops:
                return op_seconds
        elif len(op_seconds) >= min_ops and perf_counter() - t0 >= seconds:
            return op_seconds


def run_untraced(workload, workdir: Path, seconds: float):
    from workloads import TAIL_MIN_OPS, TAIL_Q, check, percentile
    setup_s, digests = [], []
    while len(setup_s) < SETUP_MIN_REPEATS or sum(setup_s) < SETUP_MIN_S:
        i = len(setup_s)
        if i:
            shutil.rmtree(workdir / f"setup{i - 1}")
        t0 = perf_counter()
        workload.state = workload.setup(workdir / f"setup{i}")
        setup_s.append(perf_counter() - t0)
        digests.append(workload.setup_digest(workload.state))
    check(len(set(digests)) == 1, "set-ups from one seed built different inputs")
    op_seconds = timed_loop(workload, seconds, min_ops=TAIL_MIN_OPS)
    workload.finish()
    report = workload.report(op_seconds)
    metrics = {
        "setup_s": median(setup_s),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "op_tail_ms": percentile(op_seconds, TAIL_Q) * 1e3,
    }
    n_ops = len(op_seconds)
    say(f"setup_s = {metrics['setup_s']:.6g} s (median of {len(setup_s)} set-ups)")
    say(f"peak_rss_mb = {metrics['peak_rss_mb']:.6g} MB (1 process)")
    say(f"op_tail_ms = {metrics['op_tail_ms']:.6g} ms (p{TAIL_Q}, n={n_ops})")
    say(f"op_p50_ms = {median(op_seconds) * 1e3:.6g} ms (n={n_ops})")
    say(f"throughput_per_s = {report.throughput:.6g} 1/s (n={n_ops})")
    for name, value, unit, n in report.extra:
        say(f"{name} = {value:.6g} {unit} (n={n})")
    if not any(extra[0] == "failed_frac" for extra in report.extra):
        say(f"failed_frac = 0 ratio (0 of {n_ops} operations)")
    return metrics, n_ops


def run_traced(workload, workdir: Path, seconds: float, out_dir: Path):
    import instrument
    from layer_metrics import kernel_counts, layer_metrics, self_time_table, stage_table
    from tracing import Tracer
    from workloads import RATE_HZ, WINDOW_S
    from flightwatch import autoenc

    tracer = Tracer()
    tracer.install(instrument.install)
    try:
        workload.state = workload.setup(workdir / "setup0")
    finally:
        tracer.uninstall()
    untraced = timed_loop(workload, seconds / 2)
    timed_from = len(tracer.start)
    tracer.install(instrument.install)
    try:
        traced = timed_loop(workload, n_ops=len(untraced))
    finally:
        tracer.uninstall()
    workload.finish()
    # the architecture `flightwatch train` builds by default
    kernels = kernel_counts(autoenc.AutoencoderModel(input_length=int(WINDOW_S * RATE_HZ)))
    metrics = layer_metrics(tracer, timed_from, sum(traced), sum(untraced), kernels)
    table = stage_table(tracer, timed_from) + "\n" + self_time_table(tracer)
    out_dir.mkdir(parents=True, exist_ok=True)
    tracer.save(out_dir / f"{workload.name}.spans.npz")
    (out_dir / f"{workload.name}.stages.md").write_text(table, encoding="utf-8")
    say(f"traced {len(traced)} operations after {len(untraced)} untraced ones; "
        f"{len(tracer.start)} spans written to {out_dir / (workload.name + '.spans.npz')}")
    for line in table.splitlines():
        say(line)
    return metrics, len(untraced) + len(traced)


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> int:
    from workloads import WORKLOADS, CheckFailed

    section = "per_layer" if trace else "end_to_end"
    units = _declared(section)
    workload = WORKLOADS[name](seed)
    import numpy
    say(f"# workload={name} seed={seed} seconds={seconds} trace={int(trace)} "
        f"python={platform.python_version()} numpy={numpy.__version__} "
        f"blas_threads={_blas_threads()} cpus={os.cpu_count()} closed-loop clients=1")
    workdir = ROOT / ".perfbench_work" / f"{name}-{os.getpid()}"
    correct, attempted, failed, metrics = True, 1, 0, {}
    try:
        if trace:
            metrics, attempted = run_traced(workload, workdir, seconds, ROOT / ".perfbench_out")
        else:
            metrics, attempted = run_untraced(workload, workdir, seconds)
    except CheckFailed as exc:
        print(f"check failed: {exc}", file=sys.stderr)
        correct, failed = False, 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if correct:
        if set(metrics) != set(units):
            raise RuntimeError(f"metrics differ from BENCHMARK.json {section}: "
                               f"{sorted(set(metrics) ^ set(units))}")
        bad = [k for k, v in metrics.items() if not math.isfinite(v)]
        if bad:
            raise RuntimeError(f"non-finite metrics: {bad}")
        if trace:
            for key in sorted(metrics):
                say(f"{key} = {metrics[key]:.6g} {units[key]}")
    result = {"correct": correct, "attempted": attempted, "failed": failed,
              "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in sorted(metrics)}}
    print(json.dumps(result), flush=True)
    return 0 if correct else 1


def run_all(args) -> int:
    """Each workload in its own child process, one after another, so each
    reports its own peak RSS."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            cwd=ROOT, capture_output=True, text=True, timeout=900)
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        last = proc.stdout.strip().splitlines()[-1:] or ["{}"]
        try:
            result = json.loads(last[0])
        except json.JSONDecodeError:
            result = {}
        if proc.returncode != 0 or not result.get("correct"):
            merged["correct"] = False
        merged["attempted"] += result.get("attempted", 0)
        merged["failed"] += result.get("failed", 0)
        for key, value in result.get("metrics", {}).items():
            merged["metrics"][f"{name}/{key}"] = value
    print(json.dumps(merged), flush=True)
    return 0 if merged["correct"] else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    _import_program()
    if args.workload == "all":
        return run_all(args)
    try:
        return run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    except Exception:  # noqa: BLE001 - any crash fails the run without a result line
        traceback.print_exc()
        return 1


if __name__ == "__main__":
    sys.exit(main())
