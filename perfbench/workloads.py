"""The four benchmark workloads and the output checks each one runs.

Every workload is closed-loop with one caller: the next operation starts only
when the previous one has returned, in this one process, with no threads of
the benchmark's own.  Batch stages go through ``flightwatch.cli.main`` exactly
as the command line does; the runtime monitor calls
``StreamDetector.update``.  All inputs are generated from the workload seed
through ``flightwatch synth`` and reach the program only as files or windows.

A check that fails raises :class:`CheckFailed`, which fails the run.
"""

from __future__ import annotations

import hashlib
import io
import json
import math
import random
import re
import shutil
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from pathlib import Path
from statistics import median
from time import perf_counter

from flightwatch import autoenc, cli, detector, evalstats, preprocess

# the acceptance corpus's flight geometry, passed explicitly to the CLI
FLIGHT_S = 300.0
RATE_HZ = 5.0
WINDOW_S = 5.0
OVERLAP_S = 2.5
WINDOWS_PER_FLIGHT = int((FLIGHT_S - WINDOW_S) / (WINDOW_S - OVERLAP_S)) + 1

# model used by batch-detect and stream-monitor: trained in set-up on
# certain_safe flights, with patience = epochs so every run trains alike
MODEL_FLIGHTS = 8
MODEL_EPOCHS = 10
# held-out flights per class, in the acceptance mix 50/50/50/25
FLEET_MIX = (4, 4, 4, 2)

# Percentile of operation latency reported as op_tail_ms.  The host's speed
# switches between a fast and a slow level; p90 sits on the slow level
# whenever a run spends a tenth of its time there, so it moves far less from
# run to run than the median.  Operations are short enough that a run has a
# hundred or more, and a run does at least TAIL_MIN_OPS of them so that ten
# samples lie beyond p90.
TAIL_Q = 90
TAIL_MIN_OPS = math.ceil(10 / (1 - TAIL_Q / 100)) + 1


class CheckFailed(Exception):
    """An output of the program is not what the inputs imply."""


def check(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def finite(*values) -> bool:
    return all(isinstance(v, (int, float)) and math.isfinite(v) for v in values)


def sub_seed(seed: int, k: int) -> int:
    """Seed of the k-th corpus (k < 16) drawn for one workload seed."""
    return seed * 16 + k


@dataclass
class CliRun:
    rc: int
    out: str
    err: str
    seconds: float


def run_cli(*argv) -> CliRun:
    """Run one ``flightwatch`` command in-process, timing it and capturing its output."""
    argv = [str(a) for a in argv]
    out, err = io.StringIO(), io.StringIO()
    t0 = perf_counter()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            rc = cli.main(argv)
        except SystemExit as exc:
            rc = exc.code if isinstance(exc.code, int) else 2
    seconds = perf_counter() - t0
    return CliRun(rc, out.getvalue(), err.getvalue(), seconds)


def expect_rc(run: CliRun, rc: int, what: str) -> None:
    check(run.rc == rc, f"{what} exited {run.rc}, expected {rc}: {run.err.strip()[-400:]}")


def synth(out: Path, counts, seed: int) -> Path:
    run = run_cli("synth", "--seed", seed, "--counts", ",".join(map(str, counts)),
                  "--duration", FLIGHT_S, "--rate-hz", RATE_HZ, "--out", out)
    expect_rc(run, 0, "synth")
    n_logs = len(list((out / "logs").glob("*.csv")))
    check(n_logs == sum(counts), f"synth wrote {n_logs} logs, expected {sum(counts)}")
    return out


def preprocess_corpus(corpus: Path, out: Path, n_flights: int, labels: bool = False) -> Path:
    argv = ["preprocess", "--logs", corpus / "logs", "--obstacles", corpus / "obstacles.json",
            "--window-s", WINDOW_S, "--overlap-s", OVERLAP_S, "--rate-hz", RATE_HZ,
            "--out", out]
    if labels:
        argv += ["--labels", corpus / "labels.csv"]
    expect_rc(run_cli(*argv), 0, "preprocess")
    windows = out / "windows.csv"
    with open(windows, encoding="utf-8") as fh:
        rows = sum(1 for line in fh if line.strip()) - 1
    expected = n_flights * WINDOWS_PER_FLIGHT
    check(rows == expected, f"preprocess wrote {rows} windows, expected {expected}")
    return windows


@dataclass
class Trained:
    train: CliRun
    calibrate: CliRun
    model: Path          # calibrated model
    model_bytes: bytes   # trained model, before calibration
    n_windows: int


def train_and_calibrate(windows: Path, out: Path, seed: int, epochs: int,
                        n_windows: int) -> Trained:
    """``train`` then ``calibrate --apply`` on nominal windows, with their checks."""
    tr = run_cli("train", "--windows", windows, "--max-epochs", epochs, "--patience", epochs,
                 "--seed", seed, "--out", out / "model")
    ca = run_cli("calibrate", "--model", out / "model" / "model.json", "--windows", windows,
                 "--apply", "--out", out / "cal")
    expect_rc(tr, 0, "train")
    expect_rc(ca, 0, "calibrate")
    # every window of a certain_safe flight keeps > 4 m clearance, so all are nominal
    check(f"training on {n_windows} nominal windows (of {n_windows} total" in tr.out,
          f"train did not train on all {n_windows} windows: {tr.out.strip()[:200]}")
    model_bytes = (out / "model" / "model.json").read_bytes()
    meta = json.loads(model_bytes)["meta"]
    check(meta["epochs_trained"] == epochs,
          f"trained {meta['epochs_trained']} epochs, expected {epochs}")
    check(len(meta["loss_history"]) == epochs and finite(meta["final_loss"], *meta["loss_history"]),
          "training losses are not all finite")
    cal = json.loads((out / "cal" / "calibration.json").read_text(encoding="utf-8"))
    check(cal["n_losses"] == n_windows,
          f"calibrate scored {cal['n_losses']} windows, expected {n_windows}")
    check(finite(cal["suggested_threshold"], cal["max_loss"]), "calibration losses not finite")
    return Trained(tr, ca, out / "cal" / "model.json", model_bytes, n_windows)


def digest(*paths: Path) -> str:
    h = hashlib.sha256()
    for path in paths:
        files = sorted(path.rglob("*")) if path.is_dir() else [path]
        for f in files:
            if f.is_file() and f.name != cli.MANIFEST_NAME:
                h.update(f.name.encode())
                h.update(f.read_bytes())
    return h.hexdigest()


def percentile(values, q: float) -> float:
    """q-th percentile, linear between closest ranks."""
    xs = sorted(values)
    pos = (len(xs) - 1) * q / 100
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


@dataclass
class Report:
    """End-to-end results of one untraced run.

    ``throughput`` is the workload's units of work per second; ``extra``
    holds the workload's own named metrics as (name, value, unit, samples).
    """

    throughput: float
    extra: list


class Workload:
    name = ""

    def __init__(self, seed: int):
        self.seed = seed
        self.state = None

    def setup(self, workdir: Path):
        """Build this workload's inputs under ``workdir``; return them."""
        raise NotImplementedError

    def setup_digest(self, state) -> str:
        """Digest that set-ups from one seed must agree on."""
        raise NotImplementedError

    def begin_phase(self) -> None:
        """Restart the operation sequence, so a second phase replays the first."""

    def op(self) -> float:
        """Run one timed operation and check it; return its timed seconds."""
        raise NotImplementedError

    def finish(self) -> None:
        """Checks that need every operation done; untimed."""

    def report(self, op_seconds: list) -> Report:
        raise NotImplementedError


class TrainWorkload(Workload):
    """One operation: ``train`` (fixed epochs) then ``calibrate --apply``."""

    name = "train"
    flights = 3
    epochs = 10

    def __init__(self, seed):
        super().__init__(seed)
        self.model_bytes = None
        self.train_s = []
        self.calibrate_s = []

    def setup(self, workdir):
        corpus = synth(workdir / "corpus", (self.flights, 0, 0, 0), sub_seed(self.seed, 0))
        windows = preprocess_corpus(corpus, workdir / "pre", self.flights)
        return {"dir": workdir, "windows": windows}

    def setup_digest(self, state):
        return digest(state["windows"])

    def op(self):
        n_windows = self.flights * WINDOWS_PER_FLIGHT
        t = train_and_calibrate(self.state["windows"], self.state["dir"], self.seed,
                                self.epochs, n_windows)
        if self.model_bytes is None:
            self.model_bytes = t.model_bytes
        check(t.model_bytes == self.model_bytes, "two train runs gave different model bytes")
        self.train_s.append(t.train.seconds)
        self.calibrate_s.append(t.calibrate.seconds)
        return t.train.seconds + t.calibrate.seconds

    def report(self, op_seconds):
        n_windows = self.flights * WINDOWS_PER_FLIGHT
        n = len(self.train_s)
        train_rate = n_windows * self.epochs / median(self.train_s)
        return Report(train_rate, [
            ("train_window_epochs_per_s", train_rate, "1/s", n),
            ("calibrate_windows_per_s", n_windows / median(self.calibrate_s), "1/s", n),
        ])


def fleet_model(workdir: Path, seed: int) -> Trained:
    corpus = synth(workdir / "train_corpus", (MODEL_FLIGHTS, 0, 0, 0), sub_seed(seed, 0))
    windows = preprocess_corpus(corpus, workdir / "train_pre", MODEL_FLIGHTS)
    return train_and_calibrate(windows, workdir, seed, MODEL_EPOCHS,
                               MODEL_FLIGHTS * WINDOWS_PER_FLIGHT)


def corrupt_logs(logs: Path, rng: random.Random) -> set[str]:
    """Break two certain_safe logs: one gets an unparsable number, the other a
    heading outside [-180, 180].  Returns their flight ids."""
    candidates = sorted(p for p in logs.glob("certain_safe-*.csv"))
    unparsable, bad_heading = rng.sample(candidates, 2)
    for path, column in ((unparsable, 2), (bad_heading, 5)):
        lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
        rows = [i for i in range(1, len(lines)) if ",safe," in lines[i]]
        i = rng.choice(rows)
        fields = lines[i].rstrip("\n").split(",")
        fields[column] = "1.5.0" if column == 2 else repr(180.0 + rng.uniform(1.0, 90.0))
        lines[i] = ",".join(fields) + "\n"
        path.write_text("".join(lines), encoding="utf-8")
    return {unparsable.stem, bad_heading.stem}


_FAILED_FLIGHT = re.compile(r"^error: flight (\S+): ", re.MULTILINE)


class BatchDetectWorkload(Workload):
    """One operation: ``detect --logs`` over one part of the held-out corpus,
    then ``evaluate``, cycling through the parts.

    The corpus is split into parts of two flights so that a run holds enough
    operations for its p90 latency.
    """

    name = "batch-detect"
    parts = 8

    def __init__(self, seed):
        super().__init__(seed)
        self.cursor = 0
        self.evaluations = {}
        self.confusion = {}

    def setup(self, workdir):
        trained = fleet_model(workdir, self.seed)
        counts = (FLEET_MIX[0] + 2,) + FLEET_MIX[1:]
        corpus = synth(workdir / "heldout", counts, sub_seed(self.seed, 1))
        malformed = corrupt_logs(corpus / "logs", random.Random(self.seed))
        header, *rows = (corpus / "labels.csv").read_text(encoding="utf-8").splitlines(
            keepends=True)
        label_rows = {row.split(",", 1)[0]: row for row in rows}
        # deal the logs, sorted by class, round-robin: each part gets one
        # uncertain flight and at most one certain_safe, so at most one malformed
        logs = sorted((corpus / "logs").glob("*.csv"))
        parts = []
        for k in range(self.parts):
            part_dir = workdir / "parts" / f"part{k}"
            (part_dir / "logs").mkdir(parents=True)
            flights = []
            for log in logs[k::self.parts]:
                shutil.copyfile(log, part_dir / "logs" / log.name)
                flights.append(log.stem)
            (part_dir / "labels.csv").write_text(
                header + "".join(label_rows[f] for f in flights if f not in malformed),
                encoding="utf-8")
            parts.append({"logs": part_dir / "logs", "labels": part_dir / "labels.csv",
                          "n_flights": len(flights), "malformed": malformed & set(flights)})
        return {"dir": workdir, "model": trained.model, "obstacles": corpus / "obstacles.json",
                "parts": parts, "malformed": malformed, "n_flights": sum(counts)}

    def setup_digest(self, state):
        return digest(state["model"], state["obstacles"], state["dir"] / "parts")

    def begin_phase(self):
        self.cursor = 0

    def op(self):
        st = self.state
        k = self.cursor % self.parts
        self.cursor += 1
        part = st["parts"][k]
        out = st["dir"] / f"out{k}"
        det = run_cli("detect", "--model", st["model"], "--logs", part["logs"],
                      "--obstacles", st["obstacles"], "--out", out / "det")
        ev = run_cli("evaluate", "--reports", out / "det" / "reports", "--labels", part["labels"],
                     "--out", out / "eval")
        # the malformed flights fail alone; every other flight is reported
        expect_rc(det, 1 if part["malformed"] else 0, "detect")
        expect_rc(ev, 0, "evaluate")
        failed = set(_FAILED_FLIGHT.findall(det.err))
        check(failed == part["malformed"], f"part {k}: detect failed flights {sorted(failed)}, "
                                           f"expected {sorted(part['malformed'])}")
        reports = sorted((out / "det" / "reports").glob("*.json"))
        expected = part["n_flights"] - len(part["malformed"])
        check(len(reports) == expected,
              f"part {k}: detect wrote {len(reports)} reports, expected {expected}")
        for path in reports:
            windows = json.loads(path.read_text(encoding="utf-8"))["windows"]
            check(len(windows) == WINDOWS_PER_FLIGHT,
                  f"{path.name}: {len(windows)} windows, expected {WINDOWS_PER_FLIGHT}")
            check(finite(*(w["loss"] for w in windows)), f"{path.name}: non-finite loss")
        evaluation = (out / "eval" / "evaluation.json").read_bytes()
        doc = json.loads(evaluation)
        check(doc["n_flights"] == expected, f"part {k}: evaluated {doc['n_flights']} flights")
        first = self.evaluations.setdefault(k, evaluation)
        check(evaluation == first, f"part {k}: two detect+evaluate runs disagree")
        self.confusion[k] = doc["ground_truth"]["certainty"]["confusion"]
        return det.seconds + ev.seconds

    def certainty_f1(self) -> float:
        """Certainty F1 over the whole held-out corpus, from the parts' confusion counts."""
        pooled = {key: sum(cm[key] for cm in self.confusion.values())
                  for key in ("tp", "fp", "fn", "tn")}
        return evalstats.metrics(evalstats.ConfusionMatrix(**pooled))["f1"]

    def finish(self):
        check(len(self.confusion) == self.parts, "not every part was detected")
        f1 = self.certainty_f1()
        check(finite(f1), f"certainty F1 is {f1!r}")

    def report(self, op_seconds):
        n = len(op_seconds)
        flights = self.state["n_flights"]
        rate = flights / self.parts / median(op_seconds)
        return Report(rate, [
            ("detect_flights_per_s", rate, "1/s", n),
            ("certainty_f1", self.certainty_f1(), "ratio", n),
            ("failed_frac", len(self.state["malformed"]) / flights, "ratio",
             n * flights // self.parts),
        ])


class StreamMonitorWorkload(Workload):
    """One operation: one fleet tick, a ``StreamDetector.update`` for the next
    window of every flight in turn.  Each update is also timed on its own."""

    name = "stream-monitor"

    def __init__(self, seed):
        super().__init__(seed)
        self.passes = []
        self.decisions = []

    def setup(self, workdir):
        trained = fleet_model(workdir, self.seed)
        corpus = synth(workdir / "fleet", FLEET_MIX, sub_seed(self.seed, 2))
        windows_csv = preprocess_corpus(corpus, workdir / "fleet_pre", sum(FLEET_MIX),
                                        labels=True)
        by_flight: dict[str, list] = {}
        for w in preprocess.read_windows_csv(windows_csv):
            by_flight.setdefault(w.flight_id, []).append(w)
        check(len(by_flight) == sum(FLEET_MIX), f"{len(by_flight)} flights in the fleet")
        check(all(len(ws) == WINDOWS_PER_FLIGHT for ws in by_flight.values()),
              "a fleet flight has the wrong window count")
        model = autoenc.load_model(trained.model)
        return {"model": model, "model_path": trained.model,
                "config": detector.DetectorConfig.from_model(model),
                "flights": sorted(by_flight.items())}

    def setup_digest(self, state):
        return digest(state["model_path"])

    def _feed(self):
        st = self.state
        flights = st["flights"]
        while True:
            detectors = {fid: detector.StreamDetector(st["model"], st["config"], fid)
                         for fid, _ in flights}
            self.passes.append(detectors)
            for k in range(WINDOWS_PER_FLIGHT):
                yield [(detectors[fid], windows[k]) for fid, windows in flights]

    def begin_phase(self):
        self._next = self._feed().__next__

    def op(self):
        tick = self._next()
        t_tick = perf_counter()
        for det, window in tick:
            t0 = perf_counter()
            det.update(window)
            self.decisions.append(perf_counter() - t0)
        return perf_counter() - t_tick

    def finish(self):
        """Each flight's verdict and alarms equal detect_stream over its windows."""
        st = self.state
        for fid, windows in st["flights"]:
            ref = detector.detect_stream(st["model"], windows, st["config"], fid)
            check(finite(*ref.losses), f"{fid}: non-finite loss")
            ref_alarms = [a.window_index for a in ref.alarms]
            for detectors in self.passes:
                got = detectors[fid].report()
                seen = len(got.window_indices)
                check(list(got.losses) == list(ref.losses[:seen]),
                      f"{fid}: stream losses differ from detect_stream")
                check([a.window_index for a in got.alarms] == [i for i in ref_alarms if i < seen],
                      f"{fid}: stream alarms differ from detect_stream")
                if seen == len(windows):
                    check(got.flight_uncertain == ref.flight_uncertain,
                          f"{fid}: stream verdict differs from detect_stream")

    def report(self, op_seconds):
        n = len(self.decisions)
        rate = n / sum(op_seconds)
        return Report(rate, [
            ("decision_p50_us", median(self.decisions) * 1e6, "us", n),
            ("decision_p99_us", percentile(self.decisions, 99) * 1e6, "us", n),
            ("stream_windows_per_s", rate, "1/s", n),
        ])


class FitnessSearchWorkload(Workload):
    """One operation: ``fitness`` on one test case, cycling through the cases."""

    name = "fitness-search"
    cases = 4
    executions = 5

    def __init__(self, seed):
        super().__init__(seed)
        self.cursor = 0
        self.components = {}

    def setup(self, workdir):
        cases = []
        for c in range(self.cases):
            counts = [self.executions if k == c % 4 else 0 for k in range(4)]
            cases.append(synth(workdir / f"case{c}", counts, sub_seed(self.seed, 8 + c)))
        return {"dir": workdir, "cases": cases}

    def setup_digest(self, state):
        return digest(*(case / "logs" for case in state["cases"]))

    def begin_phase(self):
        self.cursor = 0

    def op(self):
        c = self.cursor % self.cases
        self.cursor += 1
        case = self.state["cases"][c]
        out = self.state["dir"] / f"fitness{c}"
        run = run_cli("fitness", "--logs", case / "logs", "--obstacles", case / "obstacles.json",
                      "--out", out)
        expect_rc(run, 0, "fitness")
        comps = json.loads((out / "fitness.json").read_text(encoding="utf-8"))
        check(comps["n_executions"] == self.executions, f"case {c}: {comps['n_executions']} executions")
        check(finite(*comps.values()), f"case {c}: non-finite fitness component")
        first = self.components.setdefault(c, comps)
        check(comps == first, f"case {c}: two fitness runs disagree")
        return run.seconds

    def report(self, op_seconds):
        n = len(op_seconds)
        rate = 1 / median(op_seconds)
        return Report(rate, [("fitness_cases_per_s", rate, "1/s", n)])


WORKLOADS = {cls.name: cls for cls in (TrainWorkload, BatchDetectWorkload,
                                       StreamMonitorWorkload, FitnessSearchWorkload)}
