import argparse
import contextlib
import json
import io
import math
import os
import shutil
import subprocess
import sys
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import flightwatch
from flightwatch import autoenc, cli, geometry
from flightwatch.cli import main
from flightwatch.detector import read_report
from flightwatch.flightdata import parse_labels
from flightwatch.preprocess import read_windows_csv
from test_flightdata import OBSTACLE_BOX, label_mutations, obstacle_mutations
from test_preprocess import mutated_lines, window_row_mutations


def run(*argv):
    return main([str(a) for a in argv])


def exit_code(*argv):
    """``run(*argv)``'s status, the status of argparse's exit included, with
    stdout and stderr captured: ``(status, stderr)``."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        try:
            rc = run(*argv)
        except SystemExit as exc:
            rc = exc.code
    return rc, err.getvalue()


@pytest.fixture(scope="module")
def synth_dirs(tmp_path_factory):
    """Small synthetic train/held-out datasets plus a trained, calibrated model."""
    root = tmp_path_factory.mktemp("cli")
    train_dir = root / "train"
    held_dir = root / "held"
    assert run("synth", "--counts", "8,0,0,0", "--duration", "120",
               "--seed", "1", "--out", train_dir) == 0
    assert run("synth", "--counts", "2,2,2,1", "--duration", "120",
               "--seed", "2", "--out", held_dir) == 0
    pre_dir = root / "pre"
    assert run("preprocess", "--logs", train_dir / "logs",
               "--obstacles", train_dir / "obstacles.json",
               "--out", pre_dir) == 0
    model_dir = root / "model"
    assert run("train", "--windows", pre_dir / "windows.csv",
               "--max-epochs", "30", "--seed", "5", "--out", model_dir) == 0
    calib_dir = root / "calib"
    assert run("calibrate", "--model", model_dir / "model.json",
               "--windows", pre_dir / "windows.csv",
               "--apply", "--out", calib_dir) == 0
    return {"root": root, "train": train_dir, "held": held_dir, "pre": pre_dir,
            "model": model_dir / "model.json",
            "calibrated": calib_dir / "model.json", "calib": calib_dir}


class TestSynth:
    def test_dataset_layout_and_manifest(self, synth_dirs):
        train_dir = synth_dirs["train"]
        assert (train_dir / "labels.csv").exists()
        assert (train_dir / "obstacles.json").exists()
        assert (train_dir / "truth.json").exists()
        assert len(list((train_dir / "logs").glob("*.csv"))) == 8
        manifest = json.loads((train_dir / "run_manifest.json").read_text())
        assert manifest["command"] == "synth"
        assert manifest["seed"] == 1
        assert manifest["config"]["counts"] == "8,0,0,0"
        assert manifest["failures"] == {}

    def test_invalid_counts(self, tmp_path, capsys):
        assert run("synth", "--counts", "1,2", "--out", tmp_path / "x") == 2
        assert capsys.readouterr().err == (
            "error: --counts needs 4 non-negative integers in order "
            "certain_safe,uncertain_safe,uncertain_unsafe,certain_unsafe\n")
        assert run("synth", "--counts", "1,2,three,4", "--out", tmp_path / "y") == 2
        assert capsys.readouterr().err == (
            "error: bad --counts '1,2,three,4', expected 4 integers\n")

    def test_flight_of_fewer_than_two_samples_is_rejected(self, tmp_path, capsys):
        out = tmp_path / "x"
        assert run("synth", "--counts", "1,0,0,0", "--duration", "0.001", "--out", out) == 2
        assert capsys.readouterr().err == (
            "error: flight_duration * sample_rate must give at least 2 samples\n")
        assert not out.exists()

    def test_rerun_byte_identical(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        run("synth", "--counts", "2,1,0,0", "--duration", "80", "--seed", "3", "--out", a)
        run("synth", "--counts", "2,1,0,0", "--duration", "80", "--seed", "3", "--out", b)
        for rel in sorted(p.relative_to(a) for p in a.rglob("*") if p.is_file()):
            if rel.name == "run_manifest.json":
                continue
            assert (a / rel).read_bytes() == (b / rel).read_bytes(), rel


class TestPreprocess:
    def test_window_count_for_60s_logs(self, tmp_path):
        logs = tmp_path / "ds"
        run("synth", "--counts", "10,0,0,0", "--duration", "60", "--seed", "4",
            "--out", logs)
        out = tmp_path / "pre"
        assert run("preprocess", "--logs", logs / "logs",
                   "--obstacles", logs / "obstacles.json", "--out", out) == 0
        windows = read_windows_csv(out / "windows.csv")
        assert len(windows) == 10 * 23
        header = (out / "windows.csv").read_text().splitlines()[0]
        assert header.endswith("v24")  # W=25 recorded in the header

    def test_require_distances_without_obstacles(self, synth_dirs, tmp_path, capsys):
        assert run("preprocess", "--logs", synth_dirs["train"] / "logs",
                   "--require-distances", "--out", tmp_path / "x") == 2
        assert capsys.readouterr().err == "error: --require-distances needs --obstacles\n"

    def test_labels_attached(self, synth_dirs, tmp_path):
        held = synth_dirs["held"]
        out = tmp_path / "pre"
        assert run("preprocess", "--logs", held / "logs",
                   "--obstacles", held / "obstacles.json",
                   "--labels", held / "labels.csv", "--out", out) == 0
        windows = read_windows_csv(out / "windows.csv")
        assert all(w.safety in ("safe", "unsafe") for w in windows)

    def test_one_record_log_names_the_flight_once(self, tmp_path, capsys):
        logs = tmp_path / "logs"
        logs.mkdir()
        (logs / "a.csv").write_text("timestamp_s,channel,x,y,z,r_deg\n0.0,safe,0,0,0,0\n")
        run("preprocess", "--logs", logs, "--out", tmp_path / "pre")
        assert capsys.readouterr().err == (
            "error: flight a: safe channel has fewer than 2 records\n")

    def test_bad_flight_continues_with_exit_1(self, synth_dirs, tmp_path, capsys):
        logs = tmp_path / "logs"
        logs.mkdir()
        good = next((synth_dirs["train"] / "logs").glob("*.csv"))
        (logs / good.name).write_text(good.read_text())
        (logs / "broken.csv").write_text("timestamp_s,channel,x,y,z,r_deg\n0,safe,a,b,c,d\n")
        out = tmp_path / "pre"
        assert run("preprocess", "--logs", logs, "--out", out) == 1
        assert "broken" in capsys.readouterr().err
        assert (out / "windows.csv").exists()


class TestTrain:
    def test_model_written_with_metadata(self, synth_dirs):
        doc = json.loads(synth_dirs["model"].read_text())
        assert doc["format"] == "flightwatch-model"
        assert doc["meta"]["input_length"] == 25
        assert doc["meta"]["sample_rate"] == 5.0
        assert doc["meta"]["window_length"] == 5.0
        assert doc["meta"]["overlap"] == 2.5
        assert doc["meta"]["epochs_trained"] <= 30

    def test_deterministic_rerun(self, synth_dirs, tmp_path):
        out = tmp_path / "model2"
        assert run("train", "--windows", synth_dirs["pre"] / "windows.csv",
                   "--max-epochs", "30", "--seed", "5", "--out", out) == 0
        assert (out / "model.json").read_bytes() == synth_dirs["model"].read_bytes()

    def test_zero_nominal_windows(self, synth_dirs, tmp_path, capsys):
        assert run("train", "--windows", synth_dirs["pre"] / "windows.csv",
                   "--nominal-dist", "1000", "--out", tmp_path / "x") == 2
        assert capsys.readouterr().err == "error: zero nominal windows after filtering\n"

    def test_non_finite_window_fails_loud(self, synth_dirs, tmp_path, capsys):
        lines = (synth_dirs["pre"] / "windows.csv").read_text().splitlines()
        fields = lines[5].split(",")
        fields[20] = "nan"
        lines[5] = ",".join(fields)
        bad = tmp_path / "windows.csv"
        bad.write_text("\n".join(lines) + "\n")
        assert run("train", "--windows", bad, "--out", tmp_path / "m") == 2
        assert capsys.readouterr().err.endswith(
            f"(flight '{fields[0]}' index {fields[1]}) is not finite\n")
        assert not (tmp_path / "m" / "model.json").exists()
        assert run("calibrate", "--model", synth_dirs["model"], "--windows", bad,
                   "--out", tmp_path / "c") == 2
        assert "1 of " in capsys.readouterr().err
        # scoring still alarms on the window rather than dropping it
        assert run("detect", "--model", synth_dirs["calibrated"], "--windows", bad,
                   "--out", tmp_path / "d") == 0
        alarms = (tmp_path / "d" / "alarms.csv").read_text().splitlines()
        assert any(row.startswith(f"{fields[0]},{fields[1]},") for row in alarms)

    def test_float32_overflow_window_fails_loud(self, synth_dirs, tmp_path, capsys):
        # finite in float64, but training runs in float32, where 1e39 is inf
        lines = (synth_dirs["pre"] / "windows.csv").read_text().splitlines()
        fields = lines[5].split(",")
        fields[20] = "1e39"
        lines[5] = ",".join(fields)
        bad = tmp_path / "windows.csv"
        bad.write_text("\n".join(lines) + "\n")
        assert run("train", "--windows", bad, "--out", tmp_path / "m") == 2
        assert capsys.readouterr().err.endswith(
            f"(flight '{fields[0]}' index {fields[1]}) is not finite\n")
        assert not (tmp_path / "m").exists()


    def test_diverged_training_writes_no_model(self, synth_dirs, tmp_path, capsys):
        out = tmp_path / "m"
        with np.errstate(all="ignore"):
            assert run("train", "--windows", synth_dirs["pre"] / "windows.csv",
                       "--max-epochs", "2", "--lr", "1e12", "--out", out) == 2
        assert capsys.readouterr().err == (f"error: {out / 'model.json'}: not saved "
                                           f"(layer 'enc1' has a weight that is not finite)\n")
        assert not out.exists()


class TestCalibrate:
    def test_histogram_and_thresholded_model(self, synth_dirs):
        calib = synth_dirs["calib"]
        hist = (calib / "loss_histogram.csv").read_text().splitlines()
        assert hist[0] == "bin_low,bin_high,count,log10_count"
        assert len(hist) == 51  # 50 bins
        doc = json.loads((calib / "calibration.json").read_text())
        model = json.loads(synth_dirs["calibrated"].read_text())
        assert model["meta"]["threshold"] == doc["suggested_threshold"]

    def test_quantile_one_is_max(self, synth_dirs, tmp_path):
        out = tmp_path / "c"
        assert run("calibrate", "--model", synth_dirs["model"],
                   "--windows", synth_dirs["pre"] / "windows.csv",
                   "--quantile", "1.0", "--out", out) == 0
        doc = json.loads((out / "calibration.json").read_text())
        assert doc["suggested_threshold"] == doc["max_loss"]

    def test_set_threshold_writes_model(self, synth_dirs, tmp_path):
        out = tmp_path / "c"
        assert run("calibrate", "--model", synth_dirs["model"],
                   "--windows", synth_dirs["pre"] / "windows.csv",
                   "--set-threshold", "0.3", "--out", out) == 0
        model = json.loads((out / "model.json").read_text())
        assert model["meta"]["threshold"] == 0.3

    @pytest.mark.parametrize("theta", ["0", "-1", "nan", "inf"])
    def test_threshold_no_model_may_hold_is_not_written(self, synth_dirs, tmp_path, capsys,
                                                        theta):
        out = tmp_path / "c"
        assert run("calibrate", "--model", synth_dirs["model"],
                   "--windows", synth_dirs["pre"] / "windows.csv",
                   "--set-threshold", theta, "--out", out) == 2
        assert capsys.readouterr().err == (
            f"error: {out / 'model.json'}: not saved "
            f"(threshold {float(theta)!r} is not null or in (0, inf))\n")
        assert not (out / "model.json").exists()


class TestDetect:
    def test_certain_flight_has_no_alarms(self, synth_dirs, tmp_path):
        held = synth_dirs["held"]
        log = sorted((held / "logs").glob("certain_safe-*.csv"))[0]
        out = tmp_path / "det"
        assert run("detect", "--model", synth_dirs["calibrated"], "--log", log,
                   "--obstacles", held / "obstacles.json", "--out", out) == 0
        report = read_report(out / "reports" / f"{log.stem}.json")
        assert report["alarms"] == []
        alarms = (out / "alarms.csv").read_text().splitlines()
        assert len(alarms) == 1  # header only

    def test_uncertain_flight_alarm_in_injected_interval(self, synth_dirs, tmp_path):
        held = synth_dirs["held"]
        truth = json.loads((held / "truth.json").read_text())["flights"]
        log = sorted((held / "logs").glob("uncertain_safe-*.csv"))[0]
        out = tmp_path / "det"
        assert run("detect", "--model", synth_dirs["calibrated"], "--log", log,
                   "--obstacles", held / "obstacles.json", "--out", out) == 0
        report = read_report(out / "reports" / f"{log.stem}.json")
        assert report["flight_uncertain"]
        info = truth[log.stem]
        onset, end = info["oscillation_start_s"], info["oscillation_end_s"]
        stride = 2.5
        # alarm timestamps are window ends: one window length past the segment
        # is still "inside" it
        assert onset - stride <= report["first_alarm_time_s"] <= end + 5.0 + stride

    def test_unsafe_flight_lead_time(self, synth_dirs, tmp_path):
        held = synth_dirs["held"]
        truth = json.loads((held / "truth.json").read_text())["flights"]
        log = sorted((held / "logs").glob("uncertain_unsafe-*.csv"))[0]
        out = tmp_path / "det"
        assert run("detect", "--model", synth_dirs["calibrated"], "--log", log,
                   "--obstacles", held / "obstacles.json", "--out", out) == 0
        report = read_report(out / "reports" / f"{log.stem}.json")
        assert report["flight_uncertain"]
        assert report["lead_time_s"] is not None and report["lead_time_s"] > 0
        t_unsafe = truth[log.stem]["t_unsafe_s"]
        assert report["lead_time_s"] == pytest.approx(
            t_unsafe - report["first_alarm_time_s"], abs=2.5)

    def test_windows_input_batch(self, synth_dirs, tmp_path):
        held = synth_dirs["held"]
        pre = tmp_path / "pre"
        run("preprocess", "--logs", held / "logs",
            "--obstacles", held / "obstacles.json", "--out", pre)
        out = tmp_path / "det"
        assert run("detect", "--model", synth_dirs["calibrated"],
                   "--windows", pre / "windows.csv", "--out", out) == 0
        reports = list((out / "reports").glob("*.json"))
        assert len(reports) == 7

    def test_stream_mode(self, synth_dirs, tmp_path, monkeypatch, capsys):
        held = synth_dirs["held"]
        pre = tmp_path / "pre"
        run("preprocess", "--logs", held / "logs",
            "--obstacles", held / "obstacles.json", "--out", pre)
        capsys.readouterr()  # drop the preprocess progress line
        text = (pre / "windows.csv").read_text()
        monkeypatch.setattr(sys, "stdin", io.StringIO(text))
        assert run("detect", "--model", synth_dirs["calibrated"], "--stream") == 0
        out_lines = capsys.readouterr().out.splitlines()
        assert out_lines[0] == "flight_id,window_index,timestamp_s,loss,rolling_mean"
        assert len(out_lines) > 1  # uncertain flights raise alarms
        batch_out = tmp_path / "det"
        run("detect", "--model", synth_dirs["calibrated"],
            "--windows", pre / "windows.csv", "--out", batch_out)
        batch_lines = (batch_out / "alarms.csv").read_text().splitlines()
        assert sorted(out_lines[1:]) == sorted(batch_lines[1:])

    def test_stream_and_windows_alarm_rows_are_byte_identical(self, synth_dirs, tmp_path,
                                                              monkeypatch, capsys):
        held = synth_dirs["held"]
        pre = tmp_path / "pre"
        run("preprocess", "--logs", held / "logs", "--out", pre)
        capsys.readouterr()
        # every window from the fourth of a flight on alarms, so every loss is in a row
        assert run("detect", "--model", synth_dirs["calibrated"], "--threshold", "1e-9",
                   "--windows", pre / "windows.csv", "--out", tmp_path / "det") == 0
        capsys.readouterr()
        monkeypatch.setattr(sys, "stdin", io.StringIO((pre / "windows.csv").read_text()))
        assert run("detect", "--model", synth_dirs["calibrated"], "--threshold", "1e-9",
                   "--stream") == 0
        streamed = capsys.readouterr().out
        batch = (tmp_path / "det" / "alarms.csv").read_text()
        assert len(batch.splitlines()) > 7 * 20
        assert streamed == batch

    def test_logs_are_scored_in_one_call_per_flight(self, synth_dirs, tmp_path, monkeypatch):
        calls = []
        score = autoenc.AutoencoderModel.reconstruction_losses

        def counted(model, windows):
            calls.append(len(windows))
            return score(model, windows)

        monkeypatch.setattr(autoenc.AutoencoderModel, "reconstruction_losses", counted)
        held = synth_dirs["held"]
        out = tmp_path / "det"
        assert run("detect", "--model", synth_dirs["calibrated"], "--logs", held / "logs",
                   "--obstacles", held / "obstacles.json", "--out", out) == 0
        reports = [read_report(p) for p in sorted((out / "reports").glob("*.json"))]
        assert len(reports) == 7
        assert sorted(calls) == sorted(len(r["windows"]) for r in reports)

    def test_logs_cut_each_flight_with_one_range_min_call(self, synth_dirs, tmp_path,
                                                           monkeypatch):
        calls = []
        range_min = geometry.DistanceTrace.range_min

        def counted(trace, t0, t1):
            calls.append(np.size(t0))
            return range_min(trace, t0, t1)

        monkeypatch.setattr(geometry.DistanceTrace, "range_min", counted)
        held = synth_dirs["held"]
        out = tmp_path / "det"
        assert run("detect", "--model", synth_dirs["calibrated"], "--logs", held / "logs",
                   "--obstacles", held / "obstacles.json", "--out", out) == 0
        reports = [read_report(p) for p in sorted((out / "reports").glob("*.json"))]
        assert len(reports) == 7
        assert sorted(calls) == sorted(len(r["windows"]) for r in reports)

    def _stream(self, synth_dirs, monkeypatch, capsys, lines, *extra):
        monkeypatch.setattr(sys, "stdin", io.StringIO("\n".join(lines) + "\n"))
        rc = run("detect", "--model", synth_dirs["calibrated"], "--stream", *extra)
        captured = capsys.readouterr()
        return rc, captured.out.splitlines(), captured.err.splitlines()

    def test_stream_isolates_bad_rows_and_flights(self, synth_dirs, tmp_path,
                                                  monkeypatch, capsys):
        lines = (synth_dirs["pre"] / "windows.csv").read_text().splitlines()
        by_flight = {}
        for line in lines[1:]:
            by_flight.setdefault(line.split(",", 1)[0], []).append(line)
        fid_a, fid_b = sorted(by_flight)[:2]
        rows_a, rows_b = by_flight[fid_a][:6], by_flight[fid_b][:6]
        fields = rows_a[1].split(",")
        fields[12] = "not-a-number"
        rows_a[1] = ",".join(fields)                     # unparsable value
        rows_b[2] = rows_b[2].rsplit(",", 3)[0]          # short row
        stream = [lines[0]] + rows_a + rows_b + [by_flight[fid_a][0]]  # out of order
        rc, out, err = self._stream(synth_dirs, monkeypatch, capsys, stream,
                                    "--threshold", "1e-6", "--out", tmp_path / "s")
        assert rc == 1
        assert err == [
            "error: row 3: could not convert string to float: 'not-a-number'",
            "error: row 10: expected 33 fields, got 30",
            f"error: row 14: flight {fid_a}: out-of-order window index 0 after 5"]
        manifest = json.loads((tmp_path / "s" / "run_manifest.json").read_text())
        assert manifest["inputs"] == ["<stdin>"]
        assert sorted(f"error: {k}: {v}" for k, v in manifest["failures"].items()) \
            == sorted(err)
        alarmed = [line.split(",")[:2] for line in out[1:]]
        # four scored windows fill the rolling mean; every later one alarms
        assert alarmed == [[fid_a, "4"], [fid_a, "5"], [fid_b, "4"], [fid_b, "5"]]

    @pytest.mark.parametrize("bound", ["nan", "inf"])
    def test_window_with_a_non_finite_interval_is_rejected(self, synth_dirs, tmp_path,
                                                           monkeypatch, capsys, bound):
        lines = (synth_dirs["pre"] / "windows.csv").read_text().splitlines()
        fid = lines[1].split(",", 1)[0]
        rows = [line.split(",") for line in lines[1:] if line.startswith(fid + ",")][:6]
        rows[1][2:4] = [bound, bound]
        rows[5][8:] = ["nan"] * (len(rows[5]) - 8)  # NaN values are scored, and alarm
        stream = [lines[0]] + [",".join(row) for row in rows]
        windows = tmp_path / "windows.csv"
        windows.write_text("\n".join(stream) + "\n")
        assert run("detect", "--model", synth_dirs["calibrated"], "--windows", windows,
                   "--out", tmp_path / "det") == 2
        assert capsys.readouterr().err.splitlines() == [
            f"error: line 3: window interval [{bound}, {bound}] is not finite"]
        rc, out, err = self._stream(synth_dirs, monkeypatch, capsys, stream)
        assert rc == 1
        assert err == [f"error: row 3: window interval [{bound}, {bound}] is not finite"]
        assert [line.split(",")[:2] for line in out[1:]] == [[fid, "5"]]

    def test_window_without_a_flight_id_is_rejected(self, synth_dirs, tmp_path, monkeypatch,
                                                    capsys):
        lines = (synth_dirs["pre"] / "windows.csv").read_text().splitlines()
        fid = lines[1].split(",", 1)[0]
        rows = [line.split(",") for line in lines[1:] if line.startswith(fid + ",")][:6]
        rows[1][0] = ""
        stream = [lines[0]] + [",".join(row) for row in rows]
        windows = tmp_path / "windows.csv"
        windows.write_text("\n".join(stream) + "\n")
        out = tmp_path / "det"
        assert run("detect", "--model", synth_dirs["calibrated"], "--windows", windows,
                   "--out", out) == 2
        assert capsys.readouterr().err == "error: line 3: empty flight_id\n"
        assert not out.exists()
        rc, _, err = self._stream(synth_dirs, monkeypatch, capsys, stream)
        assert rc == 1
        assert err == ["error: row 3: empty flight_id"]

    @pytest.mark.parametrize("win_dist, min_dist", [("nan", "inf"), ("-1.0", "inf"),
                                                    ("3.0", "nan")])
    def test_window_distance_that_is_nan_or_negative_is_rejected(
            self, synth_dirs, tmp_path, monkeypatch, capsys, win_dist, min_dist):
        # one NaN win_dist_m used to drop every window whose look-ahead covers
        # it from training, silently
        lines = (synth_dirs["pre"] / "windows.csv").read_text().splitlines()
        fields = lines[29].split(",")
        fields[4:6] = [win_dist, min_dist]
        lines[29] = ",".join(fields)
        windows = tmp_path / "windows.csv"
        windows.write_text("\n".join(lines) + "\n")
        why = f"win_dist_m and min_dist_m must be >= 0, got {win_dist} and {min_dist}"
        out = tmp_path / "m"
        assert run("train", "--windows", windows, "--max-epochs", "2", "--out", out) == 2
        assert capsys.readouterr().err == f"error: line 30: {why}\n"
        assert not out.exists()
        rc, _, err = self._stream(synth_dirs, monkeypatch, capsys, lines[:31])
        assert rc == 1
        assert err == [f"error: row 30: {why}"]

    @pytest.mark.parametrize("header, message", [
        ("flight,index,start_s", "bad windowed dataset header"),
        ("flight_id,index,start_s,end_s,win_dist_m,min_dist_m,safety,certainty,v0,v1",
         "stream windows have 2 samples, the model expects 25"),
    ])
    def test_stream_bad_header_exits_2(self, synth_dirs, monkeypatch, capsys,
                                       header, message):
        rc, out, err = self._stream(synth_dirs, monkeypatch, capsys,
                                    [header, "a,0,0.0"])
        assert rc == 2 and out == []
        assert err[-1].startswith(f"error: {message}")

    def test_windows_of_another_length_are_rejected(self, synth_dirs, tmp_path,
                                                    monkeypatch, capsys):
        # 10 Hz x 2.5 s windows have the 25 samples of the 5 Hz x 5 s model
        held = synth_dirs["held"]
        pre = tmp_path / "pre"
        assert run("preprocess", "--logs", held / "logs", "--rate-hz", "10",
                   "--window-s", "2.5", "--overlap-s", "1.25", "--out", pre) == 0
        capsys.readouterr()
        assert run("detect", "--model", synth_dirs["calibrated"],
                   "--windows", pre / "windows.csv", "--out", tmp_path / "det") == 2
        assert capsys.readouterr().err.splitlines()[-1] == (
            "error: line 2: window spans 2.5 s, expected 5.0 s")
        lines = (pre / "windows.csv").read_text().splitlines()
        good = (synth_dirs["pre"] / "windows.csv").read_text().splitlines()
        rc, out, err = self._stream(synth_dirs, monkeypatch, capsys,
                                    [lines[0], lines[1], good[1]], "--threshold", "1e-6")
        assert rc == 1 and out == ["flight_id,window_index,timestamp_s,loss,rolling_mean"]
        assert err == ["error: row 2: window spans 2.5 s, expected 5.0 s"]

    def test_windows_of_another_sample_count_exit_2(self, synth_dirs, tmp_path,
                                                     monkeypatch, capsys):
        # 10 Hz x 5 s windows span the model's 5 s but hold 50 samples, not 25
        held = synth_dirs["held"]
        pre = tmp_path / "pre"
        assert run("preprocess", "--logs", held / "logs", "--rate-hz", "10",
                   "--out", pre) == 0
        capsys.readouterr()
        det = tmp_path / "det"
        assert run("detect", "--model", synth_dirs["calibrated"],
                   "--windows", pre / "windows.csv", "--out", det) == 2
        assert capsys.readouterr().err.splitlines() == [
            f"error: {pre / 'windows.csv'}: windows have 50 samples, the model expects 25"]
        assert not list(det.glob("**/*.json"))
        lines = (pre / "windows.csv").read_text().splitlines()
        rc, out, err = self._stream(synth_dirs, monkeypatch, capsys, lines[:3])
        assert rc == 2 and out == []
        assert err == ["error: stream windows have 50 samples, the model expects 25"]

    def test_uncalibrated_model_is_flagged(self, synth_dirs, tmp_path, capsys):
        out = tmp_path / "det"
        assert run("detect", "--model", synth_dirs["model"],
                   "--windows", synth_dirs["pre"] / "windows.csv", "--out", out) == 0
        assert "no calibrated threshold" in capsys.readouterr().err
        manifest = json.loads((out / "run_manifest.json").read_text())
        assert manifest["threshold_calibrated"] is False
        out2 = tmp_path / "det2"
        assert run("detect", "--model", synth_dirs["calibrated"],
                   "--windows", synth_dirs["pre"] / "windows.csv", "--out", out2) == 0
        assert "warning" not in capsys.readouterr().err
        manifest = json.loads((out2 / "run_manifest.json").read_text())
        assert manifest["threshold_calibrated"] is True

    def test_logs_need_model_geometry(self, synth_dirs, tmp_path, capsys):
        model = autoenc.load_model(synth_dirs["calibrated"])
        model.window_length = model.overlap = model.sample_rate = None
        bare = tmp_path / "bare.json"
        autoenc.save_model(model, bare)
        held = synth_dirs["held"]
        assert run("detect", "--model", bare, "--logs", held / "logs",
                   "--out", tmp_path / "det") == 2
        assert "window geometry" in capsys.readouterr().err
        assert run("detect", "--model", bare, "--windows",
                   synth_dirs["pre"] / "windows.csv", "--out", tmp_path / "det2") == 0

    def test_log_too_short_for_a_window_is_reported_under_its_name(self, synth_dirs,
                                                                   tmp_path):
        held = synth_dirs["held"]
        logs = tmp_path / "logs"
        logs.mkdir()
        short, full = sorted(held.glob("logs/certain_safe-*.csv"))
        shutil.copy(full, logs)
        (logs / short.name).write_text("".join(short.read_text().splitlines(True)[:5]))
        out = tmp_path / "det"
        assert run("detect", "--model", synth_dirs["calibrated"], "--logs", logs,
                   "--out", out) == 0
        assert sorted(p.name for p in (out / "reports").iterdir()) == [
            f"{short.stem}.json", f"{full.stem}.json"]
        doc = read_report(out / "reports" / f"{short.stem}.json")
        assert (doc["flight_id"], doc["windows"]) == (short.stem, [])
        labels = tmp_path / "labels.csv"
        labels.write_text("flight_id,safety,certainty\n"
                          + "".join(f"{p.stem},safe,certain\n" for p in (short, full)))
        assert run("evaluate", "--reports", out / "reports", "--labels", labels,
                   "--out", tmp_path / "eval") == 0

    def test_manifest_names_failed_flight(self, synth_dirs, tmp_path, capsys):
        held = synth_dirs["held"]
        logs = tmp_path / "logs"
        shutil.copytree(held / "logs", logs)
        bad = sorted(logs.glob("*.csv"))[2]
        bad.write_text("timestamp_s,channel,x,y,z,r_deg\n0,safe,a,b,c,d\n")
        out = tmp_path / "det"
        assert run("detect", "--model", synth_dirs["calibrated"], "--logs", logs,
                   "--obstacles", held / "obstacles.json", "--out", out) == 1
        manifest = json.loads((out / "run_manifest.json").read_text())
        assert list(manifest["failures"]) == [bad.stem]
        reason = manifest["failures"][bad.stem]
        assert reason.startswith("line 2:")
        assert f"error: flight {bad.stem}: {reason}\n" in capsys.readouterr().err
        assert len(list((out / "reports").glob("*.json"))) == 6

    @pytest.mark.parametrize("flight_id", ["../x", "sub/dir", "nul\0id"])
    def test_flight_id_that_is_not_a_file_name_fails_alone(self, synth_dirs, tmp_path,
                                                            capsys, flight_id):
        rows = (synth_dirs["pre"] / "windows.csv").read_text().splitlines(keepends=True)
        renamed = rows[1].split(",", 1)[0]
        windows = tmp_path / "in" / "windows.csv"
        windows.parent.mkdir()
        windows.write_text("".join(rows[:1] + [
            (flight_id + row[len(renamed):]) if row.startswith(renamed + ",") else row
            for row in rows[1:]]))
        out = tmp_path / "a" / "b" / "det"
        assert run("detect", "--model", synth_dirs["calibrated"], "--windows", windows,
                   "--out", out) == 1
        manifest = json.loads((out / "run_manifest.json").read_text())
        assert list(manifest["failures"]) == [flight_id]
        assert f"error: flight {flight_id}: " in capsys.readouterr().err
        others = sorted({row.split(",", 1)[0] for row in rows[1:]} - {renamed})
        assert others and sorted(p.stem for p in (out / "reports").iterdir()) == others
        assert "\n" + flight_id not in (out / "alarms.csv").read_text()
        # nothing is written outside the reports of the other flights
        assert sorted(p.relative_to(tmp_path) for p in tmp_path.rglob("*") if p.is_file()) \
            == sorted([Path("in/windows.csv"), Path("a/b/det/alarms.csv"),
                       Path("a/b/det/run_manifest.json")]
                      + [Path("a/b/det/reports") / f"{fid}.json" for fid in others])


@pytest.fixture(scope="module")
def detection(synth_dirs, tmp_path_factory):
    held = synth_dirs["held"]
    out = tmp_path_factory.mktemp("det")
    assert run("detect", "--model", synth_dirs["calibrated"],
               "--logs", held / "logs",
               "--obstacles", held / "obstacles.json", "--out", out) == 0
    return out


class TestEvaluateAndFitness:
    def test_evaluate_document(self, synth_dirs, detection, tmp_path):
        out = tmp_path / "eval"
        assert run("evaluate", "--reports", detection / "reports",
                   "--labels", synth_dirs["held"] / "labels.csv",
                   "--out", out) == 0
        doc = json.loads((out / "evaluation.json").read_text())
        assert doc["n_flights"] == 7
        assert set(doc["ground_truth"]) == {"certainty", "safety"}
        assert (out / "detection_metrics.csv").exists()
        assert (out / "per_flight.csv").exists()

    def test_evaluate_axis_flag(self, synth_dirs, detection, tmp_path, capsys):
        out = tmp_path / "eval"
        assert run("evaluate", "--reports", detection / "reports",
                   "--labels", synth_dirs["held"] / "labels.csv",
                   "--ground-truth", "safety", "--out", out) == 0
        printed = capsys.readouterr().out
        assert "safety ground truth" in printed
        assert "certainty ground truth" not in printed

    def test_evaluate_missing_label(self, synth_dirs, detection, tmp_path):
        labels = tmp_path / "labels.csv"
        labels.write_text("flight_id,safety,certainty\nghost,safe,certain\n")
        assert run("evaluate", "--reports", detection / "reports",
                   "--labels", labels, "--out", tmp_path / "eval") == 2

    def test_evaluate_duplicate_report(self, synth_dirs, detection, tmp_path, capsys):
        reports = tmp_path / "reports"
        shutil.copytree(detection / "reports", reports)
        first = sorted(reports.glob("*.json"))[0]
        shutil.copy(first, reports / f"{first.stem}-again.json")
        assert run("evaluate", "--reports", reports,
                   "--labels", synth_dirs["held"] / "labels.csv",
                   "--out", tmp_path / "eval") == 2
        assert f"duplicate flight ids: ['{first.stem}']" in capsys.readouterr().err

    def test_fitness_single_execution(self, synth_dirs, tmp_path, capsys):
        held = synth_dirs["held"]
        logs = tmp_path / "one"
        logs.mkdir()
        src = sorted((held / "logs").glob("*.csv"))[0]
        (logs / src.name).write_text(src.read_text())
        out = tmp_path / "fit"
        assert run("fitness", "--logs", logs,
                   "--obstacles", held / "obstacles.json", "--out", out) == 0
        doc = json.loads((out / "fitness.json").read_text())
        assert doc["ave_dtw"] == 0.0
        assert doc["fitness"] == doc["sum_dist"]
        assert doc["max_dtw"] == 65.0

    @pytest.mark.parametrize("body, reason", [
        ("0.0,safe,1.5.0,0,0,0\n", "line 2: cannot parse x='1.5.0' as a number"),
        ("0.0,safe,0,0,0,0\n0.0,position,0,0,0,0\n",
         "position channel has fewer than 2 records")])
    def test_fitness_names_the_log_at_fault(self, synth_dirs, tmp_path, capsys, body, reason):
        held = synth_dirs["held"]
        logs = tmp_path / "logs"
        logs.mkdir()
        src = sorted((held / "logs").glob("*.csv"))[0]
        (logs / src.name).write_text(src.read_text())
        bad = logs / "zz-bad.csv"
        bad.write_text("timestamp_s,channel,x,y,z,r_deg\n" + body)
        out = tmp_path / "fit"
        assert run("fitness", "--logs", logs, "--obstacles", held / "obstacles.json",
                   "--out", out) == 2
        assert capsys.readouterr().err == f"error: {bad}: {reason}\n"
        assert not out.exists()

    def test_fitness_multiple_executions(self, synth_dirs, tmp_path):
        held = synth_dirs["held"]
        out = tmp_path / "fit"
        assert run("fitness", "--logs", held / "logs",
                   "--obstacles", held / "obstacles.json",
                   "--max-dtw", "10", "--out", out) == 0
        doc = json.loads((out / "fitness.json").read_text())
        assert doc["n_executions"] == 7.0
        if doc["ave_dtw"] > 10.0:
            assert doc["fitness"] == pytest.approx(doc["sum_dist"] - doc["ave_dtw"])
        else:
            assert doc["fitness"] == doc["sum_dist"]


def _corrupt(text, fault, row):
    """``text`` with one data row broken by ``fault``: an unparsable token, a
    heading out of range, or a row cut short."""
    lines = text.splitlines(keepends=True)
    k = 1 + row % (len(lines) - 1)
    fields = lines[k].rstrip("\n").split(",")
    if fault == "token":
        fields[2] = "1.0x"
    elif fault == "heading":
        fields[5] = "181.5"
    else:
        fields = fields[:3]
    lines[k] = ",".join(fields) + "\n"
    return "".join(lines)


class TestFlightIsolation:
    """One malformed log among k never changes the other k-1 reports."""

    @settings(max_examples=10, deadline=None)
    @given(pick=st.integers(0, 6), fault=st.sampled_from(["token", "heading", "truncated"]),
           row=st.integers(0, 10_000))
    def test_bad_log_leaves_other_reports_unchanged(self, synth_dirs, detection,
                                                    tmp_path_factory, pick, fault, row):
        held = synth_dirs["held"]
        clean = sorted((detection / "reports").glob("*.json"))
        root = tmp_path_factory.mktemp("iso")
        shutil.copytree(held / "logs", root / "logs")
        bad = sorted((root / "logs").glob("*.csv"))[pick]
        bad.write_text(_corrupt(bad.read_text(), fault, row))
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            rc = run("detect", "--model", synth_dirs["calibrated"], "--logs", root / "logs",
                     "--obstacles", held / "obstacles.json", "--out", root / "det")
        assert rc == 1
        assert f"error: flight {bad.stem}:" in err.getvalue()
        got = sorted((root / "det" / "reports").glob("*.json"))
        assert [p.name for p in got] == [p.name for p in clean if p.stem != bad.stem]
        for path in got:
            assert path.read_bytes() == (detection / "reports" / path.name).read_bytes()


class TestConfigFile:
    def test_config_supplies_defaults_flags_win(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"counts": "3,0,0,0", "duration": 70.0, "seed": 9}))
        out_a = tmp_path / "a"
        assert run("synth", "--config", cfg, "--out", out_a) == 0
        labels = (out_a / "labels.csv").read_text().splitlines()
        assert len(labels) == 4  # header + 3 flights
        out_b = tmp_path / "b"
        assert run("synth", "--config", cfg, "--counts", "1,0,0,0", "--out", out_b) == 0
        assert len((out_b / "labels.csv").read_text().splitlines()) == 2

    def test_unknown_config_key(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"bogus_flag": 1}))
        assert run("synth", "--config", cfg, "--out", tmp_path / "x") == 2
        assert capsys.readouterr().err == "error: unknown config keys: ['bogus_flag']\n"

    def test_manifest_snapshots_effective_values(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"duration": 75.0}))
        out = tmp_path / "ds"
        assert run("synth", "--config", cfg, "--counts", "1,0,0,0", "--out", out) == 0
        manifest = json.loads((out / "run_manifest.json").read_text())
        assert manifest["config"]["duration"] == 75.0
        assert manifest["version"]

    def test_file_that_is_not_json_is_named(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text("counts: 1,0,0,0")
        assert run("synth", "--config", cfg, "--out", tmp_path / "x") == 2
        assert capsys.readouterr().err == (f"error: config file {cfg} is not JSON: "
                                           f"Expecting value: line 1 column 1 (char 0)\n")
        assert not (tmp_path / "x").exists()

    @pytest.mark.parametrize("command, entry, message", [
        ("synth", {"counts": 5}, "error: --counts needs 4 non-negative integers"),
        ("evaluate", {"ground_truth": "bogus"},
         "error: argument --ground-truth: invalid choice: 'bogus'"),
        ("train", {"max_epochs": 1.5}, "error: argument --max-epochs: invalid int value: '1.5'"),
        ("calibrate", {"quantile": [1]},
         "error: argument --quantile: invalid float value: '[1]'"),
        ("calibrate", {"apply": "no"},
         "error: argument --apply: ignored explicit argument 'no'"),
        ("train", {"seed": True}, "error: argument --seed: expected one argument"),
        ("synth", {"counts": "-1,0,0,0"}, "error: --counts needs 4 non-negative integers"),
        ("detect", {"logs": "logs"},
         "error: argument --windows: not allowed with argument --logs"),
        ("calibrate", {"apply": True},
         "error: argument --set-threshold: not allowed with argument --apply"),
    ], ids=["counts-5", "ground-truth-bogus", "max-epochs-1.5", "quantile-list", "apply-no",
            "seed-true", "counts-starting-with-a-dash", "detect-source-conflict",
            "apply-conflict"])
    def test_entry_gets_its_flags_checks(self, synth_dirs, detection, tmp_path, command,
                                         entry, message):
        windows = synth_dirs["pre"] / "windows.csv"
        argv = {"synth": [],
                "evaluate": ["--reports", detection / "reports",
                             "--labels", synth_dirs["held"] / "labels.csv"],
                "train": ["--windows", windows],
                "calibrate": ["--model", synth_dirs["model"], "--windows", windows,
                              *(["--set-threshold", "5"] if entry.get("apply") is True
                                else [])],
                "detect": ["--model", synth_dirs["calibrated"], "--windows", windows]}[command]
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(entry))
        out = tmp_path / "out"
        rc, err = exit_code(command, *argv, "--config", cfg, "--out", out)
        assert rc == 2
        assert message in err and "Traceback" not in err
        assert not out.exists()

    def test_null_and_false_leave_the_flag_out_and_true_is_the_bare_flag(self, synth_dirs,
                                                                        tmp_path):
        windows = synth_dirs["pre"] / "windows.csv"
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"lr": None, "max_epochs": 2}))
        assert run("train", "--windows", windows, "--config", cfg, "--out", tmp_path / "t") == 0
        manifest = json.loads((tmp_path / "t" / "run_manifest.json").read_text())
        assert (manifest["config"]["lr"], manifest["config"]["max_epochs"]) == (1e-3, 2)
        argv = ["calibrate", "--model", synth_dirs["model"], "--windows", windows]
        cfg.write_text(json.dumps({"apply": False}))
        assert run(*argv, "--config", cfg, "--out", tmp_path / "off") == 0
        assert not (tmp_path / "off" / "model.json").exists()
        cfg.write_text(json.dumps({"apply": True}))
        assert run(*argv, "--config", cfg, "--out", tmp_path / "on") == 0
        assert (tmp_path / "on" / "model.json").read_bytes() \
            == synth_dirs["calibrated"].read_bytes()  # as --apply wrote it

    @pytest.mark.parametrize("argv", [
        ["preprocess", "--logs", "logs"],
        ["train", "--windows", "windows.csv"],
        ["calibrate", "--model", "model.json", "--windows", "windows.csv"],
        ["detect", "--model", "model.json", "--logs", "logs"],
        ["evaluate", "--reports", "reports", "--labels", "labels.csv"],
        ["fitness", "--logs", "logs", "--obstacles", "obstacles.json"],
        ["synth"],
    ], ids=lambda argv: argv[0])
    def test_every_flag_at_its_default_gives_the_same_namespace(self, tmp_path, monkeypatch,
                                                                argv):
        parser, seen = cli._parser(), []

        def parse_args(args):  # runs nothing: the command records the namespace
            ns = argparse.ArgumentParser.parse_args(parser, args)
            ns.func = lambda a: seen.append(vars(a)) or {"inputs": [], "outputs": [],
                                                         "failures": {}}
            return ns

        monkeypatch.setattr(parser, "parse_args", parse_args)
        argv = [*argv, "--out", str(tmp_path / "out")]
        assert main(argv) == 0
        plain = {k: v for k, v in seen.pop().items() if k != "func"}
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({k: v for k, v in plain.items() if k != "command"}))
        assert main([*argv, "--config", str(cfg)]) == 0
        assert {k: v for k, v in seen.pop().items() if k != "func"} \
            == {**plain, "config": str(cfg)}


# a drawn JSON value, mostly a scalar; numbers stay within +-1000 (or are not
# finite, or beyond float range) so that no accepted synth run is a large corpus
_JSON_SCALARS = st.one_of(
    st.none(), st.booleans(), st.integers(-1000, 1000), st.floats(-1000, 1000),
    st.sampled_from([math.nan, math.inf, -math.inf, 10 ** 400, "", "-1", "1e3", "0x10",
                     "nan", " 7", "1,0,0,0", "0,1,0,0"]),
    st.text(max_size=6))
_JSON_VALUES = st.one_of(_JSON_SCALARS, _JSON_SCALARS, _JSON_SCALARS,
                         st.lists(_JSON_SCALARS, max_size=2),
                         st.dictionaries(st.text(max_size=2), _JSON_SCALARS, max_size=2))
# a valid config of each command; training stops after its second epoch
_CONFIGS = {
    "train": {"nominal_dist": 3.0, "lookahead_s": 50.0, "lr": 1e-3, "batch_size": 128,
              "max_epochs": 2, "patience": 1, "min_delta": 1e3, "seed": 0},
    "synth": {"counts": "1,0,0,0", "duration": 30.0, "noise_std": 1.0, "rate_hz": 5.0,
              "seed": 0},
}
# ``(command, key, value)``: one value of a valid config replaced
_CONFIG_EDITS = st.sampled_from(sorted(_CONFIGS)).flatmap(lambda command: st.tuples(
    st.just(command), st.sampled_from(sorted(_CONFIGS[command])), _JSON_VALUES))


class TestConfigProperty:
    @settings(max_examples=100, deadline=None)
    @given(edit=_CONFIG_EDITS)
    @example(edit=("synth", "counts", 5))
    @example(edit=("train", "max_epochs", 1.5))
    @example(edit=("train", "lr", None))
    @example(edit=("train", "seed", True))
    def test_one_value_replaced_exits_0_as_its_flag_would_or_2(self, synth_dirs,
                                                             tmp_path_factory, edit):
        command, key, value = edit
        root = tmp_path_factory.mktemp("config")
        (root / "cfg.json").write_text(json.dumps({**_CONFIGS[command], key: value}))
        argv = [command, *(["--windows", synth_dirs["pre"] / "windows.csv"]
                           if command == "train" else [])]
        with np.errstate(all="ignore"):
            rc, err = exit_code(*argv, "--config", root / "cfg.json", "--out", root / "out")
        assert rc in (0, 2), err
        if rc == 2:
            assert err.splitlines()[-1].startswith(("error: ", f"flightwatch {command}: error: "))
            assert not (root / "out").exists()
            return
        flags = [] if value is None or value is False else [
            "--" + key.replace("_", "-") + ("" if value is True else f"={value}")]
        want = vars(cli._parser().parse_args([str(a) for a in argv] + flags))[key]
        got = json.loads((root / "out" / "run_manifest.json").read_text())["config"][key]
        assert got == want or (math.isnan(got) and math.isnan(want))


class TestParser:
    def test_built_once_and_a_config_reaches_only_its_own_call(self, synth_dirs, tmp_path):
        cli._parser()
        hits = cli._parser.cache_info().hits
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"nominal_dist": 2.0}))
        argv = ["calibrate", "--model", synth_dirs["model"],
                "--windows", synth_dirs["pre"] / "windows.csv"]
        assert run(*argv, "--config", cfg, "--out", tmp_path / "a") == 0
        assert run(*argv, "--out", tmp_path / "b") == 0
        info = cli._parser.cache_info()
        assert (info.misses, info.currsize) == (1, 1)  # one build in this process
        assert info.hits - hits == 3  # the --config call parses twice
        for name, nominal_dist in (("a", 2.0), ("b", 3.0)):
            manifest = json.loads((tmp_path / name / "run_manifest.json").read_text())
            assert manifest["config"]["nominal_dist"] == nominal_dist


class TestExitStatus:
    """Bad input exits the real process with status 2, not 1 (some flights
    failed) or a traceback."""

    @pytest.mark.parametrize("argv, message", [
        (["synth", "--counts", "1,2", "--out", "ds"], "error: --counts needs 4"),
        (["preprocess", "--logs", "empty", "--out", "pre"],
         "error: no .csv flight logs found in empty"),
    ])
    def test_bad_input_exits_2(self, tmp_path, argv, message):
        (tmp_path / "empty").mkdir()
        src = str(Path(flightwatch.__file__).resolve().parents[1])
        env = {**os.environ,
               "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        proc = subprocess.run([sys.executable, "-m", "flightwatch.cli", *argv],
                              cwd=tmp_path, env=env, capture_output=True, text=True,
                              timeout=120)
        assert proc.returncode == 2, proc.stderr
        assert proc.stderr.startswith(message)

    @pytest.mark.parametrize("argv", [
        ["synth", "--counts", "1,2"],
        ["evaluate", "--reports", "empty", "--labels", "labels.csv"],
        ["detect", "--model", "missing.json", "--logs", "empty"],
    ], ids=["synth", "evaluate", "detect"])
    def test_rejected_run_leaves_no_new_out(self, tmp_path, monkeypatch, argv):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "empty").mkdir()
        assert run(*argv, "--out", "bad1") == 2
        assert not (tmp_path / "bad1").exists()

    def test_rejected_run_leaves_no_new_nested_out(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert run("synth", "--counts", "1,2", "--out", Path("nest", "deeper", "bad1")) == 2
        assert list(tmp_path.iterdir()) == []

    def test_rejected_run_keeps_existing_parent_of_out(self, tmp_path):
        parent = tmp_path / "runs"
        parent.mkdir()
        assert run("synth", "--counts", "1,2", "--out", parent / "new" / "bad1") == 2
        assert parent.is_dir() and list(parent.iterdir()) == []

    def test_unreadable_log_field_exits_2_without_out(self, tmp_path, capsys):
        # a field over the csv module's size limit of 131,072 characters
        logs = tmp_path / "logs"
        logs.mkdir()
        (logs / "f.csv").write_text("timestamp_s,channel,x,y,z,r_deg\n"
                                    "0." + "0" * 200000 + "1,safe,0,0,0,0\n")
        (tmp_path / "obstacles.json").write_text("[]")
        assert run("fitness", "--logs", logs, "--obstacles", tmp_path / "obstacles.json",
                   "--out", tmp_path / "fit") == 2
        assert not (tmp_path / "fit").exists()
        assert capsys.readouterr().err.startswith(
            f"error: {logs / 'f.csv'}: line 2: field larger than field limit")

    def test_rejected_run_keeps_existing_out(self, tmp_path):
        out = tmp_path / "out"
        out.mkdir()
        assert run("synth", "--counts", "1,2", "--out", out) == 2
        assert out.is_dir()

    @pytest.mark.parametrize("command, text, message", [
        ("evaluate", json.dumps({"flight_id": "a"}),
         "error: {path}: not a detection report (no key 'windows')\n"),
        ("evaluate", json.dumps([1, 2]),
         "error: {path}: not a detection report (a JSON list, not an object)\n"),
        ("evaluate", "not json", "error: {path}: not a detection report "
                                 "(JSONDecodeError: Expecting value: line 1 column 1 (char 0))\n"),
        ("evaluate", json.dumps({
            "flight_id": "a", "windows": [], "alarms": [], "flight_uncertain": False,
            "first_alarm_time_s": None, "lead_time_s": "soon", "distance_at_first_alarm_m": None}),
         "error: {path}: not a detection report ('lead_time_s' is not a number or null)\n"),
        ("detect", json.dumps({"format": "flightwatch-model", "version": 1}),
         "error: {path}: not a flightwatch model (KeyError: 'meta')\n"),
    ], ids=["report-missing-key", "report-not-an-object", "report-not-json",
            "report-lead-time-not-a-number", "model-missing-meta"])
    def test_malformed_report_or_model_exits_2(self, tmp_path, capsys, command,
                                               text, message):
        path = tmp_path / "reports" / "a.json"
        path.parent.mkdir()
        path.write_text(text)
        labels = tmp_path / "labels.csv"
        labels.write_text("flight_id,safety,certainty\na,safe,certain\n")
        argv = {"evaluate": ["--reports", path.parent, "--labels", labels],
                "detect": ["--model", path, "--log", tmp_path / "a.csv"]}[command]
        assert run(command, *argv, "--out", tmp_path / "out") == 2
        assert capsys.readouterr().err == message.format(path=path)

    @pytest.mark.parametrize("edit, why", [
        (lambda d: d["meta"].update(threshold="abc"),
         "could not convert string to float: 'abc'"),
        (lambda d: d["meta"].update(threshold="1.5"),
         "/meta/threshold does not re-encode to itself"),
        (lambda d: d["meta"].update(threshold=math.nan),
         "threshold nan is not null or in (0, inf)"),
        (lambda d: d["meta"].update(threshold=-1),
         "threshold -1.0 is not null or in (0, inf)"),
        (lambda d: d["meta"].update(n_consecutive=0), "n_consecutive 0 is less than 1"),
        (lambda d: d["meta"].update(window_length="5"),
         "/meta/window_length does not re-encode to itself"),
        (lambda d: d["meta"].update(window_length=6.0, overlap=3.0),
         "window geometry (6.0, 3.0, 5.0) is not of 25 samples"),
        (lambda d: d["layers"][1].update(stride=3),
         "/layers/1/stride does not re-encode to itself"),
        (lambda d: d["layers"][0]["w"].__setitem__(0, math.nan),
         "layer 'enc1' has a weight that is not finite"),
    ], ids=["threshold-abc", "threshold-string", "threshold-nan", "threshold-negative",
            "n-consecutive-0", "window-length-string", "geometry-of-30-samples",
            "stride-3", "nan-weight"])
    def test_model_that_is_not_its_own_document_exits_2(self, synth_dirs, tmp_path,
                                                        capsys, edit, why):
        doc = json.loads(synth_dirs["calibrated"].read_text())
        edit(doc)
        path = tmp_path / "model.json"
        path.write_text(json.dumps(doc))
        assert run("detect", "--model", path, "--logs", synth_dirs["held"] / "logs",
                   "--out", tmp_path / "det") == 2
        assert capsys.readouterr().err == f"error: {path}: not a flightwatch model ({why})\n"

    @pytest.mark.parametrize("command", ["preprocess", "detect", "fitness"])
    def test_obstacle_that_is_not_finite_exits_2(self, synth_dirs, tmp_path, capsys, command):
        held = synth_dirs["held"]
        boxes = json.loads((held / "obstacles.json").read_text())
        boxes[0]["cx"] = math.nan
        obstacles = tmp_path / "obstacles.json"
        obstacles.write_text(json.dumps(boxes))
        argv = {"preprocess": [], "fitness": [],
                "detect": ["--model", synth_dirs["calibrated"]]}[command]
        out = tmp_path / "out"
        assert run(command, *argv, "--logs", held / "logs", "--obstacles", obstacles,
                   "--out", out) == 2
        assert capsys.readouterr().err == "error: obstacle 0: cx must be finite, got nan\n"
        assert not out.exists()

    @pytest.mark.parametrize("key, value, shown", [("cx", "3", "'3'"), ("length", True, "True")])
    def test_obstacle_field_that_is_not_a_number_exits_2(self, synth_dirs, tmp_path, capsys,
                                                         key, value, shown):
        held = synth_dirs["held"]
        boxes = json.loads((held / "obstacles.json").read_text())
        boxes[0][key] = value
        obstacles = tmp_path / "obstacles.json"
        obstacles.write_text(json.dumps(boxes))
        out = tmp_path / "out"
        assert run("preprocess", "--logs", held / "logs", "--obstacles", obstacles,
                   "--out", out) == 2
        assert capsys.readouterr().err == f"error: obstacle 0: {key} must be a number, got {shown}\n"
        assert not out.exists()


_ONE_RECORD_ERRORS = "".join(f"error: flight {fid}: safe channel has fewer than 2 records\n"
                             for fid in ("a", "b"))


@pytest.fixture
def one_record_logs(tmp_path):
    """Two logs of one record each, which every command fails flight by flight."""
    logs = tmp_path / "logs"
    logs.mkdir()
    for fid in ("a", "b"):
        (logs / f"{fid}.csv").write_text("timestamp_s,channel,x,y,z,r_deg\n0.0,safe,0,0,0,0\n")
    return logs


class TestEveryFlightFailed:
    """A run in which every flight failed exits 2, writes nothing and keeps
    each flight's reason on stderr, once."""

    def test_preprocess_exits_2_without_windows_or_out(self, one_record_logs, tmp_path, capsys):
        out = tmp_path / "pre"
        assert run("preprocess", "--logs", one_record_logs, "--out", out) == 2
        assert capsys.readouterr() == ("", _ONE_RECORD_ERRORS)
        assert not out.exists()

    @pytest.mark.parametrize("source", ["--logs", "--log"])
    def test_detect_exits_2_without_reports_or_out(self, synth_dirs, one_record_logs,
                                                   tmp_path, capsys, source):
        logs = one_record_logs if source == "--logs" else one_record_logs / "a.csv"
        out = tmp_path / "det"
        assert run("detect", "--model", synth_dirs["calibrated"], source, logs,
                   "--out", out) == 2
        errors = _ONE_RECORD_ERRORS.splitlines(keepends=True)
        assert capsys.readouterr() == ("", "".join(errors if source == "--logs" else errors[:1]))
        assert not out.exists()

    def test_detect_windows_of_only_bad_flight_ids_exit_2(self, synth_dirs, tmp_path, capsys):
        rows = (synth_dirs["pre"] / "windows.csv").read_text().splitlines(keepends=True)
        windows = tmp_path / "windows.csv"
        windows.write_text(rows[0] + "".join("../" + row for row in rows[1:]))
        out = tmp_path / "det"
        assert run("detect", "--model", synth_dirs["calibrated"], "--windows", windows,
                   "--out", out) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == len({row.split(",", 1)[0] for row in rows[1:]})
        assert all(line.endswith("is not a plain file name") for line in err)
        assert not out.exists()

    @pytest.mark.parametrize("command", ["preprocess", "detect"])
    def test_existing_out_is_kept_and_left_empty(self, synth_dirs, one_record_logs, tmp_path,
                                                 command):
        out = tmp_path / "out"
        out.mkdir()
        argv = ["--model", synth_dirs["calibrated"]] if command == "detect" else []
        with contextlib.redirect_stderr(io.StringIO()):
            assert run(command, *argv, "--logs", one_record_logs, "--out", out) == 2
        assert list(out.iterdir()) == []


class TestConflictingFlags:
    @pytest.mark.parametrize("command, flags, message", [
        ("detect", ["--logs", "held/logs", "--windows", "pre/windows.csv"],
         "argument --windows: not allowed with argument --logs"),
        ("detect", ["--log", "held/logs/a.csv", "--stream"],
         "argument --stream: not allowed with argument --log"),
        ("calibrate", ["--apply", "--set-threshold", "5"],
         "argument --set-threshold: not allowed with argument --apply"),
    ], ids=["logs-and-windows", "log-and-stream", "apply-and-set-threshold"])
    def test_exit_2_and_write_nothing(self, synth_dirs, tmp_path, command, flags, message):
        flags = [synth_dirs["root"] / f if "/" in f else f for f in flags]
        argv = {"detect": ["--model", synth_dirs["calibrated"]],
                "calibrate": ["--model", synth_dirs["model"],
                              "--windows", synth_dirs["pre"] / "windows.csv"]}[command]
        out = tmp_path / "out"
        rc, err = exit_code(command, *argv, *flags, "--out", out)
        assert rc == 2
        assert err.splitlines()[-1] == f"flightwatch {command}: error: {message}"
        assert not out.exists()


class TestReaderProperties:
    """One edit of a valid input, through the CLI: exit 2 naming the obstacle or
    the line, or the run goes on; never an exception out of ``main``."""

    @settings(max_examples=40, deadline=None)
    @given(case=obstacle_mutations())
    @example(case=([{**OBSTACLE_BOX, "cx": math.nan}], 0))
    def test_obstacle_document(self, synth_dirs, tmp_path_factory, case):
        boxes, i = case
        root = tmp_path_factory.mktemp("obstacles")
        (root / "obstacles.json").write_text(json.dumps(boxes))
        log = sorted((synth_dirs["held"] / "logs").glob("*.csv"))[0]
        err = io.StringIO()
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            rc = run("detect", "--model", synth_dirs["calibrated"], "--log", log,
                     "--obstacles", root / "obstacles.json", "--out", root / "det")
        assert rc in (0, 2)
        assert (rc == 2) == err.getvalue().startswith(f"error: obstacle {i}: ")

    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_labels_csv(self, synth_dirs, detection, tmp_path_factory, data):
        lines = (synth_dirs["held"] / "labels.csv").read_text().splitlines()
        lines, n = data.draw(label_mutations(lines))
        text = "\n".join(lines) + "\n"
        try:
            parse_labels(io.StringIO(text))
            fault = None
        except ValueError as exc:
            fault = str(exc)
        root = tmp_path_factory.mktemp("labels")
        (root / "labels.csv").write_text(text)
        rc, err = exit_code("evaluate", "--reports", detection / "reports",
                            "--labels", root / "labels.csv", "--out", root / "eval")
        if fault is None:
            assert (rc, err) == (0, "")
        else:
            assert fault.startswith(f"line {n}: ")
            assert (rc, err) == (2, f"error: {fault}\n")
            assert not (root / "eval").exists()

    @settings(max_examples=40, deadline=None)
    @given(mutation=window_row_mutations())
    @example(mutation=(3, 0, ""))
    def test_windows_csv(self, synth_dirs, tmp_path_factory, mutation):
        lines = (synth_dirs["pre"] / "windows.csv").read_text().splitlines()[:7]
        text = "\n".join(mutated_lines(lines, mutation)) + "\n"
        try:
            read_windows_csv(io.StringIO(text), 5.0)
            fault = None
        except ValueError as exc:
            fault = str(exc)
        root = tmp_path_factory.mktemp("windows")
        (root / "windows.csv").write_text(text)
        err = io.StringIO()
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            rc = run("detect", "--model", synth_dirs["calibrated"],
                     "--windows", root / "windows.csv", "--out", root / "det")
        stream_err = io.StringIO()
        with mock.patch.object(sys, "stdin", io.StringIO(text)), \
                contextlib.redirect_stderr(stream_err), \
                contextlib.redirect_stdout(io.StringIO()):
            stream_rc = run("detect", "--model", synth_dirs["calibrated"], "--stream")
        if fault is not None:
            assert fault.startswith(f"line {mutation[0]}: ")
            assert (rc, err.getvalue()) == (2, f"error: {fault}\n")
            # the stream skips the row the file reader rejects
            assert (stream_rc, stream_err.getvalue()) == (
                1, f"error: row {fault.removeprefix('line ')}\n")
        else:
            # a well-formed window that its flight cannot take (an index out of
            # order) fails that flight or row alone
            assert all(line.startswith("error: flight ")
                       for line in err.getvalue().splitlines())
            assert rc == (1 if err.getvalue() else 0)
            assert all(read_report(path)["flight_id"]
                       for path in (root / "det" / "reports").glob("*.json"))
            assert all(line.startswith("error: row ")
                       for line in stream_err.getvalue().splitlines())
            assert stream_rc == (1 if stream_err.getvalue() else 0)
