import json
import io
import sys

import pytest

from flightwatch import autoenc
from flightwatch.cli import main
from flightwatch.detector import read_report
from flightwatch.preprocess import read_windows_csv


def run(*argv):
    return main([str(a) for a in argv])


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

    def test_invalid_counts(self, tmp_path):
        with pytest.raises(SystemExit):
            run("synth", "--counts", "1,2", "--out", tmp_path / "x")
        with pytest.raises(SystemExit):
            run("synth", "--counts", "1,2,three,4", "--out", tmp_path / "y")

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

    def test_require_distances_without_obstacles(self, synth_dirs, tmp_path):
        with pytest.raises(SystemExit):
            run("preprocess", "--logs", synth_dirs["train"] / "logs",
                "--require-distances", "--out", tmp_path / "x")

    def test_labels_attached(self, synth_dirs, tmp_path):
        held = synth_dirs["held"]
        out = tmp_path / "pre"
        assert run("preprocess", "--logs", held / "logs",
                   "--obstacles", held / "obstacles.json",
                   "--labels", held / "labels.csv", "--out", out) == 0
        windows = read_windows_csv(out / "windows.csv")
        assert all(w.safety in ("safe", "unsafe") for w in windows)

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

    def test_zero_nominal_windows(self, synth_dirs, tmp_path):
        with pytest.raises(SystemExit, match="nominal"):
            run("train", "--windows", synth_dirs["pre"] / "windows.csv",
                "--nominal-dist", "1000", "--out", tmp_path / "x")


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


class TestDetect:
    def test_certain_flight_has_no_alarms(self, synth_dirs, tmp_path):
        held = synth_dirs["held"]
        log = sorted((held / "logs").glob("certain_safe-*.csv"))[0]
        out = tmp_path / "det"
        assert run("detect", "--model", synth_dirs["calibrated"], "--log", log,
                   "--obstacles", held / "obstacles.json", "--out", out) == 0
        report = read_report(out / "reports" / f"{log.stem}.json")
        assert report.alarms == ()
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
        assert report.flight_uncertain
        info = truth[log.stem]
        onset, end = info["oscillation_start_s"], info["oscillation_end_s"]
        stride = 2.5
        # alarm timestamps are window ends: one window length past the segment
        # is still "inside" it
        assert onset - stride <= report.first_alarm_time <= end + 5.0 + stride

    def test_unsafe_flight_lead_time(self, synth_dirs, tmp_path):
        held = synth_dirs["held"]
        truth = json.loads((held / "truth.json").read_text())["flights"]
        log = sorted((held / "logs").glob("uncertain_unsafe-*.csv"))[0]
        out = tmp_path / "det"
        assert run("detect", "--model", synth_dirs["calibrated"], "--log", log,
                   "--obstacles", held / "obstacles.json", "--out", out) == 0
        report = read_report(out / "reports" / f"{log.stem}.json")
        assert report.flight_uncertain
        assert report.lead_time is not None and report.lead_time > 0
        t_unsafe = truth[log.stem]["t_unsafe_s"]
        assert report.lead_time == pytest.approx(
            t_unsafe - report.first_alarm_time, abs=2.5)

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

    def _stream(self, synth_dirs, monkeypatch, capsys, lines, *extra):
        monkeypatch.setattr(sys, "stdin", io.StringIO("\n".join(lines) + "\n"))
        rc = run("detect", "--model", synth_dirs["calibrated"], "--stream", *extra)
        captured = capsys.readouterr()
        return rc, captured.out.splitlines(), captured.err.splitlines()

    def test_stream_isolates_bad_rows_and_flights(self, synth_dirs, monkeypatch, capsys):
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
                                    "--threshold", "1e-6")
        assert rc == 1
        assert err == [
            "error: row 3: could not convert string to float: 'not-a-number'",
            "error: row 10: expected 33 fields, got 30",
            f"error: row 14: flight {fid_a}: out-of-order window index 0 after 5"]
        alarmed = [line.split(",")[:2] for line in out[1:]]
        # four scored windows fill the rolling mean; every later one alarms
        assert alarmed == [[fid_a, "4"], [fid_a, "5"], [fid_b, "4"], [fid_b, "5"]]

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

    def test_unknown_config_key(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"bogus_flag": 1}))
        with pytest.raises(SystemExit, match="unknown config keys"):
            run("synth", "--config", cfg, "--out", tmp_path / "x")

    def test_manifest_snapshots_effective_values(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"duration": 75.0}))
        out = tmp_path / "ds"
        assert run("synth", "--config", cfg, "--counts", "1,0,0,0", "--out", out) == 0
        manifest = json.loads((out / "run_manifest.json").read_text())
        assert manifest["config"]["duration"] == 75.0
        assert manifest["version"]
