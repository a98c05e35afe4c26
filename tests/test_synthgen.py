import json
import math

import numpy as np
import pytest

from flightwatch.geometry import (DistanceTrace, Trajectory, min_obstacle_distance,
                                  trajectory_from_log)
from flightwatch.preprocess import HeadingWindow, PreprocessConfig, preprocess_flight
from flightwatch.synthgen import (
    CLASS_NAMES,
    OBSTACLE,
    SynthConfig,
    generate,
    heading_profile,
    wrap_heading,
    write_dataset,
)

COUNTS = {"certain_safe": 3, "uncertain_safe": 3, "uncertain_unsafe": 3,
          "certain_unsafe": 2}


# records with array fields, each built twice from equal content
ARRAY_RECORDS = {
    "DistanceTrace": lambda: DistanceTrace(np.array([0.0, 1.0]), np.array([2.0, 3.0])),
    "Trajectory": lambda: Trajectory(np.array([0.0, 1.0]), np.zeros((2, 3))),
    "HeadingWindow": lambda: HeadingWindow("f", 0, 0.0, 5.0, np.zeros(25)),
    "SyntheticFlight": lambda: generate(SynthConfig(seed=3), {"certain_safe": 1}).flights[0],
}


@pytest.mark.parametrize("make", ARRAY_RECORDS.values(), ids=ARRAY_RECORDS.keys())
def test_array_records_compare_and_hash_by_identity(make):
    a, b = make(), make()
    assert a == a and a != b
    assert {a: 1, b: 2}[a] == 1


class TestGenerate:
    def test_counts_and_labels(self):
        ds = generate(SynthConfig(seed=42), {"certain_safe": 10})
        assert len(ds.flights) == 10
        for f in ds.flights:
            assert f.labels.safety == "safe" and f.labels.certainty == "certain"
            assert f.oscillation is None and f.t_unsafe is None

    def test_unknown_class(self):
        with pytest.raises(ValueError, match="unknown"):
            generate(SynthConfig(), {"chaotic": 1})

    @pytest.mark.parametrize("field, value", [
        ("flight_duration", math.nan), ("flight_duration", math.inf), ("sample_rate", math.nan),
        ("sample_rate", math.inf), ("noise_std", math.nan), ("noise_std", math.inf)])
    def test_value_that_is_not_a_finite_number_in_range_is_rejected(self, field, value):
        with pytest.raises(ValueError, match="must be finite"):
            SynthConfig(**{field: value})

    # a flight has round(duration * rate) + 1 samples
    @pytest.mark.parametrize("duration, samples", [(0.001, 1), (0.1, 1), (0.2, 2), (0.4, 3)])
    def test_flight_needs_two_samples(self, duration, samples):
        if samples < 2:
            with pytest.raises(ValueError, match="at least 2 samples"):
                SynthConfig(flight_duration=duration)
        else:
            flight = generate(SynthConfig(flight_duration=duration), {"certain_safe": 1}).flights[0]
            assert flight.log.channel("safe").size == samples

    def test_negative_count(self):
        with pytest.raises(ValueError):
            generate(SynthConfig(), {"certain_safe": -1})

    def test_determinism_in_memory(self):
        a = generate(SynthConfig(seed=9), COUNTS)
        b = generate(SynthConfig(seed=9), COUNTS)
        for fa, fb in zip(a.flights, b.flights):
            assert np.array_equal(fa.log.records, fb.log.records)
            assert fa.profile == fb.profile

    def test_labels_match_distance_construction(self):
        ds = generate(SynthConfig(seed=5), COUNTS)
        for f in ds.flights:
            unsafe = f.distance_trace.min_value < 1.0
            assert (f.labels.safety == "unsafe") == unsafe

    def test_safe_flights_stay_clear(self):
        ds = generate(SynthConfig(seed=6), {"certain_safe": 5, "uncertain_safe": 5})
        for f in ds.flights:
            assert f.distance_trace.min_value > 3.5

    def test_unsafe_crossing_time_matches_truth(self):
        ds = generate(SynthConfig(seed=7),
                      {"uncertain_unsafe": 5, "certain_unsafe": 3})
        for f in ds.flights:
            t_cross = f.distance_trace.first_time_below(1.0)
            assert t_cross is not None
            # first sub-1m sample occurs within one sample period of t_unsafe
            assert 0.0 <= t_cross - f.t_unsafe <= 1.0 / ds.config.sample_rate + 1e-9

    def test_oscillation_timing_invariants(self):
        ds = generate(SynthConfig(seed=8), {"uncertain_safe": 10,
                                            "uncertain_unsafe": 10})
        for f in ds.flights:
            onset, end = f.oscillation
            assert end < ds.config.flight_duration
            if f.t_unsafe is not None:
                assert 20.0 <= f.t_unsafe - onset <= 60.0
                assert f.t_unsafe < ds.config.flight_duration

    def test_noise_free_matches_closed_form(self):
        ds = generate(SynthConfig(seed=11, noise_std=0.0), {"uncertain_safe": 2})
        for f in ds.flights:
            t = f.distance_trace.timestamps
            expected = wrap_heading(heading_profile(t, f.profile))
            got = f.log.channel("safe")["r"]
            assert np.array_equal(expected, got)

    def test_geometry_reproduces_constructed_distances(self):
        ds = generate(SynthConfig(seed=12), COUNTS)
        for f in ds.flights:
            traj = trajectory_from_log(f.log)
            _, trace = min_obstacle_distance(traj, [OBSTACLE])
            assert np.allclose(trace.distances, f.distance_trace.distances, atol=1e-9)

    def test_raw_headings_in_range(self):
        ds = generate(SynthConfig(seed=13), COUNTS)
        for f in ds.flights:
            rs = f.log.channel("safe")["r"]
            assert np.all(rs >= -180.0) and np.all(rs < 180.0)

    def test_duration_too_short_for_unsafe(self):
        with pytest.raises(ValueError, match="short"):
            generate(SynthConfig(seed=1, flight_duration=50.0),
                     {"uncertain_unsafe": 1})


class TestClassSeparation:
    def test_oscillation_windows_stand_out(self):
        cfg = SynthConfig(seed=21, noise_std=2.0)
        ds = generate(cfg, {"certain_safe": 5, "uncertain_safe": 5})
        pconf = PreprocessConfig()
        osc_stds = []
        steady_stds = []
        for f in ds.flights:
            wins, _ = preprocess_flight(f.log, pconf)
            turns = [(t, t + abs(s) / w) for t, s, w in f.profile.turns]
            for win in wins:
                if f.oscillation and f.oscillation[0] <= win.start \
                        and win.end <= f.oscillation[1]:
                    osc_stds.append(win.values.std())
                elif f.oscillation is None or not (
                        f.oscillation[0] - 5.0 <= win.start <= f.oscillation[1]):
                    # steady certain segment: windows clear of any mission turn
                    if all(win.end < t0 or win.start > t1 for t0, t1 in turns):
                        steady_stds.append(win.values.std())
        assert osc_stds and steady_stds
        assert np.mean(osc_stds) >= 3.0 * np.mean(steady_stds)


class TestWriteDataset:
    def test_byte_identical_reruns(self, tmp_path):
        cfg = SynthConfig(seed=42)
        out_a = tmp_path / "a"
        out_b = tmp_path / "b"
        write_dataset(generate(cfg, COUNTS), out_a)
        write_dataset(generate(cfg, COUNTS), out_b)
        files_a = sorted(p.relative_to(out_a) for p in out_a.rglob("*") if p.is_file())
        files_b = sorted(p.relative_to(out_b) for p in out_b.rglob("*") if p.is_file())
        assert files_a == files_b
        for rel in files_a:
            assert (out_a / rel).read_bytes() == (out_b / rel).read_bytes(), rel

    def test_layout_and_truth(self, tmp_path):
        ds = generate(SynthConfig(seed=3), COUNTS)
        paths = write_dataset(ds, tmp_path)
        assert sorted(p.name for p in paths["logs"].glob("*.csv"))
        truth = json.loads(paths["truth"].read_text())
        assert truth["seed"] == 3
        assert len(truth["flights"]) == sum(COUNTS.values())
        for fid, info in truth["flights"].items():
            assert info["class"] in CLASS_NAMES
            if info["class"].startswith("uncertain"):
                assert info["oscillation_start_s"] is not None
        assert paths["labels"].exists() and paths["obstacles"].exists()
        n_dist = len(list(paths["distances"].glob("*.csv")))
        assert n_dist == sum(COUNTS.values())

    def test_distance_files_hold_plain_floats(self, tmp_path):
        ds = generate(SynthConfig(seed=4, flight_duration=60.0), COUNTS)
        paths = write_dataset(ds, tmp_path)
        for f in ds.flights:
            lines = (paths["distances"] / f"{f.log.flight_id}.csv").read_text().splitlines()
            assert lines[0] == "timestamp_s,distance_m"
            rows = [[float(tok) for tok in line.split(",")] for line in lines[1:]]
            ts, dist = np.array(rows).T
            assert np.array_equal(ts, f.distance_trace.timestamps)
            assert np.array_equal(dist, f.distance_trace.distances)
