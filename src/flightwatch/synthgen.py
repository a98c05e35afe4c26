"""Deterministic synthetic flight generator with known ground truth.

Four flight classes combine two heading profiles (certain: piecewise-constant
heading with slew-bounded mission turns; uncertain: the same plus one injected
oscillation segment) with two distance profiles (safe: stays well above 3.5 m
from a virtual wall obstacle; unsafe: descends below 1 m at a known time).
Everything is reproducible: each flight draws from a generator keyed by
(seed, flight index), and headings are emitted directly at the detector's
sample rate so resampling is the identity.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path
from typing import Mapping

import numpy as np

from .flightdata import (RECORD_DTYPE, FlightLabels, FlightLog, ObstacleBox,
                         write_flight_log, write_json, write_labels, write_obstacles)
from .geometry import DistanceTrace

CLASS_NAMES = ("certain_safe", "uncertain_safe", "uncertain_unsafe", "certain_unsafe")

# wall-like obstacle: the flight corridor runs along it so the lateral offset
# equals the obstacle distance exactly
OBSTACLE = ObstacleBox(cx=0.0, cy=0.0, length=60.0, width=2.0, height=10.0, rotation=0.0)
_CRUISE_ALTITUDE = 5.0

# (low, high) sampling ranges of a heading profile: mission turns stay small
# relative to the injected oscillations, so the anomaly stays dominant
_TURN_COUNT, _TURN_STEP, _TURN_SLEW = (2, 5), (10.0, 30.0), (15.0, 30.0)  # count, deg, deg/s
_OSC_AMPLITUDE, _OSC_PERIOD, _OSC_DURATION = (20.0, 60.0), (1.0, 4.0), (10.0, 30.0)  # deg, s, s


@dataclass(frozen=True)
class SynthConfig:
    """Generation parameters."""

    seed: int = 0
    flight_duration: float = 300.0
    sample_rate: float = 5.0
    noise_std: float = 1.0

    def __post_init__(self):
        if not (0 < self.flight_duration < math.inf and 0 < self.sample_rate < math.inf):
            raise ValueError("flight_duration and sample_rate must be finite and > 0")
        if round(self.flight_duration * self.sample_rate) < 1:
            raise ValueError("flight_duration * sample_rate must give at least 2 samples")
        if not 0 <= self.noise_std < math.inf:
            raise ValueError("noise_std must be finite and >= 0")


@dataclass(frozen=True)
class HeadingProfile:
    """Closed-form heading trajectory: base angle, slew-limited turns, and an
    optional oscillation segment (onset, amplitude, period, duration)."""

    base_heading: float
    turns: tuple[tuple[float, float, float], ...]  # (time, step_deg, slew_deg_per_s)
    oscillation: tuple[float, float, float, float] | None = None


def heading_profile(t: np.ndarray, profile: HeadingProfile) -> np.ndarray:
    """Evaluate the continuous (unwrapped) heading profile on a time grid."""
    t = np.asarray(t, dtype=float)
    h = np.full(t.shape, profile.base_heading)
    for start, step, slew in profile.turns:
        duration = abs(step) / slew
        h += step * np.clip((t - start) / duration, 0.0, 1.0)
    if profile.oscillation is not None:
        onset, amplitude, period, duration = profile.oscillation
        mask = (t >= onset) & (t <= onset + duration)
        h = h + np.where(mask, amplitude * np.sin(2.0 * math.pi * (t - onset) / period), 0.0)
    return h


def wrap_heading(values: np.ndarray) -> np.ndarray:
    """Wrap continuous angles into the raw log range [-180, 180)."""
    return (np.asarray(values, dtype=float) + 180.0) % 360.0 - 180.0


@dataclass(frozen=True)
class SyntheticFlight:
    log: FlightLog
    labels: FlightLabels
    flight_class: str
    profile: HeadingProfile
    oscillation: tuple[float, float] | None  # (onset, end)
    t_unsafe: float | None
    distance_trace: DistanceTrace


@dataclass(frozen=True)
class SyntheticDataset:
    config: SynthConfig
    counts: dict[str, int]
    flights: tuple[SyntheticFlight, ...]
    obstacles: tuple[ObstacleBox, ...]


def _place_turns(rng: np.random.Generator, durations: list[float], lo: float,
                 hi: float, gap: float = 2.0) -> list[float]:
    """Start times for non-overlapping turns inside [lo, hi].

    Turns are separated by at least ``gap`` so slew bounds are never summed;
    trailing turns are dropped when a short flight cannot fit them all.
    """
    span = hi - lo
    while durations and sum(d + gap for d in durations) > span:
        durations = durations[:-1]
    n = len(durations)
    if n == 0:
        return []
    slack = span - sum(d + gap for d in durations)
    cuts = np.sort(rng.uniform(0.0, slack, size=n))
    starts = []
    acc = lo
    prev = 0.0
    for d, cut in zip(durations, cuts):
        acc += cut - prev
        starts.append(acc)
        acc += d + gap
        prev = cut
    return starts


def _draw_profile(rng: np.random.Generator, cfg: SynthConfig,
                  uncertain: bool, unsafe: bool) -> HeadingProfile:
    duration = cfg.flight_duration
    n_turns = int(rng.integers(_TURN_COUNT[0], _TURN_COUNT[1] + 1))
    steps = rng.uniform(*_TURN_STEP, size=n_turns) * rng.choice((-1.0, 1.0), size=n_turns)
    slews = rng.uniform(*_TURN_SLEW, size=n_turns)
    times = _place_turns(rng, [abs(s) / w for s, w in zip(steps, slews)],
                         0.1 * duration, 0.85 * duration)
    turns = tuple((float(t), float(s), float(w))
                  for t, s, w in zip(times, steps, slews))
    oscillation = None
    if uncertain:
        onset_hi = 0.6 * duration
        if unsafe:
            # the sub-1m crossing lands 20-60 s after onset; leave room for it
            onset_hi = min(onset_hi, duration - 45.0)
        onset_lo = 0.2 * duration
        if onset_hi <= onset_lo:
            raise ValueError("flight_duration too short for an oscillation segment")
        onset = float(rng.uniform(onset_lo, onset_hi))
        max_dur = min(_OSC_DURATION[1], duration - onset - 5.0)
        if max_dur < _OSC_DURATION[0]:
            raise ValueError("flight_duration too short for an oscillation segment")
        oscillation = (onset,
                       float(rng.uniform(*_OSC_AMPLITUDE)),
                       float(rng.uniform(*_OSC_PERIOD)),
                       float(rng.uniform(_OSC_DURATION[0], max_dur)))
    return HeadingProfile(base_heading=float(rng.uniform(-180.0, 180.0)),
                          turns=turns, oscillation=oscillation)


def _draw_unsafe_onset(rng: np.random.Generator, cfg: SynthConfig,
                       profile: HeadingProfile) -> float:
    """Time of the first sub-1m distance, placed after the oscillation onset for
    uncertain flights and mid-flight otherwise."""
    duration = cfg.flight_duration
    if profile.oscillation is not None:
        onset = profile.oscillation[0]
        hi = min(60.0, duration - onset - 5.0)
        if hi < 20.0:
            raise ValueError("flight_duration too short to place the unsafe crossing")
        return onset + float(rng.uniform(20.0, hi))
    t_unsafe = float(rng.uniform(0.4 * duration, 0.8 * duration))
    if t_unsafe < 20.0:
        raise ValueError("flight_duration too short to place the unsafe crossing")
    return t_unsafe


def _distance_values(rng: np.random.Generator, t: np.ndarray, unsafe: bool,
                     t_unsafe: float | None) -> np.ndarray:
    base = float(rng.uniform(4.5, 8.0))
    if not unsafe:
        amp = float(rng.uniform(0.1, 0.3))
        period = float(rng.uniform(40.0, 90.0))
        phase = float(rng.uniform(0.0, 2.0 * math.pi))
        return base + amp * np.sin(2.0 * math.pi * t / period + phase)
    descent = float(rng.uniform(6.0, 12.0))
    low = float(rng.uniform(0.3, 0.7))
    hold = float(rng.uniform(4.0, 10.0))
    recover = float(rng.uniform(15.0, 25.0))
    t_low = t_unsafe + 2.0
    knots_t = [0.0, t_unsafe - descent, t_unsafe, t_low, t_low + hold,
               t_low + hold + recover]
    knots_d = [base, base, 1.0, low, low, base]
    return np.interp(t, knots_t, knots_d)


def _build_flight(index: int, flight_class: str, cfg: SynthConfig) -> SyntheticFlight:
    rng = np.random.default_rng((cfg.seed, index))
    uncertain = flight_class.startswith("uncertain")
    unsafe = flight_class.endswith("unsafe")
    profile = _draw_profile(rng, cfg, uncertain, unsafe)
    t_unsafe = _draw_unsafe_onset(rng, cfg, profile) if unsafe else None
    n = int(round(cfg.flight_duration * cfg.sample_rate)) + 1
    t = np.arange(n) / cfg.sample_rate
    heading = heading_profile(t, profile) + rng.normal(0.0, cfg.noise_std, size=n)
    r = wrap_heading(heading)
    d = _distance_values(rng, t, unsafe, t_unsafe)
    # corridor along the wall obstacle: lateral offset == obstacle distance
    x = -25.0 + 50.0 * t / cfg.flight_duration
    y = OBSTACLE.width / 2.0 + d
    flight_id = f"{flight_class}-{index:04d}"
    records = np.rec.fromarrays(
        [np.tile(t, 2), np.repeat(("safe", "position"), n), np.tile(x, 2),
         np.tile(y, 2), np.full(2 * n, _CRUISE_ALTITUDE), np.tile(r, 2)],
        names=RECORD_DTYPE.names)
    log = FlightLog(flight_id=flight_id, records=records)
    labels = FlightLabels(flight_id=flight_id,
                          safety="unsafe" if unsafe else "safe",
                          certainty="uncertain" if uncertain else "certain")
    osc = None
    if profile.oscillation is not None:
        onset, _, _, duration = profile.oscillation
        osc = (onset, onset + duration)
    return SyntheticFlight(log=log, labels=labels, flight_class=flight_class,
                           profile=profile, oscillation=osc, t_unsafe=t_unsafe,
                           distance_trace=DistanceTrace(t, d))


def generate(config: SynthConfig, counts: Mapping[str, int]) -> SyntheticDataset:
    """Generate labeled flights per class; deterministic given the seed.

    ``counts`` maps class names (certain_safe, uncertain_safe,
    uncertain_unsafe, certain_unsafe) to flight counts.
    """
    unknown = set(counts) - set(CLASS_NAMES)
    if unknown:
        raise ValueError(f"unknown flight classes: {sorted(unknown)}")
    clean = {name: int(counts.get(name, 0)) for name in CLASS_NAMES}
    if any(v < 0 for v in clean.values()):
        raise ValueError("class counts must be >= 0")
    flights = []
    index = 0
    for name in CLASS_NAMES:
        for _ in range(clean[name]):
            flights.append(_build_flight(index, name, config))
            index += 1
    return SyntheticDataset(config=config, counts=clean, flights=tuple(flights),
                            obstacles=(OBSTACLE,))


def write_dataset(dataset: SyntheticDataset, outdir) -> dict[str, Path]:
    """Write logs/, labels.csv, obstacles.json, distances/, and truth.json."""
    outdir = Path(outdir)
    logs_dir = outdir / "logs"
    dist_dir = outdir / "distances"
    logs_dir.mkdir(parents=True, exist_ok=True)
    dist_dir.mkdir(parents=True, exist_ok=True)
    for flight in dataset.flights:
        write_flight_log(flight.log, logs_dir / f"{flight.log.flight_id}.csv")
        trace = flight.distance_trace
        rows = zip(trace.timestamps.tolist(), trace.distances.tolist())
        (dist_dir / f"{flight.log.flight_id}.csv").write_text(
            "timestamp_s,distance_m\n" + "".join(f"{t!r},{d!r}\n" for t, d in rows),
            encoding="utf-8")
    write_labels([f.labels for f in dataset.flights], outdir / "labels.csv")
    write_obstacles(dataset.obstacles, outdir / "obstacles.json")
    truth = {
        "seed": dataset.config.seed,
        "counts": dataset.counts,
        "flights": {
            f.log.flight_id: {
                "class": f.flight_class,
                "oscillation_start_s": f.oscillation[0] if f.oscillation else None,
                "oscillation_end_s": f.oscillation[1] if f.oscillation else None,
                "t_unsafe_s": f.t_unsafe,
            }
            for f in dataset.flights
        },
    }
    truth_path = outdir / "truth.json"
    write_json(truth, truth_path, indent=2)
    return {"logs": logs_dir, "labels": outdir / "labels.csv",
            "obstacles": outdir / "obstacles.json", "distances": dist_dir,
            "truth": truth_path}
