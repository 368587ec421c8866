"""Session loading from channel CSVs + manifest, and synthesis of
paper-shaped corpora with known ground truth."""

import json
import math
import os
import sys
from dataclasses import MISSING, dataclass, fields, is_dataclass

import numpy as np

from .errors import InvalidInput, MissingFile
from .fileio import write_atomic
from .model import (
    ALL_SETTINGS,
    CHANNELS,
    ENGLISH,
    GREEK,
    SessionRecord,
    SessionSetting,
    TimeSeries,
)

MANIFEST_SCHEMA_VERSION = 1
# Most samples a synthesized channel may hold (about 11 hours at 25 Hz).
MAX_CHANNEL_SAMPLES = 1_000_000


# ---------------------------------------------------------------------------
# Loading
# ---------------------------------------------------------------------------

def read_channel_csv(path, sampling_rate_hz, trim_head=0, trim_tail=0, label="") -> TimeSeries:
    """Read a `timestamp_s,value` CSV and apply head/tail trims.

    Trims happen before any filtering; they generalize the manual removal of
    motion-artifact samples at sequence edges; they must leave at least 2
    samples. Timestamps must be finite, and consecutive ones one sample period
    apart, to within a quarter of a period: a dropped or an extra row would
    shift every later sample in time.
    """
    if not os.path.isfile(path):
        raise MissingFile(f"{path}: no such file")
    if not sampling_rate_hz > 0:
        raise InvalidInput(f"{path}: sampling rate {sampling_rate_hz!r} is not positive")
    times, values, blank_rows = [], [], []
    # undecodable bytes become U+FFFD, which fails the header or float checks
    with open(path, "r", encoding="utf-8", errors="replace") as fh:
        header = fh.readline()
        if header.strip() != "timestamp_s,value":
            raise InvalidInput(f"{path}, line 1: expected header 'timestamp_s,value'")
        prev_t = -math.inf
        for lineno, line in enumerate(fh, start=2):
            line = line.strip()
            if not line:
                blank_rows.append(len(values))  # data rows read before it
                continue
            parts = line.split(",")
            if len(parts) != 2:
                raise InvalidInput(f"{path}, line {lineno}: expected two columns")
            try:
                t, v = float(parts[0]), float(parts[1])
            except ValueError:
                raise InvalidInput(f"{path}, line {lineno}: non-numeric field") from None
            if not math.isfinite(t):
                raise InvalidInput(f"{path}, line {lineno}: non-finite timestamp")
            if not math.isfinite(v):
                raise InvalidInput(f"{path}, line {lineno}: non-finite sample at index {len(values)}")
            if t <= prev_t:
                raise InvalidInput(f"{path}, line {lineno}: timestamps not increasing")
            prev_t = t
            times.append(t)
            values.append(v)
    steps = np.diff(times)
    off_grid = np.flatnonzero(np.abs(steps * sampling_rate_hz - 1.0) > 0.25)
    if len(off_grid):
        k = off_grid[0] + 1
        lineno = k + 2 + sum(n <= k for n in blank_rows)
        raise InvalidInput(
            f"{path}, line {lineno}: timestamp {times[k]!r} s is {steps[k - 1]:.6g} s "
            f"after the previous one, not one sample period ({1 / sampling_rate_hz:.6g} s)")
    if trim_head < 0 or trim_tail < 0:
        raise InvalidInput("trim counts must be >= 0")
    kept = len(values) - trim_head - trim_tail
    if kept < 2:
        raise InvalidInput(f"{path}: fewer than 2 samples after trimming")
    return TimeSeries(np.array(values[trim_head:trim_head + kept]), sampling_rate_hz, label)


def load_manifest(path):
    """Parse a manifest JSON file; returns (entries, base_dir).

    Raises MissingFile, or InvalidInput when the file is not JSON, lacks a
    ``sessions`` list of objects or declares a ``schema_version`` other than
    ``MANIFEST_SCHEMA_VERSION`` (a missing one is accepted).
    """
    if not os.path.isfile(path):
        raise MissingFile(f"{path}: no such file")
    with open(path, "r", encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except ValueError as exc:
            raise InvalidInput(f"{path}: not valid JSON: {exc}") from None
    sessions = doc.get("sessions") if isinstance(doc, dict) else None
    if not isinstance(sessions, list) or not all(isinstance(e, dict) for e in sessions):
        raise InvalidInput(f"{path}: expected a 'sessions' list of objects")
    version = doc.get("schema_version", MANIFEST_SCHEMA_VERSION)
    if type(version) is not int or version != MANIFEST_SCHEMA_VERSION:
        raise InvalidInput(f"{path}: schema_version {version!r} is not {MANIFEST_SCHEMA_VERSION}")
    return sessions, os.path.dirname(os.path.abspath(path))


# What each field type accepts from JSON; a float must also be finite.
_JSON_KINDS = {int: (int, "an integer"), float: ((int, float), "a finite number"),
               str: (str, "a string")}
_REQUIRED = object()


def _field(doc, key, kind, where, default=_REQUIRED):
    """``doc[key]`` checked against ``kind`` (int, float, str or a dataclass
    built from an object), or ``default`` when the key is absent or
    null and a default is given; InvalidInput naming ``where`` and the key
    otherwise. A float field's integer value is returned as a float."""
    value = doc.get(key)
    if value is None:
        if default is _REQUIRED:
            raise InvalidInput(f"{where}: missing {key!r}")
        return default
    if is_dataclass(kind):
        return _dataclass(kind, value, f"{where}.{key}")
    types, name = _JSON_KINDS[kind]
    if (isinstance(value, bool) or not isinstance(value, types)
            or kind is float and not -sys.float_info.max <= value <= sys.float_info.max):
        raise InvalidInput(f"{where}.{key}: expected {name}, got {value!r}")
    return float(value) if kind is float else value


def _dataclass(cls, doc, where, **given):
    """``cls(**doc, **given)`` with every field not in ``given`` checked by
    ``_field`` against its annotation; unknown keys and a ValueError from
    ``cls`` are InvalidInput."""
    if not isinstance(doc, dict):
        raise InvalidInput(f"{where}: expected an object, got {doc!r}")
    read = [f for f in fields(cls) if f.name not in given]
    unknown = sorted(set(doc) - {f.name for f in read})
    if unknown:
        raise InvalidInput(f"{where}: unknown keys {unknown}")
    kwargs = {f.name: _field(doc, f.name, f.type, where,
                             _REQUIRED if f.default is MISSING else f.default)
              for f in read}
    try:
        return cls(**kwargs, **given)
    except ValueError as exc:
        raise InvalidInput(f"{where}: {exc}") from None


@dataclass(frozen=True)
class ChannelSpec:
    """One channel of a manifest entry: its CSV, relative to the manifest,
    its sampling rate and the samples trimmed off each end."""

    path: str
    sampling_rate_hz: float
    trim_head: int = 0
    trim_tail: int = 0


@dataclass(frozen=True)
class ChannelSpecs:
    """The ``channels`` object of a manifest entry, one spec per channel."""

    ppg: ChannelSpec
    eda: ChannelSpec
    thermopile: ChannelSpec
    reference_temp: ChannelSpec


def load_session(entry, base_dir) -> SessionRecord:
    """Build a SessionRecord from one manifest entry: its ``channels`` are
    read as ChannelSpecs, every other key as a SessionRecord field.

    Raises InvalidInput naming the key when a key is unknown, a field is
    missing or of the wrong type, or the session breaks one of
    SessionRecord's rules.
    """
    specs = _field(entry, "channels", ChannelSpecs, "entry")
    channels = {}
    for name in CHANNELS:
        spec = getattr(specs, name)
        channels[name] = read_channel_csv(os.path.join(base_dir, spec.path), spec.sampling_rate_hz,
                                          spec.trim_head, spec.trim_tail, label=name)
    own = {key: value for key, value in entry.items() if key != "channels"}
    return _dataclass(SessionRecord, own, "entry", **channels)


# ---------------------------------------------------------------------------
# Synthesis
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ClassParams:
    """Per-class signal statistics for the generator."""

    hr_bpm: float
    rr_jitter_ms: float
    breathing_hz: float
    breathing_mod_ms: float
    scr_rate_per_min: float
    scr_amp_mean_us: float
    tonic_slope_us_per_min: float
    temp_drift_c_per_min: float


# Strong-margin defaults: fast sessions have a markedly higher heart rate,
# lower beat-to-beat variability and more skin conductance responses.
SLOW_PARAMS = ClassParams(
    hr_bpm=62.0, rr_jitter_ms=45.0, breathing_hz=0.20, breathing_mod_ms=40.0,
    scr_rate_per_min=2.0, scr_amp_mean_us=0.25, tonic_slope_us_per_min=0.05,
    temp_drift_c_per_min=0.01,
)
FAST_PARAMS = ClassParams(
    hr_bpm=92.0, rr_jitter_ms=12.0, breathing_hz=0.33, breathing_mod_ms=15.0,
    scr_rate_per_min=9.0, scr_amp_mean_us=0.55, tonic_slope_us_per_min=0.30,
    temp_drift_c_per_min=0.05,
)
# Neutral resting parameters for the pre-task baseline interval (class-free).
BASELINE_PARAMS = ClassParams(
    hr_bpm=72.0, rr_jitter_ms=30.0, breathing_hz=0.25, breathing_mod_ms=25.0,
    scr_rate_per_min=4.0, scr_amp_mean_us=0.35, tonic_slope_us_per_min=0.1,
    temp_drift_c_per_min=0.02,
)


@dataclass(frozen=True)
class SynthConfig:
    participants: int = 12
    sessions_per_participant: int = 4
    baseline_s: float = 30.0
    task_s: float = 182.0
    ppg_rate_hz: float = 25.0
    eda_rate_hz: float = 15.0
    temp_rate_hz: float = 7.5
    slow: ClassParams = SLOW_PARAMS
    fast: ClassParams = FAST_PARAMS
    baseline: ClassParams = BASELINE_PARAMS
    # participants 1..n_slow_biased get their (2 helicopters, Greek) session
    # rated slow; with the 12x4 default this yields the 26/22 class split
    n_slow_biased: int = 2
    seed: int = 7

    def validate(self):
        if self.participants < 1 or self.sessions_per_participant < 1:
            raise InvalidInput("participant and session counts must be >= 1")
        if self.sessions_per_participant > 4:
            raise InvalidInput("at most 4 sessions (one per setting)")
        if min(self.baseline_s, self.task_s) <= 0:
            raise InvalidInput("durations must be positive")
        if min(self.ppg_rate_hz, self.eda_rate_hz, self.temp_rate_hz) <= 0:
            raise InvalidInput("channel sampling rates must be positive")
        total_s = self.baseline_s + self.task_s
        for rate in (self.ppg_rate_hz, self.eda_rate_hz, self.temp_rate_hz):
            if not total_s * rate <= MAX_CHANNEL_SAMPLES:  # also false when not finite
                raise InvalidInput(f"a channel holds at most {MAX_CHANNEL_SAMPLES} samples; "
                                   f"{total_s!r} s at {rate!r} Hz does not")
        for p in (self.slow, self.fast, self.baseline):
            if not 42.0 <= p.hr_bpm <= 210.0:
                raise InvalidInput("heart rate outside the 42-210 bpm passband")
            if p.scr_rate_per_min < 0 or p.rr_jitter_ms < 0:
                raise InvalidInput("rates and jitters must be non-negative")
        if not 0 <= self.n_slow_biased <= self.participants:
            raise InvalidInput("n_slow_biased out of range")
        if self.seed < 0:
            raise InvalidInput("seed must be >= 0")


def synth_config_from_json(doc, where="config") -> SynthConfig:
    """A SynthConfig from a JSON object holding any of its fields; each class
    parameter field holds an object with every ClassParams field."""
    return _dataclass(SynthConfig, doc, where)


def zero_margin_config(seed: int = 7) -> SynthConfig:
    """Config whose slow and fast sessions are statistically identical."""
    return SynthConfig(slow=BASELINE_PARAMS, fast=BASELINE_PARAMS, seed=seed)


def intended_class(config: SynthConfig, participant_id: int, setting: SessionSetting) -> str:
    """Ground-truth class the generator aims for: two-helicopter sessions are
    fast, except the slow-biased participants' (2, Greek) session."""
    if setting.helicopters == 1:
        return "slow"
    if setting.language == GREEK and participant_id <= config.n_slow_biased:
        return "slow"
    return "fast"


def _beat_times(rng, duration_s, params: ClassParams, t0=0.0):
    """Beat time stamps over [t0, t0+duration) with breathing modulation."""
    times = []
    t = t0
    base_rr = 60.0 / params.hr_bpm
    while t < t0 + duration_s:
        mod = params.breathing_mod_ms / 1000.0 * math.sin(
            2 * math.pi * params.breathing_hz * t)
        jitter = rng.normal(0.0, params.rr_jitter_ms / 1000.0)
        rr = max(60.0 / 210.0, base_rr + mod + jitter)
        t = t + rr
        times.append(t)
    return [x for x in times if x < t0 + duration_s]


def _gauss_pulses(grid, centers, width_s=0.10, amplitude=1.0):
    out = np.zeros_like(grid)
    for c in centers:
        lo = np.searchsorted(grid, c - 4 * width_s)
        hi = np.searchsorted(grid, c + 4 * width_s)
        out[lo:hi] += amplitude * np.exp(-0.5 * ((grid[lo:hi] - c) / width_s) ** 2)
    return out


def _scr_kernel(t, tau_rise=0.75, tau_decay=4.0):
    """Unit-peak skin conductance response shape (double exponential)."""
    k = np.exp(-t / tau_decay) - np.exp(-t / tau_rise)
    peak = k.max(initial=0.0)  # 0 when no sample follows the onset
    return k / (peak if peak > 0 else 1.0)


def _synth_session(config: SynthConfig, participant_id: int, session_index: int,
                   setting: SessionSetting, rng) -> SessionRecord:
    cls = intended_class(config, participant_id, setting)
    task_params = config.slow if cls == "slow" else config.fast
    base_params = config.baseline
    total_s = config.baseline_s + config.task_s

    # PPG: Gaussian pulse train; baseline rhythm then the class rhythm
    beats = _beat_times(rng, config.baseline_s, base_params, t0=0.0)
    beats += _beat_times(rng, config.task_s, task_params, t0=config.baseline_s)
    n_ppg = int(round(total_s * config.ppg_rate_hz))
    grid = np.arange(n_ppg) / config.ppg_rate_hz
    ppg = _gauss_pulses(grid, beats) + rng.normal(0.0, 0.03, n_ppg)

    # EDA: tonic ramp + wander + Poisson SCR events + noise
    n_eda = int(round(total_s * config.eda_rate_hz))
    t_eda = np.arange(n_eda) / config.eda_rate_hz
    tonic = np.where(
        t_eda < config.baseline_s,
        2.0 + base_params.tonic_slope_us_per_min * t_eda / 60.0,
        2.0 + base_params.tonic_slope_us_per_min * config.baseline_s / 60.0
        + task_params.tonic_slope_us_per_min * (t_eda - config.baseline_s) / 60.0,
    )
    tonic = tonic + 0.08 * np.sin(2 * math.pi * 0.01 * t_eda + rng.uniform(0, 2 * math.pi))
    eda = tonic.copy()
    for (start, dur, params) in ((0.0, config.baseline_s, base_params),
                                 (config.baseline_s, config.task_s, task_params)):
        n_events = rng.poisson(params.scr_rate_per_min * dur / 60.0)
        onsets = np.sort(rng.uniform(start, start + dur - 5.0, n_events)) if n_events else []
        for onset in onsets:
            amp = max(0.05, rng.normal(params.scr_amp_mean_us, 0.05))
            mask = t_eda >= onset
            eda[mask] += amp * _scr_kernel(t_eda[mask] - onset)
    # noise floor well below the 0.01 µS SCR threshold after cleaning
    eda += rng.normal(0.0, 0.001, n_eda)

    # Temperature: slow drifts + small noise
    n_temp = int(round(total_s * config.temp_rate_hz))
    t_temp = np.arange(n_temp) / config.temp_rate_hz
    drift = np.where(
        t_temp < config.baseline_s,
        base_params.temp_drift_c_per_min * t_temp / 60.0,
        base_params.temp_drift_c_per_min * config.baseline_s / 60.0
        + task_params.temp_drift_c_per_min * (t_temp - config.baseline_s) / 60.0,
    )
    thermo = 34.0 + drift + 0.05 * np.sin(2 * math.pi * 0.005 * t_temp) + rng.normal(0, 0.01, n_temp)
    ref = 25.0 + 0.3 * drift + rng.normal(0, 0.01, n_temp)

    rating = int(rng.choice([1, 2] if cls == "slow" else [4, 5]))
    duration_estimate_s = float(round(total_s * rng.uniform(0.7, 1.3), 1))
    try:
        return SessionRecord(
            participant_id=participant_id,
            session_index=session_index,
            setting=setting,
            ppg=TimeSeries(ppg, config.ppg_rate_hz, "ppg"),
            eda=TimeSeries(eda, config.eda_rate_hz, "eda"),
            thermopile=TimeSeries(thermo, config.temp_rate_hz, "thermopile"),
            reference_temp=TimeSeries(ref, config.temp_rate_hz, "reference_temp"),
            task_start_s=config.baseline_s,
            task_end_s=total_s,
            rating=rating,
            duration_estimate_s=duration_estimate_s,
        )
    except ValueError as exc:
        # e.g. a channel too sparse to cover the task window
        raise InvalidInput(f"participant {participant_id} session {session_index}: {exc}") from None


def synth_dataset(config: SynthConfig):
    """Generate the full synthetic corpus; deterministic for a fixed seed.

    Raises InvalidInput when the config fails ``validate`` or gives a
    session that breaks a SessionRecord rule.
    """
    config.validate()
    sessions = []
    for pid in range(1, config.participants + 1):
        for sidx in range(1, config.sessions_per_participant + 1):
            setting = ALL_SETTINGS[sidx - 1]
            rng = np.random.default_rng([config.seed, pid, sidx])
            sessions.append(_synth_session(config, pid, sidx, setting, rng))
    return sessions


# ---------------------------------------------------------------------------
# Corpus writing (CSV channels + manifest)
# ---------------------------------------------------------------------------

def write_channel_csv(path, series: TimeSeries):
    lines = ["timestamp_s,value"]
    fs = series.sampling_rate_hz
    for i, v in enumerate(series.values):
        lines.append(f"{i / fs!r},{float(v)!r}")
    write_atomic(path, "\n".join(lines) + "\n")


def write_corpus(sessions, out_dir):
    """Write channel CSVs plus a manifest.json; returns the manifest path."""
    os.makedirs(out_dir, exist_ok=True)
    entries = []
    for s in sessions:
        rel = f"p{s.participant_id:02d}_s{s.session_index}"
        os.makedirs(os.path.join(out_dir, rel), exist_ok=True)
        chans = {}
        for name in CHANNELS:
            series: TimeSeries = getattr(s, name)
            path = f"{rel}/{name}.csv"
            write_channel_csv(os.path.join(out_dir, path), series)
            chans[name] = {
                "path": path,
                "sampling_rate_hz": series.sampling_rate_hz,
                "trim_head": 0,
                "trim_tail": 0,
            }
        entries.append({
            "participant_id": s.participant_id,
            "session_index": s.session_index,
            "setting": {"helicopters": s.setting.helicopters, "language": s.setting.language},
            "channels": chans,
            "task_start_s": s.task_start_s,
            "task_end_s": s.task_end_s,
            "rating": s.rating,
            "duration_estimate_s": s.duration_estimate_s,
        })
    manifest = {"schema_version": MANIFEST_SCHEMA_VERSION, "sessions": entries}
    manifest_path = os.path.join(out_dir, "manifest.json")
    write_atomic(manifest_path, json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    return manifest_path
