"""Session loading from channel CSVs + manifest, and synthesis of
paper-shaped corpora with known ground truth."""

import functools
import io
import math
import os
import re
import sys
from dataclasses import MISSING, dataclass, fields, is_dataclass

import numpy as np

from .errors import InvalidInput, MissingFile, check_integer, check_positive
from .fileio import read_json, write_atomic, write_json
from .model import (
    ALL_SETTINGS,
    CHANNELS,
    GREEK,
    SessionRecord,
    SessionSetting,
    TimeSeries,
)

MANIFEST_SCHEMA_VERSION = 1


# ---------------------------------------------------------------------------
# Loading
# ---------------------------------------------------------------------------

# A body of only these characters is plain decimal text, which np.loadtxt and
# float() parse alike, both rounding correctly. Any other body, say one with
# spaces, underscores, nan or inf spellings or non-ASCII digits, is read by the
# line loop alone.
_PLAIN_BODY = re.compile(r"[0-9eE+\-.,\n]*")


def read_channel_csv(path, sampling_rate_hz, trim_head=0, trim_tail=0) -> TimeSeries:
    """Read a `timestamp_s,value` CSV and apply head/tail trims.

    Trims happen before any filtering; they generalize the manual removal of
    motion-artifact samples at sequence edges; they must be non-negative
    integers, which is checked before the file is read, and leave at least 2 samples.
    Timestamps must be finite, and consecutive ones one sample period apart,
    to within a quarter of a period: a dropped or an extra row would shift
    every later sample in time. A field holds anything ``float()``
    accepts; plain decimal text is parsed in bulk, and any other file, or one
    that breaks a rule, is read line by line, which names the failing line.
    """
    if not os.path.isfile(path):
        raise MissingFile(f"{path}: no such file")
    check_positive(f"{path}: sampling_rate_hz", sampling_rate_hz)
    check_integer(f"{path}: trim_head", trim_head)
    check_integer(f"{path}: trim_tail", trim_tail)
    # undecodable bytes become U+FFFD, which fails the header or float checks
    with open(path, "r", encoding="utf-8", errors="replace") as fh:
        header, _, body = fh.read().partition("\n")
    if header.strip() != "timestamp_s,value":
        raise InvalidInput(f"{path}, line 1: expected header 'timestamp_s,value'")
    values = _read_rows_numpy(body, sampling_rate_hz, trim_head, trim_tail)
    if values is None:
        values = _read_rows_loop(path, body, sampling_rate_hz, trim_head, trim_tail)
    return TimeSeries(values, sampling_rate_hz)


def _read_rows_numpy(body, sampling_rate_hz, trim_head, trim_tail):
    """The kept values of ``body``, the rows after the header, parsed in one
    numpy call; None unless the body is plain decimal text that passes every
    rule of ``_read_rows_loop``."""
    # an empty body goes to the loop before loadtxt can warn about it
    if not body.strip() or not _PLAIN_BODY.fullmatch(body):
        return None
    try:
        rows = np.loadtxt(io.StringIO(body), delimiter=",", comments=None, ndmin=2)
    except ValueError:
        return None
    if rows.shape[1] != 2 or not np.isfinite(rows).all():
        return None
    steps = np.diff(rows[:, 0])
    kept = len(rows) - trim_head - trim_tail
    if (not (steps > 0).all() or (np.abs(steps * sampling_rate_hz - 1.0) > 0.25).any()
            or kept < 2):
        return None
    return rows[trim_head:trim_head + kept, 1].copy()


def _read_rows_loop(path, body, sampling_rate_hz, trim_head, trim_tail):
    """The kept values of ``body``, the rows after the header, read line by
    line: the one authority on which rows are valid, and the source of every
    message, which names ``path`` and the failing line."""
    times, values, blank_rows = [], [], []
    prev_t = -math.inf
    for lineno, line in enumerate(io.StringIO(body), start=2):
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
    kept = len(values) - trim_head - trim_tail
    if kept < 2:
        raise InvalidInput(f"{path}: fewer than 2 samples after trimming")
    return np.array(values[trim_head:trim_head + kept])


def load_manifest(path):
    """Parse a manifest JSON file; returns (entries, base_dir).

    Raises MissingFile, or InvalidInput when the file is not JSON, lacks a
    ``sessions`` list of objects or declares a ``schema_version`` other than
    ``MANIFEST_SCHEMA_VERSION`` (a missing one is accepted).
    """
    doc = read_json(path)
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
                                          spec.trim_head, spec.trim_tail)
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


# (slow, fast) task statistics of each class margin; "zero" makes the classes alike.
MARGINS = {"strong": (SLOW_PARAMS, FAST_PARAMS), "zero": (BASELINE_PARAMS, BASELINE_PARAMS)}
PPG_RATE_HZ, EDA_RATE_HZ, TEMP_RATE_HZ = 25.0, 15.0, 7.5  # the wearable's rates
# Each phase lasts at least this long; its SCRs start this long before its end.
SCR_TAIL_S = 5.0
# Longest baseline + task: each SCR adds to every later EDA sample, about
# 2.25 T^2 updates at the strong margin's 9 a minute, 81 million here.
MAX_SESSION_S = 6000.0
# Longest total recording of a corpus, participants x sessions x (baseline +
# task): about 100 times the default corpus's 10,176 s. A corpus is held in
# memory at 55 float64 samples a second, 440 MB here, and written as about
# 1.6 GB of CSV text.
MAX_CORPUS_S = 1_000_000.0


@dataclass(frozen=True)
class SynthConfig:
    participants: int = 12
    sessions_per_participant: int = 4
    baseline_s: float = 30.0
    task_s: float = 182.0
    margin: str = "strong"
    # participants 1..n_slow_biased get their (2 helicopters, Greek) session
    # rated slow; with the 12x4 default this yields the 26/22 class split
    n_slow_biased: int = 2
    seed: int = 7

    def validate(self):
        # each field as a JSON config's; the seed by its own rule, and a
        # non-finite duration by the session cap below
        for f in fields(self):
            value = getattr(self, f.name)
            if f.name != "seed" and not (f.type is float and isinstance(value, float)):
                _field(vars(self), f.name, f.type, "config")
        if self.participants < 1 or self.sessions_per_participant < 1:
            raise InvalidInput("participant and session counts must be >= 1")
        if self.sessions_per_participant > 4:
            raise InvalidInput("at most 4 sessions (one per setting)")
        if min(self.baseline_s, self.task_s) < SCR_TAIL_S:
            raise InvalidInput(f"baseline_s and task_s must each be at least {SCR_TAIL_S} s")
        total_s = self.baseline_s + self.task_s
        if not total_s <= MAX_SESSION_S:  # inf and NaN fail it too
            raise InvalidInput(f"a session lasts at most {MAX_SESSION_S} s, not {total_s!r} s")
        # compared by division, which no count too large for a float can overflow
        sessions = self.participants * self.sessions_per_participant
        if sessions > MAX_CORPUS_S / total_s:
            raise InvalidInput(f"a corpus records at most {MAX_CORPUS_S} s, not participants x "
                               f"sessions_per_participant x (baseline_s + task_s) = "
                               f"{sessions} x {total_s!r} s")
        if self.margin not in MARGINS:
            raise InvalidInput(f"margin {self.margin!r} is not one of {sorted(MARGINS)}")
        if not 0 <= self.n_slow_biased <= self.participants:
            raise InvalidInput("n_slow_biased out of range")
        check_integer("seed", self.seed)


def synth_config_from_json(doc, where="config") -> SynthConfig:
    """A SynthConfig from a JSON object holding any of its fields."""
    return _dataclass(SynthConfig, doc, where)


def zero_margin_config(seed: int = 7) -> SynthConfig:
    """Config whose slow and fast sessions are statistically identical."""
    return SynthConfig(margin="zero", seed=seed)


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
    return k / k.max()


def _synth_session(config: SynthConfig, participant_id: int, session_index: int,
                   setting: SessionSetting, rng) -> SessionRecord:
    cls = intended_class(config, participant_id, setting)
    task_params = MARGINS[config.margin][cls == "fast"]
    total_s = config.baseline_s + config.task_s

    # PPG: Gaussian pulse train; baseline rhythm then the class rhythm
    beats = _beat_times(rng, config.baseline_s, BASELINE_PARAMS, t0=0.0)
    beats += _beat_times(rng, config.task_s, task_params, t0=config.baseline_s)
    n_ppg = int(round(total_s * PPG_RATE_HZ))
    grid = np.arange(n_ppg) / PPG_RATE_HZ
    ppg = _gauss_pulses(grid, beats) + rng.normal(0.0, 0.03, n_ppg)

    # EDA: tonic ramp + wander + Poisson SCR events + noise
    n_eda = int(round(total_s * EDA_RATE_HZ))
    t_eda = np.arange(n_eda) / EDA_RATE_HZ
    tonic = np.where(
        t_eda < config.baseline_s,
        2.0 + BASELINE_PARAMS.tonic_slope_us_per_min * t_eda / 60.0,
        2.0 + BASELINE_PARAMS.tonic_slope_us_per_min * config.baseline_s / 60.0
        + task_params.tonic_slope_us_per_min * (t_eda - config.baseline_s) / 60.0,
    )
    tonic = tonic + 0.08 * np.sin(2 * math.pi * 0.01 * t_eda + rng.uniform(0, 2 * math.pi))
    eda = tonic.copy()
    for (start, dur, params) in ((0.0, config.baseline_s, BASELINE_PARAMS),
                                 (config.baseline_s, config.task_s, task_params)):
        n_events = rng.poisson(params.scr_rate_per_min * dur / 60.0)
        onsets = np.sort(rng.uniform(start, start + dur - SCR_TAIL_S, n_events)) if n_events else []
        for onset in onsets:
            amp = max(0.05, rng.normal(params.scr_amp_mean_us, 0.05))
            mask = t_eda >= onset
            eda[mask] += amp * _scr_kernel(t_eda[mask] - onset)
    # noise floor well below the 0.01 µS SCR threshold after cleaning
    eda += rng.normal(0.0, 0.001, n_eda)

    # Temperature: slow drifts + small noise
    n_temp = int(round(total_s * TEMP_RATE_HZ))
    t_temp = np.arange(n_temp) / TEMP_RATE_HZ
    drift = np.where(
        t_temp < config.baseline_s,
        BASELINE_PARAMS.temp_drift_c_per_min * t_temp / 60.0,
        BASELINE_PARAMS.temp_drift_c_per_min * config.baseline_s / 60.0
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
            ppg=TimeSeries(ppg, PPG_RATE_HZ),
            eda=TimeSeries(eda, EDA_RATE_HZ),
            thermopile=TimeSeries(thermo, TEMP_RATE_HZ),
            reference_temp=TimeSeries(ref, TEMP_RATE_HZ),
            task_start_s=config.baseline_s,
            task_end_s=total_s,
            rating=rating,
            duration_estimate_s=duration_estimate_s,
        )
    except ValueError as exc:
        # e.g. a channel whose rounded length stops short of the task end
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

def _time_column(n, sampling_rate_hz):
    """The timestamps of an n-sample channel as written, ``repr(i / sampling_rate_hz)``."""
    return [repr(t) for t in (np.arange(n) / sampling_rate_hz).tolist()]


def write_channel_csv(path, series: TimeSeries, times):
    """Write ``series`` as a `timestamp_s,value` CSV; ``times`` is its
    ``_time_column``."""
    rows = [f"{t},{v!r}" for t, v in zip(times, series.values.tolist())]
    write_atomic(path, "\n".join(["timestamp_s,value", *rows]) + "\n")


def _json_object(obj, skip=()):
    """The fields of a dataclass but ``skip`` as a JSON object, a field that
    holds a dataclass as a nested object: what ``_dataclass`` reads back."""
    doc = {}
    for f in fields(obj):
        if f.name not in skip:
            value = getattr(obj, f.name)
            doc[f.name] = _json_object(value) if is_dataclass(value) else value
    return doc


def write_corpus(sessions, out_dir):
    """Write channel CSVs plus a manifest.json; returns the manifest path.
    Each entry holds the session's own SessionRecord fields and its
    ChannelSpecs, as ``load_session`` reads them."""
    os.makedirs(out_dir, exist_ok=True)
    entries = []
    # channels of one length and rate share their timestamps
    time_column = functools.cache(_time_column)
    for s in sessions:
        rel = f"p{s.participant_id:02d}_s{s.session_index}"
        os.makedirs(os.path.join(out_dir, rel), exist_ok=True)
        specs = {}
        for name in CHANNELS:
            series: TimeSeries = getattr(s, name)
            specs[name] = ChannelSpec(f"{rel}/{name}.csv", series.sampling_rate_hz)
            write_channel_csv(os.path.join(out_dir, specs[name].path), series,
                              time_column(len(series), series.sampling_rate_hz))
        entries.append({**_json_object(s, skip=CHANNELS),
                        "channels": _json_object(ChannelSpecs(**specs))})
    manifest = {"schema_version": MANIFEST_SCHEMA_VERSION, "sessions": entries}
    manifest_path = os.path.join(out_dir, "manifest.json")
    write_json(manifest_path, manifest)
    return manifest_path
