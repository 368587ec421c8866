"""Extraction of the 24 biomarkers: 13 from PPG, 6 from EDA, 5 from temperature.

All standard deviations are population (ddof=0) statistics. pNN thresholds use
strict inequality. The tonic/phasic split, SCR threshold and sympathetic band
follow common toolkit conventions and are fixed here as the contract.
"""

import math
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view
from scipy import signal as sps
from scipy.interpolate import CubicSpline

from . import dsp
from .errors import FeatureExtractionError, InsufficientData, InvalidInput, TimesenseError
from .model import (
    EDA_FEATURES,
    FEATURE_NAMES,
    PPG_FEATURES,
    TEMP_FEATURES,
    SessionRecord,
    TimeSeries,
)

BASELINE = "baseline"
TASK = "task"

# Plausible heart-rate band; RR intervals outside it are rejected.
MIN_BPM = 42.0
MAX_BPM = 210.0
RR_MIN_MS = 60000.0 / MAX_BPM
RR_MAX_MS = 60000.0 / MIN_BPM

# Settings of the per-channel preprocessing chain.
PPG_BAND_HZ = (0.7, 3.5)
PPG_FILTER_ORDER = 3
PPG_RESAMPLE_HZ = 100.0
EDA_RESAMPLE_HZ = 100.0
EDA_MIN_DURATION_S = 10.0
EDA_CLEAN_CUTOFF_HZ = 3.0
TONIC_CUTOFF_HZ = 0.05
SCR_MIN_AMPLITUDE_US = 0.01
SCR_MIN_SEPARATION_S = 1.0
SCR_ONSET_WINDOW_S = 5.0
SYMPATHETIC_BAND_HZ = (0.045, 0.25)
SYMPATHETIC_RATE_HZ = 2.0
AUTOCORR_LAG_S = 4.0
BREATHING_BAND_HZ = (0.1, 0.4)
TACHOGRAM_RATE_HZ = 4.0


@dataclass(frozen=True)
class BeatSequence:
    """Detected heartbeats with artifact-filtered RR intervals.

    ``rr_ms`` holds only the intervals that survived plausibility filtering;
    ``successive_diffs_ms`` holds differences between originally adjacent
    surviving intervals (a rejected interval breaks the adjacency chain).
    """

    peak_times_s: np.ndarray
    rr_ms: np.ndarray
    successive_diffs_ms: np.ndarray

    def __post_init__(self):
        for name in ("peak_times_s", "rr_ms", "successive_diffs_ms"):
            object.__setattr__(self, name, np.asarray(getattr(self, name), dtype=float))

    @classmethod
    def from_peak_times(cls, peak_times_s, max_local_deviation=0.30) -> "BeatSequence":
        """Build from raw peak times, rejecting implausible RR intervals.

        An interval is rejected when it leaves the 42-210 bpm band or deviates
        more than ``max_local_deviation`` from the local (5-wide) median.
        """
        times = np.asarray(peak_times_s, dtype=float)
        if len(times) < 4:
            raise InsufficientData("need at least 4 peaks")
        rr = np.diff(times) * 1000.0
        keep = (rr >= RR_MIN_MS) & (rr <= RR_MAX_MS)
        local_med = local_median(rr)
        keep &= np.abs(rr - local_med) <= max_local_deviation * local_med
        if keep.sum() < 3:
            raise InsufficientData("fewer than 3 plausible RR intervals")
        adjacent = keep[:-1] & keep[1:]
        diffs = np.diff(rr)[adjacent]
        return cls(times, rr[keep], diffs)


def local_median(rr):
    """Median of each value's 5-wide window, cut short at the ends: the
    windows of interior values are taken as rows of one array, the at most
    four shorter ones at the ends (all of a series shorter than 5) one by
    one."""
    n = len(rr)
    out = np.empty_like(rr)
    if n >= 5:
        out[2:n - 2] = np.median(sliding_window_view(rr, 5), axis=1)
        edges = (0, 1, n - 2, n - 1)
    else:
        edges = range(n)
    for i in edges:
        out[i] = np.median(rr[max(0, i - 2):i + 3])
    return out


def detect_ppg_peaks(series: TimeSeries) -> BeatSequence:
    """Adaptive-threshold peak detection on a bandpassed PPG waveform.

    Scans a family of thresholds above a moving-average envelope and keeps
    the one whose detected rhythm is plausible with minimal RR spread.
    """
    if series.duration_s < 5.0:
        raise InsufficientData("need at least 5 s of PPG")
    x = series.values - np.mean(series.values)
    fs = series.sampling_rate_hz
    win = max(3, int(round(0.75 * fs)) | 1)
    envelope = _moving_average(x, win)
    spread = np.std(x)
    if spread == 0:
        raise InsufficientData("flat signal")
    min_dist = max(1, int(round(fs * 60.0 / MAX_BPM)))

    best = None
    for frac in (0.02, 0.05, 0.1, 0.15, 0.2, 0.3, 0.4, 0.6, 0.8, 1.0, 1.5):
        peaks, _ = sps.find_peaks(x, height=envelope + frac * spread, distance=min_dist)
        if len(peaks) < 4:
            continue
        bpm = 60.0 / np.mean(np.diff(peaks) / fs)
        if not MIN_BPM <= bpm <= MAX_BPM:
            continue
        score = np.std(np.diff(peaks) / fs)
        if best is None or score < best[0]:
            best = (score, peaks)
    if best is None:
        raise InsufficientData("no plausible beat rhythm at any threshold")
    return BeatSequence.from_peak_times(best[1] / fs)


def _moving_average(x, win):
    kernel = np.ones(win) / win
    pad = win // 2
    padded = np.concatenate([np.full(pad, x[0]), x, np.full(pad, x[-1])])
    return np.convolve(padded, kernel, mode="valid")[: len(x)]


def time_domain_stats(rr_ms: np.ndarray, diffs_ms: np.ndarray) -> dict:
    """The 12 closed-form time-domain / Poincare statistics.

    Raises InsufficientData when the Poincare long axis collapses to zero
    (constant RR), because sd1/sd2 is then undefined.
    """
    rr = np.asarray(rr_ms, dtype=float)
    diffs = np.asarray(diffs_ms, dtype=float)
    if len(rr) < 3 or len(diffs) < 2:
        raise InsufficientData("need >= 3 RR intervals and >= 2 successive differences")
    out = {}
    out["bpm"] = 60000.0 / np.mean(rr)
    out["ibi_ms"] = float(np.mean(rr))
    sdnn = float(np.std(rr))
    sdsd = float(np.std(diffs))
    out["sdnn_ms"] = sdnn
    out["sdsd_ms"] = sdsd
    out["rmssd_ms"] = float(np.sqrt(np.mean(diffs**2)))
    out["pnn20"] = float(np.mean(np.abs(diffs) > 20.0))
    out["pnn50"] = float(np.mean(np.abs(diffs) > 50.0))
    out["hr_mad_ms"] = float(np.median(np.abs(rr - np.median(rr))))
    sd1 = math.sqrt(0.5 * sdsd**2)
    sd2 = math.sqrt(max(0.0, 2.0 * sdnn**2 - 0.5 * sdsd**2))
    out["sd1_ms"] = sd1
    out["sd2_ms"] = sd2
    out["s_ms2"] = math.pi * sd1 * sd2
    if sd2 == 0.0:
        raise InsufficientData("sd2 = 0; sd1/sd2 ratio undefined")
    out["sd1_sd2_ratio"] = sd1 / sd2
    return out


def breathing_rate(beats: BeatSequence) -> float:
    """Respiratory-sinus-arrhythmia peak of the RR tachogram spectrum.

    The tachogram is cubic-spline interpolated, resampled at 4 Hz, and the
    Welch-PSD argmax inside the breathing band is returned.
    """
    t = beats.peak_times_s[1 : len(beats.peak_times_s)]
    rr_full = np.diff(beats.peak_times_s) * 1000.0
    if len(rr_full) < 4:
        raise InsufficientData("need >= 4 RR intervals for the tachogram")
    spline = CubicSpline(t, rr_full)
    rate = TACHOGRAM_RATE_HZ
    grid = np.arange(t[0], t[-1], 1.0 / rate)
    if len(grid) < 16:
        raise InsufficientData("tachogram too short for spectral estimation")
    tach = spline(grid)
    tach = tach - np.mean(tach)
    ts = TimeSeries(tach, rate, "tachogram")
    spec = dsp.welch_psd(ts, segment_len=min(len(grid), 256))
    lo, hi = BREATHING_BAND_HZ
    return spec.peak_frequency(lo, hi)


def ppg_features(beats: BeatSequence) -> dict:
    """All 13 PPG features in canonical naming."""
    out = time_domain_stats(beats.rr_ms, beats.successive_diffs_ms)
    out["breathing_rate_hz"] = breathing_rate(beats)
    return {name: out[name] for name in PPG_FEATURES}


@dataclass(frozen=True)
class EdaDecomposition:
    tonic: TimeSeries
    phasic: TimeSeries
    scr_peaks: tuple  # of (time_s, amplitude_us)


def eda_decompose(series: TimeSeries) -> EdaDecomposition:
    """Split skin conductance into tonic level and phasic responses.

    Tonic is a zero-phase order-2 low-pass of the input; phasic is the
    residual. SCR peaks are phasic local maxima whose prominence within a
    short onset window exceeds the amplitude threshold and that sit at least
    the minimum separation apart. The local window rejects the slow recovery
    bumps left behind by the low-pass split, which rise over tens of seconds
    rather than the 1-3 s of a genuine response. Amplitude is onset-to-peak,
    with the onset at the preceding trough inside the window.
    """
    if series.duration_s < EDA_MIN_DURATION_S:
        raise InsufficientData(f"need at least {EDA_MIN_DURATION_S} s of EDA")
    tonic = dsp.lowpass(series, TONIC_CUTOFF_HZ, order=2)
    phasic_vals = series.values - tonic.values
    phasic = TimeSeries(phasic_vals, series.sampling_rate_hz, "eda_phasic")
    fs = series.sampling_rate_hz
    distance = max(1, int(round(SCR_MIN_SEPARATION_S * fs)))
    wlen = max(3, int(round(2 * SCR_ONSET_WINDOW_S * fs)))
    peaks, props = sps.find_peaks(
        phasic_vals,
        distance=distance,
        prominence=SCR_MIN_AMPLITUDE_US,
        wlen=wlen,
    )
    scrs = []
    for p, onset in zip(peaks, props["left_bases"]):
        amplitude = float(phasic_vals[p] - phasic_vals[onset])
        scrs.append((p / fs, amplitude))
    return EdaDecomposition(tonic, phasic, tuple(scrs))


def eda_features(series: TimeSeries) -> dict:
    """The 6 EDA features in canonical naming."""
    decomp = eda_decompose(series)
    out = {}
    amplitudes = [a for _, a in decomp.scr_peaks]
    out["scr_peaks_n"] = float(len(amplitudes))
    out["scr_peaks_amplitude_mean_us"] = float(np.mean(amplitudes)) if amplitudes else 0.0
    out["eda_tonic_sd_us"] = float(np.std(decomp.tonic.values))

    slow = dsp.resample_fourier(series, SYMPATHETIC_RATE_HZ)
    centered = TimeSeries(slow.values - np.mean(slow.values), slow.sampling_rate_hz)
    spec = dsp.welch_psd(centered, segment_len=min(len(centered), 128))
    lo, hi = SYMPATHETIC_BAND_HZ
    band = spec.band_power(lo, hi)
    total = spec.total_power()
    out["eda_sympathetic"] = band
    out["eda_sympathetic_n"] = band / total if total > 0 else 0.0

    lag = int(round(AUTOCORR_LAG_S * series.sampling_rate_hz))
    out["eda_autocorrelation"] = _lag_correlation(series.values, lag)
    return {name: out[name] for name in EDA_FEATURES}


def _lag_correlation(x, lag):
    """Pearson correlation of x[t] with x[t+lag]; 0 when undefined."""
    if lag <= 0 or lag >= len(x) - 1:
        return 0.0
    a, b = x[:-lag], x[lag:]
    sa, sb = np.std(a), np.std(b)
    if sa == 0 or sb == 0:
        return 0.0
    return float(np.mean((a - np.mean(a)) * (b - np.mean(b))) / (sa * sb))


def temp_features(thermopile: TimeSeries, reference: TimeSeries) -> dict:
    """The 5 temperature features: diff statistics plus the channel means.

    The difference signal is reference minus thermopile.
    """
    if len(thermopile) != len(reference):
        raise InvalidInput("thermopile and reference lengths differ")
    if abs(thermopile.sampling_rate_hz - reference.sampling_rate_hz) > 1e-9:
        raise InvalidInput("thermopile and reference rates differ")
    diff = reference.values - thermopile.values
    rate = thermopile.sampling_rate_hz
    out = {
        "temp_diff_mean_c": float(np.mean(diff)),
        "thermopile_mean_c": float(np.mean(thermopile.values)),
        "reference_mean_c": float(np.mean(reference.values)),
        "temp_gradient_mean_c_per_s": float(np.mean(np.gradient(diff, 1.0 / rate))),
    }
    centered = TimeSeries(diff - np.mean(diff), rate)
    spec = dsp.welch_psd(centered, segment_len=min(len(centered), 256))
    out["temp_psd_power"] = spec.total_power()
    return {name: out[name] for name in TEMP_FEATURES}


# What bad or too-short data raises inside a channel chain (numpy's
# LinAlgError is a ValueError). Anything else, such as a TypeError or an
# IndexError, is a bug and propagates unwrapped.
_DATA_ERRORS = (TimesenseError, ValueError, ArithmeticError)


@contextmanager
def _channel(channel, window, where):
    """Re-raise a data error of one channel chain with its context."""
    try:
        yield
    except _DATA_ERRORS as exc:
        raise FeatureExtractionError(channel, window, f"{where}: {exc}") from exc


def _finite(values: dict) -> dict:
    bad = [name for name, v in values.items() if not math.isfinite(v)]
    if bad:
        raise InvalidInput(f"non-finite {', '.join(bad)}")
    return values


def _cut(series: TimeSeries, start: float, end: float) -> TimeSeries:
    return dsp.segment(series, start, min(end, series.duration_s))


def extract_all(session: SessionRecord):
    """The 24 features of the task window and of the baseline window.

    Returns ``(task, baseline)``, each a float ndarray in ``FEATURE_NAMES``
    order. PPG is band-passed and resampled, and EDA resampled, once over
    the whole recording; both windows are cut from those series. Failures
    raise FeatureExtractionError naming the channel, the window,
    the participant and the session. A failure in the whole-recording
    conditioning is reported against the task window, the first one
    extracted.
    """
    where = f"participant {session.participant_id} session {session.session_index}"
    with _channel("ppg", TASK, where):
        ppg = dsp.bandpass(session.ppg, *PPG_BAND_HZ, order=PPG_FILTER_ORDER)
        ppg = dsp.resample_fourier(ppg, PPG_RESAMPLE_HZ)
    with _channel("eda", TASK, where):
        eda = dsp.resample_fourier(session.eda, EDA_RESAMPLE_HZ)

    vectors = []
    for window, start, end in ((TASK, session.task_start_s, session.task_end_s),
                               (BASELINE, 0.0, session.task_start_s)):
        values = {}
        with _channel("ppg", window, where):
            values.update(_finite(ppg_features(detect_ppg_peaks(_cut(ppg, start, end)))))
        with _channel("eda", window, where):
            cut = dsp.extend_to_minimum(_cut(eda, start, end), EDA_MIN_DURATION_S)
            values.update(_finite(eda_features(dsp.lowpass(cut, EDA_CLEAN_CUTOFF_HZ, order=2))))
        with _channel("temperature", window, where):
            thermo = _cut(session.thermopile, start, end)
            ref = _cut(session.reference_temp, start, end)
            n = min(len(thermo), len(ref))
            thermo = TimeSeries(thermo.values[:n], thermo.sampling_rate_hz, thermo.label)
            ref = TimeSeries(ref.values[:n], ref.sampling_rate_hz, ref.label)
            values.update(_finite(temp_features(thermo, ref)))
        vectors.append(np.array([values[name] for name in FEATURE_NAMES]))
    return tuple(vectors)
