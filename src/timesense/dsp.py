"""Signal conditioning: zero-phase bandpass, Fourier resampling, segmentation,
head padding and Welch spectral estimation."""

from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy import signal as sps

from .errors import InsufficientData, InvalidInput
from .model import TimeSeries

WELCH_OVERLAP = 0.5


@dataclass(frozen=True)
class Spectrum:
    """One-sided power spectral density (input-units^2 per Hz)."""

    frequencies_hz: np.ndarray
    power: np.ndarray

    def __post_init__(self):
        f = np.asarray(self.frequencies_hz, dtype=float)
        p = np.asarray(self.power, dtype=float)
        if f.shape != p.shape:
            raise ValueError("frequency/power length mismatch")
        if np.any(p < 0):
            raise ValueError("power must be non-negative")
        object.__setattr__(self, "frequencies_hz", f)
        object.__setattr__(self, "power", p)

    def total_power(self) -> float:
        """Trapezoid-integrated power; approximates the signal variance."""
        return float(np.trapezoid(self.power, self.frequencies_hz))

    def band_power(self, low_hz: float, high_hz: float) -> float:
        mask = (self.frequencies_hz >= low_hz) & (self.frequencies_hz <= high_hz)
        if mask.sum() < 2:
            return 0.0
        return float(np.trapezoid(self.power[mask], self.frequencies_hz[mask]))

    def peak_frequency(self, low_hz: float, high_hz: float) -> float:
        f = self.frequencies_hz
        sub = np.flatnonzero((f >= low_hz) & (f <= high_hz))
        if not len(sub):
            raise ValueError("empty frequency band")
        return float(f[sub[np.argmax(self.power[sub])]])


@lru_cache(maxsize=64)
def butter_sos(order: int, band, btype: str, fs: float) -> np.ndarray:
    """Second-order sections of a digital Butterworth filter; ``band`` is the
    cutoff in Hz, a pair for a bandpass. The last 64 designs are kept and
    shared between callers, so the array is returned read-only."""
    sos = sps.butter(order, band, btype=btype, fs=fs, output="sos")
    sos.flags.writeable = False
    return sos


def bandpass(series: TimeSeries, low_hz: float, high_hz: float, order: int = 3) -> TimeSeries:
    """Butterworth bandpass, applied forward-backward for zero phase."""
    fs = series.sampling_rate_hz
    nyq = fs / 2.0
    if not (0 < low_hz < high_hz < nyq):
        raise InvalidInput(f"need 0 < {low_hz} < {high_hz} < Nyquist ({nyq})")
    if order < 1:
        raise InvalidInput("order must be >= 1")
    sos = butter_sos(order, (low_hz, high_hz), "bandpass", fs)
    # sosfiltfilt needs > 3 * (2 * sections) samples of padding headroom
    min_len = 3 * (2 * sos.shape[0]) + 1
    if len(series) <= min_len:
        raise InsufficientData(f"need more than {min_len} samples for order-{order} bandpass")
    # scipy's filter kernel takes a writable buffer; the cached design is not
    filtered = sps.sosfiltfilt(sos.copy(), series.values)
    return TimeSeries(filtered, fs)


def lowpass(series: TimeSeries, cutoff_hz: float, order: int = 2) -> TimeSeries:
    """Zero-phase Butterworth low-pass (used for the tonic EDA split)."""
    fs = series.sampling_rate_hz
    if not (0 < cutoff_hz < fs / 2.0):
        raise InvalidInput(f"cutoff {cutoff_hz} outside (0, Nyquist)")
    sos = butter_sos(order, cutoff_hz, "lowpass", fs)
    min_len = 3 * (2 * sos.shape[0]) + 1
    if len(series) <= min_len:
        raise InsufficientData("series too short for low-pass filtering")
    # generous odd-extension padding keeps slow trends intact at the edges
    padlen = min(len(series) - 1, max(min_len, int(round(1.5 * fs / cutoff_hz))))
    filtered = sps.sosfiltfilt(sos.copy(), series.values, padlen=padlen)
    return TimeSeries(filtered, fs)


def resample_fourier(series: TimeSeries, target_rate_hz: float) -> TimeSeries:
    """Resample via zero-padding/truncation of the DFT (scipy.signal.resample)."""
    if target_rate_hz <= 0:
        raise ValueError("target_rate_hz must be positive")
    if len(series) < 2:
        raise InsufficientData("need at least 2 samples to resample")
    n_out = int(round(len(series) * target_rate_hz / series.sampling_rate_hz))
    if n_out < 2:
        raise InsufficientData("target rate too low for this series")
    resampled = sps.resample(series.values, n_out)
    actual_rate = n_out / len(series) * series.sampling_rate_hz
    return TimeSeries(resampled, actual_rate)


def segment(series: TimeSeries, start_s: float, end_s: float) -> TimeSeries:
    """Samples whose timestamps fall in [start_s, end_s)."""
    if start_s < 0 or end_s <= start_s:
        raise InvalidInput(f"bad segment [{start_s}, {end_s})")
    if start_s >= series.duration_s:
        raise InvalidInput("segment starts beyond the recording")
    fs = series.sampling_rate_hz
    # sample i is at time i / fs; ceil/floor with a tolerance for float grids
    i0 = int(np.ceil(start_s * fs - 1e-9))
    i1 = min(int(np.ceil(end_s * fs - 1e-9)), len(series))
    if i1 <= i0:
        raise InsufficientData(f"no samples in [{start_s}, {end_s}) at {fs} Hz")
    return TimeSeries(series.values[i0:i1], fs)


def extend_to_minimum(series: TimeSeries, min_s: float) -> TimeSeries:
    """Head-pad by repeating the first sample until the duration reaches min_s.

    Padding at the head keeps the causal end of the segment untouched.
    """
    if min_s <= 0:
        raise ValueError("min_s must be positive")
    if series.duration_s >= min_s:
        return series
    n_needed = int(np.ceil(min_s * series.sampling_rate_hz)) - len(series)
    padded = np.concatenate([np.full(n_needed, series.values[0]), series.values])
    return TimeSeries(padded, series.sampling_rate_hz)


def welch_psd(series: TimeSeries, segment_len: int) -> Spectrum:
    """Welch-averaged one-sided periodogram with a Hann window; segments
    overlap by WELCH_OVERLAP of their length."""
    n = len(series)
    if segment_len > n:
        raise InsufficientData(f"segment_len {segment_len} exceeds series length {n}")
    freqs, power = sps.welch(
        series.values,
        fs=series.sampling_rate_hz,
        window="hann",
        nperseg=segment_len,
        noverlap=int(segment_len * WELCH_OVERLAP),
        detrend=False,
    )
    return Spectrum(freqs, np.maximum(power, 0.0))
