"""Signal conditioning: zero-phase Butterworth filtering, Fourier resampling,
segmentation, head padding and Welch spectral estimation."""

import math
from functools import lru_cache

import numpy as np
from scipy import signal as sps

from .errors import InsufficientData, InvalidInput, check_integer, check_positive, check_real
from .model import TimeSeries

BANDPASS_ORDER = 3
LOWPASS_ORDER = 2
WELCH_OVERLAP = 0.5
# The most samples a resampled or head-padded series holds: 2^25 (256 MiB of
# float64), 93 hours at 100 Hz. A session lasts minutes; the bound refuses
# a rate or a duration that asks for more before the work is allocated.
MAX_SAMPLES = 1 << 25


@lru_cache(maxsize=64)
def butter_sos(order: int, band, btype: str, fs: float):
    """Second-order sections of a digital Butterworth filter; ``band`` is the
    cutoff in Hz, a pair for a bandpass. The last 64 designs are kept and
    shared between callers, so the array is returned read-only. None for a
    design without a steady state (``sosfilt_zi``), which the zero-phase
    filter starts from: a cutoff about 1e-9 of the sampling rate or less
    rounds a pole onto z = 1, where the DC gain divides by zero or the
    steady state's system is singular."""
    sos = sps.butter(order, band, btype=btype, fs=fs, output="sos")
    try:
        with np.errstate(divide="raise", over="raise", invalid="raise"):
            sps.sosfilt_zi(sos)
    except (FloatingPointError, np.linalg.LinAlgError):
        return None
    sos.flags.writeable = False
    return sos


def _zero_phase(series: TimeSeries, order: int, band, btype: str, cutoff: str,
                padlen=None) -> TimeSeries:
    """``series`` filtered forward and backward by the cached Butterworth design;
    ``cutoff`` names the band's arguments for an error. A ``padlen`` is held in
    [default padding, len(series) - 1]; None is the default."""
    fs = series.sampling_rate_hz
    sos = butter_sos(order, band, btype, fs)
    if sos is None:
        raise InvalidInput(f"{cutoff} is too low for an order-{order} {btype} at {fs} Hz: "
                           "its design has no steady state")
    # sosfiltfilt's default padding; the series must be longer than its padding
    min_len = 3 * (2 * sos.shape[0] + 1)
    if len(series) <= min_len:
        raise InsufficientData(f"need more than {min_len} samples for order-{order} {btype}")
    if padlen is not None:
        padlen = min(len(series) - 1, max(min_len, padlen))
    # scipy's filter kernel takes a writable buffer; the cached design is not
    return TimeSeries(sps.sosfiltfilt(sos.copy(), series.values, padlen=padlen), fs)


def bandpass(series: TimeSeries, low_hz: float, high_hz: float) -> TimeSeries:
    """Order-``BANDPASS_ORDER`` Butterworth bandpass, applied forward-backward
    for zero phase."""
    check_positive("low_hz", low_hz)
    check_positive("high_hz", high_hz)
    nyq = series.sampling_rate_hz / 2.0
    if not low_hz < high_hz < nyq:
        raise InvalidInput(f"need 0 < {low_hz} < {high_hz} < Nyquist ({nyq})")
    return _zero_phase(series, BANDPASS_ORDER, (low_hz, high_hz), "bandpass",
                       f"low_hz {low_hz} (high_hz {high_hz})")


def lowpass(series: TimeSeries, cutoff_hz: float) -> TimeSeries:
    """Order-``LOWPASS_ORDER`` Butterworth low-pass, applied forward-backward
    for zero phase."""
    check_positive("cutoff_hz", cutoff_hz)
    fs = series.sampling_rate_hz
    if not cutoff_hz < fs / 2.0:
        raise InvalidInput(f"cutoff {cutoff_hz} outside (0, Nyquist)")
    # generous odd-extension padding (1.5 cutoff periods) keeps slow trends
    # intact at the edges
    return _zero_phase(series, LOWPASS_ORDER, cutoff_hz, "lowpass", f"cutoff_hz {cutoff_hz}",
                       padlen=int(round(1.5 * fs / cutoff_hz)))


def _bounded(n: float, asked: str) -> float:
    """The sample count ``n``, a Python float that may be inf; InvalidInput
    naming what ``asked`` for it when it exceeds ``MAX_SAMPLES``."""
    if not n <= MAX_SAMPLES:
        raise InvalidInput(f"{asked} asks for {n:.4g} samples, over the limit of {MAX_SAMPLES}")
    return n


def resample_fourier(series: TimeSeries, target_rate_hz: float) -> TimeSeries:
    """Resample via zero-padding/truncation of the DFT (scipy.signal.resample)
    to at most ``MAX_SAMPLES`` samples."""
    check_positive("target_rate_hz", target_rate_hz)
    if len(series) < 2:
        raise InsufficientData("need at least 2 samples to resample")
    fs = float(series.sampling_rate_hz)
    n_out = round(_bounded(len(series) * float(target_rate_hz) / fs,
                           f"target_rate_hz {target_rate_hz} for {len(series)} samples at {fs} Hz"))
    if n_out < 2:
        raise InsufficientData("target rate too low for this series")
    resampled = sps.resample(series.values, n_out)
    actual_rate = n_out / len(series) * series.sampling_rate_hz
    return TimeSeries(resampled, actual_rate)


def segment(series: TimeSeries, start_s: float, end_s: float) -> TimeSeries:
    """Samples whose timestamps fall in [start_s, end_s): a finite start of
    at least 0 and an end above it. An end past the recording, +inf too,
    cuts at its last sample, as if it were ``series.duration_s``."""
    check_real("start_s", start_s)
    check_real("end_s", end_s)
    # an infinite start fails here too: inf < end_s holds for no end_s
    if not start_s < end_s:
        raise InvalidInput(f"bad segment [{start_s}, {end_s}): need start_s < end_s")
    if start_s >= series.duration_s:
        raise InvalidInput("segment starts beyond the recording")
    fs = series.sampling_rate_hz
    # sample i is at time i / fs; ceil/floor with a tolerance for float grids
    i0 = int(np.ceil(start_s * fs - 1e-9))
    i1 = min(int(np.ceil(min(end_s, series.duration_s) * fs - 1e-9)), len(series))
    if i1 <= i0:
        raise InsufficientData(f"no samples in [{start_s}, {end_s}) at {fs} Hz")
    return TimeSeries(series.values[i0:i1], fs)


def extend_to_minimum(series: TimeSeries, min_s: float) -> TimeSeries:
    """Head-pad by repeating the first sample until the duration reaches min_s,
    to at most ``MAX_SAMPLES`` samples.

    Padding at the head keeps the causal end of the segment untouched.
    """
    check_positive("min_s", min_s)
    if series.duration_s >= min_s:
        return series
    fs = float(series.sampling_rate_hz)
    n_needed = math.ceil(_bounded(float(min_s) * fs, f"min_s {min_s} at {fs} Hz")) - len(series)
    padded = np.concatenate([np.full(n_needed, series.values[0]), series.values])
    return TimeSeries(padded, series.sampling_rate_hz)


def welch_psd(series: TimeSeries, max_segment: int):
    """Welch-averaged one-sided periodogram ``(frequencies_hz, power)`` of the
    mean-removed series: Hann-windowed segments of ``min(len(series),
    max_segment)`` samples overlapping by WELCH_OVERLAP, power in units^2/Hz."""
    check_integer("max_segment", max_segment, least=1)
    segment_len = min(len(series), max_segment)
    return sps.welch(series.values - np.mean(series.values), fs=series.sampling_rate_hz,
                     window="hann", nperseg=segment_len,
                     noverlap=int(segment_len * WELCH_OVERLAP), detrend=False)


def band_power(spectrum, low_hz: float = 0.0, high_hz: float = np.inf) -> float:
    """Trapezoid-integrated power in [low_hz, high_hz], 0 below two bins; over
    the whole spectrum it approximates the signal variance."""
    f, p = spectrum
    mask = (f >= low_hz) & (f <= high_hz)
    return float(np.trapezoid(p[mask], f[mask]))


def peak_frequency(spectrum, low_hz: float, high_hz: float) -> float:
    """Frequency of the highest-power bin of ``spectrum`` in [low_hz, high_hz]."""
    f, p = spectrum
    sub = np.flatnonzero((f >= low_hz) & (f <= high_hz))
    if not len(sub):
        raise InsufficientData("empty frequency band")
    return float(f[sub[np.argmax(p[sub])]])
