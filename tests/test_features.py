import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from timesense import dsp, features, pipeline
from timesense.errors import FeatureExtractionError, InsufficientData, InvalidInput
from timesense.features import (
    BASELINE,
    TASK,
    BeatSequence,
    detect_ppg_peaks,
    eda_decompose,
    eda_features,
    local_median,
    ppg_features,
    temp_features,
    time_domain_stats,
)
from timesense.model import FEATURE_NAMES, SessionRecord, SessionSetting, TimeSeries


def hand_oracle(rr):
    """Independent evaluation of the closed-form definitions (plain python)."""
    n = len(rr)
    mean = sum(rr) / n
    diffs = [rr[i + 1] - rr[i] for i in range(n - 1)]
    dmean = sum(diffs) / len(diffs)
    sdnn = math.sqrt(sum((x - mean) ** 2 for x in rr) / n)
    sdsd = math.sqrt(sum((x - dmean) ** 2 for x in diffs) / len(diffs))
    rmssd = math.sqrt(sum(x**2 for x in diffs) / len(diffs))
    sd1 = math.sqrt(0.5 * sdsd**2)
    sd2 = math.sqrt(max(0.0, 2 * sdnn**2 - 0.5 * sdsd**2))
    med = sorted(rr)[n // 2] if n % 2 else 0.5 * sum(sorted(rr)[n // 2 - 1 : n // 2 + 1])
    mad = sorted(abs(x - med) for x in rr)[n // 2] if n % 2 else None
    return {
        "bpm": 60000.0 / mean,
        "ibi_ms": mean,
        "sdnn_ms": sdnn,
        "sdsd_ms": sdsd,
        "rmssd_ms": rmssd,
        "pnn20": sum(1 for x in diffs if abs(x) > 20) / len(diffs),
        "pnn50": sum(1 for x in diffs if abs(x) > 50) / len(diffs),
        "hr_mad_ms": mad,
        "sd1_ms": sd1,
        "sd2_ms": sd2,
        "s_ms2": math.pi * sd1 * sd2,
        "sd1_sd2_ratio": sd1 / sd2,
    }


class TestTimeDomainStats:
    def test_hand_example_against_oracle(self):
        rr = [800.0, 810.0, 790.0]
        got = time_domain_stats(np.array(rr), np.diff(rr))
        expected = hand_oracle(rr)
        for name, value in expected.items():
            assert got[name] == pytest.approx(value, rel=1e-9), name

    def test_hand_example_frozen_values(self):
        # frozen outputs of the oracle above
        rr = [800.0, 810.0, 790.0]
        got = time_domain_stats(np.array(rr), np.diff(rr))
        frozen = {
            "bpm": 75.0, "ibi_ms": 800.0, "sdnn_ms": 8.1650, "sdsd_ms": 15.0,
            "rmssd_ms": 15.8114, "pnn20": 0.0, "pnn50": 0.0, "hr_mad_ms": 10.0,
            "sd1_ms": 10.6066, "sd2_ms": 4.5644, "s_ms2": 152.09,
            "sd1_sd2_ratio": 2.3237,
        }
        for name, value in frozen.items():
            assert got[name] == pytest.approx(value, rel=1e-4), name

    def test_constant_rr_degenerate(self):
        rr = np.array([1000.0] * 4)
        with pytest.raises(InsufficientData, match="sd2 = 0"):
            time_domain_stats(rr, np.diff(rr))

    def test_too_few_beats(self):
        with pytest.raises(InsufficientData, match="need >= 3 RR intervals"):
            time_domain_stats(np.array([800.0, 810.0]), np.array([10.0]))

    @given(st.lists(st.floats(min_value=300.0, max_value=1400.0), min_size=4, max_size=60))
    @settings(max_examples=50, deadline=None)
    def test_invariants(self, rr):
        rr = np.array(rr)
        diffs = np.diff(rr)
        try:
            got = time_domain_stats(rr, diffs)
        except InsufficientData as exc:
            assert "sd2 = 0" in str(exc)
            return
        assert got["pnn50"] <= got["pnn20"]
        assert got["rmssd_ms"] ** 2 == pytest.approx(np.mean(diffs**2), rel=1e-9)
        assert got["s_ms2"] == pytest.approx(math.pi * got["sd1_ms"] * got["sd2_ms"], abs=1e-9)
        assert got["sd1_ms"] == pytest.approx(got["sdsd_ms"] / math.sqrt(2), abs=1e-9)


def pulse_train(beat_times, fs=100.0, duration_s=None, width=0.08):
    duration_s = duration_s or (beat_times[-1] + 1.0)
    t = np.arange(int(duration_s * fs)) / fs
    x = np.zeros_like(t)
    for b in beat_times:
        x += np.exp(-0.5 * ((t - b) / width) ** 2)
    return TimeSeries(x, fs)


class TestDetectPpgPeaks:
    def test_60bpm_train(self):
        beats = [1.0 + i for i in range(59)]  # exactly on-grid at 100 Hz
        ts = pulse_train(beats)
        got = detect_ppg_peaks(ts)
        assert np.all(np.abs(got.rr_ms - 1000.0) <= 1.0)

    def test_missing_pulse_rejected(self):
        beats = [1.0 + i for i in range(59)]
        beats.remove(30.0)  # 2 s gap
        got = detect_ppg_peaks(pulse_train(beats))
        assert np.all(np.abs(got.rr_ms - 1000.0) <= 1.0)

    def test_flat_signal(self):
        with pytest.raises(InsufficientData, match="flat signal"):
            detect_ppg_peaks(TimeSeries(np.zeros(3000), 100.0))

    def test_amplitude_scale_invariance(self):
        beats = [1.0 + 0.8 * i for i in range(70)]
        ts = pulse_train(beats)
        scaled = TimeSeries(ts.values * 7.3, ts.sampling_rate_hz)
        a = detect_ppg_peaks(ts)
        b = detect_ppg_peaks(scaled)
        assert np.array_equal(a.peak_times_s, b.peak_times_s)
        assert np.array_equal(a.rr_ms, b.rr_ms)


def loop_local_median(rr):
    """One np.median per interval, over its 5-wide window cut at the ends."""
    out = np.empty_like(rr)
    for i in range(len(rr)):
        lo, hi = max(0, i - 2), min(len(rr), i + 3)
        out[i] = np.median(rr[lo:hi])
    return out


class TestLocalMedian:
    def test_matches_loop_bitwise(self):
        rng = np.random.default_rng(12)
        for n in list(range(12)) + rng.integers(12, 300, size=200).tolist():
            rr = rng.normal(800.0, 120.0, size=n)
            if n % 3 == 0:
                rr = np.round(rr, -1)  # ties inside windows
            got = local_median(rr)
            assert got.tobytes() == loop_local_median(rr).tobytes(), n

    def test_from_peak_times_keeps_the_same_intervals(self):
        rng = np.random.default_rng(13)
        for n in (4, 5, 6, 9, 40, 250):
            times = np.cumsum(rng.uniform(0.3, 1.6, size=n))
            rr = np.diff(times) * 1000.0
            med = loop_local_median(rr)
            keep = ((rr >= features.RR_MIN_MS) & (rr <= features.RR_MAX_MS)
                    & (np.abs(rr - med) <= 0.30 * med))
            try:
                beats = BeatSequence.from_peak_times(times)
            except InsufficientData:
                assert keep.sum() < 3
                continue
            assert np.array_equal(beats.rr_ms, rr[keep])


class TestPpgFeatures:
    def test_breathing_rate_from_modulated_train(self):
        # RR modulated sinusoidally at 0.25 Hz around 800 ms
        times = [0.0]
        while times[-1] < 120.0:
            rr = 0.8 + 0.05 * math.sin(2 * math.pi * 0.25 * times[-1])
            times.append(times[-1] + rr)
        beats = BeatSequence.from_peak_times(np.array(times))
        out = ppg_features(beats)
        assert out["breathing_rate_hz"] == pytest.approx(0.25, abs=0.02)

    def test_time_shift_invariance(self):
        # diffs stay clear of the 20/50 ms pNN boundaries
        times = np.cumsum([0.8 + 0.017 * ((i % 5) - 2) for i in range(100)])
        a = ppg_features(BeatSequence.from_peak_times(times))
        b = ppg_features(BeatSequence.from_peak_times(times + 1234.5))
        for name in a:
            assert a[name] == pytest.approx(b[name], rel=1e-9), name


def ramp_series(duration_s=60.0, fs=20.0, start=1.0, stop=2.0):
    n = int(duration_s * fs)
    return TimeSeries(np.linspace(start, stop, n), fs)


def scr_shape(t, tau_rise=0.75, tau_decay=4.0):
    k = np.exp(-t / tau_decay) - np.exp(-t / tau_rise)
    return k / k.max()


def inject_scr(ts, onset_s, amplitude):
    vals = ts.values.copy()
    t = ts.times()
    mask = t >= onset_s
    vals[mask] += amplitude * scr_shape(t[mask] - onset_s)
    return TimeSeries(vals, ts.sampling_rate_hz)


class TestEdaDecompose:
    def test_pure_ramp_no_peaks(self):
        decomp = eda_decompose(ramp_series())
        interior = decomp.phasic.values[40:-40]
        assert np.max(np.abs(interior)) < 0.02
        assert len(decomp.scr_peaks) == 0

    def test_single_injected_scr(self):
        ts = inject_scr(ramp_series(), onset_s=25.0, amplitude=0.5)
        decomp = eda_decompose(ts)
        assert len(decomp.scr_peaks) == 1
        _, amp = decomp.scr_peaks[0]
        assert amp == pytest.approx(0.5, abs=0.05)

    def test_constant_signal(self):
        ts = TimeSeries(np.full(1200, 5.0), 20.0)
        decomp = eda_decompose(ts)
        assert np.allclose(decomp.tonic.values, 5.0, atol=1e-6)
        assert np.allclose(decomp.phasic.values, 0.0, atol=1e-6)
        assert len(decomp.scr_peaks) == 0

    def test_reconstruction_identity(self):
        rng = np.random.default_rng(3)
        ts = TimeSeries(2.0 + 0.1 * rng.normal(size=1200), 20.0)
        decomp = eda_decompose(ts)
        assert np.max(np.abs(decomp.tonic.values + decomp.phasic.values - ts.values)) < 1e-6


class TestEdaFeatures:
    def test_constant_signal_all_zero(self):
        out = eda_features(TimeSeries(np.full(2400, 5.0), 20.0))
        assert out["scr_peaks_n"] == 0
        assert out["scr_peaks_amplitude_mean_us"] == 0
        assert out["eda_tonic_sd_us"] == pytest.approx(0.0, abs=1e-9)
        assert out["eda_sympathetic"] == pytest.approx(0.0, abs=1e-9)
        assert out["eda_sympathetic_n"] == pytest.approx(0.0, abs=1e-9)
        assert out["eda_autocorrelation"] == 0.0

    def test_in_band_sine_dominates_sympathetic(self):
        fs = 20.0
        t = np.arange(int(120 * fs)) / fs
        ts = TimeSeries(3.0 + 0.5 * np.sin(2 * np.pi * 0.1 * t), fs)
        out = eda_features(ts)
        assert out["eda_sympathetic_n"] >= 0.9

    def test_three_injected_scrs(self):
        ts = ramp_series(duration_s=120.0)
        for onset, amp in ((20.0, 0.2), (55.0, 0.4), (90.0, 0.6)):
            ts = inject_scr(ts, onset, amp)
        out = eda_features(ts)
        assert out["scr_peaks_n"] == 3
        assert out["scr_peaks_amplitude_mean_us"] == pytest.approx(0.4, abs=0.05)


class TestTempFeatures:
    def test_constant_channels(self):
        thermo = TimeSeries(np.full(450, 34.0), 7.5)
        ref = TimeSeries(np.full(450, 25.0), 7.5)
        out = temp_features(thermo, ref)
        assert out["temp_diff_mean_c"] == pytest.approx(-9.0)
        assert out["thermopile_mean_c"] == pytest.approx(34.0)
        assert out["reference_mean_c"] == pytest.approx(25.0)
        assert out["temp_gradient_mean_c_per_s"] == pytest.approx(0.0, abs=1e-9)
        assert out["temp_psd_power"] == pytest.approx(0.0, abs=1e-12)

    def test_linear_ramp_gradient(self):
        n = int(60 * 7.5)
        diff = np.linspace(0.0, 3.0, n)
        thermo = TimeSeries(np.full(n, 34.0), 7.5)
        ref = TimeSeries(34.0 + diff, 7.5)
        out = temp_features(thermo, ref)
        # slope of a 0..3 ramp over (n-1) samples at 7.5 Hz
        expected = 3.0 / ((n - 1) / 7.5)
        assert out["temp_gradient_mean_c_per_s"] == pytest.approx(expected, abs=1e-6)

    def test_sine_psd_power(self):
        fs = 7.5
        t = np.arange(int(240 * fs)) / fs
        thermo = TimeSeries(np.full(len(t), 34.0), fs)
        ref = TimeSeries(34.0 + np.sin(2 * np.pi * 0.2 * t), fs)
        out = temp_features(thermo, ref)
        assert out["temp_psd_power"] == pytest.approx(0.5, rel=0.15)

    def test_length_mismatch(self):
        with pytest.raises(InvalidInput, match="lengths differ"):
            temp_features(TimeSeries(np.ones(10), 7.5), TimeSeries(np.ones(11), 7.5))


def build_tiled_session():
    """Session whose task window repeats the baseline window exactly."""
    rng = np.random.default_rng(5)
    base_s = 60.0

    beats = []
    t = 0.25
    while t < base_s - 0.3:
        beats.append(t)
        t += 0.8 + 0.04 * math.sin(2 * math.pi * 0.25 * t)
    ppg_half = pulse_train(beats, fs=25.0, duration_s=base_s).values
    ppg = TimeSeries(np.concatenate([ppg_half, ppg_half]), 25.0)

    fs_eda = 15.0
    eda_half = 2.0 + 0.1 * np.sin(2 * np.pi * 0.02 * np.arange(int(base_s * fs_eda)) / fs_eda)
    half_ts = TimeSeries(eda_half, fs_eda)
    for onset, amp in ((10.0, 0.3), (35.0, 0.5)):
        half_ts = inject_scr(half_ts, onset, amp)
    eda = TimeSeries(np.concatenate([half_ts.values, half_ts.values]), fs_eda)

    fs_t = 7.5
    n_half = int(base_s * fs_t)
    thermo_half = 34.0 + 0.05 * np.sin(2 * np.pi * 0.03 * np.arange(n_half) / fs_t)
    ref_half = np.full(n_half, 25.0)
    thermo = TimeSeries(np.concatenate([thermo_half, thermo_half]), fs_t)
    ref = TimeSeries(np.concatenate([ref_half, ref_half]), fs_t)

    return SessionRecord(
        participant_id=1, session_index=1, setting=SessionSetting(1, "greek"),
        ppg=ppg, eda=eda, thermopile=thermo, reference_temp=ref,
        task_start_s=base_s, task_end_s=2 * base_s, rating=3,
    )


def per_window_oracle(session, window):
    """The per-window chain ``extract_all`` replaced: condition the whole
    recording, then cut one window; run once for each window."""
    if window == BASELINE:
        start, end = 0.0, session.task_start_s
    else:
        start, end = session.task_start_s, session.task_end_s

    def cut(series):
        return dsp.segment(series, start, min(end, series.duration_s))

    ppg = dsp.bandpass(session.ppg, *features.PPG_BAND_HZ)
    ppg = cut(dsp.resample_fourier(ppg, features.PPG_RESAMPLE_HZ))
    values = ppg_features(detect_ppg_peaks(ppg))
    eda = cut(dsp.resample_fourier(session.eda, features.EDA_RESAMPLE_HZ))
    eda = dsp.extend_to_minimum(eda, features.EDA_MIN_DURATION_S)
    values.update(eda_features(dsp.lowpass(eda, features.EDA_CLEAN_CUTOFF_HZ)))
    thermo, ref = cut(session.thermopile), cut(session.reference_temp)
    n = min(len(thermo), len(ref))
    values.update(temp_features(TimeSeries(thermo.values[:n], thermo.sampling_rate_hz),
                                TimeSeries(ref.values[:n], ref.sampling_rate_hz)))
    return np.array([values[name] for name in FEATURE_NAMES])


def short_baseline_session(session, baseline_s=6.0):
    """``session`` with every channel's head cut so that the baseline lasts
    ``baseline_s`` (under EDA_MIN_DURATION_S, so its EDA is head-padded)."""
    offset = session.task_start_s - baseline_s

    def cut(series):
        return dsp.segment(series, offset, series.duration_s)

    return dataclasses.replace(
        session, ppg=cut(session.ppg), eda=cut(session.eda), thermopile=cut(session.thermopile),
        reference_temp=cut(session.reference_temp), task_start_s=baseline_s,
        task_end_s=session.task_end_s - offset)


def with_flat_ppg(session, start, end):
    """``session`` with its PPG held constant over [start, end)."""
    values = session.ppg.values.copy()
    fs = session.ppg.sampling_rate_hz
    values[int(start * fs):int(end * fs)] = values[0]
    return dataclasses.replace(session, ppg=TimeSeries(values, fs))


class TestExtractAll:
    def test_smoke_24_finite_values(self, small_sessions):
        vectors = features.extract_all(small_sessions[0])
        assert len(vectors) == 2
        for v in vectors:
            assert v.shape == (24,)
            assert np.all(np.isfinite(v))

    @pytest.mark.parametrize("corpus", ["strong", "zero_margin"])
    def test_every_session_matches_per_window_oracle(self, request, corpus):
        """Bitwise-equal windows, and each assembled row is the oracle's
        task minus its baseline."""
        sessions = request.getfixturevalue(f"{corpus}_sessions")
        dataset = request.getfixturevalue(f"{corpus}_dataset")
        order = sorted(sessions, key=lambda s: (s.participant_id, s.session_index))
        for row, session in zip(dataset.X, order, strict=True):
            task, baseline = features.extract_all(session)
            oracle_task = per_window_oracle(session, TASK)
            oracle_baseline = per_window_oracle(session, BASELINE)
            assert np.array_equal(task, oracle_task)
            assert np.array_equal(baseline, oracle_baseline)
            assert np.array_equal(row, oracle_task - oracle_baseline)

    def test_head_padded_baseline_matches_per_window_oracle(self, strong_sessions):
        session = short_baseline_session(strong_sessions[0])
        assert session.task_start_s < features.EDA_MIN_DURATION_S
        task, baseline = features.extract_all(session)
        assert np.array_equal(task, per_window_oracle(session, TASK))
        assert np.array_equal(baseline, per_window_oracle(session, BASELINE))

    def test_stationary_session_baseline_matches_task(self):
        task, base = features.extract_all(build_tiled_session())
        for name, b, t in zip(FEATURE_NAMES, base, task):
            assert abs(t - b) <= max(0.1 * abs(b), 0.01), (name, b, t)

    def test_flat_ppg_raises_tagged_error(self, small_sessions):
        s = small_sessions[0]
        flat = dataclasses.replace(s, ppg=TimeSeries(np.zeros(len(s.ppg)), s.ppg.sampling_rate_hz))
        with pytest.raises(FeatureExtractionError) as err:
            features.extract_all(flat)
        assert err.value.channel == "ppg"

    @pytest.mark.parametrize("window", [TASK, BASELINE])
    def test_error_names_channel_window_participant_and_session(self, small_sessions, window):
        s = small_sessions[5]
        start, end = ((s.task_start_s, s.task_end_s) if window == TASK
                      else (0.0, s.task_start_s))
        with pytest.raises(FeatureExtractionError) as err:
            pipeline.assemble([with_flat_ppg(s, start, end)])
        assert (err.value.channel, err.value.window) == ("ppg", window)
        assert str(err.value).startswith(
            f"ppg/{window}: participant {s.participant_id} session {s.session_index}: ")

    def test_nonfinite_feature_raises_tagged_error(self, small_sessions, monkeypatch):
        original = features.temp_features

        def with_nan(thermopile, reference):
            return {**original(thermopile, reference), "temp_psd_power": float("nan")}

        monkeypatch.setattr(features, "temp_features", with_nan)
        with pytest.raises(FeatureExtractionError, match="non-finite temp_psd_power") as err:
            features.extract_all(small_sessions[0])
        assert (err.value.channel, err.value.window) == ("temperature", TASK)

    def test_programming_error_is_not_wrapped(self, small_sessions, monkeypatch):
        def broken(series):
            raise TypeError("a bug, not bad data")

        monkeypatch.setattr(features, "detect_ppg_peaks", broken)
        with pytest.raises(TypeError, match="a bug") as err:
            features.extract_all(small_sessions[0])
        assert not isinstance(err.value, FeatureExtractionError)
