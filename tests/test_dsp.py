import numpy as np
import pytest
from scipy import signal as sps

from timesense import dsp, features
from timesense.errors import InsufficientData, InvalidInput
from timesense.model import TimeSeries


def sine(freq_hz, fs, duration_s, amplitude=1.0, phase=0.0):
    t = np.arange(int(duration_s * fs)) / fs
    return TimeSeries(amplitude * np.sin(2 * np.pi * freq_hz * t + phase), fs)


def rms(x):
    return np.sqrt(np.mean(np.asarray(x) ** 2))


def same_bits(a, b):
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return a.shape == b.shape and np.array_equal(a.view(np.int64), b.view(np.int64))


def noise(n, fs, seed=0):
    return TimeSeries(np.random.default_rng(seed).normal(size=n), fs)


class TestBandpass:
    def test_passband_sine_within_1db(self):
        ts = sine(1.5, 100.0, 60.0)
        out = dsp.bandpass(ts, 0.7, 3.5)
        # steady-state region away from the edges
        ratio = rms(out.values[500:-500]) / rms(ts.values[500:-500])
        assert abs(20 * np.log10(ratio)) < 1.0

    def test_stopband_sine_attenuated_30db(self):
        ts = sine(0.1, 100.0, 60.0)
        out = dsp.bandpass(ts, 0.7, 3.5)
        ratio = rms(out.values[500:-500]) / rms(ts.values[500:-500])
        assert 20 * np.log10(ratio) < -30.0

    def test_invalid_band_above_nyquist(self):
        ts = sine(1.0, 15.0, 10.0)
        with pytest.raises(InvalidInput, match="Nyquist"):
            dsp.bandpass(ts, 0.7, 8.0)

    def test_too_short(self):
        ts = TimeSeries(np.ones(10), 100.0)
        with pytest.raises(InsufficientData, match="samples for order-3 bandpass"):
            dsp.bandpass(ts, 0.7, 3.5)

    def test_too_short_for_the_default_padding(self):
        with pytest.raises(InsufficientData, match="need more than 21 samples"):
            dsp.bandpass(noise(21, 100.0), 0.7, 3.5)

    def test_zero_phase_no_lag(self):
        ts = sine(1.5, 100.0, 30.0)
        out = dsp.bandpass(ts, 0.7, 3.5)
        a = ts.values[300:-300] - np.mean(ts.values[300:-300])
        b = out.values[300:-300] - np.mean(out.values[300:-300])
        corr = np.correlate(a, b, mode="full")
        lag = np.argmax(corr) - (len(a) - 1)
        assert lag == 0

    # sosfiltfilt pads an order-3 bandpass (3 sections) by 21 samples
    @pytest.mark.parametrize("n", [22, 23, 600])
    def test_equals_scipy_order_3(self, n):
        ts = noise(n, 100.0)
        sos = sps.butter(3, [0.7, 3.5], btype="bandpass", fs=100.0, output="sos")
        assert same_bits(dsp.bandpass(ts, 0.7, 3.5).values, sps.sosfiltfilt(sos, ts.values))


class TestLowpass:
    # the padding is 1.5 cutoff periods (50 samples at 3 Hz and 100 Hz), cut
    # to n - 1 on a shorter series; the order-2 design (1 section) needs
    # more than 9 samples
    @pytest.mark.parametrize("n", [10, 11, 40, 51, 600])
    def test_equals_scipy_order_2(self, n):
        ts = noise(n, 100.0)
        sos = sps.butter(2, 3.0, btype="lowpass", fs=100.0, output="sos")
        expected = sps.sosfiltfilt(sos, ts.values, padlen=min(n - 1, 50))
        assert same_bits(dsp.lowpass(ts, 3.0).values, expected)

    def test_too_short(self):
        with pytest.raises(InsufficientData, match="need more than 9 samples for order-2 lowpass"):
            dsp.lowpass(TimeSeries(np.ones(9), 100.0), 3.0)

    def test_invalid_cutoff(self):
        with pytest.raises(InvalidInput, match="Nyquist"):
            dsp.lowpass(noise(100, 4.0), 2.0)


class TestFilterDesignCache:
    def test_designs_are_shared_and_read_only(self):
        sos = dsp.butter_sos(3, (0.7, 3.5), "bandpass", 100.0)
        assert sos is dsp.butter_sos(3, (0.7, 3.5), "bandpass", 100.0)
        assert not sos.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            sos[0, 0] = 0.0
        fresh = sps.butter(3, [0.7, 3.5], btype="bandpass", fs=100.0, output="sos")
        assert np.array_equal(sos, fresh)

    def test_extraction_designs_each_filter_once(self, small_sessions, monkeypatch):
        calls = []
        butter = sps.butter

        def counted(*args, **kwargs):
            calls.append(args)
            return butter(*args, **kwargs)

        monkeypatch.setattr(sps, "butter", counted)
        dsp.butter_sos.cache_clear()
        for session in small_sessions:
            features.extract_all(session)
        # the PPG band-pass and the two EDA low-passes
        assert len(calls) == 3
        dsp.butter_sos.cache_clear()


class TestResampleFourier:
    def test_dc_preserved(self):
        ts = TimeSeries(np.full(250, 3.3), 25.0)
        out = dsp.resample_fourier(ts, 100.0)
        assert np.allclose(out.values, 3.3, atol=1e-9)
        assert len(out) == 1000

    def test_sine_preserved_within_1pct(self):
        ts = sine(1.0, 25.0, 10.0)
        out = dsp.resample_fourier(ts, 100.0)
        # compare interior against an analytically sampled sine
        t = np.arange(len(out)) / out.sampling_rate_hz
        expected = np.sin(2 * np.pi * 1.0 * t)
        interior = slice(50, -50)
        err = np.max(np.abs(out.values[interior] - expected[interior]))
        assert err < 0.01

    def test_identity_at_same_rate(self):
        ts = sine(1.0, 25.0, 10.0)
        out = dsp.resample_fourier(ts, 25.0)
        assert np.allclose(out.values, ts.values, atol=1e-9)

    def test_linearity(self):
        rng = np.random.default_rng(0)
        x = TimeSeries(rng.normal(size=200), 25.0)
        y = TimeSeries(rng.normal(size=200), 25.0)
        a, b = 2.0, -0.7
        combo = TimeSeries(a * x.values + b * y.values, 25.0)
        lhs = dsp.resample_fourier(combo, 100.0).values
        rhs = (a * dsp.resample_fourier(x, 100.0).values
               + b * dsp.resample_fourier(y, 100.0).values)
        assert np.allclose(lhs, rhs, atol=1e-9)

    def test_too_short(self):
        with pytest.raises(InsufficientData, match="target rate too low"):
            dsp.resample_fourier(TimeSeries([1.0, 2.0], 10.0), 1e-3)

    @pytest.mark.parametrize("rate", [0.0, -25.0])
    def test_non_positive_rate(self, rate):
        with pytest.raises(InvalidInput, match="target_rate_hz must be positive"):
            dsp.resample_fourier(TimeSeries([1.0, 2.0, 3.0], 10.0), rate)


class TestSegment:
    def test_first_half(self):
        ts = TimeSeries(np.arange(100, dtype=float), 10.0)
        out = dsp.segment(ts, 0.0, 5.0)
        assert np.array_equal(out.values, ts.values[:50])

    def test_identity(self):
        ts = TimeSeries(np.arange(100, dtype=float), 10.0)
        out = dsp.segment(ts, 0.0, ts.duration_s)
        assert np.array_equal(out.values, ts.values)

    def test_empty_segment(self):
        ts = TimeSeries(np.arange(100, dtype=float), 10.0)
        with pytest.raises(InsufficientData, match="no samples in"):
            dsp.segment(ts, 9.91, 9.95)

    def test_out_of_range(self):
        ts = TimeSeries(np.arange(100, dtype=float), 10.0)
        with pytest.raises(InvalidInput, match="beyond the recording"):
            dsp.segment(ts, 20.0, 30.0)

    def test_end_past_recording_cuts_at_last_sample(self):
        ts = TimeSeries(np.arange(100, dtype=float), 10.0)
        past = dsp.segment(ts, 2.5, 30.0)
        assert same_bits(past.values, dsp.segment(ts, 2.5, ts.duration_s).values)
        assert same_bits(past.values, ts.values[25:])

    def test_infinite_end_cuts_at_last_sample(self):
        ts = TimeSeries(np.arange(100, dtype=float), 10.0)
        assert same_bits(dsp.segment(ts, 0.0, np.inf).values, ts.values)

    def test_composition(self):
        ts = TimeSeries(np.arange(200, dtype=float), 10.0)
        a, b, c = 2.0, 8.0, 15.0
        direct = dsp.segment(ts, a, b)
        nested = dsp.segment(dsp.segment(ts, a, c), 0.0, b - a)
        assert np.array_equal(direct.values, nested.values)


@pytest.mark.parametrize("call,argument", [
    (lambda ts: dsp.segment(ts, np.nan, 5.0), "start_s"),
    (lambda ts: dsp.segment(ts, 0.0, np.nan), "end_s"),
    (lambda ts: dsp.segment(ts, np.inf, np.inf), "start_s"),
    (lambda ts: dsp.resample_fourier(ts, np.nan), "target_rate_hz"),
    (lambda ts: dsp.resample_fourier(ts, np.inf), "target_rate_hz"),
    (lambda ts: dsp.extend_to_minimum(ts, np.inf), "min_s"),
    (lambda ts: dsp.extend_to_minimum(ts, np.nan), "min_s"),
    (lambda ts: dsp.welch_psd(ts, 0), "max_segment"),
    (lambda ts: dsp.welch_psd(ts, 2.5), "max_segment"),
], ids=["segment-nan-start", "segment-nan-end", "segment-inf-start", "resample-nan",
        "resample-inf", "extend-inf", "extend-nan", "welch-0", "welch-2.5"])
def test_a_bad_argument_raises_invalid_input_naming_it(call, argument):
    with pytest.raises(InvalidInput, match=argument):
        call(TimeSeries(np.arange(100, dtype=float), 10.0))


class TestExtendToMinimum:
    def test_pads_head_to_10s(self):
        ts = TimeSeries(np.arange(85, dtype=float), 10.0)  # 8.5 s
        out = dsp.extend_to_minimum(ts, 10.0)
        assert out.duration_s == pytest.approx(10.0)
        assert np.all(out.values[:15] == ts.values[0])
        assert np.array_equal(out.values[15:], ts.values)

    def test_identity_when_long_enough(self):
        ts = TimeSeries(np.arange(120, dtype=float), 10.0)
        assert dsp.extend_to_minimum(ts, 10.0) is ts

    def test_extreme_padding(self):
        ts = TimeSeries([5.0, 5.0], 20.0)  # 0.1 s
        out = dsp.extend_to_minimum(ts, 10.0)
        assert out.duration_s >= 10.0
        assert np.all(out.values == 5.0)

    @pytest.mark.parametrize("min_s", [0.0, -1.0])
    def test_non_positive_minimum(self, min_s):
        with pytest.raises(InvalidInput, match="min_s must be positive"):
            dsp.extend_to_minimum(TimeSeries([5.0, 5.0], 20.0), min_s)


class TestWelchPsd:
    def test_peak_bin_at_signal_frequency(self):
        ts = sine(0.2, 7.5, 120.0)
        spectrum = dsp.welch_psd(ts, 256)
        f = spectrum[0]
        assert abs(dsp.peak_frequency(spectrum, 0.0, f[-1]) - 0.2) <= f[1] - f[0]

    def test_zero_signal_zero_power(self):
        _, power = dsp.welch_psd(TimeSeries(np.zeros(512), 10.0), 256)
        assert np.all(power == 0)

    def test_white_noise_total_power(self):
        rng = np.random.default_rng(42)
        ts = TimeSeries(rng.normal(0.0, 1.0, 600), 10.0)
        assert dsp.band_power(dsp.welch_psd(ts, 256)) == pytest.approx(1.0, rel=0.15)

    # n below, at and above the largest segment
    @pytest.mark.parametrize("n,max_segment", [(10, 100), (17, 256), (128, 128), (600, 256)])
    def test_equals_scipy_welch(self, n, max_segment):
        ts = TimeSeries(np.random.default_rng(n).normal(3.0, 1.0, n), 4.0)
        nperseg = min(n, max_segment)
        f, p = sps.welch(ts.values - np.mean(ts.values), fs=4.0, window="hann",
                         nperseg=nperseg, noverlap=nperseg // 2, detrend=False)
        freqs, power = dsp.welch_psd(ts, max_segment)
        assert same_bits(freqs, f) and same_bits(power, p)

    def test_band_power_is_the_trapezoid_over_the_band(self):
        spectrum = dsp.welch_psd(noise(600, 10.0), 256)
        f, p = spectrum
        band = (f >= 0.5) & (f <= 2.0)
        assert dsp.band_power(spectrum, 0.5, 2.0) == np.trapezoid(p[band], f[band])
        assert dsp.band_power(spectrum) == np.trapezoid(p, f)
        # one bin or none in the band
        assert dsp.band_power(spectrum, 0.5, 0.5 + 0.5 * (f[1] - f[0])) == 0.0
        assert dsp.band_power(spectrum, 6.0, 7.0) == 0.0

    def test_peak_frequency_of_an_empty_band(self):
        with pytest.raises(InsufficientData, match="empty frequency band"):
            dsp.peak_frequency(dsp.welch_psd(noise(600, 10.0), 256), 6.0, 7.0)
