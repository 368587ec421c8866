import json

import numpy as np
import pytest

from timesense import features, ingest, pipeline
from timesense.errors import InvalidInput, MissingFile
from timesense.model import FEATURE_NAMES, SessionSetting


def write_csv(path, rows, header="timestamp_s,value"):
    path.write_text(header + "\n" + "\n".join(rows) + ("\n" if rows else ""))


class TestReadChannelCsv:
    def test_basic_read(self, tmp_path):
        p = tmp_path / "ch.csv"
        write_csv(p, [f"{i/10.0},{float(i)}" for i in range(20)])
        ts = ingest.read_channel_csv(p, 10.0)
        assert len(ts) == 20
        assert ts.sampling_rate_hz == 10.0
        assert ts.values[3] == 3.0

    def test_trims(self, tmp_path):
        p = tmp_path / "ch.csv"
        write_csv(p, [f"{i/10.0},{float(i)}" for i in range(4550)])
        ts = ingest.read_channel_csv(p, 10.0, trim_tail=8)
        assert len(ts) == 4542
        assert ts.values[-1] == 4541.0
        ts = ingest.read_channel_csv(p, 10.0, trim_head=5, trim_tail=8)
        assert len(ts) == 4537
        assert ts.values[0] == 5.0

    def test_missing_file(self, tmp_path):
        with pytest.raises(MissingFile):
            ingest.read_channel_csv(tmp_path / "absent.csv", 10.0)

    def test_bad_header(self, tmp_path):
        p = tmp_path / "ch.csv"
        write_csv(p, ["0.0,1.0"], header="time,val")
        with pytest.raises(InvalidInput, match="line 1: expected header"):
            ingest.read_channel_csv(p, 10.0)

    def test_nonfinite_sample_reports_data_row(self, tmp_path):
        p = tmp_path / "ch.csv"
        rows = [f"{i/10.0},1.0" for i in range(10)]
        rows[7] = "0.7,nan"
        write_csv(p, rows)
        with pytest.raises(InvalidInput, match="non-finite sample at index 7$"):
            ingest.read_channel_csv(p, 10.0)
        # blank lines count as lines but not as samples
        rows[3:3] = ["", ""]
        write_csv(p, rows)
        with pytest.raises(InvalidInput, match="line 11: non-finite sample at index 7$"):
            ingest.read_channel_csv(p, 10.0)

    def test_nan_timestamp_blames_its_own_line(self, tmp_path):
        p = tmp_path / "ch.csv"
        write_csv(p, ["nan,1", "0.1,1", "0.2,1"])
        with pytest.raises(InvalidInput, match=r"ch\.csv, line 2: non-finite timestamp$"):
            ingest.read_channel_csv(p, 10.0)

    def test_inf_timestamp_rejected(self, tmp_path):
        p = tmp_path / "ch.csv"
        rows = [f"{i/10.0},1.0" for i in range(10)]
        rows[6] = "inf,1.0"
        write_csv(p, rows)
        with pytest.raises(InvalidInput, match=r"ch\.csv, line 8: non-finite timestamp$"):
            ingest.read_channel_csv(p, 10.0)

    def test_non_increasing_timestamps(self, tmp_path):
        p = tmp_path / "ch.csv"
        write_csv(p, ["0.0,1.0", "0.2,1.0", "0.1,1.0"])
        with pytest.raises(InvalidInput, match="timestamps not increasing"):
            ingest.read_channel_csv(p, 10.0)

    def test_dropped_row_rejected(self, tmp_path):
        p = tmp_path / "ch.csv"
        rows = [f"{i/10.0},{float(i)}" for i in range(20)]
        del rows[7]  # t = 0.7 s; 0.8 s would become sample 7
        write_csv(p, rows)
        with pytest.raises(InvalidInput, match=r"ch\.csv, line 9: timestamp 0\.8 s is 0\.2 s after "
                                               r"the previous one, not one sample period \(0\.1 s\)"):
            ingest.read_channel_csv(p, 10.0)

    def test_gap_line_number_counts_blank_lines(self, tmp_path):
        p = tmp_path / "ch.csv"
        rows = [f"{i/10.0},{float(i)}" for i in range(20)]
        rows[7] = ""  # the 0.7 s row blanked, plus one blank line before it
        rows.insert(3, "")
        write_csv(p, rows)
        with pytest.raises(InvalidInput, match=r"line 11: timestamp 0\.8 s"):
            ingest.read_channel_csv(p, 10.0)

    def test_off_grid_extra_row_rejected(self, tmp_path):
        p = tmp_path / "ch.csv"
        rows = [f"{i/10.0},{float(i)}" for i in range(20)]
        rows.insert(8, "0.73,7.3")
        write_csv(p, rows)
        with pytest.raises(InvalidInput, match=r"line 10: timestamp 0\.73 s is 0\.03 s after"):
            ingest.read_channel_csv(p, 10.0)
        # half a period after the 0.7 s row: steps of 0.05 s * 10 Hz compute
        # as 0.5000000000000004, which rounds to one period
        rows[8] = "0.75,7.5"
        write_csv(p, rows)
        with pytest.raises(InvalidInput, match=r"line 10: timestamp 0\.75 s is 0\.05 s after"):
            ingest.read_channel_csv(p, 10.0)

    def test_timing_jitter_within_a_quarter_period_accepted(self, tmp_path):
        p = tmp_path / "ch.csv"
        write_csv(p, [f"{i/10.0 + (0.02 if i % 2 else 0.0)},1.0" for i in range(20)])
        assert len(ingest.read_channel_csv(p, 10.0)) == 20

    @pytest.mark.parametrize("trim_head,trim_tail", [(0, 10), (0, 12), (3, 12)])
    def test_trims_past_the_end_rejected(self, tmp_path, trim_head, trim_tail):
        p = tmp_path / "ch.csv"
        write_csv(p, [f"{i/10.0},1.0" for i in range(10)])
        with pytest.raises(InvalidInput, match="fewer than 2 samples after trimming"):
            ingest.read_channel_csv(p, 10.0, trim_head=trim_head, trim_tail=trim_tail)

    def test_negative_trim_rejected(self, tmp_path):
        p = tmp_path / "ch.csv"
        write_csv(p, [f"{i/10.0},1.0" for i in range(10)])
        with pytest.raises(InvalidInput, match="trim counts"):
            ingest.read_channel_csv(p, 10.0, trim_head=-1)


class TestSynthDataset:
    def test_corpus_shape(self, strong_sessions):
        assert len(strong_sessions) == 48
        pids = {s.participant_id for s in strong_sessions}
        assert pids == set(range(1, 13))
        for s in strong_sessions:
            assert s.task_end_s - s.task_start_s == pytest.approx(182.0)
            assert s.task_start_s == pytest.approx(30.0)

    def test_class_split_26_22(self, strong_sessions):
        cfg = ingest.SynthConfig(seed=7)
        classes = [ingest.intended_class(cfg, s.participant_id, s.setting)
                   for s in strong_sessions]
        assert classes.count("slow") == 26
        assert classes.count("fast") == 22

    def test_ratings_match_intended_class(self, strong_sessions):
        cfg = ingest.SynthConfig(seed=7)
        for s in strong_sessions:
            cls = ingest.intended_class(cfg, s.participant_id, s.setting)
            assert s.rating in ((1, 2) if cls == "slow" else (4, 5))

    def test_determinism(self):
        a = ingest.synth_dataset(ingest.SynthConfig(participants=2, seed=3))
        b = ingest.synth_dataset(ingest.SynthConfig(participants=2, seed=3))
        for sa, sb in zip(a, b):
            assert np.array_equal(sa.ppg.values, sb.ppg.values)
            assert np.array_equal(sa.eda.values, sb.eda.values)
            assert sa.rating == sb.rating

    def test_seed_changes_signal(self):
        a = ingest.synth_dataset(ingest.SynthConfig(participants=1, n_slow_biased=0, seed=3))
        b = ingest.synth_dataset(ingest.SynthConfig(participants=1, n_slow_biased=0, seed=4))
        assert not np.array_equal(a[0].ppg.values, b[0].ppg.values)

    def test_task_ibi_tracks_configured_heart_rate(self, strong_sessions):
        cfg = ingest.SynthConfig(seed=7)
        for s in strong_sessions[:8]:
            cls = ingest.intended_class(cfg, s.participant_id, s.setting)
            target = cfg.slow.hr_bpm if cls == "slow" else cfg.fast.hr_bpm
            task, _ = features.extract_all(s)
            assert task[FEATURE_NAMES.index("bpm")] == pytest.approx(target, rel=0.05)

    def test_zero_scr_rate_yields_zero_peaks(self):
        quiet = ingest.ClassParams(
            hr_bpm=70.0, rr_jitter_ms=20.0, breathing_hz=0.25,
            breathing_mod_ms=20.0, scr_rate_per_min=0.0, scr_amp_mean_us=0.3,
            tonic_slope_us_per_min=0.0, temp_drift_c_per_min=0.0)
        cfg = ingest.SynthConfig(participants=1, sessions_per_participant=1,
                                 n_slow_biased=0, slow=quiet, fast=quiet,
                                 baseline=quiet, seed=5)
        (session,) = ingest.synth_dataset(cfg)
        task, _ = features.extract_all(session)
        assert task[FEATURE_NAMES.index("scr_peaks_n")] == 0.0

    def test_invalid_configs_rejected(self):
        with pytest.raises(InvalidInput, match="counts must be >= 1"):
            ingest.SynthConfig(participants=0).validate()
        with pytest.raises(InvalidInput, match="at most 4 sessions"):
            ingest.SynthConfig(sessions_per_participant=5).validate()
        with pytest.raises(InvalidInput, match="n_slow_biased"):
            ingest.SynthConfig(n_slow_biased=99).validate()
        bad = ingest.ClassParams(
            hr_bpm=300.0, rr_jitter_ms=10.0, breathing_hz=0.2,
            breathing_mod_ms=10.0, scr_rate_per_min=1.0, scr_amp_mean_us=0.3,
            tonic_slope_us_per_min=0.0, temp_drift_c_per_min=0.0)
        with pytest.raises(InvalidInput, match="heart rate"):
            ingest.SynthConfig(fast=bad).validate()

    @pytest.mark.parametrize("overrides", [
        {"ppg_rate_hz": 1e308}, {"task_s": 1e308}, {"task_s": float("inf")},
        {"baseline_s": float("nan")}, {"temp_rate_hz": ingest.MAX_CHANNEL_SAMPLES / 200.0},
    ])
    def test_channels_past_the_sample_cap_rejected(self, overrides):
        with pytest.raises(InvalidInput, match="a channel holds at most"):
            ingest.SynthConfig(**overrides).validate()

    def test_eda_sparser_than_its_responses_generates(self):
        # at 0.05 Hz some responses start after the last EDA sample
        config = ingest.SynthConfig(participants=2, sessions_per_participant=1,
                                    eda_rate_hz=0.05, n_slow_biased=0)
        (session, _) = ingest.synth_dataset(config)
        assert len(session.eda) == 11
        assert ingest._scr_kernel(np.zeros(0)).shape == (0,)

    def test_channel_at_the_sample_cap_accepted(self):
        ingest.SynthConfig(baseline_s=100.0, task_s=100.0,
                           ppg_rate_hz=ingest.MAX_CHANNEL_SAMPLES / 200.0).validate()


@pytest.fixture
def corpus_entry(small_sessions, tmp_path):
    """The manifest entry of one written session, and its base directory."""
    entries, base = ingest.load_manifest(ingest.write_corpus(small_sessions[:1], tmp_path / "c"))
    return entries[0], base


class TestCorpusRoundTrip:
    def test_write_then_load(self, small_sessions, tmp_path):
        manifest_path = ingest.write_corpus(small_sessions[:2], tmp_path / "corpus")
        entries, base = ingest.load_manifest(manifest_path)
        assert len(entries) == 2
        loaded = [ingest.load_session(e, base) for e in entries]
        for orig, back in zip(small_sessions[:2], loaded):
            assert back.participant_id == orig.participant_id
            assert back.rating == orig.rating
            assert back.setting == orig.setting
            assert np.allclose(back.ppg.values, orig.ppg.values)
            assert np.allclose(back.eda.values, orig.eda.values)
            assert back.task_start_s == orig.task_start_s

    def test_round_trip_is_bit_exact(self, small_sessions, tmp_path):
        manifest_path = ingest.write_corpus(small_sessions[:1], tmp_path / "c")
        entries, base = ingest.load_manifest(manifest_path)
        back = ingest.load_session(entries[0], base)
        assert np.array_equal(back.ppg.values, small_sessions[0].ppg.values)
        assert np.array_equal(back.thermopile.values, small_sessions[0].thermopile.values)

    def test_manifest_is_deterministic(self, small_sessions, tmp_path):
        p1 = ingest.write_corpus(small_sessions[:2], tmp_path / "a")
        p2 = ingest.write_corpus(small_sessions[:2], tmp_path / "b")
        assert open(p1).read() == open(p2).read()

    @pytest.mark.parametrize("damage, message", [
        (lambda e: e.update(participant_id=0), "entry: participant_id must be >= 1"),
        (lambda e: e.update(session_index=5), "entry: session_index out of range 1..4"),
        (lambda e: e.update(rating=0), "entry: rating out of range"),
        (lambda e: e.update(task_start_s=0.0), "entry: empty baseline interval"),
        (lambda e: e.update(task_end_s=e["task_start_s"]),
         "entry: task_end_s must exceed task_start_s"),
        (lambda e: e.update(duration_estimate_s=-1.0),
         "entry: duration_estimate_s must be positive when given"),
        (lambda e: e["channels"]["eda"].update(trim_tail=10 ** 6),
         "fewer than 2 samples after trimming"),
        (lambda e: e["channels"]["thermopile"].update(trim_tail=8),
         "entry: task window exceeds thermopile recording length"),
    ])
    def test_load_session_reports_each_session_rule(self, corpus_entry, damage, message):
        entry, base = corpus_entry
        damage(entry)
        with pytest.raises(InvalidInput) as err:
            ingest.load_session(entry, base)
        assert str(err.value).endswith(message)

    @pytest.mark.parametrize("damage, message", [
        (lambda e: e.update(ratnig=9), "entry: unknown keys ['ratnig']"),
        (lambda e: e["channels"]["ppg"].update(trim_haed=50),
         "entry.channels.ppg: unknown keys ['trim_haed']"),
        (lambda e: e["channels"].update(gsr=e["channels"]["eda"]),
         "entry.channels: unknown keys ['gsr']"),
        (lambda e: e.update(ppg=e["channels"]["ppg"]), "entry: unknown keys ['ppg']"),
    ])
    def test_unknown_keys_rejected(self, corpus_entry, damage, message):
        entry, base = corpus_entry
        damage(entry)
        with pytest.raises(InvalidInput) as err:
            ingest.load_session(entry, base)
        assert str(err.value) == message

    def test_integer_rates_and_times_load_as_floats(self, corpus_entry):
        entry, base = corpus_entry
        entry["channels"]["ppg"]["sampling_rate_hz"] = 25
        entry["task_start_s"] = 30
        session = ingest.load_session(entry, base)
        assert type(session.ppg.sampling_rate_hz) is float
        assert type(session.task_start_s) is float

    @pytest.mark.parametrize("version", [99, 0, "1", 1.0, True, None])
    def test_other_schema_version_rejected(self, tmp_path, version):
        p = tmp_path / "m.json"
        p.write_text(json.dumps({"schema_version": version, "sessions": []}))
        with pytest.raises(InvalidInput, match="schema_version"):
            ingest.load_manifest(p)

    def test_missing_schema_version_accepted(self, tmp_path):
        p = tmp_path / "m.json"
        p.write_text(json.dumps({"sessions": [{"rating": 1}]}))
        assert ingest.load_manifest(p)[0] == [{"rating": 1}]

    def test_load_session_validates(self, small_sessions, tmp_path):
        manifest_path = ingest.write_corpus(small_sessions[:1], tmp_path / "c")
        entries, base = ingest.load_manifest(manifest_path)
        entries[0]["rating"] = 9
        with pytest.raises(InvalidInput, match="rating out of range"):
            ingest.load_session(entries[0], base)

    def test_missing_manifest(self, tmp_path):
        with pytest.raises(MissingFile):
            ingest.load_manifest(tmp_path / "none.json")

    def test_manifest_without_sessions_key(self, tmp_path):
        p = tmp_path / "m.json"
        p.write_text(json.dumps({"schema_version": 1}))
        with pytest.raises(InvalidInput, match="'sessions'"):
            ingest.load_manifest(p)
