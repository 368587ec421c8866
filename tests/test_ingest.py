import json
import re
import tempfile
import warnings
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from timesense import dsp, features, ingest
from timesense.errors import InvalidInput, MissingFile
from timesense.model import ALL_SETTINGS, CHANNELS, FEATURE_NAMES, SessionRecord, TimeSeries


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
        """The trims are checked before the file is read: a damaged row
        later in the file does not hide them, and the message names the
        file."""
        p = tmp_path / "ch.csv"
        write_csv(p, [f"{i/10.0},1.0" for i in range(10)] + ["1.0,x"])
        for trim_head, trim_tail in [(-1, 0), (0, -1)]:
            with pytest.raises(InvalidInput) as exc:
                ingest.read_channel_csv(p, 10.0, trim_head=trim_head, trim_tail=trim_tail)
            name, value = ("trim_head", trim_head) if trim_head < 0 else ("trim_tail", trim_tail)
            assert str(exc.value) == f"{p}: {name} {value} must be >= 0"


def outcome(read):
    """The values ``read()`` returns as int64 bit patterns, or its InvalidInput message."""
    try:
        return read().view(np.int64).tolist()
    except InvalidInput as exc:
        return str(exc)


# A field as the writer spells it (repr: exponent forms, -0.0, subnormals) or
# as a long decimal string.
FIELDS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.from_regex(r"-?[0-9]{1,30}(\.[0-9]{0,30})?([eE][+-]?[0-9]{1,3})?", fullmatch=True))
# Spellings of an on-grid timestamp; the off-grid mutation moves one.
TIME_STYLES = {
    "repr": repr,
    "exponent": lambda t: format(t, ".17e"),
    "long": lambda t: format(t, ".40f"),
}
MUTATIONS = ("blank line", "crlf", "space", "plus", "underscore", "non-finite",
             "non-ascii digit", "third column", "header only", "one row", "off grid")


@st.composite
def channel_files(draw):
    """(body, rate, trim_head, trim_tail) of a channel CSV, the body being
    the text after its header."""
    fs = draw(st.sampled_from([10.0, 7.5, 25.0, 3.0]))
    n = draw(st.integers(0, 25))
    style = TIME_STYLES[draw(st.sampled_from(sorted(TIME_STYLES)))]
    lines = [f"{style(i / fs)},{draw(FIELDS)}" for i in range(n)]
    newline = "\n"
    for mutation in draw(st.lists(st.sampled_from(MUTATIONS), max_size=3)):
        at = draw(st.integers(0, max(len(lines) - 1, 0)))
        if mutation == "blank line":
            lines.insert(at, draw(st.sampled_from(["", " ", "\t"])))
        elif mutation == "crlf":
            newline = "\r\n"
        elif mutation == "header only":
            lines = []
        elif mutation == "one row":
            lines = lines[:1]
        elif not lines:
            continue
        elif mutation == "space":
            lines[at] = draw(st.sampled_from([" " + lines[at], lines[at] + " ",
                                              lines[at].replace(",", " , ")]))
        elif mutation == "plus":
            lines[at] = "+" + lines[at]
        elif mutation == "underscore":
            lines[at] = re.sub(r"(\d)(\d)", r"\1_\2", lines[at], count=1)
        elif mutation == "non-finite":
            spelling = draw(st.sampled_from(["nan", "inf", "-inf", "1e999", "NaN", "Infinity"]))
            t, _, v = lines[at].partition(",")
            lines[at] = draw(st.sampled_from([f"{spelling},{v}", f"{t},{spelling}"]))
        elif mutation == "non-ascii digit":
            lines[at] = lines[at].replace("0", draw(st.sampled_from(["٠", "０"])))
        elif mutation == "third column":
            lines[at] += ",1.0"
        else:  # off grid
            v = lines[at].partition(",")[2]
            # steps of 1 + shift periods, some just past the quarter-period rule
            shift = draw(st.one_of(st.sampled_from([-0.5, -0.3, 0.26, 0.45]),
                                   st.floats(-1.5, 1.5)))
            lines[at] = f"{(at + shift) / fs!r},{v}"
    trailing = draw(st.sampled_from([newline, ""])) if lines else newline
    return newline.join(lines) + trailing, fs, draw(st.integers(-1, 3)), draw(st.integers(-1, 3))


class TestBulkReaderMatchesLoop:
    """``read_channel_csv`` parses plain decimal text in bulk; whatever it
    returns or raises equals what the line loop alone returns or raises. A
    negative trim is refused before either reads the file."""

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(case=channel_files())
    def test_same_values_or_same_message(self, tmp_path_factory, case):
        body, fs, trim_head, trim_tail = case
        p = tmp_path_factory.getbasetemp() / "bulk_vs_loop.csv"
        p.write_bytes(("timestamp_s,value\n" + body).encode("utf-8"))
        read_body = p.read_text(encoding="utf-8", errors="replace").partition("\n")[2]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            bulk = outcome(lambda: ingest.read_channel_csv(p, fs, trim_head, trim_tail).values)
        if min(trim_head, trim_tail) < 0:
            # refused before the file is read: no reader sees a negative trim
            name, value = ("trim_head", trim_head) if trim_head < 0 else ("trim_tail", trim_tail)
            assert bulk == f"{p}: {name} {value} must be >= 0"
            return
        loop = outcome(lambda: ingest._read_rows_loop(p, read_body, fs, trim_head, trim_tail))
        assert bulk == loop

    def test_plain_rows_never_reach_the_loop(self, tmp_path, monkeypatch):
        p = tmp_path / "ch.csv"
        rows = [f"{i / 7.5!r},{v!r}" for i, v in enumerate([-0.0, 5e-324, 1e-05, 1e+16])]
        rows[2:2] = [""]
        rows[3] = "+" + rows[3]
        write_csv(p, rows)
        monkeypatch.setattr(ingest, "_read_rows_loop", None)
        values = ingest.read_channel_csv(p, 7.5, trim_head=1).values
        expected = np.array([5e-324, 1e-05, 1e+16])
        assert values.view(np.int64).tolist() == expected.view(np.int64).tolist()

    @pytest.mark.parametrize("row", [" 0.1,1.0", "0.1 ,1.0", "0.1,1_0", "0.1,inf", "0.1,1e999",
                                     "0.1,１", "0.1,1.0,2.0", "0.1", " "])
    def test_other_rows_take_the_loop(self, tmp_path, row):
        p = tmp_path / "ch.csv"
        write_csv(p, ["0.0,1.0", row, "0.2,1.0"])
        body = p.read_text().partition("\n")[2]
        assert ingest._read_rows_numpy(body, 10.0, 0, 0) is None


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
            target = (ingest.SLOW_PARAMS if cls == "slow" else ingest.FAST_PARAMS).hr_bpm
            task, _ = features.extract_all(s)
            assert task[FEATURE_NAMES.index("bpm")] == pytest.approx(target, rel=0.05)

    def test_zero_scr_rate_yields_zero_peaks(self):
        # the generator's EDA with no responses: tonic ramp, slow wander, noise
        fs = ingest.EDA_RATE_HZ
        t = np.arange(int(182.0 * fs)) / fs
        values = (2.0 + 0.1 * t / 60.0 + 0.08 * np.sin(2 * np.pi * 0.01 * t)
                  + np.random.default_rng(5).normal(0.0, 0.001, len(t)))
        eda = dsp.lowpass(TimeSeries(values, fs), features.EDA_CLEAN_CUTOFF_HZ)
        assert features.eda_features(eda)["scr_peaks_n"] == 0.0

    def test_invalid_configs_rejected(self):
        with pytest.raises(InvalidInput, match="counts must be >= 1"):
            ingest.SynthConfig(participants=0).validate()
        with pytest.raises(InvalidInput, match="at most 4 sessions"):
            ingest.SynthConfig(sessions_per_participant=5).validate()
        with pytest.raises(InvalidInput, match="n_slow_biased"):
            ingest.SynthConfig(n_slow_biased=99).validate()
        with pytest.raises(InvalidInput, match="baseline_s and task_s must each be at least 5.0 s"):
            ingest.SynthConfig(task_s=-1e308).validate()
        with pytest.raises(InvalidInput, match=r"margin 'weak' is not one of \['strong', 'zero'\]"):
            ingest.SynthConfig(margin="weak").validate()

    @pytest.mark.parametrize("field,value,expected", [
        ("sessions_per_participant", 2.5, "an integer"), ("baseline_s", "30", "a finite number"),
        ("margin", ["strong"], "a string"), ("participants", 1.5, "an integer"),
        ("n_slow_biased", 0.5, "an integer"), ("participants", True, "an integer")])
    def test_mistyped_fields_rejected(self, field, value, expected):
        # n_slow_biased 0 lets participants=True pass the range check
        overrides = {"n_slow_biased": 0, field: value}
        with pytest.raises(InvalidInput, match=rf"^config\.{field}: expected {expected}, got "):
            ingest.SynthConfig(**overrides).validate()

    @pytest.mark.parametrize("overrides", [
        {"task_s": 5970.5}, {"task_s": 1e308}, {"task_s": float("inf")},
        {"baseline_s": float("nan")}, {"baseline_s": 3000.0, "task_s": 3000.5},
    ])
    def test_sessions_past_the_duration_cap_rejected(self, overrides):
        with pytest.raises(InvalidInput, match=f"a session lasts at most {ingest.MAX_SESSION_S} s"):
            ingest.SynthConfig(**overrides).validate()

    def test_session_at_the_duration_cap_accepted(self):
        ingest.SynthConfig(task_s=5970.0).validate()

    def test_corpus_at_the_recording_cap_accepted(self):
        # 1000 participants x 4 sessions x 250 s
        config = ingest.SynthConfig(participants=1000, baseline_s=30.0, task_s=220.0)
        assert config.participants * 4 * 250.0 == ingest.MAX_CORPUS_S
        config.validate()

    @pytest.mark.parametrize("participants", [1001, 10**9, 10**400])
    def test_corpus_past_the_recording_cap_refused_before_any_session(self, monkeypatch,
                                                                      participants):
        def generated(*args):
            raise AssertionError("generated a session")

        monkeypatch.setattr(ingest, "_synth_session", generated)
        config = ingest.SynthConfig(participants=participants, baseline_s=30.0, task_s=220.0)
        with pytest.raises(InvalidInput) as raised:
            ingest.synth_dataset(config)
        assert str(raised.value) == (
            f"a corpus records at most {ingest.MAX_CORPUS_S} s, not participants x "
            f"sessions_per_participant x (baseline_s + task_s) = {4 * participants} x 250.0 s")

    def test_phases_of_the_scr_tail_generate(self):
        sessions = ingest.synth_dataset(ingest.SynthConfig(
            participants=1, baseline_s=ingest.SCR_TAIL_S, task_s=ingest.SCR_TAIL_S,
            n_slow_biased=0))
        assert [len(s.eda) for s in sessions] == [150] * 4


def test_readme_lists_every_synth_config_key():
    readme = " ".join((Path(__file__).parents[1] / "README.md").read_text().split())
    listed = readme.split("Synth config keys: ", 1)[1].split(".", 1)[0]
    assert re.findall(r"`(\w+)`", listed) == [f.name for f in fields(ingest.SynthConfig)]


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

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(data=st.data(), shapes=st.lists(
        st.tuples(st.sampled_from([2, 3, 17]), st.sampled_from([7.5, 15.0, 25.0, 3.0])),
        min_size=4, max_size=12))
    def test_files_match_the_per_row_format(self, data, shapes):
        """Every channel of a corpus is the rows ``f"{i / fs!r},{float(v)!r}"``,
        byte for byte, also where channels of one length and rate share their
        timestamp column."""
        series = [TimeSeries(data.draw(st.lists(st.floats(allow_nan=False, allow_infinity=False),
                                                min_size=n, max_size=n)), fs)
                  for n, fs in shapes]
        sessions = []
        for i in range(0, len(series) - 3, 4):
            chans = dict(zip(CHANNELS, series[i:i + 4]))
            end = min(c.duration_s for c in chans.values())
            sessions.append(SessionRecord(i // 4 + 1, 1, ALL_SETTINGS[0], **chans,
                                          task_start_s=end / 2, task_end_s=end, rating=3))
        with tempfile.TemporaryDirectory() as out:
            ingest.write_corpus(sessions, out)
            for s in sessions:
                for name in CHANNELS:
                    ts = getattr(s, name)
                    rows = [f"{i / ts.sampling_rate_hz!r},{float(v)!r}"
                            for i, v in enumerate(ts.values)]
                    expected = "\n".join(["timestamp_s,value", *rows]) + "\n"
                    written = Path(out, f"p{s.participant_id:02d}_s1", f"{name}.csv")
                    assert written.read_bytes() == expected.encode()

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
         "entry: duration_estimate_s must be positive and finite, got -1.0"),
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
