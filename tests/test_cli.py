import hashlib
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from timesense import ingest, pipeline
from timesense.cli import EXIT_DOMAIN, EXIT_IO, EXIT_OK, main
from tests.conftest import planted_dataset


def sha256(path):
    return hashlib.sha256(open(path, "rb").read()).hexdigest()


@pytest.fixture(scope="module")
def small_corpus(tmp_path_factory):
    """A tiny 2-participant corpus written by the synth subcommand."""
    out = tmp_path_factory.mktemp("corpus")
    cfg = out / "config.json"
    cfg.write_text(json.dumps({
        "participants": 2, "sessions_per_participant": 2,
        "baseline_s": 20.0, "task_s": 60.0, "n_slow_biased": 0,
    }))
    rc = main(["synth", "--config", str(cfg), "--out", str(out / "data"),
               "--seed", "11"])
    assert rc == EXIT_OK
    return out


@pytest.fixture(scope="module")
def features_csv(small_corpus):
    out = small_corpus / "features.csv"
    rc = main(["extract", "--manifest", str(small_corpus / "data" / "manifest.json"),
               "--out", str(out)])
    assert rc == EXIT_OK
    return out


class TestSynth:
    def test_writes_manifest_and_channels(self, small_corpus):
        manifest = json.loads((small_corpus / "data" / "manifest.json").read_text())
        assert manifest["schema_version"] == 1
        assert len(manifest["sessions"]) == 4
        first = manifest["sessions"][0]
        assert (small_corpus / "data" / first["channels"]["ppg"]["path"]).exists()

    def test_deterministic_output(self, small_corpus, tmp_path):
        cfg = small_corpus / "config.json"
        rc = main(["synth", "--config", str(cfg), "--out", str(tmp_path / "d2"),
                   "--seed", "11"])
        assert rc == EXIT_OK
        a = sha256(small_corpus / "data" / "manifest.json")
        b = sha256(tmp_path / "d2" / "manifest.json")
        assert a == b
        for name in ("p01_s1/ppg.csv", "p02_s2/eda.csv"):
            assert sha256(small_corpus / "data" / name) == sha256(tmp_path / "d2" / name)

    def test_invalid_config_exits_2(self, tmp_path):
        cfg = tmp_path / "bad.json"
        for doc in ({"participants": 0}, {"ppg_rate_hz": 0}, {"eda_rate_hz": -1},
                    {"temp_rate_hz": 0}):
            cfg.write_text(json.dumps(doc))
            rc = main(["synth", "--config", str(cfg), "--out", str(tmp_path / "o")])
            assert rc == EXIT_DOMAIN, doc


class TestExtract:
    def test_features_csv_shape(self, features_csv):
        ds = pipeline.dataset_from_csv(features_csv)
        assert len(ds) == 4
        assert ds.X.shape[1] == 24

    def test_missing_manifest_exits_1(self, tmp_path):
        rc = main(["extract", "--manifest", str(tmp_path / "nope.json"),
                   "--out", str(tmp_path / "f.csv")])
        assert rc == EXIT_IO

    def test_deterministic(self, features_csv, small_corpus, tmp_path):
        out2 = tmp_path / "features2.csv"
        rc = main(["extract", "--manifest",
                   str(small_corpus / "data" / "manifest.json"),
                   "--out", str(out2)])
        assert rc == EXIT_OK
        assert sha256(features_csv) == sha256(out2)


@pytest.fixture(scope="module")
def planted_csv(tmp_path_factory):
    out = tmp_path_factory.mktemp("planted") / "features.csv"
    pipeline.dataset_to_csv(planted_dataset(), out)
    return out


class TestEvaluate:
    def test_single_classifier_report(self, planted_csv, tmp_path):
        out = tmp_path / "report.json"
        rc = main(["evaluate", "--features", str(planted_csv), "--classifier", "lr",
                   "--out", str(out)])
        assert rc == EXIT_OK
        doc = json.loads(out.read_text())
        assert doc["classifier"] == "lr"
        assert len(doc["per_fold"]) == 12
        assert 0.0 <= doc["mean_accuracy"] <= 1.0

    def test_rfecv_with_knn_exits_2(self, planted_csv, tmp_path):
        rc = main(["evaluate", "--features", str(planted_csv), "--classifier", "knn",
                   "--selection", "rfecv", "--out", str(tmp_path / "r.json")])
        assert rc == EXIT_DOMAIN
        assert not (tmp_path / "r.json").exists()

    def test_missing_features_exits_1(self, tmp_path):
        rc = main(["evaluate", "--features", str(tmp_path / "no.csv"),
                   "--classifier", "lr", "--out", str(tmp_path / "r.json")])
        assert rc == EXIT_IO

    def test_malformed_features_exits_2(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("a,b\n1,2\n")
        rc = main(["evaluate", "--features", str(bad), "--classifier", "lr",
                   "--out", str(tmp_path / "r.json")])
        assert rc == EXIT_DOMAIN

    def test_deterministic_report(self, planted_csv, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        for out in (a, b):
            rc = main(["evaluate", "--features", str(planted_csv),
                       "--classifier", "lda", "--seed", "3", "--out", str(out)])
            assert rc == EXIT_OK
        assert sha256(a) == sha256(b)


class TestExplain:
    def test_ranking_csv(self, planted_csv, tmp_path):
        out = tmp_path / "ranking.csv"
        rc = main(["explain", "--features", str(planted_csv), "--classifier", "lr",
                   "--n-samples", "64", "--out", str(out)])
        assert rc == EXIT_OK
        lines = out.read_text().splitlines()
        assert lines[0] == "# schema_version=1"
        assert lines[1] == "feature,mean_abs_shap,rank"
        assert len(lines) == 2 + 24
        ranks = [int(l.split(",")[2]) for l in lines[2:]]
        assert ranks == list(range(1, 25))

    def test_deterministic(self, planted_csv, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        for out in (a, b):
            rc = main(["explain", "--features", str(planted_csv),
                       "--classifier", "lr", "--n-samples", "64",
                       "--seed", "2", "--out", str(out)])
            assert rc == EXIT_OK
        assert sha256(a) == sha256(b)

    def test_missing_features_exits_1(self, tmp_path):
        rc = main(["explain", "--features", str(tmp_path / "no.csv"),
                   "--classifier", "lr", "--out", str(tmp_path / "r.csv")])
        assert rc == EXIT_IO


def error_lines(capsys):
    return [ln for ln in capsys.readouterr().err.splitlines() if ln]


class TestErrorBoundary:
    """Damaged input ends every command with exit 1 or 2 and one ``error:``
    line per failure, never a traceback."""

    @pytest.mark.parametrize("name, damage, message", [
        ("no_rating", lambda e: e.pop("rating"), "entry: missing 'rating'"),
        ("no_eda", lambda e: e["channels"].pop("eda"), "entry.channels: missing 'eda'"),
        ("rating_text", lambda e: e.update(rating="x"), "entry.rating: expected an integer"),
        ("three_helicopters", lambda e: e["setting"].update(helicopters=3),
         "entry.setting: helicopters must be 1 or 2"),
        ("nan_task_start", lambda e: e.update(task_start_s=float("nan")),
         "entry.task_start_s: expected a finite number"),
        ("misspelt_trim", lambda e: e["channels"]["ppg"].update(trim_haed=50),
         "entry.channels.ppg: unknown keys ['trim_haed']"),
        ("misspelt_rating", lambda e: e.update(ratnig=9), "entry: unknown keys ['ratnig']"),
        ("extra_channel", lambda e: e["channels"].update(gsr=e["channels"]["eda"]),
         "entry.channels: unknown keys ['gsr']"),
        ("rating_nine", lambda e: e.update(rating=9), "entry: rating out of range"),
    ])
    def test_damaged_manifest_entry_exits_2(self, small_corpus, capsys, name, damage, message):
        manifest = json.loads((small_corpus / "data" / "manifest.json").read_text())
        for entry in manifest["sessions"][:2]:
            damage(entry)
        path = small_corpus / "data" / f"{name}.json"
        path.write_text(json.dumps(manifest))
        capsys.readouterr()
        rc = main(["extract", "--manifest", str(path), "--out", str(small_corpus / "x.csv")])
        assert rc == EXIT_DOMAIN
        lines = error_lines(capsys)
        assert len(lines) == 2
        for line, sid in zip(lines, (1, 2)):
            assert line.startswith(f"error: participant 1 session {sid}: {message}")

    @pytest.mark.parametrize("text", ['{"sessions": 5}', '{"sessions": [5]}', "{",
                                      '{"schema_version": 1}', "[]",
                                      '{"schema_version": 99, "sessions": []}'])
    def test_unusable_manifest_exits_2(self, tmp_path, capsys, text):
        path = tmp_path / "m.json"
        path.write_text(text)
        rc = main(["extract", "--manifest", str(path), "--out", str(tmp_path / "f.csv")])
        assert rc == EXIT_DOMAIN
        (line,) = error_lines(capsys)
        assert line.startswith(f"error: {path}: ")

    @pytest.mark.parametrize("command", ["evaluate", "explain"])
    @pytest.mark.parametrize("text", ["", "# schema_version=1\n"])
    def test_empty_features_exits_2(self, tmp_path, capsys, command, text):
        path = tmp_path / "empty.csv"
        path.write_text(text)
        rc = main([command, "--features", str(path), "--classifier", "lr",
                   "--out", str(tmp_path / "out")])
        assert rc == EXIT_DOMAIN
        (line,) = error_lines(capsys)
        assert line.startswith("error: ")

    def test_header_only_features_exit_2(self, tmp_path, capsys):
        path = tmp_path / "header.csv"
        pipeline.dataset_to_csv(planted_dataset().select_rows(np.zeros(48, dtype=bool)), path)
        for command in ("evaluate", "explain"):
            rc = main([command, "--features", str(path), "--classifier", "lr",
                       "--out", str(tmp_path / "out")])
            assert rc == EXIT_DOMAIN
        assert len(error_lines(capsys)) == 2

    def test_manifest_of_no_sessions_gives_an_empty_features_csv(self, tmp_path, capsys):
        path = tmp_path / "m.json"
        path.write_text('{"schema_version": 1, "sessions": []}')
        out = tmp_path / "f.csv"
        assert main(["extract", "--manifest", str(path), "--out", str(out)]) == EXIT_OK
        assert len(pipeline.dataset_from_csv(out)) == 0

    @pytest.mark.parametrize("doc", [{"ppg_rate_hz": 1e308}, {"task_s": 1e308}, {"task_s": 1e5}])
    def test_synth_config_too_long_to_generate_exits_2(self, tmp_path, capsys, monkeypatch,
                                                       doc):
        # validation must reject the config before any session is generated
        monkeypatch.setattr(ingest, "_synth_session",
                            lambda *a: pytest.fail("generated a session"))
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps(doc))
        rc = main(["synth", "--config", str(cfg), "--out", str(tmp_path / "o")])
        assert rc == EXIT_DOMAIN
        (line,) = error_lines(capsys)
        assert line.startswith(f"error: a channel holds at most {ingest.MAX_CHANNEL_SAMPLES} ")

    @pytest.mark.parametrize("doc, message", [
        ({"ppg_rate_hz": 0.001}, "ppg channel too short"),
        # 212 s at 7.1 Hz rounds to 1505 samples, 211.97 s
        ({"temp_rate_hz": 7.1}, "task window exceeds thermopile recording length"),
    ])
    def test_synth_config_giving_invalid_sessions_exits_2(self, tmp_path, capsys, doc, message):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps(doc))
        rc = main(["synth", "--config", str(cfg), "--out", str(tmp_path / "o")])
        assert rc == EXIT_DOMAIN
        assert error_lines(capsys) == [f"error: participant 1 session 1: {message}"]
        assert not (tmp_path / "o").exists()

    def test_synth_config_of_wrong_type_exits_2(self, tmp_path, capsys):
        for doc in ({"participants": "2"}, {"seed": 1.5}, {"colour": 1}, [1]):
            cfg = tmp_path / "c.json"
            cfg.write_text(json.dumps(doc))
            rc = main(["synth", "--config", str(cfg), "--out", str(tmp_path / "o")])
            assert rc == EXIT_DOMAIN, doc
        assert len(error_lines(capsys)) == 4

    def test_unwritable_output_exits_1(self, planted_csv, tmp_path, capsys):
        rc = main(["explain", "--features", str(planted_csv), "--classifier", "lr",
                   "--n-samples", "26", "--out", str(tmp_path / "no" / "dir" / "r.csv")])
        assert rc == EXIT_IO
        (line,) = error_lines(capsys)
        assert line.startswith("error: ")

    @pytest.mark.parametrize("command", ["evaluate", "explain"])
    def test_negative_seed_exits_2(self, planted_csv, tmp_path, capsys, command):
        rc = main([command, "--features", str(planted_csv), "--classifier", "lr",
                   "--seed", "-1", "--out", str(tmp_path / "out")])
        assert rc == EXIT_DOMAIN
        (line,) = error_lines(capsys)
        assert line == "error: seed -1 must be >= 0"

    def test_programming_error_propagates(self, planted_csv, tmp_path, monkeypatch):
        def broken(path):
            raise TypeError("a bug, not bad input")

        monkeypatch.setattr(pipeline, "dataset_from_csv", broken)
        with pytest.raises(TypeError, match="a bug"):
            main(["evaluate", "--features", str(planted_csv), "--classifier", "lr",
                  "--out", str(tmp_path / "r.json")])


def _leaf_paths(doc, prefix=()):
    """Key paths of every value in a nested JSON object, containers included."""
    paths = []
    for key, value in doc.items():
        paths.append(prefix + (key,))
        if isinstance(value, dict):
            paths.extend(_leaf_paths(value, prefix + (key,)))
    return paths


JSON_VALUES = st.one_of(
    st.none(), st.booleans(), st.integers(-3, 10**20), st.text(max_size=3),
    st.floats(allow_nan=True, allow_infinity=True), st.lists(st.integers(0, 3), max_size=2),
    st.dictionaries(st.text(max_size=2), st.integers(0, 3), max_size=1))


class TestFuzzedInput:
    """Every damaged manifest, channel CSV or features CSV ends in exit 0, 1 or 2."""

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(data=st.data())
    def test_damaged_manifest(self, small_corpus, data):
        manifest = json.loads((small_corpus / "data" / "manifest.json").read_text())
        entry = manifest["sessions"][data.draw(st.integers(0, 3))]
        *parents, key = data.draw(st.sampled_from(_leaf_paths(entry)))
        holder = entry
        for p in parents:
            holder = holder[p]
        damage = data.draw(st.sampled_from(["missing", "wrong type", "nan"]))
        if damage == "missing":
            del holder[key]
        else:
            holder[key] = float("nan") if damage == "nan" else data.draw(JSON_VALUES)
        path = small_corpus / "data" / "fuzz.json"
        path.write_text(json.dumps(manifest))
        rc = main(["extract", "--manifest", str(path), "--out", str(small_corpus / "fuzz.csv")])
        assert rc in (EXIT_OK, EXIT_IO, EXIT_DOMAIN)

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(data=st.data())
    def test_damaged_channel_timing(self, small_corpus, data):
        manifest = json.loads((small_corpus / "data" / "manifest.json").read_text())
        entry = manifest["sessions"][data.draw(st.integers(0, 3))]
        channel = entry["channels"][data.draw(st.sampled_from(sorted(entry["channels"])))]
        lines = (small_corpus / "data" / channel["path"]).read_text().splitlines()
        row = data.draw(st.integers(1, len(lines) - 1))
        damage = data.draw(st.sampled_from(["drop", "duplicate", "shift", "non-finite timestamp"]))
        if damage == "drop":
            del lines[row]
        elif damage == "duplicate":
            lines.insert(row, lines[row])
        elif damage == "non-finite timestamp":
            v = lines[row].split(",")[1]
            lines[row] = f"{data.draw(st.sampled_from(['nan', 'inf', '-inf']))},{v}"
        else:
            t, v = lines[row].split(",")
            shift = data.draw(st.floats(-2.0, 2.0)) / channel["sampling_rate_hz"]
            lines[row] = f"{float(t) + shift!r},{v}"
        (small_corpus / "data" / "fuzz_channel.csv").write_text("\n".join(lines) + "\n")
        channel["path"] = "fuzz_channel.csv"
        path = small_corpus / "data" / "fuzz.json"
        path.write_text(json.dumps(manifest))
        rc = main(["extract", "--manifest", str(path), "--out", str(small_corpus / "fuzz.csv")])
        assert rc in (EXIT_OK, EXIT_IO, EXIT_DOMAIN)
        if damage == "non-finite timestamp":
            assert rc == EXIT_DOMAIN

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(data=st.data())
    def test_damaged_features_csv(self, features_csv, data):
        lines = features_csv.read_text().splitlines()
        row = data.draw(st.integers(1, len(lines) - 1))
        cells = lines[row].split(",")
        damage = data.draw(st.sampled_from(
            ["missing cell", "extra cell", "wrong type", "label case", "nan"]))
        column = data.draw(st.integers(0, len(cells) - 1))
        if damage == "missing cell":
            del cells[column]
        elif damage == "extra cell":
            cells.insert(column, data.draw(st.sampled_from(["0.5", "", "fast"])))
        elif damage == "wrong type":
            cells[column] = data.draw(st.sampled_from(["x", "", "1.5", "true", "[]", "-1"]))
        elif damage == "label case":
            cells[-2] = data.draw(st.sampled_from(["FAST", "Fast", "SLOW", "Slow", "fast "]))
        else:
            cells[column] = data.draw(st.sampled_from(["nan", "inf", "-inf"]))
        lines[row] = ",".join(cells)
        path = features_csv.parent / "fuzz.csv"
        path.write_text("\n".join(lines) + "\n")
        rc = main(["evaluate", "--features", str(path), "--classifier", "gnb",
                   "--out", str(features_csv.parent / "fuzz.json")])
        assert rc in (EXIT_OK, EXIT_IO, EXIT_DOMAIN)
