"""End-to-end CLI coverage: every subcommand plus config precedence."""

import contextlib
import io
import json
import os
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import driveguard
import driveguard.cli
import driveguard.stream
from driveguard.cli import main
from driveguard.protocol import (checksum, read_arff, session_to_packets,
                                 write_session)
from driveguard.stream import TRACE_HEADER, CalibrationProfile, stream_samples, trace_line
from driveguard.synth import (BurstSpec, GeneratorSpec, PinkNoiseSpec,
                              generate_benchmark_suite, generate_session)
from driveguard.dsp import band_powers_fft
from driveguard.index import UndefinedIndexError, distraction_index
from driveguard.model import (EPOC_CHANNELS, Device, SubjectSession, TaskLabel,
                              split_into_trials)

STRONG_BETA = (BurstSpec(band="beta", center_hz=22.0, rate_hz=3.0, gain=3.0),)


@pytest.fixture(autouse=True)
def clean_env(monkeypatch):
    for key in list(os.environ):
        if key.startswith("DRIVEGUARD_"):
            monkeypatch.delenv(key)


def write_fixture(tmp_path, name, seed, task=TaskLabel.BASE, bursts=(),
                  dur=8.0, amp=20.0, subject="cli-1"):
    session = generate_session(GeneratorSpec(
        seed=seed, task=task, duration_s=dur, subject_id=subject,
        baseline=PinkNoiseSpec(amplitude_uv=amp), bursts=bursts))
    csv = str(tmp_path / f"{name}.csv")
    write_session(session, csv, str(tmp_path / f"{name}.manifest.json"))
    return csv


def run(capsys, *argv):
    rc = main(list(argv))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


class TestIngest:
    def test_reports_session_facts(self, tmp_path, capsys):
        csv = write_fixture(tmp_path, "a", seed=1, task=TaskLabel.READ)
        rc, out, _ = run(capsys, "ingest", csv,
                         str(tmp_path / "a.manifest.json"))
        assert rc == 0
        record = json.loads(out)
        assert record["task"] == "Read"
        assert record["n_samples"] == 8 * 512
        assert record["duration_s"] == 8.0
        assert record["channels"] == ["FP1"]

    def test_missing_file_fails_with_json_error(self, tmp_path, capsys):
        rc, out, err = run(capsys, "ingest", str(tmp_path / "no.csv"),
                           str(tmp_path / "no.manifest.json"))
        assert rc == 2
        assert out == ""
        assert "message" in json.loads(err)


    def test_csv_names_first_out_of_range_sample(self, tmp_path, capsys):
        # the values of the .bin probe below: 3000 first, then -30000
        csv = write_fixture(tmp_path, "p", seed=1, dur=1.0)
        rows = [f"{i / 512:.9f},{v}" for i, v in enumerate((0, 3000, 5, -30000))]
        Path(csv).write_text("t_s,raw\n" + "\n".join(rows) + "\n")
        rc, out, err = run(capsys, "ingest", csv, str(tmp_path / "p.manifest.json"))
        assert rc == 2
        assert out == ""
        assert json.loads(err)["message"] == \
            f"{csv} line 3: raw sample 3000 outside ADC range [-2048, 2047]"


class TestModuleEntryPoint:
    """``python -m driveguard`` runs the CLI."""

    def run_module(self, *argv, stdout=subprocess.PIPE):
        env = dict(os.environ)
        src = str(Path(driveguard.__file__).resolve().parents[1])
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        return subprocess.run([sys.executable, "-m", "driveguard", *argv],
                              stdout=stdout, stderr=subprocess.PIPE, text=True,
                              env=env, timeout=120)

    def test_ingest_exits_0(self, tmp_path):
        csv = write_fixture(tmp_path, "a", seed=1, dur=2.0)
        done = self.run_module("ingest", csv, str(tmp_path / "a.manifest.json"))
        assert done.returncode == 0, done.stderr
        assert json.loads(done.stdout)["n_samples"] == 2 * 512

    def test_bad_csv_exits_2_with_one_json_line(self, tmp_path):
        csv = write_fixture(tmp_path, "a", seed=1, dur=2.0)
        Path(csv).write_text("t_s,raw\n0.0,x\n")
        done = self.run_module("ingest", csv, str(tmp_path / "a.manifest.json"))
        assert done.returncode == 2
        assert done.stdout == ""
        lines = done.stderr.splitlines()
        assert len(lines) == 1
        assert json.loads(lines[0]) == {
            "error": "SessionFormatError",
            "message": f"{csv} line 2: invalid literal for int() with base 10: 'x'"}

    @pytest.mark.parametrize("argv", [["stats", "--format", "json"],
                                      ["stats", "--fixtures", "table5"]],
                             ids=["large-output", "buffered-output"])
    def test_closed_stdout_exits_1_quietly(self, argv):
        # a closed stdout used to be reported as a BrokenPipeError input
        # error, exit 2; the smaller output is only written at the flush
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            done = self.run_module(*argv, stdout=write_end)
        finally:
            os.close(write_end)
        assert done.returncode == 1
        assert done.stderr == ""


class BrokenStdout(io.StringIO):
    """An in-process stdout whose reader has gone."""

    def write(self, text):
        raise BrokenPipeError(32, "Broken pipe")


class TestClosedStdout:
    def test_in_process_exits_1_quietly(self, capsys):
        with contextlib.redirect_stdout(BrokenStdout()):
            rc = main(["stats", "--fixtures", "table5"])
        assert rc == 1
        assert capsys.readouterr().err == ""

    def test_unwritable_out_still_exits_2(self, tmp_path, capsys):
        csv = write_fixture(tmp_path, "a", seed=1, dur=4.0)
        rc, out, err = run(capsys, "spectrogram", csv, "--out", str(tmp_path))
        assert rc == 2
        assert out == ""
        assert json.loads(err)["error"] == "IsADirectoryError"


class TestLogLevel:
    def test_log_level_applies_on_every_call(self, tmp_path, capsys, caplog,
                                             monkeypatch):
        # logging.basicConfig is a no-op once a handler exists, so only
        # the first call's DRIVEGUARD_LOG used to count
        csv = write_fixture(tmp_path, "a", seed=1, dur=4.0)

        def loaded(level):
            monkeypatch.setenv("DRIVEGUARD_LOG", level)
            caplog.clear()
            assert main(["features", csv]) == 0
            capsys.readouterr()
            return [r.getMessage() for r in caplog.records
                    if r.name == "driveguard"]

        assert loaded("warning") == []
        assert loaded("info") == [f"loaded session {csv}"]
        assert loaded("warning") == []


class TestSynth:
    def test_default_spec_writes_session_and_packets(self, tmp_path, capsys):
        out_dir = str(tmp_path / "out")
        rc, out, _ = run(capsys, "synth", "--spec", "default",
                         "--out", out_dir, "--seed", "5")
        assert rc == 0
        record = json.loads(out)
        assert record["n_samples"] == 51200
        assert os.path.exists(record["session_csv"])
        assert os.path.exists(record["manifest"])
        assert os.path.exists(record["packets"])

    def test_default_csv_matches_per_row_format(self, tmp_path, capsys):
        rc, out, _ = run(capsys, "synth", "--spec", "default",
                         "--out", str(tmp_path), "--no-packets")
        assert rc == 0
        session = generate_session(GeneratorSpec(seed=0))
        # the oracle: each line formatted on its own with f-strings
        lines = ["t_s,raw"] + [f"{i / session.fs_hz:.9f},{v}"
                               for i, v in enumerate(session.raw[0].tolist())]
        csv = Path(json.loads(out)["session_csv"])
        assert csv.read_bytes() == ("\n".join(lines) + "\n").encode()

    def test_spec_json_seed_determinism(self, tmp_path, capsys):
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps({
            "seed": 3, "task": "Text", "duration_s": 4.0,
            "baseline": {"amplitude_uv": 25.0},
            "bursts": [{"band": "beta", "center_hz": 22.0, "gain": 2.0}],
            "subject_id": "s7"}))
        rc, out, _ = run(capsys, "synth", "--spec", str(spec_path),
                         "--out", str(tmp_path / "r1"), "--no-packets")
        assert rc == 0
        first = json.loads(out)
        assert first["packets"] is None
        assert first["task"] == "Text"
        rc, out, _ = run(capsys, "synth", "--spec", str(spec_path),
                         "--out", str(tmp_path / "r2"), "--no-packets")
        second = json.loads(out)
        with open(first["session_csv"], "rb") as fa, \
                open(second["session_csv"], "rb") as fb:
            assert fa.read() == fb.read()
        rc, out, _ = run(capsys, "synth", "--spec", str(spec_path),
                         "--out", str(tmp_path / "r3"), "--no-packets",
                         "--seed", "99")
        third = json.loads(out)
        with open(first["session_csv"], "rb") as fa, \
                open(third["session_csv"], "rb") as fb:
            assert fa.read() != fb.read()

    def test_spec_without_seed_keeps_seed_0(self, tmp_path, capsys):
        spec = {"task": "Text", "duration_s": 2.0, "subject_id": "s7"}
        paths = []
        for name, fields in (("none", spec), ("zero", dict(spec, seed=0))):
            spec_path = tmp_path / f"{name}.json"
            spec_path.write_text(json.dumps(fields))
            rc, out, _ = run(capsys, "synth", "--spec", str(spec_path),
                             "--out", str(tmp_path / name), "--no-packets")
            assert rc == 0
            paths.append(json.loads(out)["session_csv"])
        with open(paths[0], "rb") as fa, open(paths[1], "rb") as fb:
            assert fa.read() == fb.read()

    def test_bad_spec_json(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        rc, _, err = run(capsys, "synth", "--spec", str(bad),
                         "--out", str(tmp_path / "o"))
        assert rc == 2
        assert json.loads(err)["error"] == "CliError"


class TestFeatures:
    def test_writes_arff(self, tmp_path, capsys):
        csv = write_fixture(tmp_path, "a", seed=1)
        arff = str(tmp_path / "a.arff")
        rc, out, _ = run(capsys, "features", csv, "--arff", arff,
                         "--mode", "fft", "--trial-seconds", "4")
        assert rc == 0
        record = json.loads(out)
        assert record["vectors"] == 2
        assert record["features"] == 5
        with open(arff, "r", encoding="utf-8") as fh:
            text = fh.read()
        assert text.count("@attribute") == 6
        vectors = read_arff(arff)
        assert len(vectors) == 2

    def test_three_second_trials_combined(self, tmp_path, capsys):
        csv = write_fixture(tmp_path, "a", seed=1, dur=9.0)
        arff = str(tmp_path / "a.arff")
        rc, out, err = run(capsys, "features", csv, "--arff", arff,
                           "--mode", "combined", "--trial-seconds", "3")
        assert rc == 0, err
        record = json.loads(out)
        assert (record["vectors"], record["features"]) == (3, 15)
        assert len(read_arff(arff)) == 3

    def test_mode_from_config_file(self, tmp_path, capsys):
        csv = write_fixture(tmp_path, "a", seed=1)
        config = tmp_path / "dg.conf"
        config.write_text("mode = combined\ntrial_seconds = 4.0\n")
        rc, out, _ = run(capsys, "features", csv, "--config", str(config))
        assert rc == 0
        assert json.loads(out)["features"] == 15

    def test_mode_and_trial_seconds_precedence(self, tmp_path, capsys,
                                               monkeypatch):
        csv = write_fixture(tmp_path, "a", seed=1)
        config = tmp_path / "dg.conf"
        config.write_text("mode = dwt\ntrial_seconds = 4.0\n")
        mode_only = tmp_path / "mode.conf"
        mode_only.write_text("mode = dwt\n")
        monkeypatch.setenv("DRIVEGUARD_MODE", "combined")
        monkeypatch.setenv("DRIVEGUARD_TRIAL_SECONDS", "5.0")

        def settings_of(*argv):
            rc, out, err = run(capsys, "features", csv, *argv)
            assert rc == 0, err
            record = json.loads(out)
            return record["mode"], record["trial_seconds"]

        assert settings_of("--config", str(config), "--mode", "fft",
                           "--trial-seconds", "3") == ("fft", 3.0)
        assert settings_of("--config", str(config)) == ("dwt", 4.0)
        assert settings_of("--config", str(mode_only)) == ("dwt", 5.0)
        assert settings_of() == ("combined", 5.0)
        monkeypatch.delenv("DRIVEGUARD_MODE")
        monkeypatch.delenv("DRIVEGUARD_TRIAL_SECONDS")
        assert settings_of() == ("fft", 4.0)

    def test_unknown_mode_rejected(self, tmp_path, capsys):
        csv = write_fixture(tmp_path, "a", seed=1)
        rc, _, err = run(capsys, "features", csv, "--mode", "wavelets")
        assert rc == 2
        assert json.loads(err)["error"] == "CliError"


class TestTrainEval:
    def test_arff_input_gnb(self, tmp_path, capsys):
        suite = generate_benchmark_suite(3, n_subjects=2, trials_per_task=3)
        paths = []
        for i, session in enumerate(suite):
            csv = str(tmp_path / f"s{i}.csv")
            write_session(session, csv, str(tmp_path / f"s{i}.manifest.json"))
            paths.append(csv)
        arff = str(tmp_path / "suite.arff")
        rc, _, _ = run(capsys, "features", *paths, "--arff", arff)
        assert rc == 0
        report_json = str(tmp_path / "eval.json")
        rc, out, _ = run(capsys, "train-eval", arff, "--classifier", "gnb",
                         "--classes", "five", "--k", "3",
                         "--json", report_json)
        assert rc == 0
        assert "F-Measure" in out
        with open(report_json, "r", encoding="utf-8") as fh:
            report = json.load(fh)
        assert 0.0 <= report["accuracy_pct"] <= 100.0
        assert report["classifier"] == "gnb"

    def test_bad_classifier_choice(self, tmp_path, capsys):
        csv = write_fixture(tmp_path, "a", seed=1)
        rc, _, err = run(capsys, "train-eval", csv, "--classifier", "svm")
        assert rc == 2
        assert json.loads(err)["error"] == "CliError"


class TestIndex:
    def test_full_coverage_ranking(self, tmp_path, capsys):
        suite = generate_benchmark_suite(3, n_subjects=1, trials_per_task=3)
        paths = []
        for i, session in enumerate(suite):
            csv = str(tmp_path / f"s{i}.csv")
            write_session(session, csv, str(tmp_path / f"s{i}.manifest.json"))
            paths.append(csv)
        di_csv = str(tmp_path / "di.csv")
        rc, out, _ = run(capsys, "index", *paths, "--csv", di_csv)
        assert rc == 0
        record = json.loads(out)
        assert record["trials"] == 15
        assert len(record["ranking"]) == 4
        assert "base_mean_di" in record
        with open(di_csv, "r", encoding="utf-8") as fh:
            lines = fh.read().splitlines()
        assert lines[0] == "subject_id,task,channel,trial,di"
        assert len(lines) == 16

    @staticmethod
    def write_multi(tmp_path, name, raw):
        session = SubjectSession(subject_id="m1", task=TaskLabel.CALL,
                                 device=Device.MULTI_ELECTRODE_128, fs_hz=128,
                                 channels=EPOC_CHANNELS, raw=raw)
        csv = str(tmp_path / f"{name}.csv")
        write_session(session, csv, str(tmp_path / f"{name}.manifest.json"))
        return session, csv

    def test_rows_equal_per_window_route(self, tmp_path, capsys):
        # 34 trials of 14 channels cross a SCORE_STACK boundary
        raw = np.random.default_rng(4).integers(-900, 900, size=(14, 34 * 512 + 100))
        session, csv = self.write_multi(tmp_path, "multi", raw)
        di_csv = str(tmp_path / "di.csv")
        rc, out, _ = run(capsys, "index", csv, "--csv", di_csv)
        assert rc == 0
        assert json.loads(out)["trials"] == 34 * 14
        want = ["subject_id,task,channel,trial,di"] + [
            f"m1,Call,{w.channel},{w.trial_index},"
            f"{distraction_index(band_powers_fft(w)):.9g}"
            for w in split_into_trials(session, 4.0)]
        assert Path(di_csv).read_text(encoding="utf-8").splitlines() == want

    def test_undefined_index_exits_2(self, tmp_path, capsys):
        raw = np.random.default_rng(5).integers(-900, 900, size=(14, 3 * 512))
        raw[6, 512:] = 0  # O1 is silent from trial 1 on
        session, csv = self.write_multi(tmp_path, "silent", raw)
        rc, out, err = run(capsys, "index", csv)
        assert (rc, out) == (2, "")
        with pytest.raises(UndefinedIndexError) as want:
            distraction_index(band_powers_fft(split_into_trials(session, 4.0)[14 + 6]))
        assert json.loads(err) == {"error": "UndefinedIndexError",
                                   "message": str(want.value)}

    def test_missing_tasks_reported(self, tmp_path, capsys):
        csv = write_fixture(tmp_path, "solo", seed=2)
        rc, out, _ = run(capsys, "index", csv)
        assert rc == 0
        record = json.loads(out)
        assert record["ranking"] is None
        assert "note" in record


class TestStats:
    def test_text_output(self, capsys):
        rc, out, _ = run(capsys, "stats")
        assert rc == 0
        assert "W=0" in out
        assert "p=6.1035e-05" in out
        assert out.count("reject H0") >= 4

    def test_json_output(self, capsys):
        rc, out, _ = run(capsys, "stats", "--format", "json")
        assert rc == 0
        reports = json.loads(out)
        assert len(reports) == 5
        assert reports[0]["p_value"] == pytest.approx(6.103515625e-05,
                                                      abs=1e-12)

    def test_alpha_precedence(self, tmp_path, capsys, monkeypatch):
        config = tmp_path / "dg.conf"
        config.write_text("alpha = 0.02\n")
        monkeypatch.setenv("DRIVEGUARD_ALPHA", "0.03")

        def alpha_of(*argv):
            rc, out, _ = run(capsys, "stats", "--fixtures", "table5",
                             "--format", "json", *argv)
            assert rc == 0
            return json.loads(out)[0]["alpha"]

        assert alpha_of("--config", str(config), "--alpha", "0.01") == 0.01
        assert alpha_of("--config", str(config)) == 0.02
        assert alpha_of() == 0.03
        monkeypatch.delenv("DRIVEGUARD_ALPHA")
        assert alpha_of() == 0.05

    def test_unparsable_env_value(self, capsys, monkeypatch):
        monkeypatch.setenv("DRIVEGUARD_ALPHA", "lots")
        rc, _, err = run(capsys, "stats")
        assert rc == 2
        assert "cannot parse" in json.loads(err)["message"]


class TestSpectrogram:
    def test_grid_and_triples(self, tmp_path, capsys):
        csv = write_fixture(tmp_path, "a", seed=1, dur=4.0)
        grid = str(tmp_path / "grid.csv")
        triples = str(tmp_path / "trip.csv")
        rc, _, _ = run(capsys, "spectrogram", csv, "--out", grid,
                       "--triples", triples)
        assert rc == 0
        with open(grid, "r", encoding="utf-8") as fh:
            head = fh.readline()
        assert head.startswith("freq_hz,")
        with open(triples, "r", encoding="utf-8") as fh:
            assert fh.readline().strip() == "freq_hz,time_s,power_db"

    def test_stdout_when_no_out(self, tmp_path, capsys):
        csv = write_fixture(tmp_path, "a", seed=1, dur=4.0)
        rc, out, _ = run(capsys, "spectrogram", csv)
        assert rc == 0
        assert out.startswith("freq_hz,")


class TestCalibrateAndStream:
    def test_calibrate_then_stream_with_trace(self, tmp_path, capsys):
        base = write_fixture(tmp_path, "base", seed=1, dur=20.0, amp=10.0,
                             subject="cal-1")
        text = write_fixture(tmp_path, "text", seed=2, task=TaskLabel.TEXT,
                             bursts=STRONG_BETA, dur=20.0, amp=10.0,
                             subject="cal-1")
        profile_path = str(tmp_path / "profile.json")
        rc, out, _ = run(capsys, "calibrate", "--base", base,
                         "--distraction", text, "--max-candidates", "200",
                         "--out", profile_path)
        assert rc == 0
        result = json.loads(out)
        assert result["ok"] is True
        assert result["f1"] == 1.0
        with open(profile_path, "r", encoding="utf-8") as fh:
            record = json.load(fh)
        assert list(record) == ["subject_id", "band_thresholds", "di_threshold",
                                "refractory_s", "window_s", "hop_s"]
        assert CalibrationProfile.from_dict(record).subject_id == "cal-1"

        trace_path = str(tmp_path / "trace.csv")
        rc, out, _ = run(capsys, "stream", text, "--profile", profile_path,
                         "--trace", trace_path)
        assert rc == 0
        alerts = [json.loads(line) for line in out.splitlines()]
        assert alerts
        assert all("t" in a and "trigger" in a for a in alerts)
        with open(trace_path, "r", encoding="utf-8") as fh:
            lines = fh.read().splitlines()
        assert lines[0] == TRACE_HEADER
        assert len(lines) == 18  # header + one row per hop

    def test_nothing_to_separate_gives_profile_without_criteria(self, tmp_path,
                                                                 capsys):
        # identical one-window Base and Read recordings: no threshold beats
        # never alerting, so the profile holds no criteria and stays quiet
        base = write_fixture(tmp_path, "base", seed=3, dur=4.0)
        read = write_fixture(tmp_path, "read", seed=3, task=TaskLabel.READ, dur=4.0)
        assert Path(base).read_text() == Path(read).read_text()
        profile_path = tmp_path / "profile.json"
        rc, out, _ = run(capsys, "calibrate", "--base", base, "--distraction",
                         read, "--out", str(profile_path))
        assert rc == 0
        result = json.loads(out)
        assert (result["ok"], result["f1"]) == (False, 0.0)
        assert json.loads(profile_path.read_text()) == result["profile"]
        assert result["profile"]["band_thresholds"] == {}
        assert result["profile"]["di_threshold"] is None
        rc, out, _ = run(capsys, "stream", read, "--profile", str(profile_path))
        assert (rc, out) == (0, "")

    def test_stream_packet_input(self, tmp_path, capsys):
        session = generate_session(GeneratorSpec(
            seed=4, duration_s=8.0, baseline=PinkNoiseSpec(amplitude_uv=20.0)))
        bin_path = tmp_path / "stream.bin"
        bin_path.write_bytes(session_to_packets(session))
        csv_path = str(tmp_path / "stream.csv")
        write_session(session, csv_path, str(tmp_path / "stream.manifest.json"))
        profile_path = tmp_path / "p.json"
        profile_path.write_text(CalibrationProfile(
            subject_id="s", band_thresholds={"delta": 1e-6},
            refractory_s=1.0).to_json())
        rc, out, _ = run(capsys, "stream", str(bin_path),
                         "--profile", str(profile_path))
        assert rc == 0
        assert out.splitlines()
        rc, csv_out, _ = run(capsys, "stream", csv_path,
                             "--profile", str(profile_path))
        assert rc == 0
        assert csv_out == out
        traces = {}
        for name, path in (("bin", str(bin_path)), ("csv", csv_path)):
            traces[name] = tmp_path / f"{name}_trace.csv"
            rc, traced_out, _ = run(capsys, "stream", path, "--profile",
                                    str(profile_path), "--trace", str(traces[name]))
            assert rc == 0
            assert traced_out == out
        assert traces["bin"].read_bytes() == traces["csv"].read_bytes()
        assert traces["bin"].read_text().startswith(TRACE_HEADER + "\n")

    def test_profile_with_combine_or_streams_the_same(self, tmp_path, capsys):
        # profiles written before the combine key was retired hold
        # "combine": "or", and must stream as the same profile without it
        base = write_fixture(tmp_path, "base", seed=1, dur=12.0, amp=10.0,
                             subject="cal-1")
        text = generate_session(GeneratorSpec(
            seed=2, task=TaskLabel.TEXT, duration_s=12.0, subject_id="cal-1",
            baseline=PinkNoiseSpec(amplitude_uv=10.0), bursts=STRONG_BETA))
        csv_path = str(tmp_path / "text.csv")
        write_session(text, csv_path, str(tmp_path / "text.manifest.json"))
        bin_path = tmp_path / "text.bin"
        bin_path.write_bytes(session_to_packets(text))
        new = tmp_path / "new.json"
        rc, _, err = run(capsys, "calibrate", "--base", base, "--distraction",
                         csv_path, "--out", str(new))
        assert rc == 0, err
        old = tmp_path / "old.json"
        old.write_text(json.dumps({**json.loads(new.read_text()), "combine": "or"},
                                  indent=2))
        for path in (csv_path, str(bin_path)):
            streamed = {}
            for name, profile in (("new", new), ("old", old)):
                trace = tmp_path / f"{name}_trace.csv"
                rc, out, err = run(capsys, "stream", path, "--profile", str(profile),
                                   "--trace", str(trace))
                assert rc == 0, err
                streamed[name] = (out, trace.read_bytes())
            assert streamed["old"] == streamed["new"]
            assert streamed["new"][0].splitlines()

    def test_stream_names_first_out_of_range_sample(self, tmp_path, capsys):
        # wire values beyond the 12-bit ADC: 3000 first, then -30000
        frames = b""
        for value in (0, 3000, 5, -30000):
            payload = bytes([0x80, 0x02]) + value.to_bytes(2, "big", signed=True)
            frames += b"\xaa\xaa\x04" + payload + bytes([checksum(payload)])
        bin_path = tmp_path / "probe.bin"
        bin_path.write_bytes(frames)
        profile_path = tmp_path / "p.json"
        profile_path.write_text(CalibrationProfile(
            subject_id="s", band_thresholds={"beta": 1.0}).to_json())
        rc, out, err = run(capsys, "stream", str(bin_path),
                           "--profile", str(profile_path))
        assert rc == 2
        assert out == ""
        assert json.loads(err)["message"] == \
            "raw sample 3000 outside ADC range [-2048, 2047]"

    def test_stream_trace_needs_no_replay(self, tmp_path, capsys, monkeypatch):
        def no_replay(*args, **kwargs):
            raise AssertionError("stream --trace ran a replay pass")
        monkeypatch.setattr(driveguard.cli, "replay_session", no_replay)
        monkeypatch.setattr(driveguard.stream, "_stored_rows", no_replay)
        csv = write_fixture(tmp_path, "one", seed=5)
        profile_path = tmp_path / "p.json"
        profile_path.write_text(CalibrationProfile(
            subject_id="s", band_thresholds={"beta": 1.0}).to_json())
        trace_path = tmp_path / "trace.csv"
        rc, _, err = run(capsys, "stream", csv, "--profile", str(profile_path),
                         "--trace", str(trace_path))
        assert rc == 0, err
        assert len(trace_path.read_text().splitlines()) == 1 + 5  # 8 s, 4 s windows


def noisy_wire(seconds, seed):
    """The frames of a pink-noise recording, damaged as a live link damages
    them: one payload or checksum byte changed in 0.5 % of the frames, and
    1-64 bytes of garbage other than 0xAA after 1 % of them."""
    rng = np.random.default_rng(seed)
    session = generate_session(GeneratorSpec(
        seed=seed, duration_s=seconds, baseline=PinkNoiseSpec(amplitude_uv=20.0)))
    frames = np.frombuffer(session_to_packets(session), np.uint8).reshape(-1, 8).copy()
    not_sync = np.delete(np.arange(256, dtype=np.uint8), 0xAA)
    for i in np.flatnonzero(rng.random(len(frames)) < 0.005).tolist():
        col = int(rng.integers(3, 8))
        frames[i, col] = rng.choice(not_sync[not_sync != frames[i, col]])
    cuts = np.flatnonzero(rng.random(len(frames)) < 0.01) + 1
    garbage = [rng.choice(not_sync, size=int(rng.integers(1, 65))).tobytes() for _ in cuts]
    pieces = np.split(frames.reshape(-1), 8 * cuts)
    return b"".join(p.tobytes() + g for p, g in zip(pieces, garbage + [b""]))


def alert_every_hop(tmp_path):
    path = tmp_path / "every-hop.json"
    path.write_text(CalibrationProfile(subject_id="s", band_thresholds={"delta": 1e-6},
                                       refractory_s=1.0).to_json())
    return str(path)


def clean_wire(values):
    return session_to_packets(SubjectSession(
        subject_id="s", task=TaskLabel.TEXT, device=Device.SINGLE_ELECTRODE_512,
        fs_hz=512, channels=("FP1",), raw=np.asarray(values, dtype=np.int32)[None]))


def frame_of(value):
    """A canonical raw frame for any 16-bit ``value``, in the ADC range or not."""
    payload = bytes([0x80, 0x02]) + value.to_bytes(2, "big", signed=True)
    return b"\xaa\xaa\x04" + payload + bytes([checksum(payload)])


class TestStreamReads:
    """``stream`` reads a packet stream READ_CHUNK_BYTES at a time and writes
    each read's alerts and trace rows before the next."""

    @pytest.fixture(scope="class")
    def noisy(self, tmp_path_factory):
        path = tmp_path_factory.mktemp("noisy") / "noisy.bin"
        path.write_bytes(noisy_wire(60.0, seed=9))
        return path

    def streamed(self, capsys, tmp_path, *argv):
        trace = tmp_path / "trace.csv"
        rc, out, err = run(capsys, "stream", *argv, "--trace", str(trace))
        assert rc == 0, err
        return out, trace.read_bytes()

    @pytest.mark.parametrize("chunk", [1, 7, 8, 4096])
    def test_output_does_not_depend_on_the_read_size(self, noisy, tmp_path, capsys,
                                                     monkeypatch, chunk):
        assert driveguard.protocol.packets_to_samples(noisy.read_bytes())[1] > 100
        profile = alert_every_hop(tmp_path)
        whole = self.streamed(capsys, tmp_path, str(noisy), "--profile", profile)
        assert noisy.stat().st_size < driveguard.cli.READ_CHUNK_BYTES
        assert whole[0].count("\n") > 20
        monkeypatch.setattr(driveguard.cli, "READ_CHUNK_BYTES", chunk)
        assert self.streamed(capsys, tmp_path, str(noisy), "--profile", profile) == whole

    def test_stdin_streams_as_the_path_does(self, noisy, tmp_path):
        profile = alert_every_hop(tmp_path)
        env = dict(os.environ)
        src = str(Path(driveguard.__file__).resolve().parents[1])
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        code = "import sys; from driveguard import cli; sys.exit(cli.main(sys.argv[1:]))"
        done = {}
        for name, source, data in (("path", str(noisy), None),
                                   ("stdin", "-", noisy.read_bytes()),
                                   ("noise", "-", bytes(range(256))),
                                   ("closed", "-", None)):
            trace = tmp_path / f"{name}.csv"
            head = "import os; os.close(0); " if name == "closed" else ""
            proc = subprocess.run([sys.executable, "-c", head + code, "stream", source,
                                   "--profile", profile, "--trace", str(trace)],
                                  input=data, env=env, capture_output=True, timeout=120)
            done[name] = (proc.returncode, proc.stdout, proc.stderr,
                          trace.read_bytes() if trace.exists() else None)
        assert done["stdin"] == done["path"]
        assert done["path"][0] == 0 and done["path"][1].count(b"\n") > 20
        assert done["noise"][:2] == (2, b"")
        assert json.loads(done["noise"][2])["message"].startswith(
            "packet stream - holds no raw sample in its 256 bytes")
        assert done["closed"][:2] == (2, b"")
        assert json.loads(done["closed"][2])["message"].startswith(
            "cannot read packet stream -: ")

    @pytest.mark.parametrize("chunk", [None, 4096])
    def test_error_in_a_later_read_keeps_the_output_before_it(self, tmp_path, capsys,
                                                              monkeypatch, chunk):
        if chunk is not None:
            monkeypatch.setattr(driveguard.cli, "READ_CHUNK_BYTES", chunk)
        per_read = driveguard.cli.READ_CHUNK_BYTES // 8
        # the bad frame is the sixth of a read that follows at least two
        # reads and 8 s of samples
        before = max(2, 8 * 512 // per_read) * per_read
        values = np.random.default_rng(3).integers(-2048, 2048, size=before + per_read)
        bad = before + 5
        wire = bytearray(clean_wire(values))
        wire[8 * bad:8 * bad + 8] = frame_of(3000)
        path = tmp_path / "bad.bin"
        path.write_bytes(wire)
        profile = alert_every_hop(tmp_path)
        trace = tmp_path / "trace.csv"
        rc, out, err = run(capsys, "stream", str(path), "--profile", profile,
                           "--trace", str(trace))
        assert rc == 2
        assert json.loads(err) == {"error": "ValidationError", "message":
                                   "raw sample 3000 outside ADC range [-2048, 2047]"}
        alerts, hops = stream_samples(values[:before],
                                      CalibrationProfile.from_json(Path(profile).read_text()))
        assert alerts and out == "".join(a.to_json() + "\n" for a in alerts)
        assert trace.read_text() == TRACE_HEADER + "\n" + "".join(map(trace_line, hops.tolist()))

    @pytest.mark.parametrize("input_kind, error", [
        ("missing.bin", "CliError: cannot read packet stream"),
        ("noise.bin", "CliError: packet stream"),
        ("empty.bin", "ParameterError"),
        ("clean.bin", "ParameterError"),
        ("clean.csv", "ParameterError"),
    ])
    def test_input_errors_come_before_the_profiles(self, tmp_path, capsys, input_kind, error):
        # a hop of 0.0001 s is valid in a profile, but no whole number of
        # samples at 512 Hz, so the detector rejects it when it starts
        profile = tmp_path / "p.json"
        profile.write_text(json.dumps({"subject_id": "s", "band_thresholds": {"beta": 1.0},
                                       "hop_s": 0.0001}))
        session = generate_session(GeneratorSpec(seed=1, duration_s=8.0))
        write_session(session, str(tmp_path / "clean.csv"),
                      str(tmp_path / "clean.manifest.json"))
        (tmp_path / "clean.bin").write_bytes(session_to_packets(session))
        (tmp_path / "noise.bin").write_bytes(bytes(range(256)))
        (tmp_path / "empty.bin").write_bytes(b"")
        trace = tmp_path / "trace.csv"
        rc, out, err = run(capsys, "stream", str(tmp_path / input_kind), "--profile",
                           str(profile), "--trace", str(trace))
        assert (rc, out) == (2, "")
        name, _, message = error.partition(": ")
        payload = json.loads(err)
        assert payload["error"] == name and payload["message"].startswith(message)
        assert not trace.exists()

    def test_memory_does_not_grow_with_the_recording(self, tmp_path, capsys):
        # 8 and 32 minutes of clean frames, each longer than one read
        profile = tmp_path / "quiet.json"
        profile.write_text(CalibrationProfile(
            subject_id="s", band_thresholds={"delta": 1e300}).to_json())
        rng = np.random.default_rng(4)
        peaks = []
        for minutes in (8, 32):
            path = tmp_path / f"{minutes}.bin"
            path.write_bytes(clean_wire(rng.integers(-2048, 2048, size=minutes * 60 * 512)))
            assert path.stat().st_size > 1 << 20  # one read
            trace = tmp_path / f"{minutes}.csv"
            tracemalloc.start()
            try:
                rc = main(["stream", str(path), "--profile", str(profile),
                           "--trace", str(trace)])
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
            assert rc == 0
            assert len(trace.read_text().splitlines()) == 1 + minutes * 60 - 3
        assert capsys.readouterr().out == ""
        assert abs(peaks[1] - peaks[0]) < 2**20, peaks


class TestParserCache:
    """``cli.main`` builds its parser once per process and reuses it."""

    def test_built_once(self):
        assert driveguard.cli._build_parser() is driveguard.cli._build_parser()

    def test_commands_in_one_process_match_fresh_processes(self, tmp_path, capsys):
        base = write_fixture(tmp_path, "base", seed=1, dur=8.0, subject="cal-1")
        text = write_fixture(tmp_path, "text", seed=2, task=TaskLabel.TEXT,
                             bursts=STRONG_BETA, dur=8.0, subject="cal-1")
        profile = tmp_path / "profile.json"
        profile.write_text(json.dumps({
            "subject_id": "cal-1", "band_thresholds": {"beta": 5.0},
            "di_threshold": None, "refractory_s": 2.0, "window_s": 4.0,
            "hop_s": 1.0, "combine": "or"}))
        argvs = [["stream", text, "--no-such-flag"],
                 ["stream", text, "--profile", str(profile)],
                 ["calibrate", "--base", base, "--distraction", text]]
        env = dict(os.environ)
        src = str(Path(driveguard.__file__).resolve().parents[1])
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        code = "import sys; from driveguard import cli; sys.exit(cli.main(sys.argv[1:]))"
        statuses = []
        for argv in argvs:
            alone = subprocess.run([sys.executable, "-c", code, *argv], env=env,
                                   capture_output=True, text=True, timeout=120)
            assert run(capsys, *argv) == (alone.returncode, alone.stdout, alone.stderr)
            statuses.append(alone.returncode)
        assert statuses == [2, 0, 0]


class TestErrorSurface:
    def test_unknown_subcommand(self, capsys):
        rc, _, err = run(capsys, "frobnicate")
        assert rc == 2
        assert json.loads(err)["error"] == "CliError"

    def test_unknown_flag(self, capsys):
        rc, _, err = run(capsys, "stats", "--banana")
        assert rc == 2
        assert json.loads(err)["error"] == "CliError"

    @pytest.mark.parametrize("argv", [
        ["stats", "--seed", "1"],
        ["ingest", "a.csv", "a.manifest.json", "--config", "dg.conf"],
        ["stream", "a.csv", "--profile", "p.json", "--config", "dg.conf"],
    ], ids=["stats-seed", "ingest-config", "stream-config"])
    def test_flag_the_command_does_not_read(self, capsys, argv):
        rc, out, err = run(capsys, *argv)
        assert rc == 2
        assert out == ""
        assert "unrecognized arguments" in json.loads(err)["message"]

    def test_unknown_config_key_names_file_and_line(self, tmp_path, capsys):
        # another subcommand's key is fine: one file can serve them all
        config = tmp_path / "dg.conf"
        config.write_text("classifier = mlp\ntrial_second = 3.0\n")
        rc, _, err = run(capsys, "stats", "--config", str(config))
        assert rc == 2
        error = json.loads(err)
        assert error["error"] == "CliError"
        assert f"{config}:2" in error["message"]
        assert "'trial_second'" in error["message"]

    def test_settings_table_matches_docs(self):
        # README's CLI section, mirrored in PAPER.md, lists every
        # subcommand's settings as key=default, and a setting with no
        # default as its bare key
        root = os.path.join(os.path.dirname(__file__), os.pardir)
        usage = driveguard.cli._build_parser().format_usage()
        commands = re.search(r"\{([\w,-]+)\}", usage).group(1).split(",")
        assert len(commands) == 9
        for doc in ("README.md", "PAPER.md"):
            with open(os.path.join(root, doc), encoding="utf-8") as fh:
                text = fh.read()
            for command in commands:
                row = re.search(rf"^\| `{command}` \|(.*)\|$", text, re.M)
                assert row, f"{doc}: no settings row for {command}"
                listed = re.findall(r"`(\w+)(?:=([^`]*))?`", row.group(1))
                declared = [(s.key, "" if s.default is None else str(s.default))
                            for s in driveguard.cli.SETTINGS.get(command, ())]
                assert listed == declared, f"{doc}: {command}"

    def test_blank_and_comment_lines_skipped(self, tmp_path, capsys):
        config = tmp_path / "dg.conf"
        text = "# stats settings\n\n  \nalpha = 0.02\n  # alpha = 0.5\n"
        config.write_text(text)
        rc, out, _ = run(capsys, "stats", "--fixtures", "table5", "--format", "json",
                         "--config", str(config))
        assert rc == 0
        assert json.loads(out)[0]["alpha"] == 0.02
        # skipped lines still count toward the line a message names
        config.write_text(text + "alhpa = 0.01\n")
        rc, _, err = run(capsys, "stats", "--config", str(config))
        assert rc == 2
        assert f"{config}:6: unknown setting 'alhpa'" in json.loads(err)["message"]

    def test_bad_config_line(self, tmp_path, capsys):
        config = tmp_path / "dg.conf"
        config.write_text("this is not a pair\n")
        rc, _, err = run(capsys, "stats", "--config", str(config))
        assert rc == 2
        assert "key=value" in json.loads(err)["message"]
