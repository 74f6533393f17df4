"""Session CSVs read one after another by the calling process: the
sessions, the order of errors, the ``loaded session`` log lines, no
process started, and no descriptor left open by a load or a ``stream``.
"""

import dataclasses
import functools
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import driveguard
from driveguard import cli
from driveguard.model import TrialSplitError
from driveguard.protocol import (SessionFormatError, checksum, read_session,
                                 session_to_packets, write_session)
from driveguard.synth import GeneratorSpec, generate_benchmark_suite, generate_session

SRC = str(Path(driveguard.__file__).resolve().parents[1])


@pytest.fixture(autouse=True)
def clean_env(monkeypatch):
    for key in list(os.environ):
        if key.startswith("DRIVEGUARD_"):
            monkeypatch.delenv(key)


@pytest.fixture(scope="module")
def suite(tmp_path_factory):
    """Two subjects, all five tasks, three 4 s trials each: the CSV paths
    in suite order (subject, then task)."""
    d = tmp_path_factory.mktemp("suite")
    paths = []
    for session in generate_benchmark_suite(5, n_subjects=2, trials_per_task=3):
        stem = str(d / f"{session.subject_id}_{session.task.value}")
        write_session(session, stem + ".csv", stem + ".manifest.json")
        paths.append(stem + ".csv")
    return paths


def run(capsys, argv):
    """Exit status, stdout and stderr of the command ``argv``."""
    rc = cli.main(list(argv))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def test_sessions_equal_field_by_field(suite):
    # reversed, so that argument order and file order disagree
    paths = suite[::-1]
    loaded = cli._load_sessions(paths)
    for path, s in zip(paths, loaded, strict=True):
        want = read_session(path, path[:-4] + ".manifest.json")
        assert not s.raw.flags.writeable
        for f in dataclasses.fields(s):
            got, expected = getattr(s, f.name), getattr(want, f.name)
            if f.name == "raw":
                assert got.dtype == expected.dtype
                assert np.array_equal(got, expected)
            else:
                assert got == expected


def short_csv(tmp_path):
    """A 2 s session CSV: it reads, but holds no 4 s trial to score."""
    path = str(tmp_path / "short.csv")
    write_session(generate_session(GeneratorSpec(seed=1, duration_s=2.0)),
                  path, path[:-4] + ".manifest.json")
    return path


class TestErrors:
    """The first path that fails to read, in argument order, wins; if every
    path reads, the first session whose features fail. ``calibrate``
    checks its labels before its window and hop, and those before the
    windows they cut."""

    @staticmethod
    def bad_inputs(tmp_path, suite):
        bad_csv = str(tmp_path / "bad.csv")
        Path(bad_csv).write_text("t_s,raw\n0.0,x\n")
        Path(bad_csv[:-4] + ".manifest.json").write_bytes(
            Path(suite[0][:-4] + ".manifest.json").read_bytes())
        return bad_csv, str(tmp_path / "notes.txt")

    def cases(self, tmp_path, suite):
        bad_csv, bad_suffix = self.bad_inputs(tmp_path, suite)
        short = short_csv(tmp_path)
        missing = str(tmp_path / "missing.csv")
        good = suite[:3]  # Base, Read and Text of one subject
        no_base = "CalibrationError: calibration needs at least one Base session"
        # the ids ending in "late" put the failing path in the last half of
        # the paths, "early" in the first
        return {
            "read-error-after-feature-error": (
                ["features", short, good[0], good[1], bad_csv], "SessionFormatError", 3),
            "read-error-after-feature-error-late": (
                ["features", good[0], good[1], short, bad_csv], "SessionFormatError", 3),
            "feature-error-late": (
                ["features", good[0], good[1], short, good[2]], "TrialSplitError", 4),
            "feature-error-early": (
                ["train-eval", good[0], short, good[1], good[2], "--k", "2"],
                "TrialSplitError", 4),
            "bad-csv-first": (["features", good[0], bad_csv, good[1], bad_suffix],
                              "SessionFormatError", 1),
            "bad-suffix-first": (["features", good[0], good[1], bad_suffix, bad_csv,
                                  good[2]], "CliError", 2),
            "base-and-distraction": (["calibrate", "--base", good[0], bad_csv,
                                      "--distraction", bad_suffix, good[1]],
                                     "SessionFormatError", 1),
            "calibrate-read-error-before-bad-window": (
                ["calibrate", "--base", good[0], "--distraction", missing,
                 "--window", "1.0"], "SessionFormatError: cannot read manifest", 1),
            "calibrate-labels-before-bad-window": (
                ["calibrate", "--base", good[1], "--distraction", good[2],
                 "--window", "1.0"], no_base, 2),
            "calibrate-labels-before-bad-hop": (
                ["calibrate", "--base", good[1], "--distraction", good[2],
                 "--hop", "0.0001"], no_base, 2),
            "calibrate-no-windows": (
                ["calibrate", "--base", good[0], "--distraction", good[2],
                 "--window", "100"],
                "CalibrationError: sessions yielded no analysis windows", 2),
        }

    @pytest.mark.parametrize("case", [
        "bad-csv-first", "bad-suffix-first", "base-and-distraction",
        "read-error-after-feature-error", "read-error-after-feature-error-late",
        "feature-error-late", "feature-error-early",
        "calibrate-read-error-before-bad-window", "calibrate-labels-before-bad-window",
        "calibrate-labels-before-bad-hop", "calibrate-no-windows"])
    def test_same_error_and_log_on_both_routes(self, suite, tmp_path, capsys, caplog,
                                               monkeypatch, case):
        argv, error, n_loaded = self.cases(tmp_path, suite)[case]
        monkeypatch.setenv("DRIVEGUARD_LOG", "info")
        rc, out, err = run(capsys, argv)
        logged = [r.getMessage() for r in caplog.records if r.name == "driveguard"]
        assert (rc, out) == (2, "")
        assert err.count("\n") == 1
        # ``error`` is the error's name, or its name, ": " and how its message starts
        name, _, message = error.partition(": ")
        payload = json.loads(err)
        assert payload["error"] == name and payload["message"].startswith(message)
        paths = [a for a in argv[1:] if a.endswith((".csv", ".txt"))]
        assert logged == [f"loaded session {p}" for p in paths[:n_loaded]]


def interrupt_here(path):
    """``cli._read_path``, interrupted before it reads."""
    raise KeyboardInterrupt


@pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="no /proc/self/fd")
@pytest.mark.parametrize("case, error", [
    ("loads", None), ("bad-csv", SessionFormatError),
    ("interrupt", KeyboardInterrupt), ("work-error", TrialSplitError),
])
def test_load_leaves_no_descriptor(suite, tmp_path, monkeypatch, case, error):
    paths = suite[:4]
    load = cli._load_sessions
    if case == "bad-csv":
        paths[1] = TestErrors.bad_inputs(tmp_path, suite)[0]
    elif case == "interrupt":
        monkeypatch.setattr(cli, "_read_path", interrupt_here)
    elif case == "work-error":  # raised computing the last session's features
        paths[3] = short_csv(tmp_path)
        load = functools.partial(cli._load_vectors, mode="fft", trial_seconds=4.0)
    before = sorted(os.listdir("/proc/self/fd"))
    if error is None:
        assert len(load(paths)) == 4
    else:
        with pytest.raises(error):
            load(paths)
    assert sorted(os.listdir("/proc/self/fd")) == before


def interrupt_third_block(feed_block):
    """``feed_block``, interrupted on its third call."""
    calls = []

    def feed(*args):
        calls.append(args)
        if len(calls) == 3:
            raise KeyboardInterrupt
        return feed_block(*args)
    return feed


@pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="no /proc/self/fd")
@pytest.mark.parametrize("case, status", [
    ("streams", 0), ("error-in-a-later-read", 2), ("interrupt", KeyboardInterrupt),
    ("unwritable-trace", 2),
])
def test_stream_leaves_no_descriptor(tmp_path, monkeypatch, capsys, case, status):
    # 12 s of packets, read 1 s at a time, streamed with --trace
    monkeypatch.setattr(cli, "READ_CHUNK_BYTES", 4096)
    wire = bytearray(session_to_packets(generate_session(GeneratorSpec(seed=1, duration_s=12.0))))
    trace = tmp_path / "trace.csv"
    if case == "error-in-a-later-read":
        payload = bytes([0x80, 0x02, 0x0B, 0xB8])  # 3000, beyond the ADC range
        wire[8 * 5000:8 * 5001] = b"\xaa\xaa\x04" + payload + bytes([checksum(payload)])
    elif case == "interrupt":
        monkeypatch.setattr(cli, "feed_block", interrupt_third_block(cli.feed_block))
    elif case == "unwritable-trace":
        trace = tmp_path / "no-such-dir" / "trace.csv"
    path = tmp_path / "s.bin"
    path.write_bytes(wire)
    profile = tmp_path / "p.json"
    profile.write_text(json.dumps({"subject_id": "s", "band_thresholds": {"beta": 1.0}}))
    argv = ["stream", str(path), "--profile", str(profile), "--trace", str(trace)]
    before = sorted(os.listdir("/proc/self/fd"))
    if isinstance(status, int):
        assert cli.main(argv) == status
    else:
        with pytest.raises(status):
            cli.main(argv)
    assert sorted(os.listdir("/proc/self/fd")) == before
    assert trace.exists() == (case != "unwritable-trace")


def run_python(code, *argv, **env):
    # dev mode with warnings as errors: a stray warning fails the run
    environ = dict(os.environ, **env)
    environ["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, environ.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-X", "dev", "-W", "error", "-c", code, *argv],
                          capture_output=True, text=True, env=environ, timeout=120)


def test_commands_import_no_process_pool(suite, tmp_path):
    # no command starts a process or imports a pool, whether it reads one
    # session CSV or all ten of the suite
    profile = tmp_path / "profile.json"
    profile.write_text(json.dumps({
        "subject_id": "s1", "band_thresholds": {"beta": 5.0}, "di_threshold": None,
        "refractory_s": 2.0, "window_s": 4.0, "hop_s": 1.0, "combine": "or"}))
    arff = str(tmp_path / "f.arff")
    code = (
        "import sys, io, contextlib; from driveguard import cli\n"
        "profile, grid, arff, csvs = sys.argv[1], sys.argv[2], sys.argv[3], sys.argv[4:]\n"
        "csv, base, rest = csvs[1], csvs[0], csvs[1:5]\n"
        "for argv in (['ingest', csv, csv[:-4] + '.manifest.json'],\n"
        "             ['spectrogram', csv, '--out', grid],\n"
        "             ['stream', csv, '--profile', profile],\n"
        "             ['calibrate', '--base', base, '--distraction', rest[0]],\n"
        "             ['calibrate', '--base', base, '--distraction', *rest],\n"
        "             ['features', *csvs, '--arff', arff],\n"
        "             ['train-eval', *csvs, '--k', '3'],\n"
        "             ['train-eval', arff, '--k', '3', '--classifier', 'mlp',\n"
        "              '--epochs', '2'],\n"
        "             ['index', *csvs]):\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        assert cli.main(argv) == 0, argv\n"
        "print(sorted(m for m in sys.modules\n"
        "             if m.split('.')[0] in ('multiprocessing', 'concurrent')))\n")
    # the suite starts with one subject's Base recording, then its four
    # distraction recordings
    done = run_python(code, str(profile), str(tmp_path / "grid.csv"), arff, *suite)
    assert done.returncode == 0, done.stderr
    assert done.stdout == "[]\n"
