"""Session CSVs read by the calling process and forked worker processes,
against the same reads made one after another in-process.

Each route is forced by patching the usable CPU count, so a one-CPU
machine covers the pool too. Outputs, sessions, errors and the
``loaded session`` log lines must be the same on both routes.
"""

import dataclasses
import functools
import json
import multiprocessing
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import driveguard
from driveguard import cli
from driveguard.model import TrialSplitError
from driveguard.protocol import SessionFormatError, read_session, write_session
from driveguard.synth import GeneratorSpec, generate_benchmark_suite, generate_session

ROUTES = ("pool", "serial")
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


@pytest.fixture
def pools(monkeypatch):
    """The runs of paths each pooled load reads: the length of the calling
    process's run first, then that of each worker it forks."""
    made = []
    read_path, read_in_forks = cli._read_path, cli._read_in_forks

    class Forks:
        """The fork context, noting the run each worker is given."""

        def __init__(self, ctx, runs):
            self.ctx, self.runs = ctx, runs

        def Pipe(self, duplex):
            return self.ctx.Pipe(duplex)

        def Process(self, target, args):
            self.runs.append(len(args[0]))
            return self.ctx.Process(target=target, args=args)

    def spy(ctx, runs, per_run):
        counts = [0]
        made.append(counts)

        def counted(path):  # a worker counts in its own copy of ``counts``
            counts[0] += 1
            return read_path(path)

        with monkeypatch.context() as m:
            m.setattr(cli, "_read_path", counted)
            return read_in_forks(Forks(ctx, counts), runs, per_run)

    monkeypatch.setattr(cli, "_read_in_forks", spy)
    return made


def on_route(monkeypatch, route, cpus=2):
    monkeypatch.setattr(cli, "_usable_cpus", lambda: cpus if route == "pool" else 1)


def run(capsys, argv, outputs=()):
    """Exit status, stdout, stderr and the bytes of each output file."""
    for path in outputs:
        if os.path.exists(path):
            os.remove(path)
    rc = cli.main(list(argv))
    captured = capsys.readouterr()
    files = []
    for path in outputs:
        with open(path, "rb") as fh:
            files.append(fh.read())
    return rc, captured.out, captured.err, files


def commands(paths, out):
    """(argv, output files) of each command that reads several CSVs;
    every one but ``calibrate`` reads them in a pool."""
    base = [p for p in paths if p.endswith("_Base.csv")]
    rest = [p for p in paths if not p.endswith("_Base.csv")]
    arff, di, report, profile = (str(out / n) for n in
                                 ("f.arff", "di.csv", "r.json", "profile.json"))
    return [
        *((["features", *paths, "--mode", mode, "--arff", arff], [arff])
          for mode in ("fft", "dwt", "combined")),
        (["index", *paths, "--csv", di], [di]),
        (["train-eval", *paths, "--k", "3", "--json", report], [report]),
        (["calibrate", "--base", *base[:1], "--distraction", *rest[:4],
          "--out", profile], [profile]),
        # both subjects' Base and Text recordings, pooled under one id
        (["calibrate", "--base", *base, "--distraction",
          *(p for p in rest if p.endswith("_Text.csv")), "--subject", "pooled",
          "--out", profile], [profile]),
    ]


def test_commands_equal_on_both_routes(suite, tmp_path, capsys, monkeypatch, pools):
    for argv, outputs in commands(suite, tmp_path):
        results = {}
        for route in ROUTES:
            on_route(monkeypatch, route)
            pools.clear()
            results[route] = run(capsys, argv, outputs)
            assert len(pools) == (route == "pool" and argv[0] != "calibrate"), argv[0]
        assert results["pool"][0] == 0, results["pool"][2]
        assert results["pool"] == results["serial"], argv[0]


def test_sessions_equal_field_by_field(suite, monkeypatch, pools):
    # reversed, so that argument order and file order disagree
    paths = suite[::-1]
    loaded = {}
    for route in ROUTES:
        on_route(monkeypatch, route)
        loaded[route] = cli._load_sessions(paths)
    assert pools == [[5, 5]]
    for path, a, b in zip(paths, loaded["pool"], loaded["serial"], strict=True):
        want = read_session(path, path[:-4] + ".manifest.json")
        for s in (a, b):
            assert not s.raw.flags.writeable
            for f in dataclasses.fields(s):
                got, expected = getattr(s, f.name), getattr(want, f.name)
                if f.name == "raw":
                    assert got.dtype == expected.dtype
                    assert np.array_equal(got, expected)
                else:
                    assert got == expected


@pytest.mark.parametrize("cpus, n_paths, expected", [
    (2, 10, [[5, 5]]), (4, 3, [[1, 1, 1]]), (3, 10, [[4, 4, 2]]),
    (2, 1, []), (1, 10, []),
], ids=["two-cpus", "fewer-paths-than-cpus", "uneven-runs", "one-path", "one-cpu"])
def test_one_worker_per_usable_cpu(suite, monkeypatch, pools, cpus, n_paths, expected):
    monkeypatch.setattr(cli, "_usable_cpus", lambda: cpus)
    sessions = cli._load_sessions(suite[:n_paths])
    assert [(s.subject_id, s.task.value) for s in sessions] == \
        [tuple(Path(p).stem.split("_")) for p in suite[:n_paths]]
    assert pools == expected


def test_usable_cpus_follow_affinity():
    if hasattr(os, "sched_getaffinity"):
        assert cli._usable_cpus() == len(os.sched_getaffinity(0))
    assert cli._usable_cpus() >= 1


def short_csv(tmp_path):
    """A 2 s session CSV: it reads, but holds no 4 s trial to score."""
    path = str(tmp_path / "short.csv")
    write_session(generate_session(GeneratorSpec(seed=1, duration_s=2.0)),
                  path, path[:-4] + ".manifest.json")
    return path


class TestErrors:
    """The first path that fails to read, in argument order, wins on both
    routes; if every path reads, the first session whose features fail.
    ``calibrate`` checks its labels before its window and hop, and those
    before the windows they cut."""

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
        # with two CPUs, the first half of the paths is read by the calling
        # process and the second half by one forked worker
        return {
            "read-error-after-feature-error": (
                ["features", short, good[0], good[1], bad_csv], "SessionFormatError", 3),
            "read-error-after-feature-error-in-worker": (
                ["features", good[0], good[1], short, bad_csv], "SessionFormatError", 3),
            "feature-error-in-worker": (
                ["features", good[0], good[1], short, good[2]], "TrialSplitError", 4),
            "feature-error-before-worker": (
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
        "read-error-after-feature-error", "read-error-after-feature-error-in-worker",
        "feature-error-in-worker", "feature-error-before-worker",
        "calibrate-read-error-before-bad-window", "calibrate-labels-before-bad-window",
        "calibrate-labels-before-bad-hop", "calibrate-no-windows"])
    def test_same_error_and_log_on_both_routes(self, suite, tmp_path, capsys, caplog,
                                               monkeypatch, case):
        argv, error, n_loaded = self.cases(tmp_path, suite)[case]
        monkeypatch.setenv("DRIVEGUARD_LOG", "info")
        seen = {}
        for route in ROUTES:
            on_route(monkeypatch, route)
            caplog.clear()
            rc, out, err, _ = run(capsys, argv)
            logged = [r.getMessage() for r in caplog.records if r.name == "driveguard"]
            seen[route] = (rc, out, err, logged)
        assert seen["pool"] == seen["serial"]
        rc, out, err, logged = seen["pool"]
        assert (rc, out) == (2, "")
        assert err.count("\n") == 1
        # ``error`` is the error's name, or its name, ": " and how its message starts
        name, _, message = error.partition(": ")
        payload = json.loads(err)
        assert payload["error"] == name and payload["message"].startswith(message)
        paths = [a for a in argv[1:] if a.endswith((".csv", ".txt"))]
        assert logged == [f"loaded session {p}" for p in paths[:n_loaded]]


PID = os.getpid()
_read_path = cli._read_path


def exit_in_workers(path):
    """``cli._read_path``, but a forked worker exits with status 3 first."""
    if os.getpid() != PID:
        os._exit(3)
    return _read_path(path)


def interrupt_here(path):
    """``cli._read_path``, but the calling process is interrupted first."""
    if os.getpid() == PID:
        raise KeyboardInterrupt
    return _read_path(path)


def test_dead_worker_is_a_json_error(suite, capsys, monkeypatch):
    # it used to escape cli.main as a BrokenProcessPool traceback
    on_route(monkeypatch, "pool")
    monkeypatch.setattr(cli, "_read_path", exit_in_workers)
    rc, out, err, _ = run(capsys, ["features", *suite[:4]])
    assert (rc, out) == (2, "")
    assert err.count("\n") == 1
    assert json.loads(err) == {
        "error": "CliError",
        "message": f"worker reading {suite[2]!r} died with exit code 3"}


@pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="no /proc/self/fd")
@pytest.mark.parametrize("case, error", [
    ("loads", None), ("bad-csv", SessionFormatError), ("dead-worker", cli.CliError),
    ("interrupt", KeyboardInterrupt), ("work-error", TrialSplitError),
])
def test_no_descriptor_or_worker_left(suite, tmp_path, monkeypatch, case, error):
    on_route(monkeypatch, "pool")
    paths = suite[:4]
    load = cli._load_sessions
    if case == "bad-csv":
        paths[1] = TestErrors.bad_inputs(tmp_path, suite)[0]
    elif case == "dead-worker":
        monkeypatch.setattr(cli, "_read_path", exit_in_workers)
    elif case == "interrupt":
        monkeypatch.setattr(cli, "_read_path", interrupt_here)
    elif case == "work-error":  # raised in the forked worker's run
        paths[3] = short_csv(tmp_path)
        load = functools.partial(cli._load_vectors, mode="fft", trial_seconds=4.0)
    before = sorted(os.listdir("/proc/self/fd"))
    if error is None:
        assert len(load(paths)) == 4
    else:
        with pytest.raises(error):
            load(paths)
    assert sorted(os.listdir("/proc/self/fd")) == before
    assert multiprocessing.active_children() == []


def run_python(code, *argv, **env):
    # dev mode with warnings as errors: an unclosed pipe or a stray warning
    # in a worker or its parent fails the run
    environ = dict(os.environ, **env)
    environ["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, environ.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-X", "dev", "-W", "error", "-c", code, *argv],
                          capture_output=True, text=True, env=environ, timeout=120)


def test_workers_neither_print_nor_log(suite):
    # real file descriptors: a worker that wrote, or flushed what its parent
    # had buffered, would show here twice
    code = ("import sys; from driveguard import cli; cli._usable_cpus = lambda: 2; "
            "sys.exit(cli.main(sys.argv[1:]))")
    done = run_python(code, "features", *suite, DRIVEGUARD_LOG="info")
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout)["vectors"] == len(suite) * 3
    assert done.stderr == "".join(f"INFO driveguard: loaded session {p}\n" for p in suite)


def test_one_path_commands_load_no_pool_modules(suite, tmp_path):
    profile = tmp_path / "profile.json"
    profile.write_text(json.dumps({
        "subject_id": "s1", "band_thresholds": {"beta": 5.0}, "di_threshold": None,
        "refractory_s": 2.0, "window_s": 4.0, "hop_s": 1.0, "combine": "or"}))
    # calibrate reads a subject's few recordings in-process, even with
    # CPUs to spare
    code = (
        "import sys, io, contextlib; from driveguard import cli\n"
        "cli._usable_cpus = lambda: 2\n"
        "csv, base, rest = sys.argv[1], sys.argv[4], sys.argv[5:]\n"
        "for argv in (['ingest', csv, csv[:-4] + '.manifest.json'],\n"
        "             ['spectrogram', csv, '--out', sys.argv[3]],\n"
        "             ['stream', csv, '--profile', sys.argv[2]],\n"
        "             ['calibrate', '--base', base, '--distraction', rest[0]],\n"
        "             ['calibrate', '--base', base, '--distraction', *rest]):\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        assert cli.main(argv) == 0, argv\n"
        "print(sorted(m for m in sys.modules\n"
        "             if m.split('.')[0] in ('multiprocessing', 'concurrent')))\n")
    # one subject's Base recording, then its four distraction recordings
    done = run_python(code, suite[1], str(profile), str(tmp_path / "grid.csv"), *suite[:5])
    assert done.returncode == 0, done.stderr
    assert done.stdout == "[]\n"
