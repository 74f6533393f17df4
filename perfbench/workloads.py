"""The three user journeys the benchmark times.

``live``      the in-car loop: noisy wire bytes, read 1-256 B at a time,
              through ``PacketParser.feed`` -> ``EegSample`` ->
              ``process_sample``, one parser and detector per recording.
``score``     a clinician scoring stored recordings through the CLI:
              ``calibrate``, ``stream <rec>.packets.bin``, then
              ``stream <rec>.csv --trace``, per subject.
``evaluate``  the research path through the CLI: ``features --mode
              combined --arff`` over the suite's session CSVs, then
              ``train-eval`` with GNB and with MLP, five classes, k = 10.

Every input comes from the package's own generator
(``generate_benchmark_suite``, ``write_session``, ``session_to_packets``)
driven by the workload seed. Each workload calls the package through
module attributes (``stream.process_sample``, not a local alias), so a
traced pass sees the rebound timing wrappers.

A workload runs ``setup`` (possibly several times), then ``run_pass``
until the run's time is up, then ``verify``. Each pass appends ``Op``
records; an op fails when the program raised, exited non-zero or
produced output that a check rejects.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import statistics
import time
from dataclasses import dataclass, field

import numpy as np

from driveguard import cli, dsp, model, protocol, stream, synth

FS = 512
SYNC = 0xAA
FRAME_LEN = 8   # 0xAA 0xAA len 0x80 0x02 hi lo checksum

clock = time.perf_counter_ns


# On a shared host (measured on a 2-vCPU Xeon VM) speed drifts by up to
# 2x within a minute, and the process's CPU time drifts with it. So every
# untraced op is bracketed by a fixed pure-Python probe, and a pass's wall
# time is also rescaled, by the median of its probes, to a machine that
# runs one probe loop in REFERENCE_PROBE_NS. The bounded metrics use the
# rescaled time; the journey metrics report wall time.
PROBE_ITERATIONS = 20_000
PROBE_REPEATS = 5
REFERENCE_PROBE_NS = 1_000_000


def probe_ns():
    """Median time of a fixed pure-Python loop: the machine's speed now.

    The median of several short loops ignores a loop that was preempted.
    """
    times = []
    for _ in range(PROBE_REPEATS):
        t0 = clock()
        s = 0
        for i in range(PROBE_ITERATIONS):
            s += i & 7
        times.append(clock() - t0)
    return statistics.median(times)


def at_reference_speed(wall_ns, probes_ns):
    return wall_ns * REFERENCE_PROBE_NS / statistics.median(probes_ns)


@dataclass
class Op:
    name: str
    wall_ns: int
    ok: bool = True
    note: str = ""


@dataclass
class Pass:
    """One pass of a journey; its time is the sum of its ops' times."""

    recording_s: float
    traced: bool
    ops: list = field(default_factory=list)
    probes: list = field(default_factory=list)

    @property
    def wall_ns(self):
        return sum(op.wall_ns for op in self.ops)

    @property
    def x_realtime_wall(self):
        return self.recording_s / (self.wall_ns / 1e9)

    @property
    def x_realtime(self):
        """Recording seconds per second at the reference machine speed."""
        return self.recording_s / (at_reference_speed(self.wall_ns, self.probes) / 1e9)


def _median(values):
    return statistics.median(values) if values else 0.0


class Workload:
    """Shared bookkeeping; subclasses define setup, run_pass, facts and report."""

    name = ""
    sizes = {}

    def __init__(self, seed: int, size: str, workdir: str):
        self.seed = seed
        self.size = dict(self.sizes[size])
        self.workdir = workdir
        self.passes = []

    def ops(self):
        return [op for p in self.passes for op in p.ops]

    def verify(self):
        """Checks that need the whole run; per-pass checks run in the pass."""

    def _timed(self, pass_, name, fn):
        """Run one op, recording its wall time; exceptions fail the op."""
        if not pass_.traced and not pass_.probes:
            pass_.probes.append(probe_ns())
        t0 = clock()
        try:
            result = fn()
            op = Op(name, clock() - t0)
        except Exception as exc:   # the op fails, the run goes on
            result = None
            op = Op(name, clock() - t0, False, f"{type(exc).__name__}: {exc}")
        if not pass_.traced:
            pass_.probes.append(probe_ns())
        pass_.ops.append(op)
        return op, result

    def _command(self, pass_, name, argv, tracer):
        call = run_cli if tracer is None else tracer.wrap(f"cli.{argv[0]}", run_cli, span=True)
        op, out = self._timed(pass_, name, lambda: call(argv))
        if out is not None and out[0] != 0:
            op.ok = False
            op.note = f"{' '.join(argv[:2])}: exit {out[0]}: {out[2].strip()}"
        return op, out


# ---------------------------------------------------------------------------
# live


def inject_wire_noise(wire: bytes, rng, flip_p: float, garbage_p: float,
                      max_garbage: int):
    """Corrupt a clean frame stream so the parser's outcome is known exactly.

    A flipped frame gets one byte of its payload or checksum replaced by a
    different value that is never 0xAA; its checksum then fails, and the
    sync pairs left inside it are always followed by 0xAA, so the parser
    counts exactly one corrupt frame for it and resynchronises on the next
    frame. Garbage runs between frames hold no 0xAA and are skipped
    without a count. Returns (noisy bytes, mask of frames that decode,
    number of flipped frames).
    """
    frames = np.frombuffer(wire, dtype=np.uint8).reshape(-1, FRAME_LEN).copy()
    n = len(frames)
    flipped = np.flatnonzero(rng.random(n) < flip_p)
    pos = rng.integers(3, FRAME_LEN, size=flipped.size)
    old = frames[flipped, pos].astype(np.int64)
    new = rng.integers(0, 256, size=flipped.size)
    bad = (new == old) | (new == SYNC)
    while bad.any():
        new[bad] = rng.integers(0, 256, size=int(bad.sum()))
        bad = (new == old) | (new == SYNC)
    frames[flipped, pos] = new

    flat = frames.tobytes()
    after = np.flatnonzero(rng.random(n) < garbage_p)
    lengths = rng.integers(1, max_garbage + 1, size=after.size)
    pieces = []
    start = 0
    for j, g in zip(after.tolist(), lengths.tolist()):
        pieces.append(flat[start * FRAME_LEN:(j + 1) * FRAME_LEN])
        junk = rng.integers(0, 255, size=g)
        junk[junk >= SYNC] += 1
        pieces.append(junk.astype(np.uint8).tobytes())
        start = j + 1
    pieces.append(flat[start * FRAME_LEN:])
    keep = np.ones(n, dtype=bool)
    keep[flipped] = False
    return b"".join(pieces), keep, int(flipped.size)


def read_bounds(n_bytes: int, rng, max_read: int):
    """Seeded read boundaries: consecutive reads of 1..max_read bytes."""
    sizes = rng.integers(1, max_read + 1, size=n_bytes // max(1, max_read // 2) + 64)
    ends = np.cumsum(sizes)
    while ends[-1] < n_bytes:
        ends = np.concatenate([ends, ends[-1] + np.cumsum(
            rng.integers(1, max_read + 1, size=64))])
    ends = ends[:np.searchsorted(ends, n_bytes) + 1]
    ends[-1] = n_bytes
    starts = np.concatenate([[0], ends[:-1]])
    return list(zip(starts.tolist(), ends.tolist()))


@dataclass
class Recording:
    subject_id: str
    task: object
    profile: object
    wire: bytes
    reads: list
    expected_raw: np.ndarray
    frames: int
    flipped: int
    duration_s: float


class Live(Workload):
    """Closed loop, one reader: each read blocks until processed."""

    name = "live"
    # 4 subjects x 4 distraction recordings x 60 s = 912 hops a pass
    noise = {"max_read": 256, "flip_p": 0.005, "garbage_p": 0.005, "max_garbage": 64}
    sizes = {
        "full": {"subjects": 4, "trials_per_task": 15, **noise},
        "tiny": {"subjects": 1, "trials_per_task": 3, **noise},
    }

    def setup(self):
        size = self.size
        rng = np.random.default_rng((self.seed, 1))
        suite = synth.generate_benchmark_suite(
            self.seed, n_subjects=size["subjects"],
            trials_per_task=size["trials_per_task"])
        recordings = []
        for sid in dict.fromkeys(s.subject_id for s in suite):
            mine = [s for s in suite if s.subject_id == sid]
            profile = stream.calibrate_thresholds(mine).profile
            for session in mine:
                if not session.task.is_distraction:
                    continue
                clean = protocol.session_to_packets(session)
                wire, keep, flipped = inject_wire_noise(
                    clean, rng, size["flip_p"], size["garbage_p"],
                    size["max_garbage"])
                recordings.append(Recording(
                    subject_id=sid, task=session.task, profile=profile,
                    wire=wire, reads=read_bounds(len(wire), rng, size["max_read"]),
                    expected_raw=session.raw[0][keep],
                    frames=session.n_samples, flipped=flipped,
                    duration_s=session.duration_s))
        self.recordings = recordings
        self.results = []   # (recording index, op, decoded, ok, corrupt, alerts)
        self.hop_latency_ns = []
        self.alerts_per_pass = None

    def _feed(self, rec: Recording, tracer):
        parser = protocol.PacketParser()
        feed = parser.feed
        if tracer is not None:
            feed = tracer.wrap("protocol.feed", feed, after=lambda r, a, d:
                               tracer.add("protocol.feed_bytes", len(a[0])))
        make_sample = model.EegSample
        process = stream.process_sample
        state = stream.DetectorState(rec.profile, fs_hz=FS)
        next_hop, hop_n = state.win_n, state.hop_n
        wire = rec.wire
        alerts = []
        latency = []
        n = 0
        for a, b in rec.reads:
            t0 = clock()
            for packet in feed(wire[a:b]):
                state, alert = process(state, make_sample(t=n / FS, raw=packet.raw_value))
                n += 1
                if alert is not None:
                    alerts.append(alert)
                if n == next_hop:
                    latency.append(clock() - t0)
                    next_hop += hop_n
        if tracer is not None:
            tracer.add("protocol.frames_ok", parser.packets_emitted)
            tracer.add("protocol.frames_corrupt", parser.corrupt_frames)
        return n, parser.packets_emitted, parser.corrupt_frames, alerts, latency

    def run_pass(self, tracer=None):
        p = Pass(recording_s=0.0, traced=tracer is not None)
        for i, rec in enumerate(self.recordings):
            op, out = self._timed(p, "feed", lambda: self._feed(rec, tracer))
            p.recording_s += rec.duration_s
            if out is not None:
                n, ok, corrupt, alerts, latency = out
                self.results.append((i, op, n, ok, corrupt, alerts))
                if tracer is None:
                    self.hop_latency_ns.extend(latency)
        self.passes.append(p)
        return p

    def verify(self):
        oracle = {}
        for i, op, n, ok, corrupt, alerts in self.results:
            rec = self.recordings[i]
            if i not in oracle:
                session = model.SubjectSession(
                    subject_id=rec.subject_id, task=rec.task,
                    device=model.Device.SINGLE_ELECTRODE_512, fs_hz=FS,
                    channels=("FP1",), raw=rec.expected_raw[None, :])
                oracle[i] = [a.to_dict() for a in
                             stream.replay_session(session, rec.profile)[0]]
            expected = rec.frames - rec.flipped
            if (n, ok, corrupt) != (expected, expected, rec.flipped):
                op.ok = False
                op.note = (f"recording {i}: decoded/ok/corrupt {n}/{ok}/{corrupt}, "
                           f"injector predicts {expected}/{expected}/{rec.flipped}")
            elif [a.to_dict() for a in alerts] != oracle[i]:
                op.ok = False
                op.note = f"recording {i}: alerts differ from replay_session"
        self.alerts_per_pass = sum(len(v) for v in oracle.values())

    def facts(self):
        return {**self.size, "recordings": len(self.recordings),
                "recording_s": self.recordings[0].duration_s,
                "wire_bytes": sum(len(r.wire) for r in self.recordings),
                "flipped_frames": sum(r.flipped for r in self.recordings),
                "hops_timed": len(self.hop_latency_ns),
                "alerts_per_pass": self.alerts_per_pass}

    def report(self):
        lat = np.asarray(self.hop_latency_ns, dtype=np.float64) / 1e3
        p50, p99 = np.percentile(lat, [50, 99]) if lat.size else (0.0, 0.0)
        wall_rates = [p.x_realtime_wall for p in self.passes if not p.traced]
        return {"feed_x_realtime": (_median(wall_rates), "s/s"),
                "hop_latency_p50_us": (float(p50), "us"),
                "hop_latency_p99_us": (float(p99), "us"),
                "hops": (int(lat.size), "count")}


# ---------------------------------------------------------------------------
# score


def run_cli(argv):
    """In-process ``driveguard`` call: (exit status, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        status = cli.main(argv)
    return status, out.getvalue(), err.getvalue()


class Score(Workload):
    name = "score"
    # recording length is fixed: the one-shot packet parse costs
    # quadratically in it
    sizes = {
        "full": {"subjects": 3, "recording_s": 120},
        "tiny": {"subjects": 1, "recording_s": 12},
    }

    def setup(self):
        size = self.size
        suite = synth.generate_benchmark_suite(
            self.seed, n_subjects=size["subjects"],
            trials_per_task=size["recording_s"] // 4)
        self.subjects = []
        for session in suite:
            if session.task not in (model.TaskLabel.BASE, model.TaskLabel.TEXT):
                continue
            stem = os.path.join(self.workdir, f"{session.subject_id}_{session.task.value}")
            protocol.write_session(session, stem + ".csv", stem + ".manifest.json")
            if session.task is model.TaskLabel.TEXT:
                with open(stem + ".packets.bin", "wb") as fh:
                    fh.write(protocol.session_to_packets(session))
                base = os.path.join(self.workdir, f"{session.subject_id}_Base")
                self.subjects.append((session.subject_id, base, stem,
                                      session.n_samples))
        self.hops_per_recording = None
        self.alerts = {}

    def run_pass(self, tracer=None):
        L = self.size["recording_s"]
        p = Pass(recording_s=0.0, traced=tracer is not None)
        for sid, base, rec, n_samples in self.subjects:
            profile = os.path.join(self.workdir, f"{sid}_profile.json")
            trace = os.path.join(self.workdir, f"{sid}_trace.csv")
            self._command(p, "calibrate", [
                "calibrate", "--base", base + ".csv", "--distraction",
                rec + ".csv", "--out", profile], tracer)
            _, from_bin = self._command(p, "stream_bin", [
                "stream", rec + ".packets.bin", "--profile", profile], tracer)
            csv_op, from_csv = self._command(p, "stream_csv", [
                "stream", rec + ".csv", "--profile", profile, "--trace", trace],
                tracer)
            # calibrate reads two recordings, each stream command one
            p.recording_s += 4 * L
            if csv_op.ok and from_bin is not None and from_bin[0] == 0:
                self._check(csv_op, from_bin[1], from_csv[1], trace, n_samples,
                            profile)
                self.alerts[sid] = len(from_csv[1].splitlines())
        self.passes.append(p)
        return p

    def _check(self, op, bin_out, csv_out, trace_path, n_samples, profile_path):
        with open(profile_path, encoding="utf-8") as fh:
            profile = stream.CalibrationProfile.from_json(fh.read())
        win_n = round(profile.window_s * FS)
        hop_n = round(profile.hop_s * FS)
        hops = (n_samples - win_n) // hop_n + 1
        with open(trace_path, encoding="utf-8") as fh:
            rows = sum(1 for _ in fh) - 1
        self.hops_per_recording = hops
        if bin_out != csv_out:
            op.ok, op.note = False, ".bin alerts differ from .csv alerts"
        elif rows != hops:
            op.ok, op.note = False, f"trace has {rows} rows for {hops} hops"

    def facts(self):
        return {**self.size, "hops_per_recording": self.hops_per_recording,
                "alerts_per_recording": self.alerts}

    def report(self):
        L = self.size["recording_s"]
        ops = [op for p in self.passes if not p.traced for op in p.ops]

        def walls(name):
            return [op.wall_ns / 1e9 for op in ops if op.name == name]
        return {"calibrate_s": (_median(walls("calibrate")), "s"),
                "stream_bin_x_realtime": (_median([L / w for w in walls("stream_bin")]), "s/s"),
                "stream_csv_x_realtime": (_median([L / w for w in walls("stream_csv")]), "s/s")}


# ---------------------------------------------------------------------------
# evaluate


class Evaluate(Workload):
    name = "evaluate"
    # --epochs is the one MLP setting lowered from its default (500) so a
    # pass fits the run; the cost of each online step does not depend on it
    sizes = {
        "full": {"subjects": 5, "trials_per_task": 10, "epochs": 10},
        "tiny": {"subjects": 2, "trials_per_task": 5, "epochs": 10},
    }
    ACCURACY_FLOOR_PCT = 70.0

    def setup(self):
        size = self.size
        self.suite = synth.generate_benchmark_suite(
            self.seed, n_subjects=size["subjects"],
            trials_per_task=size["trials_per_task"])
        self.csvs = []
        for session in self.suite:
            stem = os.path.join(self.workdir, f"{session.subject_id}_{session.task.value}")
            protocol.write_session(session, stem + ".csv", stem + ".manifest.json")
            self.csvs.append(stem + ".csv")
        self.arff = os.path.join(self.workdir, "features.arff")
        self.arff_digests = []
        self.accuracy = {}
        self.recording_s = sum(s.duration_s for s in self.suite)
        self.trials = len(self.suite) * size["trials_per_task"]

    def run_pass(self, tracer=None):
        p = Pass(recording_s=self.recording_s, traced=tracer is not None)
        commands = [("features", ["features", *self.csvs, "--mode", "combined",
                                  "--arff", self.arff])]
        for clf in ("gnb", "mlp"):
            argv = ["train-eval", self.arff, "--classifier", clf, "--classes",
                    "five", "--k", "10", "--json",
                    os.path.join(self.workdir, f"{clf}.json")]
            if clf == "mlp":
                argv += ["--epochs", str(self.size["epochs"])]
            commands.append((f"train_eval_{clf}", argv))
        for name, argv in commands:
            self._command(p, name, argv, tracer)
        self.passes.append(p)
        self._check_pass(p)
        return p

    def _check_pass(self, p):
        by_name = {op.name: op for op in p.ops}
        if by_name["features"].ok:
            with open(self.arff, "rb") as fh:
                self.arff_digests.append((by_name["features"],
                                          hashlib.sha256(fh.read()).hexdigest()))
        for clf in ("gnb", "mlp"):
            op = by_name[f"train_eval_{clf}"]
            if not op.ok:
                continue
            with open(os.path.join(self.workdir, f"{clf}.json"), encoding="utf-8") as fh:
                acc = json.load(fh)["accuracy_pct"]
            self.accuracy[clf] = acc
            if acc < self.ACCURACY_FLOOR_PCT:
                op.ok, op.note = False, f"{clf} five-class accuracy {acc:.1f} % < 70 %"

    def verify(self):
        """The ARFF read back equals the vectors computed in memory, at %.6g."""
        if not self.arff_digests:
            return
        want = dsp.feature_vectors_from_sessions(self.suite, mode="combined",
                                                 trial_seconds=4.0)
        got = protocol.read_arff(self.arff)
        same = len(got) == len(want) and all(
            g.label == w.label and g.schema == w.schema
            and [f"{x:.6g}" for x in g.values] == [f"{x:.6g}" for x in w.values]
            for g, w in zip(got, want))
        last = self.arff_digests[-1][1]
        for op, digest in self.arff_digests:
            if not same:
                op.ok, op.note = False, "ARFF read back differs from the vectors"
            elif digest != last:
                op.ok, op.note = False, "ARFF differs between passes"

    def facts(self):
        return {**self.size, "sessions": len(self.suite),
                "session_s": self.suite[0].duration_s, "trials": self.trials,
                "accuracy_pct": self.accuracy}

    def report(self):
        passes = [p for p in self.passes if not p.traced]
        feats, train = [], []
        for p in passes:
            by_name = {op.name: op.wall_ns / 1e9 for op in p.ops}
            feats.append(self.trials / by_name["features"])
            train.append(by_name["train_eval_gnb"] + by_name["train_eval_mlp"])
        return {"features_trials_per_s": (_median(feats), "trials/s"),
                "train_eval_s": (_median(train), "s")}


WORKLOADS = {w.name: w for w in (Live, Score, Evaluate)}
