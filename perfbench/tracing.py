"""In-memory tracing for the benchmark's traced runs.

The program is never edited. A traced pass rebinds module-level names in
the ``driveguard`` package to timing wrappers and restores them when the
pass ends. Coarse calls (CLI commands, file reads, replays, k-fold fits)
become span records: name, start, end, parent span and the run id.
Calls made once per sample, per read or per hop (``EegSample``,
``process_sample``, ``PacketParser.feed``, band powers, DI) are kept only
as aggregate counters, because a span each would cost more than the call.

Every wrapped call, span or counter, pushes a frame on one stack, so the
self time of a name is its duration minus the time of the wrapped calls
it made. The wrappers' own cost lands in the self time of their caller.
Spans stay in memory and are written once, by ``write``.
"""

from __future__ import annotations

import contextlib
import importlib
import json
import os
import time

clock = time.perf_counter_ns

LAYERS = ("protocol", "model", "dsp", "wavelet", "index", "stream",
          "classify", "synth", "cli", "bench")


class Tracer:
    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans = []    # (span id, parent span id, name, start ns, end ns)
        self.totals = {}   # name -> [calls, total ns, self ns]
        self.counts = {}   # name -> summed count (bytes, frames, hops ...)
        self.lists = {}    # name -> per-call values kept for percentiles
        self._stack = [[0, None]]   # frame: [child ns, id of enclosing span]
        self._ids = 0

    def add(self, name, value):
        self.counts[name] = self.counts.get(name, 0) + value

    def wrap(self, name, fn, span=False, after=None):
        """A timing wrapper for ``fn``; ``after(result, args, ns)`` counts work."""
        entry = self.totals.setdefault(name, [0, 0, 0])
        stack = self._stack
        spans = self.spans

        def timed(*args, **kwargs):
            parent = stack[-1]
            if span:
                self._ids += 1
                frame = [0, self._ids]
            else:
                frame = [0, parent[1]]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                dur = t1 - t0
                entry[0] += 1
                entry[1] += dur
                entry[2] += dur - frame[0]
                parent[0] += dur
                if span:
                    spans.append((frame[1], parent[1], name, t0, t1))
            if after is not None:
                after(result, args, dur)
            return result

        return timed

    # -- derived numbers ---------------------------------------------------

    def calls(self, name):
        return self.totals.get(name, (0, 0, 0))[0]

    def total_ns(self, name):
        return self.totals.get(name, (0, 0, 0))[1]

    def self_ns(self, name):
        return self.totals.get(name, (0, 0, 0))[2]

    def mean_ns(self, name):
        calls = self.calls(name)
        return self.total_ns(name) / calls if calls else 0.0

    def layer_self_ns(self):
        out = dict.fromkeys(LAYERS, 0)
        for name, (_, _, self_ns) in self.totals.items():
            out[name.split(".", 1)[0]] += self_ns
        return out

    def record(self):
        return {
            "spans": [{"id": i, "parent": p, "name": n, "start_ns": s,
                       "end_ns": e, "run_id": self.run_id}
                      for i, p, n, s, e in self.spans],
            "totals": {n: {"calls": c, "total_ns": t, "self_ns": s}
                       for n, (c, t, s) in self.totals.items()},
            "counts": self.counts,
        }


def write_trace(path, setup: Tracer, passes: Tracer):
    """Write the traced set-up and the traced passes once, at the end."""
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"run_id": passes.run_id, "setup": setup.record(),
                   "passes": passes.record()}, fh)


# ---------------------------------------------------------------------------
# what a traced pass rebinds


def _count_read_session(tracer):
    def after(result, args, dur):
        tracer.add("protocol.read_session_bytes", os.path.getsize(args[0]))
    return after


def _count_oneshot(tracer):
    def after(result, args, dur):
        raw, corrupt = result
        tracer.add("protocol.oneshot_bytes", len(args[0]))
        tracer.add("protocol.frames_ok", int(raw.size))
        tracer.add("protocol.frames_corrupt", int(corrupt))
    return after


def _count_replay(tracer):
    def after(result, args, dur):
        tracer.add("stream.replay_hops", len(result[1]))
    return after


def _count_process_sample(tracer):
    hop_ns = tracer.lists.setdefault("stream.hop_ns", [])

    def after(result, args, dur):
        state, alert = result
        over = state.samples_seen - state.win_n
        if over >= 0 and over % state.hop_n == 0:
            hop_ns.append(dur)
            if alert is not None:
                tracer.add("stream.alerts", 1)
    return after


def _count_mlp_steps(tracer):
    def after(result, args, dur):
        X, config = args[0], args[3]
        tracer.add("classify.mlp_steps", len(X) * config.epochs)
    return after


# (module, attribute, traced name, span record?, counter factory). One
# traced name may sit behind several bindings of the same function.
REBINDINGS = (
    ("driveguard.synth", "generate_benchmark_suite", "synth.generate", True, None),
    ("driveguard.protocol", "write_session", "protocol.write_session", True, None),
    ("driveguard.protocol", "session_to_packets", "protocol.encode", True, None),
    ("driveguard.cli", "read_session", "protocol.read_session", True,
     _count_read_session),
    ("driveguard.cli", "packets_to_samples", "protocol.oneshot", True,
     _count_oneshot),
    ("driveguard.cli", "write_arff", "protocol.arff_write", True, None),
    ("driveguard.cli", "read_arff", "protocol.arff_read", True, None),
    ("driveguard.model", "EegSample", "model.eeg_sample", False, None),
    ("driveguard.cli", "EegSample", "model.eeg_sample", False, None),
    ("driveguard.stream", "EegSample", "model.eeg_sample", False, None),
    ("driveguard.model", "split_into_trials", "model.split_into_trials", False, None),
    ("driveguard.stream", "process_sample", "stream.process_sample", False,
     _count_process_sample),
    ("driveguard.cli", "process_sample", "stream.process_sample", False,
     _count_process_sample),
    ("driveguard.cli", "stream_session", "stream.stream_session", True, None),
    ("driveguard.cli", "replay_session", "stream.replay", True, _count_replay),
    ("driveguard.stream", "replay_session", "stream.replay", True, _count_replay),
    ("driveguard.stream", "calibrate_thresholds", "stream.calibrate", True, None),
    ("driveguard.cli", "calibrate_thresholds", "stream.calibrate", True, None),
    ("driveguard.stream", "band_powers_from_samples", "dsp.band_powers", False, None),
    ("driveguard.dsp", "band_powers_fft", "dsp.band_powers_fft", False, None),
    ("driveguard.cli", "feature_vectors_from_sessions", "dsp.features", True, None),
    ("driveguard.dsp", "dwt_db8", "wavelet.dwt", False, None),
    ("driveguard.stream", "distraction_index", "index.di", False, None),
    ("driveguard.cli", "vectors_to_dataset", "classify.dataset", True, None),
    ("driveguard.cli", "kfold_evaluate", "classify.kfold", True, None),
    ("driveguard.classify", "train_gnb", "classify.gnb_fit", True, None),
    ("driveguard.classify", "train_mlp", "classify.mlp_fit", True, _count_mlp_steps),
    ("driveguard.classify", "predict_gnb_many", "classify.predict", True, None),
    ("driveguard.classify", "predict_mlp_many", "classify.predict", True, None),
)


@contextlib.contextmanager
def rebound(tracer: Tracer):
    """Route the package's module-level calls through ``tracer``."""
    saved = []
    try:
        for module_name, attr, name, span, counter in REBINDINGS:
            module = importlib.import_module(module_name)
            original = getattr(module, attr)
            after = counter(tracer) if counter is not None else None
            saved.append((module, attr, original))
            setattr(module, attr, tracer.wrap(name, original, span, after))
        yield
    finally:
        for module, attr, original in reversed(saved):
            setattr(module, attr, original)
