"""Command-line pipeline orchestration.

One executable, nine subcommands covering the full flow: ingest and
validate recordings, extract features to ARFF, train and evaluate
classifiers, score distraction, run the statistics battery, export
spectrogram grids, generate synthetic sessions, calibrate per-subject
alert thresholds, and stream alerts.

Each subcommand's settings are declared once, in ``SETTINGS``, and
resolve in one pass before dispatch: explicit flags, then a key=value
config file (``--config``), then ``DRIVEGUARD_``-prefixed environment
variables, then built-in defaults. Failures print a machine-readable
JSON object on stderr and exit nonzero; a closed stdout ends a command
with status 1 and no message. ``DRIVEGUARD_LOG`` sets the log level on
every call, and a name that is no level exits 2 like any bad setting.
Plot-oriented outputs are plain CSV/JSON data files.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import functools
import itertools
import json
import logging
import math
import os
import sys
from typing import NamedTuple

import numpy as np

from .classify import MlpConfig, kfold_evaluate, vectors_to_dataset
from .dsp import (
    FEATURE_MODES,
    feature_vectors_from_sessions,
    spectrogram_csv,
    spectrogram_triples_csv,
    stft_spectrogram,
    trial_feature_rows,
)
from .errors import DriveGuardError, ValidationError
from .index import CoverageError, di_rows, distraction_index, rank_tasks
# perfbench/tracing.py rebinds cli.EegSample, cli.packets_to_samples, cli.process_sample,
# cli.replay_session and cli.stream_session, so keep all five imported
from .model import BandPowers, EegSample, TaskLabel, shared_schema, trial_stack  # noqa: F401
from .protocol import (
    PacketParser,
    json_number,
    packets_to_samples,  # noqa: F401
    read_arff,
    read_json_record,
    read_session,
    read_text,
    session_to_packets,
    write_arff,
    write_session,
)
from .stats import table5_report, table6_reports
from .stream import (
    CalibrationProfile,
    TRACE_HEADER,
    DetectorState,
    calibrate_thresholds,
    feed_block,
    process_sample,  # noqa: F401
    replay_session,  # noqa: F401
    stream_channel,
    stream_session,  # noqa: F401
    trace_line,
)
from .synth import BurstSpec, GeneratorSpec, PinkNoiseSpec, generate_session

log = logging.getLogger("driveguard")

ENV_PREFIX = "DRIVEGUARD_"
# the most bytes of a packet stream that ``stream`` reads and decodes at once
READ_CHUNK_BYTES = 1 << 20


class CliError(DriveGuardError):
    """Bad invocation: unknown flags, malformed config, unusable paths."""


class _Parser(argparse.ArgumentParser):
    # argparse normally prints usage and exits; route through the
    # structured error path instead
    def error(self, message):
        raise CliError(message)


# ---------------------------------------------------------------------------
# settings


class Setting(NamedTuple):
    """Flag ``--key-with-dashes``, config key, ``DRIVEGUARD_KEY``."""

    key: str
    type: type
    default: object
    choices: tuple | None = None
    help: str | None = None


_MODE = Setting("mode", str, "fft", FEATURE_MODES)
_TRIAL_SECONDS = Setting("trial_seconds", float, 4.0)

# the settings each subcommand reads; subcommands not listed take none
SETTINGS = {
    "features": (_MODE, _TRIAL_SECONDS),
    "train-eval": (
        Setting("classifier", str, "gnb", ("gnb", "mlp")),
        Setting("classes", str, "five", ("two", "five")),
        Setting("k", int, 10), _MODE, _TRIAL_SECONDS,
        Setting("epochs", int, 500, help="MLP training epochs"),
        Setting("hidden", int, None, help="MLP hidden units"),
        Setting("learning_rate", float, 0.3), Setting("momentum", float, 0.2),
        Setting("seed", int, 0, help="seed for folds and MLP weights")),
    "index": (_TRIAL_SECONDS,),
    "stats": (Setting("alpha", float, 0.05),),
    "spectrogram": (Setting("window", float, 1.0), Setting("overlap", float, 0.5)),
    "synth": (Setting("seed", int, None, help="replaces the spec's seed"),),
    "calibrate": (
        Setting("window", float, 4.0), Setting("hop", float, 1.0),
        Setting("refractory", float, 2.0), Setting("min_f1", float, 0.75),
        Setting("max_candidates", int, 32)),
}


def _load_config(path: str) -> dict:
    """key -> (value, source) for each key=value line of ``path``."""
    known = {s.key for settings in SETTINGS.values() for s in settings}
    config = {}
    text = read_text(path, "config", CliError)
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise CliError(f"{path}:{lineno}: expected key=value, got {line!r}")
        key, _, value = (part.strip() for part in line.partition("="))
        # any subcommand's key is accepted, so one file can serve them all
        if key not in known:
            raise CliError(f"{path}:{lineno}: unknown setting {key!r}")
        config[key] = (value, f"{path}:{lineno}: config key {key}")
    return config


def _resolve_settings(args):
    """Set each of the command's settings on ``args``: a flag beats a
    config file entry beats the environment beats the default."""
    settings = SETTINGS.get(args.command, ())
    config = _load_config(args.config) if settings and args.config else {}
    for s in settings:
        if getattr(args, s.key) is not None:  # argparse checked the flag
            continue
        env = ENV_PREFIX + s.key.upper()
        if s.key in config:
            raw, source = config[s.key]
        elif env in os.environ:
            raw, source = os.environ[env], f"environment {env}"
        else:
            setattr(args, s.key, s.default)
            continue
        try:
            value = s.type(raw)
        except ValueError as exc:
            raise CliError(f"{source}: cannot parse {raw!r}: {exc}") from exc
        if s.choices is not None and value not in s.choices:
            raise CliError(f"{source}: {raw!r} is not one of {s.choices}")
        setattr(args, s.key, value)


def _read_path(path):
    """The session stored at ``path`` and its ``.manifest.json``."""
    if not path.endswith(".csv"):
        raise CliError(f"session path must end in .csv, got {path!r}")
    return read_session(path, path[:-4] + ".manifest.json")


def _load_sessions(paths):
    """The sessions stored at ``paths``, read in order in this process;
    each is logged as it loads, and the first path that fails to read
    raises its error."""
    sessions = []
    for path in paths:
        sessions.append(_read_path(path))
        log.info("loaded session %s", path)
    return sessions


def _load_vectors(paths, mode, trial_seconds):
    """The feature vectors of the sessions stored at ``paths``, in order."""
    return feature_vectors_from_sessions(_load_sessions(paths), mode=mode,
                                         trial_seconds=trial_seconds)


def _write_text(path: str, text: str):
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)


# ---------------------------------------------------------------------------
# subcommands


def _cmd_ingest(args):
    session = read_session(args.csv, args.manifest)
    record = {
        "subject_id": session.subject_id,
        "task": session.task.value,
        "device": session.device.value,
        "fs_hz": session.fs_hz,
        "channels": list(session.channels),
        "n_samples": session.n_samples,
        "duration_s": session.duration_s,
    }
    print(json.dumps(record, indent=2))
    return 0


def _cmd_features(args):
    vectors = _load_vectors(args.sessions, args.mode, args.trial_seconds)
    out = {"vectors": len(vectors), "features": len(shared_schema(vectors)),
           "mode": args.mode, "trial_seconds": args.trial_seconds,
           "arff": args.arff}
    if args.arff:
        _write_text(args.arff, write_arff(vectors, relation=args.relation))
        log.info("wrote %d vectors to %s", len(vectors), args.arff)
    print(json.dumps(out, indent=2))
    return 0


def _cmd_train_eval(args):
    if len(args.inputs) == 1 and args.inputs[0].endswith(".arff"):
        vectors = read_arff(args.inputs[0])
    else:
        vectors = _load_vectors(args.inputs, args.mode, args.trial_seconds)
    X, y, class_names = vectors_to_dataset(vectors, problem=args.classes)
    mlp_config = None
    if args.classifier == "mlp":
        mlp_config = MlpConfig(hidden=args.hidden,
                               learning_rate=args.learning_rate,
                               momentum=args.momentum, epochs=args.epochs,
                               seed=args.seed)
    overall, folds = kfold_evaluate(X, y, class_names, k=args.k,
                                    classifier=args.classifier, seed=args.seed,
                                    mlp_config=mlp_config)
    print(overall.to_text())
    if args.json:
        _write_text(args.json, overall.to_json() + "\n")
        log.info("wrote evaluation JSON to %s", args.json)
    return 0


def _cmd_index(args):
    sessions = _load_sessions(args.sessions)
    rows = []
    labeled = []
    for session in sessions:
        stack = trial_stack(session, args.trial_seconds)
        # one row of five band powers per trial and channel, trial-major
        powers = np.concatenate(list(trial_feature_rows(stack, session.fs_hz, "fft")))
        powers = powers.reshape(-1, 5)
        for j, (row, di) in enumerate(zip(powers.tolist(), di_rows(powers).tolist())):
            bp = BandPowers(*row)
            if math.isnan(di):
                distraction_index(bp)  # raises its UndefinedIndexError
            trial, channel = divmod(j, len(session.channels))
            labeled.append((session.task, bp))
            rows.append((session.subject_id, session.task.value,
                         session.channels[channel], trial, di))
    csv_lines = ["subject_id,task,channel,trial,di"]
    csv_lines += [f"{s},{t},{c},{i},{di:.9g}" for s, t, c, i, di in rows]
    csv_text = "\n".join(csv_lines) + "\n"
    if args.csv:
        _write_text(args.csv, csv_text)
        log.info("wrote DI table to %s", args.csv)
    result = {"trials": len(rows), "csv": args.csv}
    try:
        ranking = rank_tasks(labeled)
        result["ranking"] = [{"task": t.value, "mean_di": m}
                             for t, m in ranking.entries]
        result["tied_groups"] = [[t.value for t in g]
                                 for g in ranking.tied_groups]
        result["base_mean_di"] = ranking.base_mean
    except CoverageError as exc:
        result["ranking"] = None
        result["note"] = str(exc)
    print(json.dumps(result, indent=2))
    return 0


def _cmd_stats(args):
    reports = []
    if args.fixtures in ("table5", "all"):
        reports.append(table5_report(alpha=args.alpha))
    if args.fixtures in ("table6", "all"):
        reports.extend(table6_reports(alpha=args.alpha))
    if args.format == "json":
        print(json.dumps([r.to_dict() for r in reports], indent=2))
    else:
        for r in reports:
            print(r.to_text())
    return 0


def _cmd_spectrogram(args):
    session = _load_sessions([args.session])[0]
    channel = args.channel or session.channels[0]
    spec = stft_spectrogram(session.channel_data(channel), session.fs_hz,
                            window_s=args.window, overlap=args.overlap)
    grid = spectrogram_csv(spec)
    if args.out:
        _write_text(args.out, grid)
        log.info("wrote spectrogram grid to %s", args.out)
    else:
        sys.stdout.write(grid)
    if args.triples:
        _write_text(args.triples, spectrogram_triples_csv(spec))
    return 0


def _spec_from_json(path: str, seed_override) -> GeneratorSpec:
    def numbers(record, what, keep=()):
        # the fields of a nested spec object, each a JSON number but those kept
        if not isinstance(record, dict):
            raise ValidationError(f"{what} must be an object, got {record!r}")
        return {k: v if k in keep else json_number(record, k, what)
                for k, v in record.items()}

    def build(raw):
        fields = {f.name for f in dataclasses.fields(GeneratorSpec)}
        if unknown := sorted(raw.keys() - fields):
            raise ValueError(f"unknown keys {unknown}")
        bursts = raw.get("bursts", [])
        if not isinstance(bursts, list):
            raise ValidationError(f"spec bursts must be a list, got {bursts!r}")
        # keys left out keep GeneratorSpec's defaults, except the duration
        spec = dict(raw, duration_s=json_number(raw, "duration_s", "spec", 20.0),
                    baseline=PinkNoiseSpec(**numbers(raw.get("baseline", {}),
                                                     "spec baseline")),
                    bursts=tuple(BurstSpec(**numbers(b, "spec bursts", keep=("band",)))
                                 for b in bursts))
        if "task" in raw:
            spec["task"] = TaskLabel.from_string(raw["task"])
        spec["seed"] = raw.get("seed", 0) if seed_override is None else seed_override
        return GeneratorSpec(**spec)
    return read_json_record(path, "spec", build, CliError)


def _cmd_synth(args):
    if args.spec == "default":
        spec = GeneratorSpec(seed=0 if args.seed is None else args.seed)
    else:
        spec = _spec_from_json(args.spec, args.seed)
    session = generate_session(spec)
    os.makedirs(args.out, exist_ok=True)
    stem = f"{session.subject_id}_{session.task.value}"
    csv_path = os.path.join(args.out, stem + ".csv")
    manifest_path = os.path.join(args.out, stem + ".manifest.json")
    write_session(session, csv_path, manifest_path)
    record = {"session_csv": csv_path, "manifest": manifest_path,
              "packets": None, "n_samples": session.n_samples,
              "duration_s": session.duration_s, "task": session.task.value}
    if len(session.channels) == 1 and not args.no_packets:
        packets_path = os.path.join(args.out, stem + ".packets.bin")
        with open(packets_path, "wb") as fh:
            fh.write(session_to_packets(session))
        record["packets"] = packets_path
    print(json.dumps(record, indent=2))
    return 0


def _cmd_calibrate(args):
    # base sessions first
    sessions = _load_sessions(args.base + args.distraction)
    result = calibrate_thresholds(sessions, subject_id=args.subject,
                                  window_s=args.window, hop_s=args.hop,
                                  refractory_s=args.refractory,
                                  max_candidates=args.max_candidates,
                                  min_f1=args.min_f1, use_di=not args.no_di)
    if args.out:
        _write_text(args.out, result.profile.to_json() + "\n")
        log.info("wrote calibration profile to %s", args.out)
    print(result.to_json())
    return 0


def _packet_blocks(path: str, files: contextlib.ExitStack):
    """The raw samples of the packet stream at ``path`` (``-``: descriptor 0,
    stdin), one array per read of what a pipe holds or a full file chunk."""
    parser, n_bytes, n_samples = PacketParser(), 0, 0
    try:
        fh = files.enter_context(open(0 if path == "-" else path, "rb", closefd=path != "-"))
        while chunk := fh.read1(READ_CHUNK_BYTES):
            n_bytes += len(chunk)
            yield (raw := parser.feed_samples(chunk))
            n_samples += raw.size
    except OSError as exc:
        raise CliError(f"cannot read packet stream {path}: {exc}") from exc
    # a session CSV without the .csv suffix, or any other text, decodes to
    # nothing; an empty stream is just empty
    if n_bytes and not n_samples:
        raise CliError(f"packet stream {path} holds no raw sample in its "
                       f"{n_bytes} bytes (a session CSV must end in .csv)")
    log.info("decoded %d samples (%d corrupt frames)", n_samples, parser.corrupt_frames)


def _cmd_stream(args):
    profile = read_json_record(args.profile, "profile",
                               CalibrationProfile.from_dict, CliError)
    with contextlib.ExitStack() as files:
        blocks = (iter([stream_channel(_load_sessions([args.input])[0])])
                  if args.input.endswith(".csv") else _packet_blocks(args.input, files))
        # the detector and trace start at the first samples, or after an
        # input without any, so that input errors come before a profile's
        first = next(filter(len, blocks), np.empty(0, dtype=np.int32))
        state, rows = DetectorState(profile), 0
        if args.trace:
            trace = files.enter_context(open(args.trace, "w", encoding="utf-8", newline="\n"))
            trace.write(TRACE_HEADER + "\n")
        for raw in itertools.chain([first], blocks):
            alerts, hops = feed_block(state, raw, state.samples_seen / state.fs_hz)
            for alert in alerts:
                print(alert.to_json())
            sys.stdout.flush()
            if args.trace:
                trace.writelines(map(trace_line, hops.tolist()))
            rows += len(hops)
    if args.trace:
        log.info("wrote %d trace rows to %s", rows, args.trace)
    return 0


# ---------------------------------------------------------------------------
# parser assembly


@functools.cache
def _build_parser() -> _Parser:
    """The command-line parser, built once per process: nothing mutates it
    after it is built, and ``parse_args`` returns a fresh namespace."""
    parser = _Parser(prog="driveguard",
                     description="EEG distracted-driving detection pipeline")
    sub = parser.add_subparsers(dest="command", required=True,
                                parser_class=_Parser)

    p = sub.add_parser("ingest",
                       help="validate a session CSV against its manifest")
    p.add_argument("csv")
    p.add_argument("manifest")
    p.set_defaults(func=_cmd_ingest)

    p = sub.add_parser("features", help="extract per-trial feature vectors")
    p.add_argument("sessions", nargs="+", help="session CSV paths "
                   "(manifest expected at <name>.manifest.json)")
    p.add_argument("--arff", help="write vectors to this ARFF file")
    p.add_argument("--relation", default="driveguard-features")
    p.set_defaults(func=_cmd_features)

    p = sub.add_parser("train-eval",
                       help="stratified k-fold classifier evaluation")
    p.add_argument("inputs", nargs="+",
                   help="one .arff file, or session CSV paths")
    p.add_argument("--json", help="also write the report as JSON here")
    p.set_defaults(func=_cmd_train_eval)

    p = sub.add_parser("index",
                       help="per-trial distraction index and task ranking")
    p.add_argument("sessions", nargs="+")
    p.add_argument("--csv", help="write per-trial DI rows here")
    p.set_defaults(func=_cmd_index)

    p = sub.add_parser("stats", help="run the bundled statistical comparisons")
    p.add_argument("--fixtures", choices=("table5", "table6", "all"),
                   default="all")
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(func=_cmd_stats)

    p = sub.add_parser("spectrogram",
                       help="STFT grid for one channel of a session")
    p.add_argument("session")
    p.add_argument("--channel")
    p.add_argument("--out", help="grid CSV path (stdout when omitted)")
    p.add_argument("--triples", help="also write long-format rows here")
    p.set_defaults(func=_cmd_spectrogram)

    p = sub.add_parser("synth", help="generate a synthetic session")
    p.add_argument("--spec", required=True,
                   help="generator spec JSON path, or 'default'")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--no-packets", action="store_true",
                   help="skip the packet-framed binary stream")
    p.set_defaults(func=_cmd_synth)

    p = sub.add_parser("calibrate", help="search per-subject alert thresholds")
    p.add_argument("--base", nargs="+", required=True,
                   help="Base session CSVs")
    p.add_argument("--distraction", nargs="+", required=True,
                   help="distraction session CSVs")
    p.add_argument("--subject", help="subject id when sessions are mixed")
    p.add_argument("--no-di", action="store_true",
                   help="exclude the distraction index criterion")
    p.add_argument("--out", help="write the profile JSON here")
    p.set_defaults(func=_cmd_calibrate)

    p = sub.add_parser("stream", help="run the alert detector over a recording")
    p.add_argument("input", help="session CSV or packet .bin stream")
    p.add_argument("--profile", required=True,
                   help="calibration profile JSON")
    p.add_argument("--trace", help="write per-hop band powers and DI here")
    p.set_defaults(func=_cmd_stream)

    for name, settings in SETTINGS.items():
        p = sub.choices[name]
        p.add_argument("--config", help="key=value settings file")
        for s in settings:
            p.add_argument("--" + s.key.replace("_", "-"), type=s.type,
                           choices=s.choices, help=s.help)
    return parser


def _set_log_level():
    """Set the package log level from ``DRIVEGUARD_LOG``, WARNING when unset."""
    env = ENV_PREFIX + "LOG"
    raw = os.environ.get(env, "warning")
    # the name of a level maps to its number; anything else to a string
    level = logging.getLevelName(raw.upper())
    if not isinstance(level, int):
        raise CliError(f"environment {env}: {raw!r} is not a log level name")
    log.setLevel(level)


def main(argv=None) -> int:
    logging.basicConfig(format="%(levelname)s %(name)s: %(message)s")
    parser = _build_parser()
    try:
        _set_log_level()
        args = parser.parse_args(argv)
        _resolve_settings(args)
        status = args.func(args)
        sys.stdout.flush()  # a closed stdout shows here, not at exit
        return status
    except BrokenPipeError:
        # the reader of stdout has gone, which is no input error: exit 1
        # quietly, and in a process send what stdout still buffers to
        # devnull so that the flush at exit stays silent too
        try:
            fd = sys.stdout.fileno()
        except (AttributeError, ValueError, OSError):  # no descriptor in process
            return 1
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, fd)
        os.close(devnull)
        return 1
    except (DriveGuardError, OSError) as exc:
        payload = {"error": type(exc).__name__, "message": str(exc)}
        print(json.dumps(payload), file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
