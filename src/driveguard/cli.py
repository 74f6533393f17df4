"""Command-line pipeline orchestration.

One executable, nine subcommands covering the full flow: ingest and
validate recordings, extract features to ARFF, train and evaluate
classifiers, score distraction, run the statistics battery, export
spectrogram grids, generate synthetic sessions, calibrate per-subject
alert thresholds, and stream alerts.

Settings resolve with precedence: explicit flags, then a key=value
config file (``--config``), then ``DRIVEGUARD_``-prefixed environment
variables, then built-in defaults. Failures print a machine-readable
JSON object on stderr and exit nonzero. ``DRIVEGUARD_LOG`` sets the log
level. Plot-oriented outputs are plain CSV/JSON data files.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import sys

from .classify import MlpConfig, kfold_evaluate, vectors_to_dataset
from .dsp import (
    FEATURE_MODES,
    band_powers_fft,
    feature_vectors_from_sessions,
    spectrogram_csv,
    spectrogram_triples_csv,
    stft_spectrogram,
)
from .errors import DriveGuardError, ParameterError
from .index import CoverageError, distraction_index, rank_tasks
# perfbench/tracing.py rebinds cli.EegSample and cli.process_sample, so keep both
from .model import EegSample, TaskLabel, split_into_trials  # noqa: F401
from .protocol import (
    packets_to_samples,
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
    calibrate_thresholds,
    process_sample,  # noqa: F401
    replay_session,
    stream_samples,
    stream_session,
)
from .synth import BurstSpec, GeneratorSpec, PinkNoiseSpec, generate_session

log = logging.getLogger("driveguard")

ENV_PREFIX = "DRIVEGUARD_"


class CliError(DriveGuardError):
    """Bad invocation: unknown flags, malformed config, unusable paths."""


class _Parser(argparse.ArgumentParser):
    # argparse normally prints usage and exits; route through the
    # structured error path instead
    def error(self, message):
        raise CliError(message)


# ---------------------------------------------------------------------------
# config resolution


def _load_config(path: str | None) -> dict:
    if path is None:
        return {}
    config = {}
    text = read_text(path, "config", CliError)
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise CliError(f"{path}:{lineno}: expected key=value, got {line!r}")
        key, _, value = line.partition("=")
        config[key.strip()] = value.strip()
    return config


def _resolve(flag_value, key: str, default, cast, config: dict):
    """Flags beat config file entries beat environment beat defaults."""
    if flag_value is not None:
        return flag_value
    if key in config:
        raw = config[key]
        source = f"config key {key}"
    else:
        raw = os.environ.get(ENV_PREFIX + key.upper())
        source = f"environment {ENV_PREFIX}{key.upper()}"
        if raw is None:
            return default
    try:
        return cast(raw)
    except (TypeError, ValueError) as exc:
        raise CliError(f"{source}: cannot parse {raw!r}: {exc}") from exc


def _emit_error(exc: BaseException):
    payload = {"error": type(exc).__name__, "message": str(exc)}
    print(json.dumps(payload), file=sys.stderr)


def _manifest_for(csv_path: str) -> str:
    if not csv_path.endswith(".csv"):
        raise CliError(f"session path must end in .csv, got {csv_path!r}")
    return csv_path[:-4] + ".manifest.json"


def _load_sessions(paths):
    sessions = []
    for p in paths:
        sessions.append(read_session(p, _manifest_for(p)))
        log.info("loaded session %s", p)
    return sessions


def _write_text(path: str, text: str):
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)


# ---------------------------------------------------------------------------
# subcommands


def _cmd_ingest(args, config):
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


def _cmd_features(args, config):
    mode = _resolve(args.mode, "mode", "fft", str, config)
    trial_s = _resolve(args.trial_seconds, "trial_seconds", 4.0, float, config)
    if mode not in FEATURE_MODES:
        raise CliError(f"mode must be one of {FEATURE_MODES}, got {mode!r}")
    sessions = _load_sessions(args.sessions)
    vectors = feature_vectors_from_sessions(sessions, mode=mode,
                                            trial_seconds=trial_s)
    out = {"vectors": len(vectors), "features": len(vectors[0].schema),
           "mode": mode, "trial_seconds": trial_s, "arff": args.arff}
    if args.arff:
        _write_text(args.arff, write_arff(vectors, relation=args.relation))
        log.info("wrote %d vectors to %s", len(vectors), args.arff)
    print(json.dumps(out, indent=2))
    return 0


def _cmd_train_eval(args, config):
    classifier = _resolve(args.classifier, "classifier", "gnb", str, config)
    classes = _resolve(args.classes, "classes", "five", str, config)
    k = _resolve(args.k, "k", 10, int, config)
    seed = _resolve(args.seed, "seed", 0, int, config)
    mode = _resolve(args.mode, "mode", "fft", str, config)
    trial_s = _resolve(args.trial_seconds, "trial_seconds", 4.0, float, config)
    if len(args.inputs) == 1 and args.inputs[0].endswith(".arff"):
        vectors = read_arff(args.inputs[0])
    else:
        vectors = feature_vectors_from_sessions(_load_sessions(args.inputs),
                                                mode=mode, trial_seconds=trial_s)
    X, y, class_names = vectors_to_dataset(vectors, problem=classes)
    mlp_config = None
    if classifier == "mlp":
        mlp_config = MlpConfig(
            hidden=_resolve(args.hidden, "hidden", None, int, config),
            learning_rate=_resolve(args.learning_rate, "learning_rate", 0.3,
                                   float, config),
            momentum=_resolve(args.momentum, "momentum", 0.2, float, config),
            epochs=_resolve(args.epochs, "epochs", 500, int, config),
            seed=seed)
    overall, folds = kfold_evaluate(X, y, class_names, k=k,
                                    classifier=classifier, seed=seed,
                                    mlp_config=mlp_config)
    print(overall.to_text())
    if args.json:
        _write_text(args.json, overall.to_json() + "\n")
        log.info("wrote evaluation JSON to %s", args.json)
    return 0


def _cmd_index(args, config):
    trial_s = _resolve(args.trial_seconds, "trial_seconds", 4.0, float, config)
    sessions = _load_sessions(args.sessions)
    rows = []
    labeled = []
    for session in sessions:
        for w in split_into_trials(session, trial_s):
            bp = band_powers_fft(w)
            labeled.append((session.task, bp))
            rows.append((session.subject_id, session.task.value, w.channel,
                         w.trial_index, distraction_index(bp)))
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


def _cmd_stats(args, config):
    alpha = _resolve(args.alpha, "alpha", 0.05, float, config)
    reports = []
    if args.fixtures in ("table5", "all"):
        reports.append(table5_report(alpha=alpha))
    if args.fixtures in ("table6", "all"):
        reports.extend(table6_reports(alpha=alpha))
    if args.format == "json":
        print(json.dumps([r.to_dict() for r in reports], indent=2))
    else:
        for r in reports:
            print(r.to_text())
    return 0


def _cmd_spectrogram(args, config):
    window = _resolve(args.window, "window", 1.0, float, config)
    overlap = _resolve(args.overlap, "overlap", 0.5, float, config)
    session = _load_sessions([args.session])[0]
    channel = args.channel or session.channels[0]
    spec = stft_spectrogram(session.channel_data(channel), session.fs_hz,
                            window_s=window, overlap=overlap)
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
    def build(raw):
        baseline = PinkNoiseSpec(**raw.get("baseline", {}))
        bursts = tuple(BurstSpec(**b) for b in raw.get("bursts", []))
        seed = raw.get("seed") if seed_override is None else seed_override
        return GeneratorSpec(
            seed=0 if seed is None else seed,
            task=TaskLabel.from_string(raw.get("task", "Base")),
            fs_hz=raw.get("fs_hz", 512),
            duration_s=float(raw.get("duration_s", 20.0)),
            baseline=baseline,
            bursts=bursts,
            subject_id=str(raw.get("subject_id", "synth-01")),
            channels=raw.get("channels", ("FP1",)),
        )
    return read_json_record(path, "spec", build, CliError)


def _cmd_synth(args, config):
    seed = _resolve(args.seed, "seed", None, int, config)
    if args.spec == "default":
        spec = GeneratorSpec(seed=0 if seed is None else seed)
    else:
        spec = _spec_from_json(args.spec, seed)
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


def _cmd_calibrate(args, config):
    window = _resolve(args.window, "window", 4.0, float, config)
    hop = _resolve(args.hop, "hop", 1.0, float, config)
    refractory = _resolve(args.refractory, "refractory", 2.0, float, config)
    min_f1 = _resolve(args.min_f1, "min_f1", 0.75, float, config)
    sessions = _load_sessions(args.base) + _load_sessions(args.distraction)
    result = calibrate_thresholds(sessions, subject_id=args.subject,
                                  window_s=window, hop_s=hop,
                                  refractory_s=refractory,
                                  max_candidates=args.max_candidates,
                                  min_f1=min_f1, use_di=not args.no_di)
    if args.out:
        _write_text(args.out, result.profile.to_json() + "\n")
        log.info("wrote calibration profile to %s", args.out)
    print(result.to_json())
    return 0


def _read_packets(path: str):
    try:
        with open(path, "rb") as fh:
            data = fh.read()
    except OSError as exc:
        raise CliError(f"cannot read packet stream {path}: {exc}") from exc
    raw, corrupt = packets_to_samples(data)
    log.info("decoded %d samples (%d corrupt frames)", raw.size, corrupt)
    return raw


def _cmd_stream(args, config):
    profile = read_json_record(args.profile, "profile",
                               CalibrationProfile.from_dict, CliError)
    is_csv = args.input.endswith(".csv")
    if args.trace and not is_csv:
        raise CliError("--trace needs a session CSV input, not packets")
    if is_csv:
        session = _load_sessions([args.input])[0]
        alerts, _ = stream_session(session, profile)
    else:
        alerts, _ = stream_samples(_read_packets(args.input), profile)
    for alert in alerts:
        print(alert.to_json())
    if args.trace:
        _, trace = replay_session(session, profile)
        _write_text(args.trace, "\n".join(
            [TRACE_HEADER] + [rec.csv_row() for rec in trace]) + "\n")
        log.info("wrote %d trace rows to %s", len(trace), args.trace)
    return 0


# ---------------------------------------------------------------------------
# parser assembly


def _build_parser() -> _Parser:
    common = _Parser(add_help=False)
    common.add_argument("--config", help="key=value settings file")
    common.add_argument("--seed", type=int, help="seed for stochastic steps")

    parser = _Parser(prog="driveguard",
                     description="EEG distracted-driving detection pipeline")
    sub = parser.add_subparsers(dest="command", required=True,
                                parser_class=_Parser)

    p = sub.add_parser("ingest", parents=[common],
                       help="validate a session CSV against its manifest")
    p.add_argument("csv")
    p.add_argument("manifest")
    p.set_defaults(func=_cmd_ingest)

    p = sub.add_parser("features", parents=[common],
                       help="extract per-trial feature vectors")
    p.add_argument("sessions", nargs="+", help="session CSV paths "
                   "(manifest expected at <name>.manifest.json)")
    p.add_argument("--mode", choices=FEATURE_MODES)
    p.add_argument("--trial-seconds", type=float)
    p.add_argument("--arff", help="write vectors to this ARFF file")
    p.add_argument("--relation", default="driveguard-features")
    p.set_defaults(func=_cmd_features)

    p = sub.add_parser("train-eval", parents=[common],
                       help="stratified k-fold classifier evaluation")
    p.add_argument("inputs", nargs="+",
                   help="one .arff file, or session CSV paths")
    p.add_argument("--classifier", choices=("gnb", "mlp"))
    p.add_argument("--classes", choices=("two", "five"))
    p.add_argument("--k", type=int)
    p.add_argument("--mode", choices=FEATURE_MODES)
    p.add_argument("--trial-seconds", type=float)
    p.add_argument("--epochs", type=int, help="MLP training epochs")
    p.add_argument("--hidden", type=int, help="MLP hidden units")
    p.add_argument("--learning-rate", type=float)
    p.add_argument("--momentum", type=float)
    p.add_argument("--json", help="also write the report as JSON here")
    p.set_defaults(func=_cmd_train_eval)

    p = sub.add_parser("index", parents=[common],
                       help="per-trial distraction index and task ranking")
    p.add_argument("sessions", nargs="+")
    p.add_argument("--trial-seconds", type=float)
    p.add_argument("--csv", help="write per-trial DI rows here")
    p.set_defaults(func=_cmd_index)

    p = sub.add_parser("stats", parents=[common],
                       help="run the bundled statistical comparisons")
    p.add_argument("--fixtures", choices=("table5", "table6", "all"),
                   default="all")
    p.add_argument("--alpha", type=float)
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(func=_cmd_stats)

    p = sub.add_parser("spectrogram", parents=[common],
                       help="STFT grid for one channel of a session")
    p.add_argument("session")
    p.add_argument("--window", type=float)
    p.add_argument("--overlap", type=float)
    p.add_argument("--channel")
    p.add_argument("--out", help="grid CSV path (stdout when omitted)")
    p.add_argument("--triples", help="also write long-format rows here")
    p.set_defaults(func=_cmd_spectrogram)

    p = sub.add_parser("synth", parents=[common],
                       help="generate a synthetic session")
    p.add_argument("--spec", required=True,
                   help="generator spec JSON path, or 'default'")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--no-packets", action="store_true",
                   help="skip the packet-framed binary stream")
    p.set_defaults(func=_cmd_synth)

    p = sub.add_parser("calibrate", parents=[common],
                       help="search per-subject alert thresholds")
    p.add_argument("--base", nargs="+", required=True,
                   help="Base session CSVs")
    p.add_argument("--distraction", nargs="+", required=True,
                   help="distraction session CSVs")
    p.add_argument("--subject", help="subject id when sessions are mixed")
    p.add_argument("--window", type=float)
    p.add_argument("--hop", type=float)
    p.add_argument("--refractory", type=float)
    p.add_argument("--min-f1", type=float)
    p.add_argument("--max-candidates", type=int, default=32)
    p.add_argument("--no-di", action="store_true",
                   help="exclude the distraction index criterion")
    p.add_argument("--out", help="write the profile JSON here")
    p.set_defaults(func=_cmd_calibrate)

    p = sub.add_parser("stream", parents=[common],
                       help="run the alert detector over a recording")
    p.add_argument("input", help="session CSV or packet .bin stream")
    p.add_argument("--profile", required=True,
                   help="calibration profile JSON")
    p.add_argument("--trace", help="write per-hop band powers and DI here")
    p.set_defaults(func=_cmd_stream)

    return parser


def main(argv=None) -> int:
    level = os.environ.get(ENV_PREFIX + "LOG", "warning").upper()
    logging.basicConfig(level=getattr(logging, level, logging.WARNING),
                        format="%(levelname)s %(name)s: %(message)s")
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        config = _load_config(getattr(args, "config", None))
        return args.func(args, config)
    except (DriveGuardError, OSError) as exc:
        _emit_error(exc)
        return 2


if __name__ == "__main__":
    sys.exit(main())
