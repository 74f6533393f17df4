"""The CLI's error contract on malformed input files and numeric settings.

A malformed profile, manifest, generator spec, config, session CSV or
ARFF file, or an out-of-range numeric setting, must end in exit status
2, with nothing on stdout and exactly one JSON object on stderr: never a
traceback. ``ESCAPES`` and ``NUMERIC_ESCAPES`` pin inputs that once broke
the contract, and ``NAMED_ESCAPES`` rejections whose message must name the
line or key at fault. The seeded mutation test derives many more
from valid files by truncation, wrong JSON types, non-UTF-8 bytes, NaN
and infinities, and a JSON top level that is not an object.
"""

import json
import math
import os
import random
import warnings

import numpy as np
import pytest

from driveguard.cli import main
from driveguard.model import (EPOC_CHANNELS, Device, FeatureVector, SubjectSession,
                              TaskLabel)
from driveguard.protocol import write_arff, write_session
from driveguard.synth import GeneratorSpec, generate_session

KINDS = ("profile", "manifest", "spec", "config", "csv", "arff")
JSON_KINDS = ("profile", "manifest", "spec")
SUFFIX = {"profile": ".json", "manifest": ".manifest.json", "spec": ".json",
          "config": ".conf", "csv": ".csv", "arff": ".arff"}

PROFILE = {"subject_id": "s1", "band_thresholds": {"beta": 5.0},
           "di_threshold": None, "refractory_s": 2.0, "window_s": 4.0,
           "hop_s": 1.0, "combine": "or"}
SPEC = {"seed": 3, "task": "Text", "fs_hz": 512, "duration_s": 2.0,
        "baseline": {"amplitude_uv": 25.0},
        "bursts": [{"band": "beta", "center_hz": 22.0}],
        "subject_id": "s7", "channels": ["FP1"]}
CONFIG = "alpha = 0.05\n"

# Wrong-typed values each JSON field must reject.
WRONG_TYPES = {
    "profile": {"subject_id": [None, 5, [1]],
                "band_thresholds": ["abc", [1], 5],
                "di_threshold": ["abc", [1], {}],
                "window_s": ["abc", [1], None],
                "hop_s": ["abc", [1], None],
                "refractory_s": ["abc", [1], None],
                "combine": [5, [1], None]},
    "manifest": {"subject_id": [None, 5, [1]],
                 "task": [5, [1], None],
                 "device": [5, [1], None],
                 "fs_hz": ["abc", [512], 512.5],
                 "channels": ["FP1", 5, None, [7]]},
    "spec": {"subject_id": [None, 5, [1]],
             "seed": ["abc", 1.5, {"k": 1}, True, None],
             "task": [5, [1], None],
             "fs_hz": ["abc", [512], 512.0],
             "duration_s": ["abc", [1], None, "4", True],
             "baseline": ["abc", [1], {"k": 1}, {"amplitude_uv": True}],
             "bursts": ["abc", [1], 5, [{"band": "beta", "center_hz": True}]],
             "channels": ["FP1", 5, {"k": 1}, [7]]},
}
# numeric fields that must reject NaN, Infinity and -Infinity alike
NON_FINITE_FIELDS = {"profile": ("window_s", "hop_s", "refractory_s"),
                     "manifest": ("fs_hz",),
                     "spec": ("seed", "fs_hz", "duration_s")}
NON_FINITE = (math.nan, math.inf, -math.inf)


@pytest.fixture(autouse=True)
def clean_env(monkeypatch):
    for key in list(os.environ):
        if key.startswith("DRIVEGUARD_"):
            monkeypatch.delenv(key)


@pytest.fixture(scope="module")
def valid(tmp_path_factory):
    """A directory of well-formed inputs and the text of each input kind."""
    d = tmp_path_factory.mktemp("contract")
    for name, task in (("base", TaskLabel.BASE), ("text", TaskLabel.TEXT)):
        session = generate_session(GeneratorSpec(seed=1, task=task, duration_s=4.0,
                                                 subject_id="s1"))
        write_session(session, d / f"{name}.csv", d / f"{name}.manifest.json")
    vectors = [FeatureVector(values=(x, 0.5 * x), schema=("f1", "f2"), label=task)
               for task in TaskLabel for x in (1.0, 2.0, 3.0, 4.0)]
    texts = {"profile": json.dumps(PROFILE),
             "manifest": (d / "base.manifest.json").read_text(),
             "spec": json.dumps(SPEC),
             "config": CONFIG,
             "csv": (d / "base.csv").read_text(),
             "arff": write_arff(vectors, relation="contract")}
    return d, texts


def run_with(capsys, d, kind, data):
    """Run the CLI command that reads a ``kind`` file holding ``data``."""
    path = d / f"input{SUFFIX[kind]}"
    path.write_bytes(data if isinstance(data, bytes) else data.encode())
    path = str(path)
    argv = {"profile": ["stream", str(d / "base.csv"), "--profile", path],
            "manifest": ["ingest", str(d / "base.csv"), path],
            "spec": ["synth", "--spec", path, "--out", str(d / "out"), "--no-packets"],
            "config": ["stats", "--fixtures", "table5", "--config", path],
            "csv": ["ingest", path, str(d / "base.manifest.json")],
            "arff": ["train-eval", path, "--k", "2"]}[kind]
    rc = main(argv)
    out, err = capsys.readouterr()
    return rc, out, err


def assert_contract(result, what):
    rc, out, err = result
    assert rc == 2, f"{what}: exit {rc}, stderr {err!r}"
    assert out == "", what
    lines = err.splitlines()
    assert len(lines) == 1, f"{what}: stderr {err!r}"
    assert set(json.loads(lines[0])) == {"error", "message"}, what


def with_fields(**fields):
    return lambda text: json.dumps({**json.loads(text), **fields})


def with_long_int(field):
    # more digits than Python converts from a string by default
    def mutate(text):
        record = json.loads(text)
        return json.dumps({**record, field: 0}).replace(
            f'"{field}": 0', f'"{field}": 1' + "0" * 5000)
    return mutate


def wrapped_in_list(text):
    return f"[{text}]"


def with_bad_byte(text):
    return b"\xff" + text.encode()


def first_arff_value(replacement):
    def mutate(text):
        head, data = text.split("@data\n")
        return head + "@data\n" + replacement + data[data.index(","):]
    return mutate


def first_csv_raw(replacement):
    def mutate(text):
        header, first, rest = text.split("\n", 2)
        return f"{header}\n{first.split(',')[0]},{replacement}\n{rest}"
    return mutate


def first_csv_times(*times):
    def mutate(text):
        header, *lines = text.split("\n")
        for i, t in enumerate(times):
            lines[i] = t + lines[i][lines[i].index(","):]
        return "\n".join([header, *lines])
    return mutate


# a raw cell beyond int64, which numpy cannot store
OVERSIZED_RAW = "100000000000000000000"

ESCAPES = [
    pytest.param("profile", lambda t: t[:len(t) // 2], id="profile-invalid-json"),
    pytest.param("profile", wrapped_in_list, id="profile-list"),
    pytest.param("profile", lambda t: "[" * 100_000, id="profile-deep-nesting"),
    pytest.param("profile", with_fields(band_thresholds={"beta": "x"}),
                 id="profile-threshold-string"),
    pytest.param("profile", with_fields(di_threshold="x"), id="profile-di-string"),
    pytest.param("profile", with_fields(band_thresholds=[1]), id="profile-bands-list"),
    pytest.param("profile", with_fields(window_s="abc"), id="profile-window-string"),
    pytest.param("profile", with_fields(window_s=math.nan), id="profile-window-nan"),
    pytest.param("profile", with_fields(window_s=math.inf), id="profile-window-inf"),
    # a NaN refractory period used to switch the refractory gate off
    pytest.param("profile", with_fields(refractory_s=math.nan),
                 id="profile-refractory-nan"),
    # each of these four was ignored or taken as a number, and streamed
    pytest.param("profile", with_fields(refactory_s=9), id="profile-unknown-key"),
    pytest.param("profile", with_fields(refractory_s=True), id="profile-refractory-true"),
    pytest.param("profile", with_fields(band_thresholds={"beta": True}),
                 id="profile-threshold-true"),
    pytest.param("profile", with_fields(window_s="4"), id="profile-window-numeric-string"),
    # used to end in an uncaught OverflowError
    pytest.param("profile", with_fields(hop_s=10 ** 400), id="profile-hop-beyond-float"),
    # a window this long ended in numpy's memory error when the detector
    # allocated its buffer, and so would a hop, which the buffer now holds too
    pytest.param("profile", with_fields(window_s=1e12), id="profile-window-beyond-limit"),
    pytest.param("profile", with_fields(hop_s=1e12, refractory_s=1e12),
                 id="profile-hop-beyond-limit"),
    # json.loads raised a ValueError that was not caught
    pytest.param("profile", with_long_int("hop_s"), id="profile-int-beyond-digit-limit"),
    pytest.param("manifest", with_long_int("fs_hz"), id="manifest-int-beyond-digit-limit"),
    pytest.param("manifest", with_fields(fs_hz="abc"), id="manifest-fs-string"),
    pytest.param("manifest", with_fields(channels=5), id="manifest-channels-int"),
    # used to be truncated to 512
    pytest.param("manifest", with_fields(fs_hz=512.9), id="manifest-fs-fraction"),
    pytest.param("spec", wrapped_in_list, id="spec-list"),
    pytest.param("spec", with_fields(duration_s="abc"), id="spec-duration-string"),
    # used to generate three channels named F, P and 1
    pytest.param("spec", with_fields(channels="FP1"), id="spec-channels-string"),
    pytest.param("spec", with_bad_byte, id="spec-non-utf8"),
    pytest.param("csv", with_bad_byte, id="csv-non-utf8"),
    pytest.param("arff", with_bad_byte, id="arff-non-utf8"),
    pytest.param("config", with_bad_byte, id="config-non-utf8"),
    # a misspelt key was ignored, leaving the setting at its default
    pytest.param("config", lambda t: t + "trial_second = 3.0\n",
                 id="config-unknown-key"),
    # a misspelt key was ignored: this wrote a 20 s session
    pytest.param("spec", with_fields(duraton_s=4.0), id="spec-unknown-key"),
    # used to end in an uncaught OverflowError
    pytest.param("csv", first_csv_raw(OVERSIZED_RAW), id="csv-raw-beyond-int64"),
    # numpy warned "invalid value encountered in subtract" on stderr, ahead
    # of an error that named no line
    pytest.param("csv", first_csv_times("inf", "inf"), id="csv-two-inf-timestamps"),
    # numpy warned "overflow encountered in subtract"
    pytest.param("csv", first_csv_times("1e308", "-1e308"),
                 id="csv-timestamp-difference-overflows"),
    # a NaN feature used to train a classifier and report a score
    pytest.param("arff", first_arff_value("nan"), id="arff-nan-value"),
]


def arff_header(old, new):
    return lambda text: text.replace(old, new, 1)


def arff_without_numeric_attributes(text):
    # the header alone, less its numeric attributes
    head = text.partition("@data")[0]
    return "".join(line for line in head.splitlines(True) if "numeric" not in line) + "@data\n"


# rejections that must also name what they reject: the ARFF line, or the
# JSON file and key. Each JSON value was once taken as another type, read
# and used, and exited 0.
NAMED_ESCAPES = [
    pytest.param("arff", arff_header("@attribute f1 numeric", "@attribute f1"),
                 "input.arff line 3: bad @attribute", id="arff-attribute-without-type"),
    pytest.param("arff", arff_header("@attribute f1 numeric", "@attribute f1 string"),
                 "input.arff line 3: unsupported attribute type 'string'",
                 id="arff-attribute-string"),
    pytest.param("arff", arff_header("\n\n", "\n1,2,Base\n"),
                 "input.arff line 2: data before @data", id="arff-data-before-header"),
    pytest.param("arff", arff_without_numeric_attributes,
                 "input.arff: no numeric attributes found", id="arff-no-numeric-attribute"),
    pytest.param("spec", with_fields(duration_s="4"), "input.json: duration_s",
                 id="spec-duration-numeric-string"),
    pytest.param("spec", with_fields(duration_s=True), "input.json: duration_s",
                 id="spec-duration-true"),
    pytest.param("spec", with_fields(seed=True), "input.json: seed", id="spec-seed-true"),
    pytest.param("spec", with_fields(seed=[1, True]), "input.json: seed",
                 id="spec-seed-list-with-true"),
    pytest.param("spec", with_fields(seed=None), "input.json: seed", id="spec-seed-null"),
    pytest.param("spec", with_fields(baseline={"amplitude_uv": True}),
                 "input.json: baseline amplitude_uv", id="spec-baseline-true"),
    pytest.param("spec", with_fields(bursts=[{"band": "beta", "center_hz": 22.0,
                                              "gain": True}]), "input.json: bursts gain",
                 id="spec-burst-gain-true"),
    pytest.param("spec", with_fields(subject_id=None), "input.json: subject_id",
                 id="spec-subject-null"),
    pytest.param("spec", with_fields(subject_id=5), "input.json: subject_id",
                 id="spec-subject-number"),
    pytest.param("spec", with_fields(channels=[7]), "input.json: channels",
                 id="spec-channel-number"),
    pytest.param("manifest", with_fields(subject_id=None), "input.manifest.json: subject_id",
                 id="manifest-subject-null"),
    # these two were rejected only by the session built after the whole
    # CSV was read, or every sample generated, naming neither file nor key
    pytest.param("manifest", with_fields(channels=["a", "a"]),
                 "input.manifest.json: channels must not repeat a name",
                 id="manifest-channels-repeated"),
    pytest.param("manifest", with_fields(subject_id=""),
                 "input.manifest.json: subject_id must be non-empty",
                 id="manifest-subject-empty"),
    pytest.param("spec", with_fields(channels=["a", "a"]),
                 "input.json: channels must not repeat a name", id="spec-channels-repeated"),
    pytest.param("spec", with_fields(subject_id=""), "input.json: subject_id must be non-empty",
                 id="spec-subject-empty"),
    pytest.param("manifest", with_fields(channels=[7]), "input.manifest.json: channels",
                 id="manifest-channel-number"),
    pytest.param("profile", with_fields(subject_id=None), "input.json: subject_id",
                 id="profile-subject-null"),
    # a hop alerts when any criterion crosses: "or" is the one combine a
    # profile may still hold
    pytest.param("profile", with_fields(combine="and"), "input.json: combine",
                 id="profile-combine-and"),
    pytest.param("profile", with_fields(combine="xor"), "input.json: combine",
                 id="profile-combine-xor"),
]


@pytest.mark.parametrize("kind, mutate, named", NAMED_ESCAPES)
def test_named_escapes_exit_2(valid, capsys, kind, mutate, named):
    d, texts = valid
    data = mutate(texts[kind])
    result = run_with(capsys, d, kind, data)
    assert_contract(result, f"{kind} {data[:120]!r}")
    message = json.loads(result[2])["message"]
    assert named in message, message


@pytest.mark.parametrize("kind, fields, error", [
    ("spec", {"seed": True}, "ParameterError"),
    ("spec", {"duration_s": "4"}, "ValidationError"),
    ("profile", {"window_s": True}, "ValidationError"),
], ids=["spec-seed", "spec-duration", "profile-window"])
def test_json_package_errors_keep_their_class_and_name_their_file(
        valid, capsys, kind, fields, error):
    d, texts = valid
    result = run_with(capsys, d, kind, with_fields(**fields)(texts[kind]))
    assert_contract(result, kind)
    record = json.loads(result[2])
    assert record["error"] == error
    assert record["message"].startswith(f"{kind} {d / 'input.json'}: "), record


def test_valid_inputs_pass(valid, capsys):
    d, texts = valid
    for kind in KINDS:
        rc, _, err = run_with(capsys, d, kind, texts[kind])
        assert rc == 0, f"{kind}: {err}"


@pytest.mark.parametrize("kind, mutate", ESCAPES)
def test_known_escapes_exit_2(valid, capsys, kind, mutate):
    d, texts = valid
    data = mutate(texts[kind])
    assert_contract(run_with(capsys, d, kind, data), f"{kind} {data[:120]!r}")


def test_calibrate_rejects_fractional_window_samples(valid, capsys):
    # 4.001 s is 2048.512 samples: calibrate used to round it and write a
    # profile that stream then rejected
    d, _ = valid
    profile = d / "fractional.json"
    rc = main(["calibrate", "--base", str(d / "base.csv"), "--distraction",
               str(d / "text.csv"), "--window", "4.001", "--out", str(profile)])
    out, err = capsys.readouterr()
    assert_contract((rc, out, err), "calibrate --window 4.001")
    assert json.loads(err)["error"] == "ParameterError"
    assert not profile.exists()


@pytest.mark.parametrize("argv", [
    ["features", "{csv}"],
    ["calibrate", "--base", "{csv}", "--distraction", "{d}/text.csv"],
    ["stream", "{csv}", "--profile", "{d}/profile.json"],
], ids=["features", "calibrate", "stream"])
def test_oversized_raw_cell_exits_2(valid, capsys, argv):
    d, texts = valid
    (d / "huge.csv").write_text(first_csv_raw(OVERSIZED_RAW)(texts["csv"]))
    (d / "huge.manifest.json").write_text(texts["manifest"])
    (d / "profile.json").write_text(texts["profile"])
    rc = main([arg.format(d=d, csv=d / "huge.csv") for arg in argv])
    out, err = capsys.readouterr()
    assert_contract((rc, out, err), argv[0])
    assert json.loads(err)["error"] == "SessionFormatError"
    assert "huge.csv line 2:" in json.loads(err)["message"]


def test_crlf_session_csv_names_its_line_endings(valid, capsys):
    # the message used to be a header mismatch against 't_s,raw\r'
    d, texts = valid
    result = run_with(capsys, d, "csv", texts["csv"].replace("\n", "\r\n"))
    assert_contract(result, "csv with CRLF line endings")
    error = json.loads(result[2])
    assert error == {"error": "SessionFormatError",
                     "message": f"{d / 'input.csv'} has CRLF line endings; "
                                "session CSVs take LF line endings only"}


@pytest.mark.parametrize("name", ["upper.CSV", "notes.txt", "noise.bin"])
def test_stream_input_without_raw_samples_exits_2(valid, capsys, name):
    # stream read a session CSV named other than *.csv as packets, found no
    # sample and exited 0 with no output
    d, texts = valid
    path = d / name
    path.write_bytes(texts["csv"].encode() if name != "noise.bin" else bytes(range(256)))
    (d / "profile.json").write_text(texts["profile"])
    rc = main(["stream", str(path), "--profile", str(d / "profile.json")])
    out, err = capsys.readouterr()
    assert_contract((rc, out, err), name)
    assert json.loads(err)["error"] == "CliError"
    assert f"packet stream {path} holds no raw sample" in json.loads(err)["message"]


def test_stream_empty_packet_file_exits_0(valid, capsys):
    d, texts = valid
    (d / "empty.bin").write_bytes(b"")
    (d / "profile.json").write_text(texts["profile"])
    rc = main(["stream", str(d / "empty.bin"), "--profile", str(d / "profile.json")])
    assert (rc, *capsys.readouterr()) == (0, "", "")


@pytest.mark.parametrize("command", [
    ["features"], ["features", "--arff", "{d}/mixed.arff"], ["train-eval", "--k", "2"],
], ids=["features", "features-arff", "train-eval"])
def test_mixed_feature_schemas_exit_2(valid, capsys, command):
    # features without --arff used to exit 0, reporting the first vector's
    # feature count for a 1-channel 512 Hz and a 14-channel 128 Hz session
    d, _ = valid
    multi = SubjectSession(subject_id="s1", task=TaskLabel.TEXT,
                           device=Device.MULTI_ELECTRODE_128, fs_hz=128,
                           channels=EPOC_CHANNELS,
                           raw=np.zeros((14, 4 * 128), dtype=np.int32))
    write_session(multi, d / "multi.csv", d / "multi.manifest.json")
    rc = main([command[0], str(d / "base.csv"), str(d / "multi.csv"),
               *(arg.format(d=d) for arg in command[1:])])
    out, err = capsys.readouterr()
    assert_contract((rc, out, err), command)
    error = json.loads(err)
    assert error["error"] == "ValidationError"
    assert error["message"].startswith("feature vectors disagree on schema")
    assert not (d / "mixed.arff").exists()


# numeric settings that once ended in a traceback, exit 0 with a
# meaningless result, or a diverging fit; "{d}" is the input directory
NUMERIC_ESCAPES = [
    pytest.param(["spectrogram", "{d}/base.csv", "--window", "nan"],
                 id="spectrogram-window-nan"),
    pytest.param(["spectrogram", "{d}/base.csv", "--window", "inf"],
                 id="spectrogram-window-inf"),
    pytest.param(["calibrate", "--base", "{d}/base.csv", "--distraction",
                  "{d}/text.csv", "--max-candidates", "-3"],
                 id="calibrate-max-candidates-negative"),
    pytest.param(["calibrate", "--base", "{d}/base.csv", "--distraction",
                  "{d}/text.csv", "--max-candidates", "0"],
                 id="calibrate-max-candidates-zero"),
    pytest.param(["calibrate", "--base", "{d}/base.csv", "--distraction",
                  "{d}/text.csv", "--min-f1", "nan"], id="calibrate-min-f1-nan"),
    pytest.param(["train-eval", "{d}/numeric.arff", "--k", "2", "--classifier",
                  "mlp", "--learning-rate", "nan"], id="mlp-learning-rate-nan"),
    pytest.param(["train-eval", "{d}/numeric.arff", "--k", "2", "--classifier",
                  "mlp", "--learning-rate", "inf"], id="mlp-learning-rate-inf"),
]


@pytest.mark.parametrize("argv", NUMERIC_ESCAPES)
def test_numeric_settings_exit_2(valid, capsys, argv):
    d, texts = valid
    (d / "numeric.arff").write_text(texts["arff"])
    rc = main([arg.format(d=d) for arg in argv])
    out, err = capsys.readouterr()
    assert_contract((rc, out, err), " ".join(argv))
    assert json.loads(err)["error"] == "ParameterError"


def test_diverging_mlp_fit_exits_2(valid, capsys):
    # numpy warned "invalid value encountered in matmul" twice on stderr,
    # ahead of the JSON error
    d, texts = valid
    (d / "numeric.arff").write_text(texts["arff"])
    argv = ["train-eval", str(d / "numeric.arff"), "--k", "2", "--classifier",
            "mlp", "--learning-rate", "1e308", "--momentum", "0.99"]
    # outside the tests, each warning caught here is a line on stderr
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        rc = main(argv)
    out, err = capsys.readouterr()
    assert [str(w.message) for w in caught] == []
    assert_contract((rc, out, err), " ".join(argv))
    assert json.loads(err)["error"] == "DivergenceError"


# a setting from a config file or the environment gets the flag's checks;
# each of these used to be ignored, or to reach the library unchecked
SOURCED_ESCAPES = [
    pytest.param(["calibrate", "--base", "{d}/base.csv", "--distraction",
                  "{d}/text.csv"], "max_candidates", "0", "ParameterError",
                 id="calibrate-max-candidates-zero"),
    pytest.param(["train-eval", "{d}/numeric.arff", "--k", "2"], "classifier",
                 "bogus", "CliError", id="train-eval-classifier"),
    pytest.param(["features", "{d}/base.csv"], "mode", "wavelets", "CliError",
                 id="features-mode"),
]


@pytest.mark.parametrize("source", ["config", "environment"])
@pytest.mark.parametrize("argv, key, value, error", SOURCED_ESCAPES)
def test_settings_from_config_or_environment_checked(
        valid, capsys, monkeypatch, source, argv, key, value, error):
    d, texts = valid
    (d / "numeric.arff").write_text(texts["arff"])
    argv = [arg.format(d=d) for arg in argv]
    if source == "config":
        config = d / "sourced.conf"
        config.write_text(f"{key} = {value}\n")
        argv += ["--config", str(config)]
        where = f"{config}:1: config key {key}"
    else:
        monkeypatch.setenv(f"DRIVEGUARD_{key.upper()}", value)
        where = f"environment DRIVEGUARD_{key.upper()}"
    rc = main(argv)
    out, err = capsys.readouterr()
    assert_contract((rc, out, err), f"{key} = {value} from {source}")
    assert json.loads(err)["error"] == error
    if error == "CliError":
        assert where in json.loads(err)["message"]


# an unknown level name used to mean WARNING, and logging.BASIC_FORMAT, a
# string, once ended in a traceback
@pytest.mark.parametrize("level", ["verbose", "inof", "basic_format", "no-such-level"])
def test_unknown_log_level_exits_2(valid, capsys, monkeypatch, level):
    d, _ = valid
    monkeypatch.setenv("DRIVEGUARD_LOG", level)
    rc = main(["ingest", str(d / "base.csv"), str(d / "base.manifest.json")])
    out, err = capsys.readouterr()
    assert_contract((rc, out, err), f"DRIVEGUARD_LOG = {level}")
    assert json.loads(err)["error"] == "CliError"
    assert "environment DRIVEGUARD_LOG" in json.loads(err)["message"]


def malformed_variant(kind, text, rng):
    """One malformed variant of ``text``, a well-formed ``kind`` file."""
    ops = ["truncate", "non_utf8", "non_finite"]
    if kind in JSON_KINDS:
        ops += ["wrong_type", "non_object"]
    op = rng.choice(ops)
    if op == "non_utf8":
        # the inputs are ASCII, so any byte >= 0x80 breaks the UTF-8
        raw = text.encode()
        at = rng.randrange(len(raw) + 1)
        return raw[:at] + bytes([rng.randrange(0x80, 0x100)]) + raw[at:]
    if kind in JSON_KINDS:
        record = json.loads(text)
        if op == "truncate":  # the object never closes
            return text[:rng.randrange(text.rindex("}"))]
        if op == "non_object":
            return json.dumps(rng.choice([[record], "text", 5, None, True]))
        if op == "wrong_type":
            field = rng.choice(sorted(WRONG_TYPES[kind]))
            value = rng.choice(WRONG_TYPES[kind][field])
        else:
            field = rng.choice(NON_FINITE_FIELDS[kind])
            value = rng.choice(NON_FINITE)
        return json.dumps({**record, field: value})
    bad_number = rng.choice(["nan", "inf", "-inf"])
    if kind == "config":
        if op == "truncate":  # inside the key, or just after "="
            return text[:rng.randrange(1, text.index("=") + 2)]
        return f"alpha = {bad_number}\n"
    # csv and arff: work on the data lines only
    head, sep, data = text.partition("@data\n") if kind == "arff" else ("", "", text)
    lines = data.splitlines()
    i = rng.randrange(1 if kind == "csv" else 0, len(lines))
    cells = lines[i].split(",")
    if op == "truncate":  # end the file just after a comma
        lines[i] = ",".join(cells[:rng.randrange(1, len(cells))]) + ","
        del lines[i + 1:]
    else:  # a timestamp (csv) or a feature value (arff)
        cells[rng.randrange(len(cells) - 1) if kind == "arff" else 0] = bad_number
        lines[i] = ",".join(cells)
    return head + sep + "\n".join(lines) + "\n"


@pytest.mark.parametrize("seed", range(3))
def test_mutated_inputs_exit_2(valid, capsys, seed):
    d, texts = valid
    rng = random.Random(seed)
    for round_ in range(120):
        kind = KINDS[round_ % len(KINDS)]
        data = malformed_variant(kind, texts[kind], rng)
        assert_contract(run_with(capsys, d, kind, data),
                        f"seed {seed} round {round_} {kind} "
                        f"{data[:60]!r} ... {data[-60:]!r}")
