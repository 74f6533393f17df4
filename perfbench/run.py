"""driveguard benchmark: one seeded workload per run, one JSON result line.

    python3 perfbench/run.py --workload live --seed 1 --seconds 25 --trace 0

Runs from the root of a source checkout and imports the package from
its ``src/`` directory. With ``--trace 0`` the result holds the
end-to-end metrics; with ``--trace 1`` it holds the per-layer metrics of
a traced run, whose spans are also written to
``.perfbench_out/trace-<workload>-seed<n>.json``. The last line of
standard output is the result; lines before it report the workload's
own journey metrics and input sizes. ``--workload all`` runs the three
workloads one after another in child processes.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import uuid
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKLOAD_NAMES = ("live", "score", "evaluate")
# set-up is repeated and its median reported, so one slow set-up does
# not move setup_s
SETUP_REPEATS = 5


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=(*WORKLOAD_NAMES, "all"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=25.0,
                   help="how long the timed passes run")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=("full", "tiny"), default="full",
                   help="input size; tiny is for the smoke test")
    return p.parse_args(argv)


def import_package():
    """Import driveguard from this checkout's src/, never from elsewhere."""
    if not (SRC / "driveguard" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no driveguard package under {SRC}")
    sys.path.insert(0, str(SRC))
    import driveguard
    if Path(driveguard.__file__).resolve().parent != (SRC / "driveguard").resolve():
        raise SystemExit(f"perfbench: imported driveguard from {driveguard.__file__}")


def peak_rss_mib():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# ---------------------------------------------------------------------------
# per-layer metrics of a traced run


def per_layer(setup, run, overhead_pct):
    """Per-layer metrics from the traced set-up and the traced passes."""
    def per_call(name, scale):
        return run.mean_ns(name) / scale

    def rate(count, name, scale):
        ns = run.total_ns(name)
        return run.counts.get(count, 0) / ns * scale if ns else 0.0

    ok = run.counts.get("protocol.frames_ok", 0)
    corrupt = run.counts.get("protocol.frames_corrupt", 0)
    hop_ns = run.lists.get("stream.hop_ns", [])
    samples = run.calls("stream.process_sample")
    non_hop = samples - len(hop_ns)
    hop_p50, hop_p99 = np.percentile(hop_ns, [50, 99]) / 1e3 if hop_ns else (0.0, 0.0)
    mlp_steps = run.counts.get("classify.mlp_steps", 0)
    calibrations = run.calls("stream.calibrate")

    m = {
        "protocol.feed_MBps": (rate("protocol.feed_bytes", "protocol.feed", 1e3), "MB/s"),
        "protocol.frames_ok": (ok, "count"),
        "protocol.frames_corrupt": (corrupt, "count"),
        "protocol.frame_yield": (ok / (ok + corrupt) if ok + corrupt else 0.0, "ratio"),
        "protocol.oneshot_MBps": (rate("protocol.oneshot_bytes", "protocol.oneshot", 1e3), "MB/s"),
        "protocol.read_session_MBps": (
            rate("protocol.read_session_bytes", "protocol.read_session", 1e3), "MB/s"),
        "protocol.arff_write_ms": (per_call("protocol.arff_write", 1e6), "ms"),
        "protocol.arff_read_ms": (per_call("protocol.arff_read", 1e6), "ms"),
        "model.eeg_sample_ns": (per_call("model.eeg_sample", 1.0), "ns"),
        "stream.sample_ns": (
            (run.total_ns("stream.process_sample") - sum(hop_ns)) / non_hop
            if non_hop else 0.0, "ns"),
        "stream.hop_us_p50": (float(hop_p50), "us"),
        "stream.hop_us_p99": (float(hop_p99), "us"),
        "stream.hops": (len(hop_ns), "count"),
        "stream.alerts": (run.counts.get("stream.alerts", 0), "count"),
        "stream.replay_hops_per_s": (rate("stream.replay_hops", "stream.replay", 1e9), "1/s"),
        "stream.calibrate_search_ms": (
            run.self_ns("stream.calibrate") / calibrations / 1e6 if calibrations else 0.0,
            "ms"),
        "dsp.band_powers_us": (per_call("dsp.band_powers", 1e3), "us"),
        "dsp.band_powers_calls": (run.calls("dsp.band_powers"), "count"),
        "dsp.band_powers_fft_us": (per_call("dsp.band_powers_fft", 1e3), "us"),
        "dsp.features_ms": (per_call("dsp.features", 1e6), "ms"),
        "wavelet.dwt_us": (per_call("wavelet.dwt", 1e3), "us"),
        "index.di_us": (per_call("index.di", 1e3), "us"),
        "classify.mlp_fit_s": (per_call("classify.mlp_fit", 1e9), "s"),
        "classify.mlp_step_us": (
            run.total_ns("classify.mlp_fit") / mlp_steps / 1e3 if mlp_steps else 0.0, "us"),
        "classify.gnb_fit_ms": (per_call("classify.gnb_fit", 1e6), "ms"),
        "classify.predict_ms": (per_call("classify.predict", 1e6), "ms"),
        "synth.generate_s": (setup.total_ns("synth.generate") / 1e9, "s"),
        "protocol.write_session_s": (setup.total_ns("protocol.write_session") / 1e9, "s"),
        "protocol.encode_s": (setup.total_ns("protocol.encode") / 1e9, "s"),
    }
    for command in ("calibrate", "stream", "features", "train-eval"):
        name = f"cli.{command}"
        calls = run.calls(name)
        m[f"{name}.self_ms"] = (run.self_ns(name) / calls / 1e6 if calls else 0.0, "ms")
    # synth runs only in set-up, so it has no share of the timed passes
    layer_ns = run.layer_self_ns()
    total = sum(layer_ns.values())
    for layer, ns in layer_ns.items():
        if layer != "synth":
            m[f"{layer}.share_pct"] = (100.0 * ns / total if total else 0.0, "%")
    m["trace.overhead_pct"] = (overhead_pct, "%")
    return m


# ---------------------------------------------------------------------------
# one workload


def run_workload(args, workdir):
    import tracing
    from workloads import WORKLOADS, at_reference_speed, probe_ns

    run_id = uuid.uuid4().hex
    w = WORKLOADS[args.workload](args.seed, args.size, str(workdir))
    setup_wall_s, setup_s = [], []
    setup_tracer = tracing.Tracer(run_id) if args.trace else None
    for _ in range(1 if args.trace else SETUP_REPEATS):
        before = probe_ns()
        t0 = time.perf_counter_ns()
        if setup_tracer is not None:
            with tracing.rebound(setup_tracer):
                setup_tracer.wrap("bench.setup", w.setup, span=True)()
        else:
            w.setup()
        wall = time.perf_counter_ns() - t0
        setup_wall_s.append(wall / 1e9)
        setup_s.append(at_reference_speed(wall, [before, probe_ns()]) / 1e9)

    # with --trace 1, untraced and traced passes alternate, so the tracing
    # overhead is measured against the same inputs at the same time
    tracer = tracing.Tracer(run_id) if args.trace else None
    deadline = time.monotonic() + args.seconds
    i = 0
    while True:
        if tracer is not None and i % 2 == 1:
            with tracing.rebound(tracer):
                tracer.wrap("bench.pass", w.run_pass, span=True)(tracer)
        else:
            w.run_pass()
        i += 1
        if time.monotonic() >= deadline and i >= (2 if tracer else 1):
            break
    w.verify()

    ops = w.ops()
    failed = [op for op in ops if not op.ok]
    for op in failed[:20]:
        print(f"perfbench: {args.workload} {op.name} failed: {op.note}", file=sys.stderr)
    untraced = [p for p in w.passes if not p.traced]
    rates = [p.x_realtime for p in untraced]
    wall_rates = [p.x_realtime_wall for p in untraced]
    report = {
        "setup_wall_s": (statistics.median(setup_wall_s), "s"),
        "peak_rss_mb": (peak_rss_mib(), "MiB"),
        "fail_ratio": (len(failed) / len(ops), "ratio"),
        "x_realtime_wall": (statistics.median(wall_rates), "s/s"),
        **w.report(),
        "passes": (len(untraced), "count"),
    }
    print(f"# {args.workload} seed {args.seed}: {json.dumps(w.facts())}")
    print(f"# {args.workload} x_realtime per untraced pass, wall and at reference "
          f"speed: {json.dumps([[round(a, 1), round(b, 1)] for a, b in zip(wall_rates, rates)])}")
    for name, (value, unit) in report.items():
        print(f"# {args.workload} {name} = {value:.6g} {unit}")

    if tracer is not None:
        traced_rates = [p.x_realtime_wall for p in w.passes if p.traced]
        overhead = (statistics.median(wall_rates) / statistics.median(traced_rates) - 1) * 100
        metrics = per_layer(setup_tracer, tracer, overhead)
        tracing.write_trace(str(ROOT / ".perfbench_out" /
                                f"trace-{args.workload}-seed{args.seed}.json"),
                            setup_tracer, tracer)
        shares = {k: round(v, 1) for k, (v, _) in metrics.items() if k.endswith(".share_pct")}
        print(f"# {args.workload} layer self-time share %: {json.dumps(shares)}")
    else:
        metrics = {
            "setup_s": (statistics.median(setup_s), "s"),
            "peak_rss_mb": report["peak_rss_mb"],
            "ok_ratio": (1 - report["fail_ratio"][0], "ratio"),
            "x_realtime": (statistics.median(rates), "s/s"),
        }
    return {
        "correct": not failed,
        "attempted": len(ops),
        "failed": len(failed),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def run_all(args):
    """Each workload in its own process, so set-up time and RSS stay apart."""
    results = {}
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--size", args.size]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=False)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines:
            raise SystemExit(f"perfbench: workload {name} exited {proc.returncode}")
        results[name] = json.loads(lines[-1])
    return {
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{name}.{k}": v for name, r in results.items()
                    for k, v in r["metrics"].items()},
    }


def main(argv=None):
    args = parse_args(argv)
    import_package()
    if args.workload == "all":
        result = run_all(args)
    else:
        workdir = ROOT / ".perfbench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
        workdir.mkdir(parents=True)
        try:
            result = run_workload(args, workdir)
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
