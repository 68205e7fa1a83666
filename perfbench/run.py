#!/usr/bin/env python3
"""Cold-cache end-to-end benchmark of the LT-cords reproduction.

    python3 perfbench/run.py --workload coverage|stream-seg|timing \\
        [--seed N] [--seconds S] [--trace 0|1]

Builds `ltsim` and the `perfbench` binary from the checkout this file
sits in (under $CARGO_TARGET_DIR, default `.bench_build`), then

* with `--trace 0` repeats cold runs of the workload for about
  `--seconds` seconds and reports the end-to-end metrics, each the median
  over the runs;
* with `--trace 1` makes the traced run: one cold run with its engine
  spans folded, then every crate timed one layer at a time, printed next
  to the end-to-end metric each layer should move.

Every cold run hashes the artifacts it wrote and compares them with the
reference digests under perfbench/reference/. The last line of standard
output is one JSON object with the keys correct, attempted, failed and
metrics. perfbench/README.md describes the workloads and metrics.
"""

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent

WORKLOADS = ("coverage", "stream-seg", "timing")
# Benchmarks, and segments per stream-seg trace, at each scale
# (src/workload.rs).
SCALES = {"full": (28, 8), "sample": (4, 8), "tiny": (2, 4)}
# `--seed` maps onto the trace seeds whose reference digests are recorded.
REFERENCE_SEEDS = 10
# Settings a cold run must not inherit from the caller's environment.
SCRUBBED = ("LTC_CHECKPOINT_DIR", "LTC_NO_WARM_IMAGES", "LTC_FAULT_INJECT", "LTC_TELEMETRY_WIRE")
# A `perfbench` process that outlives this is killed with its workers.
RUN_TIMEOUT_S = 170
# Extra launch-to-first-spec samples in a timed run of a workload whose
# set-up lasts milliseconds (the in-process `threads` workloads).
SETUP_SAMPLES = 19

E2E = (
    ("wall_s", "s"),
    ("cpu_s", "s"),
    ("setup_s", "s"),
    ("maccesses_per_s", "Maccesses/s"),
    ("peak_rss_mb", "MiB"),
)

# Per-layer metric, unit, crate, the end-to-end metric it should move, and
# on which workloads.
LAYERS = (
    ("trace.gen_ns", "ns/access", "ltc_trace", "cpu_s", "all"),
    ("trace.checkpoint_record_s", "s", "ltc_trace", "setup_s", "stream-seg"),
    ("trace.restore_ms", "ms/segment", "ltc_trace", "cpu_s", "stream-seg"),
    ("cache.access_ns", "ns/access", "ltc_cache", "cpu_s", "all"),
    ("cache.image_record_s", "s", "ltc_cache", "setup_s", "stream-seg"),
    ("cache.image_restore_ms", "ms/segment", "ltc_cache", "cpu_s", "stream-seg"),
    ("cache.image_mb", "MiB", "ltc_cache", "peak_rss_mb", "stream-seg"),
    ("cache.l1_misses", "count", "ltc_cache", "none (exact)", "-"),
    ("cache.l2_misses", "count", "ltc_cache", "none (exact)", "-"),
    ("lasttouch.record_ns", "ns/access", "ltc_lasttouch", "cpu_s", "coverage, timing"),
    ("core.ltcords_ns", "ns/access", "ltc_core", "cpu_s, wall_s", "coverage"),
    ("core.ltcords_timing_ns", "ns/access", "ltc_core", "cpu_s", "timing"),
    ("core.ltcords_memory_mb", "MiB", "ltc_core", "peak_rss_mb", "coverage"),
    ("core.useful_ratio", "ratio", "ltc_core", "none (exact)", "-"),
    ("core.signatures_streamed", "count", "ltc_core", "none (exact)", "-"),
    ("predictors.dbcp_unlimited_ns", "ns/access", "ltc_predictors", "cpu_s, wall_s", "coverage"),
    ("predictors.dbcp_unlimited_memory_mb", "MiB", "ltc_predictors", "peak_rss_mb", "coverage"),
    ("predictors.dbcp_2mb_timing_ns", "ns/access", "ltc_predictors", "cpu_s", "timing"),
    ("predictors.ghb_timing_ns", "ns/access", "ltc_predictors", "cpu_s", "timing"),
    ("predictors.dbcp_useful_ratio", "ratio", "ltc_predictors", "none (exact)", "-"),
    ("stream.spacesaving_ns", "ns/miss", "ltc_stream", "cpu_s, wall_s", "stream-seg"),
    ("stream.chh_ns", "ns/miss", "ltc_stream", "cpu_s", "stream-seg"),
    ("stream.partial_kb", "KiB/segment", "ltc_stream", "cpu_s", "stream-seg"),
    ("stream.evictions", "count", "ltc_stream", "none (exact)", "-"),
    ("timing.base_ns", "ns/access", "ltc_timing", "cpu_s", "timing"),
    ("timing.model_ns", "ns/access", "ltc_timing", "cpu_s", "timing"),
    ("timing.perfect_l1_ns", "ns/access", "ltc_timing", "cpu_s", "timing"),
    ("timing.big_l2_ns", "ns/access", "ltc_timing", "cpu_s", "timing"),
    ("timing.cycles", "count", "ltc_timing", "none (exact)", "-"),
    ("timing.mshr_stalls", "count", "ltc_timing", "none (exact)", "-"),
    ("analysis.coverage_walk_ns", "ns/access", "ltc_analysis", "cpu_s", "coverage"),
    ("analysis.segment_setup_ms", "ms/segment", "ltc_analysis", "cpu_s", "stream-seg"),
    ("analysis.merge_ms", "ms/benchmark", "ltc_analysis", "wall_s", "stream-seg"),
    ("engine.plan_ms", "ms", "ltc_sim::engine", "setup_s", "all"),
    ("engine.prepass_s", "s", "ltc_sim::engine", "setup_s, wall_s", "stream-seg"),
    ("engine.store_mb", "MiB", "ltc_sim::engine", "setup_s, cpu_s", "stream-seg"),
    ("engine.store_load_ms", "ms/trace", "ltc_sim::engine", "cpu_s", "stream-seg"),
    ("engine.artifact_write_ms", "ms/spec", "ltc_sim::engine", "wall_s", "all"),
    ("engine.wire_ms", "ms/spec", "ltc_sim::engine", "cpu_s, wall_s", "stream-seg"),
    ("engine.idle_frac", "ratio", "ltc_sim::engine", "wall_s", "all"),
    ("engine.reduce_ms", "ms/parent", "ltc_sim::engine", "wall_s", "stream-seg"),
    ("engine.retries", "count", "ltc_sim::engine", "wall_s, fail_ratio", "all"),
    ("telemetry.events_per_spec", "count", "ltc_telemetry", "cpu_s", "stream-seg"),
    ("traced.sum_s", "s", "traced run", "-", "-"),
    ("traced.unexplained_s", "s", "traced run", "-", "-"),
)
LAYER_UNITS = [(name, unit) for name, unit, *_ in LAYERS]


def say(*parts):
    print(*parts, flush=True)


def trace_seed(seed):
    """The trace seed a benchmark seed runs: 1 -> 1, ..., 10 -> 10, 11 -> 1."""
    return 1 + (seed - 1) % REFERENCE_SEEDS


def nproc():
    return len(os.sched_getaffinity(0))


def target_dir():
    return ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build")


class Tools:
    """The binaries a run drives."""

    def __init__(self, target):
        self.ltsim = target / "release" / "ltsim"
        self.perfbench = target / "perfbench" / "release" / "perfbench"


def build(target):
    """Builds `ltsim` in the root workspace and `perfbench` in its own
    workspace, each in its own target directory so that neither build
    invalidates the other's artifacts."""
    steps = (
        (["cargo", "build", "--release", "--offline", "--quiet", "-p", "ltc_bench", "--bin", "ltsim"],
         target),
        (["cargo", "build", "--release", "--offline", "--quiet",
          "--manifest-path", str(BENCH / "Cargo.toml")], target / "perfbench"),
    )
    for cmd, tdir in steps:
        env = dict(os.environ, CARGO_TARGET_DIR=str(tdir))
        if subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr).returncode != 0:
            sys.exit("perfbench: build failed: " + " ".join(cmd))
    return Tools(target)


def cold_env(fault=None):
    env = {k: v for k, v in os.environ.items() if k not in SCRUBBED}
    if fault:
        env["LTC_FAULT_INJECT"] = fault
    return env


def stop_group(pgid):
    """Kills what is left of a `perfbench` process group and waits until it is gone."""
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        return
    deadline = time.monotonic() + 10
    while time.monotonic() < deadline:
        try:
            os.killpg(pgid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.05)


def drive(tools, argv, env):
    """Runs `perfbench` in a process group of its own. Returns its report
    (the last stdout line, parsed), wall seconds, the resource usage of
    the whole reaped process tree, the exit code and the launch time."""
    launched = time.time()
    start = time.perf_counter()
    proc = subprocess.Popen([str(tools.perfbench), *argv], stdout=subprocess.PIPE, env=env,
                            start_new_session=True)
    timer = threading.Timer(RUN_TIMEOUT_S, stop_group, (proc.pid,))
    timer.start()
    try:
        out = proc.stdout.read()
    finally:
        timer.cancel()
        proc.stdout.close()
    _, status, usage = os.wait4(proc.pid, 0)
    wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    stop_group(proc.pid)
    lines = out.decode(errors="replace").strip().splitlines()
    try:
        doc = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        doc = None
    return doc, wall, usage, proc.returncode, launched


def cold_run(tools, work, workload, tseed, scale, threads, backend=None, spans=False,
             setup_only=False, fault=None):
    """One cold run: a fresh output directory and a scrubbed environment."""
    out = work / "out"
    shutil.rmtree(out, ignore_errors=True)
    argv = ["e2e", "--workload", workload, "--seed", str(tseed), "--scale", scale,
            "--threads", str(threads), "--ltsim", str(tools.ltsim), "--out", str(out)]
    if backend:
        argv += ["--backend", backend]
    if spans:
        argv.append("--spans")
    if setup_only:
        argv.append("--setup-only")
    load_before = os.getloadavg()[0]
    doc, wall, usage, rc, launched = drive(tools, argv, cold_env(fault))
    first = (doc or {}).get("first_spec_unix")
    return {
        "workload": workload, "scale": scale, "out": out, "doc": doc, "rc": rc,
        "wall_s": wall,
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "peak_rss_mb": usage.ru_maxrss / 1024.0,
        "setup_s": first - launched if first is not None else None,
        "load": (load_before, os.getloadavg()[0]),
    }


def digest(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()[:16]


def check_outputs(out, outputs, reference):
    """Artifacts whose bytes differ from their reference digest, plus
    reference entries the run did not produce. (A missing artifact is a
    failed output, which `perfbench e2e` counts.)"""
    mismatched = sum(1 for h in outputs
                     if (out / f"{h}.json").is_file() and reference.get(h) != digest(out / f"{h}.json"))
    return mismatched + len(set(reference) - set(outputs))


def judge(run, reference):
    """Fills in the run's attempted, failed and mismatched outputs. A run
    that exits non-zero fails all of its outputs; a `reference` of None
    skips the digest check."""
    doc = run["doc"]
    if run["rc"] != 0 or not doc or "outputs" not in doc:
        benchmarks, segments = SCALES[run["scale"]]
        expected = benchmarks * {"coverage": 2, "timing": 6, "stream-seg": segments + 1}[run["workload"]]
        run.update(attempted=expected, failed=expected, mismatches=0)
        return
    run["attempted"], run["failed"] = doc["attempted"], doc["failed"]
    run["mismatches"] = doc["differ"]
    if reference is not None:
        run["mismatches"] += check_outputs(run["out"], doc["outputs"], reference)


def load_reference(path, scale, tseed):
    """The digests recorded for trace seed `tseed`, or an empty map (then
    every output mismatches)."""
    try:
        ref = json.loads(Path(path).read_text())
    except FileNotFoundError:
        return {}
    return ref["seeds"].get(str(tseed), {}) if ref.get("scale") == scale else {}


def provenance(threads):
    def output(*argv):
        try:
            done = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=60)
        except OSError:
            return None
        return done.stdout.strip() if done.returncode == 0 else None

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next((line.split(":", 1)[1].strip() for line in f
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    sources = sorted(p for p in [ROOT / "Cargo.toml", ROOT / "Cargo.lock", *(ROOT / "crates").rglob("*")]
                     if p.is_file() and p.suffix in (".rs", ".toml", ".lock"))
    sha = hashlib.sha256()
    for p in sources:
        sha.update(str(p.relative_to(ROOT)).encode() + b"\0" + p.read_bytes())
    return {
        "commit": output("git", "rev-parse", "HEAD") or "unknown (not a git checkout)",
        "source_sha256": sha.hexdigest()[:16],
        "rustc": output("rustc", "-V"),
        "nproc": nproc(),
        "threads": threads,
        "cpu_model": cpu,
    }


def report_run(label, run):
    setup = f"{run['setup_s']:.4f} s" if run["setup_s"] is not None else "n/a"
    say(f"{label}: {run['workload']} wall {run['wall_s']:.3f} s, cpu {run['cpu_s']:.3f} s, "
        f"set-up {setup}, peak rss {run['peak_rss_mb']:.1f} MiB, "
        f"outputs {run['attempted'] - run['failed']}/{run['attempted']}, "
        f"mismatches {run['mismatches']}, exit {run['rc']}, "
        f"load {run['load'][0]:.2f} -> {run['load'][1]:.2f}")


def finish(runs, metrics, units):
    attempted = sum(r["attempted"] for r in runs)
    failed = sum(r["failed"] for r in runs)
    mismatches = sum(r["mismatches"] for r in runs)
    say(f"fail_ratio {failed / attempted:.4f} ratio ({failed} of {attempted} outputs without a valid result)")
    say(f"output_mismatches {mismatches} count")
    correct = failed == 0 and mismatches == 0 and all(r["rc"] == 0 for r in runs)
    say(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics.get(name), "unit": unit} for name, unit in units},
    }))


def timed_mode(a, tools, work, threads, tseed, reference):
    runs, setups = [], []
    start = time.perf_counter()
    while True:
        run = cold_run(tools, work, a.workload, tseed, a.scale, threads, fault=a.fault_inject)
        judge(run, reference)
        runs.append(run)
        report_run(f"cold run {len(runs)}", run)
        if run["setup_s"] is not None:
            setups.append(run["setup_s"])
        if run["rc"] != 0 or time.perf_counter() - start + 0.5 * run["wall_s"] > a.seconds:
            break
    # The in-process workloads set up in milliseconds, so a couple of
    # samples would leave the median to chance: sample it more often.
    if a.workload != "stream-seg" and all(r["rc"] == 0 for r in runs):
        for _ in range(SETUP_SAMPLES):
            sample = cold_run(tools, work, a.workload, tseed, a.scale, threads, setup_only=True)
            if sample["setup_s"] is not None:
                setups.append(sample["setup_s"])
    doc = runs[0]["doc"] or {}
    say(f"headline (modelled, unvalidated against hardware): {json.dumps(doc.get('headline'))}")
    accesses = doc.get("accesses")
    metrics = {key: statistics.median(r[key] for r in runs)
               for key in ("wall_s", "cpu_s", "peak_rss_mb")}
    metrics["setup_s"] = statistics.median(setups) if setups else None
    if accesses:
        metrics["maccesses_per_s"] = statistics.median(accesses / r["wall_s"] / 1e6 for r in runs)
    say(f"set-up samples: {len(setups)}; cold runs: {len(runs)}")
    finish(runs, metrics, E2E)


def fmt(value):
    return "n/a" if value is None else f"{value:.6g}"


def traced_mode(a, tools, work, threads, tseed, reference):
    main = cold_run(tools, work, a.workload, tseed, a.scale, threads, spans=True,
                    fault=a.fault_inject)
    judge(main, reference)
    report_run("traced cold run", main)
    runs = [main]
    if main["rc"] != 0 or not (main["doc"] or {}).get("engine"):
        finish(runs, {}, LAYER_UNITS)
        return
    # The subprocess wire's cost is a segmented stream's CPU on the
    # subprocess backend minus the same specs' CPU on threads; workloads
    # without segments measure it on a small stream-seg pair.
    stream_scale = a.scale if a.workload == "stream-seg" or a.scale == "tiny" else "sample"
    if a.workload == "stream-seg":
        sub = main
    else:
        sub = cold_run(tools, work, "stream-seg", tseed, stream_scale, threads, spans=True)
        judge(sub, None)
        report_run("wire pass, subprocess", sub)
        runs.append(sub)
    thr = cold_run(tools, work, "stream-seg", tseed, stream_scale, threads, backend="threads")
    judge(thr, reference if a.workload == "stream-seg" else None)
    report_run("wire pass, threads", thr)
    runs.append(thr)
    if any(r["rc"] != 0 for r in runs):
        finish(runs, {}, LAYER_UNITS)
        return

    doc, wall, _, rc, _ = drive(tools, ["layers", "--workload", a.workload, "--seed", str(tseed),
                                        "--scale", a.scale, "--out", str(work / "layers")],
                                cold_env())
    if rc != 0 or not doc:
        sys.exit("perfbench: the per-layer pass failed")
    say(f"per-layer pass: {wall:.1f} s wall")
    values, scope = dict(doc["metrics"]), dict(doc["scope"])
    engine = main["doc"]["engine"]
    for name, key in (("engine.plan_ms", "plan_ms"), ("engine.artifact_write_ms", "artifact_write_ms"),
                      ("engine.idle_frac", "idle_frac"), ("engine.retries", "retries"),
                      ("telemetry.events_per_spec", "events_per_spec")):
        values[name], scope[name] = engine[key], f"{a.workload} cold run"
    children = len(sub["doc"]["children"])
    values["engine.reduce_ms"] = sub["doc"]["engine"]["reduce_ms"]
    values["engine.wire_ms"] = (sub["cpu_s"] - thr["cpu_s"]) / children * 1e3
    scope["engine.reduce_ms"] = f"stream-seg {stream_scale} cold run"
    scope["engine.wire_ms"] = f"stream-seg {stream_scale}, subprocess - threads"

    outputs = len(main["doc"]["outputs"])
    parts = [tuple(part) for part in doc["self_s"]]
    parts.append(("planning on a cold cache (engine.plan_ms)", engine["plan_ms"] / 1e3))
    parts.append((f"artifact writes, {outputs} outputs (engine.artifact_write_ms)",
                  engine["artifact_write_ms"] * outputs / 1e3))
    if a.workload == "stream-seg":
        parents = outputs - children
        parts.append((f"segment reduce, {parents} parents (engine.reduce_ms)",
                      values["engine.reduce_ms"] * parents / 1e3))
        parts.append((f"subprocess wire and store loads, {children} specs (engine.wire_ms)",
                      values["engine.wire_ms"] * children / 1e3))
    total = sum(secs for _, secs in parts)
    values["traced.sum_s"] = total
    values["traced.unexplained_s"] = main["cpu_s"] - total

    say(f"\nreconciliation: workload {a.workload}, trace seed {tseed}, {threads} threads")
    say(f"{'metric':36} {'value':>12} {'unit':12} {'crate':16} {'should move':19} "
        f"{'on workloads':17} measured on")
    for name, unit, crate, moves, on in LAYERS[:-2]:
        say(f"{name:36} {fmt(values.get(name)):>12} {unit:12} {crate:16} {moves:19} {on:17} "
            f"{scope.get(name, '')}")
    say("\nself-time components, summed against the traced cold run's cpu_s:")
    for part, secs in parts:
        say(f"  {secs:9.3f} s  {part}")
    say(f"traced.sum_s {total:.3f} s; cpu_s {main['cpu_s']:.3f} s; "
        f"traced.unexplained_s {values['traced.unexplained_s']:+.3f} s "
        "(replaying from memory skips work, so the gap may fall either way)")
    finish(runs, values, LAYER_UNITS)


def record_mode(a, tools, work, threads, tseed, path):
    """Records the reference digests of one trace seed."""
    run = cold_run(tools, work, a.workload, tseed, a.scale, threads)
    judge(run, None)
    report_run("reference run", run)
    if run["rc"] != 0 or run["failed"] or run["mismatches"]:
        sys.exit("perfbench: the reference run did not complete cleanly")
    try:
        ref = json.loads(path.read_text())
    except FileNotFoundError:
        ref = {"workload": a.workload, "scale": a.scale, "seeds": {}}
    if ref["scale"] != a.scale:
        sys.exit(f"perfbench: {path} holds {ref['scale']}-scale digests")
    ref["seeds"][str(tseed)] = {h: digest(run["out"] / f"{h}.json") for h in run["doc"]["outputs"]}
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(ref, indent=0, sort_keys=True) + "\n")
    say(f"recorded {len(ref['seeds'][str(tseed)])} digests for trace seed {tseed} in {path}")


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=1,
                   help="benchmark seed; runs trace seed 1 + (seed - 1) mod %d" % REFERENCE_SEEDS)
    p.add_argument("--seconds", type=float, default=35, help="measuring time of a timed run")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--scale", choices=("full", "tiny"), default="full",
                   help="tiny: the self-tests' two benchmarks at a few thousand accesses")
    p.add_argument("--reference", type=Path,
                   help="reference digests (default perfbench/reference/WORKLOAD.json)")
    p.add_argument("--record", action="store_true",
                   help="record the trace seed's reference digests instead of measuring")
    p.add_argument("--fault-inject", help="LTC_FAULT_INJECT directive for the measured run")
    a = p.parse_args()
    if not (ROOT / "Cargo.toml").is_file() or not (ROOT / "crates" / "sim").is_dir():
        sys.exit(f"perfbench: no simulator sources under {ROOT}")
    target = target_dir()
    tools = build(target)
    threads = nproc()
    tseed = trace_seed(a.seed)
    ref_path = a.reference or BENCH / "reference" / f"{a.workload}.json"
    work = target / "perfbench-work" / str(os.getpid())
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        if a.record:
            record_mode(a, tools, work, threads, tseed, ref_path)
            return
        say("provenance " + json.dumps(provenance(threads)))
        say(f"workload {a.workload}, seed {a.seed} -> trace seed {tseed}, scale {a.scale}, "
            f"{threads} threads (nproc)")
        reference = load_reference(ref_path, a.scale, tseed)
        (traced_mode if a.trace else timed_mode)(a, tools, work, threads, tseed, reference)
    finally:
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    main()
