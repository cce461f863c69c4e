#!/usr/bin/env python3
"""e1: end-to-end campaign benchmark runner.

Builds bench/e1 (the repository's `aa` library plus bench_e1_campaign)
into .bench_build/e1, runs one bench_e1_campaign process per workload so
each workload's peak RSS is its own, turns the raw samples into metrics,
prints one `METRIC <workload> <name> <value> <unit>` line per metric,
writes BENCH_e1_campaign.json, and ends with one JSON line:

  {"correct": true, "attempted": 960, "failed": 0, "metrics": {...}}

`--workload W --seed N --seconds S --trace 0|1` is the interface the
`command` of the root BENCHMARK.json is run with; --seconds defaults to
its `run_seconds`. With --trace 0 the metrics are the end-to-end set of
BENCHMARK.json, with --trace 1 the per-layer set (a separate traced run).
End-to-end times are scaled to the reference host's speed, which an
interleaved probe measures (end_to_end() below); the wall-clock rates and
set-up time are printed too, ungated. With --repeat, each value is the median over the
runs; BENCH_e1_campaign.json also keeps the quartiles and sample counts.
Exit status: 0 when every output check held, 1 when one failed (the
result is still printed), 2 when the benchmark could not run at all
(nothing is printed).

  python3 bench/e1/run.py --workload adaptive-window --seed 4242
  python3 bench/e1/run.py --seed 4242 --trace 1      # every workload, traced
  python3 bench/e1/run.py --repeat 5                 # one comparison set
  python3 bench/e1/run.py --smoke                    # every check, 2 trials/cell
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import shutil
import signal
import statistics
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent.parent
WORKLOADS = ["adaptive-window", "large-n-static", "async-crash",
             "campaign-sweep"]
DEFAULT_SEED = 4242
HOLDOUT_SEED = 90210
BUILD_TIMEOUT_S = 870
RUN_TIMEOUT_S = 170

# (name, unit) in the order BENCHMARK.json lists them. Times are scaled to
# the reference host's speed (host_speed below); "ref-s" is one second there.
END_TO_END = [
    ("trials_per_ref_s", "trials/ref-s"),
    ("steps_per_ref_s", "steps/ref-s"),
    ("deliveries_per_ref_s", "msgs/ref-s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
]

# Layer name in the binary's trace -> metric prefix.
LAYERS = ["sim.publish", "sim.validate", "sim.deliver", "sim.reset",
          "sim.sweep", "sim.receive", "sim.loop", "adversary.plan",
          "adversary.next", "protocols.compute", "core.trial_setup",
          "core.merge", "core.artifact", "lens.fold"]

PER_LAYER = [
    ("sim.windows", "count"),
    ("sim.deliveries", "count"),
    ("sim.publish.calls", "count"),
    ("sim.publish.msgs", "count"),
    ("sim.publish.self_share", "fraction"),
    ("sim.validate.calls", "count"),
    ("sim.validate.self_share", "fraction"),
    ("sim.deliver.rows", "count"),
    ("sim.deliver.msgs", "count"),
    ("sim.deliver.splice_share", "fraction"),
    ("sim.deliver.self_share", "fraction"),
    ("sim.reset.calls", "count"),
    ("sim.reset.self_share", "fraction"),
    ("sim.sweep.calls", "count"),
    ("sim.sweep.dropped_msgs", "count"),
    ("sim.sweep.self_share", "fraction"),
    ("sim.receive.calls", "count"),
    ("sim.receive.self_share", "fraction"),
    ("sim.loop.self_share", "fraction"),
    ("adversary.plan.calls", "count"),
    ("adversary.plan.updated_share", "fraction"),
    ("adversary.plan.self_share", "fraction"),
    ("adversary.next.calls", "count"),
    ("adversary.next.deliver_share", "fraction"),
    ("adversary.next.self_share", "fraction"),
    ("protocols.compute.calls", "count"),
    ("protocols.compute.envelopes", "count"),
    ("protocols.compute.self_share", "fraction"),
    ("core.trial.count", "count"),
    ("core.trial.p50_ms", "ms"),
    ("core.trial.tail_ms", "ms"),
    ("core.trial.tail_pct", "percentile"),
    ("core.trial_setup.self_share", "fraction"),
    ("core.merge.calls", "count"),
    ("core.merge.self_share", "fraction"),
    ("core.artifact.files", "count"),
    ("core.artifact.bytes", "bytes"),
    ("core.artifact.self_share", "fraction"),
    ("core.resume.cells", "count"),
    ("core.resume.share", "fraction"),
    ("lens.fold.calls", "count"),
    ("lens.fold.self_share", "fraction"),
    ("util.pool.threads", "count"),
    ("util.pool.speedup", "x"),
    ("util.pool.efficiency", "fraction"),
    ("trace.wall_s", "s"),
    ("trace.overhead", "fraction"),
    ("trace.coverage", "fraction"),
]


class BenchError(Exception):
    """The benchmark could not run (build failure, missing files)."""


# ------------------------------------------------------------------ stats


def quartiles(values):
    """(q1, median, q3) as statistics.quantiles(values, n=4) gives them."""
    values = list(values)
    if not values:
        raise ValueError("quartiles of no samples")
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def summarize(values):
    q1, med, q3 = quartiles(values)
    return {"median": med, "q1": q1, "q3": q3, "n": len(values)}


def spread(values):
    """Quartile distance as a share of the median (0 for one sample)."""
    q1, med, q3 = quartiles(values)
    return (q3 - q1) / abs(med) if med else float("inf")


def tail_percentile(values, min_beyond=10, candidates=(99, 95, 90, 75)):
    """(pct, value): the highest candidate percentile with at least
    `min_beyond` samples above it, falling back to the median (pct 50)."""
    values = list(values)
    if len(values) >= 2:
        cuts = statistics.quantiles(values, n=100)
        for pct in candidates:
            q = cuts[pct - 1]
            if sum(1 for v in values if v > q) >= min_beyond:
                return pct, q
    return 50, statistics.median(values)


def failed_share(violating, missing, attempted):
    """Trials with an agreement or validity violation plus requested trials
    missing from the report, over trials attempted."""
    if attempted <= 0:
        raise ValueError("failed_share needs at least one attempted trial")
    return (violating + missing) / attempted


# ---------------------------------------------------------------- metrics


def host_speed(raw):
    """The host's speed while the run's sweeps ran, 1.0 = reference host.

    The host-speed probe ran after every timed sweep for a fixed share of
    its wall time; this is its rate over the whole run (total units over
    total seconds) over the rate it had on the reference host."""
    probe = raw["probe"]
    seconds = sum(probe["seconds"])
    if seconds <= 0:
        raise BenchError("the host-speed probe did not run")
    return sum(probe["units"]) / seconds / probe["reference_rate"]


def setup_ref_s(raw):
    """Set-up time on the reference host, in seconds.

    Every set-up sample comes with one probe unit timed right after it, at
    the same moment of the host. Each sample over its unit is the set-up
    time in probe units; the median of these, times a unit's time on the
    reference host, is the set-up time there."""
    units = raw["setup_unit_s"]
    if not units or min(units) <= 0:
        raise BenchError("set-up samples without a timed probe unit")
    ratios = [s / u for s, u in zip(raw["setup_s"], units)]
    return statistics.median(ratios) / raw["probe"]["reference_rate"]


def end_to_end(raw):
    """Every end-to-end metric from one trace-0 run, as {name: samples}.

    Throughput is the work of all timed sweeps over their total wall time,
    divided by host_speed(): the rate the sweeps would have had on the
    reference host. The host's speed drifts by up to 2x over minutes, and
    the ratio cancels what the probe and the sweeps both felt. setup_s is
    setup_ref_s()."""
    sweeps = raw["sweep_s"]
    per_ref_s = len(sweeps) / sum(sweeps) / host_speed(raw)
    steps = raw["windows"] if raw["model"] == "window" else raw["deliveries"]
    return {
        "trials_per_ref_s": [raw["trials_per_sweep"] * per_ref_s],
        "steps_per_ref_s": [steps * per_ref_s],
        "deliveries_per_ref_s": [raw["deliveries"] * per_ref_s],
        "setup_s": [setup_ref_s(raw)],
        "peak_rss_mb": [raw["peak_rss_mb"]],
    }


def extras(raw):
    """Printed but not gated: wall-clock rates and set-up time, which
    carry the host's drift, the host's speed, and metrics not on every
    workload or that can be 0."""
    out = {}
    if "sweep_s" in raw:
        sweeps = raw["sweep_s"]
        out["setup_wall_s"] = ([statistics.median(raw["setup_s"])], "s")
        out["trials_per_s"] = ([raw["trials_per_sweep"] / s for s in sweeps],
                               "trials/s")
        out["deliveries_per_s"] = ([raw["deliveries"] / s for s in sweeps],
                                   "msgs/s")
        if raw["model"] == "window":
            out["windows_per_s"] = ([raw["windows"] / s for s in sweeps],
                                    "windows/s")
        out["host_speed"] = ([host_speed(raw)], "x")
    sweeps = raw["attempted"] // max(1, raw["trials_per_sweep"])
    if raw["attempted"] > 0:
        out["failed_share"] = ([failed_share(raw["violations"] * sweeps,
                                             raw["missing"],
                                             raw["attempted"])], "fraction")
    return out


def per_layer(raw):
    """Every per-layer metric from one trace-1 run, as {name: samples}."""
    passes = raw["passes"]
    c = passes[0]["counters"]
    for p in passes[1:]:
        if p["counters"] != c:
            raise BenchError("traced passes disagree on their work counts")

    def share(layer):
        return [p["layers"][layer]["s"] / p["wall_s"] for p in passes]

    def ratio(num, den):
        return [c[num] / c[den] if c[den] else 0.0]

    trial_pct, trial_tail = tail_percentile(raw["trial_ms"])
    threads = raw["pool"]["threads"]
    one_thread = statistics.median(raw["pool"]["sweep_1thread_s"])
    speedup = one_thread / statistics.median(raw["pool"]["sweep_s"])
    traced = statistics.median(p["wall_s"] for p in passes)
    untraced = statistics.median(raw["untraced_s"])
    out = {
        "sim.windows": [c["windows"]],
        "sim.deliveries": [c["row_msgs"] + c["receives"]],
        "sim.publish.calls": [c["publish_calls"]],
        "sim.publish.msgs": [c["publish_msgs"]],
        "sim.validate.calls": [c["validate_calls"]],
        "sim.deliver.rows": [c["rows"]],
        "sim.deliver.msgs": [c["row_msgs"]],
        "sim.deliver.splice_share": ratio("splice_rows", "delivering_rows"),
        "sim.reset.calls": [c["resets"] + c["crashes"]],
        "sim.sweep.calls": [c["windows"]],
        "sim.sweep.dropped_msgs": [c["dropped"]],
        "sim.receive.calls": [c["receives"]],
        "adversary.plan.calls": [c["plan_calls"]],
        "adversary.plan.updated_share": ratio("plan_updated", "plan_calls"),
        "adversary.next.calls": [c["next_calls"]],
        "adversary.next.deliver_share": ratio("next_delivers", "next_calls"),
        "protocols.compute.calls": [c["compute_calls"]],
        "protocols.compute.envelopes": [c["compute_envelopes"]],
        "core.trial.count": [c["trials"]],
        "core.trial.p50_ms": [statistics.median(raw["trial_ms"])],
        "core.trial.tail_ms": [trial_tail],
        "core.trial.tail_pct": [trial_pct],
        "core.merge.calls": [c["merge_calls"]],
        "core.artifact.files": [c["artifact_files"]],
        "core.artifact.bytes": [c["artifact_bytes"]],
        "core.resume.cells": [raw["resume"]["cells"]],
        "core.resume.share": [raw["resume"]["wall_s"] / one_thread],
        "lens.fold.calls": [c["lens_folds"]],
        "util.pool.threads": [threads],
        "util.pool.speedup": [speedup],
        "util.pool.efficiency": [speedup / threads],
        "trace.wall_s": [p["wall_s"] for p in passes],
        "trace.overhead": [traced / untraced - 1.0],
        "trace.coverage": [1.0 - p["layers"]["bench.glue"]["s"] / p["wall_s"]
                           for p in passes],
    }
    for layer in LAYERS:
        out[layer + ".self_share"] = share(layer)
    return out


# ------------------------------------------------------------ build & run


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def run_seconds():
    """run_seconds of the root BENCHMARK.json: the measuring time per run."""
    path = ROOT / "BENCHMARK.json"
    try:
        return json.loads(path.read_text())["run_seconds"]
    except (OSError, ValueError, KeyError) as exc:
        raise BenchError(f"cannot read run_seconds from {path}: {exc}") from exc


def build(build_dir, jobs):
    """Configure (once) and build bench_e1_campaign; return its path."""
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        raise BenchError(f"no repository sources around {HERE}")
    steps = []
    if not (build_dir / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(build_dir),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(build_dir), "--target",
                  "bench_e1_campaign", "-j", str(jobs)])
    for cmd in steps:
        try:
            proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                                  stderr=subprocess.STDOUT, text=True,
                                  timeout=BUILD_TIMEOUT_S)
        except (OSError, subprocess.TimeoutExpired) as exc:
            raise BenchError(f"{' '.join(cmd)}: {exc}") from exc
        if proc.returncode != 0:
            log(proc.stdout)
            raise BenchError(f"{' '.join(cmd)} exited {proc.returncode}")
    binary = build_dir / "bench_e1_campaign"
    if not binary.is_file():
        raise BenchError(f"build produced no {binary}")
    return binary


def run_workload(binary, workload, seed, seconds, trace, smoke, out_dir):
    """One bench_e1_campaign process; returns its raw-sample record."""
    config = HERE / "workloads" / f"{workload}.cfg"
    if not config.is_file():
        raise BenchError(f"no workload config {config}")
    cmd = [str(binary), "--workload", workload, "--config", str(config),
           "--seed", str(seed), "--seconds", str(seconds),
           "--out", str(out_dir)]
    if trace:
        cmd.append("--trace")
    if smoke:
        cmd.append("--smoke")
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as exc:
        raise BenchError(f"{workload}: {exc}") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode not in (0, 1) or not lines:
        raise BenchError(f"{workload}: bench_e1_campaign exited "
                         f"{proc.returncode}")
    return json.loads(lines[-1])


def fingerprint_of(raws):
    """Host fingerprint shared by every run, plus threads per workload."""
    first = raws[0]["fingerprint"]
    fp = {"nproc": first["nproc"], "compiler": first["compiler"],
          "build_type": first["build_type"],
          "threads": {r["workload"]: r["fingerprint"]["threads"]
                      for r in raws}}
    fp["id"] = fingerprint_id(fp)
    return fp


def fingerprint_id(fp):
    text = f"{fp['nproc']}c-{fp['compiler']}-{fp['build_type']}".lower()
    return "".join(ch if ch.isalnum() or ch in "._-" else "-" for ch in text)


def write_atomic(path, text):
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_text(text)
    os.replace(tmp, path)


def main(argv=None):
    ap = argparse.ArgumentParser(
        description="e1 end-to-end campaign benchmark (see module docstring)")
    ap.add_argument("--workload", "--workloads", dest="workloads",
                    action="append", default=None,
                    help="workload name(s), comma-separated or repeated "
                         f"(default: all of {', '.join(WORKLOADS)})")
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED,
                    help=f"workload seed (default {DEFAULT_SEED}; the "
                         f"holdout seed is {HOLDOUT_SEED})")
    ap.add_argument("--seconds", type=float, default=None,
                    help="measuring time per workload run (default: "
                         "run_seconds of BENCHMARK.json)")
    ap.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                    choices=(0, 1), help="1: the traced per-layer run")
    ap.add_argument("--repeat", type=int, default=1,
                    help="runs per workload, interleaved (a comparison set)")
    ap.add_argument("--smoke", action="store_true",
                    help="2 trials per cell, one sweep: exercises every check")
    ap.add_argument("--build", type=pathlib.Path,
                    default=pathlib.Path(".bench_build") / "e1",
                    help="build directory (default .bench_build/e1)")
    ap.add_argument("--out", type=pathlib.Path, default=pathlib.Path("."),
                    help="where BENCH_e1_campaign.json goes (default .)")
    args = ap.parse_args(argv)
    # SIGTERM becomes SystemExit, which unwinds through subprocess.run: it
    # kills and reaps the running benchmark process before we exit.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    workloads = []
    for item in args.workloads or [",".join(WORKLOADS)]:
        workloads += [w for w in item.split(",") if w]
    unknown = [w for w in workloads if w not in WORKLOADS]
    if unknown or args.repeat < 1:
        ap.error(f"unknown workload(s) {unknown}" if unknown
                 else "--repeat must be at least 1")
    try:
        seconds = args.seconds
        if seconds is None:
            seconds = run_seconds()
        binary = build(args.build.resolve(), min(4, os.cpu_count() or 1))
        out_dir = args.build.resolve() / "out"
        out_dir.mkdir(parents=True, exist_ok=True)
        for stale in out_dir.glob("tmp-*"):  # left by a killed run
            shutil.rmtree(stale, ignore_errors=True)
        raws = {w: [] for w in workloads}
        for _ in range(args.repeat):
            for w in workloads:
                raws[w].append(run_workload(binary, w, args.seed, seconds,
                                            args.trace, args.smoke, out_dir))
    except BenchError as exc:
        log(f"e1: {exc}")
        return 2

    units = dict(PER_LAYER if args.trace else END_TO_END)
    doc = {"bench": "e1_campaign", "seed": args.seed, "trace": args.trace,
           "seconds": seconds, "repeat": args.repeat, "smoke": args.smoke,
           "fingerprint": fingerprint_of([r for w in workloads
                                          for r in raws[w]]),
           "workloads": {}}
    correct = True
    attempted = failed = 0
    result_metrics = {}
    for w in workloads:
        runs = raws[w]
        metrics = {}
        for raw in runs:
            try:
                values = per_layer(raw) if args.trace else end_to_end(raw)
            except BenchError as exc:
                log(f"e1: {w}: {exc}")
                return 2
            for name, samples in values.items():
                metrics.setdefault(name, ([], units[name]))[0].append(
                    statistics.median(samples))
            for name, (samples, unit) in extras(raw).items():
                metrics.setdefault(name, ([], unit))[0].append(
                    statistics.median(samples))
        digests = {r["digest"] for r in runs}
        ok = all(all(r["checks"].values()) for r in runs) and len(digests) == 1
        correct = correct and ok
        attempted += sum(r["attempted"] for r in runs)
        failed += sum(r["failed"] for r in runs)
        record = {"digest": sorted(digests), "checks_ok": ok,
                  "attempted": sum(r["attempted"] for r in runs),
                  "failed": sum(r["failed"] for r in runs),
                  "violations_per_sweep": runs[0]["violations"],
                  "metrics": {}}
        print(f"DIGEST {w} {' '.join(sorted(digests))}")
        for name, (samples, unit) in metrics.items():
            stats = summarize(samples)
            record["metrics"][name] = {"unit": unit, "samples": samples,
                                       **stats}
            print(f"METRIC {w} {name} {stats['median']!r} {unit}")
            if name in units:
                key = name if len(workloads) == 1 else f"{w}/{name}"
                result_metrics[key] = {"value": stats["median"], "unit": unit}
        doc["workloads"][w] = record

    args.out.mkdir(parents=True, exist_ok=True)
    write_atomic(args.out / "BENCH_e1_campaign.json",
                 json.dumps(doc, indent=2) + "\n")
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": result_metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
