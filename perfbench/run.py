#!/usr/bin/env python3
"""The benchmark's one command.

    python3 perfbench/run.py --workload fleet_10k|seed_batch \
        --seed N --seconds S --trace 0|1

Run from the root of a source checkout. Builds perfbench/agbench from
the simulator sources into .bench_build/ (incremental after the first
run), runs one workload for S seconds, checks its outputs, prints every
metric by name with its unit, and ends with one JSON line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics, --trace 1 the per-layer ones
(spans go to .bench_build/spans/). Exits non-zero, without a result
line, when the build or the run fails.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import stats  # noqa: E402

WORKLOADS = ("fleet_10k", "seed_batch")
BUILD_ROOT = ".bench_build"
BUILD_DIR = os.path.join(BUILD_ROOT, "perfbench")


def log(message):
    print(message, file=sys.stderr, flush=True)


def build():
    """Configures (once) and builds agbench; returns its path or None."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    # Compiler temporaries stay inside the checkout too.
    tmp = os.path.abspath(os.path.join(BUILD_ROOT, "tmp"))
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", BUILD_DIR,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        if subprocess.run(configure, stdout=sys.stderr, env=env).returncode:
            return None
    result = subprocess.run(
        ["cmake", "--build", BUILD_DIR, "--target", "agbench", "-j", jobs],
        stdout=sys.stderr, env=env)
    if result.returncode != 0:
        return None
    return os.path.join(BUILD_DIR, "agbench")


def unit_samples_ms(workload, run_pass):
    """The workload's unit of work, in ms: one quiet tick, or one 64-lane
    batch on the xoshiro plane (sim_min_per_s times the philox plane)."""
    if workload == "fleet_10k":
        quiet, _ = stats.split_ticks(run_pass["ticks"])
        return [ns / 1e6 for ns in quiet]
    return run_pass["units_ms"]


def end_to_end(workload, raw):
    run_pass = raw["passes"][0]
    return {
        "setup_s": stats.median(run_pass["setup_s"]),
        "peak_rss_mb": raw["peak_rss_mb"],
        "sim_min_per_s": stats.median([minutes / seconds for minutes, seconds
                                       in run_pass["windows"]]),
        "unit_p50_ms": stats.percentile(
            unit_samples_ms(workload, run_pass), 0.5),
    }


def per_layer(workload, raw):
    untraced = stats.median(unit_samples_ms(workload, raw["passes"][0]))
    traced = stats.median(unit_samples_ms(workload, raw["passes"][1]))
    return dict(raw["layers"],
                **{"bench.trace_overhead_pct": (traced / untraced - 1) * 100})


def print_details(raw):
    """Human-readable figures that are not metrics of this mode."""
    for run_pass in raw["passes"]:
        for name, value in sorted(run_pass["info"].items()):
            print(f"info {name} {value:.6g}")
        if run_pass["ticks"]:
            quiet, action = stats.split_ticks(run_pass["ticks"])
            for label, samples in (("quiet", quiet), ("action", action)):
                tail = stats.highest_percentile(samples)
                median = stats.median(samples) / 1e3 if samples else 0.0
                line = f"info {label}_ticks n={len(samples)} p50={median:.1f}us"
                if tail:
                    line += f" p{tail[0] * 100:g}={tail[1] / 1e3:.1f}us"
                print(line)
    print("counts " + json.dumps(raw["passes"][0]["counts"], sort_keys=True))
    if raw["spans"]:
        print(f"info spans {raw['spans']}")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    binary = build()
    if binary is None:
        log("perfbench: build failed")
        return 1

    scratch = os.path.join(BUILD_ROOT, f"scratch-{os.getpid()}")
    spans_dir = os.path.join(BUILD_ROOT, "spans")
    os.makedirs(spans_dir, exist_ok=True)
    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--scratch-dir", scratch]
    if args.trace:
        command += ["--spans-out", os.path.join(
            spans_dir, f"{args.workload}-seed{args.seed}.json")]
    try:
        result = subprocess.run(command, stdout=subprocess.PIPE, text=True)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    lines = result.stdout.strip().splitlines()
    if result.returncode != 0 or not lines:
        log(f"perfbench: agbench exited with {result.returncode}")
        return 1
    raw = json.loads(lines[-1])

    for check in raw["checks"]:
        print(f"check FAILED {check['name']}: {check['detail']}")
    # Names and units come from BENCHMARK.json: every metric it lists for
    # this mode is reported, and only those.
    with open(os.path.join(HERE, "..", "BENCHMARK.json")) as f:
        spec = json.load(f)["per_layer" if args.trace else "end_to_end"]
    values = (per_layer if args.trace else end_to_end)(args.workload, raw)
    metrics = {m["name"]: (values[m["name"]], m["unit"]) for m in spec}
    for name, (value, unit) in metrics.items():
        print(f"metric {name} {value:.6g} {unit}")
    print_details(raw)

    print(json.dumps({
        "correct": raw["failed"] == 0 and not raw["checks"],
        "attempted": raw["attempted"],
        "failed": raw["failed"],
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
