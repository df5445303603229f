#!/usr/bin/env python3
"""A/A tool: runs the benchmark repeatedly on unchanged code and reports
how far its own figures spread.

    # N runs per workload, seeds K..K+N-1, saved for a later compare
    python3 perfbench/aa.py run --runs 10 --first-seed 1 --out a.json
    python3 perfbench/aa.py run --runs 10 --first-seed 1 --out b.json

    # two sets of runs against the benchmark's bounds
    python3 perfbench/aa.py compare a.json b.json

`run` prints, per workload and end-to-end metric, the median, the
quartiles (statistics.quantiles, n=4), and the interquartile spread as
a share of the median, next to the metric's bound from BENCHMARK.json:
a spread above the bound fails, one above a third of it is marked. A
run that is not correct fails the set.

`compare` fails when a second set's median is worse than the first's by
more than the bound, or when the determinism counts of two runs with
the same workload and seed differ. Run from the root of the checkout.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import stats  # noqa: E402


def load_benchmark():
    with open(os.path.join(HERE, "..", "BENCHMARK.json")) as f:
        return json.load(f)


def run_once(workload, seed, seconds, trace):
    command = [sys.executable, os.path.join(HERE, "run.py"),
               "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", str(trace)]
    result = subprocess.run(command, stdout=subprocess.PIPE,
                            stderr=subprocess.DEVNULL, text=True)
    lines = result.stdout.strip().splitlines()
    if result.returncode != 0 or not lines:
        return {"seed": seed, "error": f"exit {result.returncode}"}
    record = json.loads(lines[-1])
    record["seed"] = seed
    for line in lines:
        if line.startswith("counts "):
            record["counts"] = json.loads(line[len("counts "):])
    return record


def summarize(records, metrics_spec):
    """Prints the spread table of one workload; returns False on a failure."""
    ok = True
    bad = [r for r in records if "error" in r or not r["correct"]]
    for r in bad:
        print(f"  seed {r['seed']}: {r.get('error', 'not correct')}")
        ok = False
    good = [r for r in records if r not in bad]
    if len(good) < 2:
        return False
    for spec in metrics_spec:
        name = spec["name"]
        values = [r["metrics"][name]["value"] for r in good]
        q1, q2, q3 = stats.quartiles(values)
        spread = stats.spread(values)
        bound = spec.get("bound")
        mark = ""
        if bound is not None:
            if spread > bound:
                mark, ok = "FAIL", False
            elif spread > bound / 3:
                mark = "above bound/3"
        bound_text = f"{bound:.2f}" if bound is not None else "-"
        print(f"  {name:34s} median {q2:12.6g} q1 {q1:12.6g} q3 {q3:12.6g} "
              f"spread {spread:7.2%} bound {bound_text} {mark}")
    return ok


def cmd_run(args):
    bench = load_benchmark()
    workloads = args.workloads.split(",") if args.workloads else [
        w["name"] for w in bench["workloads"]]
    seconds = args.seconds or bench["run_seconds"]
    spec = bench["per_layer"] if args.trace else bench["end_to_end"]
    results = {}
    ok = True
    for workload in workloads:
        records = []
        for i in range(args.runs):
            seed = args.first_seed + i
            record = run_once(workload, seed, seconds, args.trace)
            records.append(record)
            print(f"{workload} seed {seed}: "
                  f"{'ok' if record.get('correct') else 'FAILED'}",
                  file=sys.stderr, flush=True)
        results[workload] = records
        print(f"{workload} ({len(records)} runs, {seconds} s each)")
        ok &= summarize(records, spec)
    if args.out:
        with open(args.out, "w") as f:
            json.dump({"trace": args.trace, "results": results}, f, indent=1)
    return 0 if ok else 1


def cmd_compare(args):
    bench = load_benchmark()
    with open(args.first) as f:
        first = json.load(f)
    with open(args.second) as f:
        second = json.load(f)
    spec = bench["per_layer"] if first["trace"] else bench["end_to_end"]
    ok = True
    for workload, records_a in first["results"].items():
        records_b = second["results"].get(workload, [])
        print(workload)
        for metric in spec:
            name = metric["name"]
            a = [r["metrics"][name]["value"] for r in records_a if r.get("correct")]
            b = [r["metrics"][name]["value"] for r in records_b if r.get("correct")]
            if not a or not b:
                print(f"  {name}: no correct runs to compare")
                ok = False
                continue
            ma, mb = stats.median(a), stats.median(b)
            worse = stats.worse_by(ma, mb, metric["better"])
            bound = metric.get("bound")
            verdict = ""
            if bound is not None:
                verdict = "FAIL" if worse > bound else "ok"
                ok &= worse <= bound
            print(f"  {name:34s} {ma:12.6g} -> {mb:12.6g} "
                  f"worse by {worse:7.2%} {verdict}")
        by_seed = {r["seed"]: r.get("counts") for r in records_a}
        for r in records_b:
            if r["seed"] in by_seed and by_seed[r["seed"]] != r.get("counts"):
                print(f"  counts differ on seed {r['seed']}: "
                      f"{by_seed[r['seed']]} vs {r.get('counts')}")
                ok = False
    return 0 if ok else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    run = sub.add_parser("run")
    run.add_argument("--runs", type=int, default=10)
    run.add_argument("--first-seed", type=int, default=1)
    run.add_argument("--workloads", default="")
    run.add_argument("--seconds", type=int, default=0,
                     help="run length (default: run_seconds of BENCHMARK.json)")
    run.add_argument("--trace", type=int, choices=(0, 1), default=0)
    run.add_argument("--out", default="")
    compare = sub.add_parser("compare")
    compare.add_argument("first")
    compare.add_argument("second")
    args = parser.parse_args()
    return cmd_run(args) if args.command == "run" else cmd_compare(args)


if __name__ == "__main__":
    sys.exit(main())
