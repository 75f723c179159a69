#!/usr/bin/env python3
"""Runs the benchmark several times per workload and reports run-to-run spread.

    python3 perfbench/spread.py [--runs 10] [--trace 0|1]
                                [--workloads a,b] [--out perfbench/baseline.json]
                                [--note "what was measured"]

For every workload it runs `perfbench/run.py` once per seed (1, 2, ...,
runs), then prints, per metric, the median and the
interquartile range as a share of the median (statistics.quantiles, n=4),
next to the bound BENCHMARK.json fixes for that metric. With --out it
writes every run's values plus the machine fingerprint as JSON: the record a
later change is compared against. Run from the repository root.
"""
import argparse
import json
import statistics
import subprocess
import sys


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit(f"spread.py: {workload} seed {seed} failed (exit {proc.returncode})")
    fingerprint = None
    for line in lines:
        if line.startswith("# fingerprint "):
            fingerprint = json.loads(line[len("# fingerprint "):])
    result = json.loads(lines[-1])
    if not result["correct"] or result["failed"]:
        sys.exit(f"spread.py: {workload} seed {seed}: {result['failed']} failed operations")
    return fingerprint, result


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--workloads", default="")
    ap.add_argument("--out", default="")
    ap.add_argument("--note", default="", help="free text stored in the record")
    args = ap.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}
    workloads = args.workloads.split(",") if args.workloads else [
        w["name"] for w in bench["workloads"]]
    seeds = list(range(1, args.runs + 1))

    record = {"seconds": bench["run_seconds"], "trace": args.trace, "seeds": seeds,
              "note": args.note, "fingerprint": None, "workloads": {}}
    worst = 0.0
    for w in workloads:
        values = {}
        for seed in seeds:
            fp, res = run_once(w, seed, bench["run_seconds"], args.trace)
            record["fingerprint"] = fp
            for name, m in res["metrics"].items():
                values.setdefault(name, {"unit": m["unit"], "values": []})["values"].append(
                    m["value"])
        print(f"== {w} ({len(seeds)} runs)")
        summary = {}
        for name, v in values.items():
            med = statistics.median(v["values"])
            q = statistics.quantiles(v["values"], n=4) if len(v["values"]) > 1 else [med] * 3
            spread = (q[2] - q[0]) / abs(med) if med else 0.0
            bound = bounds.get(name) if not args.trace else None
            mark = ""
            if bound is not None:
                mark = f"bound {bound:.3f}  {'ok' if spread <= bound / 3 else 'WIDE'}"
                if name != "setup_s":
                    worst = max(worst, spread / bound)
            print(f"  {name:32s} median {med:14.6g} {v['unit']:7s} "
                  f"iqr/median {spread:7.4f}  {mark}")
            summary[name] = {"unit": v["unit"], "median": med, "q1": q[0], "q3": q[2],
                             "iqr_frac": spread, "values": v["values"]}
        record["workloads"][w] = summary
    if not args.trace:
        print(f"worst spread/bound (setup_s excluded): {worst:.3f}")
    if args.out:
        with open(args.out, "w") as f:
            json.dump(record, f, indent=1, sort_keys=True)
            f.write("\n")


if __name__ == "__main__":
    main()
