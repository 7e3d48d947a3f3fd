#!/usr/bin/env python3
"""Runs the benchmark's acceptance protocol and records the result.

From the repository root:

    python3 bench/acceptance.py --out bench/baseline.json

For every workload in BENCHMARK.json it runs the benchmark command once
per seed (1..--runs) with --trace 0, twice over (two sets, workloads
interleaved within each seed), then once more per workload with --trace 1.
For each end-to-end metric it reports the spread of each set (distance
between the first and third quartile as a share of the median, from
statistics.quantiles(values, n=4)) and how far the second set's median
moved from the first's in the metric's worse direction. It exits non-zero
when a spread other than setup_s's, or any drift, exceeds the metric's
bound, or when a run fails, and flags spreads above a third of the bound,
the margin a steady metric should keep.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys


def load_benchmark(root):
    with open(os.path.join(root, "BENCHMARK.json")) as f:
        return json.load(f)


def run_once(root, bench, workload, seed, trace):
    cmd = bench["command"] + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(bench["run_seconds"]), "--trace", str(trace),
    ]
    p = subprocess.run(cmd, cwd=root, capture_output=True, text=True, timeout=300)
    lines = p.stdout.strip().splitlines()
    if p.returncode != 0 or not lines:
        sys.stderr.write(p.stderr[-4000:])
        raise RuntimeError(f"{workload} seed {seed} trace {trace}: exit {p.returncode}")
    return json.loads(lines[-1])


def summarize(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med if med else 0.0, "values": values}


def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor()


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runs", type=int, default=10, help="seeds per set (1..runs)")
    ap.add_argument("--sets", type=int, default=2)
    ap.add_argument("--out", help="write the full record to this JSON file")
    args = ap.parse_args()

    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    bench = load_benchmark(root)
    names = [w["name"] for w in bench["workloads"]]
    e2e = {m["name"]: m for m in bench["end_to_end"]}

    sets = []
    for s in range(args.sets):
        runs = {w: [] for w in names}
        for seed in range(1, args.runs + 1):
            for w in names:
                out = run_once(root, bench, w, seed, 0)
                if not out["correct"] or out["failed"]:
                    raise RuntimeError(f"set {s + 1} {w} seed {seed}: correct={out['correct']} failed={out['failed']}")
                runs[w].append(out)
                print(f"set {s + 1} seed {seed} {w}: ok", file=sys.stderr)
        sets.append(runs)

    ok = True
    record = {
        "cpuModel": cpu_model(),
        "nproc": os.cpu_count(),
        "goVersion": subprocess.run(["go", "version"], capture_output=True, text=True).stdout.strip(),
        "runSeconds": bench["run_seconds"],
        "seeds": list(range(1, args.runs + 1)),
        "workloads": {},
    }
    for w in names:
        rec = {"sets": [], "drift": {}, "traced": None}
        for runs in sets:
            rec["sets"].append({m: summarize([r["metrics"][m]["value"] for r in runs[w]]) for m in e2e})
        for m, spec in e2e.items():
            for i, st in enumerate(rec["sets"]):
                flag = ""
                if m != "setup_s" and st[m]["spread"] > spec["bound"]:
                    flag, ok = "  SPREAD OVER BOUND", False
                elif st[m]["spread"] > spec["bound"] / 3:
                    flag = "  spread over a third of the bound"
                print(f"{w:13s} {m:20s} set {i + 1} median {st[m]['median']:12.6g} spread {st[m]['spread']:6.3f}"
                      f" (bound {spec['bound']}){flag}")
            if len(rec["sets"]) > 1:
                a, b = rec["sets"][0][m]["median"], rec["sets"][-1][m]["median"]
                worse = (b - a) / a if spec["better"] == "lower" else (a - b) / a
                rec["drift"][m] = worse
                flag = ""
                if worse > spec["bound"]:
                    flag, ok = "  DRIFT OVER BOUND", False
                print(f"{w:13s} {m:20s} drift {worse:+.3f}{flag}")
        traced = run_once(root, bench, w, 1, 1)
        rec["traced"] = {k: v["value"] for k, v in traced["metrics"].items()}
        record["workloads"][w] = rec
    if args.out:
        with open(args.out, "w") as f:
            json.dump(record, f, indent=1, sort_keys=True)
            f.write("\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
