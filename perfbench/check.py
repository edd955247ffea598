#!/usr/bin/env python3
"""Checks for the perfbench benchmark, run from the repository root.

  python3 perfbench/check.py spread [--runs 10] [--seed0 1] [--workloads a,b]
      Runs every workload once per seed with --trace 0 and reports, per
      end-to-end metric, the interquartile range of the runs as a share of
      their median (statistics.quantiles(values, n=4)) next to the metric's
      bound from BENCHMARK.json. Exits 1 when a spread other than setup_s
      exceeds its bound, or when a run's metric names or units differ from
      BENCHMARK.json.

  python3 perfbench/check.py stability [--seed 7] [--workloads a,b]
      Runs every workload twice with --trace 1 and the same seed and
      asserts that each per-layer counter the record labels "exact" is
      identical in both runs. Exits 1 on any difference.
"""

import argparse
import json
import statistics
import subprocess
import sys


def load_spec():
    with open("BENCHMARK.json") as f:
        return json.load(f)


def run_once(spec, workload, seed, trace):
    cmd = spec["command"] + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(spec["run_seconds"]), "--trace", str(trace),
    ]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True,
                          timeout=900)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        sys.exit(f"{workload} seed {seed}: exit {proc.returncode}, no result")
    result, record = json.loads(lines[-1]), json.loads(lines[-2])["record"]
    expected = spec["per_layer" if trace else "end_to_end"]
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    want = {m["name"]: m["unit"] for m in expected}
    if got != want or not result["correct"]:
        sys.exit(f"{workload} seed {seed}: metrics differ from BENCHMARK.json: {got} vs {want}")
    return result, record


def workloads(spec, arg):
    names = [w["name"] for w in spec["workloads"]]
    return arg.split(",") if arg else names


def spread(spec, args):
    ok = True
    for w in workloads(spec, args.workloads):
        values = {m["name"]: [] for m in spec["end_to_end"]}
        for seed in range(args.seed0, args.seed0 + args.runs):
            result, _ = run_once(spec, w, seed, 0)
            for name in values:
                values[name].append(result["metrics"][name]["value"])
        print(f"{w}:")
        for m in spec["end_to_end"]:
            v = values[m["name"]]
            q1, med, q3 = statistics.quantiles(v, n=4)
            share = (q3 - q1) / med
            flag = "ok" if share <= m["bound"] / 3 else ("WIDE" if share <= m["bound"] else "OVER")
            if share > m["bound"] and m["name"] != "setup_s":
                ok = False
            print(f"  {m['name']:<24} median {med:<14.6g} spread {share:8.4f}  "
                  f"bound {m['bound']:<5} {flag:<5} {' '.join(f'{x:.4g}' for x in v)}")
    return 0 if ok else 1


def stability(spec, args):
    ok = True
    for w in workloads(spec, args.workloads):
        runs = [run_once(spec, w, args.seed, 1)[1] for _ in range(2)]
        exact = [{m["name"]: m["value"] for m in r["per_layer"] if m["repeat"] == "exact"}
                 for r in runs]
        diff = {k: (exact[0][k], exact[1].get(k)) for k in exact[0] if exact[0][k] != exact[1].get(k)}
        print(f"{w}: {len(exact[0])} exact counters, {'identical' if not diff else diff}")
        ok = ok and not diff
    return 0 if ok else 1


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    sub = ap.add_subparsers(dest="cmd", required=True)
    s = sub.add_parser("spread")
    s.add_argument("--runs", type=int, default=10)
    s.add_argument("--seed0", type=int, default=1)
    s.add_argument("--workloads")
    t = sub.add_parser("stability")
    t.add_argument("--seed", type=int, default=7)
    t.add_argument("--workloads")
    args = ap.parse_args()
    spec = load_spec()
    return spread(spec, args) if args.cmd == "spread" else stability(spec, args)


if __name__ == "__main__":
    sys.exit(main())
