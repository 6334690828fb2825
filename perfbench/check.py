#!/usr/bin/env python3
"""Steadiness and held-out-seed checks for the repository benchmark.

Runs the command in BENCHMARK.json from the repository root and reads
the JSON object on the last line of each run.

    python3 perfbench/check.py spread  [--seeds 10] [--workload W ...]
    python3 perfbench/check.py heldout [--seed 7]   [--workload W ...]

`spread` runs every workload once per seed and prints, for each
end-to-end metric, the median and the distance between the first and
third quartile as a share of the median (Python's
statistics.quantiles(values, n=4)), against the metric's bound and a
third of it. With --out FILE it saves the medians; with --against FILE
it also checks that no median got worse than the saved one by more
than the metric's bound.

`heldout` runs every workload under the default seed (42) and under a
held-out seed. The benchmark itself fails a held-out run whose
fingerprint equals the default seed's; this script checks that both
runs pass and that no end-to-end metric of the held-out run is worse
than the default run's by more than its bound.

Exit status is 0 when every check holds.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
DEFAULT_SEED = 42


def load_bench():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def run(bench, workload, seed, seconds, trace=0):
    cmd = bench["command"] + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(trace),
    ]
    p = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    lines = p.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else None
    return p.returncode, result, p.stdout


def worse_by(metric, new, old):
    """How much worse `new` is than `old`, as a share of `old`."""
    if old == 0:
        return 0.0
    change = (new - old) / old
    return change if metric["better"] == "lower" else -change


def cmd_spread(bench, args):
    ok = True
    saved = {}
    against = {}
    if args.against:
        with open(args.against) as f:
            against = json.load(f)
    for w in args.workload or [x["name"] for x in bench["workloads"]]:
        values = {m["name"]: [] for m in bench["end_to_end"]}
        for seed in range(1, args.seeds + 1):
            code, result, out = run(bench, w, seed, args.seconds)
            if code != 0 or not result or not result["correct"]:
                print(f"{w} seed {seed}: run failed (exit {code})\n{out}")
                ok = False
                continue
            for name in values:
                values[name].append(result["metrics"][name]["value"])
        saved[w] = {}
        print(f"{w}: {args.seeds} seeds")
        for m in bench["end_to_end"]:
            v = values[m["name"]]
            if len(v) < 2:
                continue
            q1, med, q3 = statistics.quantiles(v, n=4)
            spread = (q3 - q1) / med
            saved[w][m["name"]] = med
            verdict = "steady" if spread < m["bound"] / 3 else (
                "within bound" if spread <= m["bound"] else "TOO WIDE")
            if spread > m["bound"]:
                ok = False
            line = (f"  {m['name']:<24} median {med:14.4f} {m['unit']:<10} "
                    f"spread {spread:7.4f} bound {m['bound']:.2f} {verdict}")
            if w in against and m["name"] in against[w]:
                worse = worse_by(m, med, against[w][m["name"]])
                line += f" | vs saved {worse:+.4f}"
                if worse > m["bound"]:
                    line += " WORSE"
                    ok = False
            print(line)
    if args.out:
        with open(args.out, "w") as f:
            json.dump(saved, f, indent=1)
    return ok


def cmd_heldout(bench, args):
    ok = True
    for w in args.workload or [x["name"] for x in bench["workloads"]]:
        code0, base, out0 = run(bench, w, DEFAULT_SEED, args.seconds)
        code1, held, out1 = run(bench, w, args.seed, args.seconds)
        if code0 != 0 or code1 != 0 or not base or not held:
            print(f"{w}: a run failed\n{out0}\n{out1}")
            ok = False
            continue
        print(f"{w}: seed {DEFAULT_SEED} vs held-out seed {args.seed}")
        for m in bench["end_to_end"]:
            a = base["metrics"][m["name"]]["value"]
            b = held["metrics"][m["name"]]["value"]
            worse = worse_by(m, b, a)
            verdict = "ok" if worse <= m["bound"] else "WORSE THAN BOUND"
            ok = ok and worse <= m["bound"]
            print(f"  {m['name']:<24} {a:14.4f} -> {b:14.4f} {m['unit']:<10} "
                  f"worse by {worse:+.4f} (bound {m['bound']:.2f}) {verdict}")
    return ok


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = p.add_subparsers(dest="cmd", required=True)
    s = sub.add_parser("spread")
    s.add_argument("--seeds", type=int, default=10)
    s.add_argument("--out")
    s.add_argument("--against")
    h = sub.add_parser("heldout")
    h.add_argument("--seed", type=int, default=7)
    for q in (s, h):
        q.add_argument("--workload", action="append")
        q.add_argument("--seconds", type=int)
    args = p.parse_args()
    bench = load_bench()
    if args.seconds is None:
        args.seconds = bench["run_seconds"]
    ok = cmd_spread(bench, args) if args.cmd == "spread" else cmd_heldout(bench, args)
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
