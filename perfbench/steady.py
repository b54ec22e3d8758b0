"""Run two sets of benchmark runs of the same code and compare them.

    python3 perfbench/steady.py [--runs 10] [--workload NAME ...]

Each set runs every workload --runs times, each run with its own seed (the
second set uses seeds the first did not).  For each workload and end-to-end
metric it prints both sets' medians, the spread of each set (the distance
between the first and third quartile as a share of the median), and whether
the second median is within the metric's bound of the first, up or down.
setup_s is judged by its medians only.  It also checks that both sets fail
the same share of operations.  Exits 1 when any check fails.  Results are
written to perfbench/out/steady.json.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run_once(spec, workload, seed, seconds):
    cmd = spec["command"] + [
        "--workload", workload, "--seed", str(seed), "--seconds", str(seconds), "--trace", "0",
    ]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if done.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {done.returncode}\n{done.stderr}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def judge(metric, first, second, bound):
    """Both medians, their relative change, both spreads, and whether the
    metric is steady: each spread within the bound (setup_s is judged by its
    medians only) and the second median within the bound of the first, up
    or down."""
    m1, m2 = statistics.median(first), statistics.median(second)
    s1, s2 = (spread(first), spread(second)) if len(first) >= 2 else (0.0, 0.0)
    change = (m2 - m1) / m1
    steady = metric == "setup_s" or max(s1, s2) <= bound
    return m1, m2, change, s1, s2, steady and abs(change) <= bound


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--workload", action="append")
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    names = args.workload or [w["name"] for w in spec["workloads"]]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    report = {}
    ok = True
    for name in names:
        sets = []
        for k in range(2):
            seeds = [1 + k * args.runs + i for i in range(args.runs)]
            runs = []
            for seed in seeds:
                result = run_once(spec, name, seed, seconds)
                runs.append(result)
                print(f"{name} set {k + 1} seed {seed}: " + "  ".join(
                    f"{m}={v['value']:.4f}" for m, v in result["metrics"].items()
                ), flush=True)
            sets.append(runs)
        report[name] = rows = {}
        shares = [
            sum(r["failed"] for r in runs) / sum(r["attempted"] for r in runs) for runs in sets
        ]
        correct = all(r["correct"] for runs in sets for r in runs)
        if shares[0] != shares[1] or not correct:
            ok = False
        print(f"\n{name}: failed share {shares[0]:.4f} / {shares[1]:.4f}, correct {correct}")
        print(f"  {'metric':<22}{'median 1':>12}{'median 2':>12}{'change':>9}"
              f"{'spread 1':>10}{'spread 2':>10}{'bound':>7}  verdict")
        for metric, bound in bounds.items():
            values = [[r["metrics"][metric]["value"] for r in runs] for runs in sets]
            m1, m2, change, s1, s2, fine = judge(metric, *values, bound)
            verdict = "ok" if fine else "NOT STEADY"
            ok = ok and fine
            rows[metric] = {
                "medians": [m1, m2], "spreads": [s1, s2], "bound": bound,
                "values": values, "ok": fine,
            }
            print(f"  {metric:<22}{m1:>12.5f}{m2:>12.5f}{change:>+9.1%}"
                  f"{s1:>10.1%}{s2:>10.1%}{bound:>7.2f}  {verdict}")
        print()
    out = HERE / "out"
    out.mkdir(exist_ok=True)
    (out / "steady.json").write_text(json.dumps(report, indent=1))
    print("steady" if ok else "NOT STEADY")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
