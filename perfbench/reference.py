"""Reference figures kept in perfbench/README.md.

    python3 perfbench/reference.py [--seed 1] [--rounds 5]

Runs graded-cli with two page workers beside one, and the simplicial-qq
inputs over QQ beside F101.  The configurations of a pair take turns round
by round, so a slow spell on a shared machine hits both alike.  Prints each
configuration's round_s, instance_median_s and first_page_median_s in
wall-clock seconds as run.py reports them, its round in process CPU seconds,
whether every answer checked, and each instance's median wall-clock time.
"""

import argparse
import statistics

import run


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--rounds", type=int, default=5)
    args = parser.parse_args(argv)
    workloads = run.import_program()

    def graded(threads):
        w = workloads.GradedCli()
        w.threads = threads
        return w

    def simplicial(field):
        w = workloads.SimplicialQQ()
        w.field = field
        return w

    pairs = (
        ("graded-cli", [("threads=2", graded(2)), ("threads=1", graded(1))]),
        ("simplicial-qq inputs", [("QQ", simplicial(workloads.QQ)), ("F101", simplicial(workloads.F101))]),
    )
    for title, configs in pairs:
        runners = []
        for label, w in configs:
            inputs = run.set_up(w, args.seed)
            runners.append((label, run.Runner(w, workloads.clock), inputs))
        for _ in range(args.rounds):
            for _, runner, inputs in runners:
                runner.round(inputs)
        print(f"{title} (seed {args.seed}, {args.rounds} rounds each)")
        for label, runner, inputs in runners:
            correct = runner.check(inputs)
            m = run.end_to_end(runner, 0.0)
            wall = {i: statistics.median(v) for i, v in runner.instance_s.items()}
            cpu = sum(statistics.median(v) for v in runner.cpu_s.values())
            print(f"  {label:<10} round_s {m['round_s'][0]:7.3f}  round CPU {cpu:7.3f}  "
                  f"instance_median_s {m['instance_median_s'][0]:6.3f}  "
                  f"first_page_median_s {m['first_page_median_s'][0]:6.3f}  correct {correct}")
            print("    wall: " + "  ".join(
                f"{inputs[i].name} {t:.3f}" for i, t in sorted(wall.items())
            ))


if __name__ == "__main__":
    main()
