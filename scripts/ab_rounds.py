"""Alternate whole benchmark rounds of two checkouts in one process.

Usage: python3 scripts/ab_rounds.py TREE_A TREE_B WORKLOAD --rounds N [--seed S]

WORKLOAD is a workload of perfbench/workloads.py or `graded-scale`: the F101
complete intersections of three random squared linear forms in x, y, z, at
resolution lengths 4 and 5 and factors 0 and 1, run through `cli.run` with
the graded-cli queries and made by each tree's own
`workloads.graded_relations` and `graded_scenario`.  In every round, each
instance's record is passed through its tree's workload `compact`, which
checks what needs the full record (on random-sweep, d o d = 0 on the page
maps, which it then drops) and keeps what the oracle would check.  A problem
that `compact` reports, or a difference between the two trees' compacted
records (on graded-scale, the exit code and stdout bytes), stops the run
with an error, so the timings are only ever of equal answers.

Each tree's src/specseq and perfbench/workloads.py (with its oracle.py)
are imported under their own names and then taken out of sys.modules
again, so the next tree's import makes a second, separate set of modules;
nothing is written to either tree.  Both trees make the round's inputs
from the same seed and run the warm-up instances, then whole rounds
alternate, A B, B A, A B, ..., each timed in process CPU time.  Comparing
inside one process takes out most of the spread between fresh processes,
which is wider than the few-percent effects a change to the library usually
has.  Prints each tree's median round with its first and third quartiles,
the ratio B/A and the number of rounds in which B was lower.
"""

import argparse
import gc
import io
import random
import statistics
import sys
import time
from pathlib import Path

OWN_MODULES = ("specseq", "workloads", "oracle")
SCALE = "graded-scale"
SCALE_CASES = ((4, 0), (4, 1), (5, 0), (5, 1))  # (resolution length, factor)


class GradedScale:
    """The graded-scale set on one tree: its scenarios are texts, and an
    instance returns its exit code and stdout."""

    def __init__(self, workloads):
        self.workloads = workloads

    def make_inputs(self, seed):
        texts = []
        for k, (length, factor) in enumerate(SCALE_CASES):
            rng = random.Random(f"{seed}:{SCALE}:{k}")
            relations = self.workloads.graded_relations("complete-intersection", 3, rng)
            texts.append(self.workloads.graded_scenario(3, relations, length, factor))
        return texts

    def warm_up(self, texts):
        relations = self.workloads.graded_relations("square-zero", 2, random.Random(SCALE))
        return [self.workloads.graded_scenario(2, relations, 2, 0)]

    def run(self, text):
        out = io.StringIO()
        return (self.workloads.cli.run(text, out=out), out.getvalue()), None

    def compact(self, text, record):
        return [], record


def load_workload(tree, name):
    """The workload `name` of tree's perfbench, on tree's own specseq."""
    tree = Path(tree).resolve()
    if not (tree / "src" / "specseq" / "__init__.py").is_file():
        raise SystemExit(f"error: no specseq package under {tree / 'src'}")

    def detach():
        for key in [k for k in sys.modules if k.split(".")[0] in OWN_MODULES]:
            del sys.modules[key]

    detach()
    paths = [str(tree / "src"), str(tree / "perfbench")]
    sys.path[:0] = paths
    try:
        import workloads
    finally:
        del sys.path[: len(paths)]
        detach()
    if name == SCALE:
        return GradedScale(workloads)
    if name not in workloads.WORKLOADS:
        raise SystemExit(f"error: no workload {name!r} in {tree}")
    return workloads.WORKLOADS[name]


def round_cpu(workload, inputs):
    """Process CPU seconds of one round of the workload's instances, and
    their compacted records; a problem `compact` finds stops the run."""
    gc.collect()
    start = time.process_time()
    results = [workload.run(spec) for spec in inputs]
    seconds = time.process_time() - start
    records = []
    for i, (spec, (record, _)) in enumerate(zip(inputs, results)):
        problems, kept = workload.compact(spec, record)
        if problems:
            raise SystemExit(f"error: instance {i}: " + "; ".join(problems))
        records.append(kept)
    return seconds, records


def summary(times):
    """The median of round times and their first and third quartiles as text."""
    # one round has no spread: both quartiles are that round
    q1, _, q3 = statistics.quantiles(times, n=4) if len(times) > 1 else times * 3
    return statistics.median(times), f"{q1:.4f}, {q3:.4f}"


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("tree_a")
    parser.add_argument("tree_b")
    parser.add_argument("workload")
    parser.add_argument("--rounds", type=int, required=True)
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)
    if args.rounds < 1:
        parser.error("--rounds must be at least 1")
    sides = []
    for tree in (args.tree_a, args.tree_b):
        workload = load_workload(tree, args.workload)
        inputs = workload.make_inputs(args.seed)
        for spec in workload.warm_up(inputs):
            workload.run(spec)
        sides.append((workload, inputs))
    times = ([], [])
    for k in range(args.rounds):
        records = [None, None]
        for side in (0, 1) if k % 2 == 0 else (1, 0):
            seconds, records[side] = round_cpu(*sides[side])
            times[side].append(seconds)
        for i, (a, b) in enumerate(zip(*records)):
            if a != b:
                raise SystemExit(f"error: round {k + 1}, instance {i}: the trees' answers differ")
    (a, a_q), (b, b_q) = (summary(t) for t in times)
    wins = sum(tb < ta for ta, tb in zip(*times))
    print(
        f"{args.workload} seed {args.seed}, {args.rounds} rounds, median CPU "
        f"[quartiles]: A {a:.4f} [{a_q}] s, B {b:.4f} [{b_q}] s, B/A {b / a:.3f}, "
        f"B lower in {wins} of {args.rounds}"
    )


if __name__ == "__main__":
    main()
