"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload graded-cli --seed 1 --seconds 30 --trace 0

Run from the repository root; the program is imported from ./src.  The run
sets up (imports, inputs made from the seed, a small warm-up) several times
and keeps the median, then runs whole rounds of the workload's instances,
one at a time, until --seconds have passed.  Times are wall-clock seconds
with the time the hypervisor gave the vCPUs to other machines (steal) taken
out.  After timing, every answer is checked against the barcode oracle and
the closed forms.  See perfbench/README.md for the workloads and the
metrics.

--trace 0 prints the end-to-end metrics.  --trace 1 alternates untraced and
traced rounds and prints the per-layer metrics: one traced set-up plus the
mean of the traced rounds, and the tracing overhead.  The last line of
stdout is one JSON object with the keys correct, attempted, failed and
metrics.  Raw samples and spans are written under perfbench/out/.
"""

import argparse
import gc
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
SETUP_REPEATS = 3


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


IMPORT_PROBE = (
    "import time; t, c = time.perf_counter(), time.process_time(); import specseq; "
    "print(time.perf_counter() - t, time.process_time() - c)"
)


def import_program():
    """Import specseq from this checkout's src/, and the workloads."""
    package = ROOT / "src" / "specseq"
    if not (package / "__init__.py").is_file():
        raise SystemExit(f"error: no specseq package under {package.parent}; run from a checkout")
    sys.path.insert(0, str(ROOT / "src"))
    import specseq
    import workloads

    if Path(specseq.__file__).resolve().parent != package.resolve():
        raise SystemExit(f"error: imported specseq from {specseq.__file__}")
    return workloads


def import_seconds():
    """Time to import specseq in a fresh interpreter; an import happens once
    per process, so it is repeated in child processes."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    stolen = stolen_seconds()
    done = subprocess.run(
        [sys.executable, "-c", IMPORT_PROBE],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=120, check=True,
    )
    stolen = stolen_seconds() - stolen
    wall, cpu = (float(x) for x in done.stdout.split())
    return wall * steal_free(cpu, stolen)


_CLOCK_TICK = os.sysconf("SC_CLK_TCK") if hasattr(os, "sysconf") else 100


def stolen_seconds():
    """Seconds the hypervisor has given this machine's vCPUs to other
    machines, summed over the vCPUs (the steal column of /proc/stat); 0 where
    the file cannot be read, so that no time is taken out."""
    try:
        with open("/proc/stat", "rb") as stat:
            fields = stat.readline().split()
        return int(fields[8]) / _CLOCK_TICK
    except (OSError, IndexError, ValueError):
        return 0.0


def steal_free(cpu, stolen):
    """The share of a sample's wall time that remains when steal is taken out.

    A vCPU accrues steal only while it has work, so on a machine where the
    benchmark is the only busy process, the steal all fell on the vCPUs that
    ran its threads: of their cpu + stolen busy seconds, cpu were the
    program's.  A single thread then gets its CPU time back; two threads
    working side by side keep their overlap."""
    return cpu / (cpu + stolen) if stolen > 0 else 1.0


class Runner:
    """Runs rounds of one workload and keeps what the checks need."""

    def __init__(self, workload, clock):
        self.workload = workload
        self.clock = clock
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.records = {}  # instance index -> distinct compact records
        # instance index -> one value per round: wall time and time to the
        # first page, both without steal; the steal seconds and the process
        # CPU time during the instance
        self.instance_s = {}
        self.first_page_s = {}
        self.stolen_s = {}
        self.cpu_s = {}

    def round(self, inputs, tracer=None):
        """One round; returns its time, the sum over its instances."""
        gc.collect()
        total = 0.0
        clock = self.clock
        for index, spec in enumerate(inputs):
            self.attempted += 1
            stolen = stolen_seconds()
            cpu = time.process_time()
            start = clock()
            try:
                if tracer is None:
                    record, first = self.workload.run(spec)
                else:
                    record, first = tracer.call("bench.instance", self.workload.run, spec)
            except Exception:
                self.failed += 1
                print(f"{spec.name}: failed\n{traceback.format_exc()}", file=sys.stderr)
                continue
            end = clock()
            cpu = time.process_time() - cpu
            stolen = stolen_seconds() - stolen
            share = steal_free(cpu, stolen)
            total += (end - start) * share
            if tracer is not None:
                self.workload.count(tracer, record)
            if self.workload.failed(record):
                self.failed += 1
                print(f"{spec.name}: the program reported failure", file=sys.stderr)
                continue
            self.instance_s.setdefault(index, []).append((end - start) * share)
            self.first_page_s.setdefault(index, []).append((first - start) * share)
            self.stolen_s.setdefault(index, []).append(stolen)
            self.cpu_s.setdefault(index, []).append(cpu)
            problems, compact = self.workload.compact(spec, record)
            self.problems += problems
            seen = self.records.setdefault(index, [])
            if compact not in seen:
                seen.append(compact)
        return total

    def check(self, inputs):
        """Oracle checks, once per distinct answer of each instance."""
        for index, seen in sorted(self.records.items()):
            spec = inputs[index]
            expected = self.workload.expected(spec)
            for record in seen:
                self.problems += self.workload.check(spec, record, expected)
        return not self.problems


def set_up(workload, seed):
    """Make the inputs and run the warm-up instances; a failing warm-up
    instance is left for the timed rounds to count."""
    inputs = workload.make_inputs(seed)
    for spec in workload.warm_up(inputs):
        try:
            workload.run(spec)
        except Exception as exc:
            print(f"warm-up {spec.name}: {exc!r}", file=sys.stderr)
    return inputs


def timed_rounds(runner, inputs, seconds, tracer=None):
    """Whole rounds until `seconds` pass.  With a tracer, rounds alternate
    untraced and traced, at least one of each."""
    untraced, traced = [], []
    start = time.perf_counter()
    while True:
        if tracer is not None and len(untraced) > len(traced):
            tracer.install()
            try:
                traced.append(runner.round(inputs, tracer))
            finally:
                tracer.uninstall()
        else:
            untraced.append(runner.round(inputs))
        done = time.perf_counter() - start >= seconds
        if done and (tracer is None or traced):
            return untraced, traced


def end_to_end(runner, setup_s):
    """Wall-clock seconds, steal taken out.  Each instance's time is its
    median over the run's rounds, which keeps out the bursts of a shared
    machine; round_s adds these up over a round."""
    instance = [statistics.median(v) for v in runner.instance_s.values()]
    first = [statistics.median(v) for v in runner.first_page_s.values()]
    return {
        "setup_s": (setup_s, "s"),
        "round_s": (sum(instance), "s"),
        "instance_median_s": (statistics.median(instance), "s"),
        "first_page_median_s": (statistics.median(first), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


def main(argv=None):
    args = parse_args(argv)
    workloads = import_program()

    if args.workload not in workloads.WORKLOADS:
        raise SystemExit(f"error: unknown workload {args.workload!r}; "
                         f"choose from {', '.join(workloads.WORKLOADS)}")
    workload = workloads.WORKLOADS[args.workload]
    runner = Runner(workload, workloads.clock)

    if args.trace:
        import tracing

        # the tracer keeps one span stack, so the CLI gets one page worker
        workload.threads = 1
        setup_tracer = tracing.Tracer(workloads)
        setup_tracer.install()
        try:
            inputs = setup_tracer.call("bench.setup", set_up, workload, args.seed)
        finally:
            setup_tracer.uninstall()
        round_tracer = tracing.Tracer(workloads)
        untraced, traced = timed_rounds(runner, inputs, args.seconds, round_tracer)
        metrics = tracing.layer_metrics([(setup_tracer, 1.0), (round_tracer, 1.0 / len(traced))])
        metrics["trace.overhead_s"] = (
            statistics.mean(traced) - statistics.mean(untraced), "s"
        )
        _check_self_times(metrics)
        raw = {"untraced_rounds": untraced, "traced_rounds": traced}
        _write(f"trace-{args.workload}-seed{args.seed}.json", {
            "setup": setup_tracer.dump(), "rounds": round_tracer.dump(),
            "traced_rounds": len(traced),
        })
    else:
        imports, setups = [], []
        for _ in range(SETUP_REPEATS):
            imports.append(import_seconds())
            stolen, cpu, start = stolen_seconds(), time.process_time(), workloads.clock()
            inputs = set_up(workload, args.seed)
            wall = workloads.clock() - start
            share = steal_free(time.process_time() - cpu, stolen_seconds() - stolen)
            setups.append(wall * share)
        setup_s = statistics.median(imports) + statistics.median(setups)
        rounds, _ = timed_rounds(runner, inputs, args.seconds)
        metrics = end_to_end(runner, setup_s)
        raw = {"imports": imports, "setups": setups, "rounds": rounds}

    correct = runner.check(inputs)
    for problem in runner.problems[:20]:
        print(f"check: {problem}", file=sys.stderr)
    raw.update(
        workload=args.workload, seed=args.seed, trace=args.trace,
        instance_s=runner.instance_s, first_page_s=runner.first_page_s,
        stolen_s=runner.stolen_s, cpu_s=runner.cpu_s,
        problems=runner.problems,
    )
    _write(f"{args.workload}-seed{args.seed}-trace{args.trace}.json", raw)

    stolen = sum(sum(v) for v in runner.stolen_s.values())
    print(f"workload {args.workload}  seed {args.seed}  instances per round {len(inputs)}  "
          f"attempted {runner.attempted}  failed {runner.failed}  correct {correct}  "
          f"steal during instances {stolen:.2f} s")
    for name, (value, unit) in metrics.items():
        print(f"  {name:<44} {value:>16.6f} {unit}")
    result = {
        "correct": correct,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


def _check_self_times(metrics):
    """The layers' self times partition the traced time."""
    total = sum(
        metrics[k][0]
        for k in ("linalg.self_s", "spectral.self_s", "builders.self_s", "cli.self_s", "bench.self_s")
    )
    traced = metrics["trace.total_s"][0]
    if abs(total - traced) > 1e-6 * max(1.0, traced):
        raise RuntimeError(f"self times add up to {total}, traced time is {traced}")


def _write(name, payload):
    OUT.mkdir(exist_ok=True)
    with open(OUT / name, "w", encoding="utf-8") as handle:
        json.dump(payload, handle)


if __name__ == "__main__":
    sys.exit(main())
