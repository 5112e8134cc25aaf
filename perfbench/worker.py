"""One fresh benchmark process: set up, run a workload's rounds, check, report.

Started by run.py, never imported by it. The last line of standard output is
one JSON object with the raw measurements; run.py turns it into metrics.

    python3 perfbench/worker.py --role setup --workdir DIR
    python3 perfbench/worker.py --role workload --workload NAME --seed N --seconds S --trace 0|1 --workdir DIR
"""

from __future__ import annotations

import argparse
import array
import json
import os
import resource
import statistics
import sys
import time
from dataclasses import dataclass

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

def setup(workdir):
    """Import magnomech, load the preset registry and make one warm-up call.

    Returns the package and the seconds taken.
    """
    t0 = time.perf_counter()
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import magnomech
    from magnomech import cli, presets

    for name in sorted(presets.REGISTRY):
        presets.get_preset(name)
    code = cli.main(["coupling", "--preset", "fig5", "--format", "csv,json",
                     "--out", os.path.join(workdir, "warmup")])
    if code != 0:
        raise RuntimeError(f"warm-up cli call exited {code}")
    return magnomech, time.perf_counter() - t0


@dataclass
class Round:
    wall_s: float       # wall time of the round
    op_s: list          # wall time of each operation
    results: list       # per operation: (returned, value or exception)


def run_round(ops):
    """Issue each operation after the previous one returned; time each and the whole round."""
    clock = time.perf_counter
    op_s, results = [], []
    start = clock()
    for op in ops:
        t = clock()
        try:
            results.append((True, op.call()))
        except Exception as exc:  # one failing operation is counted, not fatal to the run
            results.append((False, exc))
        op_s.append(clock() - t)
    return Round(clock() - start, op_s, results)


def percentile(values, q):
    return float(statistics.quantiles(values, n=100, method="inclusive")[q - 1]) if len(values) > 1 \
        else float(values[0])


def peak_rss_mb():
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def cpu_seconds():
    t = os.times()
    return t.user + t.system


class Tally:
    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.examples = []

    def add(self, ops, failures):
        self.attempted += len(ops)
        self.failed += len(failures)
        for label, bad in failures.items():
            if len(self.examples) < 5:
                self.examples.append({"op": label, "checks": bad[:3]})


def main(argv=None):
    parser = argparse.ArgumentParser()
    parser.add_argument("--role", choices=("setup", "workload"), required=True)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--trace-out")
    parser.add_argument("--tiny", action="store_true", help="shrunken inputs for the self-test")
    args = parser.parse_args(argv)
    os.makedirs(args.workdir, exist_ok=True)

    mm, setup_s = setup(args.workdir)
    record = {"setup_s": setup_s}
    if args.role == "setup":
        print(json.dumps(record))
        return 0

    sys.path.insert(0, HERE)
    import workloads

    workload = workloads.WORKLOADS[args.workload](mm, args.seed, args.workdir, tiny=args.tiny)
    tally = Tally()

    peak = {}

    def one_round(index, tracer=None):
        workload.ops(index)  # inputs are made before any tracer is installed
        if tracer is not None:
            tracer.install()
        try:
            ops = workload.ops(index)
            cpu0 = cpu_seconds()
            rnd = run_round(ops)
            cpu = cpu_seconds() - cpu0
        finally:
            if tracer is not None:
                tracer.uninstall()
        # the checks below allocate more than the program does; the peak is
        # taken before the first of them, so it covers set-up and one round
        peak.setdefault("rss_mb", peak_rss_mb())
        tally.add(ops, workload.check(ops, rnd.results, index))
        rnd.results = None  # checked; keeping them would grow memory with the round count
        return ops, rnd, cpu

    if args.trace == 0:
        walls, op_s = [], array.array("d")
        while not walls or sum(walls) < args.seconds:
            _, rnd, _ = one_round(len(walls))
            walls.append(rnd.wall_s)
            op_s.extend(rnd.op_s)
        record.update(rounds=len(walls), wall_s=statistics.median(walls),
                      op_p50_ms=1e3 * statistics.median(op_s), peak_rss_mb=peak["rss_mb"])
    else:
        import tracing

        ops, plain, cpu = one_round(0)
        layers = {"process.cpu_s": cpu}
        for kind in workloads.QUERY_KINDS:
            samples = [t for op, t in zip(ops, plain.op_s) if op.kind == kind]
            layers[f"query.{kind}.p50_us"] = 1e6 * statistics.median(samples) if samples else 0.0
            layers[f"query.{kind}.p99_us"] = 1e6 * percentile(samples, 99) if samples else 0.0
        tracer = tracing.Tracer()
        _, traced, _ = one_round(1, tracer)
        layers.update(tracer.layer_metrics())
        layers.update({"trace.wall_s": traced.wall_s, "trace.overhead_s": traced.wall_s - plain.wall_s})
        if args.trace_out:
            tracer.write(args.trace_out)
        record.update(layers=layers)
    record.update(attempted=tally.attempted, failed=tally.failed, failures=tally.examples)
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
