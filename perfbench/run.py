"""Benchmark entry point: run one workload in fresh processes and print its metrics.

    python3 perfbench/run.py --workload figure-grids --seed 1 --seconds 10 --trace 0

Run from the root of a checkout of the repository; the program is imported
from its `src/` directory. With --trace 0 the end-to-end metrics are printed
(setup_s, wall_s, peak_rss_mb, op_p50_ms); with --trace 1 the per-layer
metrics of a separate traced run. Each metric is printed by name with its
unit, then the last line is one JSON object:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {name: {"value", "unit"}}}.

Scratch artifacts go to .perfbench/work (removed after the run), traces to
.perfbench/traces and one result record per run to .perfbench/results, for
perfbench/compare.py.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
STATE = os.path.join(ROOT, ".perfbench")
WORKLOADS = ("figure-grids", "loop-transport", "point-queries")
SETUP_SAMPLES = 5       # fresh processes timed for setup_s; the median is reported
RUN_BUDGET_S = 170.0    # a run must end within 180 s


def metric_units(kind):
    """{name: unit} of the "end_to_end" or "per_layer" metrics in BENCHMARK.json."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[kind]}


class RunFailed(Exception):
    pass


def child(args, deadline):
    """Run one worker process to completion and return its JSON record."""
    cmd = [sys.executable, os.path.join(HERE, "worker.py")] + args
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise RunFailed("time budget exhausted before starting a worker")
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, cwd=ROOT)
    try:
        out, err = proc.communicate(timeout=remaining)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise RunFailed(f"worker exceeded the time budget: {' '.join(args)}") from None
    if proc.returncode != 0:
        raise RunFailed(f"worker exited {proc.returncode}: {err.strip()[-2000:]}")
    lines = [line for line in out.splitlines() if line.strip()]
    try:
        return json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError) as exc:
        raise RunFailed(f"worker printed no result: {exc}; stderr: {err.strip()[-2000:]}") from None


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    deadline = time.monotonic() + RUN_BUDGET_S
    if not os.path.isfile(os.path.join(ROOT, "src", "magnomech", "__init__.py")):
        print(f"no magnomech sources under {os.path.join(ROOT, 'src')}; run from a checkout",
              file=sys.stderr)
        return 2
    workdir = os.path.join(STATE, "work", f"{args.workload}-{os.getpid()}")
    try:
        record = run(args, workdir, deadline)
    except RunFailed as exc:
        print(f"benchmark run failed: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for name, metric in record["metrics"].items():
        print(f"{name} {metric['value']:.6g} {metric['unit']}")
    if record["rounds"]:
        print(f"# rounds {record['rounds']}")
    print(f"attempted {record['attempted']} failed {record['failed']}")
    for example in record.get("failures", []):
        print(f"failed: {json.dumps(example)}", file=sys.stderr)
    result = {key: record[key] for key in ("correct", "attempted", "failed", "metrics")}
    os.makedirs(os.path.join(STATE, "results"), exist_ok=True)
    stamp = time.strftime("%Y%m%dT%H%M%S")
    path = os.path.join(STATE, "results",
                        f"{args.workload}-trace{args.trace}-seed{args.seed}-{stamp}-{os.getpid()}.json")
    with open(path, "w") as fh:
        json.dump({"workload": args.workload, "seed": args.seed, "trace": args.trace,
                   "seconds": args.seconds, **result, "rounds": record["rounds"]}, fh, indent=1)
    print(json.dumps(result))
    return 0


def run(args, workdir, deadline):
    if args.trace == 0:
        setups = [child(["--role", "setup", "--workdir", os.path.join(workdir, f"setup{k}")], deadline)
                  for k in range(SETUP_SAMPLES - 1)]
    worker = child(["--role", "workload", "--workload", args.workload, "--seed", str(args.seed),
                    "--seconds", str(args.seconds), "--trace", str(args.trace),
                    "--trace-out", os.path.join(STATE, "traces", f"{args.workload}.npz"),
                    "--workdir", workdir], deadline)
    if args.trace == 0:
        values = {"setup_s": statistics.median([s["setup_s"] for s in setups] + [worker["setup_s"]]),
                  "wall_s": worker["wall_s"], "peak_rss_mb": worker["peak_rss_mb"],
                  "op_p50_ms": worker["op_p50_ms"]}
        units = metric_units("end_to_end")
    else:
        values = worker["layers"]
        units = metric_units("per_layer")
    missing = set(units) - set(values)
    if missing:
        raise RunFailed(f"run did not produce {sorted(missing)}")
    return {"correct": True, "attempted": worker["attempted"], "failed": worker["failed"],
            "failures": worker["failures"], "rounds": worker.get("rounds"),
            "metrics": {name: {"value": values[name], "unit": units[name]} for name in units}}


if __name__ == "__main__":
    sys.exit(main())
