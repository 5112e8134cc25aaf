"""Self-test of the benchmark: tiny runs pass, and every output check bites.

    python3 perfbench/selftest.py

1. Runs each workload at a tiny size in a fresh worker process, untraced and
   traced, and requires zero failed operations, every per-layer metric, and
   a non-zero value for each layer metric the README maps to that workload.
2. Reloads the tiny figure-grids and loop-transport artifacts, corrupts one
   value for each named check in turn and requires that check to reject it;
   does the same for one result of each point-query kind.

Exits 0 when all of this holds and prints one line per check exercised.
"""

from __future__ import annotations

import copy
import dataclasses
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SEED = 7

# per-layer metrics that must read non-zero on each workload's traced run: the
# layers each workload is meant to exercise (the layer-to-metric map in README.md)
REACHED = {
    "figure-grids": (
        "model.config_rebuilds", "model.effective_couplings.calls", "model.effective_couplings.self_s",
        "ep.hamiltonian_on_plane.calls", "ep.hamiltonian_on_plane.self_s", "ep.build_hamiltonian.self_s",
        "ep.eigenpairs.calls", "ep.eigenpairs.self_s", "ep.riemann_surface.s", "ep.riemann_surface.cells",
        "ep.discriminant.calls", "ep.find_exceptional_points.s",
        "spectrum.psd.calls", "spectrum.psd.points", "spectrum.psd.self_s", "spectrum.psd_map.s",
        "self_energy.sweep_self_energy.s", "self_energy.sweep_self_energy.cells",
        "self_energy.sigma.calls", "self_energy.sigma.self_s",
        "output.write_csv.s", "output.write_json.s", "output.bytes", "output.files",
        "cli.self_s", "cli.invocations", "process.cpu_s"),
    "loop-transport": (
        "model.config_rebuilds", "model.effective_couplings.calls", "model.effective_couplings.self_s",
        "ep.hamiltonian_on_plane.calls", "ep.hamiltonian_on_plane.self_s", "ep.build_hamiltonian.self_s",
        "encircle.evolve.calls", "encircle.evolve.s", "encircle.operator_builds",
        "encircle.integrator.self_s", "encircle.chirality_report.s",
        "cli.self_s", "cli.invocations", "process.cpu_s"),
    "point-queries": (
        "model.config_rebuilds", "ep.eigenpairs.calls", "ep.eigenpairs.self_s",
        "spectrum.linear_system_response.self_s", "spectrum.closed_form_response.self_s",
        "self_energy.sigma.calls", "self_energy.sigma.self_s", "process.cpu_s",
        *(f"query.{kind}.{q}" for kind in ("coupling", "sigma", "psd", "response", "closed_form", "eigen")
          for q in ("p50_us", "p99_us"))),
}


def run_worker(workload, trace, workdir):
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--role", "workload", "--workload", workload,
           "--seed", str(SEED), "--seconds", "0", "--trace", str(trace), "--tiny", "--workdir", workdir,
           "--trace-out", os.path.join(workdir, "trace.npz")]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=600, cwd=ROOT)
    if proc.returncode != 0:
        raise SystemExit(f"{workload} trace={trace}: worker exited {proc.returncode}\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def bump(value, rel):
    return value + rel * max(abs(value), 1e-300)


def corruptions(ck, wl, seed):
    """check name (without direction suffix) -> function(arts, preset_run, suffix) corrupting one value."""

    def sampled_row(label, table, k):
        return int(ck.sample_indices(seed, label, len(table.data), k)[0])

    def csv_value(arts, spec, suffix):
        arts[suffix + ".csv"].data[1, -1] = bump(arts[suffix + ".csv"].data[1, -1], 1e-15)

    def sigma_row(arts, spec, suffix):
        t = arts[suffix + ".csv"]
        t.data[sampled_row(spec.name + suffix, t, wl.SIGMA_SAMPLES), 2] += 1e-6 * abs(t.data[:, 2:]).max()

    def rr_row(arts, spec, suffix):
        t = arts[".csv"]
        t.data[0, 3] += 1e-6 * abs(t.data[:, 2:]).max()

    def rm_modulus(arts, spec, suffix):
        arts["_rm.csv"].data[2, 3] *= 1.001

    def psd_negative(arts, spec, suffix):
        arts[".csv"].data[3, 2] = -arts[".csv"].data[3, 2]

    def psd_cell(arts, spec, suffix):
        t = arts[".csv"]
        t.data[sampled_row(spec.name, t, wl.PSD_SAMPLES), 2] *= 1 + 1e-5

    def surface_cell(arts, spec, suffix):
        t = arts[".csv"]
        t.data[sampled_row(spec.name, t, wl.SURFACE_SAMPLES), 3] += 1e3

    def ep_record(arts, spec, suffix):
        records = arts["_eps.json"]["data"]
        if not records:
            return False
        records[0]["delta"] += 1e5
        return True

    def column(name, row, change):
        def corrupt(arts, spec, suffix):
            t = arts[suffix + ".csv"]
            k = t.columns.index(name)
            r = row if row >= 0 else len(t.data) + row
            t.data[r, k] = change(t.data[r, k], t.data[:, k])
        return corrupt

    def chirality(arts, spec, suffix):
        arts["_chirality.json"]["data"]["max_aligned_difference"] += 1e-6

    return {
        "csv_json_agree": csv_value,
        "sigma_closed_form": sigma_row,
        "sigma_rr_antisymmetric": rr_row,
        "mr_rm_moduli": rm_modulus,
        "psd_finite_nonnegative": psd_negative,
        "psd_closed_form": psd_cell,
        "surface_trace_det": surface_cell,
        "ep_records": ep_record,
        "on_ellipse": column("p_in", 10, lambda v, col: v * (1 + 1e-6)),
        "fraction_sum": column("f_b", 10, lambda v, col: v + 1e-9),
        "start_row": column("log_norm", 0, lambda v, col: v + 1e-6),
        "growth_bounds": column("log_norm", 40, lambda v, col: v + 5.0),
        "final_state": column("log_norm", -1, lambda v, col: v + 1e-3 * max(1.0, abs(v))),
        "chirality_recompute": chirality,
    }


def base_name(check_name):
    for suffix in ("_reverse", "_mr", "_rm"):
        if check_name.endswith(suffix):
            return check_name[: -len(suffix)], suffix
    return check_name, ""


def exercise_artifact_checks(mm, ck, wl, workload_cls, workdir, report):
    table = corruptions(ck, wl, SEED)
    workload = workload_cls(mm, SEED, workdir, tiny=True)
    exercised = set()
    for name, spec in workload.runs.items():
        arts = wl.load_artifacts(spec)
        for check_name, fn in wl.preset_checks(mm, spec, arts, SEED):
            fn()  # clean artifacts pass
            base, suffix = base_name(check_name)
            bad = copy.deepcopy(arts)
            if table[base](bad, spec, suffix) is False:
                report.append((f"{name}:{check_name}", "skipped: nothing to corrupt"))
                continue
            target = dict(wl.preset_checks(mm, spec, bad, SEED))[check_name]
            try:
                target()
            except ck.CheckFailed as exc:
                report.append((f"{name}:{check_name}", f"rejects: {str(exc)[:90]}"))
                exercised.add(base)
            else:
                raise SystemExit(f"{name}:{check_name} accepted a corrupted artifact")
    return exercised


def exercise_query_checks(mm, ck, wl, report):
    workload = wl.PointQueries(mm, SEED, None, tiny=True)
    ops = workload.ops(0)
    results = [(True, op.call()) for op in ops]
    if workload.check(ops, results, 0):
        raise SystemExit("point queries fail their checks on clean results")
    changes = {
        "coupling": lambda r: dataclasses.replace(r, g_a=r.g_a * (1 + 1e-9)),
        "sigma": lambda r: r * (1 + 1e-8),
        "psd": lambda r: r * (1 + 1e-6),
        "response": lambda r: {**r, "r+": r["r+"] * (1 + 1e-5)},
        "closed_form": lambda r: {**r, "m+": r["m+"] * (1 + 1e-5)},
        "eigen": lambda r: (r[0], dataclasses.replace(r[1], lambda_plus=r[1].lambda_plus + 1e-6 * abs(r[0]).max())),
    }
    for kind, change in changes.items():
        k = next(i for i, op in enumerate(ops) if op.kind == kind)
        bad = list(results)
        bad[k] = (True, change(results[k][1]))
        failures = workload.check(ops, bad, 0)
        if ops[k].label not in failures:
            raise SystemExit(f"point query {ops[k].label} accepted a corrupted result")
        report.append((f"point-queries:{kind}", f"rejects: {failures[ops[k].label][0][1][:90]}"))


def main():
    scratch = os.path.join(ROOT, ".perfbench", "selftest")
    shutil.rmtree(scratch, ignore_errors=True)
    report = []
    try:
        units = json.load(open(os.path.join(ROOT, "BENCHMARK.json")))["per_layer"]
        for workload in ("figure-grids", "loop-transport", "point-queries"):
            for trace in (0, 1):
                rec = run_worker(workload, trace, os.path.join(scratch, workload))
                if rec["failed"] or not rec["attempted"]:
                    raise SystemExit(f"{workload} trace={trace}: {rec['failed']} of {rec['attempted']} "
                                     f"operations failed: {rec['failures']}")
                if trace:
                    missing = {m["name"] for m in units} - set(rec["layers"])
                    if missing:
                        raise SystemExit(f"{workload}: traced run lacks {sorted(missing)}")
                    unreached = [name for name in REACHED[workload] if not rec["layers"][name] > 0]
                    if unreached:
                        raise SystemExit(f"{workload}: traced run reads 0 for {unreached}")
                report.append((f"{workload} trace={trace}", f"{rec['attempted']} operations, none failed"))

        sys.path.insert(0, os.path.join(ROOT, "src"))
        sys.path.insert(0, HERE)
        import magnomech as mm
        import checks as ck
        import workloads as wl

        exercised = set()
        for cls, name in ((wl.FigureGrids, "figure-grids"), (wl.LoopTransport, "loop-transport")):
            exercised |= exercise_artifact_checks(mm, ck, wl, cls, os.path.join(scratch, name), report)
        never = set(corruptions(ck, wl, SEED)) - exercised
        if never:
            raise SystemExit(f"checks never shown to reject a corrupted artifact: {sorted(never)}")
        exercise_query_checks(mm, ck, wl, report)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    for name, outcome in report:
        print(f"{name:48} {outcome}")
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
