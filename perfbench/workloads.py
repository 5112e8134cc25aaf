"""The benchmark's three workloads and the checks run on their outputs.

Each workload is a closed loop with a single client: one operation is issued
only after the previous one returned. A round is one pass over a fixed list
of operations; every round of a workload issues the same operations, so the
share of failed operations does not depend on how many rounds a run makes.

- figure-grids: every non-loop preset through `cli.main` (grid layers plus
  artifact writing, no loop propagation).
- loop-transport: fig6a and fig6c through `cli.main`; each invocation also
  runs the reversed twin (loop propagation and per-point operator assembly).
- point-queries: single-point library calls on seeded random configurations
  (the grid layers one point at a time, where per-call overhead dominates).

Operations look the program's functions up at call time, so a tracer
installed between rounds sees them.
"""

from __future__ import annotations

import copy
import functools
import os
from dataclasses import dataclass

import numpy as np

import checks as ck

FIGURE_PRESETS = ("fig2a", "fig2b", "fig2c", "fig2d", "fig3", "fig4a", "fig4b", "fig4c",
                  "fig4d", "fig4e", "fig4f", "fig5", "fig5_tied")
LOOP_PRESETS = ("fig6a", "fig6c")

# run-parameter overrides that shrink each command for the self-test
TINY_OVERRIDES = {
    "self-energy": {"tm_grid": [-1e8, 1e8, 21], "te_grid": [-1e8, 1e8, 21]},
    "spectrum": {"omega_grid": [4e8, 2e9, 40], "detuning_grid": [-3e7, 1e7, 12]},
    "surface": {"p_grid": [5e10, 1.5e12, 12], "delta_grid": [-6e7, 1e7, 10], "seeds_per_axis": 8},
    "encircle": {"loop.period": 2e-6, "loop.samples": 128},
}

# loop-transport runs fig6a/fig6c at a quarter of their shipped 100 us period:
# the same loops, centres, directions and layers, with a quarter of the
# integrator steps, so that one round takes about 15 s instead of about 60 s
LOOP_OVERRIDES = {"loop.period": 2.5e-5}

SIGMA_SAMPLES = 64
PSD_SAMPLES = 24
SURFACE_SAMPLES = 48


@dataclass
class Op:
    label: str
    kind: str
    call: object  # zero-argument callable


# --- preset operations through cli.main -------------------------------------------

@dataclass
class PresetRun:
    name: str
    command: str
    config: object     # SystemConfig of the preset
    cfg: dict          # config.to_dict()
    run: dict          # run parameters, overrides applied
    stem: str
    argv: list

    @classmethod
    def make(cls, mm, name, workdir, overrides):
        preset = mm.get_preset(name)
        run = copy.deepcopy(preset.run_params)
        argv = [preset.command, "--preset", name, "--format", "csv,json", "--jobs", "1",
                "--out", os.path.join(workdir, name)]
        for key, value in overrides.items():
            node = run
            parts = key.split(".")
            for part in parts[:-1]:
                node = node.setdefault(part, {})
            node[parts[-1]] = value
            text = f"{value[0]!r}:{value[1]!r}:{value[2]}" if isinstance(value, list) else repr(value)
            argv += ["--set", f"{key}={text}"]
        return cls(name, preset.command, preset.config, preset.config.to_dict(), run,
                   os.path.join(workdir, name), argv)

    def paths(self):
        """Suffixes of the CSV/JSON artifact pairs this preset writes with --format csv,json."""
        if self.command == "self-energy":
            parts = self.run.get("parts") or [self.run.get("which", "mm")]
            return [f"_{p}" if len(parts) > 1 else "" for p in parts]
        if self.command == "encircle":
            return ["", "_reverse"]
        return [""]


def load_artifacts(spec: PresetRun):
    arts = {}
    for suffix in spec.paths():
        arts[suffix + ".csv"] = ck.read_csv(spec.stem + suffix + ".csv")
        arts[suffix + ".json"] = ck.read_json(spec.stem + suffix + ".json")
    if spec.command == "surface":
        arts["_eps.json"] = ck.read_json(spec.stem + "_eps.json")
    if spec.command == "encircle":
        arts["_chirality.json"] = ck.read_json(spec.stem + "_chirality.json")
    return arts


def preset_checks(mm, spec: PresetRun, arts: dict, seed: int):
    """(check name, zero-argument callable) pairs for one preset's artifacts."""
    out = []
    for suffix in spec.paths():
        out.append((f"csv_json_agree{suffix}",
                    functools.partial(ck.check_csv_json_agree, spec.command, arts[suffix + ".csv"],
                                      arts[suffix + ".json"])))
    run = spec.run
    if spec.command == "self-energy":
        parts = run.get("parts") or [run.get("which", "mm")]
        for part, suffix in zip(parts, spec.paths()):
            table = arts[suffix + ".csv"]
            rows = ck.sample_indices(seed, spec.name + suffix, len(table.data), SIGMA_SAMPLES)
            out.append((f"sigma_closed_form{suffix}",
                        functools.partial(ck.check_sigma_rows, part, spec.cfg, table, rows,
                                          run.get("eval_omega"))))
            if part == "rr" and run.get("diagonal"):
                out.append(("sigma_rr_antisymmetric", functools.partial(ck.check_rr_antisymmetric, table)))
        if {"mr", "rm"} <= set(parts):
            out.append(("mr_rm_moduli", functools.partial(
                ck.check_mr_rm_moduli, arts[spec.paths()[parts.index("mr")] + ".csv"],
                arts[spec.paths()[parts.index("rm")] + ".csv"])))
    elif spec.command == "spectrum":
        table = arts[".csv"]
        rows = ck.sample_indices(seed, spec.name, len(table.data), PSD_SAMPLES)
        out.append(("psd_finite_nonnegative", functools.partial(ck.check_psd_values, table)))
        out.append(("psd_closed_form", functools.partial(ck.check_psd_cells, table, rows,
                                                         _psd_cell(mm, spec))))
    elif spec.command == "surface":
        table = arts[".csv"]
        tie = bool(run.get("tie", False))

        def hamiltonian(p, d):
            return mm.hamiltonian_on_plane(spec.config, p, d, tie)

        rows = ck.sample_indices(seed, spec.name, len(table.data), SURFACE_SAMPLES)
        out.append(("surface_trace_det", functools.partial(ck.check_surface_cells, table, rows, hamiltonian)))
        region = tuple(tuple(float(v) for v in axis) for axis in run["region"])
        out.append(("ep_records", functools.partial(ck.check_ep_records, arts["_eps.json"]["data"], region,
                                                    float(run.get("gap_rtol", 1e-6)), hamiltonian)))
    elif spec.command == "encircle":
        out.extend(_loop_checks(mm, spec, arts, seed))
    return out


def _psd_cell(mm, spec: PresetRun):
    noise = spec.run.get("noise") or {}
    unit = float(noise.get("unit_psd", 1.0))
    channels = noise.get("channels", "r+,r-,m+,m-")
    channels = {c.strip() for c in (channels.split(",") if isinstance(channels, str) else channels)}
    branch = "te" if spec.run.get("swept", "TE") == "TE" else "tm"

    def cell_psd(omega, detuning):
        cfg = copy.deepcopy(spec.cfg)
        cfg["drives"][branch]["detuning"] = float(detuning)
        coeffs = mm.closed_form_response(float(omega), mm.SystemConfig.from_dict(cfg))
        return unit * sum(abs(v) ** 2 for ch, v in coeffs.items() if ch in channels)

    return cell_psd


def _loop_checks(mm, spec: PresetRun, arts: dict, seed: int):
    tie = bool(spec.run.get("tie", False))
    loops = {"": ck.Loop.from_run(spec.run["loop"]), "_reverse": ck.Loop.from_run(spec.run["loop"], reverse=True)}
    shared = {}

    def operator():
        # one interpolant serves both directions: they trace the same ellipse
        if "op" not in shared:
            shared["op"] = ck.LoopOperator.sample(
                loops[""], lambda p, d: mm.hamiltonian_on_plane(spec.config, p, d, tie), seed=seed)
        return shared["op"]

    def reference(suffix):
        # exact transport and growth bounds, computed once per direction
        if suffix not in shared:
            op = operator()
            shared[suffix] = (ck.exact_transport(loops[suffix], op), ck.growth_bounds(loops[suffix], op))
        return shared[suffix]

    def final_state(suffix):
        ck.check_final_state(arts[suffix + ".csv"], reference(suffix)[0])

    def growth(suffix):
        ck.check_growth_bounds(arts[suffix + ".csv"], reference(suffix)[1])

    out = []
    for suffix in ("", "_reverse"):
        table = arts[suffix + ".csv"]
        out += [
            (f"on_ellipse{suffix}", functools.partial(ck.check_on_ellipse, table, loops[suffix])),
            (f"fraction_sum{suffix}", functools.partial(ck.check_fraction_sum, table)),
            (f"start_row{suffix}", functools.partial(ck.check_start_row, table)),
            (f"growth_bounds{suffix}", functools.partial(growth, suffix)),
            (f"final_state{suffix}", functools.partial(final_state, suffix)),
        ]
    align = int(round(loops[""].samples * float(spec.run.get("align_shift_fraction", 0.5))))
    out.append(("chirality_recompute", functools.partial(
        ck.check_chirality, arts["_chirality.json"]["data"], arts[".csv"], arts["_reverse.csv"],
        align, float(spec.run.get("slope_threshold", 0.5)))))
    return out


class PresetWorkload:
    presets: tuple = ()

    overrides: dict = {}

    def __init__(self, mm, seed, workdir, tiny=False):
        self.mm, self.seed = mm, seed
        self.runs = {}
        for name in self.presets:
            command = mm.get_preset(name).command
            overrides = {**self.overrides, **(TINY_OVERRIDES[command] if tiny else {})}
            self.runs[name] = PresetRun.make(mm, name, workdir, overrides)
        self.order = [self.presets[k] for k in np.random.default_rng(seed).permutation(len(self.presets))]

    def ops(self, round_index):
        mm = self.mm
        return [Op(name, "cli", functools.partial(_cli_main, mm, self.runs[name].argv)) for name in self.order]

    def check(self, ops, results, round_index):
        """Per operation: list of (check name, message) failures."""
        failures = {}
        for op, (ok, result) in zip(ops, results):
            bad = []
            if not ok:
                bad.append(("raised", repr(result)))
            elif result != 0:
                bad.append(("exit_code", f"cli.main returned {result}"))
            else:
                spec = self.runs[op.label]
                try:
                    arts = load_artifacts(spec)
                except (OSError, ValueError, KeyError, IndexError) as exc:
                    bad.append(("artifacts_readable", repr(exc)))
                else:
                    for name, fn in preset_checks(self.mm, spec, arts, self.seed):
                        try:
                            fn()
                        except ck.CheckFailed as exc:
                            bad.append((name, str(exc)))
            if bad:
                failures[op.label] = bad
        return failures


def _cli_main(mm, argv):
    return mm.cli.main(list(argv))


class FigureGrids(PresetWorkload):
    presets = FIGURE_PRESETS


class LoopTransport(PresetWorkload):
    presets = LOOP_PRESETS
    overrides = LOOP_OVERRIDES


# --- point queries ---------------------------------------------------------------------

QUERY_KINDS = ("coupling", "sigma", "psd", "response", "closed_form", "eigen")

# tame parameter ranges (Hz), bounded away from singular solves: the drive
# strengths keep the optical dressing below the intrinsic dampings, and over
# 48 000 drawn configurations the 6x6 condition number stayed below 500,
# against the program's limit of 1e13
RANGES = {
    "omega_m": (6e8, 1.4e9), "omega_r": (6e8, 1.4e9),
    "gamma_m": (1e7, 5e7), "gamma_r": (1e7, 5e7),
    "kappa_tm": (1e7, 4e7), "kappa_te": (1e7, 4e7),
    "strength_tm": (1e10, 2e11), "strength_te": (1e10, 2e11),
    "delta_tm": (-3e7, 3e7), "delta_te": (-3e7, 3e7),
    "omega": (4e8, 2e9), "p_in": (5e10, 1.5e12), "delta": (-6e7, 1e7),
}
QUERIES_PER_ROUND = 1000


def random_query_inputs(mm, rng, n):
    """n configurations plus a query frequency and an EP-plane point for each."""
    draw = {key: rng.uniform(lo, hi, n) for key, (lo, hi) in RANGES.items()}
    out = []
    for i in range(n):
        config = mm.SystemConfig(
            tm_photon=mm.critical_mode("tm_photon", 0.0, draw["kappa_tm"][i]),
            te_photon=mm.critical_mode("te_photon", 0.0, draw["kappa_te"][i]),
            magnon=mm.OscillatorMode("magnon", draw["omega_m"][i], draw["gamma_m"][i]),
            phonon=mm.OscillatorMode("phonon", draw["omega_r"][i], draw["gamma_r"][i]),
            drive_tm=mm.PumpDrive("tm_photon", draw["delta_tm"][i], draw["strength_tm"][i]),
            drive_te=mm.PumpDrive("te_photon", draw["delta_te"][i], draw["strength_te"][i]),
        )
        out.append((config, config.to_dict(), float(draw["omega"][i]), float(draw["p_in"][i]),
                    float(draw["delta"][i])))
    return out


def _eigen_query(mm, config, p, d):
    h = mm.hamiltonian_on_plane(config, p, d)
    return h, mm.eigenpairs(h)


class PointQueries:
    def __init__(self, mm, seed, workdir, tiny=False):
        self.mm, self.seed = mm, seed
        self.per_round = 50 if tiny else QUERIES_PER_ROUND
        self._inputs = {}

    def inputs(self, round_index):
        if round_index not in self._inputs:
            self._inputs.clear()
            rng = np.random.default_rng([self.seed, round_index])
            self._inputs[round_index] = random_query_inputs(self.mm, rng, self.per_round)
        return self._inputs[round_index]

    def ops(self, round_index):
        mm = self.mm
        ops = []
        for i, (config, cfg, omega, p, d) in enumerate(self.inputs(round_index)):
            w_m, w_r = cfg["modes"]["magnon"]["omega"], cfg["modes"]["phonon"]["omega"]
            ops += [
                Op(f"{i}.coupling", "coupling", functools.partial(mm.effective_couplings, config)),
                Op(f"{i}.sigma_rr", "sigma", functools.partial(mm.sigma_rr, w_r, config)),
                Op(f"{i}.sigma_mm", "sigma", functools.partial(mm.sigma_mm, w_m, config)),
                Op(f"{i}.sigma_mr", "sigma", functools.partial(mm.sigma_mr, w_m, config)),
                Op(f"{i}.sigma_rm", "sigma", functools.partial(mm.sigma_rm, w_m, config)),
                Op(f"{i}.psd", "psd", functools.partial(mm.psd, omega, config)),
                Op(f"{i}.response", "response", functools.partial(mm.linear_system_response, omega, config)),
                Op(f"{i}.closed_form", "closed_form", functools.partial(mm.closed_form_response, omega, config)),
                Op(f"{i}.eigen", "eigen", functools.partial(_eigen_query, mm, config, p, d)),
            ]
        return ops

    def check(self, ops, results, round_index):
        inputs = self.inputs(round_index)
        by_label = {op.label: (ok, res) for op, (ok, res) in zip(ops, results)}
        failures = {}

        def run(label, fn, *args):
            try:
                fn(*args)
            except ck.CheckFailed as exc:
                failures.setdefault(label, []).append((label.split(".", 1)[1], str(exc)))

        for label, (ok, res) in by_label.items():
            if not ok:
                failures.setdefault(label, []).append(("raised", repr(res)))
        for i, (config, cfg, omega, p, d) in enumerate(inputs):
            def get(kind):
                ok, res = by_label[f"{i}.{kind}"]
                return res if ok else None

            if get("coupling") is not None:
                run(f"{i}.coupling", ck.check_coupling, cfg, get("coupling"))
            for which in ("rr", "mm", "mr", "rm"):
                got = get(f"sigma_{which}")
                if got is not None:
                    w = cfg["modes"]["phonon" if which == "rr" else "magnon"]["omega"]
                    run(f"{i}.sigma_{which}", ck.check_sigma, which, cfg, w, got)
            closed = get("closed_form")
            if closed is not None:
                if get("psd") is not None:
                    run(f"{i}.psd", ck.check_psd_point, get("psd"), closed)
                if get("response") is not None:
                    run(f"{i}.response", ck.check_response_pair, get("response"), closed)
                    run(f"{i}.closed_form", ck.check_response_pair, get("response"), closed)
            if get("eigen") is not None:
                run(f"{i}.eigen", ck.check_eigen, *get("eigen"))
        return failures


WORKLOADS = {"figure-grids": FigureGrids, "loop-transport": LoopTransport, "point-queries": PointQueries}
