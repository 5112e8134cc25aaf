"""Command-line surface: presets, overrides, sweep orchestration, artifacts.

Commands
. coupling     effective coupling rates for a configuration
. self-energy  detuning sweeps of the optical dressing terms (CSV)
. spectrum     thermal-noise PSD maps (CSV, optional JSON matrix)
. surface      branch-tracked eigenvalue surfaces plus an EP list
. find-ep      exceptional-point search only (JSON)
. encircle     loop transport, the reversed twin and a chirality report

Exit codes: 0 success, 2 configuration error, 3 numeric failure.
Outputs are deterministic: rerunning a command line reproduces the data
sections byte for byte. --jobs is validated (at least 1) and kept for
compatibility, but every command runs single-threaded: each grid is one
library call.
"""

from __future__ import annotations

import argparse
import copy
import json
import sys
from dataclasses import dataclass

import numpy as np

from . import encircle as enc
from . import ep, output, presets, self_energy, spectrum
from .errors import ConfigError, NumericsError
from .model import SystemConfig, effective_couplings

CONFIG_PREFIXES = ("tm_photon.", "te_photon.", "magnon.", "phonon.", "drive_tm.", "drive_te.")

# run-parameter allowlist per command; dotted keys address nested maps
RUN_KEYS = {
    "coupling": set(),
    "self-energy": {"which", "diagonal", "tm_grid", "te_grid", "parts"},
    "spectrum": {"swept", "omega_grid", "detuning_grid", "noise.unit_psd", "noise.channels"},
    "surface": {"p_grid", "delta_grid", "region", "seeds_per_axis", "tie", "reference_frequency",
                "near_ep_rel"},
    "find-ep": {"region", "seeds_per_axis", "tie", "gap_rtol"},
    "encircle": {"loop.center_p", "loop.center_delta", "loop.radius_units", "loop.unit_p",
                 "loop.unit_delta", "loop.direction", "loop.period", "loop.start_phase",
                 "loop.samples", "tie", "align_shift_fraction", "slope_threshold", "rtol"},
}

# fallback preset per command when the user names none; grids trimmed for speed
DEFAULT_BASE = {
    "coupling": ("fig5", {}),
    "self-energy": ("fig2c", {"tm_grid": [-1e8, 1e8, 41], "te_grid": [-1e8, 1e8, 41]}),
    "spectrum": ("fig4a", {"omega_grid": [0.4e9, 2.0e9, 121], "detuning_grid": [-3e7, 1e7, 41]}),
    "surface": ("fig5", {"p_grid": [0.05e12, 1.5e12, 72], "delta_grid": [-6e7, 1e7, 56]}),
    "find-ep": ("fig5", {"seeds_per_axis": 16}),
    "encircle": ("fig6c", {}),
}


@dataclass
class RunSpec:
    command: str
    preset: str | None
    config: SystemConfig
    run_params: dict
    out_stem: str
    formats: tuple


def build_parser():
    parser = argparse.ArgumentParser(prog="magnomech", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("coupling", "self-energy", "spectrum", "surface", "find-ep", "encircle"):
        p = sub.add_parser(name)
        p.add_argument("--preset", default=None, help="named parameter preset (fig2a..fig6d)")
        p.add_argument("--config", default=None, help="JSON config file; see README schema")
        p.add_argument("--set", dest="overrides", action="append", default=[],
                       metavar="KEY=VALUE", help="override one config or run key (repeatable)")
        p.add_argument("--out", default=None, help="output base path (extension optional)")
        p.add_argument("--jobs", type=int, default=1,
                       help="accepted for compatibility (must be >= 1); runs are single-threaded")
        p.add_argument("--format", default="csv", help="comma list from {csv,json}")
    return parser


def _parse_value(raw: str):
    if ":" in raw and raw.count(":") == 2 and "{" not in raw:
        lo, hi, n = raw.split(":")
        try:
            return [float(lo), float(hi), int(n)]
        except ValueError as exc:
            raise ConfigError(f"bad grid triplet {raw!r}: {exc}") from exc
    try:
        return json.loads(raw)
    except json.JSONDecodeError:
        return raw


def _set_nested(tree, dotted, value):
    parts = dotted.split(".")
    node = tree
    for part in parts[:-1]:
        node = node.setdefault(part, {})
        if not isinstance(node, dict):
            raise ConfigError(f"override key {dotted!r} conflicts with a scalar entry")
    node[parts[-1]] = value


def load_config(path, overrides=None, base_config=None, command=None, run_params=None):
    """Build a validated SystemConfig plus run parameters from a file and overrides.

    The file holds {"config": {...}, "run": {...}}, either part optional;
    a bare config mapping (with a "modes" key) is also accepted. Overrides
    are KEY=VALUE strings addressing documented keys; unknown keys are
    rejected with the offending name.
    """
    config_dict = base_config.to_dict() if base_config is not None else None
    run_params = copy.deepcopy(run_params or {})
    if path is not None:
        try:
            with open(path) as fh:
                loaded = json.load(fh)
        except FileNotFoundError:
            raise ConfigError(f"config file not found: {path}") from None
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config parse error at line {exc.lineno}, column {exc.colno}: {exc.msg}") from exc
        if "modes" in loaded:
            config_dict = loaded
        else:
            unknown = set(loaded) - {"config", "run"}
            if unknown:
                raise ConfigError(f"unknown top-level config-file keys: {sorted(unknown)}")
            if "config" in loaded:
                config_dict = loaded["config"]
            for key, value in (loaded.get("run") or {}).items():
                _set_nested(run_params, key, value)
    if config_dict is None:
        raise ConfigError("no configuration available: pass --preset or --config")
    allowed_runs = RUN_KEYS.get(command, set())
    for item in overrides or []:
        if "=" not in item:
            raise ConfigError(f"--set expects KEY=VALUE, got {item!r}")
        key, raw = item.split("=", 1)
        key = key.strip()
        value = _parse_value(raw.strip())
        if key.startswith(CONFIG_PREFIXES):
            section, field_name = key.split(".", 1)
            branch = "drives" if section.startswith("drive_") else "modes"
            name = section.replace("drive_", "") if branch == "drives" else section
            try:
                config_dict[branch][name][field_name]
            except KeyError:
                raise ConfigError(f"unknown config key {key!r}") from None
            config_dict[branch][name][field_name] = value
        elif key in allowed_runs:
            _set_nested(run_params, key, value)
        else:
            raise ConfigError(f"unknown override key {key!r} for command {command!r}")
    return SystemConfig.from_dict(config_dict), run_params


def make_runspec(args) -> RunSpec:
    command = args.command
    if args.preset is not None:
        preset = presets.get_preset(args.preset)
        # coupling only reads the config; find-ep shares the surface presets
        compatible = (preset.command == command or command == "coupling"
                      or (command == "find-ep" and preset.command == "surface"))
        if not compatible:
            raise ConfigError(f"preset {preset.name!r} belongs to command {preset.command!r}")
        base_config, base_run = preset.config, copy.deepcopy(preset.run_params)
    else:
        base_name, trim = DEFAULT_BASE[command]
        preset = None
        base = presets.get_preset(base_name)
        base_config, base_run = base.config, {**copy.deepcopy(base.run_params), **copy.deepcopy(trim)}
    config, run_params = load_config(args.config, args.overrides, base_config=base_config,
                                     command=command, run_params=base_run)
    formats = tuple(f.strip() for f in args.format.split(",") if f.strip())
    bad = set(formats) - {"csv", "json"}
    if bad or not formats:
        raise ConfigError(f"--format must be a comma list from {{csv,json}}, got {args.format!r}")
    if args.jobs < 1:
        raise ConfigError("--jobs must be at least 1")
    stem = args.out or (args.preset or command)
    for ext in (".csv", ".json"):
        if stem.endswith(ext):
            stem = stem[: -len(ext)]
    return RunSpec(command=command, preset=args.preset, config=config, run_params=run_params,
                   out_stem=stem, formats=formats)


def _linspace(triplet, name):
    try:
        lo, hi, n = triplet
        n = int(n)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{name} must be a [lo, hi, count] triplet, got {triplet!r}") from exc
    if n < 1:
        raise ConfigError(f"{name} count must be >= 1")
    return np.linspace(float(lo), float(hi), n)


def _meta(spec, extra=None):
    return output.metadata_block(spec.command, spec.preset, spec.config, spec.run_params, extra)


def _artifact(spec, suffix, ext):
    return f"{spec.out_stem}{suffix}.{ext}"


def _write_table(spec, suffix, table, extra=None):
    """Write a column table as CSV and/or JSON {"columns", "rows"}, per --format; return the paths."""
    written = []
    if "csv" in spec.formats:
        written.append(_artifact(spec, suffix, "csv"))
        output.write_csv(written[-1], table, _meta(spec, extra))
    if "json" in spec.formats:
        written.append(_artifact(spec, suffix, "json"))
        rows = list(zip(*(np.asarray(col).tolist() for col in table.values())))
        output.write_json(written[-1], {"columns": list(table), "rows": rows}, _meta(spec, extra))
    return written


def _run_coupling(spec: RunSpec):
    g = effective_couplings(spec.config)
    row = {
        "g_a_re": g.g_a.real, "g_a_im": g.g_a.imag, "g_a_abs": abs(g.g_a),
        "g_b_re": g.g_b.real, "g_b_im": g.g_b.imag, "g_b_abs": abs(g.g_b),
    }
    written = []
    if "csv" in spec.formats:
        path = _artifact(spec, "", "csv")
        output.write_csv(path, {name: [value] for name, value in row.items()}, _meta(spec))
        written.append(path)
    if "json" in spec.formats:
        path = _artifact(spec, "", "json")
        output.write_json(path, row, _meta(spec))
        written.append(path)
    return written


def _run_self_energy(spec: RunSpec):
    run = spec.run_params
    tm_grid = _linspace(run.get("tm_grid", [-1e8, 1e8, 41]), "tm_grid")
    te_grid = _linspace(run.get("te_grid", [-1e8, 1e8, 41]), "te_grid")
    diagonal = bool(run.get("diagonal", False))
    parts = run.get("parts") or [run.get("which", "mm")]
    if diagonal:
        axes = {"delta_tm": tm_grid, "delta_te": te_grid}
    else:
        axes = {"delta_tm": output.GridAxis(tm_grid, repeat=te_grid.size),
                "delta_te": output.GridAxis(te_grid, tile=tm_grid.size)}
    written = []
    for part in parts:
        suffix = f"_{part}" if len(parts) > 1 else ""
        sigma = self_energy.sweep_self_energy(spec.config, tm_grid, te_grid, part, diagonal=diagonal)
        table = {**axes, "re_sigma": sigma.real, "im_sigma": sigma.imag}
        extra = {"component": part, "sweep": "diagonal" if diagonal else "grid"}
        written += _write_table(spec, suffix, table, extra)
    return written


def _noise_from_run(run):
    noise_cfg = run.get("noise") or {}
    kwargs = {}
    if "unit_psd" in noise_cfg:
        kwargs["unit_psd"] = float(noise_cfg["unit_psd"])
    if "channels" in noise_cfg:
        raw = noise_cfg["channels"]
        names = raw.split(",") if isinstance(raw, str) else list(raw)
        kwargs["channels"] = frozenset(n.strip() for n in names)
    return spectrum.NoiseParams(**kwargs)


def _run_spectrum(spec: RunSpec):
    run = spec.run_params
    omega_grid = _linspace(run["omega_grid"], "omega_grid")
    detuning_grid = _linspace(run["detuning_grid"], "detuning_grid")
    swept = run.get("swept", "TE")
    psd = spectrum.psd_map(spec.config, omega_grid, detuning_grid, swept=swept,
                           noise=_noise_from_run(run))
    extra = {"swept": swept}
    written = []
    if "csv" in spec.formats:
        path = _artifact(spec, "", "csv")
        output.write_csv(path, {"omega": output.GridAxis(omega_grid, tile=detuning_grid.size),
                                "detuning": output.GridAxis(detuning_grid, repeat=omega_grid.size),
                                "psd": psd.ravel()}, _meta(spec, extra))
        written.append(path)
    if "json" in spec.formats:
        path = _artifact(spec, "", "json")
        output.write_json(path, {"omega": omega_grid.tolist(), "detuning": detuning_grid.tolist(),
                                 "psd": psd.tolist()}, _meta(spec, extra))
        written.append(path)
    return written


def _region_from_run(run):
    region = run.get("region")
    if region is None:
        raise ConfigError("EP search needs run key 'region' = [[p_lo, p_hi], [delta_lo, delta_hi]]")
    try:
        (p_lo, p_hi), (d_lo, d_hi) = region
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"malformed region {region!r}") from exc
    return (float(p_lo), float(p_hi)), (float(d_lo), float(d_hi))


def _ep_records(spec, region, tie):
    locations = ep.find_exceptional_points(
        spec.config, region, seeds_per_axis=int(spec.run_params.get("seeds_per_axis", 24)),
        gap_rtol=float(spec.run_params.get("gap_rtol", 1e-6)), tie_tm_detuning=tie)
    return [loc.to_record() for loc in locations]


def _run_surface(spec: RunSpec):
    run = spec.run_params
    tie = bool(run.get("tie", False))
    p_grid = _linspace(run["p_grid"], "p_grid")
    delta_grid = _linspace(run["delta_grid"], "delta_grid")
    surf = ep.riemann_surface(spec.config, p_grid, delta_grid,
                              near_ep_rel=float(run.get("near_ep_rel", 1e-3)),
                              tie_tm_detuning=tie,
                              reference_frequency=float(run.get("reference_frequency", 1e9)))
    ref = surf.reference_frequency
    table = {"p_in": output.GridAxis(surf.p_grid, repeat=surf.delta_grid.size),
             "delta": output.GridAxis(surf.delta_grid, tile=surf.p_grid.size),
             "re_lambda_1": (surf.lambda1.real - ref).ravel(), "im_lambda_1": surf.lambda1.imag.ravel(),
             "re_lambda_2": (surf.lambda2.real - ref).ravel(), "im_lambda_2": surf.lambda2.imag.ravel(),
             "near_ep_flag": surf.near_ep.ravel().astype(int)}
    extra = {"reference_frequency": repr(float(ref)),
             "note": "re_lambda columns are offsets from reference_frequency"}
    written = _write_table(spec, "", table, extra)
    records = _ep_records(spec, _region_from_run(run), tie)
    path = _artifact(spec, "_eps", "json")
    output.write_json(path, records, _meta(spec, {"count": str(len(records))}))
    written.append(path)
    return written


def _run_find_ep(spec: RunSpec):
    run = spec.run_params
    records = _ep_records(spec, _region_from_run(run), bool(run.get("tie", False)))
    written = []
    path = _artifact(spec, "", "json")
    output.write_json(path, records, _meta(spec, {"count": str(len(records))}))
    written.append(path)
    if "csv" in spec.formats:
        path = _artifact(spec, "", "csv")
        columns = ("p_in", "delta", "residual", "lambda_re", "lambda_im", "gap")
        output.write_csv(path, {c: np.array([r[c] for r in records], dtype=float) for c in columns},
                         _meta(spec, {"count": str(len(records))}))
        written.append(path)
    return written


def _loop_from_run(run):
    loop_cfg = run.get("loop") or {}
    missing = {"center_p", "center_delta"} - set(loop_cfg)
    if missing:
        raise ConfigError(f"encircle needs loop keys {sorted(missing)}")
    return enc.LoopSpec(
        center=(float(loop_cfg["center_p"]), float(loop_cfg["center_delta"])),
        radius_units=float(loop_cfg.get("radius_units", 1.0)),
        unit_scale=(float(loop_cfg.get("unit_p", 1e11)), float(loop_cfg.get("unit_delta", 1e6))),
        direction=str(loop_cfg.get("direction", "ccw")),
        period=float(loop_cfg.get("period", 10e-3)),
        start_phase=float(loop_cfg.get("start_phase", 0.0)),
        samples=int(loop_cfg.get("samples", 512)),
    )


def _trajectory_table(traj):
    return {"t": traj.times, "theta": traj.theta, "p_in": traj.p_in, "delta": traj.delta,
            "f_a": traj.fractions[:, 0], "f_b": traj.fractions[:, 1], "log_norm": traj.log_norm}


def _run_encircle(spec: RunSpec):
    run = spec.run_params
    loop = _loop_from_run(run)
    tie = bool(run.get("tie", False))
    rtol = float(run.get("rtol", 1e-8))
    primary, reverse = (enc.evolve(one_loop, spec.config, rtol=rtol, tie_tm_detuning=tie)
                        for one_loop in (loop, loop.reversed()))
    align = int(round(loop.samples * float(run.get("align_shift_fraction", 0.5))))
    report = enc.chirality_report(primary, reverse, align_shift=align,
                                  slope_threshold=float(run.get("slope_threshold", 0.5)))
    written = []
    for traj, suffix in ((primary, ""), (reverse, "_reverse")):
        extra = {"direction": traj.loop.direction, "period": repr(float(traj.loop.period))}
        written += _write_table(spec, suffix, _trajectory_table(traj), extra)
    path = _artifact(spec, "_chirality", "json")
    output.write_json(path, report.to_dict(), _meta(spec))
    written.append(path)
    return written


_RUNNERS = {
    "coupling": _run_coupling,
    "self-energy": _run_self_energy,
    "spectrum": _run_spectrum,
    "surface": _run_surface,
    "find-ep": _run_find_ep,
    "encircle": _run_encircle,
}


def run(spec: RunSpec) -> int:
    written = _RUNNERS[spec.command](spec)
    for path in written:
        print(f"wrote {path}")
    return 0


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return run(make_runspec(args))
    except ConfigError as exc:
        json.dump({"error": {"type": "config", "message": str(exc)}}, sys.stderr)
        sys.stderr.write("\n")
        return 2
    except NumericsError as exc:
        json.dump({"error": {"type": "numeric", "message": str(exc)}}, sys.stderr)
        sys.stderr.write("\n")
        return 3


if __name__ == "__main__":
    sys.exit(main())
