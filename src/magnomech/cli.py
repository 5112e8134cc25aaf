"""Command-line surface: presets, overrides, sweep orchestration, artifacts.

Commands
. coupling     effective coupling rates for a configuration
. self-energy  detuning sweeps of the optical dressing terms (CSV)
. spectrum     thermal-noise PSD maps (CSV, optional JSON matrix)
. surface      branch-tracked eigenvalue surfaces plus an EP list
. find-ep      exceptional-point search only (JSON)
. encircle     loop transport, the reversed twin and a chirality report

Each command takes its own presets; coupling takes any, and find-ep the
surface presets too. With no --preset a command runs its default base, a
preset with trimmed grids.

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
import os
import sys
from dataclasses import dataclass, replace

import numpy as np

from . import encircle as enc
from . import ep, output, presets, self_energy, spectrum
from .errors import ConfigError, NumericsError
from .model import _LAYOUT, SystemConfig, _count, _number, effective_couplings

CONFIG_PREFIXES = tuple(f"{prefix}." for prefix in _LAYOUT)  # --set keys that SystemConfig.from_dict applies

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
    for name in COMMANDS:
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
    if raw.count(":") == 2 and "{" not in raw:  # lo:hi:n, checked where the grid is read
        return [_parse_value(part) for part in raw.split(":")]
    try:
        return json.loads(raw)
    except json.JSONDecodeError:
        return raw


def _set_nested(tree, dotted, value):
    *parents, last = dotted.split(".")
    for part in parents:
        tree = tree.setdefault(part, {})
    tree[last] = value


def make_runspec(args) -> RunSpec:
    """Read parsed arguments into a RunSpec, over --preset or else the command's default base in COMMANDS.

    The --config file holds {"config": {...}, "run": {...}}, either part
    optional; a bare config mapping (with a "modes" key) is also accepted.
    --set takes KEY=VALUE strings addressing documented keys. The file's run
    keys and --set's pass one check: an unknown key is rejected with its name.
    --set's config keys go to SystemConfig.from_dict, which checks them too.
    """
    command = args.command
    _, run_keys, accepts, base_name, trim = COMMANDS[command]
    if args.preset is not None:
        base, trim = presets.get_preset(args.preset), {}
        if accepts is not None and base.command not in accepts:
            raise ConfigError(f"preset {base.name!r} belongs to command {base.command!r}")
    else:
        base = presets.get_preset(base_name)
    config_dict, run_params = base.config.to_dict(), copy.deepcopy({**base.run_params, **trim})
    config_items, run_items = [], []  # (key, value), the file's run items first so that --set overrides them
    if args.config is not None:
        try:
            with open(args.config) as fh:
                loaded = json.load(fh)
        except FileNotFoundError:
            raise ConfigError(f"config file not found: {args.config}") from None
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config parse error at line {exc.lineno}, column {exc.colno}: {exc.msg}") from exc
        if not isinstance(loaded, dict):
            raise ConfigError(f"config file {args.config} must hold a JSON object, got {loaded!r}")
        if "modes" in loaded:
            config_dict = loaded
        else:
            unknown = set(loaded) - {"config", "run"}
            if unknown:
                raise ConfigError(f"unknown top-level config-file keys: {sorted(unknown)}")
            if "config" in loaded:
                config_dict = loaded["config"]
            run_section = loaded.get("run", {})
            if not isinstance(run_section, dict):
                raise ConfigError(f"config-file 'run' must map dotted run keys to values, got {run_section!r}")
            run_items += run_section.items()
    for item in args.overrides:
        if "=" not in item:
            raise ConfigError(f"--set expects KEY=VALUE, got {item!r}")
        key, raw = item.split("=", 1)
        key = key.strip()
        value = _parse_value(raw.strip())
        (config_items if key.startswith(CONFIG_PREFIXES) else run_items).append((key, value))
    for key, value in run_items:
        if key not in run_keys:
            raise ConfigError(f"unknown run key {key!r} for command {command!r}")
        _set_nested(run_params, key, value)
    config = SystemConfig.from_dict(config_dict, config_items)
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
    if not os.path.isdir(os.path.dirname(stem) or "."):  # refused before any work, not after it
        raise ConfigError(f"--out directory does not exist: {os.path.dirname(stem)}")
    return RunSpec(command=command, preset=args.preset, config=config, run_params=run_params,
                   out_stem=stem, formats=formats)


def _linspace(triplet, name):
    try:
        lo, hi, n = () if isinstance(triplet, str) else triplet  # a string would unpack into its characters
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{name} must be a [lo, hi, count] triplet, got {triplet!r}") from exc
    lo, hi, n = _number(f"{name} lo", lo), _number(f"{name} hi", hi), _count(f"{name} count", n, 1)
    return np.linspace(lo, hi, n)


def _flag(run, key):
    """A boolean run key: only JSON true or false, since bool() would read any other text as true."""
    value = run.get(key, False)
    if not isinstance(value, bool):
        raise ConfigError(f"{key!r} must be true or false, got {value!r}")
    return value


def _names(raw):
    """One name or a comma list, from a string or a JSON list."""
    names = raw.split(",") if isinstance(raw, str) else raw if isinstance(raw, list) else [raw]
    return [str(n).strip() for n in names]


def _write_table(spec, suffix, table, extra=None, json_data=output.json_rows):
    """Write a column table as CSV and JSON, as spec.formats asks; return the paths. Every artifact goes here.

    Each column is formatted once, and both files are joined from those cell
    strings: the JSON data is json_data of each column's JSON cell text.
    """
    cells = {name: output.format_column(col) for name, col in table.items()}
    meta = output.metadata_block(spec.command, spec.preset, spec.config, spec.run_params, extra)
    written = []  # both files carry one metadata block, so one config hash
    if "csv" in spec.formats:
        written.append(f"{spec.out_stem}{suffix}.csv")
        output.write_csv(written[-1], table, meta, list(cells.values()))
    if "json" in spec.formats:
        written.append(f"{spec.out_stem}{suffix}.json")
        cells = {name: output.json_cells(table[name], text) for name, text in cells.items()}
        output.write_json(written[-1], json_data(cells), meta)
    return written


def _run_coupling(spec: RunSpec):
    g = effective_couplings(spec.config)
    row = {
        "g_a_re": g.g_a.real, "g_a_im": g.g_a.imag, "g_a_abs": abs(g.g_a),
        "g_b_re": g.g_b.real, "g_b_im": g.g_b.imag, "g_b_abs": abs(g.g_b),
    }
    return _write_table(spec, "", {name: [value] for name, value in row.items()}, json_data=lambda cells: row)


def _run_self_energy(spec: RunSpec):
    run = spec.run_params
    tm_grid = _linspace(run["tm_grid"], "tm_grid")
    te_grid = _linspace(run["te_grid"], "te_grid")
    diagonal = _flag(run, "diagonal")
    parts = _names(run["parts"])
    if not parts:
        raise ConfigError("'parts' must name at least one self-energy component")
    repeated = sorted({part for part in parts if parts.count(part) > 1})
    if repeated:
        raise ConfigError(f"'parts' names a self-energy component more than once: {repeated}")
    if diagonal:
        axes = {"delta_tm": tm_grid, "delta_te": te_grid}
    else:
        axes = {"delta_tm": output.GridAxis(tm_grid, repeat=te_grid.size),
                "delta_te": output.GridAxis(te_grid, tile=tm_grid.size)}
    # every component is evaluated before any file is written, so a failing one leaves no artifact
    sigmas = [self_energy.sweep_self_energy(spec.config, tm_grid, te_grid, part, diagonal=diagonal)
              for part in parts]
    written = []
    for part, sigma in zip(parts, sigmas):
        suffix = f"_{part}" if len(parts) > 1 else ""
        table = {**axes, "re_sigma": sigma.real, "im_sigma": sigma.imag}
        extra = {"component": part, "sweep": "diagonal" if diagonal else "grid"}
        written += _write_table(spec, suffix, table, extra)
    return written


def _run_spectrum(spec: RunSpec):
    run = spec.run_params
    omega_grid = _linspace(run["omega_grid"], "omega_grid")
    detuning_grid = _linspace(run["detuning_grid"], "detuning_grid")
    swept = run["swept"]
    channels = (run.get("noise") or {}).get("channels")
    psd = spectrum.psd_map(spec.config, omega_grid, detuning_grid, swept=swept,
                           channels=spectrum.ALL_CHANNELS if channels is None else _names(channels))
    n = omega_grid.size
    table = {"omega": output.GridAxis(omega_grid, tile=detuning_grid.size),
             "detuning": output.GridAxis(detuning_grid, repeat=n), "psd": psd.ravel()}

    def json_data(cells):  # the (detuning, omega) matrix layout, rows of n cells
        rows = ", ".join(output.json_list(cells["psd"][k:k + n]) for k in range(0, psd.size, n))
        return output.JsonText(f'{{"detuning": {output.json_list(cells["detuning"][::n])}, '
                               f'"omega": {output.json_list(cells["omega"][:n])}, "psd": [{rows}]}}')

    return _write_table(spec, "", table, {"swept": swept}, json_data)


def _ep_records(spec, tie):
    run = spec.run_params
    locations = ep.find_exceptional_points(spec.config, run["region"], run["seeds_per_axis"], tie)
    return [loc.to_record() for loc in locations]


def _write_eps(spec, suffix, records, formats):
    """Write EP records as the JSON list and, where formats name csv, as a table of their columns."""
    table = {c: np.array([r[c] for r in records], dtype=float)
             for c in ("p_in", "delta", "residual", "lambda_re", "lambda_im", "gap")}
    return _write_table(replace(spec, formats=formats), suffix, table, {"count": str(len(records))},
                        lambda cells: records)


def _run_surface(spec: RunSpec):
    run = spec.run_params
    tie = _flag(run, "tie")
    p_grid = _linspace(run["p_grid"], "p_grid")  # the grids are read before the EP search: a bad one costs none
    delta_grid = _linspace(run["delta_grid"], "delta_grid")
    records = _ep_records(spec, tie)  # before the surface: a malformed region costs no surface
    ref = (spec.config.magnon.omega + spec.config.phonon.omega) / 2  # the resonators' midpoint
    surf = ep.riemann_surface(spec.config, p_grid, delta_grid, tie_tm_detuning=tie)
    table = {"p_in": output.GridAxis(surf.p_grid, repeat=surf.delta_grid.size),
             "delta": output.GridAxis(surf.delta_grid, tile=surf.p_grid.size),
             "re_lambda_1": (surf.lambda1.real - ref).ravel(), "im_lambda_1": surf.lambda1.imag.ravel(),
             "re_lambda_2": (surf.lambda2.real - ref).ravel(), "im_lambda_2": surf.lambda2.imag.ravel(),
             "near_ep_flag": surf.near_ep.ravel().astype(int)}
    extra = {"reference_frequency": repr(ref),
             "note": "re_lambda columns are offsets from reference_frequency"}
    return _write_table(spec, "", table, extra) + _write_eps(spec, "_eps", records, ("json",))


def _run_find_ep(spec: RunSpec):
    records = _ep_records(spec, _flag(spec.run_params, "tie"))
    return _write_eps(spec, "", records, (*spec.formats, "json"))  # the JSON list is always written


def _loop_from_run(run):
    """The LoopSpec of the run's loop keys, each of which every encircle preset states; LoopSpec checks them."""
    loop = run["loop"]
    return enc.LoopSpec(center=(loop["center_p"], loop["center_delta"]),
                        radius=(loop["radius_p"], loop["radius_delta"]), direction=str(loop["direction"]),
                        period=loop["period"], start_phase=loop["start_phase"], samples=loop["samples"])


def _trajectory_table(traj):
    return {"t": traj.times, "theta": traj.theta, "p_in": traj.p_in, "delta": traj.delta,
            "f_a": traj.fractions[:, 0], "f_b": traj.fractions[:, 1], "log_norm": traj.log_norm}


def _run_encircle(spec: RunSpec):
    run = spec.run_params
    loop = _loop_from_run(run)
    tie = _flag(run, "tie")
    rtol = _number("rtol", run.get("rtol", enc.RTOL))
    primary, reverse = enc.evolve_both_directions(loop, spec.config, rtol=rtol, tie_tm_detuning=tie)
    # opposite traversals of one loop line up half a period apart
    report = enc.chirality_report(primary, reverse, align_shift=round(loop.samples / 2))
    written = []
    for traj, suffix in ((primary, ""), (reverse, "_reverse")):
        extra = {"direction": traj.loop.direction, "period": repr(float(traj.loop.period)),
                 "substeps": str(traj.substeps), "passes": str(traj.passes),
                 **{f"disagreement_{key}": repr(value) for key, value in traj.disagreement.items()}}
        written += _write_table(spec, suffix, _trajectory_table(traj), extra)
    return written + _write_table(replace(spec, formats=("json",)), "_chirality", {}, json_data=lambda cells: report)


# Each command, written once and in the parser's order: (runner, run keys, accepted presets, default base preset,
# default run parameters). Dotted run keys address nested maps. A command accepts the presets of the commands it
# names, or with None any preset: coupling reads only the config, and find-ep shares the surface presets. With no
# --preset a command runs its default base, whose grids the default run parameters trim for speed.
COMMANDS = {
    "coupling": (_run_coupling, (), None, "fig5", {}),
    "self-energy": (_run_self_energy, ("diagonal", "tm_grid", "te_grid", "parts"), ("self-energy",),
                    "fig2c", {"tm_grid": [-1e8, 1e8, 41], "te_grid": [-1e8, 1e8, 41]}),
    "spectrum": (_run_spectrum, ("swept", "omega_grid", "detuning_grid", "noise.channels"), ("spectrum",),
                 "fig4a", {"omega_grid": [0.4e9, 2.0e9, 121], "detuning_grid": [-3e7, 1e7, 41]}),
    "surface": (_run_surface, ("p_grid", "delta_grid", "region", "seeds_per_axis", "tie"), ("surface",),
                "fig5", {"p_grid": [0.05e12, 1.5e12, 72], "delta_grid": [-6e7, 1e7, 56]}),
    "find-ep": (_run_find_ep, ("region", "seeds_per_axis", "tie"), ("find-ep", "surface"),
                "fig5", {"seeds_per_axis": 16}),
    "encircle": (_run_encircle, ("loop.center_p", "loop.center_delta", "loop.radius_p", "loop.radius_delta",
                                 "loop.direction", "loop.period", "loop.start_phase", "loop.samples", "tie", "rtol"),
                 ("encircle",), "fig6c", {}),
}

_PARSER = build_parser()  # parsing leaves it unchanged, so main shares one per process


def run(spec: RunSpec) -> int:
    written = COMMANDS[spec.command][0](spec)
    for path in written:
        print(f"wrote {path}")
    return 0


def main(argv=None) -> int:
    args = _PARSER.parse_args(argv)
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
