"""End-to-end command tests, run in process through cli.main(argv)."""

import json
import os
import subprocess
import sys
import warnings
from dataclasses import replace

import numpy as np
import pytest

from magnomech import cli
from magnomech.ep import eigenpairs, hamiltonian_on_plane
from magnomech.errors import ConfigError, NumericsError
from magnomech.model import effective_couplings
from magnomech.output import (GridAxis, config_hash, data_section, format_column, json_cells, json_rows,
                              metadata_block, write_csv, write_json)
from magnomech.presets import REGISTRY, get_preset, verify_registry


def read_rows(path):
    """Data rows of a CSV artifact as float lists, header names separately."""
    header, rows = None, []
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if header is None:
                header = line.split(",")
            else:
                rows.append([float(v) for v in line.split(",")])
    return header, rows


def read_json(path):
    with open(path) as fh:
        return json.load(fh)


def test_registry_matches_its_citation_table():
    assert verify_registry() == []


def test_coupling_values_match_library(tmp_path):
    stem = str(tmp_path / "coup")
    assert cli.main(["coupling", "--preset", "fig5", "--out", stem, "--format", "csv,json"]) == 0
    data = read_json(stem + ".json")["data"]
    g = effective_couplings(get_preset("fig5").config)
    assert data["g_a_re"] == pytest.approx(g.g_a.real, rel=1e-15)
    assert data["g_a_im"] == pytest.approx(g.g_a.imag, rel=1e-15)
    assert data["g_b_abs"] == pytest.approx(abs(g.g_b), rel=1e-15)
    header, rows = read_rows(stem + ".csv")
    assert header == ["g_a_re", "g_a_im", "g_a_abs", "g_b_re", "g_b_im", "g_b_abs"]
    assert rows[0][5] == pytest.approx(abs(g.g_b), rel=1e-15)


def test_out_extension_is_stripped(tmp_path):
    stem = str(tmp_path / "coup")
    assert cli.main(["coupling", "--preset", "fig5", "--out", stem + ".csv"]) == 0
    assert (tmp_path / "coup.csv").exists()
    assert not (tmp_path / "coup.csv.csv").exists()


def test_format_json_only_writes_no_csv(tmp_path):
    stem = str(tmp_path / "only")
    assert cli.main(["coupling", "--preset", "fig5", "--out", stem, "--format", "json"]) == 0
    assert (tmp_path / "only.json").exists()
    assert not (tmp_path / "only.csv").exists()


def test_self_energy_diagonal_cut(tmp_path):
    stem = str(tmp_path / "se")
    assert cli.main(["self-energy", "--preset", "fig2a", "--out", stem]) == 0
    header, rows = read_rows(stem + ".csv")
    assert header == ["delta_tm", "delta_te", "re_sigma", "im_sigma"]
    assert len(rows) == 201  # one row per grid point on the diagonal cut
    for row in rows:
        assert row[0] == row[1]


def test_self_energy_multi_part_suffixes(tmp_path):
    stem = str(tmp_path / "pair")
    code = cli.main(["self-energy", "--preset", "fig3", "--out", stem,
                     "--set", "tm_grid=-1e8:1e8:9", "--set", "te_grid=-1e8:1e8:9"])
    assert code == 0
    _, fwd = read_rows(stem + "_mr.csv")
    _, rev = read_rows(stem + "_rm.csv")
    assert len(fwd) == len(rev) == 81
    for a, b in zip(fwd, rev):
        assert np.hypot(a[2], a[3]) == pytest.approx(np.hypot(b[2], b[3]), rel=1e-12, abs=1e-30)


def test_self_energy_parts_take_one_name_or_a_comma_list(tmp_path, capsys):
    grids = ["--set", "tm_grid=-1e8:1e8:5", "--set", "te_grid=-1e8:1e8:5"]
    for stem, override in (("one", "parts=mm"), ("list", 'parts=["mm"]'), ("pair", "parts=mr,rm")):
        assert cli.main(["self-energy", "--preset", "fig2c", "--out", str(tmp_path / stem),
                         "--set", override, *grids]) == 0
    assert data_section(str(tmp_path / "one.csv")) == data_section(str(tmp_path / "list.csv"))
    assert sorted(p.name for p in tmp_path.glob("pair*")) == ["pair_mr.csv", "pair_rm.csv"]
    # a repeated name would write one file twice
    assert cli.main(["self-energy", "--preset", "fig3", "--out", str(tmp_path / "twice"),
                     "--set", "parts=mm,mm", *grids]) == 2
    assert "more than once: ['mm']" in json.loads(capsys.readouterr().err)["error"]["message"]
    assert not list(tmp_path.glob("twice*"))


def test_spectrum_outputs_and_jobs_invariance(tmp_path):
    grids = ["--set", "omega_grid=0.4e9:2.0e9:31", "--set", "detuning_grid=-3e7:1e7:11"]
    stems = {}
    for jobs in (1, 4):
        stem = str(tmp_path / f"spec_j{jobs}")
        code = cli.main(["spectrum", "--preset", "fig4a", "--out", stem, "--jobs", str(jobs),
                         "--format", "csv,json", *grids])
        assert code == 0
        stems[jobs] = stem
    for ext in (".csv", ".json"):
        assert data_section(stems[1] + ext) == data_section(stems[4] + ext)
    header, rows = read_rows(stems[1] + ".csv")
    assert header == ["omega", "detuning", "psd"]
    assert len(rows) == 31 * 11
    data = read_json(stems[1] + ".json")["data"]
    matrix = data["psd"]
    assert len(matrix) == 11 and len(matrix[0]) == 31  # one row per detuning
    # CSV row k*n_omega + j is the JSON cell psd[k][j] at (omega[j], detuning[k])
    assert rows == [[data["omega"][j], data["detuning"][k], matrix[k][j]]
                    for k in range(11) for j in range(31)]


def test_spectrum_without_preset_uses_default_base(tmp_path):
    stem = str(tmp_path / "base")
    code = cli.main(["spectrum", "--out", stem,
                     "--set", "omega_grid=0.4e9:2.0e9:5", "--set", "detuning_grid=-1e7:0:3"])
    assert code == 0
    _, rows = read_rows(stem + ".csv")
    assert len(rows) == 15


def test_surface_artifacts_and_ep_list(tmp_path):
    stem = str(tmp_path / "surf")
    code = cli.main(["surface", "--preset", "fig5", "--out", stem,
                     "--set", "p_grid=0.05e12:1.5e12:24", "--set", "delta_grid=-6e7:1e7:20",
                     "--set", "seeds_per_axis=12"])
    assert code == 0
    header, rows = read_rows(stem + ".csv")
    assert header == ["p_in", "delta", "re_lambda_1", "im_lambda_1", "re_lambda_2",
                      "im_lambda_2", "near_ep_flag"]
    assert len(rows) == 24 * 20
    # the stored real parts are offsets from the reference carrier
    cfg = get_preset("fig5").config
    p0, d0 = rows[0][0], rows[0][1]
    pair = eigenpairs(hamiltonian_on_plane(cfg, p0, d0))
    stored = sorted([rows[0][2] + 1e9, rows[0][4] + 1e9])
    exact = sorted([pair.lambda_plus.real, pair.lambda_minus.real])
    assert stored == pytest.approx(exact, rel=1e-9)
    eps = read_json(stem + "_eps.json")["data"]
    assert len(eps) == 1
    assert eps[0]["p_in"] == pytest.approx(6.05736e11, rel=1e-3)
    assert eps[0]["delta"] == pytest.approx(-4.69077e7, rel=1e-3)


def test_find_ep_accepts_surface_preset(tmp_path):
    stem = str(tmp_path / "eps")
    code = cli.main(["find-ep", "--preset", "fig5", "--out", stem,
                     "--set", "seeds_per_axis=12", "--format", "csv,json"])
    assert code == 0
    records = read_json(stem + ".json")["data"]
    assert len(records) == 1
    assert set(records[0]) == {"p_in", "delta", "residual", "lambda_re", "lambda_im", "gap"}
    header, rows = read_rows(stem + ".csv")
    assert len(rows) == 1
    assert rows[0][0] == pytest.approx(records[0]["p_in"], rel=1e-15)


def test_encircle_artifacts(tmp_path):
    stem = str(tmp_path / "loop")
    code = cli.main(["encircle", "--preset", "fig6a", "--out", stem,
                     "--set", "loop.samples=64", "--set", "loop.period=1e-6",
                     "--set", "rtol=1e-6", "--format", "csv,json"])
    assert code == 0
    header, fwd = read_rows(stem + ".csv")
    assert header == ["t", "theta", "p_in", "delta", "f_a", "f_b", "log_norm"]
    assert len(fwd) == 64
    _, rev = read_rows(stem + "_reverse.csv")
    assert len(rev) == 64
    for row in fwd:
        assert row[4] + row[5] == pytest.approx(1.0, abs=1e-12)
    # what each evolve did sits in the metadata, outside the data section
    for suffix in ("", "_reverse"):
        meta = read_json(stem + suffix + ".json")["metadata"]
        assert int(meta["substeps"]) >= 8 and int(meta["passes"]) >= 2
        assert 0 <= float(meta["disagreement_fractions"]) <= 1e-6
        assert 0 <= float(meta["disagreement_log_norm"]) <= 1e-6
        with open(stem + suffix + ".csv") as fh:
            assert f"# substeps: {meta['substeps']}\n" in fh.read()
    report = read_json(stem + "_chirality.json")["data"]
    assert report["align_shift"] == 32  # half of 64 samples
    assert 0.0 <= report["final_fraction_difference"] <= 1.0
    assert {"first", "second"} <= set(report["oscillation"])


def test_config_file_bare_mapping(tmp_path):
    cfg_dict = get_preset("fig5").config.to_dict()
    cfg_dict["modes"]["magnon"]["omega"] = 9.9e8
    path = tmp_path / "bare.json"
    path.write_text(json.dumps(cfg_dict))
    stem = str(tmp_path / "filecfg")
    assert cli.main(["coupling", "--config", str(path), "--out", stem, "--format", "json"]) == 0
    # the drive detunings are unchanged, so couplings must match the edited config
    from magnomech.model import SystemConfig

    expected = effective_couplings(SystemConfig.from_dict(cfg_dict))
    data = read_json(stem + ".json")["data"]
    assert data["g_a_abs"] == pytest.approx(abs(expected.g_a), rel=1e-15)


def test_config_file_with_run_section(tmp_path):
    payload = {"run": {"omega_grid": [0.4e9, 2.0e9, 7], "detuning_grid": [-1e7, 0.0, 3]}}
    path = tmp_path / "run.json"
    path.write_text(json.dumps(payload))
    stem = str(tmp_path / "runcfg")
    assert cli.main(["spectrum", "--preset", "fig4a", "--config", str(path), "--out", stem]) == 0
    _, rows = read_rows(stem + ".csv")
    assert len(rows) == 21


def test_bad_override_exits_2(tmp_path, capsys):
    stem = str(tmp_path / "never")
    assert cli.main(["coupling", "--preset", "fig5", "--out", stem, "--set", "nonsense=1"]) == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"]["type"] == "config"
    assert "nonsense" in err["error"]["message"]
    # removed and misspelt run keys are unknown, a non-positive rtol is refused,
    # and a value that is not a number is a config error naming its key
    for command, preset, override, key in (
            ("encircle", "fig6a", "carrier_offset=1e9", "carrier_offset"),
            ("encircle", "fig6a", "rtol=-1", "rtol"),
            ("coupling", "fig5", "conjugation_convention=complex_squared", "conjugation_convention"),
            ("coupling", "fig5", "sigma_eval_frequency=at_omega_m", "sigma_eval_frequency"),
            ("self-energy", "fig2a", "eval_omega=1e9", "eval_omega"),
            ("coupling", "fig5", "drive_tm.detuning=abc", "drive_tm.detuning"),
            ("spectrum", "fig4a", "noise.unit_psd=abc", "noise.unit_psd"),  # unknown: the PSD is per unit level
            ("surface", "fig5", "seeds_per_axis=abc", "seeds_per_axis"),
            ("encircle", "fig6a", "loop.samples=abc", "loop.samples"),
            # a boolean key takes only JSON true or false, not any text bool() reads as true
            ("surface", "fig5", "tie=False", "tie"),
            ("self-energy", "fig2c", "diagonal=no", "diagonal"),
            # non-finite numbers are config errors, found before any evolve runs
            ("encircle", "fig6a", "loop.samples=Infinity", "loop.samples"),
            ("find-ep", "fig5", "seeds_per_axis=Infinity", "seeds_per_axis"),
            ("encircle", "fig6a", "align_shift_fraction=NaN", "align_shift_fraction"),  # unknown: half the samples
            # unknown: the EP acceptance bound is the constant ep.GAP_RTOL
            ("find-ep", "fig5", "gap_rtol=-1", "gap_rtol"),
            ("find-ep", "fig5", "gap_rtol=NaN", "gap_rtol"),
            ("find-ep", "fig5", "gap_rtol=Infinity", "gap_rtol"),
            # a count must be a whole number, not truncated to one
            ("find-ep", "fig5", "seeds_per_axis=8.9", "seeds_per_axis"),
            ("encircle", "fig6a", "loop.samples=64.9", "loop.samples"),
            ("spectrum", "fig4a", "omega_grid=[0, 1, 3.7]", "omega_grid"),
            ("self-energy", "fig2c", "te_grid=[-1e8, 1e8, 2.5]", "te_grid"),
            # the lo:hi:n shorthand is checked where the grid is read, which names the key
            ("spectrum", "fig4a", "omega_grid=0:1:3.7", "omega_grid"),
            ("spectrum", "fig4a", "omega_grid=0:1:x", "omega_grid"),
            ("spectrum", "fig4a", "omega_grid=a:1:3", "omega_grid"),
            ("self-energy", "fig2c", "parts=[]", "parts"),
            # a loop semi-axis must be >= 0; a sign flip would trace the loop against its label
            ("encircle", "fig6a", "loop.radius_p=-1e11", "loop.radius_p"),
            ("encircle", "fig6a", "loop.radius_delta=-1e6", "loop.radius_delta"),
            ("encircle", "fig6a", "loop.radius_p=NaN", "loop.radius_p"),
            ("encircle", "fig6a", "loop.unit_p=-1e11", "loop.unit_p")):  # unknown: the semi-axes are in Hz
        assert cli.main([command, "--preset", preset, "--out", stem, "--set", override]) == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"]["type"] == "config"
        assert key in err["error"]["message"]
    # a config file's run keys pass the same allowlist: gap_rtol is no surface key
    path = tmp_path / "run.json"
    path.write_text(json.dumps({"run": {"gap_rtol": -1}}))
    assert cli.main(["surface", "--preset", "fig5", "--config", str(path), "--out", stem]) == 2
    assert "gap_rtol" in json.loads(capsys.readouterr().err)["error"]["message"]
    path.unlink()
    assert not list(tmp_path.iterdir())  # each is refused before any artifact is written


@pytest.mark.parametrize("command, preset, key, value", [
    ("spectrum", "fig4a", "noise.unit_psd", 2.0),
    ("surface", "fig5", "reference_frequency", 1e9),
    ("surface", "fig5", "near_ep_rel", 1e-3),
    ("surface", "fig5", "gap_rtol", 1e-6),
    ("find-ep", "fig5", "gap_rtol", 1e-6),
    ("encircle", "fig6a", "align_shift_fraction", 0.5),
    ("encircle", "fig6a", "slope_threshold", 0.5),
    ("spectrum", "fig4a", "omega_gird", [4e8, 2e9, 10]),  # misspelt keys too
    ("encircle", "fig6a", "loop.sample", 64),
    ("encircle", "fig6a", "loop.unit_p", 1e11),  # the loop radius is the semi-axis pair in Hz
    ("encircle", "fig6a", "loop.unit_delta", 1e6),
    ("encircle", "fig6a", "loop.radius_units", 1.0),
    ("self-energy", "fig2a", "which", "mm"),  # one-name parts
])
@pytest.mark.parametrize("source", ["set", "file"])
def test_unknown_run_key_exits_2_from_set_or_file(tmp_path, capsys, command, preset, key, value, source):
    stem = str(tmp_path / "never")
    if source == "set":
        extra = ["--set", f"{key}={json.dumps(value)}"]
    else:
        path = tmp_path / "run.json"
        path.write_text(json.dumps({"run": {key: value}}))
        extra = ["--config", str(path)]
    assert cli.main([command, "--preset", preset, "--out", stem, "--format", "csv,json"] + extra) == 2
    err = json.loads(capsys.readouterr().err)["error"]
    assert err["type"] == "config" and repr(key) in err["message"]
    assert [p.name for p in tmp_path.iterdir()] == ([] if source == "set" else ["run.json"])


def test_cli_import_leaves_scipy_unloaded():
    # scipy is a test-only dependency: the package itself must run without it
    src = os.path.dirname(os.path.dirname(cli.__file__))
    probe = "import sys, magnomech.cli; sys.exit('scipy' in sys.modules)"
    env = {**os.environ, "PYTHONPATH": src}
    assert subprocess.run([sys.executable, "-c", probe], env=env).returncode == 0


def test_missing_equals_in_override_exits_2(tmp_path, capsys):
    assert cli.main(["coupling", "--preset", "fig5", "--set", "justakey"]) == 2
    assert "KEY=VALUE" in json.loads(capsys.readouterr().err)["error"]["message"]


def test_config_file_parse_error_exits_2(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    assert cli.main(["coupling", "--config", str(path)]) == 2
    msg = json.loads(capsys.readouterr().err)["error"]["message"]
    assert "line" in msg and "column" in msg


def test_null_region_exits_2_as_malformed(tmp_path, capsys):
    for command in ("find-ep", "surface"):
        stem = str(tmp_path / command)
        assert cli.main([command, "--preset", "fig5", "--out", stem, "--set", "region=null"]) == 2
        err = json.loads(capsys.readouterr().err)["error"]
        assert err["type"] == "config"
        assert err["message"] == "malformed region None"


def test_non_finite_region_exits_2_with_only_the_json_error(tmp_path, capsys):
    for command, bounds in (("find-ep", "[[1e11,Infinity],[-1e7,1e7]]"), ("surface", "[[1e11,1e12],[-1e7,Infinity]]")):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = cli.main([command, "--preset", "fig5", "--out", str(tmp_path / command),
                             "--set", f"region={bounds}"])
        assert code == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert json.loads(err)["error"] == {"type": "config", "message": "'region' must be a finite number, got inf"}
    assert not list(tmp_path.iterdir())


def test_unknown_config_file_key_exits_2(tmp_path, capsys):
    path = tmp_path / "extra.json"
    path.write_text(json.dumps({"config": get_preset("fig5").config.to_dict(), "extra": 1}))
    assert cli.main(["coupling", "--config", str(path)]) == 2
    assert "extra" in json.loads(capsys.readouterr().err)["error"]["message"]
    for run in (["omega_grid"], [], 0, False, "", None):  # a run section that is no mapping, empty or not
        path.write_text(json.dumps({"run": run}))
        assert cli.main(["spectrum", "--preset", "fig4a", "--config", str(path), "--out", str(tmp_path / "x")]) == 2
        message = json.loads(capsys.readouterr().err)["error"]["message"]
        assert message == f"config-file 'run' must map dotted run keys to values, got {run!r}"


def _config_error_only(tmp_path, capsys, argv):
    """Run argv, which must exit 2 with one JSON config error on stderr and leave tmp_path as it was."""
    before = sorted(os.listdir(tmp_path))
    assert cli.main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.count("\n") == 1
    assert sorted(os.listdir(tmp_path)) == before
    err = json.loads(captured.err)["error"]
    assert err["type"] == "config"
    return err["message"]


@pytest.mark.parametrize("text", ["null", "[[1]]", '"abc"'])
def test_config_file_that_is_not_an_object_exits_2(tmp_path, capsys, text):
    path = tmp_path / "top.json"
    path.write_text(text)
    message = _config_error_only(tmp_path, capsys, ["coupling", "--config", str(path), "--out", str(tmp_path / "x")])
    assert message == f"config file {path} must hold a JSON object, got {json.loads(text)!r}"


def test_config_file_nested_entry_errors_exit_2(tmp_path, capsys):
    path = tmp_path / "nested.json"
    for edit, argv, expected in (
            (lambda d: d["modes"].update(magnon=5), [], "config entry 'modes.magnon' must be a mapping, got 5"),
            (lambda d: d["drives"].update(xx={}), [], "unknown config keys: ['drives.xx']"),
            (lambda d: d["modes"].update(magnon=5), ["--set", "magnon.omega=1e9"],
             "config entry 'modes.magnon' must be a mapping, got 5"),
            # an unknown field name gets one message, whether the file or --set names it
            (lambda d: d["modes"]["magnon"].update(omegax=1), [], "unknown config keys: ['magnon.omegax']"),
            (lambda d: None, ["--set", "magnon.omegax=1"], "unknown config keys: ['magnon.omegax']"),
            (lambda d: None, ["--set", "drive_tm.detunin=1"], "unknown config keys: ['drive_tm.detunin']"),
            (lambda d: d["modes"]["magnon"].update(omegax=1), ["--set", "drive_tm.detunin=1"],
             "unknown config keys: ['drive_tm.detunin', 'magnon.omegax']")):
        payload = get_preset("fig5").config.to_dict()
        edit(payload)
        path.write_text(json.dumps(payload))
        argv = ["coupling", "--config", str(path), "--out", str(tmp_path / "x"), *argv]
        assert _config_error_only(tmp_path, capsys, argv) == expected


# every config key README's Overrides lists, with a value each field accepts on fig5
_OVERRIDES = {"omega": 1.5e9, "gamma": 3e7, "gamma_ext": 1e6, "detuning": -4e6, "effective_strength": 5e11}


@pytest.mark.parametrize("source", ["preset", "file without gamma_ext"])
@pytest.mark.parametrize("key", [f"{mode}.{field}" for mode in ("tm_photon", "te_photon", "magnon", "phonon")
                                 for field in ("omega", "gamma", "gamma_ext")]
                         + [f"{drive}.{field}" for drive in ("drive_tm", "drive_te")
                            for field in ("detuning", "effective_strength")])
def test_set_config_key_gives_the_replaced_config(tmp_path, key, source):
    # --set may supply a field the --config file omits, as it overrides one the preset holds
    entry, field = key.split(".")
    base = get_preset("fig5").config
    argv = ["coupling", "--out", str(tmp_path / "x"), "--set", f"{key}={_OVERRIDES[field]!r}"]
    if source == "preset":
        argv += ["--preset", "fig5"]
    else:
        payload = base.to_dict()
        for mode in payload["modes"].values():
            del mode["gamma_ext"]
        (tmp_path / "cfg.json").write_text(json.dumps(payload))
        argv += ["--config", str(tmp_path / "cfg.json")]
        base = replace(base, **{mode: replace(getattr(base, mode), gamma_ext=0.0) for mode in payload["modes"]})
    spec = cli.make_runspec(cli.build_parser().parse_args(argv))
    assert spec.config == replace(base, **{entry: replace(getattr(base, entry), **{field: _OVERRIDES[field]})})


def test_out_into_a_missing_directory_exits_2_before_any_work(tmp_path, capsys):
    for command, preset in (("coupling", "fig5"), ("spectrum", "fig4a")):
        stem = tmp_path / "missing" / "x"
        argv = [command, "--preset", preset, "--out", str(stem), "--format", "csv,json"]
        assert _config_error_only(tmp_path, capsys, argv) == f"--out directory does not exist: {stem.parent}"
        assert not stem.parent.exists()


def test_malformed_region_costs_no_surface(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(cli.ep, "riemann_surface", lambda *args, **kwargs: pytest.fail("surface computed"))
    argv = ["surface", "--preset", "fig5", "--out", str(tmp_path / "s"), "--set", "region=[[1e11,1e12,2e12],[0,1]]"]
    message = _config_error_only(tmp_path, capsys, argv)
    assert message == "malformed region [[100000000000.0, 1000000000000.0, 2000000000000.0], [0, 1]]"


def test_unknown_preset_exits_2_and_lists_options(capsys):
    assert cli.main(["coupling", "--preset", "fig9"]) == 2
    msg = json.loads(capsys.readouterr().err)["error"]["message"]
    assert "available" in msg and "fig5" in msg


def test_preset_command_mismatch_exits_2(capsys):
    assert cli.main(["spectrum", "--preset", "fig5"]) == 2
    assert "belongs to command" in json.loads(capsys.readouterr().err)["error"]["message"]


def test_bad_jobs_and_format_exit_2(tmp_path, capsys):
    assert cli.main(["coupling", "--preset", "fig5", "--jobs", "0"]) == 2
    capsys.readouterr()
    assert cli.main(["coupling", "--preset", "fig5", "--format", "yaml"]) == 2
    assert "format" in json.loads(capsys.readouterr().err)["error"]["message"]


def test_numerics_error_exits_3(tmp_path, monkeypatch, capsys):
    def boom(spec):
        raise NumericsError("synthetic instability")

    monkeypatch.setitem(cli.COMMANDS, "coupling", (boom, *cli.COMMANDS["coupling"][1:]))
    assert cli.main(["coupling", "--preset", "fig5", "--out", str(tmp_path / "x")]) == 3
    err = json.loads(capsys.readouterr().err)
    assert err["error"]["type"] == "numeric"
    assert "synthetic" in err["error"]["message"]


def test_near_singular_spectrum_exits_3(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(cli.spectrum, "_COND_LIMIT", 1.0)
    code = cli.main(["spectrum", "--preset", "fig4a", "--out", str(tmp_path / "s"),
                     "--set", "omega_grid=0.4e9:2.0e9:5", "--set", "detuning_grid=-3e7:1e7:3"])
    assert code == 3
    err = json.loads(capsys.readouterr().err)["error"]
    assert err["type"] == "numeric"
    assert "condition number" in err["message"] and "omega 400000000.0" in err["message"]
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("argv, message", [
    (["self-energy", "--preset", "fig2b", "--set", "drive_tm.effective_strength=1e200",
      "--set", "tm_grid=-1e8:1e8:3", "--set", "te_grid=-1e8:1e8:3"],
     "self-energy 'mm' evaluated non-finite at detuning_tm -100000000.0, detuning_te -100000000.0"),
    # mm alone is finite: the overflowing rr must not leave mm's file behind
    (["self-energy", "--preset", "fig2a", "--set", "drive_te.effective_strength=1e200",
      "--set", "parts=mm,rr", "--set", "tm_grid=-1e8:1e8:3", "--set", "te_grid=-1e8:1e8:3"],
     "self-energy 'rr' evaluated non-finite"),
    (["find-ep", "--preset", "fig5", "--set", "region=[[1e154,1e155],[-1e7,1e7]]"],
     "p_in = 1e+155, whose square overflows"),
    # a finite operator whose discriminant overflows: no nan eigenvalue cell is written
    (["surface", "--preset", "fig5", "--set", "p_grid=1e99:1e100:2", "--set", "delta_grid=-1e7:1e7:2"],
     "2x2 eigenvalues evaluated non-finite at p_in 1e+99, delta -10000000.0"),
    # an operator entry overflows: the first bad cell is named, as for the eigenvalues above
    (["surface", "--preset", "fig5", "--set", "p_grid=1e200:1e201:2", "--set", "delta_grid=-1e7:1e7:2"],
     "effective 2x2 matrix evaluated non-finite at p_in 1e+200, delta -10000000.0"),
])
def test_overflow_exits_3_with_no_artifact(tmp_path, capsys, argv, message):
    assert cli.main(argv + ["--format", "csv,json", "--out", str(tmp_path / "x")]) == 3
    err = json.loads(capsys.readouterr().err)["error"]
    assert err["type"] == "numeric" and message in err["message"]
    assert not list(tmp_path.iterdir())


# by preset: the pumped mode, and the strength and detuning of the first cell whose coupling overflows
_COUPLING_OVERFLOWS = {
    "fig5": ("tm_photon", 1.7e308, -3e6),
    "fig2b": ("tm_photon", 1.7e308, -1e8),
    "fig2c": ("te_photon", 1e306, -1e8),
    "fig4a": ("te_photon", 1e306, -3e7),
    "fig6a": ("tm_photon", 1e306 + 1e300, -3e6),  # the loop's first sample, at start phase 0
}


@pytest.mark.parametrize("argv", [
    ["coupling", "--preset", "fig5", "--set", "drive_tm.effective_strength=1.7e308"],
    ["self-energy", "--preset", "fig2b", "--set", "drive_tm.effective_strength=1.7e308"],
    # an array of strengths whose last cell overflows the coupling's numerator
    ["surface", "--preset", "fig5", "--set", "p_grid=1e304:1.7e308:2", "--set", "delta_grid=-1e7:1e7:2"],
    ["self-energy", "--preset", "fig2c", "--set", "drive_te.effective_strength=1e306"],
    ["spectrum", "--preset", "fig4a", "--set", "drive_te.effective_strength=1e306"],
    ["encircle", "--preset", "fig6a", "--set", "loop.center_p=1e306", "--set", "loop.radius_p=1e300"],
])
def test_overflowing_coupling_exits_3_with_only_the_json_error(tmp_path, capsys, argv):
    # under warnings as errors, no overflow warning may pre-empt the error or print above it
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = cli.main(argv + ["--format", "csv,json", "--out", str(tmp_path / "x")])
    assert code == 3
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    mode, strength, detuning = _COUPLING_OVERFLOWS[argv[2]]
    message = (f"effective coupling evaluated non-finite for the {mode} pump at effective_strength {strength!r}, "
               f"detuning {detuning!r}; check drive and damping values")
    assert json.loads(err)["error"] == {"type": "numeric", "message": message}
    assert not list(tmp_path.iterdir())


def test_grid_triplet_parsing():
    assert cli._parse_value("1e6:2e6:5") == [1e6, 2e6, 5]
    assert cli._parse_value("true") is True
    assert cli._parse_value("[1, 2]") == [1, 2]
    assert cli._parse_value("TE") == "TE"
    # a string is no triplet, even one of three characters
    with pytest.raises(ConfigError) as info:
        cli._linspace(cli._parse_value("abc"), "p_grid")
    assert str(info.value) == "p_grid must be a [lo, hi, count] triplet, got 'abc'"


@pytest.mark.parametrize("override, message", [
    ("p_grid=abc", "p_grid must be a [lo, hi, count] triplet, got 'abc'"),
    ("delta_grid=[1,2]", "delta_grid must be a [lo, hi, count] triplet, got [1, 2]"),
], ids=["p_grid", "delta_grid"])
def test_surface_reads_its_grids_before_the_ep_search(tmp_path, capsys, monkeypatch, override, message):
    monkeypatch.setattr(cli.ep, "find_exceptional_points", lambda *args: pytest.fail("EP search ran"))
    argv = ["surface", "--preset", "fig5", "--out", str(tmp_path / "s"), "--set", override]
    assert _config_error_only(tmp_path, capsys, argv) == message


def test_every_preset_is_reachable():
    for name, preset in REGISTRY.items():
        assert preset.command in cli.COMMANDS[preset.command][2]  # its own command accepts it
        assert get_preset(name) is preset


def test_command_table_drives_the_parser_and_default_bases():
    assert list(cli.COMMANDS) == ["coupling", "self-energy", "spectrum", "surface", "find-ep", "encircle"]
    assert "{coupling,self-energy,spectrum,surface,find-ep,encircle}" in cli._PARSER.format_usage()
    for command, (_, _, accepts, base, _) in cli.COMMANDS.items():
        assert accepts is None or get_preset(base).command in accepts, command


# --- artifact layer -------------------------------------------------------


def test_format_column_normalizes_numpy_dtypes():
    assert format_column(np.array([True, False], dtype=np.bool_)) == ["1", "0"]
    assert format_column(np.array([7], dtype=np.int64)) == ["7"]
    assert format_column(np.array([0.5], dtype=np.float64)) == ["0.5"]
    assert format_column([1.0]) == [repr(1.0)]


def test_float_cells_are_exact_reprs(tmp_path):
    values = [-0.0, float("nan"), float("inf"), float("-inf"), 5e-324, 1e16, 1e-5, 0.1 + 0.2]
    assert format_column(np.array(values)) == [repr(float(v)) for v in values]
    path = str(tmp_path / "edge.csv")
    write_csv(path, {"v": np.array(values), "axis": GridAxis(np.array([-0.0, 0.5]), repeat=4)}, {})
    with open(path) as fh:
        _, header, *rows = fh.read().splitlines()
    assert header == "v,axis"
    assert rows == [f"{v!r},{a!r}" for v, a in zip(values, [-0.0] * 4 + [0.5] * 4)]


def test_float_column_text_equals_repr_everywhere():
    """The one-pass column formatter writes repr's text for every float64, wherever its layout rules switch."""
    def reprs(column):
        return [repr(v) for v in np.asarray(column, dtype=float).tolist()]

    bits = np.random.default_rng(20180618).integers(0, 2**64, size=200_000, dtype=np.uint64)
    random_floats = bits.view(np.float64)
    assert format_column(random_floats) == reprs(random_floats)
    decades = 10.0 ** np.arange(-323, 309)
    sweep = np.concatenate([decades, 3.7 * decades[:-1], -decades, -3.7 * decades[:-1]])
    assert format_column(sweep) == reprs(sweep)
    switches = np.array([1e-9, 1e-4, 1e16])
    edges = np.concatenate([switches, np.nextafter(switches, 0), np.nextafter(switches, np.inf)])
    specials = np.array([0.0, -0.0, 5e-324, -5e-324, np.finfo(float).max, -np.finfo(float).max,
                         np.nan, np.inf, -np.inf])
    for column in (edges, -edges, specials):
        assert format_column(column) == reprs(column)
    assert format_column(np.array([], dtype=float)) == format_column([]) == []
    assert format_column(np.array([1e-7])) == ["1e-07"] and format_column(np.array([2.5])) == ["2.5"]
    single = np.array([1e-5, 0.1, 3e20], dtype=np.float32)  # widened to float64 first, as repr sees it
    assert format_column(single) == reprs(single.astype(float))
    strided = sweep[::7]
    assert not strided.flags.c_contiguous
    assert format_column(strided) == reprs(strided)
    assert format_column(sweep[::-1]) == reprs(sweep[::-1])
    assert format_column([1e-5, -0.0, 1e16, float("nan")]) == ["1e-05", "-0.0", "1e+16", "nan"]
    axis = GridAxis(edges, repeat=2, tile=3)
    assert format_column(axis) == reprs(np.asarray(axis))


def test_json_rows_text_is_one_json_list_per_row():
    cells = {"a": ["1.0", "-0.0"], "b": ["true", "false"], "c": ["NaN", "3"]}
    assert json_rows(cells) == '{"columns": ["a", "b", "c"], "rows": [[1.0, true, NaN], [-0.0, false, 3]]}'
    assert json_rows({"a": ["2.5"]}) == '{"columns": ["a"], "rows": [[2.5]]}'
    assert json_rows({"a": [], "b": []}) == '{"columns": ["a", "b"], "rows": []}'
    assert json_rows({}) == '{"columns": [], "rows": []}'


def test_table_json_is_the_encoders_text_and_csv_the_cell_text(tmp_path):
    values = np.array([-0.0, np.nan, np.inf, -np.inf, 5e-324, 1e300, 0.1 + 0.2, 7.0])
    table = {"v": values, "n": np.arange(8) - 3, "flag": values > 0,
             "axis": GridAxis(np.array([-0.0, 0.5]), repeat=4)}
    spec = cli.RunSpec("coupling", None, get_preset("fig5").config, {}, str(tmp_path / "t"), ("csv", "json"))
    assert cli._write_table(spec, "", table, {"note": "x"}) == [spec.out_stem + ".csv", spec.out_stem + ".json"]
    meta = metadata_block(spec.command, spec.preset, spec.config, spec.run_params, {"note": "x"})
    rows = list(zip(*(np.asarray(col).tolist() for col in table.values())))
    with open(spec.out_stem + ".json") as fh:
        assert fh.read() == json.dumps({"metadata": meta, "data": {"columns": list(table), "rows": rows}},
                                       sort_keys=True) + "\n"
    write_csv(str(tmp_path / "direct.csv"), table, meta)
    with open(spec.out_stem + ".csv") as fh, open(tmp_path / "direct.csv") as direct:
        text = fh.read()
        assert text == direct.read()
    axis = [-0.0] * 4 + [0.5] * 4
    assert text.splitlines()[-9:] == ["v,n,flag,axis"] + [
        f"{v!r},{n},{int(v > 0)},{a!r}" for v, n, a in zip(values.tolist(), range(-3, 5), axis)]


def test_every_grid_preset_csv_and_json_agree(tmp_path):
    """The CSV and JSON data of each non-loop preset parse to the same values, cell for cell."""
    for name, preset in sorted(REGISTRY.items()):
        if preset.command == "encircle":
            continue
        out_dir = tmp_path / name
        out_dir.mkdir()
        assert cli.main([preset.command, "--preset", name, "--out", str(out_dir / name), "--format", "csv,json"]) == 0
        for csv_path in sorted(out_dir.glob("*.csv")):
            with open(csv_path) as fh:
                body = [line.strip() for line in fh if not line.startswith("#")][1:]
            rows = np.array(",".join(body).split(","), dtype=float).reshape(len(body), -1)
            data = read_json(str(csv_path.with_suffix(".json")))["data"]
            if preset.command == "spectrum":  # CSV row k * n_omega + j is the cell psd[k][j]
                omega, dets = np.array(data["omega"]), np.array(data["detuning"])
                data["rows"] = np.column_stack([np.tile(omega, dets.size), np.repeat(dets, omega.size),
                                                np.ravel(data["psd"])])
            assert np.array_equal(rows, np.array(data["rows"], dtype=float), equal_nan=True), csv_path.name


def test_spectrum_cells_are_repr_text_end_to_end(tmp_path):
    """fig4b holds PSD cells where orjson's layout differs from repr's; CSV keeps repr's text, JSON its values."""
    stem = str(tmp_path / "fig4b")
    assert cli.main(["spectrum", "--preset", "fig4b", "--out", stem, "--format", "csv,json"]) == 0
    with open(stem + ".csv") as fh:
        header, *rows = [line.rstrip("\n").split(",") for line in fh if not line.startswith("#")]
    assert header == ["omega", "detuning", "psd"]
    assert all(c == repr(float(c)) for row in rows for c in row)
    psd = np.array([row[2] for row in rows], dtype=float)
    mag = np.abs(psd)
    assert ((mag >= 1e-9) & (mag < 1e-4)).any()  # the cells orjson would write as 1e-7 or 0.00001
    data = read_json(stem + ".json")["data"]
    n = len(data["omega"])
    assert np.array_equal(np.ravel(data["psd"]), psd)
    assert np.array_equal(np.tile(data["omega"], len(data["detuning"])), [float(row[0]) for row in rows])
    assert np.array_equal(np.repeat(data["detuning"], n), [float(row[1]) for row in rows])


def test_grid_axis_text_matches_its_expanded_values():
    axis = GridAxis(np.array([-0.0, 1e-5, 3.0]), repeat=2, tile=3)
    expanded = np.asarray(axis)
    assert np.array_equal(expanded, np.tile(np.repeat(axis.values, 2), 3))
    assert format_column(axis) == format_column(expanded) == [repr(v) for v in expanded.tolist()]
    for values in (np.array([]), np.array([2.5]), np.array([-0.0, 1e-5, 3.0])):
        for repeat in (0, 1, 2):
            for tile in (0, 1, 3):
                axis = GridAxis(values, repeat=repeat, tile=tile)
                assert format_column(axis) == [repr(v) for v in np.asarray(axis).tolist()]


def _zip_csv_text(table, metadata):
    """write_csv's file text as a row-wise zip join writes it."""
    cols = [format_column(col) for col in table.values()]
    lines = [f"# {key}: {value}" for key, value in metadata.items()]
    lines.append(f"# columns: {','.join(table)}")
    lines.append(",".join(table))
    lines.extend(map(",".join, zip(*cols)))
    return "\n".join(lines) + "\n"


def _zip_json_rows(cells):
    """json_rows's text as a row-wise zip join writes it."""
    rows = "], [".join(map(", ".join, zip(*cells.values())))
    rows = f"[{rows}]" if rows else ""
    return f'{{"columns": {json.dumps(list(cells))}, "rows": [{rows}]}}'


def test_assembled_rows_match_the_row_wise_zip_join(tmp_path):
    """Seeded tables of 0, 1 and many rows, 1-7 columns of every cell kind, against the zip-join text."""
    rng = np.random.default_rng(20170213)
    specials = np.array([-0.0, 0.0, np.nan, np.inf, -np.inf, 1e-7, -1e-7, 1e16, -1e16, 5e-324, 0.1 + 0.2])
    path = str(tmp_path / "t.csv")
    seen_rows = set()
    for case in range(120):
        # the grid axis sets the row count: len(values) * repeat * tile, each factor 0, 1 or n
        count, repeat, tile = (int(rng.choice(f)) for f in ((0, 1, 5), (0, 1, 3), (0, 1, 4)))
        rows = count * repeat * tile
        seen_rows.add(min(rows, 2))
        kinds = {"axis": GridAxis(rng.normal(size=count) * 1e9, repeat=repeat, tile=tile),
                 "float": np.where(rng.random(rows) < 0.5, rng.choice(specials, rows), rng.normal(size=rows)),
                 "scaled": rng.normal(size=rows) * 10.0 ** rng.integers(-12, 20, rows),
                 "int": rng.integers(-10**6, 10**6, rows),
                 "bool": rng.random(rows) < 0.5}
        names = rng.choice(list(kinds), size=int(rng.integers(1, 8)))
        table = {f"c{j}_{name}": kinds[name] for j, name in enumerate(names)}
        meta = {"case": str(case)}
        write_csv(path, table, meta)
        with open(path, newline="") as fh:
            assert fh.read() == _zip_csv_text(table, meta)
        cells = {name: json_cells(col, format_column(col)) for name, col in table.items()}
        assert json_rows(cells) == _zip_json_rows(cells)
    assert seen_rows == {0, 1, 2}  # no rows, one row and many rows all drawn


def test_columns_of_unequal_length_are_refused(tmp_path):
    path = tmp_path / "short.csv"
    with pytest.raises(ValueError, match=r"\[3, 2\]"):
        write_csv(str(path), {"a": np.arange(3.0), "b": np.arange(2.0)}, {})
    assert not path.exists()
    with pytest.raises(ValueError, match=r"\[1, 0, 1\]"):
        json_rows({"a": ["1.0"], "b": [], "c": ["true"]})


def test_shared_parser_keeps_no_state_between_calls(tmp_path):
    """main parses with one parser per process: no call's --set or --format reaches the next."""
    assert cli.build_parser() is not cli.build_parser()
    argv = ["spectrum", "--preset", "fig4a"]
    assert cli.main(argv + ["--set", "omega_grid=0.4e9:2.0e9:7", "--format", "json",
                            "--out", str(tmp_path / "first")]) == 0
    assert cli.main(argv + ["--out", str(tmp_path / "plain")]) == 0
    assert cli.main(argv + ["--format", "csv,json", "--out", str(tmp_path / "warm")]) == 0
    src = os.path.dirname(os.path.dirname(cli.__file__))
    probe = "import sys; from magnomech import cli; sys.exit(cli.main(sys.argv[1:]))"
    subprocess.run([sys.executable, "-c", probe, *argv, "--format", "csv,json", "--out", str(tmp_path / "fresh")],
                   env={**os.environ, "PYTHONPATH": src}, check=True, capture_output=True)
    assert sorted(p.name for p in tmp_path.iterdir()) == ["first.json", "fresh.csv", "fresh.json", "plain.csv",
                                                          "warm.csv", "warm.json"]
    for a, b in (("plain.csv", "fresh.csv"), ("warm.csv", "fresh.csv"), ("warm.json", "fresh.json")):
        assert (tmp_path / a).read_bytes() == (tmp_path / b).read_bytes()


def test_find_ep_with_no_eps_writes_header_only(tmp_path):
    stem = str(tmp_path / "none")
    # a window far from the fig5 exceptional point holds none
    code = cli.main(["find-ep", "--preset", "fig5", "--out", stem, "--format", "csv,json",
                     "--set", "seeds_per_axis=8", "--set", "region=[[1.2e12,1.5e12],[0,1e7]]"])
    assert code == 0
    assert read_json(stem + ".json")["data"] == []
    with open(stem + ".csv") as fh:
        lines = fh.read().splitlines()
    assert [line for line in lines if not line.startswith("#")] == ["p_in,delta,residual,lambda_re,lambda_im,gap"]


@pytest.mark.parametrize("region, count", [(None, 1), ("[[1e11,2e11],[0,1e6]]", 0)])
@pytest.mark.parametrize("fmt, exts", [("csv", ["csv", "json"]), ("json", ["json"]), ("csv,json", ["csv", "json"])])
def test_find_ep_file_set_per_format(tmp_path, capsys, fmt, exts, region, count):
    stem = str(tmp_path / "eps")
    argv = ["find-ep", "--preset", "fig5", "--out", stem, "--format", fmt, "--set", "seeds_per_axis=12"]
    assert cli.main(argv + (["--set", f"region={region}"] if region else [])) == 0
    # the JSON list is written whatever --format says, and the CSV of its columns where csv is asked for
    assert capsys.readouterr().out.splitlines() == [f"wrote {stem}.{ext}" for ext in exts]
    assert sorted(p.name for p in tmp_path.iterdir()) == [f"eps.{ext}" for ext in exts]
    doc = read_json(stem + ".json")
    assert len(doc["data"]) == count and doc["metadata"]["count"] == str(count)
    if "csv" in exts:
        header, rows = read_rows(stem + ".csv")
        assert header == ["p_in", "delta", "residual", "lambda_re", "lambda_im", "gap"]
        assert rows == [[record[c] for c in header] for record in doc["data"]]  # [] for no EP: the header only


def test_compact_json_keeps_the_indented_data_section(tmp_path):
    data = {"b": [1.5, float("nan"), {"z": -0.0, "a": [float("inf"), 5e-324]}], "a": (1, 2)}
    compact, indented = str(tmp_path / "compact.json"), str(tmp_path / "indented.json")
    write_json(compact, data, {"tool": "x"})
    with open(indented, "w") as fh:
        json.dump({"metadata": {"tool": "x"}, "data": data}, fh, sort_keys=True, indent=2)
    assert data_section(compact) == data_section(indented)
    with open(compact) as fh:
        assert fh.read().count("\n") == 1


def test_csv_data_section_excludes_metadata(tmp_path):
    path = str(tmp_path / "t.csv")
    write_csv(path, {"a": [1.0], "b": [2.0]}, {"tool": "x", "stamp": "y"})
    section = data_section(path)
    assert b"stamp" not in section
    assert section.startswith(b"a,b\n")


def test_json_data_section_excludes_metadata(tmp_path):
    path = str(tmp_path / "t.json")
    write_json(path, {"v": [1, 2]}, {"tool": "x"})
    assert data_section(path) == json.dumps({"v": [1, 2]}, sort_keys=True).encode()


def test_config_hash_sensitivity():
    cfg = get_preset("fig5").config
    assert config_hash(cfg) == config_hash(cfg)
    assert config_hash(cfg) != config_hash(cfg.with_strengths(1.1e12, 1.1e12))
    assert config_hash(cfg, {"k": 1}) != config_hash(cfg, {"k": 2})


def test_metadata_block_carries_identity():
    cfg = get_preset("fig5").config
    meta = metadata_block("surface", "fig5", cfg, {"a": 1}, {"note": "n"})
    assert meta["tool"] == "magnomech surface"
    assert meta["preset"] == "fig5"
    assert meta["note"] == "n"
    assert len(meta["config_hash"]) == 16
