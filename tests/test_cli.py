"""End-to-end command tests, run in process through cli.main(argv)."""

import json
import os
import subprocess
import sys

import numpy as np
import pytest

from magnomech import cli
from magnomech.ep import eigenpairs, hamiltonian_on_plane
from magnomech.errors import NumericsError
from magnomech.model import effective_couplings
from magnomech.output import (GridAxis, config_hash, data_section, format_column, metadata_block,
                              write_csv, write_json)
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
                     "--set", "rtol=1e-6"])
    assert code == 0
    header, fwd = read_rows(stem + ".csv")
    assert header == ["t", "theta", "p_in", "delta", "f_a", "f_b", "log_norm"]
    assert len(fwd) == 64
    _, rev = read_rows(stem + "_reverse.csv")
    assert len(rev) == 64
    for row in fwd:
        assert row[4] + row[5] == pytest.approx(1.0, abs=1e-12)
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
    # convention names and eval_omega are not keys, and a non-positive rtol is refused
    for command, preset, override, key in (
            ("encircle", "fig6a", "carrier_offset=1e9", "carrier_offset"),
            ("encircle", "fig6a", "rtol=-1", "rtol"),
            ("coupling", "fig5", "conjugation_convention=complex_squared", "conjugation_convention"),
            ("coupling", "fig5", "sigma_eval_frequency=at_omega_m", "sigma_eval_frequency"),
            ("self-energy", "fig2a", "eval_omega=1e9", "eval_omega")):
        assert cli.main([command, "--preset", preset, "--out", stem, "--set", override]) == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"]["type"] == "config"
        assert key in err["error"]["message"]


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


def test_unknown_config_file_key_exits_2(tmp_path, capsys):
    path = tmp_path / "extra.json"
    path.write_text(json.dumps({"config": get_preset("fig5").config.to_dict(), "extra": 1}))
    assert cli.main(["coupling", "--config", str(path)]) == 2
    assert "extra" in json.loads(capsys.readouterr().err)["error"]["message"]


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

    monkeypatch.setitem(cli._RUNNERS, "coupling", boom)
    assert cli.main(["coupling", "--preset", "fig5", "--out", str(tmp_path / "x")]) == 3
    err = json.loads(capsys.readouterr().err)
    assert err["error"]["type"] == "numeric"
    assert "synthetic" in err["error"]["message"]


def test_grid_triplet_parsing():
    assert cli._parse_value("1e6:2e6:5") == [1e6, 2e6, 5]
    assert cli._parse_value("true") is True
    assert cli._parse_value("[1, 2]") == [1, 2]
    assert cli._parse_value("TE") == "TE"


def test_every_preset_is_reachable():
    for name, preset in REGISTRY.items():
        assert preset.command in cli._RUNNERS
        assert get_preset(name) is preset


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


def test_grid_axis_text_matches_its_expanded_values():
    axis = GridAxis(np.array([-0.0, 1e-5, 3.0]), repeat=2, tile=3)
    expanded = np.asarray(axis)
    assert np.array_equal(expanded, np.tile(np.repeat(axis.values, 2), 3))
    assert format_column(axis) == format_column(expanded) == [repr(v) for v in expanded.tolist()]


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
