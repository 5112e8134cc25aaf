import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from magnomech.errors import ConfigError, NumericsError
from magnomech.model import (
    OscillatorMode,
    PumpDrive,
    SystemConfig,
    _pump_coupling,
    critical_mode,
    effective_couplings,
    susceptibility,
)

import magnomech as mm
from conftest import bits, build_config, numpy_config, random_config

# resonant drive at critical coupling: strength * sqrt(2*(kappa/2)) / kappa
COUPLING_ORACLE = 2.2360679774997897e8


def test_susceptibility_peak_and_width():
    gamma, w0 = 2e7, 1.0e9
    assert susceptibility(gamma, w0, w0) == pytest.approx(2 / gamma)
    # |chi|^2 halves exactly at half a linewidth off resonance
    peak = abs(susceptibility(gamma, w0, w0)) ** 2
    for sign in (+1, -1):
        half = abs(susceptibility(gamma, w0, w0 + sign * gamma / 2)) ** 2
        assert half == pytest.approx(peak / 2, rel=1e-12)


def test_susceptibility_vectorized_matches_scalar():
    gamma, w0 = 3e7, 5e8
    grid = np.linspace(-1e9, 1e9, 101)
    vec = susceptibility(gamma, w0, grid)
    assert vec.shape == grid.shape
    for k in (0, 37, 100):
        assert vec[k] == susceptibility(gamma, w0, grid[k])


def test_susceptibility_rejects_bad_gamma():
    with pytest.raises(ConfigError):
        susceptibility(0.0, 0.0, 0.0)
    with pytest.raises(ConfigError):
        susceptibility(-1e7, 0.0, 0.0)


def test_te_susceptibility_peaks_at_minus_detuning():
    # pump rotating frame: the driven TE mode responds around minus its pump detuning
    cfg = build_config(delta_te=-2.5e7)
    grid = np.linspace(-1e8, 1e8, 2001)
    response = np.abs(susceptibility(cfg.te_photon.gamma, -cfg.drive_te.detuning, grid))
    assert grid[np.argmax(response)] == pytest.approx(2.5e7, abs=np.diff(grid)[0])


def test_effective_coupling_resonant_oracle():
    # frozen by hand: 1e12 * sqrt(2e7) / 2e7
    cfg = build_config(strength_tm=1e12, strength_te=1e12, kappa_tm=2e7, kappa_te=2e7)
    g = effective_couplings(cfg)
    assert g.g_a == pytest.approx(COUPLING_ORACLE, rel=1e-14)
    assert g.g_a.imag == 0.0
    assert g.g_b == pytest.approx(COUPLING_ORACLE, rel=1e-14)


def test_effective_coupling_detuned_phase():
    cfg = build_config(strength_tm=1e12, delta_tm=-3e6, kappa_tm=2e7)
    g_a = effective_couplings(cfg).g_a
    denom = -1j * (-3e6) + 2e7
    assert np.angle(g_a) == pytest.approx(-np.angle(denom), abs=1e-14)
    assert abs(g_a) == pytest.approx(1e12 * np.sqrt(2e7) / abs(denom), rel=1e-14)


@pytest.mark.parametrize("strengths, mode, detuning", [
    (dict(strength_tm=1.7e308), "tm_photon", "-3000000.0"),
    (dict(strength_te=1.7e308), "te_photon", "-10000000.0"),
], ids=["tm", "te"])
def test_overflowing_coupling_names_its_pump_and_cell(strengths, mode, detuning):
    with pytest.raises(NumericsError) as info:
        effective_couplings(build_config(delta_tm=-3e6, delta_te=-1e7, **strengths))
    assert str(info.value) == (f"effective coupling evaluated non-finite for the {mode} pump at effective_strength "
                               f"1.7e+308, detuning {detuning}; check drive and damping values")


def test_mode_validation_names_field():
    with pytest.raises(ConfigError, match="OscillatorMode.gamma"):
        OscillatorMode("magnon", 1e9, -2e7)
    with pytest.raises(ConfigError):
        OscillatorMode("magnon", 1e9, 2e7, gamma_ext=3e7)  # ext above total
    with pytest.raises(ConfigError):
        OscillatorMode("laser", 1e9, 2e7)


def test_non_number_field_names_the_field():
    with pytest.raises(ConfigError, match="'OscillatorMode.omega' must be a finite number, got 'abc'"):
        OscillatorMode("magnon", "abc", 1e7)
    with pytest.raises(ConfigError, match="'PumpDrive.detuning' must be a finite number, got None"):
        PumpDrive("tm_photon", None, 1e10)
    with pytest.raises(ConfigError, match="'PumpDrive.effective_strength' must be a finite number, got inf"):
        PumpDrive("tm_photon", 0.0, np.inf)


def test_numpy_built_config_holds_python_floats(rng):
    for _ in range(20):
        built, twin = numpy_config(rng)
        assert built == twin
        tree = built.to_dict()
        for owner, fields in (*tree["modes"].items(), *tree["drives"].items()):
            for name, value in fields.items():
                assert type(value) is float, (owner, name, type(value))


def _point_values(cfg, omega, p_in, delta):
    g = mm.effective_couplings(cfg)
    w_m, w_r = cfg.magnon.omega, cfg.phonon.omega
    h = mm.hamiltonian_on_plane(cfg, p_in, delta)
    pair = mm.eigenpairs(h)
    return ((g.g_a, g.g_b), mm.sigma_rr(w_r, cfg), mm.sigma_mm(w_m, cfg), mm.sigma_mr(w_m, cfg),
            mm.sigma_rm(w_m, cfg), mm.psd(omega, cfg), mm.linear_system_response(omega, cfg),
            mm.closed_form_response(omega, cfg), h.tolist(), pair.lambda_plus, pair.lambda_minus,
            pair.v_plus.tolist(), pair.v_minus.tolist())


def test_point_functions_on_numpy_built_config_equal_float_twin_bit_for_bit(rng):
    """Every point function gives the same bits for a numpy-built config as for its float-built twin."""
    for _ in range(50):
        built, twin = numpy_config(rng)
        args = rng.uniform(0.4e9, 2.0e9), rng.uniform(5e10, 1.5e12), rng.uniform(-6e7, 1e7)
        # repr is exact for floats and tells -0.0 from 0.0
        assert repr(_point_values(built, *args)) == repr(_point_values(twin, *args))


def test_point_functions_return_python_types(rng):
    """Point calls compute in Python scalars: no numpy scalar reaches a caller, also from a numpy-built config."""
    for cfg in [random_config(rng) for _ in range(5)] + [numpy_config(rng)[0] for _ in range(5)]:
        omega = rng.uniform(0.4e9, 2.0e9)
        g = mm.effective_couplings(cfg)
        assert type(g.g_a) is complex and type(g.g_b) is complex
        w_m, w_r = cfg.magnon.omega, cfg.phonon.omega
        for value in (mm.sigma_rr(w_r, cfg), mm.sigma_mm(w_m, cfg), mm.sigma_mr(w_m, cfg), mm.sigma_rm(w_m, cfg)):
            assert type(value) is complex
        for response in (mm.linear_system_response(omega, cfg), mm.closed_form_response(omega, cfg)):
            assert all(type(value) is complex for value in response.values())
        assert type(mm.psd(omega, cfg)) is float
        h = mm.hamiltonian_on_plane(cfg, rng.uniform(5e10, 1.5e12), rng.uniform(-6e7, 1e7))
        assert all(type(entry) is complex for entry in h.ravel().tolist())
        assert type(mm.discriminant(mm.build_hamiltonian(cfg))) is complex
        pair = mm.eigenpairs(h)
        for value in (*mm.eigenvalues(h), pair.lambda_plus, pair.lambda_minus):
            assert type(value) is complex


def _coupling_bits(mode, detuning, strength):
    """The bits of the coupling, of its one cell on arrays, or "NumericsError"."""
    try:
        g = _pump_coupling(mode, detuning, strength)
    except NumericsError:
        return "NumericsError"
    return bits(g[0] if isinstance(g, np.ndarray) else g)


# both quotient branches (|detuning| below and above gamma), signed zero detunings and zero strength;
# a large strength over a small gamma overflows the quotient, and every path reports it
@settings(max_examples=400, derandomize=True, database=None, deadline=None)
@given(strength=st.floats(0.0, 1e300), detuning=st.floats(-1e300, 1e300),
       gamma=st.floats(1e-300, 1e16, exclude_min=True), ext=st.floats(0.0, 1.0))
@example(strength=6e11, detuning=5e6, gamma=2e7, ext=0.5)
@example(strength=6e11, detuning=-4e7, gamma=2e7, ext=0.5)
@example(strength=6e11, detuning=0.0, gamma=2e7, ext=0.5)
@example(strength=6e11, detuning=-0.0, gamma=2e7, ext=0.5)
@example(strength=0.0, detuning=-3e7, gamma=2e7, ext=0.5)
@example(strength=1e300, detuning=1e-300, gamma=1e-300, ext=0.5)
def test_pump_coupling_point_carries_the_bits_of_its_grid_cell(strength, detuning, gamma, ext):
    """A point coupling, in Python floats, equals its array cell and numpy's scalar quotient bit for bit."""
    mode = OscillatorMode("tm_photon", 0.0, gamma, gamma * ext)
    point = _coupling_bits(mode, detuning, strength)
    assert _coupling_bits(mode, np.array([detuning]), strength) == point
    assert _coupling_bits(mode, detuning, np.array([strength])) == point
    assert _coupling_bits(mode, np.float64(detuning), np.float64(strength)) == point
    with np.errstate(all="ignore"):  # numpy's scalar arithmetic warns on overflow
        if point != "NumericsError":  # numpy's scalar quotient, by which the coupling was computed before
            assert bits(complex(strength * np.sqrt(2 * mode.gamma_ext) / (-1j * detuning + mode.gamma))) == point
    if point != "NumericsError":
        assert type(_pump_coupling(mode, detuning, strength)) is complex


def test_drive_validation():
    with pytest.raises(ConfigError):
        PumpDrive("magnon", 0.0, 1e12)
    with pytest.raises(ConfigError):
        PumpDrive("tm_photon", 0.0, -1.0)


def test_config_slot_labels_enforced():
    good = build_config()
    with pytest.raises(ConfigError):
        SystemConfig(
            tm_photon=good.te_photon,  # wrong label in the tm slot
            te_photon=good.te_photon,
            magnon=good.magnon,
            phonon=good.phonon,
            drive_tm=good.drive_tm,
            drive_te=good.drive_te,
        )


def test_config_round_trip():
    cfg = build_config(delta_tm=-3e6, delta_te=-5.5e6, strength_tm=8.7e11)
    again = SystemConfig.from_dict(cfg.to_dict())
    assert again == cfg


def test_from_dict_rejects_unknown_keys():
    payload = build_config().to_dict()
    payload["extra_knob"] = 1
    with pytest.raises(ConfigError, match="extra_knob"):
        SystemConfig.from_dict(payload)
    # a convention name is not a config key either
    payload = build_config().to_dict()
    payload["conjugation_convention"] = "complex_squared"
    with pytest.raises(ConfigError, match="conjugation_convention"):
        SystemConfig.from_dict(payload)
    # nested names are checked too, and a mode or drive entry must be a mapping
    for section, name, value, message in (
            ("modes", "magnon2", payload["modes"]["magnon"], "unknown config keys: ['modes.magnon2']"),
            ("drives", "xx", {}, "unknown config keys: ['drives.xx']"),
            ("modes", "magnon", 5, "config entry 'modes.magnon' must be a mapping, got 5"),
            ("drives", "tm", [1], "config entry 'drives.tm' must be a mapping, got [1]"),
            ("drives", "te", None, "config entry 'drives.te' must be a mapping, got None")):
        payload = build_config().to_dict()
        payload[section][name] = value
        with pytest.raises(ConfigError) as info:
            SystemConfig.from_dict(payload)
        assert str(info.value) == message
    # field names are checked by their override keys, whether data or overrides hold them, in one message
    payload = build_config().to_dict()
    payload["modes"]["magnon"]["omegax"] = 1.0
    for data, overrides, keys in ((payload, (), ["magnon.omegax"]),
                                  (build_config().to_dict(), [("magnon.omegax", 1)], ["magnon.omegax"]),
                                  (build_config().to_dict(), [("drive_tm.detunin", 1)], ["drive_tm.detunin"]),
                                  (payload, [("drive_tm.detunin", 1)], ["drive_tm.detunin", "magnon.omegax"])):
        with pytest.raises(ConfigError) as info:
            SystemConfig.from_dict(data, overrides)
        assert str(info.value) == f"unknown config keys: {keys}"


def test_from_dict_overrides_supply_and_replace_fields():
    cfg = build_config()
    payload = cfg.to_dict()
    del payload["modes"]["magnon"]["omega"]
    with pytest.raises(ConfigError) as info:  # a field that nothing supplies
        SystemConfig.from_dict(payload)
    assert str(info.value) == ("malformed config mapping: OscillatorMode.__init__() missing 1 required positional "
                               "argument: 'omega'")
    again = SystemConfig.from_dict(payload, [("magnon.omega", cfg.magnon.omega), ("drive_te.detuning", -1e7)])
    assert again == cfg.with_drive_detunings(te=-1e7)


def test_sweep_helpers_leave_other_fields_untouched():
    cfg = build_config(delta_tm=-3e6, delta_te=-5e6)
    moved = cfg.with_drive_detunings(te=-1e7)
    assert moved.drive_te.detuning == -1e7
    assert moved.drive_tm == cfg.drive_tm
    assert moved.magnon == cfg.magnon
    boosted = cfg.with_strengths(tm=2e12)
    assert boosted.drive_tm.effective_strength == 2e12
    assert boosted.drive_te == cfg.drive_te


def test_critical_mode_halves_damping():
    m = critical_mode("te_photon", 0.0, 2e7)
    assert m.gamma_ext == 1e7
