import numpy as np
import pytest

from magnomech.errors import ConfigError
from magnomech.model import (
    OscillatorMode,
    PumpDrive,
    SystemConfig,
    critical_mode,
    effective_couplings,
    susceptibility,
    te_susceptibility,
)

from conftest import build_config

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
    cfg = build_config(delta_te=-2.5e7)
    grid = np.linspace(-1e8, 1e8, 2001)
    response = np.abs(te_susceptibility(cfg, grid))
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


def test_mode_validation_names_field():
    with pytest.raises(ConfigError, match="OscillatorMode.gamma"):
        OscillatorMode("magnon", 1e9, -2e7)
    with pytest.raises(ConfigError):
        OscillatorMode("magnon", 1e9, 2e7, gamma_ext=3e7)  # ext above total
    with pytest.raises(ConfigError):
        OscillatorMode("laser", 1e9, 2e7)


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
