import numpy as np
import pytest

from magnomech.errors import ConfigError
from magnomech.spectrum import (
    ALL_CHANNELS,
    NoiseParams,
    closed_form_response,
    linear_system_response,
    psd,
    psd_map,
)

from conftest import build_config, random_config


def worst_channel_error(cfg, omega):
    direct = linear_system_response(omega, cfg)
    closed = closed_form_response(omega, cfg)
    worst = 0.0
    for ch, value in direct.items():
        scale = max(abs(value), 1e-30)
        worst = max(worst, abs(closed[ch] - value) / scale)
    return worst


def test_closed_form_matches_direct_solve(rng):
    """Channel-matched agreement between the elimination and the 6x6 solve."""
    worst = 0.0
    for _ in range(200):
        cfg = random_config(rng)
        w = rng.uniform(0.3e9, 2.2e9)
        worst = max(worst, worst_channel_error(cfg, w))
    assert worst < 1e-10


def test_closed_form_matches_at_negative_and_zero_adjacent_frequencies(rng):
    for _ in range(20):
        cfg = random_config(rng)
        for w in (-1.1e9, -3e8, 1e5, 2e9):
            assert worst_channel_error(cfg, w) < 1e-10


def test_zero_drive_transfer_is_zero():
    cfg = build_config(strength_tm=0.0, strength_te=0.0)
    coeffs = linear_system_response(1.0e9, cfg)
    assert all(v == 0 for v in coeffs.values())
    grid = np.linspace(0.5e9, 1.5e9, 7)
    assert np.all(psd(grid, cfg) == 0)


def test_psd_nonnegative_and_channel_additive(rng):
    cfg = random_config(rng)
    grid = np.linspace(0.4e9, 2.0e9, 31)
    total = psd(grid, cfg, NoiseParams())
    assert np.all(total >= 0)
    parts = sum(psd(grid, cfg, NoiseParams(channels=frozenset((ch,))))
                for ch in ALL_CHANNELS)
    assert np.allclose(parts, total, rtol=1e-12, atol=0)


def test_psd_unit_scaling():
    cfg = build_config()
    grid = np.linspace(0.8e9, 1.2e9, 5)
    one = psd(grid, cfg, NoiseParams(unit_psd=1.0))
    three = psd(grid, cfg, NoiseParams(unit_psd=3.0))
    assert np.allclose(three, 3 * one, rtol=1e-14)


def test_noise_params_validation():
    with pytest.raises(ConfigError):
        NoiseParams(unit_psd=-1.0)
    with pytest.raises(ConfigError):
        NoiseParams(channels=frozenset(("r+", "q-")))


def test_linear_response_single_frequency_only():
    cfg = build_config()
    with pytest.raises(ConfigError):
        linear_system_response(np.array([1e9, 2e9]), cfg)


def test_psd_map_ordering_and_sweep_axis():
    # both pumps detuned, so a row that swept the wrong pump or dropped the fixed one differs
    cfg = build_config(delta_tm=-3e6, delta_te=4e6)
    omega = np.linspace(0.8e9, 1.0e9, 3)
    for dets in (np.array([-1e7, 0.0, 2.5e6]), np.array([1.5e7, 0.0, -1e7])):
        grids = {}
        for swept, key in (("TE", "te"), ("TM", "tm")):
            grids[swept] = psd_map(cfg, omega, dets, swept=swept)
            # detuning outer, omega inner
            assert grids[swept].shape == (dets.size, omega.size)
            for k, det in enumerate(dets):
                assert np.array_equal(grids[swept][k], psd(omega, cfg.with_drive_detunings(**{key: det})))
        assert not np.array_equal(grids["TE"], grids["TM"])


def test_psd_map_validates_inputs():
    cfg = build_config()
    with pytest.raises(ConfigError, match="omega_grid must be strictly monotone"):
        psd_map(cfg, [1e9, 0.5e9, 2e9], [0.0], swept="TE")
    assert psd_map(cfg, [1e9], [0.0, -1e7], swept="TE").shape == (2, 1)  # decreasing is monotone
    with pytest.raises(ConfigError):
        psd_map(cfg, [1e9], [0.0], swept="sideways")


def test_weak_drive_two_band_structure():
    """At the weak working point an omega cut shows exactly the two polariton bands."""
    from scipy.signal import find_peaks

    cfg = build_config(omega_m=8.5e8, omega_r=1.15e9,
                       strength_tm=0.6e12, strength_te=0.6e12, delta_te=-1e7)
    grid = np.linspace(0.4e9, 2.0e9, 1201)
    curve = np.log10(psd(grid, cfg))
    peaks, _ = find_peaks(curve, prominence=0.2)
    assert len(peaks) == 2
    centers = grid[peaks]
    assert centers[0] == pytest.approx(8.7e8, abs=5e6)
    assert centers[1] == pytest.approx(1.15e9, abs=5e6)
