import numpy as np
import pytest

from magnomech import spectrum
from magnomech.errors import ConfigError, NumericsError
from magnomech.presets import get_preset
from magnomech.spectrum import (
    ALL_CHANNELS,
    closed_form_response,
    linear_system_response,
    psd,
    psd_map,
)

from conftest import build_config, numpy_config, random_config


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


def test_closed_form_matches_direct_solve_on_numpy_built_configs(rng):
    """The scalar elimination against the 6x6 solve, relative to the largest channel."""
    for _ in range(200):
        cfg, _ = numpy_config(rng)
        w = rng.uniform(0.3e9, 2.2e9, 1)[0]
        direct, closed = linear_system_response(w, cfg), closed_form_response(w, cfg)
        scale = max(map(abs, direct.values()))
        assert max(abs(closed[ch] - value) for ch, value in direct.items()) <= 1e-12 * scale


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
    total = psd(grid, cfg)
    assert np.all(total >= 0)
    parts = sum(psd(grid, cfg, {ch}) for ch in ALL_CHANNELS)
    assert np.allclose(parts, total, rtol=1e-12, atol=0)


def direct_psd(omega, cfg, channels=ALL_CHANNELS):
    return sum(abs(v) ** 2 for v in linear_system_response(omega, cfg, channels).values())


def test_psd_is_the_channel_sum_of_the_direct_solve(rng):
    """The (b, b~) elimination against the 6x6 oracle: each channel alone and all of them."""
    masks = [{ch} for ch in sorted(ALL_CHANNELS)] + [ALL_CHANNELS]
    for _ in range(200):
        cfg = random_config(rng)
        w = rng.uniform(0.3e9, 2.2e9)
        for channels in masks:
            assert psd(w, cfg, channels) == pytest.approx(direct_psd(w, cfg, channels), rel=1e-12, abs=0)
    omega, dets = np.linspace(0.4e9, 2.0e9, 40), np.linspace(-5e7, 5e7, 30)
    for swept, key in (("TE", "te"), ("TM", "tm")):
        cfg = random_config(rng)
        grid = psd_map(cfg, omega, dets, swept=swept)
        for k, j in zip(rng.integers(0, dets.size, 40), rng.integers(0, omega.size, 40)):
            want = direct_psd(omega[j], cfg.with_drive_detunings(**{key: dets[k]}))
            assert grid[k, j] == pytest.approx(want, rel=1e-12, abs=0)


def test_unknown_noise_channel_is_refused():
    cfg = build_config()
    for call in (lambda ch: psd(1e9, cfg, ch), lambda ch: psd_map(cfg, [1e9], [0.0], channels=ch),
                 lambda ch: linear_system_response(1e9, cfg, ch)):
        with pytest.raises(ConfigError, match="unknown noise channels: \\['q-'\\]"):
            call({"r+", "q-"})
        with pytest.raises(ConfigError, match="noise channels must name at least one of"):
            call(set())


def test_linear_response_single_frequency_only():
    cfg = build_config()
    for point in (linear_system_response, closed_form_response):
        with pytest.raises(ConfigError, match="'omega' must be a finite number"):
            point(np.array([1e9, 2e9]), cfg)


@pytest.mark.parametrize("point", [closed_form_response, linear_system_response, psd])
@pytest.mark.parametrize("omega", [np.nan, np.inf, -np.inf, "1 GHz", None])
def test_bad_frequency_is_refused_naming_omega(point, omega):
    # one refusal for every point function, before any arithmetic can warn or fail
    with pytest.raises(ConfigError, match="'omega' must be a finite number"):
        point(omega, build_config())


def test_psd_accepts_finite_arrays_only():
    cfg = build_config()
    grid = np.array([0.9e9, 1.0e9])
    assert np.array_equal(psd(grid, cfg), [psd(w, cfg) for w in grid])
    assert psd(np.float64(1e9), cfg) == psd(1e9, cfg)
    for bad in (np.array([1e9, np.nan]), ["1e9", "GHz"]):
        with pytest.raises(ConfigError, match="'omega' must be a finite number"):
            psd(bad, cfg)


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


def test_psd_map_cells_equal_points_bit_for_bit(rng):
    """A sampled map cell is, bit for bit, the point psd with the swept pump moved to its detuning."""
    fig4c = get_preset("fig4c")
    cases = ((fig4c.config, fig4c.run_params["omega_grid"], fig4c.run_params["detuning_grid"], "TE"),
             (random_config(rng), [0.4e9, 2.0e9, 300], [-5e7, 5e7, 200], "TM"),
             (numpy_config(rng)[0], [0.4e9, 2.0e9, 300], [-5e7, 5e7, 200], "TE"))
    for cfg, (w_lo, w_hi, n_w), (d_lo, d_hi, n_d), swept in cases:
        omega, dets = np.linspace(w_lo, w_hi, n_w), np.linspace(d_lo, d_hi, n_d)
        grid = psd_map(cfg, omega, dets, swept=swept)
        key = "te" if swept == "TE" else "tm"
        for k, j in zip(rng.integers(0, n_d, 300), rng.integers(0, n_w, 300)):
            point = psd(float(omega[j]), cfg.with_drive_detunings(**{key: dets[k]}))
            assert point == grid[k, j], (swept, k, j, point, grid[k, j])


def test_near_singular_system_is_reported_with_its_cell(monkeypatch):
    # ||M||_F^2 / |det M| is at least 2, so a limit of 1 flags every cell and names the first one
    cfg = build_config(delta_tm=-3e6, delta_te=4e6)
    omega, dets = np.array([0.9e9, 1.0e9]), np.array([-1e7, 2e6])
    monkeypatch.setattr(spectrum, "_COND_LIMIT", 1.0)
    for point in (psd, closed_form_response):
        with pytest.raises(NumericsError, match=r"\(b, b~\) system near-singular: condition number \S+ at "
                                                r"detuning_tm -3000000.0, detuning_te 4000000.0, omega 1000000000.0"):
            point(1e9, cfg)
    with pytest.raises(NumericsError, match=r"at detuning_tm -3000000.0, detuning_te -10000000.0, "
                                            r"omega 900000000.0"):
        psd_map(cfg, omega, dets, swept="TE")
    with pytest.raises(NumericsError, match=r"at detuning_tm -10000000.0, detuning_te 4000000.0, "
                                            r"omega 900000000.0"):
        psd_map(cfg, omega, dets, swept="TM")


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


def test_overflowing_drive_raises_numerics_error_on_every_route():
    # both strengths 1e200: |g_b|^2 overflows to inf in Python floats instead of raising OverflowError.
    # At 1e85 det M and ||M||_F^2 both overflow, and inf * _COND_LIMIT >= inf must not pass the check.
    for strength in (1e200, 1e85):
        cfg = get_preset("fig4a").config.with_strengths(tm=strength, te=strength)
        # the closed form reads psd's elimination, so it names the cell as psd does
        with pytest.raises(NumericsError, match=r"\(b, b~\) system near-singular: condition number nan at "
                                                r"detuning_tm 0.0, detuning_te 0.0, omega 1000000000.0"):
            closed_form_response(1e9, cfg)
        with pytest.raises(NumericsError, match="frequency-domain system near-singular"):
            linear_system_response(1e9, cfg)
        # the scalar and grid PSD report the cell, without numpy overflow warnings on the way
        for omega in (1e9, np.array([0.9e9, 1e9])):
            with pytest.raises(NumericsError, match="near-singular: condition number nan at detuning_tm 0.0"):
                psd(omega, cfg)
        with pytest.raises(NumericsError, match="near-singular: condition number nan"):
            psd_map(cfg, [0.9e9, 1e9], [-1e7, 0.0])


@pytest.mark.parametrize("strength", [1e59, 1e70, 1e84])
def test_psd_of_a_strong_drive_is_the_closed_form_channel_sum(strength):
    # the system passes the conditioning test, and gamma |a|^2 |b|^2 and |det M|^2 would overflow unscaled
    cfg = get_preset("fig4a").config.with_strengths(tm=strength, te=strength)
    expected = sum(abs(c) ** 2 for c in closed_form_response(1e9, cfg).values())
    point = psd(1e9, cfg)
    assert type(point) is float and point == pytest.approx(expected, rel=1e-12)
    assert psd(np.array([0.9e9, 1e9]), cfg)[1] == point
    assert psd_map(cfg, [0.9e9, 1e9], [-1e7, 0.0])[1, 1] == point
