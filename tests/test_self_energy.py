import numpy as np
import pytest

from magnomech.errors import ConfigError
from magnomech.model import effective_couplings
from magnomech.self_energy import (
    sigma_mm,
    sigma_mr,
    sigma_rm,
    sigma_rr,
    sweep_self_energy,
)

from conftest import build_config, random_config


def test_mechanical_sigma_vanishes_on_te_resonance():
    cfg = build_config(delta_te=0.0)
    for w in (0.0, 3e6, 8e6, 5e7):
        assert abs(sigma_rr(w, cfg)) <= 1e-20


def test_mechanical_sigma_antisymmetric_in_te_detuning(rng):
    for _ in range(20):
        cfg = random_config(rng)
        w = rng.uniform(-5e7, 5e7)
        d = rng.uniform(1e5, 5e7)
        plus = sigma_rr(w, cfg.with_drive_detunings(te=d))
        minus = sigma_rr(w, cfg.with_drive_detunings(te=-d))
        assert minus == pytest.approx(-plus, rel=1e-12)


def test_cross_terms_equal_magnitude_phase_offset(rng):
    # sigma_mr / sigma_rm = g_b / conj(g_b): same modulus, twice the g_b phase
    for _ in range(20):
        cfg = random_config(rng)
        w = rng.uniform(-5e7, 5e7)
        mr = sigma_mr(w, cfg)
        rm = sigma_rm(w, cfg)
        assert abs(mr) == pytest.approx(abs(rm), rel=1e-13)
        expected = 2 * np.angle(effective_couplings(cfg).g_b)
        got = np.angle(mr) - np.angle(rm)
        got = (got + np.pi) % (2 * np.pi) - np.pi
        expected = (expected + np.pi) % (2 * np.pi) - np.pi
        assert got == pytest.approx(expected, abs=1e-12)


def test_quadratic_drive_scaling(rng):
    for _ in range(10):
        cfg = random_config(rng)
        w = rng.uniform(-3e7, 3e7)
        doubled = cfg.with_strengths(tm=2 * cfg.drive_tm.effective_strength,
                                     te=2 * cfg.drive_te.effective_strength)
        for fn in (sigma_rr, sigma_mm, sigma_mr, sigma_rm):
            base = fn(w, cfg)
            if base == 0:
                continue
            assert fn(w, doubled) == pytest.approx(4 * base, rel=1e-12)


def test_zero_drive_kills_all_terms():
    cfg = build_config(strength_tm=0.0, strength_te=0.0, delta_te=-1e7)
    for fn in (sigma_rr, sigma_mm, sigma_mr, sigma_rm):
        assert fn(5e6, cfg) == 0


def test_sigma_vectorized_over_omega():
    cfg = build_config(delta_te=-1e7)
    grid = np.linspace(-5e7, 5e7, 41)
    vec = sigma_rr(grid, cfg)
    assert vec.shape == grid.shape
    assert vec[7] == pytest.approx(sigma_rr(grid[7], cfg), rel=1e-14)


def test_sweep_cross_product_row_major():
    # every cell of every component equals the point function on the rebuilt config, TM the outer axis
    tm = np.linspace(-4e7, 3e7, 6)
    te = np.linspace(2e7, -5e7, 5)
    base = build_config(strength_tm=8e11, strength_te=5e11, delta_tm=-3e6)
    for which, fn in (("rr", sigma_rr), ("mm", sigma_mm), ("mr", sigma_mr), ("rm", sigma_rm)):
        omega = base.phonon.omega if which == "rr" else base.magnon.omega
        sigma = sweep_self_energy(base, tm, te, which)
        assert sigma.shape == (tm.size * te.size,) and sigma.dtype == complex
        for k, value in enumerate(sigma.tolist()):
            assert value == fn(omega, base.with_drive_detunings(tm=tm[k // te.size], te=te[k % te.size]))


def test_sweep_diagonal_mode():
    cfg = build_config()
    grid = np.linspace(-5e7, 5e7, 11)
    for which, fn, omega in (("rr", sigma_rr, cfg.phonon.omega), ("mr", sigma_mr, cfg.magnon.omega)):
        sigma = sweep_self_energy(cfg, grid, grid, which, diagonal=True)
        assert sigma.shape == (11,)
        for d, value in zip(grid, sigma.tolist()):
            assert value == fn(omega, cfg.with_drive_detunings(tm=d, te=d))
    with pytest.raises(ConfigError):
        sweep_self_energy(cfg, grid, grid[:5], "rr", diagonal=True)


def test_sweep_validates_grids_and_component():
    cfg = build_config()
    with pytest.raises(ConfigError):
        sweep_self_energy(cfg, [], [0.0], "rr")
    with pytest.raises(ConfigError, match="tm_detuning_grid must be strictly monotone"):
        sweep_self_energy(cfg, [0.0, 1.0, 0.5], [0.0], "rr")
    assert len(sweep_self_energy(cfg, [1.0, 0.0], [0.0], "rr")) == 2  # decreasing is monotone
    with pytest.raises(ConfigError):
        sweep_self_energy(cfg, [0.0], [0.0], "xy")

