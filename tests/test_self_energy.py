from dataclasses import replace

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


def test_convention_switch_preserves_mm_modulus(rng):
    """The two conjugation conventions differ only in the phase carried by g_a."""
    for _ in range(10):
        cfg = random_config(rng)
        w = rng.uniform(-3e7, 3e7)
        flipped = replace(cfg, conjugation_convention="magnitude_squared")
        a = sigma_mm(w, cfg)
        b = sigma_mm(w, flipped)
        assert abs(a) == pytest.approx(abs(b), rel=1e-13)
        # the mechanical term carries no g_a at all: identical either way
        assert sigma_rr(w, cfg) == sigma_rr(w, flipped)


def test_convention_switch_identity_for_real_coupling():
    cfg = build_config(delta_tm=0.0, delta_te=-8e6)  # resonant TM pump: g_a real
    flipped = replace(cfg, conjugation_convention="magnitude_squared")
    w = 4e6
    assert sigma_mm(w, cfg) == pytest.approx(sigma_mm(w, flipped), rel=1e-14)


def test_sigma_vectorized_over_omega():
    cfg = build_config(delta_te=-1e7)
    grid = np.linspace(-5e7, 5e7, 41)
    vec = sigma_rr(grid, cfg)
    assert vec.shape == grid.shape
    assert vec[7] == pytest.approx(sigma_rr(grid[7], cfg), rel=1e-14)


def test_sweep_cross_product_row_major():
    cfg = build_config()
    tm = [-1e6, 0.0, 1e6]
    te = [-2e6, 2e6]
    pts = sweep_self_energy(cfg, tm, te, "mm")
    assert len(pts) == 6
    assert [p.delta_tm for p in pts] == [-1e6, -1e6, 0.0, 0.0, 1e6, 1e6]
    assert [p.delta_te for p in pts] == [-2e6, 2e6, -2e6, 2e6, -2e6, 2e6]
    # every cell of every component equals the point function on the rebuilt config
    tm = np.linspace(-4e7, 3e7, 6)
    te = np.linspace(2e7, -5e7, 5)
    for convention in ("complex_squared", "magnitude_squared"):
        base = replace(build_config(strength_tm=8e11, strength_te=5e11, delta_tm=-3e6),
                       conjugation_convention=convention)
        for which, fn in (("rr", sigma_rr), ("mm", sigma_mm), ("mr", sigma_mr), ("rm", sigma_rm)):
            omega = base.phonon.omega if which == "rr" else base.magnon.omega
            pts = sweep_self_energy(base, tm, te, which)
            assert len(pts) == tm.size * te.size
            for k, p in enumerate(pts):
                assert (p.delta_tm, p.delta_te) == (tm[k // te.size], te[k % te.size])
                assert p.sigma == fn(omega, base.with_drive_detunings(tm=p.delta_tm, te=p.delta_te))


def test_sweep_diagonal_mode():
    cfg = build_config()
    grid = np.linspace(-5e7, 5e7, 11)
    pts = sweep_self_energy(cfg, grid, grid, "rr", diagonal=True)
    assert len(pts) == 11
    for p in pts:
        assert p.delta_tm == p.delta_te
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


def test_shift_and_damping_split():
    cfg = build_config(delta_te=-1.5e7)
    pts = sweep_self_energy(cfg, [0.0], [-1.5e7], "rr")
    sp = pts[0]
    assert sp.freq_shift == sp.sigma.real
    assert sp.damping_shift == sp.sigma.imag
