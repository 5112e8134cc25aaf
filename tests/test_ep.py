import numpy as np
import pytest

from magnomech.ep import (
    build_hamiltonian,
    discriminant,
    eigenpairs,
    eigenvalues,
    find_exceptional_points,
    hamiltonian_on_plane,
    monodromy_swapped,
    riemann_surface,
)
from magnomech.errors import ConfigError, NumericsError
from magnomech.model import effective_couplings, te_susceptibility
from magnomech.presets import get_preset

from conftest import build_config

# regression anchor for the search in the default window (found by the
# coarse |D| grid scan and confirmed by Newton refinement on first build)
EP_P_IN = 6.05736e11
EP_DELTA = -4.69077e7


def random_matrix(rng):
    return rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))


def test_eigenpairs_match_dense_solver(rng):
    for _ in range(500):
        h = random_matrix(rng)
        pair = eigenpairs(h)
        mine = sorted([pair.lambda_plus, pair.lambda_minus], key=lambda z: (z.real, z.imag))
        ref = sorted(np.linalg.eigvals(h), key=lambda z: (z.real, z.imag))
        scale = max(abs(ref[0]), abs(ref[1]), 1e-30)
        assert abs(mine[0] - ref[0]) / scale < 1e-10
        assert abs(mine[1] - ref[1]) / scale < 1e-10
    # the stacked closed form, one call over a (50, 4, 2, 2) stack
    stack = rng.normal(size=(50, 4, 2, 2)) + 1j * rng.normal(size=(50, 4, 2, 2))
    plus, minus = eigenvalues(stack)
    assert plus.shape == minus.shape == (50, 4)
    ref = np.sort_complex(np.linalg.eigvals(stack))
    mine = np.sort_complex(np.stack([plus, minus], axis=-1))
    scale = np.maximum(np.abs(ref).max(axis=-1, keepdims=True), 1e-30)
    assert np.max(np.abs(mine - ref) / scale) < 1e-10


def test_eigenvectors_satisfy_eigenproblem(rng):
    for _ in range(200):
        h = random_matrix(rng)
        pair = eigenpairs(h)
        for lam, v in ((pair.lambda_plus, pair.v_plus), (pair.lambda_minus, pair.v_minus)):
            assert np.linalg.norm(h @ v - lam * v) < 1e-10 * max(np.linalg.norm(h), 1)
            assert np.linalg.norm(v) == pytest.approx(1.0, rel=1e-12)
            # phase fixed: dominant entry real positive
            top = v[np.argmax(np.abs(v))]
            assert abs(top.imag) < 1e-12
            assert top.real > 0


def test_vieta_identities(rng):
    for _ in range(200):
        h = random_matrix(rng)
        pair = eigenpairs(h)
        tr = h[0, 0] + h[1, 1]
        det = h[0, 0] * h[1, 1] - h[0, 1] * h[1, 0]
        assert pair.lambda_plus + pair.lambda_minus == pytest.approx(tr, rel=1e-12)
        assert pair.lambda_plus * pair.lambda_minus == pytest.approx(det, rel=1e-12)
        # the squared splitting is the discriminant by construction
        gap_sq = (pair.lambda_plus - pair.lambda_minus) ** 2
        assert gap_sq == pytest.approx(discriminant(h), rel=1e-12, abs=1e-30)


def test_defective_matrix_collapses():
    h = np.array([[2.0 + 1.0j, 1.0], [0.0, 2.0 + 1.0j]])
    assert discriminant(h) == 0
    pair = eigenpairs(h)
    assert pair.lambda_plus == pair.lambda_minus == 2.0 + 1.0j


def test_eigenpairs_rejects_bad_input():
    with pytest.raises(NumericsError):
        eigenpairs(np.full((2, 2), np.nan + 0j))
    with pytest.raises(NumericsError):
        eigenpairs(np.eye(3))


def test_hamiltonian_structure_matches_manual_assembly():
    cfg = build_config(omega_m=9.84e8, omega_r=1.016e9, delta_tm=-3e6, delta_te=-5e6,
                       strength_tm=8.7e11, strength_te=8.7e11)
    h = build_hamiltonian(cfg)
    assert isinstance(h, np.ndarray) and h.shape == (2, 2) and h.dtype == complex

    g = effective_couplings(cfg)
    chi = te_susceptibility(cfg, cfg.magnon.omega)
    chi_ref = np.conj(te_susceptibility(cfg, -cfg.magnon.omega))
    expected_00 = cfg.phonon.omega - 0.5j * cfg.phonon.gamma - 1j * abs(g.g_b) ** 2 * (chi - chi_ref)
    expected_11 = cfg.magnon.omega - 0.5j * cfg.magnon.gamma - 1j * g.g_a**2 * chi
    assert h[0, 0] == pytest.approx(expected_00, rel=1e-14)
    assert h[1, 1] == pytest.approx(expected_11, rel=1e-14)
    assert h[0, 1] == pytest.approx(-1j * np.conj(g.g_a) * g.g_b * chi, rel=1e-14)
    assert h[1, 0] == pytest.approx(-1j * g.g_a * g.g_b * chi, rel=1e-14)


def test_plane_helper_ties_strengths():
    cfg = get_preset("fig5").config
    h = hamiltonian_on_plane(cfg, 5e11, -2e7)
    manual = build_hamiltonian(
        cfg.with_strengths(tm=5e11, te=5e11).with_drive_detunings(te=-2e7))
    assert np.array_equal(h, manual)
    tied = hamiltonian_on_plane(cfg, 5e11, -2e7, tie_tm_detuning=True)
    manual_tied = build_hamiltonian(
        cfg.with_strengths(tm=5e11, te=5e11).with_drive_detunings(te=-2e7, tm=-2e7))
    assert np.array_equal(tied, manual_tied)
    # a mesh evaluates in one call, each cell bit-identical to its rebuilt config
    p_mesh = np.linspace(0.1e12, 1.4e12, 5)
    d_mesh = np.linspace(-6e7, 1e7, 4)
    for tie in (False, True):
        stack = hamiltonian_on_plane(cfg, p_mesh[:, None], d_mesh[None, :], tie_tm_detuning=tie)
        assert stack.shape == (5, 4, 2, 2)
        for i, p in enumerate(p_mesh):
            for j, d in enumerate(d_mesh):
                rebuilt = cfg.with_strengths(tm=p, te=p).with_drive_detunings(te=d, tm=d if tie else None)
                assert np.array_equal(stack[i, j], build_hamiltonian(rebuilt))


def test_zero_drive_hamiltonian_is_bare_and_diagonal():
    cfg = build_config(strength_tm=0.0, strength_te=0.0)
    h = build_hamiltonian(cfg)
    assert h[0, 1] == 0 and h[1, 0] == 0
    assert h[0, 0] == cfg.phonon.omega - 0.5j * cfg.phonon.gamma
    assert h[1, 1] == cfg.magnon.omega - 0.5j * cfg.magnon.gamma


def test_ep_search_regression():
    preset = get_preset("fig5")
    found = find_exceptional_points(preset.config, preset.run_params["region"],
                                    seeds_per_axis=24)
    assert len(found) == 1
    ep = found[0]
    assert ep.p_in == pytest.approx(EP_P_IN, rel=1e-3)
    assert ep.delta == pytest.approx(EP_DELTA, rel=1e-3)
    lam_bar = abs(ep.lambda_value)
    assert ep.gap <= 1e-6 * max(lam_bar, 1.0)


def test_ep_search_validates_region():
    cfg = get_preset("fig5").config
    with pytest.raises(ConfigError):
        find_exceptional_points(cfg, ((1e12, 5e11), (-1e7, 1e7)))  # inverted
    with pytest.raises(ConfigError):
        find_exceptional_points(cfg, ((5e11, 1e12), (-1e7, 1e7)), seeds_per_axis=3)


def test_empty_region_returns_no_eps():
    cfg = get_preset("fig5").config
    found = find_exceptional_points(cfg, ((0.05e12, 0.2e12), (0.0, 1e7)),
                                    seeds_per_axis=10)
    assert found == []


def test_surface_branches_union_matches_unsorted_eigenvalues():
    cfg = get_preset("fig5").config
    p_grid = np.linspace(0.1e12, 1.4e12, 12)
    d_grid = np.linspace(-5.5e7, 0.5e7, 10)
    surf = riemann_surface(cfg, p_grid, d_grid)
    assert surf.lambda1.shape == (12, 10)
    for i in (0, 5, 11):
        for j in (0, 4, 9):
            pair = eigenpairs(hamiltonian_on_plane(cfg, p_grid[i], d_grid[j]))
            got = sorted([surf.lambda1[i, j], surf.lambda2[i, j]],
                         key=lambda z: (z.real, z.imag))
            want = sorted([pair.lambda_plus, pair.lambda_minus],
                          key=lambda z: (z.real, z.imag))
            assert got[0] == pytest.approx(want[0], rel=1e-12)
            assert got[1] == pytest.approx(want[1], rel=1e-12)


def test_surface_first_cell_ordered_by_real_part():
    cfg = get_preset("fig5").config
    surf = riemann_surface(cfg, np.linspace(0.1e12, 0.3e12, 3),
                           np.linspace(-2e7, 0.0, 3))
    assert surf.lambda1[0, 0].real >= surf.lambda2[0, 0].real


def test_surface_grids_must_increase():
    cfg = get_preset("fig5").config
    with pytest.raises(ConfigError, match="p_grid must be strictly increasing"):
        riemann_surface(cfg, [0.3e12, 0.2e12, 0.1e12], [-2e7, 0.0])
    with pytest.raises(ConfigError, match="delta_grid must be strictly increasing"):
        riemann_surface(cfg, [0.1e12, 0.2e12], [0.0, -2e7])


def test_surface_continuity_away_from_ep():
    # a window that excludes the EP: branch surfaces must vary smoothly
    cfg = get_preset("fig5").config
    p_grid = np.linspace(0.1e12, 0.4e12, 25)
    d_grid = np.linspace(-2e7, 0.0, 21)
    surf = riemann_surface(cfg, p_grid, d_grid)
    for surface in (surf.lambda1, surf.lambda2):
        steps = np.abs(np.diff(surface, axis=0)).max() + np.abs(np.diff(surface, axis=1)).max()
        assert steps < 5e7  # no branch jumps of order the mode splitting
    assert not surf.near_ep.any()


def test_monodromy_swap_around_ep_and_not_elsewhere():
    cfg = get_preset("fig5").config
    assert monodromy_swapped(cfg, (EP_P_IN, EP_DELTA), radius_p=0.3e11,
                             radius_delta=0.3e7)
    assert not monodromy_swapped(cfg, (0.87e12, -5.5e6), radius_p=1e11,
                                 radius_delta=1e6)
