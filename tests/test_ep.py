import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

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
from magnomech.model import effective_couplings, susceptibility
from magnomech.presets import get_preset

from conftest import bits, build_config, numpy_config, random_config

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


def _reference_eigvec(h, lam):
    """The eigenvector construction in numpy array arithmetic: same candidates and phase convention."""
    cand_a = np.array([h[0, 1], lam - h[0, 0]], dtype=complex)
    cand_b = np.array([lam - h[1, 1], h[1, 0]], dtype=complex)
    v = cand_a if np.linalg.norm(cand_a) >= np.linalg.norm(cand_b) else cand_b
    n = np.linalg.norm(v)
    if n == 0:
        v, n = np.array([1.0, 0.0], dtype=complex), 1.0
    v = v / n
    top = v[int(np.argmax(np.abs(v)))]
    return v * np.conj(top) / abs(top)


def test_eigenvectors_match_the_array_reference(rng):
    # the array route fuses multiply-adds in its norm and phase products, so the two
    # agree to rounding; the scalar route keeps the dominant entry exactly real
    cases = [random_matrix(rng) * 10.0 ** rng.uniform(-3, 10) for _ in range(200)]
    cases += [np.diag([1.0 + 1.0j, 1.0 + 1.0j]), np.array([[2.0 + 1.0j, 1.0], [0.0, 2.0 + 1.0j]]),
              np.diag([3.0, -1.0j]), np.array([[0.0, 1.0], [1.0, 0.0]])]
    for h in cases:
        pair = eigenpairs(h)
        for lam, v in ((pair.lambda_plus, pair.v_plus), (pair.lambda_minus, pair.v_minus)):
            assert v.dtype == complex and v.shape == (2,)
            assert np.max(np.abs(v - _reference_eigvec(h, lam))) <= 1e-15
            top = v[np.argmax(np.abs(v))]
            assert top.imag == 0 and top.real > 0


_PART = st.one_of(st.sampled_from([0.0, -0.0, 1.0, -1.0, 2.0]), st.floats(-1e154, 1e154))
_ENTRY = st.builds(complex, _PART, _PART)


# small whole entries give discriminants on the imaginary axis, and tiny or lopsided ones roots with a
# subnormal part: there a scalar root other than numpy's (cmath.sqrt) rounds apart; entries near 1e154 overflow
@settings(max_examples=150, derandomize=True, database=None, deadline=None)
@given(st.lists(st.tuples(_ENTRY, _ENTRY, _ENTRY, _ENTRY), min_size=1, max_size=8))
@example([(0j, 1 + 0j, 1j, 0j), (1j, 1j, 1 + 0j, 1j),
          (6.732655185893089e-155 + 1.849454437394322e-154j, 0j, 0j, 0j),
          (6.661973363857384e+42 + 0j, 9.344390977610807e-137 + 0j, -4.963394392442056e-137j, 0j),
          (1.2e154 + 0j, 1e154j, 1e154 + 0j, 0j)])
def test_point_eigenvalues_carry_the_bits_of_their_stack_cell(matrices):
    """eigenpairs and eigenvalues of one matrix equal the cell of a stack bit for bit, or both raise."""
    finite = []
    for h in np.array(matrices, dtype=complex).reshape(-1, 2, 2):
        try:
            pair = eigenpairs(h)
        except NumericsError:  # the discriminant overflows, and the stack route reports it too
            with pytest.raises(NumericsError, match=r"non-finite at index \[0\]"):
                eigenvalues(h[None])
            continue
        assert tuple(map(bits, eigenvalues(h))) == (bits(pair.lambda_plus), bits(pair.lambda_minus))
        finite.append((h, pair))
    if finite:
        plus, minus = eigenvalues(np.array([h for h, _ in finite]))
        for k, (_, pair) in enumerate(finite):
            assert (bits(pair.lambda_plus), bits(pair.lambda_minus)) == (bits(plus[k]), bits(minus[k]))


def test_eigenpairs_rejects_bad_input():
    with pytest.raises(NumericsError):
        eigenpairs(np.full((2, 2), np.nan + 0j))
    with pytest.raises(NumericsError):
        eigenpairs(np.array([[1.0, np.inf], [0.0, 1.0]]))
    with pytest.raises(NumericsError):
        eigenpairs(np.eye(3))


@pytest.mark.parametrize("shape", [(3, 3), (2, 3), (4,), (2, 2, 3)])
@pytest.mark.parametrize("fn", [eigenvalues, discriminant, eigenpairs])
def test_non_2x2_input_is_refused(fn, shape):
    """Only arrays whose last two axes are 2x2 pass; (2, 2, 3) would otherwise be read along the wrong axes."""
    with pytest.raises(NumericsError, match="2x2"):
        fn(np.ones(shape))


def test_hamiltonian_structure_matches_manual_assembly():
    cfg = build_config(omega_m=9.84e8, omega_r=1.016e9, delta_tm=-3e6, delta_te=-5e6,
                       strength_tm=8.7e11, strength_te=8.7e11)
    h = build_hamiltonian(cfg)
    assert isinstance(h, np.ndarray) and h.shape == (2, 2) and h.dtype == complex

    g = effective_couplings(cfg)
    gamma_te, delta_te = cfg.te_photon.gamma, cfg.drive_te.detuning
    chi = susceptibility(gamma_te, -delta_te, cfg.magnon.omega)
    chi_ref = np.conj(susceptibility(gamma_te, -delta_te, -cfg.magnon.omega))
    expected_00 = cfg.phonon.omega - 0.5j * cfg.phonon.gamma - 1j * abs(g.g_b) ** 2 * (chi - chi_ref)
    expected_11 = cfg.magnon.omega - 0.5j * cfg.magnon.gamma - 1j * g.g_a**2 * chi
    assert h[0, 0] == pytest.approx(expected_00, rel=1e-14)
    assert h[1, 1] == pytest.approx(expected_11, rel=1e-14)
    assert h[0, 1] == pytest.approx(-1j * np.conj(g.g_a) * g.g_b * chi, rel=1e-14)
    assert h[1, 0] == pytest.approx(-1j * g.g_a * g.g_b * chi, rel=1e-14)


def test_plane_helper_ties_strengths(rng):
    # on the fig5 config and on seeded draws built from Python floats and from numpy scalars, untied and
    # tied: a point and every cell of a mesh carry the bits of build_hamiltonian on the rebuilt config
    configs = [get_preset("fig5").config] + [random_config(rng) for _ in range(3)]
    configs += [numpy_config(rng)[0] for _ in range(3)]
    p_mesh = np.linspace(0.1e12, 1.4e12, 5)
    d_mesh = np.linspace(-6e7, 1e7, 4)
    for cfg in configs:
        for tie in (False, True):
            h = hamiltonian_on_plane(cfg, 5e11, -2e7, tie_tm_detuning=tie)
            manual = build_hamiltonian(
                cfg.with_strengths(tm=5e11, te=5e11).with_drive_detunings(te=-2e7, tm=-2e7 if tie else None))
            assert np.array_equal(h, manual)
            stack = hamiltonian_on_plane(cfg, p_mesh[:, None], d_mesh[None, :], tie_tm_detuning=tie)
            assert stack.shape == (5, 4, 2, 2)
            for i, p in enumerate(p_mesh):
                for j, d in enumerate(d_mesh):
                    rebuilt = cfg.with_strengths(tm=p, te=p).with_drive_detunings(te=d, tm=d if tie else None)
                    assert np.array_equal(stack[i, j], build_hamiltonian(rebuilt))
            # lists, and an array on either axis against a scalar on the other, broadcast like arrays
            for p_in, delta in ((p_mesh.tolist(), d_mesh[:, None].tolist()), (p_mesh, -2e7), (5e11, d_mesh)):
                stack = hamiltonian_on_plane(cfg, p_in, delta, tie_tm_detuning=tie)
                shape = np.broadcast_shapes(np.shape(p_in), np.shape(delta))
                assert stack.shape == shape + (2, 2) and stack.flags.c_contiguous
                axes = (np.broadcast_to(x, shape).ravel().tolist() for x in (p_in, delta))
                for cell, p, d in zip(stack.reshape(-1, 2, 2), *axes):  # bit for bit, -0.0 apart from 0.0
                    assert cell.tobytes() == hamiltonian_on_plane(cfg, p, d, tie_tm_detuning=tie).tobytes()
    # a point that is not finite, or a negative drive strength, is refused naming its axis
    for p_in, delta, key in ((np.nan, 0.0, "'p_in'"), ([1e11, np.inf], 0.0, "'p_in'"), (1e11, -np.inf, "'delta'"),
                             (np.array([1e11, -1.0]), [0.0], "p_in >= 0")):
        with pytest.raises(ConfigError, match=key):
            hamiltonian_on_plane(configs[0], p_in, delta)


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


def test_plane_dressing_is_quadratic_in_drive_strength(rng):
    # the EP search rests on this: h(p, delta) - h(0, delta) = p**2 * m(delta) on the plane
    for k in range(20):
        cfg, tie = random_config(rng), bool(k % 2)
        delta = rng.uniform(-1e8, 1e8)
        bare = hamiltonian_on_plane(cfg, 0.0, delta, tie_tm_detuning=tie)
        m = (hamiltonian_on_plane(cfg, 1e12, delta, tie_tm_detuning=tie) - bare) / 1e24
        for p in (2e11, 7e11, 3e12):
            diff = hamiltonian_on_plane(cfg, p, delta, tie_tm_detuning=tie) - bare
            assert np.abs(diff - p**2 * m).max() <= 1e-12 * np.abs(diff).max()


def test_found_eps_are_degenerate_branch_points(rng):
    # checked without the search's own algebra: LAPACK eigenvalues and branch monodromy
    count = 0
    for k in range(60):
        cfg, tie = random_config(rng), bool(k % 2)
        for ep in find_exceptional_points(cfg, ((0.0, 5e12), (-2e8, 2e8)), tie_tm_detuning=tie):
            lam = np.linalg.eigvals(hamiltonian_on_plane(cfg, ep.p_in, ep.delta, tie_tm_detuning=tie))
            assert abs(lam[0] - lam[1]) <= 1e-6 * max(abs(lam.mean()), 1.0)
            assert monodromy_swapped(cfg, (ep.p_in, ep.delta), radius=(1e-3 * ep.p_in, 4e5),
                                     tie_tm_detuning=tie)
            count += 1
    assert count >= 20


def test_ep_search_validates_region():
    cfg = get_preset("fig5").config
    with pytest.raises(ConfigError):
        find_exceptional_points(cfg, ((1e12, 5e11), (-1e7, 1e7)))  # inverted
    with pytest.raises(ConfigError):
        find_exceptional_points(cfg, ((5e11, 1e12), (-1e7, 1e7)), seeds_per_axis=3)
    with pytest.raises(ConfigError):
        find_exceptional_points(cfg, ((-1e11, 1e12), (-1e7, 1e7)))  # negative drive strength
    with pytest.raises(ConfigError, match="seeds_per_axis"):
        find_exceptional_points(cfg, ((5e11, 1e12), (-1e7, 1e7)), seeds_per_axis=8.5)
    for region in (((1e11, np.inf), (-1e7, 1e7)), ((1e11, 1e12), (-1e7, np.inf)), ((1e11, 1e12), (np.nan, 1e7))):
        with pytest.raises(ConfigError, match="'region' must be a finite number"):
            find_exceptional_points(cfg, region)
    for region in (None, ((1e11, 1e12, 2e12), (-1e7, 1e7)), ((1e11, 1e12),), "ab"):
        with pytest.raises(ConfigError, match=r"^malformed region "):
            find_exceptional_points(cfg, region)


def test_empty_region_returns_no_eps():
    cfg = get_preset("fig5").config
    found = find_exceptional_points(cfg, ((0.05e12, 0.2e12), (0.0, 1e7)),
                                    seeds_per_axis=10)
    assert found == []
    # bare-degenerate modes: D vanishes only at p_in = 0, where the matrix is diagonal
    assert find_exceptional_points(get_preset("fig2a").config, ((0.0, 1.5e12), (-6e7, 1e7))) == []


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


def test_surface_tracking_matches_cell_by_cell_continuity():
    # row-major, one cell at a time: each cell keeps the pairing nearer the cell before it in its
    # row, and a row's first cell the pairing nearer the first cell of the row above
    def nearer(prev, a, b):
        return (a, b) if abs(a - prev[0]) + abs(b - prev[1]) <= abs(b - prev[0]) + abs(a - prev[1]) else (b, a)

    cfg = get_preset("fig5").config
    for tie in (False, True):
        p_grid, d_grid = np.linspace(0.05e12, 1.5e12, 31), np.linspace(-6e7, 1e7, 23)  # EP inside
        surf = riemann_surface(cfg, p_grid, d_grid, tie_tm_detuning=tie)
        plus, minus = (lam.tolist() for lam in eigenvalues(
            hamiltonian_on_plane(cfg, p_grid[:, None], d_grid[None, :], tie)))
        ref = (plus[0][0], minus[0][0]) if plus[0][0].real >= minus[0][0].real else (minus[0][0], plus[0][0])
        for i in range(p_grid.size):
            prev = ref = nearer(ref, plus[i][0], minus[i][0])
            for j in range(d_grid.size):
                prev = nearer(prev, plus[i][j], minus[i][j])
                assert (surf.lambda1[i, j], surf.lambda2[i, j]) == prev


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
    assert monodromy_swapped(cfg, (EP_P_IN, EP_DELTA), radius=(0.3e11, 0.3e7))
    assert not monodromy_swapped(cfg, (0.87e12, -5.5e6), radius=(1e11, 1e6))


@pytest.mark.parametrize("center, radius, match", [
    ((1e12, 2e6, 3.0), (1e11, 1e6), r"^monodromy_swapped\.center must be a \(p_in, delta\) pair"),
    (((1e12, 2e6), 3.0), (1e11, 1e6), "'loop.center_p' must be a finite number"),
    ("ab", (1e11, 1e6), r"^monodromy_swapped\.center must be a \(p_in, delta\) pair"),
    ((EP_P_IN, EP_DELTA), (1e11,), r"^monodromy_swapped\.radius must be a \(p_in, delta\) pair"),
    ((EP_P_IN, EP_DELTA), None, r"^monodromy_swapped\.radius must be a \(p_in, delta\) pair"),
    ((np.inf, EP_DELTA), (1e11, 1e6), "'loop.center_p' must be a finite number"),
    ((EP_P_IN, EP_DELTA), (1e11, np.nan), "'loop.radius_delta' must be a finite number"),
    ((EP_P_IN, EP_DELTA), (-1e11, 1e6), "semi-axis 'loop.radius_p' must be >= 0"),
], ids=["center-triple", "center-ragged", "center-string", "radius-single", "radius-none", "center-inf",
        "radius-nan", "radius-negative"])
def test_monodromy_checks_its_loop_as_loopspec_does(center, radius, match):
    with pytest.raises(ConfigError, match=match):
        monodromy_swapped(get_preset("fig5").config, center, radius)


def test_overflowing_drive_raises_numerics_error():
    # |g_b|^2 overflows to inf, never to a Python OverflowError, and the matrix check reports it
    fig2a = get_preset("fig2a").config
    with pytest.raises(NumericsError, match="effective 2x2 matrix evaluated non-finite$"):
        hamiltonian_on_plane(fig2a, 1e200, 0.0)
    # on a stack the message names the first bad cell
    with pytest.raises(NumericsError, match=r"effective 2x2 matrix evaluated non-finite at p_in 1e\+200, delta 0.0$"):
        hamiltonian_on_plane(fig2a, np.array([1e11, 1e200]), 0.0)
    with pytest.raises(NumericsError, match="effective 2x2 matrix evaluated non-finite"):
        build_hamiltonian(fig2a.with_strengths(tm=1e200, te=1e200))


def test_overflowing_eigenvalues_are_reported():
    # finite matrices whose discriminant overflows: the point, stack, surface and loop routes all raise
    h = build_hamiltonian(get_preset("fig4a").config.with_strengths(tm=1e100, te=1e100))
    assert np.isfinite(h).all()
    for solve in (eigenpairs, eigenvalues):
        with pytest.raises(NumericsError, match="2x2 eigenvalues evaluated non-finite: "):
            solve(h)
    with pytest.raises(NumericsError, match=r"non-finite at index \[1\]"):
        eigenvalues(np.stack([np.eye(2), h]))
    fig5 = get_preset("fig5").config
    with pytest.raises(NumericsError, match=r"non-finite at p_in 1e\+99, delta -10000000.0"):
        riemann_surface(fig5, [1e99, 1e100], [-1e7, 1e7])
    with pytest.raises(NumericsError, match=r"non-finite at p_in 1.1e\+99, delta 0.0"):
        monodromy_swapped(fig5, (1e99, 0.0), radius=(1e98, 1e6))


def test_ep_search_region_whose_square_overflows_is_a_numerics_error():
    cfg = get_preset("fig5").config
    with pytest.raises(NumericsError, match=r"p_in = 1e\+155, whose square overflows"):
        find_exceptional_points(cfg, ((1e154, 1e155), (-1e7, 1e7)))
