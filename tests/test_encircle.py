import numpy as np
import pytest

from magnomech.encircle import (
    LoopSpec,
    chirality_report,
    energy_fractions,
    evolve,
    initial_basis,
    parameters_at,
)
from magnomech.ep import eigenpairs, hamiltonian_on_plane
from magnomech.errors import ConfigError, NumericsError
from magnomech.presets import get_preset

from conftest import build_config

# full-precision degeneracy location; the eigenvalue gap grows like the
# square root of the parameter offset, so six digits would already miss it
EP_P_IN = 6.057363841722e11
EP_DELTA = -4.690770086170e7


def preset_loop(name, **overrides):
    p = get_preset(name)
    c = dict(p.run_params["loop"])
    c.update(overrides)
    loop = LoopSpec(center=(c["center_p"], c["center_delta"]), radius_units=c["radius_units"],
                    unit_scale=(c["unit_p"], c["unit_delta"]), direction=c["direction"],
                    period=c["period"], start_phase=c["start_phase"], samples=c["samples"])
    return loop, p.config


def attracting_vector(loop, config):
    # the branch with the larger imaginary part decays slowest and is the
    # stable fixed point of the renormalized flow
    p0, d0 = parameters_at(loop, 0.0)
    pair = eigenpairs(hamiltonian_on_plane(config, p0, d0))
    v_a, v_b = initial_basis(loop, config)
    return v_a if pair.lambda_plus.imag >= pair.lambda_minus.imag else v_b


def test_loop_geometry():
    loop = LoopSpec(center=(8.7e11, -5.5e6), radius_units=1.0, unit_scale=(1e11, 1e6),
                    direction="ccw", period=1e-4, start_phase=0.0, samples=64)
    p, d = parameters_at(loop, 0.0)
    assert p == 8.7e11 + 1e11  # one unit out along the drive axis
    assert d == -5.5e6
    p, d = parameters_at(loop, loop.period / 4)
    assert p == pytest.approx(8.7e11, abs=1e3)
    assert d == pytest.approx(-5.5e6 + 1e6, rel=1e-12)
    # closed loop
    p_end, d_end = parameters_at(loop, loop.period)
    assert p_end == pytest.approx(8.7e11 + 1e11, rel=1e-12)
    assert d_end == pytest.approx(-5.5e6, rel=1e-9)
    # reflection symmetry between the two directions
    cw = loop.reversed()
    assert cw.direction == "cw"
    assert cw.reversed() == loop  # every other field carries over
    t = 0.3 * loop.period
    assert parameters_at(loop, t) == pytest.approx(parameters_at(cw, loop.period - t))


def test_loop_validation():
    good = dict(center=(8.7e11, -5.5e6), radius_units=1.0, unit_scale=(1e11, 1e6),
                direction="ccw", period=1e-4, start_phase=0.0, samples=64)
    LoopSpec(**good)
    for bad in ({"direction": "widdershins"}, {"period": 0.0}, {"samples": 32},
                {"radius_units": -1.0}):
        with pytest.raises(ConfigError):
            LoopSpec(**{**good, **bad})
    # zero radius is a legal stationarity probe
    LoopSpec(**{**good, "radius_units": 0.0})


def test_parameters_at_rejects_out_of_range():
    loop, _ = preset_loop("fig6a")
    with pytest.raises(ConfigError):
        parameters_at(loop, -1e-6)
    with pytest.raises(ConfigError):
        parameters_at(loop, loop.period * 1.01)


def test_initial_basis_diagonal_start_is_coordinate_basis():
    cfg = build_config()  # omega_r > omega_m, so the phonon axis carries the larger Re
    loop = LoopSpec(center=(0.0, -5e6), radius_units=0.0, unit_scale=(1e11, 1e6),
                    direction="ccw", period=1e-4, start_phase=0.0, samples=64)
    v_a, v_b = initial_basis(loop, cfg)
    assert np.allclose(v_a, [1.0, 0.0])
    assert np.allclose(v_b, [0.0, 1.0])


def test_initial_basis_orders_by_real_part():
    loop, cfg = preset_loop("fig6a")
    v_a, v_b = initial_basis(loop, cfg)
    p0, d0 = parameters_at(loop, 0.0)
    pair = eigenpairs(hamiltonian_on_plane(cfg, p0, d0))
    h = hamiltonian_on_plane(cfg, p0, d0)
    lam_a = (v_a.conj() @ h @ v_a) / (v_a.conj() @ v_a)
    lam_b = (v_b.conj() @ h @ v_b) / (v_b.conj() @ v_b)
    assert lam_a.real >= lam_b.real
    assert lam_a == pytest.approx(pair.lambda_plus, rel=1e-9)
    m = np.column_stack([v_a, v_b])
    assert abs(np.linalg.det(m)) > 1e-6


def test_initial_basis_rejects_degenerate_start():
    _, cfg = preset_loop("fig6a")
    at_ep = LoopSpec(center=(EP_P_IN, EP_DELTA), radius_units=0.0, unit_scale=(1e11, 1e6),
                     direction="ccw", period=1e-4, start_phase=0.0, samples=64)
    with pytest.raises(ConfigError):
        initial_basis(at_ep, cfg)


def test_energy_fractions_basis_expansion():
    v_a = np.array([1.0, 0.0], dtype=complex)
    v_b = np.array([0.0, 1.0], dtype=complex)
    out = energy_fractions(np.array([v_a]), (v_a, v_b))
    assert np.allclose(out, [[1.0, 0.0]])
    mix = (v_a + v_b) / np.sqrt(2)
    out = energy_fractions(np.array([mix]), (v_a, v_b))
    assert np.allclose(out, [[0.5, 0.5]])
    # scale invariance
    out_scaled = energy_fractions(np.array([mix * (3.0 - 4.0j)]), (v_a, v_b))
    assert np.allclose(out_scaled, out)


def test_energy_fractions_rejects_dependent_basis():
    v = np.array([1.0, 1.0], dtype=complex) / np.sqrt(2)
    with pytest.raises(ConfigError):
        energy_fractions(np.array([v]), (v, v * 1.0000001))
    with pytest.raises(ConfigError):
        energy_fractions(np.array([[0.0, 0.0]]), (np.array([1.0, 0.0]), np.array([0.0, 1.0])))


def test_fractions_sum_to_one_and_states_unit_norm():
    loop, cfg = preset_loop("fig6a", samples=96, period=1e-5)
    traj = evolve(loop, cfg)
    assert np.all(traj.fractions >= 0)
    assert np.all(traj.fractions <= 1)
    np.testing.assert_array_equal(traj.fractions.sum(axis=1), np.ones(96))
    assert np.allclose(np.linalg.norm(traj.states, axis=1), 1.0, rtol=1e-12)
    assert traj.times[0] == 0.0
    assert traj.times[-1] == loop.period


def test_zero_radius_stationarity_on_attracting_branch():
    loop, cfg = preset_loop("fig6a", radius_units=0.0, samples=96)
    v = attracting_vector(loop, cfg)
    traj = evolve(loop, cfg, initial_state=v)
    fractions = traj.fractions[:, 1]  # the attracting branch is 'b' here
    assert np.abs(fractions - 1.0).max() <= 1e-6


def test_zero_radius_log_norm_matches_eigenvalue_decay():
    loop, cfg = preset_loop("fig6a", radius_units=0.0, samples=96)
    p0, d0 = parameters_at(loop, 0.0)
    pair = eigenpairs(hamiltonian_on_plane(cfg, p0, d0))
    lam_slow = max(pair.lambda_plus, pair.lambda_minus, key=lambda z: z.imag)
    traj = evolve(loop, cfg, initial_state=attracting_vector(loop, cfg))
    expected = lam_slow.imag * loop.period
    assert traj.log_norm[-1] == pytest.approx(expected, rel=1e-6)


def test_zero_radius_mixed_start_matches_eigendecomposition():
    # a constant operator has a zero Magnus commutator, so every step is exact;
    # the mixed start is not an eigenvector, so both exponentials must be right
    loop, cfg = preset_loop("fig6a", radius_units=0.0, period=1e-6, samples=96)
    v_a, v_b = initial_basis(loop, cfg)
    u0 = (v_a + v_b) / np.linalg.norm(v_a + v_b)
    traj = evolve(loop, cfg, initial_state=u0)
    lam, vec = np.linalg.eig(hamiltonian_on_plane(cfg, *parameters_at(loop, 0.0)))
    lam_slow = lam[np.argmax(lam.imag)]
    coeffs = np.linalg.solve(vec, u0)
    # exp(-i H t) u0 = exp(-i lam_slow t) * (this), which keeps the GHz phase out
    rel = vec @ (coeffs[:, None] * np.exp(-1j * np.outer(lam - lam_slow, traj.times)))
    expected_log_norm = lam_slow.imag * traj.times + np.log(np.linalg.norm(rel, axis=0))
    expected = energy_fractions(rel.T, (v_a, v_b))
    assert np.abs(traj.fractions - expected).max() <= 1e-12
    assert np.abs(traj.log_norm - expected_log_norm).max() <= 1e-10


def test_repelling_branch_relaxes():
    # non-normal decay: contamination of the slow branch is amplified at the
    # dissipation-rate difference, so the fast branch cannot hold its state
    loop, cfg = preset_loop("fig6a", samples=96)
    traj = evolve(loop, cfg)  # default start: larger-Re branch, faster-decaying here
    assert traj.fractions[0, 0] == pytest.approx(1.0, abs=1e-12)
    assert traj.fractions[-1, 0] < 0.5


def test_adiabatic_consistency_on_attracting_branch():
    """Longer periods pull the final fraction of the starting branch toward 1."""
    finals = []
    for period in (1e-6, 1e-5, 1e-4):
        loop, cfg = preset_loop("fig6a", period=period, samples=96)
        v = attracting_vector(loop, cfg)
        traj = evolve(loop, cfg, initial_state=v)
        finals.append(traj.fractions[-1, 1])
    assert finals[0] < finals[1] <= finals[2]
    assert finals[2] == pytest.approx(1.0, abs=1e-6)


def test_direction_reversal_ep_free_final_fraction_agreement():
    loop, cfg = preset_loop("fig6a", samples=96)
    fwd = evolve(loop, cfg)
    back = evolve(loop.reversed(), cfg)
    assert abs(fwd.fractions[-1, 0] - back.fractions[-1, 0]) < 0.05


def test_self_convergence_under_tolerance_tightening():
    loop, cfg = preset_loop("fig6c", samples=96)
    coarse = evolve(loop, cfg, rtol=1e-8)
    fine = evolve(loop, cfg, rtol=1e-10)
    drift = float(np.max(np.abs(coarse.fractions - fine.fractions)))
    assert drift < 1e-4, f"tolerance tightening to rtol/100 moves the fractions by {drift:.2e}"


def test_chirality_report_identical_inputs_zero_metrics():
    loop, cfg = preset_loop("fig6a", samples=96, period=1e-5)
    traj = evolve(loop, cfg)
    rep = chirality_report(traj, traj)
    assert rep.final_fraction_difference == 0
    assert rep.max_aligned_difference == 0
    assert rep.amplitude_first == rep.amplitude_second
    assert rep.duration_first == rep.duration_second


def test_chirality_report_alignment_only_affects_pointwise_metric():
    loop, cfg = preset_loop("fig6a", samples=96, period=1e-5)
    traj = evolve(loop, cfg)
    rep = chirality_report(traj, traj, align_shift=48)
    assert rep.final_fraction_difference == 0  # finals compared unrolled
    assert rep.max_aligned_difference > 0  # rolled series differs pointwise


def test_chirality_report_rejects_mismatched_sampling():
    loop, cfg = preset_loop("fig6a", samples=96, period=1e-5)
    other, _ = preset_loop("fig6a", samples=128, period=1e-5)
    t1 = evolve(loop, cfg)
    t2 = evolve(other, cfg)
    with pytest.raises(ConfigError):
        chirality_report(t1, t2)


def test_evolve_rejects_zero_initial_state():
    loop, cfg = preset_loop("fig6a", samples=96, period=1e-6)
    with pytest.raises(ConfigError):
        evolve(loop, cfg, initial_state=np.zeros(2))


def test_evolve_rejects_non_positive_or_non_finite_rtol():
    loop, cfg = preset_loop("fig6a", samples=96, period=1e-6)
    for rtol in (0.0, -1e-8, float("nan"), float("inf")):
        with pytest.raises(ConfigError, match="rtol"):
            evolve(loop, cfg, rtol=rtol)


def test_evolve_reports_step_cap_and_overflow():
    # too many samples for the step cap: refused before any work
    loop, cfg = preset_loop("fig6a", samples=2 ** 20 + 2)
    with pytest.raises(NumericsError, match="steps"):
        evolve(loop, cfg)
    # ~4e3 e-foldings of branch split per sample interval overflow any propagator
    loop, cfg = preset_loop("fig6a", period=1e-2, samples=64)
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(NumericsError, match="overflow"):
        evolve(loop, cfg)
