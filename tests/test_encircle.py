import json

import numpy as np
import pytest

from magnomech import cli
from magnomech import encircle as enc
from magnomech.encircle import (
    LoopSpec,
    chirality_report,
    energy_fractions,
    evolve,
    evolve_both_directions,
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
    # through the CLI's own translation of the run keys, overrides being loop keys
    p = get_preset(name)
    run = {**p.run_params, "loop": {**p.run_params["loop"], **overrides}}
    return cli._loop_from_run(run), p.config


def attracting_vector(loop, config):
    # the branch with the larger imaginary part decays slowest and is the
    # stable fixed point of the renormalized flow
    p0, d0 = parameters_at(loop, 0.0)
    pair = eigenpairs(hamiltonian_on_plane(config, p0, d0))
    v_a, v_b = initial_basis(loop, config)
    return v_a if pair.lambda_plus.imag >= pair.lambda_minus.imag else v_b


def test_loop_geometry():
    loop = LoopSpec(center=(8.7e11, -5.5e6), radius=(1e11, 1e6),
                    direction="ccw", period=1e-4, start_phase=0.0, samples=64)
    p, d = parameters_at(loop, 0.0)
    assert p == 8.7e11 + 1e11  # one semi-axis out along the drive axis
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


@pytest.mark.parametrize("name", ["fig6a", "fig6b", "fig6c", "fig6d"])
def test_direction_label_matches_the_traced_path(name):
    # shoelace area of the sampled (p_in, delta) path, about its center: > 0 is ccw, < 0 is cw
    loop, _ = preset_loop(name)
    for one in (loop, loop.reversed()):
        p, d = enc._params_at(one, np.linspace(0.0, one.period, one.samples))
        p, d = p - one.center[0], d - one.center[1]
        area = 0.5 * np.sum(p[:-1] * d[1:] - p[1:] * d[:-1])
        expected = np.pi * one.radius[0] * one.radius[1]
        assert area == pytest.approx(one.orientation * expected, rel=1e-3), (one.direction, area)


def test_loop_validation():
    good = dict(center=(8.7e11, -5.5e6), radius=(1e11, 1e6),
                direction="ccw", period=1e-4, start_phase=0.0, samples=64)
    LoopSpec(**good)
    for bad in ({"direction": "widdershins"}, {"period": 0.0}, {"samples": 32}, {"radius": 1e11},
                {"radius": (1e11, 1e6, 1.0)}, {"center": (8.7e11, -5.5e6, 0.0)}):
        with pytest.raises(ConfigError):
            LoopSpec(**{**good, **bad})
    # a count that is not whole and a value that is not finite are refused naming the run key
    for bad, key in (({"samples": 100.5}, "loop.samples"), ({"samples": np.inf}, "loop.samples"),
                     ({"period": np.inf}, "loop.period"), ({"period": np.nan}, "loop.period"),
                     ({"period": -1e-4}, "loop.period"), ({"start_phase": np.nan}, "loop.start_phase"),
                     ({"center": (np.inf, -5.5e6)}, "loop.center_p"),
                     ({"center": (8.7e11, np.nan)}, "loop.center_delta")):
        with pytest.raises(ConfigError, match=key):
            LoopSpec(**{**good, **bad})
    # numbers of any type are stored as the Python numbers they were checked as
    loop = LoopSpec(**{**good, "samples": 64.0, "period": np.float64(1e-4), "center": [np.float64(8.7e11), -5.5e6]})
    assert type(loop.samples) is int and type(loop.period) is float and loop.center == (8.7e11, -5.5e6)
    # each semi-axis must be finite and >= 0; the error names it
    for radius, key in (((-1e11, 1e6), "loop.radius_p"), ((1e11, -1e6), "loop.radius_delta"),
                        ((np.inf, 1e6), "loop.radius_p"), ((1e11, np.nan), "loop.radius_delta")):
        with pytest.raises(ConfigError, match=key):
            LoopSpec(**{**good, "radius": radius})
    # zero radius is a legal stationarity probe
    LoopSpec(**{**good, "radius": (0.0, 0.0)})


def test_parameters_at_rejects_out_of_range():
    loop, _ = preset_loop("fig6a")
    with pytest.raises(ConfigError):
        parameters_at(loop, -1e-6)
    with pytest.raises(ConfigError):
        parameters_at(loop, loop.period * 1.01)


@pytest.mark.parametrize("name, value", [
    *[("initial_state", state) for state in ([1, 0, 0], [[1, 0], [0, 1]], [1], [np.nan, 1], [np.inf, 0], [0, 0],
                                             [1e200, 1e200], "ab", {})],
    *[("t", t) for t in ("abc", None, [1e-7], np.nan)],
])
def test_loop_layer_refuses_malformed_inputs(name, value):
    _, cfg = preset_loop("fig6a")
    # no basis can be built at this degenerate start, so an initial_state error shows the state is checked first
    at_ep = LoopSpec(center=(EP_P_IN, EP_DELTA), radius=(0.0, 0.0),
                     direction="ccw", period=1e-4, start_phase=0.0, samples=64)
    with pytest.raises(ConfigError, match=f"^'?{name}'? must be a finite"):
        if name == "t":
            parameters_at(at_ep, value)
        else:
            evolve(at_ep, cfg, initial_state=value)


def test_initial_basis_diagonal_start_is_coordinate_basis():
    cfg = build_config()  # omega_r > omega_m, so the phonon axis carries the larger Re
    loop = LoopSpec(center=(0.0, -5e6), radius=(0.0, 0.0),
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
    at_ep = LoopSpec(center=(EP_P_IN, EP_DELTA), radius=(0.0, 0.0),
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
    # the dependence bound is relative: a well-conditioned basis scaled down keeps the unit basis's fractions
    v_a, v_b = np.array([1.0, 1.0j]) / np.sqrt(2), np.array([1.0, -0.5j]) / np.sqrt(1.25)
    states = np.array([[0.6, 0.8j], [1.0, 2.0 - 1.0j]])
    assert np.allclose(energy_fractions(states, (v_a * 1e-4, v_b * 1e-4)), energy_fractions(states, (v_a, v_b)),
                       rtol=1e-12, atol=0)
    for state in ([np.nan, 1.0], [1.0, np.inf]):
        with pytest.raises(ConfigError, match="non-finite state"):
            energy_fractions(np.array([state]), (v_a, v_b))
    # a non-finite basis is refused by name before det, which would warn and give nan fractions
    for v_bad in (np.array([np.nan, 1.0]), np.array([np.inf, 1.0])):
        with pytest.raises(ConfigError, match="supermode basis is not finite"):
            energy_fractions([[1.0, 0.0]], (v_bad, np.array([0.0, 1.0])))


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
    loop, cfg = preset_loop("fig6a", radius_p=0.0, radius_delta=0.0, samples=96)
    v = attracting_vector(loop, cfg)
    traj = evolve(loop, cfg, initial_state=v)
    fractions = traj.fractions[:, 1]  # the attracting branch is 'b' here
    assert np.abs(fractions - 1.0).max() <= 1e-6


def test_zero_radius_log_norm_matches_eigenvalue_decay():
    loop, cfg = preset_loop("fig6a", radius_p=0.0, radius_delta=0.0, samples=96)
    p0, d0 = parameters_at(loop, 0.0)
    pair = eigenpairs(hamiltonian_on_plane(cfg, p0, d0))
    lam_slow = max(pair.lambda_plus, pair.lambda_minus, key=lambda z: z.imag)
    traj = evolve(loop, cfg, initial_state=attracting_vector(loop, cfg))
    expected = lam_slow.imag * loop.period
    assert traj.log_norm[-1] == pytest.approx(expected, rel=1e-6)


def test_zero_radius_mixed_start_matches_eigendecomposition():
    # a constant operator has a zero Magnus commutator, so every step is exact;
    # the mixed start is not an eigenvector, so both exponentials must be right
    loop, cfg = preset_loop("fig6a", radius_p=0.0, radius_delta=0.0, period=1e-6, samples=96)
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
    # each trajectory reports the run that made it: the final count and the spread that stopped it
    assert fine.substeps > coarse.substeps
    for traj, rtol in ((coarse, 1e-8), (fine, 1e-10)):
        assert set(traj.disagreement) == {"fractions", "log_norm"}
        assert max(traj.disagreement.values()) <= rtol
        assert 2 <= traj.passes <= np.log2(traj.substeps) - 1


def _magnus_reference(x0, x1):
    """Traceless 4th-order Magnus exponent of each step, by stacked matrix products."""
    omega = (x0 + x1) / 2 + np.sqrt(3) / 12 * (x1 @ x0 - x0 @ x1)
    tau = np.trace(omega, axis1=-2, axis2=-1) / 2
    return omega - tau[:, None, None] * np.eye(2)


def _matrices(components):
    return np.stack(components, axis=-1).reshape(-1, 2, 2)


def _relative_error(got, ref):
    return np.max(np.abs(got - ref).max(axis=(1, 2)) / np.abs(ref).max(axis=(1, 2)))


def test_step_kernel_matches_expm_of_the_magnus_exponent(rng):
    from scipy.linalg import expm

    substeps, e = 8, -0.3j
    hs = rng.normal(size=(64, 2, 2, 2)) + 1j * rng.normal(size=(64, 2, 2, 2))
    hs[0, :] = np.eye(2) + 1e-9 * hs[0, 0]  # s ~ 1e-9
    hs[1, :] = [[2.0 + 1.0j, 1.5 - 0.5j], [0.0, 2.0 + 1.0j]]  # equal points, nilpotent W: s = 0, W != 0
    tau, mean, comm = enc._exponents(tuple(hs[..., i, j] for i in (0, 1) for j in (0, 1)), e)
    x = e * hs
    np.testing.assert_allclose(tau, np.trace(x, axis1=-2, axis2=-1).sum(axis=1) / 4, rtol=1e-14)
    for sense in (1, -1):
        w = [m + c if sense > 0 else m - c for m, c in zip(mean, comm)]
        steps = enc._exp_traceless(*w)
        assert [c[1] for c in steps] == [1, w[1][1], 0, 1]  # exp(W) = I + W exactly
        ref_steps = expm(_magnus_reference(*(x[:, 0], x[:, 1])[::sense]))
        assert _relative_error(_matrices(steps), ref_steps) <= 1e-13
        ref = []
        for run in ref_steps.reshape(-1, substeps, 2, 2):
            prop = np.eye(2)
            for step in run[::sense]:  # time order: index order for +1, reversed for -1
                prop = step @ prop
            ref.append(prop)
        assert _relative_error(_matrices(enc._products(steps, substeps, sense)), np.array(ref)) <= 1e-13


@pytest.mark.parametrize("name", ["fig6a", "fig6c"])
def test_shared_build_matches_independent_runs(name):
    loop, cfg = preset_loop(name, period=2.5e-5)
    forward, reverse = evolve_both_directions(loop, cfg)
    alone, reverse_alone = evolve(loop, cfg), evolve(loop.reversed(), cfg)
    # the forward direction is the same code on the same build
    assert forward.substeps == alone.substeps == reverse_alone.substeps == reverse.substeps
    np.testing.assert_array_equal(forward.fractions, alone.fractions)
    np.testing.assert_array_equal(forward.log_norm, alone.log_norm)
    # the reverse reuses the forward operators with swapped Gauss points
    assert reverse.loop == loop.reversed()
    for field in ("times", "theta", "p_in", "delta"):
        np.testing.assert_array_equal(getattr(reverse, field), getattr(reverse_alone, field))
    assert np.max(np.abs(reverse.fractions - reverse_alone.fractions)) <= 1e-10
    scale = np.maximum(1.0, np.abs(reverse_alone.log_norm))
    assert np.max(np.abs(reverse.log_norm - reverse_alone.log_norm) / scale) <= 1e-12
    # the predicted count is the plain doubling ladder's: double until two successive passes agree
    basis = initial_basis(loop, cfg)
    substeps, previous = 4, None
    while True:
        runs = [(energy_fractions(states, basis), log_norm) for states, log_norm in
                enc._transport(loop, cfg, False, basis[0], substeps, (1, -1))]
        if previous is not None and all(
                np.all(np.abs(f - f0) <= 1e-8) and np.all(np.abs(ln - ln0) <= 1e-8 * np.maximum(1.0, np.abs(ln)))
                for (f, ln), (f0, ln0) in zip(runs, previous)):
            break
        previous, substeps = runs, 2 * substeps
    assert forward.substeps == substeps
    assert forward.passes < np.log2(substeps) - 1  # the ladder runs 4, 8, ..., substeps


def test_chirality_report_identical_inputs_zero_metrics():
    loop, cfg = preset_loop("fig6a", samples=96, period=1e-5)
    traj = evolve(loop, cfg)
    rep = chirality_report(traj, traj)
    assert rep["final_fraction_difference"] == 0
    assert rep["max_aligned_difference"] == 0
    first, second = rep["oscillation"]["first"], rep["oscillation"]["second"]
    assert first["amplitude"] == second["amplitude"]
    assert first["duration_phase"] == second["duration_phase"]


def test_chirality_report_alignment_only_affects_pointwise_metric():
    loop, cfg = preset_loop("fig6a", samples=96, period=1e-5)
    traj = evolve(loop, cfg)
    rep = chirality_report(traj, traj, align_shift=48)
    assert rep["final_fraction_difference"] == 0  # finals compared unrolled
    assert rep["max_aligned_difference"] > 0  # rolled series differs pointwise


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_chirality_record_is_what_encircle_writes_once_and_last(tmp_path, capsys, fmt):
    stem = str(tmp_path / "loop")
    assert cli.main(["encircle", "--preset", "fig6a", "--out", stem, "--format", fmt, "--set", "loop.samples=64",
                     "--set", "loop.period=1e-6", "--set", "rtol=1e-6"]) == 0
    # the trajectories as --format asks, then the chirality JSON whatever it asks
    paths = [f"{stem}.{fmt}", f"{stem}_reverse.{fmt}", f"{stem}_chirality.json"]
    assert capsys.readouterr().out.splitlines() == [f"wrote {path}" for path in paths]
    assert sorted(str(p) for p in tmp_path.iterdir()) == sorted(paths)
    loop, cfg = preset_loop("fig6a", samples=64, period=1e-6)
    with open(paths[-1]) as fh:
        data = json.load(fh)["data"]
    assert data == chirality_report(*evolve_both_directions(loop, cfg, rtol=1e-6), align_shift=32)


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
