"""Release acceptance gate: one numbered test per shipped guarantee.

`pytest tests/test_acceptance.py -v` prints one pass/fail line per
criterion. Tolerances are stated inline at each assertion, and every
failure message embeds the measured values, so a red line is readable
on its own. Presets and grids come from the shipped registry, so the
gate exercises exactly what the CLI ships.
"""

import time

import numpy as np
import pytest
from scipy.signal import find_peaks

from magnomech import cli
from magnomech.encircle import LoopSpec, chirality_report, evolve, parameters_at
from magnomech.ep import (
    build_hamiltonian,
    discriminant,
    eigenpairs,
    find_exceptional_points,
    hamiltonian_on_plane,
    monodromy_swapped,
    riemann_surface,
)
from magnomech.model import effective_couplings
from magnomech.output import data_section
from magnomech.presets import REGISTRY, get_preset
from magnomech.self_energy import sigma_mm, sigma_mr, sigma_rm, sigma_rr
from magnomech.spectrum import closed_form_response, linear_system_response, psd, psd_map

from conftest import build_config, random_config


def _preset_psd_grid(name):
    p = get_preset(name)
    lo, hi, n = p.run_params["omega_grid"]
    omega = np.linspace(lo, hi, int(n))
    lo, hi, n = p.run_params["detuning_grid"]
    dets = np.linspace(lo, hi, int(n))
    grid = psd_map(p.config, omega, dets, swept=p.run_params["swept"])
    return p.config, dets, omega, grid


def _loop_from_preset(name):
    p = get_preset(name)
    c = p.run_params["loop"]
    loop = LoopSpec(center=(c["center_p"], c["center_delta"]), radius_units=c["radius_units"],
                    unit_scale=(c["unit_p"], c["unit_delta"]), direction=c["direction"],
                    period=c["period"], start_phase=c["start_phase"], samples=c["samples"])
    return loop, p.config


def _gate(clauses):
    detail = "\n".join(f"[{'PASS' if ok else 'FAIL'}] {line}" for ok, line in clauses)
    assert all(ok for ok, _ in clauses), "\n" + detail


def test_criterion_1_dressing_term_identities():
    t0 = time.perf_counter()
    base = get_preset("fig2a").config
    w_eval = base.phonon.omega
    det_grid = np.linspace(-1e8, 1e8, 101)  # symmetric 101-point grid around zero

    vals = np.array([sigma_rr(w_eval, base.with_drive_detunings(te=d)) for d in det_grid])
    scale = np.max(np.abs(vals))
    # mechanical dressing vanishes identically at zero TE detuning, any frequency
    quiet = base.with_drive_detunings(te=0.0)
    worst_zero = max(abs(sigma_rr(w, quiet)) for w in np.linspace(-2e8, 2e8, 101))
    assert worst_zero <= 1e-12 * scale
    # and is antisymmetric in that detuning
    anti = np.abs(vals + vals[::-1]) / scale
    assert np.max(anti) <= 1e-12

    # cross terms: equal modulus (floating-point limit of two independently
    # evaluated routes) and relative phase twice the TE coupling phase
    rng = np.random.default_rng(101)
    worst_mod, worst_phase = 0.0, 0.0
    for _ in range(101):
        cfg = random_config(rng)
        w = rng.uniform(-5e7, 5e7)
        mr, rm = sigma_mr(w, cfg), sigma_rm(w, cfg)
        worst_mod = max(worst_mod, abs(abs(mr) - abs(rm)) / abs(mr))
        target = 2 * np.angle(effective_couplings(cfg).g_b)
        worst_phase = max(worst_phase, abs(np.exp(1j * (np.angle(mr) - np.angle(rm) - target)) - 1))
    assert worst_mod <= 5e-15, f"modulus mismatch {worst_mod:.2e}"
    assert worst_phase <= 1e-12, f"phase mismatch {worst_phase:.2e}"
    assert time.perf_counter() - t0 < 1.0


def test_criterion_2_closed_form_matches_direct_solve():
    t0 = time.perf_counter()
    rng = np.random.default_rng(202)
    worst = 0.0
    for _ in range(1000):
        cfg = random_config(rng)  # draws are bounded away from denominator zeros
        w = rng.uniform(0.3e9, 2.2e9)
        direct = linear_system_response(w, cfg)
        closed = closed_form_response(w, cfg)
        for ch, value in direct.items():
            worst = max(worst, abs(closed[ch] - value) / max(abs(value), 1e-30))
    assert worst < 1e-10, f"worst channel-matched relative error {worst:.2e}"

    cfg = random_config(rng)
    grid = np.linspace(0.5e9, 1.5e9, 7)
    manual = [sum(abs(c) ** 2 for c in linear_system_response(w, cfg).values()) for w in grid]
    assert np.allclose(psd(grid, cfg), manual, rtol=1e-12, atol=0)
    assert time.perf_counter() - t0 < 10.0


def test_criterion_3_noise_map_band_structure():
    t0 = time.perf_counter()
    clauses = []

    _, _, _, weak = _preset_psd_grid("fig4a")
    counts = np.array([len(find_peaks(np.log10(row), prominence=0.2)[0]) for row in weak])
    clauses.append((bool(np.all(counts == 2)),
                    "weak drive (0.6e12): every omega-slice shows exactly two bands; "
                    f"measured peak counts {sorted(set(counts.tolist()))} at prominence 0.2 dex"))

    cfg_s, dets, omega, strong = _preset_psd_grid("fig4b")
    c_doc = np.array([len(find_peaks(np.log10(row), prominence=0.2)[0]) for row in strong])
    c_loose = np.array([len(find_peaks(np.log10(row), prominence=0.002)[0]) for row in strong])
    wide = np.linspace(-2.5e9, 3.5e9, 1200)
    wide_psd = psd_map(cfg_s, wide, [0.0], swept="TE")[0]
    wide_pk, _ = find_peaks(np.log10(wide_psd), prominence=0.05)
    wide_ghz = ", ".join(f"{v:+.2f}" for v in wide[wide_pk] / 1e9)
    clauses.append((bool(np.max(c_doc) >= 3),
                    "strong drive (3.6e12): some omega-slice shows a third band; measured max "
                    f"peaks per slice {np.max(c_doc)} at prominence 0.2 dex ({np.max(c_loose)} "
                    f"even at 0.002); a wide scan at zero detuning puts the hybrid resonances "
                    f"at {wide_ghz} GHz, so only one lies inside the 0.4-2.0 GHz window: the "
                    "drive-boosted coupling (~0.8 GHz) is comparable to the mode frequencies"))

    # dark mode: the near-magnon bump must be visible at the red edge of the
    # sweep and absent for every detuning beyond -10 MHz
    om = cfg_s.magnon.omega

    def near_magnon_peak(row):
        pk, _ = find_peaks(np.log10(row), prominence=0.01)
        return any(abs(omega[i] - om) < 2e8 for i in pk)

    flags = np.array([near_magnon_peak(row) for row in strong])
    visible_red = bool(np.any(flags[dets <= -2.5e7]))
    suppressed = bool(np.all(~flags[dets > -1e7]))
    clauses.append((visible_red and suppressed,
                    "strong drive TE sweep: near-magnon band visible at the red edge "
                    f"(detuning <= -25 MHz: {visible_red}) and suppressed beyond -10 MHz "
                    f"(no near-magnon peak in any such slice: {suppressed}), "
                    "prominence 0.01 dex within 0.2 GHz of the magnon frequency"))

    elapsed = time.perf_counter() - t0
    clauses.append((elapsed < 120.0, f"runtime {elapsed:.1f}s under the 120s budget"))
    _gate(clauses)


def test_criterion_4_eigenvalue_closed_form():
    t0 = time.perf_counter()
    rng = np.random.default_rng(404)

    # physical-scale draws: trace and determinant identities
    cfg = get_preset("fig5").config
    worst_tr, worst_det, worst_disc = 0.0, 0.0, 0.0
    for _ in range(2000):
        p = rng.uniform(0.05e12, 1.5e12)
        d = rng.uniform(-6e7, 1e7)
        h = hamiltonian_on_plane(cfg, p, d)
        pair = eigenpairs(h)
        tr, det = h[0, 0] + h[1, 1], h[0, 0] * h[1, 1] - h[0, 1] * h[1, 0]
        worst_tr = max(worst_tr, abs(pair.lambda_plus + pair.lambda_minus - tr) / abs(tr))
        worst_det = max(worst_det, abs(pair.lambda_plus * pair.lambda_minus - det) / abs(det))
        disc = discriminant(h)
        worst_disc = max(worst_disc,
                         abs((pair.lambda_plus - pair.lambda_minus) ** 2 - disc) / max(abs(disc), 1e-30))
    assert worst_tr <= 1e-12, f"trace identity off by {worst_tr:.2e}"
    assert worst_det <= 1e-12, f"determinant identity off by {worst_det:.2e}"
    assert worst_disc <= 1e-12, f"discriminant identity off by {worst_disc:.2e}"

    # generic matrices against the dense solver, magnitudes spanning 9 decades
    worst = 0.0
    for _ in range(10_000):
        h = (rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))) * 10.0 ** rng.uniform(0, 9)
        pair = eigenpairs(h)
        oracle = np.linalg.eigvals(h)
        mine = np.array([pair.lambda_plus, pair.lambda_minus])
        direct = max(abs(mine[0] - oracle[0]), abs(mine[1] - oracle[1]))
        crossed = max(abs(mine[0] - oracle[1]), abs(mine[1] - oracle[0]))
        worst = max(worst, min(direct, crossed) / max(1.0, np.max(np.abs(oracle))))
    assert worst <= 1e-10, f"closed form vs dense oracle off by {worst:.2e}"
    assert time.perf_counter() - t0 < 5.0


def test_criterion_5_exceptional_point_search():
    t0 = time.perf_counter()
    preset = get_preset("fig5")
    region = preset.run_params["region"]
    found = find_exceptional_points(preset.config, region, seeds_per_axis=24)
    assert len(found) >= 1, "no exceptional point found in the shipped search window"
    for e in found:
        assert e.gap <= 1e-6 * max(abs(e.lambda_value), 1.0), \
            f"gap {e.gap:.2e} exceeds 1e-6 x |mean eigenvalue| at p={e.p_in:.3e}"

    # independent coarse-scan oracle at the finder's own seeding resolution.
    # Cells are scored by the summed corner gaps: the raw argmin corner can
    # slide along the flat valley of the gap surface, but the deepest cell
    # stays put, so the refined point must land in it or a neighbor.
    (p_lo, p_hi), (d_lo, d_hi) = region
    n = 24
    pg = np.linspace(p_lo, p_hi, n)
    dg = np.linspace(d_lo, d_hi, n)
    gaps = np.empty((n, n))
    for i, p in enumerate(pg):
        for j, d in enumerate(dg):
            pair = eigenpairs(hamiltonian_on_plane(preset.config, p, d))
            gaps[i, j] = abs(pair.lambda_plus - pair.lambda_minus)
    score = gaps[:-1, :-1] + gaps[1:, :-1] + gaps[:-1, 1:] + gaps[1:, 1:]
    ci, cj = np.unravel_index(np.argmin(score), score.shape)
    cell_p, cell_d = pg[1] - pg[0], dg[1] - dg[0]
    ep = found[0]
    ei = int((ep.p_in - p_lo) // cell_p)
    ej = int((ep.delta - d_lo) // cell_d)
    cheb = max(abs(ci - ei), abs(cj - ej))
    assert cheb <= 1, \
        f"refined point sits in cell ({ei},{ej}) but the scan minimum is cell ({ci},{cj})"

    # branch monodromy: swap around the degeneracy, none around a clear loop
    assert monodromy_swapped(preset.config, (ep.p_in, ep.delta),
                             radius_p=0.3e11, radius_delta=0.3e7)
    assert not monodromy_swapped(preset.config, (0.87e12, -5.5e6),
                                 radius_p=1e11, radius_delta=1e6)
    assert time.perf_counter() - t0 < 60.0


def test_criterion_6_dissipation_changes_sign_in_window():
    t0 = time.perf_counter()
    p = get_preset("fig5")
    lo, hi, n = p.run_params["p_grid"]
    pg = np.linspace(lo, hi, int(n))
    lo, hi, n = p.run_params["delta_grid"]
    dg = np.linspace(lo, hi, int(n))
    surf = riemann_surface(p.config, pg, dg)
    ims = np.stack([surf.lambda1.imag, surf.lambda2.imag])
    assert ims.min() < 0, f"no decaying region: min Im lambda = {ims.min():.3e}"
    assert ims.max() > 0, \
        f"no gain region (negative dissipation) in the window: max Im lambda = {ims.max():.3e}"
    assert time.perf_counter() - t0 < 60.0


def test_criterion_7_loop_transport_and_chirality():
    t0 = time.perf_counter()
    clauses = []
    trajs = {}
    for name in ("fig6a", "fig6b", "fig6c", "fig6d"):
        loop, cfg = _loop_from_preset(name)
        trajs[name] = evolve(loop, cfg)

    # context measured at the loop start: decay-rate split and degeneracy gap
    loop_a, cfg_a = _loop_from_preset("fig6a")
    pair0 = eigenpairs(hamiltonian_on_plane(cfg_a, *parameters_at(loop_a, 0.0)))
    split = abs(pair0.lambda_plus.imag - pair0.lambda_minus.imag)
    seed = 1.0 / (loop_a.period * abs(pair0.lambda_plus - pair0.lambda_minus))

    for name in ("fig6a", "fig6b"):
        f_init = float(trajs[name].fractions[-1, 0])
        clauses.append((f_init > 0.5,
                        f"{name} (loop clear of the degeneracy): initial mode still dominant at "
                        f"the end; measured f_initial(T) = {f_init:.3e}. The traversal relaxes "
                        f"onto the slower-decaying branch: the decay-rate split x period is "
                        f"{split * loop_a.period:.0f} e-foldings while the non-adiabatic seed is "
                        f"~{seed:.1e}, so the slow branch takes over within ~1% of the circuit"))
    for name in ("fig6c", "fig6d"):
        f_other = float(trajs[name].fractions[-1, 1])
        clauses.append((f_other > 0.5,
                        f"{name} (loop around the degeneracy): other mode dominant at the end; "
                        f"measured f_other(T) = {f_other:.6f}"))

    for first, second in (("fig6a", "fig6b"), ("fig6c", "fig6d")):
        report = chirality_report(trajs[first], trajs[second],
                                  align_shift=trajs[first].loop.samples // 2)
        clauses.append((report.max_aligned_difference > 0.05,
                        f"{first} vs {second}: max aligned fraction difference "
                        f"{report.max_aligned_difference:.4f} exceeds 0.05"))

    loop_c, cfg_c = _loop_from_preset("fig6c")
    tighter = evolve(loop_c, cfg_c, rtol=1e-10)
    drift = float(np.max(np.abs(tighter.fractions - trajs["fig6c"].fractions)))
    clauses.append((drift < 1e-4,
                    f"tolerance tightening to rtol/100 moves the fractions by at most {drift:.2e} "
                    "over every sample (< 1e-4)"))

    elapsed = time.perf_counter() - t0
    clauses.append((elapsed < 120.0, f"runtime {elapsed:.1f}s under the 120s budget"))
    _gate(clauses)


def test_criterion_8_zero_drive_reductions():
    t0 = time.perf_counter()
    cfg = build_config(strength_tm=0.0, strength_te=0.0, delta_te=-1e7)
    g = effective_couplings(cfg)
    assert g.g_a == 0 and g.g_b == 0
    for fn in (sigma_rr, sigma_mm, sigma_mr, sigma_rm):
        assert fn(5e6, cfg) == 0
    h = build_hamiltonian(cfg)
    assert h[0, 1] == 0 and h[1, 0] == 0
    assert h[0, 0] == cfg.phonon.omega - 0.5j * cfg.phonon.gamma
    assert h[1, 1] == cfg.magnon.omega - 0.5j * cfg.magnon.gamma
    coeffs = linear_system_response(1.0e9, cfg)
    assert all(v == 0 for v in coeffs.values())
    assert np.all(psd(np.linspace(0.5e9, 1.5e9, 7), cfg) == 0)
    assert time.perf_counter() - t0 < 1.0


def test_criterion_9_preset_determinism_across_workers(tmp_path):
    t0 = time.perf_counter()
    for name in sorted(REGISTRY):
        preset = REGISTRY[name]
        sections = {}
        for jobs in (1, 4):
            out_dir = tmp_path / f"{name}_j{jobs}"
            out_dir.mkdir()
            code = cli.main([preset.command, "--preset", name, "--out", str(out_dir / name),
                             "--jobs", str(jobs), "--format", "csv,json"])
            assert code == 0, f"{name} exited {code} at jobs={jobs}"
            sections[jobs] = {f.name: data_section(str(f)) for f in sorted(out_dir.iterdir())}
        assert sections[1].keys() == sections[4].keys()
        for fname in sections[1]:
            assert sections[1][fname] == sections[4][fname], \
                f"{name}/{fname}: data section differs between worker counts"
    assert time.perf_counter() - t0 < 300.0
