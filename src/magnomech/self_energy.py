"""Optically induced self-energies and the light-mediated magnon-phonon coupling.

Eliminating the driven optical field dresses the mechanical and magnetic
modes: each acquires a complex self-energy (real part shifts the resonance,
imaginary part shifts the damping) and the two modes acquire an effective
mutual coupling carried by the shared optical response.
"""

from __future__ import annotations

import numpy as np

from .errors import ConfigError
from .model import (SystemConfig, _abs, _checked_grid, _mul, _pump_coupling, effective_couplings,
                    susceptibility, te_susceptibility)


def _mediated(left, right, chi):
    # -i*left*right*chi, one optical-response exchange; products with -1j or a
    # real factor round alike on every path, complex-by-complex ones use _mul
    return _mul(_mul(-1j * left, right), chi)


def _dressing(which, g_a, g_b, chi, chi_ref):
    """One expression per dressing term, on scalars or arrays: for sigma_*, the sweep and ep's operator.

    chi_ref, the conjugate TE response at minus the frequency, is read by "rr" only.
    """
    if which == "rr":
        return -1j * _abs(g_b) ** 2 * (chi - chi_ref)
    if which == "mm":
        return _mediated(g_a, g_a, chi)
    return _mediated(g_a, g_b if which == "mr" else np.conj(g_b), chi)


def _point(which, omega, config):
    g = effective_couplings(config)
    chi = te_susceptibility(config, omega)
    chi_ref = np.conj(te_susceptibility(config, -np.asarray(omega))) if which == "rr" else None
    out = _dressing(which, g.g_a, g.g_b, chi, chi_ref)
    return complex(out) if np.ndim(out) == 0 else out


def sigma_rr(omega, config: SystemConfig) -> complex:
    """Self-energy of the mechanical mode from the driven optical response.

    Vanishes identically when the drive sits exactly on the optical
    resonance (zero detuning), because the two optical sidebands then
    cancel; it is antisymmetric under flipping that detuning.
    """
    return _point("rr", omega, config)


def sigma_mm(omega, config: SystemConfig) -> complex:
    """Self-energy of the magnon mode.

    Single-sideband structure: only the co-rotating optical response enters,
    so both signs of frequency shift and of damping shift are reachable.
    The coupling enters as its complex square g_a**2, not as |g_a|**2, so
    the TM pump detuning rotates the phase of this term.
    """
    return _point("mm", omega, config)


def sigma_mr(omega, config: SystemConfig) -> complex:
    """Mediated coupling acting on the magnon from the mechanical side."""
    return _point("mr", omega, config)


def sigma_rm(omega, config: SystemConfig) -> complex:
    """Mediated coupling acting on the mechanical mode from the magnon side.

    Same magnitude as sigma_mr for every input; the relative phase between
    the two directions is twice the phase of the optical-branch coupling.
    That non-reciprocal phase is a control knob of the hybrid system.
    """
    return _point("rm", omega, config)


def sweep_self_energy(config_template: SystemConfig, tm_detuning_grid, te_detuning_grid,
                      which: str, diagonal: bool = False) -> np.ndarray:
    """One self-energy component over a detuning grid, as a flat complex array.

    Cross-product sweep by default: cell i*len(te_grid) + j is
    (tm_grid[i], te_grid[j]), TM detuning the outer axis. With
    diagonal=True the two grids are zipped instead: cell i is
    (tm_grid[i], te_grid[i]), the single-pump-frequency (monochromatic)
    cut. "rr" is frozen at the phonon resonance, the others at the magnon
    resonance. The whole grid is one array evaluation; every cell equals
    the point function at that cell's detunings.
    """
    if which not in ("mm", "mr", "rm", "rr"):
        raise ConfigError(f"unknown self-energy component {which!r}; expected one of ['mm', 'mr', 'rm', 'rr']")
    tm_grid = _checked_grid("tm_detuning_grid", tm_detuning_grid)
    te_grid = _checked_grid("te_detuning_grid", te_detuning_grid)
    if diagonal and tm_grid.size != te_grid.size:
        raise ConfigError("diagonal sweep needs equally sized detuning grids")
    if not diagonal:
        tm_grid, te_grid = (axis.ravel() for axis in np.meshgrid(tm_grid, te_grid, indexing="ij"))
    cfg = config_template
    omega = cfg.phonon.omega if which == "rr" else cfg.magnon.omega
    g_a = _pump_coupling(cfg.tm_photon, tm_grid, cfg.drive_tm.effective_strength)
    g_b = _pump_coupling(cfg.te_photon, te_grid, cfg.drive_te.effective_strength)
    chi = susceptibility(cfg.te_photon.gamma, -te_grid, omega)
    chi_ref = np.conj(susceptibility(cfg.te_photon.gamma, -te_grid, -omega))
    return _dressing(which, g_a, g_b, chi, chi_ref)
