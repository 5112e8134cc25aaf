"""Optically induced self-energies and the light-mediated magnon-phonon coupling.

Eliminating the driven optical field dresses the mechanical and magnetic
modes: each acquires a complex self-energy (real part shifts the resonance,
imaginary part shifts the damping) and the two modes acquire an effective
mutual coupling carried by the shared optical response.
"""

from __future__ import annotations

import numpy as np

from .errors import ConfigError, NumericsError
from .model import (SystemConfig, _abs, _at_first, _checked_grid, _drives, _finite, _frequency, _mul, _pump_frame,
                    _quiet, _reciprocal)


def _mediated(left, right, chi):
    # -i*left*right*chi, one optical-response exchange; products with -1j or a
    # real factor round alike on every path, complex-by-complex ones use _mul
    return _mul(_mul(-1j * left, right), chi)


def _dressing(which, g_a, g_b, chi, chi_ref):
    """One expression per dressing term, on scalars or arrays: for sigma_*, the sweep and ep's operator.

    chi_ref, the conjugate TE response at minus the frequency, is read by "rr" only.
    """
    if which == "rr":
        modulus = _abs(g_b)  # |g_b|^2 as a product: a Python float ** 2 raises OverflowError where this gives inf
        return -1j * (modulus * modulus) * (chi - chi_ref)
    if which == "mm":
        return _mediated(g_a, g_a, chi)
    return _mediated(g_a, g_b if which == "mr" else g_b.conjugate(), chi)


def _sigma(which, config, omega, strength_tm, strength_te, det_tm, det_te):
    # one dressing term over broadcast frequency and drive axes: the point functions and the sweep;
    # a frequency that is not finite is refused naming omega, as by every point function
    omega = _frequency(omega, grid=True)
    g_a, g_b, inv, inv_ref = _pump_frame(config, strength_tm, strength_te, det_tm, det_te, omega)
    with _quiet(g_a, g_b, inv):  # an overflowing cell is reported below
        out = _dressing(which, g_a, g_b, _reciprocal(inv), _reciprocal(inv_ref) if which == "rr" else None)
    if not _finite(out):
        raise NumericsError("self-energy {!r} evaluated non-finite at detuning_tm {!r}, detuning_te {!r}, "
                            "omega {!r}".format(which, *_at_first(~np.isfinite(out), det_tm, det_te, omega)))
    return out


def sigma_rr(omega, config: SystemConfig) -> complex:
    """Self-energy of the mechanical mode from the driven optical response.

    Vanishes identically when the drive sits exactly on the optical
    resonance (zero detuning), because the two optical sidebands then
    cancel; it is antisymmetric under flipping that detuning.
    """
    return _sigma("rr", config, omega, *_drives(config))


def sigma_mm(omega, config: SystemConfig) -> complex:
    """Self-energy of the magnon mode.

    Single-sideband structure: only the co-rotating optical response enters,
    so both signs of frequency shift and of damping shift are reachable.
    The coupling enters as its complex square g_a**2, not as |g_a|**2, so
    the TM pump detuning rotates the phase of this term.
    """
    return _sigma("mm", config, omega, *_drives(config))


def sigma_mr(omega, config: SystemConfig) -> complex:
    """Mediated coupling acting on the magnon from the mechanical side."""
    return _sigma("mr", config, omega, *_drives(config))


def sigma_rm(omega, config: SystemConfig) -> complex:
    """Mediated coupling acting on the mechanical mode from the magnon side.

    Same magnitude as sigma_mr for every input; the relative phase between
    the two directions is twice the phase of the optical-branch coupling.
    That non-reciprocal phase is a control knob of the hybrid system.
    """
    return _sigma("rm", config, omega, *_drives(config))


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
    return _sigma(which, cfg, omega, cfg.drive_tm.effective_strength, cfg.drive_te.effective_strength,
                  tm_grid, te_grid)
