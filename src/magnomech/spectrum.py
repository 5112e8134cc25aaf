"""Thermal-noise output spectra of the driven optical branch.

One elimination, _eliminate, reduces the closed six-variable
frequency-domain system in (b, b~, r, r~, m, m~), where x~[w] means
x*[-w], to a conditioning-checked 2x2 system in (b, b~): it eliminates the
diagonal (r, r~, m, m~) block and gives each noise channel's transfer
coefficient into b[w]. Like self_energy._sigma and ep._operator, it takes
broadcast drive axes (strength_tm, strength_te, det_tm, det_te) and builds
its own pump frame. psd and psd_map sum the squared coefficients, at a
point or over whole grids; closed_form_response returns them at one
frequency, in Python scalars.

linear_system_response solves the 6x6 system directly and is the oracle
that the tests hold the elimination against.

The PSD is the channel-incoherent sum of squared transfer magnitudes, per
unit noise level: thermal drives on different modes do not interfere, and
one flat level stands in for a slowly varying thermal occupation over the
narrow band of interest, so it only scales the whole map.
"""

from __future__ import annotations

import cmath
import math

import numpy as np

from .errors import ConfigError, NumericsError
from .model import (SystemConfig, _abs, _at_first, _checked_grid, _drives, _every, _frequency, _mul, _pump_frame,
                    _quiet, _require_finite, susceptibility)

# noise channels: thermal force on phonon/magnon at +w, conjugate partner at -w
R_PLUS, R_MINUS, M_PLUS, M_MINUS = "r+", "r-", "m+", "m-"
ALL_CHANNELS = frozenset((R_PLUS, R_MINUS, M_PLUS, M_MINUS))
_CHANNEL_ORDER = (R_PLUS, R_MINUS, M_PLUS, M_MINUS)

_COND_LIMIT = 1e13  # condition number above this flags parameter pathology
_BLOCK_CELLS = 4096  # grid cells per psd_map array pass: bounds its temporaries, never its values


def _channels(channels):
    """The enabled noise channels as a frozenset; an empty set or a name outside ALL_CHANNELS raises ConfigError."""
    channels = frozenset(channels)
    if not channels <= ALL_CHANNELS:
        raise ConfigError(f"unknown noise channels: {sorted(channels - ALL_CHANNELS)}")
    if not channels:
        raise ConfigError(f"noise channels must name at least one of {sorted(ALL_CHANNELS)}")
    return channels


def _assemble(config, omega):
    """System matrix A (6, 6) at one frequency and the configured pump detunings, and the drive matrix (6, 4)."""
    ga, gb, inv, inv_ref = _pump_frame(config, *_drives(config), omega)
    gac, gbc = ga.conjugate(), gb.conjugate()
    gr, om_r = config.phonon.gamma, config.phonon.omega
    gm, om_m = config.magnon.gamma, config.magnon.omega
    A = np.array([[inv, 0, 1j * gb, 1j * gb, 1j * ga, 0],
                  [0, inv_ref, -1j * gbc, -1j * gbc, 0, -1j * gac],
                  [1j * gbc, 1j * gb, gr / 2 - 1j * (omega - om_r), 0, 0, 0],
                  [-1j * gbc, -1j * gb, 0, gr / 2 - 1j * (omega + om_r), 0, 0],
                  [1j * ga, 0, 0, 0, gm / 2 - 1j * (omega - om_m), 0],
                  [0, -1j * gac, 0, 0, 0, gm / 2 - 1j * (omega + om_m)]], dtype=complex)
    rhs = np.zeros((6, 4), dtype=complex)
    rhs[2, 0] = rhs[3, 1] = math.sqrt(gr)
    rhs[4, 2] = rhs[5, 3] = math.sqrt(gm)
    return A, rhs


def linear_system_response(omega, config: SystemConfig, channels=ALL_CHANNELS):
    """Direct-solve transfer coefficients into b[w] for each enabled unit noise drive, at one finite omega.

    Returns {channel: complex coefficient} over channels. Linear in the drives
    by construction; raises NumericsError when the system is near-singular.
    """
    channels = _channels(channels)
    A, rhs = _assemble(config, _frequency(omega))
    s = np.linalg.svd(A, compute_uv=False).tolist()  # the condition number is s[0] / s[-1]
    if not s[0] <= _COND_LIMIT * s[-1]:  # false also where either is nan
        cond = s[0] / s[-1] if s[-1] else math.inf
        raise NumericsError(f"frequency-domain system near-singular (condition number {cond:.3e})")
    coeffs = np.linalg.solve(A, rhs)[0].tolist()
    return {ch: coeffs[k] for k, ch in enumerate(_CHANNEL_ORDER) if ch in channels}


def _abs2(z):
    return z.real * z.real + z.imag * z.imag


def _responses(config, omega):
    """The bare responses (chi_r, chi_r~, chi_m, chi_m~) at omega, which depend on nothing else."""
    gr, om_r = config.phonon.gamma, config.phonon.omega
    gm, om_m = config.magnon.gamma, config.magnon.omega
    return (susceptibility(gr, om_r, omega), susceptibility(gr, -om_r, omega),
            susceptibility(gm, om_m, omega), susceptibility(gm, -om_m, omega))


def _eliminate(config, omega, strength_tm, strength_te, det_tm, det_te, responses):
    """M, the (b, b~) Schur complement of A, over broadcast omega and drive axes: det M and each channel's pieces.

    Takes the drive axes in _pump_frame's order and builds its own pump frame, as self_energy._sigma and
    ep._operator do. Returns (det M, pieces), pieces in _CHANNEL_ORDER as triples (gamma, a, b) whose transfer
    coefficient into b[w] is -i sqrt(gamma) a b / det M. The caller passes responses = _responses(config, omega),
    so a map evaluates them once for all rows. With D = chi_r - chi_r~: M00 = inv + |g_b|^2 D + g_a^2 chi_m,
    M01 = g_b^2 D, M10 = -conj(g_b)^2 D and M11 = inv_ref - |g_b|^2 D + conj(g_a)^2 chi_m~. Every gamma > 0
    keeps the eliminated block regular, so A and M are singular together; their condition numbers differ (fig4a at
    1 GHz: from strengths of about 1e26 cond(A) > 1e16, M well conditioned). NumericsError names the first cell where
    ||M||_F^2 / |det M| = ||M||_F ||M^-1||_F > _COND_LIMIT, or where ||M||_F^2 overflows.
    Scalars and arrays take the same steps through _mul and susceptibility: a grid cell rounds like its point.
    """
    g_a, g_b, inv, inv_ref = _pump_frame(config, strength_tm, strength_te, det_tm, det_te, omega)
    gr, gm = config.phonon.gamma, config.magnon.gamma
    chi_r, chi_r_ref, chi_m, chi_m_ref = responses
    g_a_ref, g_b_ref = g_a.conjugate(), g_b.conjugate()
    d = chi_r - chi_r_ref
    gb2_d = _mul(_abs2(g_b), d)
    m00 = inv + gb2_d + _mul(_mul(g_a, g_a), chi_m)
    m01 = _mul(_mul(g_b, g_b), d)
    m11 = inv_ref - gb2_d + _mul(_mul(g_a_ref, g_a_ref), chi_m_ref)
    det = _mul(m00, m11) + _mul(gb2_d, gb2_d)  # M01 M10 = -(|g_b|^2 D)^2
    frob2 = _abs2(m00) + 2 * _abs2(m01) + _abs2(m11)  # |M10| = |M01|
    if not _every((_abs(det) * _COND_LIMIT >= frob2) & (frob2 < math.inf)):  # false where nan, or ||M||_F^2 is inf
        with np.errstate(all="ignore"):
            cond = np.divide(frob2, _abs(det))
        raise NumericsError("(b, b~) system near-singular: condition number {:.3e} at detuning_tm {!r}, "
                            "detuning_te {!r}, omega {!r}".format(
                                *_at_first(~(cond <= _COND_LIMIT), cond, det_tm, det_te, omega)))
    r_b = _mul(g_b, m11) + _mul(g_b_ref, m01)  # both phonon channels drive b and b~ alike
    return det, ((gr, chi_r, r_b), (gr, chi_r_ref, r_b), (gm, _mul(g_a, chi_m), m11),
                 (gm, _mul(g_a_ref, chi_m_ref), m01))


def closed_form_response(omega, config: SystemConfig):
    """Transfer coefficients into b[w] by _eliminate, in Python scalars at one finite omega.

    The elimination that psd and psd_map sum; linear_system_response checks it. Returns
    {channel: complex coefficient} per unit noise amplitude, for all four channels.
    """
    omega = _frequency(omega)
    det, pieces = _eliminate(config, omega, *_drives(config), _responses(config, omega))
    out = {ch: -1j * math.sqrt(gamma) * a * b / det for ch, (gamma, a, b) in zip(_CHANNEL_ORDER, pieces)}
    if not all(map(cmath.isfinite, out.values())):
        raise NumericsError("closed-form response evaluated non-finite")
    return out


def _psd(config, omega, strength_tm, strength_te, det_tm, det_te, responses, channels):
    """PSD over broadcast omega and drive axes: the channel sum of gamma |a|^2 |b|^2 / |det M|^2 from _eliminate.

    Before squaring, det M and every b are multiplied by 2^-e per cell, e the frexp exponent of
    max(|Re det M|, |Im det M|) floored at -1023 so that 2^-e is a float, and neither square overflows where the
    PSD is finite. Scaling by a power of two is exact, so no bit moves where nothing overflowed.
    """
    det, pieces = _eliminate(config, omega, strength_tm, strength_te, det_tm, det_te, responses)
    if isinstance(det, np.ndarray):
        scale = np.ldexp(1.0, -np.maximum(np.frexp(np.maximum(np.abs(det.real), np.abs(det.imag)))[1], -1023))
    else:
        scale = math.ldexp(1.0, -max(math.frexp(max(abs(det.real), abs(det.imag)))[1], -1023))
    power = sum(gamma * _abs2(a) * _abs2(b * scale) for (gamma, a, b), ch in zip(pieces, _CHANNEL_ORDER)
                if ch in channels) / _abs2(det * scale)
    _require_finite("PSD evaluated non-finite", (power,), dict(detuning_tm=det_tm, detuning_te=det_te, omega=omega))
    return power


def psd(omega, config: SystemConfig, channels=ALL_CHANNELS):
    """Output PSD per unit noise level: the sum of |transfer|^2 over channels (a float at one omega)."""
    channels = _channels(channels)
    omega = _frequency(omega, grid=True)
    with _quiet(omega):  # _psd reports a non-finite cell
        return _psd(config, omega, *_drives(config), _responses(config, omega), channels)


def psd_map(config_template: SystemConfig, omega_grid, detuning_grid, swept: str = "TE",
            channels=ALL_CHANNELS):
    """PSD over a (frequency, pump-detuning) grid, sweeping the TE or TM drive.

    Returns a float array of shape (n_detuning, n_omega): row k is, bit for
    bit, the psd over omega_grid with the swept pump at detuning_grid[k].
    Each block of rows puts its detunings, as a column, into the swept
    entry of the template's drive axes, and _psd builds the pump frame
    from them; blocks bound the temporaries. The responses depend on
    omega alone and are evaluated once, before the blocks. No config is
    rebuilt, and evaluation order never changes values.
    """
    if swept not in ("TE", "TM"):
        raise ConfigError(f"swept must be 'TE' or 'TM', got {swept!r}")
    omega_grid = _checked_grid("omega_grid", omega_grid)
    detuning_grid = _checked_grid("detuning_grid", detuning_grid)
    channels = _channels(channels)
    drives = list(_drives(config_template))  # _pump_frame's order: the swept detuning is entry 3 (TE) or 2 (TM)
    out = np.empty((detuning_grid.size, omega_grid.size))
    rows = max(1, _BLOCK_CELLS // omega_grid.size)
    with _quiet(omega_grid):  # _psd reports a non-finite cell
        responses = _responses(config_template, omega_grid)
        for lo in range(0, detuning_grid.size, rows):
            drives[3 if swept == "TE" else 2] = detuning_grid[lo:lo + rows, None]
            out[lo:lo + rows] = _psd(config_template, omega_grid, *drives, responses, channels)
    return out
