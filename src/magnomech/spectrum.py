"""Thermal-noise output spectra of the driven optical branch.

Two computation routes for the same transfer coefficients:

- linear_system_response: direct solve of the closed six-variable
  frequency-domain system in (b, b~, r, r~, m, m~), where x~[w] means
  x*[-w]. This is the default path and the oracle; psd and psd_map use
  the same assembly, broadcast over frequency and pump detunings, and
  the same batched solve.
- closed_form_response: analytic elimination of the mechanical and
  magnetic sectors down to a scalar loop equation for b[w]; it agrees
  with the direct solve to numerical precision.

The PSD is the channel-incoherent sum of squared transfer magnitudes
times a flat unit noise level: thermal drives on different modes do not
interfere, and the flat level stands in for a slowly varying thermal
occupation over the narrow band of interest.
"""

from __future__ import annotations

from dataclasses import dataclass, field
import numpy as np

from .errors import ConfigError, NumericsError
from .model import SystemConfig, _checked_grid, _pump_frame, effective_couplings, susceptibility

# noise channels: thermal force on phonon/magnon at +w, conjugate partner at -w
R_PLUS, R_MINUS, M_PLUS, M_MINUS = "r+", "r-", "m+", "m-"
ALL_CHANNELS = frozenset((R_PLUS, R_MINUS, M_PLUS, M_MINUS))
_CHANNEL_ORDER = (R_PLUS, R_MINUS, M_PLUS, M_MINUS)

_COND_LIMIT = 1e13  # condition number above this flags parameter pathology


@dataclass(frozen=True)
class NoiseParams:
    unit_psd: float = 1.0
    channels: frozenset = field(default_factory=lambda: ALL_CHANNELS)

    def __post_init__(self):
        if not self.unit_psd >= 0:
            raise ConfigError(f"NoiseParams.unit_psd must be >= 0, got {self.unit_psd!r}")
        bad = set(self.channels) - ALL_CHANNELS
        if bad:
            raise ConfigError(f"unknown noise channels: {sorted(bad)}")


def _assemble(config, omega, det_tm, det_te):
    """System matrix A (..., 6, 6) over broadcast omega and pump detunings, and the drive matrix (6, 4)."""
    omega = np.asarray(omega, dtype=float)
    ga, gb, inv, inv_ref = _pump_frame(config, config.drive_tm.effective_strength,
                                       config.drive_te.effective_strength, det_tm, det_te, omega)
    gr, om_r = config.phonon.gamma, config.phonon.omega
    gm, om_m = config.magnon.gamma, config.magnon.omega
    A = np.zeros(np.broadcast_shapes(omega.shape, np.shape(det_tm), np.shape(det_te)) + (6, 6), dtype=complex)
    A[..., 0, 0] = inv
    A[..., 1, 1] = inv_ref
    A[..., 2, 2] = gr / 2 - 1j * (omega - om_r)
    A[..., 3, 3] = gr / 2 - 1j * (omega + om_r)
    A[..., 4, 4] = gm / 2 - 1j * (omega - om_m)
    A[..., 5, 5] = gm / 2 - 1j * (omega + om_m)
    A[..., 0, 2] = A[..., 0, 3] = 1j * gb
    A[..., 0, 4] = 1j * ga
    A[..., 1, 2] = A[..., 1, 3] = -1j * np.conj(gb)
    A[..., 1, 5] = -1j * np.conj(ga)
    A[..., 2, 0] = 1j * np.conj(gb)
    A[..., 2, 1] = 1j * gb
    A[..., 3, 0] = -1j * np.conj(gb)
    A[..., 3, 1] = -1j * gb
    A[..., 4, 0] = 1j * ga
    A[..., 5, 1] = -1j * np.conj(ga)
    rhs = np.zeros((6, 4), dtype=complex)
    rhs[2, 0] = rhs[3, 1] = np.sqrt(gr)
    rhs[4, 2] = rhs[5, 3] = np.sqrt(gm)
    return A, rhs


def _coefficients(A, rhs):
    """b[w] transfer coefficient per noise channel, shape (..., 4), channel order r+ r- m+ m-."""
    try:
        sol = np.linalg.solve(A, rhs)
    except np.linalg.LinAlgError as exc:
        raise NumericsError(f"frequency-domain system singular: {exc}") from exc
    coeffs = sol[..., 0, :]
    if not np.all(np.isfinite(coeffs)):
        raise NumericsError("frequency-domain solve produced non-finite coefficients")
    return coeffs


def linear_system_response(omega, config: SystemConfig, noise: NoiseParams | None = None):
    """Direct-solve transfer coefficients into b[w] for each enabled unit noise drive.

    Returns {channel: complex coefficient}. Linear in the drives by
    construction; raises NumericsError when the system is near-singular.
    """
    noise = noise or NoiseParams()
    if np.size(omega) != 1:
        raise ConfigError("linear_system_response evaluates one frequency; use psd_map for grids")
    A, rhs = _assemble(config, np.reshape(omega, ()), config.drive_tm.detuning, config.drive_te.detuning)
    cond = np.linalg.cond(A)
    if not np.isfinite(cond) or cond > _COND_LIMIT:
        raise NumericsError(f"frequency-domain system near-singular (condition number {cond:.3e})")
    coeffs = _coefficients(A, rhs).tolist()
    return {ch: coeffs[k] for k, ch in enumerate(_CHANNEL_ORDER) if ch in noise.channels}


def _loop_pieces(omega, config):
    """Scalar elimination pieces at one frequency: 1/X, Y and the bare susceptibilities."""
    g = effective_couplings(config)
    gr, om_r = config.phonon.gamma, config.phonon.omega
    chi_r = susceptibility(gr, om_r, omega)
    chi_r_ref = np.conj(susceptibility(gr, om_r, -omega))
    chi_m = susceptibility(config.magnon.gamma, config.magnon.omega, omega)
    d_r = chi_r - chi_r_ref
    x_inv = (config.te_photon.gamma / 2 - 1j * (omega + config.drive_te.detuning) + abs(g.g_b) ** 2 * d_r
             + g.g_a * g.g_a * chi_m)
    y = g.g_b**2 * d_r
    return x_inv, y, chi_r, chi_r_ref, chi_m


def closed_form_response(omega, config: SystemConfig):
    """Analytic elimination of the mechanical and magnetic sectors.

    Full channel algebra; matches linear_system_response. Returns
    {channel: complex coefficient} per unit noise amplitude.
    """
    omega = float(omega)
    g = effective_couplings(config)
    gr = config.phonon.gamma
    gm = config.magnon.gamma
    x_inv, y, chi_r, chi_r_ref, chi_m = _loop_pieces(omega, config)
    x_inv_m, y_m, _, _, _ = _loop_pieces(-omega, config)
    if min(abs(x_inv), abs(x_inv_m)) == 0:
        raise NumericsError("closed-form elimination hit a zero loop denominator")
    x = 1 / x_inv
    x_ref = np.conj(1 / x_inv_m)  # X*[-w]
    y_ref = np.conj(y_m)          # Y*[-w]
    den = 1 - x * y * x_ref * y_ref
    if abs(den) < 1e-12:
        raise NumericsError(f"closed-form loop denominator below tolerance (|den| = {abs(den):.3e})")
    chi_m_ref = np.conj(susceptibility(gm, config.magnon.omega, -omega))
    # direct drive vector and its frequency-reflected conjugate, channel order r+ r- m+ m-
    z = np.array([
        -1j * g.g_b * np.sqrt(gr) * chi_r,
        -1j * g.g_b * np.sqrt(gr) * chi_r_ref,
        -1j * g.g_a * np.sqrt(gm) * chi_m,
        0.0,
    ], dtype=complex)
    z_ref = np.array([
        1j * np.conj(g.g_b) * np.sqrt(gr) * chi_r,
        1j * np.conj(g.g_b) * np.sqrt(gr) * chi_r_ref,
        0.0,
        1j * np.conj(g.g_a) * np.sqrt(gm) * chi_m_ref,
    ], dtype=complex)
    coeffs = x * (z - y * x_ref * z_ref) / den
    return {ch: complex(coeffs[k]) for k, ch in enumerate(_CHANNEL_ORDER)}


def _psd(config, omega, det_tm, det_te, noise):
    coeffs = _coefficients(*_assemble(config, omega, det_tm, det_te))
    mask = [ch in noise.channels for ch in _CHANNEL_ORDER]
    return noise.unit_psd * np.sum(np.abs(coeffs[..., mask]) ** 2, axis=-1)


def psd(omega, config: SystemConfig, noise: NoiseParams | None = None):
    """Output power spectral density: incoherent channel sum of |transfer|^2 times unit_psd."""
    out = _psd(config, omega, config.drive_tm.detuning, config.drive_te.detuning, noise or NoiseParams())
    return float(out) if np.ndim(out) == 0 else out


def psd_map(config_template: SystemConfig, omega_grid, detuning_grid, swept: str = "TE",
            noise: NoiseParams | None = None):
    """PSD over a (frequency, pump-detuning) grid, sweeping the TE or TM drive.

    Returns a float array of shape (n_detuning, n_omega): row k is, bit for
    bit, the psd over omega_grid with the swept pump at detuning_grid[k].
    Each row is one assembly and one batched solve with that detuning
    passed in; no config is rebuilt, and evaluation order never changes values.
    """
    if swept not in ("TE", "TM"):
        raise ConfigError(f"swept must be 'TE' or 'TM', got {swept!r}")
    omega_grid = _checked_grid("omega_grid", omega_grid)
    detuning_grid = _checked_grid("detuning_grid", detuning_grid)
    noise = noise or NoiseParams()
    det_tm, det_te = config_template.drive_tm.detuning, config_template.drive_te.detuning
    out = np.empty((detuning_grid.size, omega_grid.size))
    for k, det in enumerate(detuning_grid.tolist()):
        dets = (det_tm, det) if swept == "TE" else (det, det_te)
        out[k] = _psd(config_template, omega_grid, *dets, noise)
    return out
